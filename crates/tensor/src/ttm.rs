//! Tensor-times-matrix (mode-`n`) products.
//!
//! `Y = X ×_n U` replaces mode `n` of `X` (extent `I_n`) with the row
//! dimension of `U`. In Tucker/HOSVD pipelines `U` is either a factor
//! matrix (reconstruction) or a transposed factor matrix (core recovery:
//! `G = X ×₁ U⁽¹⁾ᵀ ⋯ ×_N U⁽ᴺ⁾ᵀ`, the final step of Algorithms 1, 2 and 4
//! of the paper).
//!
//! All four dense entry points run one strided kernel. Viewing `X` as a
//! row-major `[high, I_n, low]` block (`high` the product of the extents
//! before mode `n`, `low` the product of those after it), the kernel writes
//! `Y[h, j, l] = Σ_i c(j, i) · X[h, i, l]` straight into the output: no
//! unfolding, no product matrix, no folding. Each output element starts
//! from `0.0` and adds its terms in ascending `i` with an unfused
//! multiply and add. That is the per-element order of the row-streaming
//! matmul and of a blocked GEMM whose shared dimension fits one `KC`
//! block, so the result is bitwise identical to
//! `fold(U · unfold(X))` for every `I_n ≤ KC = 256`. Output rows are
//! shared out over the pool, but each element is written by one thread in
//! that one order, so results are bitwise identical at every thread count.

use crate::dense::DenseTensor;
use crate::error::TensorError;
use crate::sparse::SparseTensor;
use crate::workspace::Workspace;
use crate::Result;
use m2td_linalg::Matrix;

/// Minimum multiply-add count before the dense kernel fans out over the
/// pool: below this the scoped-thread setup costs more than the work.
const DENSE_PAR_MIN_WORK: usize = 64 * 1024;

/// Dense mode-`n` product `X ×_n U` where `U` is `J × I_n`.
pub fn ttm_dense(x: &DenseTensor, mode: usize, u: &Matrix) -> Result<DenseTensor> {
    ttm_dense_ws(x, mode, u, &mut Workspace::new())
}

/// [`ttm_dense`] taking its output buffer from a [`Workspace`], used by
/// Tucker recomposition and the serve-engine slice path. Bitwise
/// identical to the allocating variant.
pub fn ttm_dense_ws(
    x: &DenseTensor,
    mode: usize,
    u: &Matrix,
    ws: &mut Workspace,
) -> Result<DenseTensor> {
    x.shape().check_mode(mode)?;
    if u.cols() != x.shape().dim(mode) {
        return Err(TensorError::ShapeMismatch {
            expected: vec![u.rows(), x.shape().dim(mode)],
            actual: vec![u.rows(), u.cols()],
            op: "ttm_dense",
        });
    }
    // c(j, i) = U[j, i]
    Ok(ttm_strided(
        x,
        mode,
        u.rows(),
        u.as_slice(),
        (u.cols(), 1),
        ws,
    ))
}

/// Dense mode-`n` product with the transpose, `X ×_n Uᵀ`, where `U` is
/// `I_n × J`. Reads `U` in place; `Uᵀ` is never materialized.
pub fn ttm_dense_transposed(x: &DenseTensor, mode: usize, u: &Matrix) -> Result<DenseTensor> {
    ttm_dense_transposed_ws(x, mode, u, &mut Workspace::new())
}

/// [`ttm_dense_transposed`] taking its output buffer from a
/// [`Workspace`], so a TTM chain (or a HOOI sweep loop) reuses the same
/// few allocations step after step. Bitwise identical to the allocating
/// variant.
pub fn ttm_dense_transposed_ws(
    x: &DenseTensor,
    mode: usize,
    u: &Matrix,
    ws: &mut Workspace,
) -> Result<DenseTensor> {
    x.shape().check_mode(mode)?;
    if u.rows() != x.shape().dim(mode) {
        return Err(TensorError::ShapeMismatch {
            expected: vec![x.shape().dim(mode), u.cols()],
            actual: vec![u.rows(), u.cols()],
            op: "ttm_dense_transposed",
        });
    }
    // c(j, i) = U[i, j]
    Ok(ttm_strided(
        x,
        mode,
        u.cols(),
        u.as_slice(),
        (1, u.cols()),
        ws,
    ))
}

/// The dense kernel behind every entry point above: `X ×_n C` for the
/// `j_dim × I_n` coefficient matrix `c(j, i) = coef[j·sj + i·si]`, with
/// `(sj, si)` the coefficient strides. See the module docs for the
/// accumulation order.
fn ttm_strided(
    x: &DenseTensor,
    mode: usize,
    j_dim: usize,
    coef: &[f64],
    (sj, si): (usize, usize),
    ws: &mut Workspace,
) -> DenseTensor {
    let dims = x.dims();
    let i_dim = dims[mode];
    let low: usize = dims[mode + 1..].iter().product();
    let mut out_dims = dims.to_vec();
    out_dims[mode] = j_dim;
    let total: usize = out_dims.iter().product();
    let mut out = DenseTensor::from_vec(&out_dims, ws.take(total))
        .expect("take(total) returns a buffer of exactly that length");
    if total == 0 {
        return out;
    }
    let src = x.as_slice();
    // Output row `h` is the `J × low` block `Y[h, .., ..]`.
    let block = |h: usize, out_block: &mut [f64]| {
        let x_block = &src[h * i_dim * low..(h + 1) * i_dim * low];
        if low == 1 {
            // Last-mode product: each output is a dot product over `i`;
            // the fiber loop below would pay its setup per single element.
            for (j, o) in out_block.iter_mut().enumerate() {
                for (i, &xv) in x_block.iter().enumerate() {
                    *o += coef[j * sj + i * si] * xv;
                }
            }
            return;
        }
        for (j, out_fiber) in out_block.chunks_exact_mut(low).enumerate() {
            for (i, x_fiber) in x_block.chunks_exact(low).enumerate() {
                let c = coef[j * sj + i * si];
                for (o, &xv) in out_fiber.iter_mut().zip(x_fiber) {
                    *o += c * xv;
                }
            }
        }
    };
    let data = out.as_mut_slice();
    if total * i_dim < DENSE_PAR_MIN_WORK {
        for (h, out_block) in data.chunks_mut(j_dim * low).enumerate() {
            block(h, out_block);
        }
    } else {
        m2td_par::par_rows_mut(data, j_dim * low, block);
    }
    out
}

/// Sparse mode-`n` product `X ×_n U` (`U` is `J × I_n`), producing a dense
/// tensor. Each stored entry scatters into `J` output cells, so the cost is
/// `O(nnz · J)` — independent of the full tensor size.
pub fn ttm_sparse(x: &SparseTensor, mode: usize, u: &Matrix) -> Result<DenseTensor> {
    x.shape().check_mode(mode)?;
    if u.cols() != x.shape().dim(mode) {
        return Err(TensorError::ShapeMismatch {
            expected: vec![u.rows(), x.shape().dim(mode)],
            actual: vec![u.rows(), u.cols()],
            op: "ttm_sparse",
        });
    }
    let _span = m2td_obs::span!("tensor.ttm_sparse_fwd", mode = mode);
    scatter_sparse(x, mode, u.rows(), |j, i_n| u.get(j, i_n))
}

/// Sparse mode-`n` product with the transpose, `X ×_n Uᵀ`, where `U` is
/// `I_n × J`. This is the first (and only sparse) step of the paper's core
/// recovery `G = J ×₁ U⁽¹⁾ᵀ ⋯`.
pub fn ttm_sparse_transposed(x: &SparseTensor, mode: usize, u: &Matrix) -> Result<DenseTensor> {
    x.shape().check_mode(mode)?;
    if u.rows() != x.shape().dim(mode) {
        return Err(TensorError::ShapeMismatch {
            expected: vec![x.shape().dim(mode), u.cols()],
            actual: vec![u.rows(), u.cols()],
            op: "ttm_sparse_transposed",
        });
    }
    let _span = m2td_obs::span!("tensor.ttm_sparse", mode = mode);
    scatter_sparse(x, mode, u.cols(), |j, i_n| u.get(i_n, j))
}

/// Entry count up to which an *uncached* scatter runs as a plain serial
/// stream loop: below this, building the mode-sorted index costs more
/// than it saves. (This replaces the retired `SCATTER_PAR_MIN_NNZ`
/// stream-replay kernel, which re-scanned the full entry stream once per
/// partition — `O(parts·nnz·J)` — and is now gone.)
const SCATTER_DIRECT_MAX_NNZ: usize = 1 << 10;

/// Minimum multiply-add count (`nnz · J`) before the mode-sorted scatter
/// fans out over the pool.
const SCATTER_PAR_MIN_WORK: usize = 1 << 12;

/// Shared scatter kernel: output mode-`n` extent is `j_dim`, with
/// coefficient `coef(j, i_n)` applied to each stored entry.
///
/// Because the input and output tensors differ only in the extent of
/// `mode`, the row-major stride of `mode` (the product of the trailing
/// extents) is the same in both, so an input linear index `lin`
/// decomposes as `lin = high·(stride·I_n) + i_n·stride + low` and the
/// touched output cells are `high·(stride·J) + j·stride + low`.
///
/// Two paths, chosen as follows:
///
/// * **Direct** — `nnz ≤ SCATTER_DIRECT_MAX_NNZ` and no mode-sorted index
///   is cached yet: one serial pass over the entry stream (the original
///   serial kernel, kept as the small-tensor fallback).
/// * **Mode-sorted** — otherwise: the tensor's cached mode-sorted index
///   (`ModeScatterIndex` in `sparse.rs`) groups entries by output cell
///   `(high, low)`; threads own contiguous, disjoint group ranges and each
///   group replays its entries in original stream order. Total work is
///   `O(nnz·J)` — the retired stream-replay path paid `O(parts·nnz·J)`.
///
/// Both paths accumulate into each output cell in entry-stream order, so
/// results are bitwise identical to each other and across thread counts.
fn scatter_sparse(
    x: &SparseTensor,
    mode: usize,
    j_dim: usize,
    coef: impl Fn(usize, usize) -> f64 + Sync,
) -> Result<DenseTensor> {
    let out_dims: Vec<usize> = x
        .dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| if m == mode { j_dim } else { d })
        .collect();
    let mut out = DenseTensor::zeros(&out_dims);
    if x.nnz() == 0 || out.num_elements() == 0 {
        return Ok(out);
    }

    let stride: usize = x.dims()[mode + 1..].iter().product();
    let in_block = stride * x.dims()[mode];
    let out_block = stride * j_dim;
    let data = out.as_mut_slice();

    if x.nnz() <= SCATTER_DIRECT_MAX_NNZ && !x.has_scatter_index(mode) {
        for (lin, v) in x.iter_linear() {
            let lin = lin as usize;
            let high = lin / in_block;
            let rest = lin % in_block;
            let i_n = rest / stride;
            let low = rest % stride;
            let base = high * out_block + low;
            for j in 0..j_dim {
                data[base + j * stride] += coef(j, i_n) * v;
            }
        }
        return Ok(out);
    }

    let idx = x.scatter_index(mode);
    debug_assert_eq!(idx.stride(), stride);
    let groups = idx.num_groups();
    let parts = if x.nnz() * j_dim < SCATTER_PAR_MIN_WORK {
        1
    } else {
        m2td_par::max_threads().clamp(1, groups)
    };
    let sink = m2td_par::UnsafeSlice::new(data);
    m2td_par::par_for_each_index(parts, |part| {
        let g0 = part * groups / parts;
        let g1 = (part + 1) * groups / parts;
        for g in g0..g1 {
            let (high, low) = idx.group_key(g);
            let base = high * out_block + low;
            for &(i_n, v) in idx.group_entries(g) {
                for j in 0..j_dim {
                    // SAFETY: cell `base + j·stride` decomposes uniquely
                    // into (group, j) — `low < stride`, `j < j_dim` — and
                    // each group belongs to exactly one contiguous part,
                    // so concurrent writers are disjoint.
                    unsafe { sink.add_assign(base + j * stride, coef(j, i_n as usize) * v) };
                }
            }
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_3x4x2() -> DenseTensor {
        DenseTensor::from_fn(&[3, 4, 2], |i| (1 + i[0] + 3 * i[1] + 12 * i[2]) as f64)
    }

    #[test]
    fn ttm_identity_is_noop() {
        let t = dense_3x4x2();
        for mode in 0..3 {
            let id = Matrix::identity(t.dims()[mode]);
            let y = ttm_dense(&t, mode, &id).unwrap();
            assert_eq!(y, t);
        }
    }

    #[test]
    fn ttm_known_small_case() {
        // 2x2 tensor (matrix): X ×_0 U == U * X.
        let x = DenseTensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let u = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap(); // 1x2
        let y = ttm_dense(&x, 0, &u).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.get(&[0, 0]), 4.0); // col sums
        assert_eq!(y.get(&[0, 1]), 6.0);
    }

    #[test]
    fn ttm_changes_only_target_mode() {
        let t = dense_3x4x2();
        let u = Matrix::from_fn(2, 4, |i, j| (i + j) as f64);
        let y = ttm_dense(&t, 1, &u).unwrap();
        assert_eq!(y.dims(), &[3, 2, 2]);
    }

    #[test]
    fn ttm_transposed_matches_explicit_transpose() {
        let t = dense_3x4x2();
        let u = Matrix::from_fn(4, 2, |i, j| ((i * 2 + j) as f64).sin());
        let fast = ttm_dense_transposed(&t, 1, &u).unwrap();
        let slow = ttm_dense(&t, 1, &u.transpose()).unwrap();
        let d = fast.sub(&slow).unwrap().frobenius_norm();
        assert!(d < 1e-12);
    }

    #[test]
    fn sparse_ttm_matches_dense_ttm() {
        let d = dense_3x4x2();
        let s = SparseTensor::from_dense(&d);
        let u = Matrix::from_fn(2, 3, |i, j| ((i + 2 * j) as f64).cos());
        let via_sparse = ttm_sparse(&s, 0, &u).unwrap();
        let via_dense = ttm_dense(&d, 0, &u).unwrap();
        let diff = via_sparse.sub(&via_dense).unwrap().frobenius_norm();
        assert!(diff < 1e-12, "sparse/dense TTM mismatch: {diff}");
    }

    #[test]
    fn sparse_ttm_transposed_matches_dense() {
        let d = dense_3x4x2();
        let s = SparseTensor::from_dense(&d);
        for mode in 0..3 {
            let u = Matrix::from_fn(d.dims()[mode], 2, |i, j| ((i * 3 + j) as f64).sin());
            let a = ttm_sparse_transposed(&s, mode, &u).unwrap();
            let b = ttm_dense_transposed(&d, mode, &u).unwrap();
            let diff = a.sub(&b).unwrap().frobenius_norm();
            assert!(diff < 1e-12, "mode {mode} mismatch: {diff}");
        }
    }

    #[test]
    fn sparse_ttm_on_truly_sparse_input() {
        let s = SparseTensor::from_entries(&[3, 3, 3], &[(vec![1, 1, 1], 2.0)]).unwrap();
        let u = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let y = ttm_sparse(&s, 2, &u).unwrap();
        assert_eq!(y.dims(), &[3, 3, 2]);
        // y[1,1,j] = u[j,1] * 2
        assert_eq!(y.get(&[1, 1, 0]), 2.0);
        assert_eq!(y.get(&[1, 1, 1]), 8.0);
        assert_eq!(y.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn shape_mismatch_detected() {
        let t = dense_3x4x2();
        let s = SparseTensor::from_dense(&t);
        let u = Matrix::zeros(2, 5);
        assert!(ttm_dense(&t, 0, &u).is_err());
        assert!(ttm_dense_transposed(&t, 0, &u).is_err());
        assert!(ttm_sparse(&s, 0, &u).is_err());
        assert!(ttm_sparse_transposed(&s, 0, &u).is_err());
        assert!(ttm_dense(&t, 3, &u).is_err());
    }

    #[test]
    fn direct_and_mode_sorted_paths_are_bitwise_identical() {
        // Small tensor: the first call takes the direct stream loop; after
        // forcing the index, the same call takes the mode-sorted path.
        let d = DenseTensor::from_fn(&[5, 6, 4], |i| {
            ((i[0] * 11 + i[1] * 5 + i[2]) as f64 * 0.23).sin()
        });
        let s = SparseTensor::from_dense(&d);
        for mode in 0..3 {
            let u = Matrix::from_fn(d.dims()[mode], 3, |i, j| ((i * 3 + j) as f64).cos());
            assert!(s.nnz() <= SCATTER_DIRECT_MAX_NNZ);
            assert!(!s.has_scatter_index(mode));
            let direct = ttm_sparse_transposed(&s, mode, &u).unwrap();
            s.scatter_index(mode); // force the cached path
            let sorted = ttm_sparse_transposed(&s, mode, &u).unwrap();
            assert_eq!(direct, sorted, "path divergence in mode {mode}");
        }
    }

    #[test]
    fn ws_variant_is_bitwise_identical_to_allocating_variant() {
        let t = dense_3x4x2();
        let mut ws = crate::Workspace::new();
        for mode in 0..3 {
            let u = Matrix::from_fn(t.dims()[mode], 2, |i, j| ((i * 2 + j) as f64 * 0.4).sin());
            let plain = ttm_dense_transposed(&t, mode, &u).unwrap();
            let pooled = ttm_dense_transposed_ws(&t, mode, &u, &mut ws).unwrap();
            assert_eq!(plain, pooled, "ws variant diverged in mode {mode}");
            ws.recycle_tensor(pooled);
        }
        assert!(ws.reuse_hits() > 0, "workspace never reused a buffer");
        let bad = Matrix::zeros(9, 9);
        assert!(ttm_dense_transposed_ws(&t, 0, &bad, &mut ws).is_err());
    }

    #[test]
    fn sparse_scatter_bitwise_identical_across_thread_counts() {
        // 4096 stored entries clears SCATTER_DIRECT_MAX_NNZ, so the
        // mode-sorted parallel path actually runs at t > 1.
        let d = DenseTensor::from_fn(&[16, 16, 16], |i| {
            (1 + i[0] * 7 + i[1] * 3 + i[2]) as f64 * 0.5 - 100.0
        });
        let s = SparseTensor::from_dense(&d);
        for mode in 0..3 {
            let u = Matrix::from_fn(16, 5, |i, j| ((i * 5 + j) as f64).sin());
            m2td_par::set_max_threads(1);
            let serial = ttm_sparse_transposed(&s, mode, &u).unwrap();
            let serial_fwd = ttm_sparse(&s, mode, &u.transpose()).unwrap();
            for t in [2usize, 8] {
                m2td_par::set_max_threads(t);
                assert_eq!(ttm_sparse_transposed(&s, mode, &u).unwrap(), serial);
                assert_eq!(ttm_sparse(&s, mode, &u.transpose()).unwrap(), serial_fwd);
            }
            m2td_par::set_max_threads(0);
        }
    }

    #[test]
    fn ttm_composition_commutes_across_modes() {
        // (X ×_0 A) ×_2 B == (X ×_2 B) ×_0 A for distinct modes.
        let t = dense_3x4x2();
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(3, 2, |i, j| (i * j + 1) as f64);
        let ab = ttm_dense(&ttm_dense(&t, 0, &a).unwrap(), 2, &b).unwrap();
        let ba = ttm_dense(&ttm_dense(&t, 2, &b).unwrap(), 0, &a).unwrap();
        let d = ab.sub(&ba).unwrap().frobenius_norm();
        assert!(d < 1e-12);
    }
}
