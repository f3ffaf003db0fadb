//! TTM-chain planner for core recovery.
//!
//! Recovering a Tucker core, `G = X ×₁ U⁽¹⁾ᵀ ⋯ ×_N U⁽ᴺ⁾ᵀ` (Algorithms 1,
//! 2 and 4 of the paper), is a chain of mode products whose cost depends
//! heavily on *execution order* and *representation*:
//!
//! * **Order** — contracting mode `n` multiplies the intermediate's size
//!   by `R_n / I_n`, so contracting the best-compressing modes first keeps
//!   every later step small. [`TtmPlan`] orders the chain by decreasing
//!   compression ratio `I_n / R_n`, compared exactly by integer
//!   cross-multiplication with ties broken by mode index, so the order is
//!   pinned deterministic across platforms.
//! * **Representation** — an input whose stored fraction already reaches
//!   [`TtmPlan::densify_threshold`] (a fully crossed join tensor is 100%
//!   dense) is materialized once and the whole chain runs on the strided
//!   dense kernel. A sparser ensemble stays far from dense for the first
//!   steps of the chain, so the executor keeps a *semi-sparse*
//!   intermediate ([`SemiSparse`]): sparse coordinates over the
//!   not-yet-contracted modes, a dense fiber block over the contracted
//!   ones (the SPLATT-style layout). Each step costs `O(stored · R_n)`
//!   instead of `O(dense · R_n)`. Once the predicted stored size crosses
//!   the threshold × the dense size, the intermediate is materialized and
//!   the chain finishes on the dense kernel. The routes agree bit for bit
//!   for finite factors: every kernel sums each output element in
//!   ascending contracted index from `+0.0`, and the cells the sparse
//!   route skips would only add `±0`, which leaves such a sum unchanged.
//!
//! Determinism: every kernel in this module accumulates into each output
//! element in a fixed, thread-count-independent order — output groups are
//! partitioned into contiguous disjoint ranges, and within a group the
//! members are replayed in a stable-sorted order — so plan execution is
//! bitwise identical at every thread count.

use crate::dense::DenseTensor;
use crate::error::TensorError;
use crate::hosvd::CoreOrdering;
use crate::shape::Shape;
use crate::sparse::SparseTensor;
use crate::ttm::ttm_dense_transposed_ws;
use crate::workspace::Workspace;
use crate::Result;
use m2td_linalg::Matrix;

/// Default fraction of the dense intermediate size at which the
/// semi-sparse representation is abandoned: beyond ~a quarter density the
/// dense kernels' constants beat the per-key bookkeeping.
const DEFAULT_DENSIFY_THRESHOLD: f64 = 0.25;

/// Minimum multiply-add count before a semi-sparse step fans out over the
/// thread pool (mirrors the scatter kernel's gate).
const SEMI_PAR_MIN_WORK: usize = 1 << 12;

/// Mode order for a core-recovery TTM chain.
///
/// For [`CoreOrdering::BestShrinkFirst`] modes are sorted by decreasing
/// `I_n / R_n`, the comparison done exactly on `I_a·R_b` vs `I_b·R_a`
/// (no floating point), with ties broken by ascending mode index — the
/// order is fully pinned.
pub(crate) fn plan_mode_order(
    dims: &[usize],
    ranks: &[usize],
    ordering: CoreOrdering,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..dims.len()).collect();
    if ordering == CoreOrdering::BestShrinkFirst {
        order.sort_by(|&a, &b| {
            let lhs = dims[a] as u128 * ranks[b] as u128;
            let rhs = dims[b] as u128 * ranks[a] as u128;
            rhs.cmp(&lhs).then(a.cmp(&b))
        });
    }
    order
}

/// An execution plan for the core-recovery chain
/// `G = X ×₁ U⁽¹⁾ᵀ ⋯ ×_N U⁽ᴺ⁾ᵀ` over a tensor of shape `dims` with
/// factors `U⁽ⁿ⁾ : I_n × R_n`.
///
/// Build once per shape, execute per tensor — the plan is immutable and
/// `Sync`, so distributed reducers can share one plan across chunks.
#[derive(Debug, Clone)]
pub struct TtmPlan {
    dims: Vec<usize>,
    ranks: Vec<usize>,
    order: Vec<usize>,
    densify_threshold: f64,
}

impl TtmPlan {
    /// Plans the chain with the default best-shrink-first ordering.
    pub fn new(dims: &[usize], ranks: &[usize]) -> Result<Self> {
        Self::with_ordering(dims, ranks, CoreOrdering::BestShrinkFirst)
    }

    /// Plans the chain under an explicit [`CoreOrdering`].
    pub fn with_ordering(dims: &[usize], ranks: &[usize], ordering: CoreOrdering) -> Result<Self> {
        if ranks.len() != dims.len() {
            return Err(TensorError::WrongNumberOfRanks {
                supplied: ranks.len(),
                order: dims.len(),
            });
        }
        Ok(Self {
            dims: dims.to_vec(),
            ranks: ranks.to_vec(),
            order: plan_mode_order(dims, ranks, ordering),
            densify_threshold: DEFAULT_DENSIFY_THRESHOLD,
        })
    }

    /// Overrides the densify threshold (clamped to `>= 0`; `0` runs every
    /// non-empty input dense from the start).
    pub fn with_densify_threshold(mut self, threshold: f64) -> Self {
        self.densify_threshold = threshold.max(0.0);
        self
    }

    /// The contraction order the planner chose.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The stored-density fraction at which the executor switches from the
    /// semi-sparse representation to dense kernels, checked on the input
    /// and again before each later chain step.
    pub fn densify_threshold(&self) -> f64 {
        self.densify_threshold
    }

    /// Predicted floating-point multiply-add count of the chain under the
    /// dense cost model: contracting mode `n` over an intermediate of
    /// element count `E` costs `E · R_n` multiply-adds. This is the
    /// op-count the `ttm.plan_madds` gauge reports and the quantity the
    /// planner ordering minimizes greedily.
    pub fn predicted_madds(&self) -> u64 {
        let mut cur: Vec<u64> = self.dims.iter().map(|&d| d as u64).collect();
        let mut total = 0u64;
        for &n in &self.order {
            let elems: u64 = cur.iter().product();
            total += elems * self.ranks[n] as u64;
            cur[n] = self.ranks[n] as u64;
        }
        total
    }

    fn validate(&self, dims: &[usize], factors: &[Matrix]) -> Result<()> {
        if dims != self.dims.as_slice() {
            return Err(TensorError::ShapeMismatch {
                expected: self.dims.clone(),
                actual: dims.to_vec(),
                op: "ttm_plan",
            });
        }
        if factors.len() != self.dims.len() {
            return Err(TensorError::WrongNumberOfRanks {
                supplied: factors.len(),
                order: self.dims.len(),
            });
        }
        for (n, f) in factors.iter().enumerate() {
            if f.rows() != self.dims[n] || f.cols() != self.ranks[n] {
                return Err(TensorError::ShapeMismatch {
                    expected: vec![self.dims[n], self.ranks[n]],
                    actual: vec![f.rows(), f.cols()],
                    op: "ttm_plan",
                });
            }
        }
        Ok(())
    }

    /// Executes the chain on a sparse tensor. An input already at least
    /// [`Self::densify_threshold`] dense runs the whole chain on the dense
    /// kernels ([`Self::execute_dense`] on `x.to_dense()`); a sparser one
    /// stays semi-sparse until the threshold trips, dense after.
    ///
    /// Both routes give the same bits for finite factors: a cell the
    /// sparse route skips only adds `±0` to a running sum that starts at
    /// `+0.0`. Bitwise identical at every thread count; see the module
    /// docs for the determinism argument.
    pub fn execute_sparse(
        &self,
        x: &SparseTensor,
        factors: &[Matrix],
        ws: &mut Workspace,
    ) -> Result<DenseTensor> {
        self.validate(x.dims(), factors)?;
        if let Some(size) = x.shape().checked_num_elements() {
            if x.nnz() > 0 && x.nnz() as f64 >= self.densify_threshold * size as f64 {
                return self.execute_dense(&x.to_dense()?, factors, ws);
            }
        }
        let _span = m2td_obs::span!("ttm.plan");
        m2td_obs::gauge_set("ttm.plan_madds", self.predicted_madds() as f64);
        if self.order.is_empty() || x.nnz() == 0 {
            return Ok(DenseTensor::zeros(&self.ranks));
        }

        let first = self.order[0];
        let semi = SemiSparse::first_step(x, first, &factors[first], ws);
        let mut max_stored = (x.nnz() as u64).max(semi.stored_elems() as u64);

        enum Inter {
            Semi(SemiSparse),
            Dense(DenseTensor),
        }
        let mut cur = Inter::Semi(semi);
        for &mode in &self.order[1..] {
            cur = match cur {
                Inter::Dense(t) => {
                    let next = ttm_dense_transposed_ws(&t, mode, &factors[mode], ws)?;
                    ws.recycle_tensor(t);
                    Inter::Dense(next)
                }
                Inter::Semi(mut s) => {
                    let r = self.ranks[mode];
                    // Upper bound on the stored size after this step: key
                    // count can only shrink when groups merge.
                    let predicted = (s.keys.len() * s.block_len * r) as f64;
                    let dense_after: f64 = s
                        .dims
                        .iter()
                        .enumerate()
                        .map(|(m, &d)| if m == mode { r } else { d } as f64)
                        .product();
                    if predicted >= self.densify_threshold * dense_after {
                        m2td_obs::counter_add("ttm.densify_mode", 1);
                        let t = s.materialize(ws);
                        let next = ttm_dense_transposed_ws(&t, mode, &factors[mode], ws)?;
                        ws.recycle_tensor(t);
                        Inter::Dense(next)
                    } else {
                        s.contract(mode, &factors[mode], ws);
                        Inter::Semi(s)
                    }
                }
            };
            max_stored = max_stored.max(match &cur {
                Inter::Semi(s) => s.stored_elems() as u64,
                Inter::Dense(t) => t.num_elements() as u64,
            });
        }
        m2td_obs::gauge_set("ttm.intermediate_elems", max_stored as f64);
        match cur {
            Inter::Dense(t) => Ok(t),
            Inter::Semi(s) => Ok(s.materialize(ws)),
        }
    }

    /// Executes the chain on a dense tensor with the workspace kernels.
    pub fn execute_dense(
        &self,
        x: &DenseTensor,
        factors: &[Matrix],
        ws: &mut Workspace,
    ) -> Result<DenseTensor> {
        self.validate(x.dims(), factors)?;
        let _span = m2td_obs::span!("ttm.plan");
        m2td_obs::gauge_set("ttm.plan_madds", self.predicted_madds() as f64);
        let mut acc: Option<DenseTensor> = None;
        let mut max_stored = x.num_elements() as u64;
        for &mode in &self.order {
            let next = match &acc {
                None => ttm_dense_transposed_ws(x, mode, &factors[mode], ws)?,
                Some(t) => ttm_dense_transposed_ws(t, mode, &factors[mode], ws)?,
            };
            if let Some(t) = acc.take() {
                ws.recycle_tensor(t);
            }
            max_stored = max_stored.max(next.num_elements() as u64);
            acc = Some(next);
        }
        m2td_obs::gauge_set("ttm.intermediate_elems", max_stored as f64);
        Ok(acc.expect("order is non-empty for non-empty tensors"))
    }
}

/// Semi-sparse intermediate of a TTM chain: sparse coordinates over the
/// not-yet-contracted modes, one dense block per stored coordinate over
/// the already-contracted modes.
///
/// Invariants: `keys` are strictly increasing linear indices over the
/// subshape formed by `sparse_modes` (ascending mode order); `blocks` is
/// `keys.len() × block_len`, each block row-major over `dense_modes`
/// (ascending) with the contracted modes' rank extents.
struct SemiSparse {
    /// Current intermediate dims (contracted modes at rank extent).
    dims: Vec<usize>,
    /// Modes still sparse, ascending.
    sparse_modes: Vec<usize>,
    /// Modes already contracted, ascending — the dense block axes.
    dense_modes: Vec<usize>,
    /// Linear keys over the sparse-mode subshape, strictly increasing.
    keys: Vec<usize>,
    /// `keys.len() × block_len` dense fiber blocks.
    blocks: Vec<f64>,
    block_len: usize,
}

impl SemiSparse {
    /// Number of stored scalars (the quantity the densify threshold and
    /// the `ttm.intermediate_elems` gauge track).
    fn stored_elems(&self) -> usize {
        self.keys.len() * self.block_len
    }

    /// First chain step `X ×_n Uᵀ` straight off the tensor's mode-sorted
    /// scatter index: each index group is one surviving coordinate, its
    /// dense fiber `block[j] = Σ U[i_n, j]·v` accumulated over the group's
    /// entries in stream order.
    fn first_step(x: &SparseTensor, mode: usize, u: &Matrix, ws: &mut Workspace) -> Self {
        let idx = x.scatter_index(mode);
        let r = u.cols();
        let groups = idx.num_groups();
        let stride = idx.stride();

        let mut keys = Vec::with_capacity(groups);
        for g in 0..groups {
            let (high, low) = idx.group_key(g);
            // Linear index over the input shape with `mode` removed.
            keys.push(high * stride + low);
        }

        let mut blocks = ws.take(groups * r);
        let parts = if x.nnz() * r < SEMI_PAR_MIN_WORK {
            1
        } else {
            m2td_par::max_threads().clamp(1, groups.max(1))
        };
        {
            let sink = m2td_par::UnsafeSlice::new(blocks.as_mut_slice());
            m2td_par::par_for_each_index(parts, |part| {
                let g0 = part * groups / parts;
                let g1 = (part + 1) * groups / parts;
                for g in g0..g1 {
                    for &(i_n, v) in idx.group_entries(g) {
                        for j in 0..r {
                            // SAFETY: block row `g` belongs to exactly one
                            // contiguous part, so writers are disjoint.
                            unsafe { sink.add_assign(g * r + j, u.get(i_n as usize, j) * v) };
                        }
                    }
                }
            });
        }

        let mut dims = x.dims().to_vec();
        dims[mode] = r;
        Self {
            sparse_modes: (0..dims.len()).filter(|&m| m != mode).collect(),
            dense_modes: vec![mode],
            dims,
            keys,
            blocks,
            block_len: r,
        }
    }

    /// Contracts sparse mode `n` with `U : I_n × R`, staying semi-sparse:
    /// keys sharing every other sparse coordinate merge, and the dense
    /// block grows by an `R`-extent axis at `n`'s position.
    fn contract(&mut self, n: usize, u: &Matrix, ws: &mut Workspace) {
        let pos = self
            .sparse_modes
            .iter()
            .position(|&m| m == n)
            .expect("contract target must still be sparse");
        let sdims: Vec<usize> = self.sparse_modes.iter().map(|&m| self.dims[m]).collect();
        let stride_n: usize = sdims[pos + 1..].iter().product();
        let above = stride_n * sdims[pos];
        let r = u.cols();

        // Tag every key with its merged key and mode-n coordinate. Keys
        // are ascending, and the sort is stable, so within each output
        // group members stay in ascending-old-key (= ascending i_n) order
        // — the accumulation order is pinned.
        let mut tagged: Vec<(usize, u32, u32)> = Vec::with_capacity(self.keys.len());
        for (row, &k) in self.keys.iter().enumerate() {
            let high = k / above;
            let rest = k % above;
            tagged.push((
                high * stride_n + rest % stride_n,
                (rest / stride_n) as u32,
                row as u32,
            ));
        }
        tagged.sort_by_key(|&(nk, _, _)| nk);
        let mut new_keys: Vec<usize> = Vec::new();
        let mut starts = vec![0usize];
        for (i, &(nk, _, _)) in tagged.iter().enumerate() {
            if new_keys.last() != Some(&nk) {
                if i > 0 {
                    starts.push(i);
                }
                new_keys.push(nk);
            }
        }
        starts.push(tagged.len());
        let groups = new_keys.len();

        // Block layout: insert the new rank axis at `n`'s sorted position.
        let p = self.dense_modes.iter().filter(|&&m| m < n).count();
        let post_len: usize = self.dense_modes[p..]
            .iter()
            .map(|&m| self.dims[m])
            .product();
        let pre_len = self.block_len.checked_div(post_len).unwrap_or(0);
        let new_block_len = self.block_len * r;

        let mut new_blocks = ws.take(groups * new_block_len);
        let work = tagged.len() * self.block_len * r;
        let parts = if work < SEMI_PAR_MIN_WORK {
            1
        } else {
            m2td_par::max_threads().clamp(1, groups.max(1))
        };
        {
            let old_blocks = &self.blocks;
            let old_len = self.block_len;
            let sink = m2td_par::UnsafeSlice::new(new_blocks.as_mut_slice());
            m2td_par::par_for_each_index(parts, |part| {
                let g0 = part * groups / parts;
                let g1 = (part + 1) * groups / parts;
                for g in g0..g1 {
                    let out_base = g * new_block_len;
                    for &(_, i_n, row) in &tagged[starts[g]..starts[g + 1]] {
                        let block = &old_blocks[row as usize * old_len..][..old_len];
                        for j in 0..r {
                            let c = u.get(i_n as usize, j);
                            for pre in 0..pre_len {
                                let out_off = out_base + pre * (r * post_len) + j * post_len;
                                let in_off = pre * post_len;
                                for post in 0..post_len {
                                    // SAFETY: output group `g` belongs to
                                    // exactly one contiguous part, so
                                    // writers are disjoint.
                                    unsafe {
                                        sink.add_assign(out_off + post, c * block[in_off + post])
                                    };
                                }
                            }
                        }
                    }
                }
            });
        }

        ws.recycle(std::mem::replace(&mut self.blocks, new_blocks));
        self.block_len = new_block_len;
        self.keys = new_keys;
        self.dims[n] = r;
        self.sparse_modes.remove(pos);
        self.dense_modes.insert(p, n);
    }

    /// Materializes the intermediate densely (absent coordinates are
    /// zero). Pure writes — keys are distinct and blocks disjoint.
    fn materialize(self, ws: &mut Workspace) -> DenseTensor {
        let shape = Shape::new(&self.dims);
        let total = shape.num_elements();
        let mut out = DenseTensor::from_vec(&self.dims, ws.take(total))
            .expect("take(total) returns a buffer of exactly that length");
        // Row-major strides of the full intermediate shape.
        let order = self.dims.len();
        let mut strides = vec![1usize; order];
        for m in (0..order.saturating_sub(1)).rev() {
            strides[m] = strides[m + 1] * self.dims[m + 1];
        }
        // Offset of each block position within the full tensor.
        let mut block_offsets = vec![0usize; self.block_len];
        for (b, slot) in block_offsets.iter_mut().enumerate() {
            let mut rem = b;
            let mut off = 0;
            for &m in self.dense_modes.iter().rev() {
                let d = self.dims[m];
                off += (rem % d) * strides[m];
                rem /= d;
            }
            *slot = off;
        }
        let data = out.as_mut_slice();
        for (row, &k) in self.keys.iter().enumerate() {
            let mut rem = k;
            let mut key_off = 0;
            for &m in self.sparse_modes.iter().rev() {
                let d = self.dims[m];
                key_off += (rem % d) * strides[m];
                rem /= d;
            }
            let block = &self.blocks[row * self.block_len..][..self.block_len];
            for (b, &v) in block.iter().enumerate() {
                data[key_off + block_offsets[b]] = v;
            }
        }
        ws.recycle(self.blocks);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ttm::ttm_dense_transposed;

    fn factors_for(dims: &[usize], ranks: &[usize]) -> Vec<Matrix> {
        dims.iter()
            .zip(ranks.iter())
            .enumerate()
            .map(|(n, (&d, &r))| {
                Matrix::from_fn(d, r, |i, j| ((i * (n + 3) + 2 * j + 1) as f64 * 0.17).sin())
            })
            .collect()
    }

    /// Fixed natural-order dense chain — the naive reference.
    fn naive_dense_chain(x: &DenseTensor, factors: &[Matrix]) -> DenseTensor {
        let mut acc = x.clone();
        for (mode, f) in factors.iter().enumerate() {
            acc = ttm_dense_transposed(&acc, mode, f).unwrap();
        }
        acc
    }

    #[test]
    fn planner_order_is_decreasing_ratio_with_index_ties() {
        let p = TtmPlan::new(&[100, 10, 50], &[2, 5, 2]).unwrap();
        assert_eq!(p.order(), &[0, 2, 1]);
        // Modes 0 and 2 have the identical ratio 3: the tie must break by
        // mode index, not float comparison luck.
        let t = TtmPlan::new(&[6, 8, 9], &[2, 2, 3]).unwrap();
        assert_eq!(t.order(), &[1, 0, 2]);
        let natural =
            TtmPlan::with_ordering(&[6, 8, 9], &[2, 2, 3], CoreOrdering::Natural).unwrap();
        assert_eq!(natural.order(), &[0, 1, 2]);
    }

    #[test]
    fn predicted_madds_planner_never_exceeds_natural() {
        for (dims, ranks) in [
            (vec![12usize, 12, 12, 12], vec![4usize, 4, 4, 4]),
            (vec![32, 16, 8], vec![4, 2, 2]),
            (vec![5, 40, 7], vec![5, 2, 6]),
        ] {
            let planned = TtmPlan::new(&dims, &ranks).unwrap();
            let natural = TtmPlan::with_ordering(&dims, &ranks, CoreOrdering::Natural).unwrap();
            assert!(
                planned.predicted_madds() <= natural.predicted_madds(),
                "planner {} > natural {} for {dims:?}/{ranks:?}",
                planned.predicted_madds(),
                natural.predicted_madds()
            );
        }
    }

    #[test]
    fn sparse_execution_matches_naive_dense_chain() {
        // ~2/3 fill: stays semi-sparse past the first step at the default
        // threshold of the small shape? Either way the result must match.
        let dims = [6usize, 5, 4];
        let ranks = [2usize, 3, 2];
        let dense = DenseTensor::from_fn(&dims, |i| {
            let l = i[0] * 20 + i[1] * 4 + i[2];
            if l % 3 == 0 {
                0.0
            } else {
                (l as f64 * 0.31).sin() + 0.2
            }
        });
        let sparse = SparseTensor::from_dense(&dense);
        let factors = factors_for(&dims, &ranks);
        let reference = naive_dense_chain(&dense, &factors);
        for ordering in [CoreOrdering::Natural, CoreOrdering::BestShrinkFirst] {
            let plan = TtmPlan::with_ordering(&dims, &ranks, ordering).unwrap();
            let mut ws = Workspace::new();
            let got = plan.execute_sparse(&sparse, &factors, &mut ws).unwrap();
            let diff = got.sub(&reference).unwrap().frobenius_norm();
            assert!(diff < 1e-10, "{ordering:?} diverged by {diff}");
        }
    }

    #[test]
    fn densify_threshold_extremes_agree() {
        let dims = [7usize, 6, 5];
        let ranks = [3usize, 2, 2];
        let dense = DenseTensor::from_fn(&dims, |i| {
            let l = i[0] * 30 + i[1] * 5 + i[2];
            if l % 5 != 1 {
                0.0
            } else {
                (l as f64 * 0.7).cos()
            }
        });
        let sparse = SparseTensor::from_dense(&dense);
        let factors = factors_for(&dims, &ranks);
        let mut ws = Workspace::new();
        // threshold 0: densify immediately after the first step.
        let eager = TtmPlan::new(&dims, &ranks)
            .unwrap()
            .with_densify_threshold(0.0)
            .execute_sparse(&sparse, &factors, &mut ws)
            .unwrap();
        // threshold 2: never densify mid-chain.
        let lazy = TtmPlan::new(&dims, &ranks)
            .unwrap()
            .with_densify_threshold(2.0)
            .execute_sparse(&sparse, &factors, &mut ws)
            .unwrap();
        let diff = eager.sub(&lazy).unwrap().frobenius_norm();
        assert!(diff < 1e-12, "densify paths diverged by {diff}");
    }

    #[test]
    fn dense_execution_matches_naive_chain() {
        let dims = [5usize, 4, 6];
        let ranks = [2usize, 2, 3];
        let dense = DenseTensor::from_fn(&dims, |i| ((i[0] * 24 + i[1] * 6 + i[2]) as f64).sin());
        let factors = factors_for(&dims, &ranks);
        let reference = naive_dense_chain(&dense, &factors);
        let plan = TtmPlan::new(&dims, &ranks).unwrap();
        let mut ws = Workspace::new();
        let got = plan.execute_dense(&dense, &factors, &mut ws).unwrap();
        let diff = got.sub(&reference).unwrap().frobenius_norm();
        assert!(diff < 1e-10, "dense plan execution diverged by {diff}");
        assert!(ws.reuse_hits() > 0, "chain never reused a buffer");
    }

    #[test]
    fn empty_tensor_yields_zero_core() {
        let plan = TtmPlan::new(&[4, 4], &[2, 2]).unwrap();
        let x = SparseTensor::empty(&[4, 4]);
        let factors = factors_for(&[4, 4], &[2, 2]);
        let mut ws = Workspace::new();
        let core = plan.execute_sparse(&x, &factors, &mut ws).unwrap();
        assert_eq!(core.dims(), &[2, 2]);
        assert_eq!(core.frobenius_norm(), 0.0);
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let plan = TtmPlan::new(&[4, 4], &[2, 2]).unwrap();
        let factors = factors_for(&[4, 4], &[2, 2]);
        let mut ws = Workspace::new();
        let wrong_shape = SparseTensor::empty(&[4, 5]);
        assert!(plan
            .execute_sparse(&wrong_shape, &factors, &mut ws)
            .is_err());
        let x = SparseTensor::empty(&[4, 4]);
        assert!(plan.execute_sparse(&x, &factors[..1], &mut ws).is_err());
        let bad = factors_for(&[4, 4], &[3, 2]);
        assert!(plan.execute_sparse(&x, &bad, &mut ws).is_err());
        assert!(TtmPlan::new(&[4, 4], &[2]).is_err());
    }
}
