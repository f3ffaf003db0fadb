//! Singular value decomposition.
//!
//! Two routes are provided:
//!
//! * [`svd`] — a full one-sided Jacobi SVD. Numerically robust and simple;
//!   used for moderate matrices and as the reference implementation in
//!   tests and ablation benches.
//! * [`gram_left_singular_vectors`] — the *Gram trick*: the left singular
//!   vectors of `A` are the eigenvectors of `A Aᵀ`. The M2TD pipeline only
//!   ever needs the `r` leading **left** singular vectors of a mode-`n`
//!   matricization `X₍ₙ₎`, which is a short-and-very-wide matrix
//!   (`I_n × ∏_{m≠n} I_m`). Forming the tiny `I_n × I_n` Gram matrix and
//!   running the symmetric Jacobi eigensolver is dramatically cheaper than
//!   a full SVD of the matricization and is what HOSVD implementations do
//!   in practice for sparse inputs.

use crate::eig::symmetric_eig;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vecops::norm2;
use crate::Result;

/// A full (thin) singular value decomposition `A = U diag(σ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// `m x k` matrix of left singular vectors (`k = min(m, n)`).
    pub u: Matrix,
    /// Singular values, non-negative, decreasing.
    pub singular_values: Vec<f64>,
    /// `k x n` matrix of right singular vectors, transposed.
    pub vt: Matrix,
}

impl Svd {
    /// Recomposes `U diag(σ) Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let k = self.singular_values.len();
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            for j in 0..k {
                us.set(i, j, us.get(i, j) * self.singular_values[j]);
            }
        }
        us.matmul(&self.vt).expect("shapes agree by construction")
    }
}

/// Maximum number of one-sided Jacobi sweeps.
const MAX_SWEEPS: usize = 60;

/// Computes the thin SVD of `a` by the one-sided Jacobi method.
///
/// For `m < n` the decomposition is computed on `aᵀ` and the factors are
/// swapped, so callers may pass any shape.
///
/// # Errors
///
/// * [`LinalgError::EmptyInput`] for an empty matrix.
/// * [`LinalgError::NoConvergence`] if sweeps do not converge (pathological
///   non-finite input).
pub fn svd(a: &Matrix) -> Result<Svd> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::EmptyInput);
    }
    if m < n {
        // Work on the transpose and swap factors: A = U S Vᵀ ⇔ Aᵀ = V S Uᵀ.
        let t = svd(&a.transpose())?;
        return Ok(Svd {
            u: t.vt.transpose(),
            singular_values: t.singular_values,
            vt: t.u.transpose(),
        });
    }
    // After the transpose redirect, so each logical SVD is one span.
    let _span = m2td_obs::span!("linalg.svd");

    // One-sided Jacobi on columns of a working copy W (m x n): rotate column
    // pairs until all are mutually orthogonal. V accumulates the rotations.
    let mut w = a.clone();
    let mut v = Matrix::identity(n);
    let scale = a.max_abs().max(1.0);
    let tol = 1e-15 * scale * scale * (m as f64);

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                // Inner products over columns p and q.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let wp = w.get(i, p);
                    let wq = w.get(i, q);
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if apq.abs() <= tol || apq.abs() <= 1e-15 * (app * aqq).sqrt() {
                    continue;
                }
                rotated = true;
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                for i in 0..m {
                    let wp = w.get(i, p);
                    let wq = w.get(i, q);
                    w.set(i, p, c * wp - s * wq);
                    w.set(i, q, s * wp + c * wq);
                }
                for i in 0..n {
                    let vp = v.get(i, p);
                    let vq = v.get(i, q);
                    v.set(i, p, c * vp - s * vq);
                    v.set(i, q, s * vp + c * vq);
                }
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NoConvergence {
            kernel: "svd",
            iterations: MAX_SWEEPS,
        });
    }

    // Column norms of W are the singular values; normalized columns are U.
    // One buffer serves the whole sweep (col_into reuses its allocation).
    let mut colbuf = Vec::new();
    let norms: Vec<f64> = (0..n)
        .map(|j| {
            w.col_into(j, &mut colbuf);
            norm2(&colbuf)
        })
        .collect();
    let order = column_order_by_norm_desc(&norms);

    let k = n; // thin: k = min(m, n) = n here since m >= n
    let mut u = Matrix::zeros(m, k);
    let mut vt = Matrix::zeros(k, n);
    let mut singular_values = Vec::with_capacity(k);
    for (new_j, &old_j) in order.iter().enumerate() {
        let sigma = norms[old_j];
        singular_values.push(sigma);
        if sigma > 0.0 {
            for i in 0..m {
                u.set(i, new_j, w.get(i, old_j) / sigma);
            }
        } else {
            // Zero singular value: leave U column zero (tests account for
            // rank-deficiency; downstream only uses leading columns).
        }
        for i in 0..n {
            vt.set(new_j, i, v.get(i, old_j));
        }
    }
    Ok(Svd {
        u,
        singular_values,
        vt,
    })
}

/// Column permutation sorting `norms` descending under `f64::total_cmp`.
///
/// `partial_cmp` is not a total order: one NaN norm (possible when a
/// degraded-mode input carries non-finite cells) makes `sort_by`'s
/// comparator inconsistent and the resulting ordering garbage. Under
/// `total_cmp`, NaN sorts above every finite value, so NaN columns land
/// first — deterministically — and finite columns stay in exact
/// descending order.
fn column_order_by_norm_desc(norms: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..norms.len()).collect();
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));
    order
}

/// Returns the `r` leading left singular vectors of `a` as the columns of an
/// `a.rows() x r` matrix, computed via the eigendecomposition of the Gram
/// matrix `a aᵀ`.
///
/// # Errors
///
/// * [`LinalgError::RankTooLarge`] if `r > min(a.rows(), a.cols())` — a
///   rank-`r` column space needs at least `r` columns to span it; the Gram
///   spectrum has at most `min(m, n)` nonzero eigenvalues.
/// * [`LinalgError::EmptyInput`] for an empty matrix.
pub fn gram_left_singular_vectors(a: &Matrix, r: usize) -> Result<Matrix> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::EmptyInput);
    }
    if r > m.min(n) {
        return Err(LinalgError::RankTooLarge {
            requested: r,
            available: m.min(n),
        });
    }
    let _span = m2td_obs::span!("linalg.gram_svd");
    let gram = a.gram_rows();
    let eig = symmetric_eig(&gram)?;
    eig.eigenvectors.leading_columns(r)
}

/// Checks that two orthonormal bases span the same subspace up to `tol`
/// (used by tests comparing the Gram route against the full SVD: individual
/// vectors may differ in sign or rotate within eigenspaces).
#[cfg(test)]
pub(crate) fn same_subspace(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    use crate::vecops::dot;
    if a.shape() != b.shape() {
        return false;
    }
    // Project each column of A onto span(B) and check the residual.
    let r = a.cols();
    for j in 0..r {
        let aj = a.col(j);
        let mut residual = aj.clone();
        for k in 0..r {
            let bk = b.col(k);
            let coef = dot(&aj, &bk);
            for (res, &bv) in residual.iter_mut().zip(bk.iter()) {
                *res -= coef * bv;
            }
        }
        if norm2(&residual) > tol {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        let d = a.sub(b).unwrap().frobenius_norm();
        assert!(d < tol, "matrices differ by {d}");
    }

    #[test]
    fn svd_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -2.0]]).unwrap();
        let s = svd(&a).unwrap();
        assert!((s.singular_values[0] - 3.0).abs() < 1e-12);
        assert!((s.singular_values[1] - 2.0).abs() < 1e-12);
        assert_close(&s.reconstruct(), &a, 1e-12);
    }

    #[test]
    fn svd_reconstructs_square() {
        // `sin(a*i + b*j)` alone is rank 2 (angle-sum identity); the product
        // term makes this genuinely full rank.
        let a = Matrix::from_fn(6, 6, |i, j| {
            (((i + 1) * (j + 1)) as f64 + 0.3 * i as f64).sin()
        });
        let s = svd(&a).unwrap();
        assert_close(&s.reconstruct(), &a, 1e-10);
        assert!(s.u.orthonormality_defect() < 1e-10);
        assert!(s.vt.transpose().orthonormality_defect() < 1e-10);
    }

    #[test]
    fn svd_tall() {
        let a = Matrix::from_fn(9, 4, |i, j| 1.0 / ((i + j + 1) as f64));
        let s = svd(&a).unwrap();
        assert_eq!(s.u.shape(), (9, 4));
        assert_eq!(s.vt.shape(), (4, 4));
        assert_close(&s.reconstruct(), &a, 1e-11);
    }

    #[test]
    fn svd_wide() {
        let a = Matrix::from_fn(3, 8, |i, j| ((i + 1) as f64) * ((j + 1) as f64).sqrt());
        let s = svd(&a).unwrap();
        assert_eq!(s.u.shape(), (3, 3));
        assert_eq!(s.vt.shape(), (3, 8));
        assert_close(&s.reconstruct(), &a, 1e-11);
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let a = Matrix::from_fn(5, 7, |i, j| ((i * j) as f64).cos());
        let s = svd(&a).unwrap();
        for w in s.singular_values.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(s.singular_values.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn rank_one_matrix() {
        // outer product => exactly one nonzero singular value.
        let a = Matrix::from_fn(4, 5, |i, j| ((i + 1) * (j + 1)) as f64);
        let s = svd(&a).unwrap();
        assert!(s.singular_values[0] > 1.0);
        for &sv in &s.singular_values[1..] {
            assert!(sv < 1e-10, "extra singular value {sv}");
        }
    }

    #[test]
    fn gram_route_matches_full_svd_subspace() {
        let a = Matrix::from_fn(4, 30, |i, j| ((i * j) as f64 * 0.7 + 0.2 * j as f64).sin());
        let r = 3;
        let g = gram_left_singular_vectors(&a, r).unwrap();
        let s = svd(&a).unwrap();
        let u_r = s.u.leading_columns(r).unwrap();
        assert!(
            same_subspace(&g, &u_r, 1e-8),
            "Gram and SVD subspaces differ"
        );
    }

    #[test]
    fn gram_vectors_are_orthonormal() {
        let a = Matrix::from_fn(5, 40, |i, j| ((i + 2 * j) as f64).cos());
        let g = gram_left_singular_vectors(&a, 4).unwrap();
        assert!(g.orthonormality_defect() < 1e-9);
    }

    #[test]
    fn rank_checks() {
        let a = Matrix::identity(3);
        assert!(gram_left_singular_vectors(&a, 4).is_err());
        assert!(svd(&Matrix::zeros(0, 2)).is_err());
    }

    #[test]
    fn gram_route_rejects_rank_beyond_min_dimension() {
        // Regression: a tall-skinny matrix (m > n) has at most n nonzero
        // singular values, but the Gram route used to accept any r ≤ m and
        // hand back eigenvectors of numerically-zero eigenvalues. Both
        // routes must reject r > min(m, n) with a structured error naming
        // the true ceiling.
        let tall = Matrix::from_fn(6, 2, |i, j| ((i * 2 + j) as f64 * 0.4).sin());
        match gram_left_singular_vectors(&tall, 3) {
            Err(LinalgError::RankTooLarge {
                requested,
                available,
            }) => assert_eq!((requested, available), (3, 2)),
            other => panic!("expected RankTooLarge, got {other:?}"),
        }
        // r = min(m, n) stays accepted.
        let u = gram_left_singular_vectors(&tall, 2).unwrap();
        assert_eq!(u.shape(), (6, 2));
    }

    #[test]
    fn column_order_is_total_with_nan_norms() {
        // Regression: the pre-`total_cmp` comparator treated NaN as equal
        // to everything, which is not a consistent order — `sort_by` could
        // return any permutation. NaN must sort first, then strictly
        // descending finite values, regardless of NaN position.
        let order = column_order_by_norm_desc(&[2.0, f64::NAN, 3.0, 0.5]);
        assert_eq!(order, vec![1, 2, 0, 3]);
        let order = column_order_by_norm_desc(&[f64::NAN, 1.0, f64::NAN, 4.0]);
        // Equal keys: sort_by is stable, so NaN indices keep input order.
        assert_eq!(order, vec![0, 2, 3, 1]);
        // All-finite ordering is unchanged by the fix.
        assert_eq!(column_order_by_norm_desc(&[1.0, 3.0, 2.0]), vec![1, 2, 0]);
    }

    #[test]
    fn svd_nan_input_errors_cleanly() {
        // Non-finite input must surface as NoConvergence, never a panic or
        // a silently garbled factor ordering.
        let mut a = Matrix::from_fn(4, 3, |i, j| ((i + j) as f64).sin());
        a.set(2, 1, f64::NAN);
        match svd(&a) {
            Err(LinalgError::NoConvergence { kernel, .. }) => assert_eq!(kernel, "svd"),
            other => panic!("expected NoConvergence for NaN input, got {other:?}"),
        }
    }

    #[test]
    fn zero_matrix_svd() {
        let a = Matrix::zeros(3, 4);
        let s = svd(&a).unwrap();
        assert!(s.singular_values.iter().all(|&x| x == 0.0));
        assert_close(&s.reconstruct(), &a, 1e-15);
    }
}
