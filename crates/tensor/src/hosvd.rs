//! HOSVD — Higher-Order SVD (Algorithm 1 of the paper).
//!
//! For each mode `n`, the factor `U⁽ⁿ⁾` collects the `r_n` leading left
//! singular vectors of the mode-`n` matricization; the core is then
//! recovered as `G = X ×₁ U⁽¹⁾ᵀ ⋯ ×_N U⁽ᴺ⁾ᵀ`.
//!
//! The left singular vectors are obtained through the Gram trick
//! (eigenvectors of `X₍ₙ₎X₍ₙ₎ᵀ`, an `I_n × I_n` problem) — see
//! [`m2td_linalg::gram_left_singular_vectors`] — which keeps both dense and
//! sparse HOSVD linear in the number of stored entries.

use crate::dense::DenseTensor;
use crate::error::TensorError;
use crate::plan::TtmPlan;
use crate::sparse::SparseTensor;
use crate::tucker::TuckerDecomp;
use crate::workspace::Workspace;
use crate::Result;
use m2td_linalg::Matrix;

/// Ordering strategy for the TTM chain that recovers the core tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreOrdering {
    /// Multiply modes in natural order `1, …, N`.
    Natural,
    /// Multiply the mode with the largest shrink ratio `I_n / r_n` first,
    /// minimizing the size of the intermediate tensors. This is the
    /// default and the subject of the `ablation_ttm_order` bench.
    BestShrinkFirst,
}

/// Validates a rank vector against a shape.
fn check_ranks(dims: &[usize], ranks: &[usize]) -> Result<()> {
    if ranks.len() != dims.len() {
        return Err(TensorError::WrongNumberOfRanks {
            supplied: ranks.len(),
            order: dims.len(),
        });
    }
    for (mode, (&r, &d)) in ranks.iter().zip(dims.iter()).enumerate() {
        if r == 0 || r > d {
            return Err(TensorError::RankTooLarge {
                mode,
                requested: r,
                available: d,
            });
        }
    }
    Ok(())
}

/// Returns the `r` leading eigenvectors of a mode-`mode` Gram matrix as a
/// factor, routed through the numerical guard layer: with `m2td-guard`
/// installed the spectrum is checked for effective rank and conditioning
/// (and may be clamped per the installed policy); uninstalled, this is a
/// plain eig + truncation.
pub(crate) fn gram_factor(gram: &Matrix, r: usize, mode: usize) -> Result<Matrix> {
    Ok(m2td_guard::gram_factor("tensor.gram", Some(mode), gram, r)?)
}

/// Recovers the core `G = X ×₁ U⁽¹⁾ᵀ ⋯ ×_N U⁽ᴺ⁾ᵀ` from a sparse tensor.
///
/// Plans the chain with [`TtmPlan`] and executes it semi-sparse: the
/// intermediate keeps sparse coordinates over the not-yet-contracted
/// modes until the densify threshold trips, so early steps cost
/// `O(stored · r)` rather than `O(dense · r)`.
pub fn sparse_core(
    x: &SparseTensor,
    factors: &[Matrix],
    ordering: CoreOrdering,
) -> Result<DenseTensor> {
    sparse_core_with(x, factors, ordering, &mut Workspace::new())
}

/// [`sparse_core`] with an explicit [`Workspace`], so callers running many
/// chains (HOOI sweeps, per-chunk reducers) reuse buffers across calls.
pub fn sparse_core_with(
    x: &SparseTensor,
    factors: &[Matrix],
    ordering: CoreOrdering,
    ws: &mut Workspace,
) -> Result<DenseTensor> {
    let ranks: Vec<usize> = factors.iter().map(|f| f.cols()).collect();
    let plan = TtmPlan::with_ordering(x.dims(), &ranks, ordering)?;
    let _span = m2td_obs::span!("tensor.sparse_core");
    plan.execute_sparse(x, factors, ws)
}

/// Recovers the core from a dense tensor.
pub fn dense_core(
    x: &DenseTensor,
    factors: &[Matrix],
    ordering: CoreOrdering,
) -> Result<DenseTensor> {
    dense_core_with(x, factors, ordering, &mut Workspace::new())
}

/// [`dense_core`] with an explicit [`Workspace`] (see [`sparse_core_with`]).
pub fn dense_core_with(
    x: &DenseTensor,
    factors: &[Matrix],
    ordering: CoreOrdering,
    ws: &mut Workspace,
) -> Result<DenseTensor> {
    let ranks: Vec<usize> = factors.iter().map(|f| f.cols()).collect();
    let plan = TtmPlan::with_ordering(x.dims(), &ranks, ordering)?;
    plan.execute_dense(x, factors, ws)
}

/// HOSVD of a dense tensor at the given per-mode target ranks.
///
/// # Errors
///
/// * [`TensorError::WrongNumberOfRanks`] / [`TensorError::RankTooLarge`]
///   for invalid rank vectors.
/// * [`TensorError::EmptyTensor`] for tensors without elements.
pub fn hosvd_dense(x: &DenseTensor, ranks: &[usize]) -> Result<TuckerDecomp> {
    check_ranks(x.dims(), ranks)?;
    if x.num_elements() == 0 {
        return Err(TensorError::EmptyTensor);
    }
    // The per-mode Gram/eig factor computations are independent; fan them
    // out over the pool (mode order in `factors` is preserved).
    let modes: Vec<(usize, usize)> = ranks.iter().copied().enumerate().collect();
    let factors = m2td_par::par_map(&modes, |&(mode, r)| -> Result<_> {
        let unfolded = x.unfold(mode)?;
        let gram = unfolded.gram_rows();
        gram_factor(&gram, r, mode)
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    let core = dense_core(x, &factors, CoreOrdering::BestShrinkFirst)?;
    TuckerDecomp::new(core, factors)
}

/// HOSVD of a sparse tensor at the given per-mode target ranks.
///
/// Null cells are treated as zeros, exactly as the paper's conventional
/// baselines decompose a sampled ensemble tensor.
///
/// ```
/// use m2td_tensor::{hosvd_sparse, SparseTensor};
///
/// let x = SparseTensor::from_entries(
///     &[4, 4, 4],
///     &[(vec![0, 1, 2], 3.0), (vec![3, 2, 1], -1.0)],
/// ).unwrap();
/// let tucker = hosvd_sparse(&x, &[2, 2, 2]).unwrap();
/// // Two isolated cells are exactly representable at rank 2.
/// let err = tucker.relative_error(&x.to_dense().unwrap()).unwrap();
/// assert!(err < 1e-9);
/// ```
///
/// # Errors
///
/// As [`hosvd_dense`]; an all-null tensor additionally errors with
/// [`TensorError::EmptyTensor`].
///
/// # Sketched route
///
/// While `m2td_sketch` is [installed](m2td_sketch::install), this
/// dispatches to the randomized route (`crate::sketch`): factors from
/// sketched Grams or a MACH entry sample per the installed policy, gated
/// by `m2td_guard::with_error_budget` on the *measured* reconstruction
/// error, falling back to [`hosvd_sparse_exact`] when the budget is
/// violated. Fixed sketch seed ⇒ bitwise-identical results at every
/// thread count.
pub fn hosvd_sparse(x: &SparseTensor, ranks: &[usize]) -> Result<TuckerDecomp> {
    check_ranks(x.dims(), ranks)?;
    if x.nnz() == 0 {
        return Err(TensorError::EmptyTensor);
    }
    if m2td_sketch::installed() {
        return crate::sketch::hosvd_sparse_guarded(x, ranks, &m2td_sketch::config());
    }
    hosvd_sparse_exact(x, ranks)
}

/// The exact sparse HOSVD route: per-mode sparse Grams and guarded
/// eigensolves, never randomized. [`hosvd_sparse`] dispatches here while
/// sketching is uninstalled, and the sketched route falls back here on a
/// budget violation.
pub fn hosvd_sparse_exact(x: &SparseTensor, ranks: &[usize]) -> Result<TuckerDecomp> {
    check_ranks(x.dims(), ranks)?;
    if x.nnz() == 0 {
        return Err(TensorError::EmptyTensor);
    }
    let _span = m2td_obs::span!("tensor.hosvd");
    // Per-mode sparse Gram + eig are independent; fan out over the pool.
    let modes: Vec<(usize, usize)> = ranks.iter().copied().enumerate().collect();
    let factors = m2td_par::par_map(&modes, |&(mode, r)| -> Result<_> {
        let gram = x.unfold_gram(mode)?;
        gram_factor(&gram, r, mode)
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;
    let core = sparse_core(x, &factors, CoreOrdering::BestShrinkFirst)?;
    TuckerDecomp::new(core, factors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_mode_order;

    fn test_tensor() -> DenseTensor {
        DenseTensor::from_fn(&[4, 5, 3], |i| {
            ((i[0] + 1) * (i[1] + 2)) as f64 + ((i[2] * i[0]) as f64).sin()
        })
    }

    #[test]
    fn full_rank_hosvd_is_exact() {
        let x = test_tensor();
        let t = hosvd_dense(&x, &[4, 5, 3]).unwrap();
        assert!(t.relative_error(&x).unwrap() < 1e-10);
    }

    #[test]
    fn rank_one_tensor_decomposes_exactly_at_rank_one() {
        let x = DenseTensor::from_fn(&[3, 4, 5], |i| {
            (i[0] + 1) as f64 * (i[1] + 1) as f64 * (i[2] + 1) as f64
        });
        let t = hosvd_dense(&x, &[1, 1, 1]).unwrap();
        assert!(t.relative_error(&x).unwrap() < 1e-12);
    }

    #[test]
    fn truncation_error_decreases_with_rank() {
        let x = test_tensor();
        let e1 = hosvd_dense(&x, &[1, 1, 1])
            .unwrap()
            .relative_error(&x)
            .unwrap();
        let e2 = hosvd_dense(&x, &[2, 2, 2])
            .unwrap()
            .relative_error(&x)
            .unwrap();
        let e3 = hosvd_dense(&x, &[4, 5, 3])
            .unwrap()
            .relative_error(&x)
            .unwrap();
        assert!(e1 >= e2 - 1e-12, "e1={e1} e2={e2}");
        assert!(e2 >= e3 - 1e-12, "e2={e2} e3={e3}");
    }

    #[test]
    fn hosvd_error_bound_holds() {
        // HOSVD truncation satisfies ‖X − X̃‖ ≤ √N · best rank-(r…) error;
        // a weaker easily-checkable property: relative error ≤ 1 for any
        // rank, with orthonormal factors.
        let x = test_tensor();
        let t = hosvd_dense(&x, &[2, 2, 2]).unwrap();
        assert!(t.relative_error(&x).unwrap() <= 1.0 + 1e-12);
        for f in &t.factors {
            assert!(f.orthonormality_defect() < 1e-9);
        }
    }

    #[test]
    fn sparse_hosvd_matches_dense_on_same_data() {
        let x = test_tensor();
        let s = SparseTensor::from_dense(&x);
        let td = hosvd_dense(&x, &[2, 3, 2]).unwrap();
        let ts = hosvd_sparse(&s, &[2, 3, 2]).unwrap();
        let ed = td.relative_error(&x).unwrap();
        let es = ts.relative_error(&x).unwrap();
        assert!(
            (ed - es).abs() < 1e-8,
            "dense err {ed} vs sparse err {es} should agree"
        );
    }

    #[test]
    fn core_orderings_agree() {
        let x = test_tensor();
        let s = SparseTensor::from_dense(&x);
        let factors: Vec<Matrix> = (0..3)
            .map(|m| gram_factor(&s.unfold_gram(m).unwrap(), 2, m).unwrap())
            .collect();
        let natural = sparse_core(&s, &factors, CoreOrdering::Natural).unwrap();
        let best = sparse_core(&s, &factors, CoreOrdering::BestShrinkFirst).unwrap();
        let d = natural.sub(&best).unwrap().frobenius_norm();
        assert!(d < 1e-10, "orderings disagree by {d}");
    }

    #[test]
    fn invalid_ranks_are_rejected() {
        let x = test_tensor();
        assert!(matches!(
            hosvd_dense(&x, &[4, 5]),
            Err(TensorError::WrongNumberOfRanks { .. })
        ));
        assert!(matches!(
            hosvd_dense(&x, &[5, 5, 3]),
            Err(TensorError::RankTooLarge { .. })
        ));
        assert!(matches!(
            hosvd_dense(&x, &[0, 5, 3]),
            Err(TensorError::RankTooLarge { .. })
        ));
    }

    #[test]
    fn empty_sparse_tensor_rejected() {
        let s = SparseTensor::empty(&[3, 3]);
        assert!(matches!(
            hosvd_sparse(&s, &[1, 1]),
            Err(TensorError::EmptyTensor)
        ));
    }

    #[test]
    fn very_sparse_tensor_decomposes_without_panic() {
        let s =
            SparseTensor::from_entries(&[6, 6, 6], &[(vec![0, 0, 0], 1.0), (vec![5, 5, 5], -2.0)])
                .unwrap();
        let t = hosvd_sparse(&s, &[2, 2, 2]).unwrap();
        // Two isolated entries are exactly representable at rank 2.
        let dense = s.to_dense().unwrap();
        assert!(t.relative_error(&dense).unwrap() < 1e-9);
    }

    #[test]
    fn core_mode_order_prefers_big_shrink() {
        let order = plan_mode_order(&[100, 10, 50], &[2, 5, 2], CoreOrdering::BestShrinkFirst);
        assert_eq!(order[0], 0); // 100/2 = 50 shrink
        assert_eq!(order[1], 2); // 50/2 = 25
        assert_eq!(order[2], 1); // 10/5 = 2
        let natural = plan_mode_order(&[100, 10, 50], &[2, 5, 2], CoreOrdering::Natural);
        assert_eq!(natural, vec![0, 1, 2]);
    }
}
