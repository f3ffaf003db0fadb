//! The M2TD decomposition (Algorithms 2–4 of the paper).

use crate::combine::{combine_pivot_factor, PivotCombine};
use crate::error::CoreError;
use crate::Result;
use m2td_stitch::{stitch, StitchKind, StitchReport};
use m2td_tensor::{CoreOrdering, SparseTensor, TtmPlan, TuckerDecomp, Workspace};
use std::time::Instant;

/// How the core tensor is recovered from the join tensor and the factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreProjection {
    /// `G = J ×₁ U⁽¹⁾ᵀ ⋯` — the paper's Algorithm 4 as written. Exact when
    /// every factor is orthonormal (CONCAT), biased when a combined factor
    /// is not (AVG's averages and SELECT's row mixtures).
    Transpose,
    /// `G = J ×₁ U⁽¹⁾⁺ ⋯` with the Moore–Penrose pseudo-inverse: the
    /// least-squares core for the given factors. Identical to `Transpose`
    /// for orthonormal factors and strictly better for the combined ones;
    /// this is the default (the `ablation_projection` bench quantifies the
    /// difference).
    LeastSquares,
}

/// Options controlling an M2TD decomposition.
#[derive(Debug, Clone, Copy)]
pub struct M2tdOptions {
    /// Pivot-factor combination strategy (AVG / CONCAT / SELECT).
    pub combine: PivotCombine,
    /// Join or zero-join stitching for the core-recovery tensor.
    pub stitch: StitchKind,
    /// Mode ordering for the core-recovery TTM chain.
    pub ordering: CoreOrdering,
    /// Core-recovery projection.
    pub projection: CoreProjection,
}

impl Default for M2tdOptions {
    fn default() -> Self {
        Self {
            combine: PivotCombine::Select,
            stitch: StitchKind::Join,
            ordering: CoreOrdering::BestShrinkFirst,
            projection: CoreProjection::LeastSquares,
        }
    }
}

/// Wall-clock durations of the three phases of the algorithm — these
/// correspond one-to-one with the phases of D-M2TD (Section VI-D) and feed
/// the Table III reproduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct M2tdTimings {
    /// Phase 1: sub-tensor factor computation (Gram + eigenvectors).
    pub phase1_decompose: f64,
    /// Phase 2: JE-stitching into the join tensor.
    pub phase2_stitch: f64,
    /// Phase 3: core recovery (TTM chain over the join tensor).
    pub phase3_core: f64,
}

impl M2tdTimings {
    /// Total decomposition time in seconds.
    pub fn total(&self) -> f64 {
        self.phase1_decompose + self.phase2_stitch + self.phase3_core
    }
}

/// The result of an M2TD decomposition: a Tucker decomposition of the join
/// tensor (modes in join order `[pivot…, free₁…, free₂…]`) plus stitch
/// statistics and phase timings.
#[derive(Debug, Clone)]
pub struct M2tdDecomposition {
    /// Tucker decomposition of the join tensor.
    pub tucker: TuckerDecomp,
    /// Statistics of the stitch that produced the join tensor.
    pub stitch_report: StitchReport,
    /// Wall-clock phase timings.
    pub timings: M2tdTimings,
    /// Outcome of the end-to-end acceptance check (relative reconstruction
    /// error of the recovered core over the observed join cells, against
    /// the installed budget). `None` unless `m2td-guard` is installed with
    /// an error budget.
    pub guard: Option<m2td_guard::GuardVerdict>,
}

/// Runs M2TD over two PF-partitioned sub-ensemble tensors.
///
/// * `x1`, `x2` — sub-tensors in sub-tensor mode order (first `k` modes are
///   the shared pivots).
/// * `k` — number of pivot modes.
/// * `ranks` — per-mode target ranks **in join order**
///   (`k + (order(x1) − k) + (order(x2) − k)` entries).
///
/// Implements Algorithm 4 (and, via [`M2tdOptions::combine`], Algorithms 2
/// and 3): pivot factors are combined from both sub-tensors, free-mode
/// factors come from their own sub-tensor, and the core is recovered as
/// `G = J ×₁ U⁽¹⁾ᵀ ⋯ ×_N U⁽ᴺ⁾ᵀ` over the stitched join tensor `J`.
///
/// ```
/// use m2td_core::{m2td_decompose, M2tdOptions};
/// use m2td_tensor::{SparseTensor, Shape};
///
/// // Fully dense 4x3 sub-ensembles sharing the first (pivot) mode.
/// let fill = |dims: &[usize], scale: f64| {
///     let shape = Shape::new(dims);
///     let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
///         .map(|l| (shape.multi_index(l), scale * (l as f64 * 0.4).sin()))
///         .collect();
///     SparseTensor::from_entries(dims, &entries).unwrap()
/// };
/// let x1 = fill(&[4, 3], 1.0);
/// let x2 = fill(&[4, 3], 2.0);
///
/// let d = m2td_decompose(&x1, &x2, 1, &[2, 2, 2], M2tdOptions::default()).unwrap();
/// // The decomposition covers the 4x3x3 join tensor at rank (2,2,2).
/// assert_eq!(d.tucker.output_dims(), vec![4, 3, 3]);
/// assert_eq!(d.stitch_report.join_nnz, 4 * 3 * 3);
/// ```
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] for structural mismatches (wrong rank
///   count, rank exceeding a mode size, bad `k`).
/// * Propagated stitch/tensor/linalg errors.
#[allow(clippy::needless_range_loop)] // free-mode loops index `ranks` with offset arithmetic
pub fn m2td_decompose(
    x1: &SparseTensor,
    x2: &SparseTensor,
    k: usize,
    ranks: &[usize],
    opts: M2tdOptions,
) -> Result<M2tdDecomposition> {
    let m1 = x1.order();
    let m2 = x2.order();
    if k == 0 || k >= m1 || k >= m2 {
        return Err(CoreError::InvalidInput {
            reason: format!("pivot count {k} invalid for sub-tensor orders {m1}, {m2}"),
        });
    }
    let join_order = k + (m1 - k) + (m2 - k);
    if ranks.len() != join_order {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "{} ranks supplied for a join tensor of order {join_order}",
                ranks.len()
            ),
        });
    }
    // Join-order mode extents, for rank validation.
    let mut join_dims: Vec<usize> = x1.dims()[..k].to_vec();
    join_dims.extend_from_slice(&x1.dims()[k..]);
    join_dims.extend_from_slice(&x2.dims()[k..]);
    for (n, (&r, &d)) in ranks.iter().zip(join_dims.iter()).enumerate() {
        if r == 0 || r > d {
            return Err(CoreError::InvalidInput {
                reason: format!("rank {r} invalid for join mode {n} of extent {d}"),
            });
        }
    }

    // Phase-boundary sentinel: reject poisoned inputs before any phase
    // runs (no-ops while m2td-guard is uninstalled).
    m2td_guard::check_cells("phase1.x1", x1.iter())?;
    m2td_guard::check_cells("phase1.x2", x2.iter())?;

    // ---- Phase 1: sub-tensor decompositions + pivot combination --------
    // The X₁ side (pivot grams/bases + X₁ free factors) and the X₂ side
    // are independent by construction, so they run concurrently on the
    // `m2td-par` pool — the single-node analogue of D-M2TD Phase 1. Each
    // side computes the same grams in the same order as the serial loop,
    // so results are bitwise unchanged.
    //
    // Span labels are shared with `m2td_dist::DistJob::run`: the phases
    // correspond one-to-one, so telemetry consumers see one taxonomy.
    let span1 = m2td_obs::span!("phase1.decompose");
    let t1 = Instant::now();
    type PivotSide = (
        Vec<(m2td_linalg::Matrix, m2td_linalg::Matrix)>,
        Vec<m2td_linalg::Matrix>,
    );
    let (side1, side2): (Result<PivotSide>, Result<PivotSide>) = m2td_par::join(
        || {
            let mut pivot = Vec::with_capacity(k);
            for n in 0..k {
                let gram1 = m2td_tensor::phase_gram(x1, n)?;
                let u1 = leading(&gram1, ranks[n], n)?;
                pivot.push((gram1, u1));
            }
            let mut free = Vec::with_capacity(m1 - k);
            for n in k..m1 {
                let gram = m2td_tensor::phase_gram(x1, n)?;
                free.push(leading(&gram, ranks[n], n)?);
            }
            Ok((pivot, free))
        },
        || {
            let mut pivot = Vec::with_capacity(k);
            for n in 0..k {
                let gram2 = m2td_tensor::phase_gram(x2, n)?;
                let u2 = leading(&gram2, ranks[n], n)?;
                pivot.push((gram2, u2));
            }
            let mut free = Vec::with_capacity(m2 - k);
            for n in k..m2 {
                let join_mode = k + (m1 - k) + (n - k);
                let gram = m2td_tensor::phase_gram(x2, n)?;
                free.push(leading(&gram, ranks[join_mode], join_mode)?);
            }
            Ok((pivot, free))
        },
    );
    let (pivot1, free1) = side1?;
    let (pivot2, free2) = side2?;
    let mut factors = Vec::with_capacity(join_order);
    for ((gram1, u1), (gram2, u2)) in pivot1.iter().zip(pivot2.iter()) {
        // The guard's ClampRank policy may have truncated one side's
        // pivot basis; combination needs equal widths, so harmonize both
        // sides to the narrower one.
        let width = u1.cols().min(u2.cols());
        factors.push(combine_pivot_factor(
            opts.combine,
            gram1,
            gram2,
            &u1.leading_columns(width)?,
            &u2.leading_columns(width)?,
            width,
        )?);
    }
    factors.extend(free1);
    factors.extend(free2);
    // Phase-1 boundary sentinel: combined factors are the phase output.
    for (n, f) in factors.iter().enumerate() {
        m2td_guard::check_matrix("phase1.factor", Some(n), f)?;
    }
    let phase1 = t1.elapsed().as_secs_f64();
    drop(span1);

    // ---- Phase 2: JE-stitching ------------------------------------------
    let span2 = m2td_obs::span!("phase2.stitch");
    let t2 = Instant::now();
    let (join, stitch_report) = stitch(x1, x2, k, opts.stitch)?;
    // Phase-2 boundary sentinel: a poisoned join cell must not reach core
    // recovery.
    m2td_guard::check_cells("phase2.join", join.iter())?;
    let phase2 = t2.elapsed().as_secs_f64();
    drop(span2);

    // ---- Phase 3: core recovery -----------------------------------------
    let _span3 = m2td_obs::span!("phase3.core");
    let t3 = Instant::now();
    if join.nnz() == 0 {
        return Err(CoreError::InvalidInput {
            reason: "join tensor is empty: the sub-ensembles share no pivot configuration"
                .to_string(),
        });
    }
    // Plan the TTM chain once for the join shape (compression-ratio
    // ordering, semi-sparse execution) and run it with a workspace so the
    // chain's unfold/product/fold buffers are reused across steps. Sized
    // off the *actual* factor widths, which the guard's ClampRank policy
    // may have shrunk below the requested ranks.
    let widths: Vec<usize> = factors.iter().map(|f| f.cols()).collect();
    let chain_plan = TtmPlan::with_ordering(join.dims(), &widths, opts.ordering)?;
    let mut ws = Workspace::new();
    let core = match opts.projection {
        CoreProjection::Transpose => chain_plan.execute_sparse(&join, &factors, &mut ws)?,
        CoreProjection::LeastSquares => {
            // G = J ×ₙ Uⁿ⁺ — realized by replacing each factor U with
            // W = U (UᵀU)⁻¹, since Wᵀ = (UᵀU)⁻¹Uᵀ = U⁺.
            let ls_factors = projection_factors(&factors, opts.projection)?;
            chain_plan.execute_sparse(&join, &ls_factors, &mut ws)?
        }
    };
    let phase3 = t3.elapsed().as_secs_f64();
    // Phase-3 boundary sentinel: the recovered core is the run's output;
    // a non-finite entry here is exactly the "silent garbage core" the
    // guard layer exists to prevent.
    m2td_guard::check_dense("phase3.core", core.dims(), core.as_slice())?;

    let tucker = TuckerDecomp::new(core, factors)?;
    let guard = acceptance_verdict(&tucker, &join)?;
    Ok(M2tdDecomposition {
        tucker,
        stitch_report,
        timings: M2tdTimings {
            phase1_decompose: phase1,
            phase2_stitch: phase2,
            phase3_core: phase3,
        },
        guard,
    })
}

/// End-to-end acceptance check: relative reconstruction error of the
/// decomposition over the *observed* join cells, judged against the
/// installed error budget. `None` (and no reconstruction work at all)
/// unless `m2td-guard` is installed with a budget configured.
fn acceptance_verdict(
    tucker: &TuckerDecomp,
    join: &SparseTensor,
) -> Result<Option<m2td_guard::GuardVerdict>> {
    if !m2td_guard::installed() || m2td_guard::config().error_budget.is_none() {
        return Ok(None);
    }
    let recon = tucker.reconstruct()?;
    let mut num = 0.0;
    let mut den = 0.0;
    for (idx, v) in join.iter() {
        let d = recon.get(&idx) - v;
        num += d * d;
        den += v * v;
    }
    let relative_error = if den > 0.0 {
        (num / den).sqrt()
    } else {
        f64::INFINITY
    };
    Ok(m2td_guard::budget_verdict(relative_error))
}

/// Leading-`r` eigenvectors of a Gram matrix for join mode `join_mode`,
/// routed through the numerical guard layer (spectrum checks and policy
/// repairs when `m2td-guard` is installed; a plain eig + truncation
/// otherwise).
fn leading(gram: &m2td_linalg::Matrix, r: usize, join_mode: usize) -> Result<m2td_linalg::Matrix> {
    Ok(m2td_guard::gram_factor(
        "phase1.factor",
        Some(join_mode),
        gram,
        r,
    )?)
}

/// Applies the configured core projection to a factor list: returns the
/// matrices whose transposes should multiply the join tensor when
/// recovering the core. Identity for [`CoreProjection::Transpose`];
/// pseudo-inverse-inducing transform for [`CoreProjection::LeastSquares`].
///
/// Shared between the serial implementation here and `m2td_dist::d_m2td`.
pub fn projection_factors(
    factors: &[m2td_linalg::Matrix],
    projection: CoreProjection,
) -> Result<Vec<m2td_linalg::Matrix>> {
    match projection {
        CoreProjection::Transpose => Ok(factors.to_vec()),
        CoreProjection::LeastSquares => factors.iter().map(ls_projection_factor).collect(),
    }
}

/// `W = U (UᵀU)⁻¹`, so that `Wᵀ = U⁺` (the factor's pseudo-inverse).
///
/// A tiny ridge keeps the `r × r` solve well-posed when a combined factor
/// is nearly rank-deficient. With `m2td-guard` installed under
/// `Regularize(λ)`, the configured `λ` replaces the built-in `1e-12` —
/// this solve is where that policy's ridge actually lands.
fn ls_projection_factor(u: &m2td_linalg::Matrix) -> Result<m2td_linalg::Matrix> {
    let r = u.cols();
    let ridge = m2td_guard::ridge_lambda().unwrap_or(1e-12);
    let mut gram = u.transpose_matmul(u)?;
    for i in 0..r {
        gram.set(i, i, gram.get(i, i) + ridge);
    }
    // Solve (UᵀU) Xᵀ = Uᵀ row-by-row of U: each row w_i of W solves
    // (UᵀU) w_i = u_i where u_i is the i-th row of U.
    let mut w = m2td_linalg::Matrix::zeros(u.rows(), r);
    for i in 0..u.rows() {
        let sol = m2td_linalg::solve_spd(&gram, u.row(i))?;
        w.row_mut(i).copy_from_slice(&sol);
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2td_tensor::{DenseTensor, Shape};

    /// Builds two fully dense sub-tensors sampled from a smooth function of
    /// the *underlying* 3-parameter system (pivot p, free a, free b), with
    /// the other free parameter fixed at its default.
    fn sub_tensors(p_dim: usize, f_dim: usize) -> (SparseTensor, SparseTensor, DenseTensor) {
        // Ground truth over [p, a, b].
        let f = |p: usize, a: usize, b: usize| {
            ((p as f64) * 0.7).sin() * ((a as f64) * 0.4 + 1.0) * ((b as f64) * 0.3 + 1.0)
                + 0.1 * (p as f64)
        };
        let truth = DenseTensor::from_fn(&[p_dim, f_dim, f_dim], |i| f(i[0], i[1], i[2]));
        let default_b = f_dim / 2;
        let default_a = f_dim / 2;
        // X1: [p, a] with b fixed; X2: [p, b] with a fixed.
        let full = |dims: &[usize], g: &dyn Fn(&[usize]) -> f64| {
            let shape = Shape::new(dims);
            let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
                .map(|l| {
                    let idx = shape.multi_index(l);
                    let v = g(&idx);
                    (idx, v)
                })
                .collect();
            SparseTensor::from_entries(dims, &entries).unwrap()
        };
        let x1 = full(&[p_dim, f_dim], &|i: &[usize]| f(i[0], i[1], default_b));
        let x2 = full(&[p_dim, f_dim], &|i: &[usize]| f(i[0], default_a, i[1]));
        (x1, x2, truth)
    }

    fn accuracy_of(kind: PivotCombine) -> f64 {
        let (x1, x2, truth) = sub_tensors(6, 5);
        let opts = M2tdOptions {
            combine: kind,
            ..M2tdOptions::default()
        };
        let d = m2td_decompose(&x1, &x2, 1, &[3, 3, 3], opts).unwrap();
        1.0 - d.tucker.relative_error(&truth).unwrap()
    }

    #[test]
    fn all_variants_produce_valid_decompositions() {
        for kind in PivotCombine::all() {
            let acc = accuracy_of(kind);
            assert!(
                acc.is_finite() && acc > 0.0,
                "{} accuracy {acc} not positive",
                kind.name()
            );
        }
    }

    #[test]
    fn join_tensor_shape_is_pivot_free1_free2() {
        let (x1, x2, _) = sub_tensors(4, 3);
        let d = m2td_decompose(&x1, &x2, 1, &[2, 2, 2], M2tdOptions::default()).unwrap();
        assert_eq!(d.tucker.output_dims(), vec![4, 3, 3]);
        assert_eq!(d.tucker.ranks(), &[2, 2, 2]);
        assert_eq!(d.stitch_report.shared_pivot_configs, 4);
    }

    #[test]
    fn timings_are_populated() {
        let (x1, x2, _) = sub_tensors(5, 4);
        let d = m2td_decompose(&x1, &x2, 1, &[2, 2, 2], M2tdOptions::default()).unwrap();
        assert!(d.timings.total() > 0.0);
        assert!(d.timings.phase1_decompose >= 0.0);
        assert!(d.timings.phase3_core >= 0.0);
    }

    #[test]
    fn rank_validation() {
        let (x1, x2, _) = sub_tensors(4, 3);
        // Wrong count.
        assert!(m2td_decompose(&x1, &x2, 1, &[2, 2], M2tdOptions::default()).is_err());
        // Rank exceeding mode extent.
        assert!(m2td_decompose(&x1, &x2, 1, &[5, 2, 2], M2tdOptions::default()).is_err());
        // Zero rank.
        assert!(m2td_decompose(&x1, &x2, 1, &[0, 2, 2], M2tdOptions::default()).is_err());
        // Bad k.
        assert!(m2td_decompose(&x1, &x2, 0, &[2, 2, 2], M2tdOptions::default()).is_err());
        assert!(m2td_decompose(&x1, &x2, 2, &[2, 2, 2], M2tdOptions::default()).is_err());
    }

    #[test]
    fn disjoint_pivots_error_cleanly() {
        let x1 = SparseTensor::from_entries(&[2, 2], &[(vec![0, 0], 1.0)]).unwrap();
        let x2 = SparseTensor::from_entries(&[2, 2], &[(vec![1, 1], 1.0)]).unwrap();
        let r = m2td_decompose(&x1, &x2, 1, &[1, 1, 1], M2tdOptions::default());
        assert!(matches!(r, Err(CoreError::InvalidInput { .. })));
    }

    #[test]
    fn select_beats_or_matches_average_on_asymmetric_energy() {
        // Make X2 much weaker (scaled down): SELECT should keep X1's strong
        // rows, while AVG dilutes them.
        let (x1, x2_orig, truth) = sub_tensors(6, 5);
        let weak_entries: Vec<(Vec<usize>, f64)> =
            x2_orig.iter().map(|(i, v)| (i, v * 0.05)).collect();
        let x2 = SparseTensor::from_entries(x2_orig.dims(), &weak_entries).unwrap();
        let run = |kind| {
            let opts = M2tdOptions {
                combine: kind,
                ..M2tdOptions::default()
            };
            let d = m2td_decompose(&x1, &x2, 1, &[3, 3, 3], opts).unwrap();
            1.0 - d.tucker.relative_error(&truth).unwrap()
        };
        let avg = run(PivotCombine::Average);
        let select = run(PivotCombine::Select);
        assert!(
            select >= avg - 1e-6,
            "SELECT ({select}) should not lose to AVG ({avg}) under asymmetric energy"
        );
    }

    #[test]
    fn zero_join_handles_sparse_subsystems() {
        let (x1_full, x2_full, _) = sub_tensors(6, 5);
        // Drop most entries from both sub-tensors.
        let thin = |x: &SparseTensor, keep: usize| {
            let entries: Vec<(Vec<usize>, f64)> = x
                .iter()
                .enumerate()
                .filter(|(i, _)| i % keep == 0)
                .map(|(_, e)| e)
                .collect();
            SparseTensor::from_entries(x.dims(), &entries).unwrap()
        };
        let x1 = thin(&x1_full, 3);
        let x2 = thin(&x2_full, 3);
        let opts = M2tdOptions {
            stitch: StitchKind::ZeroJoin,
            ..M2tdOptions::default()
        };
        let d = m2td_decompose(&x1, &x2, 1, &[2, 2, 2], opts).unwrap();
        assert!(d.stitch_report.join_nnz > 0);
        assert!(d.tucker.core.frobenius_norm() > 0.0);
    }
}
