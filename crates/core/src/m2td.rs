//! The M2TD decomposition (Algorithms 2–4 of the paper): one body over
//! `S ≥ 2` sub-tensors, built from per-phase kernels that the serial run
//! and D-M2TD's reducers share.

use crate::combine::{combine_pivot_factor, PivotCombine};
use crate::error::CoreError;
use crate::Result;
use m2td_linalg::Matrix;
use m2td_stitch::{stitch_multi, StitchKind, StitchReport};
use m2td_tensor::{sparse_core, CoreOrdering, DenseTensor, SparseTensor, TuckerDecomp};
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
/// tensor (modes in join order `[pivot…, free₁…, …, free_S…]`) plus stitch
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

/// Runs M2TD over two PF-partitioned sub-ensemble tensors: the `S = 2`
/// instance of [`m2td_decompose_multi`].
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
/// As for [`m2td_decompose_multi`].
pub fn m2td_decompose(
    x1: &SparseTensor,
    x2: &SparseTensor,
    k: usize,
    ranks: &[usize],
    opts: M2tdOptions,
) -> Result<M2tdDecomposition> {
    m2td_decompose_multi(&[x1, x2], k, ranks, opts)
}

/// Runs M2TD over `S ≥ 2` sub-tensors sharing their first `k` (pivot)
/// modes. `ranks` is given in join order (`k + Σ_s (order(X_s) − k)`
/// entries). With `S > 2` this extends the paper's two-task formulation:
/// pivot factors are combined across all `S` sub-tensor decompositions,
/// and the join tensor averages `S` sources per cell.
///
/// The body is the four per-phase kernels that `m2td_dist::DistJob`'s
/// reducers also call: [`validate_inputs`], [`phase1_side`] (the `S`
/// sides run concurrently on the `m2td-par` pool, the single-node
/// analogue of D-M2TD phase 1), [`assemble_factors`] and [`recover_core`].
/// Span labels are shared with `DistJob::run` too, so telemetry consumers
/// see one taxonomy whichever schedule ran.
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] for structural mismatches (fewer than two
///   sub-tensors, bad `k`, wrong rank count, a rank of 0 or above its
///   mode's extent) and for an empty join tensor.
/// * Guard errors from the phase-boundary sentinels, and propagated
///   stitch/tensor/linalg errors.
pub fn m2td_decompose_multi(
    subs: &[&SparseTensor],
    k: usize,
    ranks: &[usize],
    opts: M2tdOptions,
) -> Result<M2tdDecomposition> {
    validate_inputs(subs, k, ranks)?;

    // ---- Phase 1: sub-tensor decompositions + pivot combination --------
    let span1 = m2td_obs::span!("phase1.decompose");
    let t1 = Instant::now();
    let sides: Vec<(&SparseTensor, usize)> =
        subs.iter().copied().zip(free_offsets(subs, k)).collect();
    let sides = m2td_par::par_map(&sides, |&(x, offset)| phase1_side(x, k, ranks, offset))
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    let factors = assemble_factors(opts.combine, sides, k)?;
    let phase1 = t1.elapsed().as_secs_f64();
    drop(span1);

    // ---- Phase 2: JE-stitching ------------------------------------------
    let span2 = m2td_obs::span!("phase2.stitch");
    let t2 = Instant::now();
    let (join, stitch_report) = stitch_multi(subs, k, opts.stitch)?;
    check_join(&join)?;
    let phase2 = t2.elapsed().as_secs_f64();
    drop(span2);

    // ---- Phase 3: core recovery -----------------------------------------
    let _span3 = m2td_obs::span!("phase3.core");
    let t3 = Instant::now();
    let core = recover_core(&join, &factors, opts)?;
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

/// Input kernel: checks that there are at least two sub-tensors, that
/// `0 < k < order` for each, that `ranks` has one entry per join mode and
/// that `0 < r ≤ extent` for every join mode, then runs the phase-1 input
/// sentinel over each sub-tensor (a no-op while `m2td-guard` is
/// uninstalled).
///
/// # Errors
///
/// [`CoreError::InvalidInput`] for a structural mismatch; a guard error
/// for a poisoned input cell.
pub fn validate_inputs(subs: &[&SparseTensor], k: usize, ranks: &[usize]) -> Result<()> {
    let invalid = |reason: String| Err(CoreError::InvalidInput { reason });
    if subs.len() < 2 {
        return invalid(format!("need at least 2 sub-tensors, got {}", subs.len()));
    }
    let orders: Vec<usize> = subs.iter().map(|x| x.order()).collect();
    if orders.iter().any(|&m| k == 0 || k >= m) {
        return invalid(format!(
            "pivot count {k} invalid for sub-tensor orders {orders:?}"
        ));
    }
    let join_dims: Vec<usize> = subs[0].dims()[..k]
        .iter()
        .chain(subs.iter().flat_map(|x| &x.dims()[k..]))
        .copied()
        .collect();
    if ranks.len() != join_dims.len() {
        return invalid(format!(
            "{} ranks supplied for a join tensor of order {}",
            ranks.len(),
            join_dims.len()
        ));
    }
    for (n, (&r, &d)) in ranks.iter().zip(&join_dims).enumerate() {
        if r == 0 || r > d {
            return invalid(format!("rank {r} invalid for join mode {n} of extent {d}"));
        }
    }
    // Phase-boundary sentinel: reject poisoned inputs before any phase
    // runs.
    const SITES: [&str; 8] = [
        "phase1.x1",
        "phase1.x2",
        "phase1.x3",
        "phase1.x4",
        "phase1.x5",
        "phase1.x6",
        "phase1.x7",
        "phase1.x8",
    ];
    for (s, x) in subs.iter().enumerate() {
        m2td_guard::check_cells(SITES.get(s).unwrap_or(&"phase1.x"), x.iter())?;
    }
    Ok(())
}

/// The join mode of each sub-tensor's first free mode: the free modes
/// follow the `k` pivots, sub-tensor by sub-tensor.
pub fn free_offsets(subs: &[&SparseTensor], k: usize) -> Vec<usize> {
    subs.iter()
        .scan(k, |next, x| {
            let offset = *next;
            *next += x.order() - k;
            Some(offset)
        })
        .collect()
}

/// Phase-1 kernel for one sub-tensor `x`: the mode Gram and its guarded
/// leading eigenvectors for every mode, labelled and ranked by join mode
/// (`offset` is the join mode of `x`'s first free mode, see
/// [`free_offsets`]). Returns `(pivot Grams, factors)`: the Grams of the
/// `k` pivot modes, which CONCAT combines, and one factor per mode of `x`.
///
/// # Errors
///
/// Propagated tensor and guard errors.
pub fn phase1_side(
    x: &SparseTensor,
    k: usize,
    ranks: &[usize],
    offset: usize,
) -> Result<(Vec<Matrix>, Vec<Matrix>)> {
    let mut grams = Vec::with_capacity(k);
    let mut factors = Vec::with_capacity(x.order());
    for n in 0..x.order() {
        let join_mode = if n < k { n } else { offset + n - k };
        let gram = m2td_tensor::phase_gram(x, n)?;
        factors.push(m2td_guard::gram_factor(
            "phase1.factor",
            Some(join_mode),
            &gram,
            ranks[join_mode],
        )?);
        if n < k {
            grams.push(gram);
        }
    }
    Ok((grams, factors))
}

/// Factor-assembly kernel: combines each pivot mode's factors across the
/// [`phase1_side`] outputs, appends every side's free factors in join
/// order, and runs the phase-1 boundary sentinel over the result.
///
/// The guard's ClampRank policy may have truncated a side's pivot basis;
/// combination needs equal widths, so every side is harmonized to the
/// narrowest one first.
///
/// # Errors
///
/// Propagated combination and guard errors.
pub fn assemble_factors(
    combine: PivotCombine,
    sides: Vec<(Vec<Matrix>, Vec<Matrix>)>,
    k: usize,
) -> Result<Vec<Matrix>> {
    let mut factors = Vec::with_capacity(k);
    for n in 0..k {
        let width = sides.iter().map(|(_, f)| f[n].cols()).min().unwrap_or(0);
        let grams: Vec<&Matrix> = sides.iter().map(|(g, _)| &g[n]).collect();
        let bases = sides
            .iter()
            .map(|(_, f)| f[n].leading_columns(width))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        factors.push(combine_pivot_factor(combine, &grams, &bases, width)?);
    }
    for (_, mut side) in sides {
        factors.extend(side.drain(k..));
    }
    for (n, f) in factors.iter().enumerate() {
        m2td_guard::check_matrix("phase1.factor", Some(n), f)?;
    }
    Ok(factors)
}

/// Phase-2 boundary: the sentinel over the join cells (a poisoned cell
/// must not reach core recovery) and the refusal of an empty join.
///
/// # Errors
///
/// A guard error, or [`CoreError::InvalidInput`] when the sub-ensembles
/// share no pivot configuration.
pub fn check_join(join: &SparseTensor) -> Result<()> {
    m2td_guard::check_cells("phase2.join", join.iter())?;
    if join.nnz() == 0 {
        return Err(CoreError::InvalidInput {
            reason: "join tensor is empty: the sub-ensembles share no pivot configuration"
                .to_string(),
        });
    }
    Ok(())
}

/// Core-recovery kernel: `G = J ×ₙ Wⁿᵀ` over the join tensor (or, in
/// D-M2TD, one chunk of its cells — TTM is linear in the tensor), with
/// `W` the `opts.projection` of `factors` (the factors themselves for
/// [`CoreProjection::Transpose`], their pseudo-inverse transform for
/// [`CoreProjection::LeastSquares`]) and the TTM chain planned in
/// `opts.ordering`.
///
/// # Errors
///
/// Propagated tensor and linalg errors.
pub fn recover_core(
    join: &SparseTensor,
    factors: &[Matrix],
    opts: M2tdOptions,
) -> Result<DenseTensor> {
    let projected = projection_factors(factors, opts.projection)?;
    Ok(sparse_core(join, &projected, opts.ordering)?)
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

/// Applies the configured core projection to a factor list: returns the
/// matrices whose transposes should multiply the join tensor when
/// recovering the core. Identity for [`CoreProjection::Transpose`];
/// pseudo-inverse-inducing transform for [`CoreProjection::LeastSquares`].
fn projection_factors(factors: &[Matrix], projection: CoreProjection) -> Result<Vec<Matrix>> {
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
fn ls_projection_factor(u: &Matrix) -> Result<Matrix> {
    let r = u.cols();
    let ridge = m2td_guard::ridge_lambda().unwrap_or(1e-12);
    let mut gram = u.transpose_matmul(u)?;
    for i in 0..r {
        gram.set(i, i, gram.get(i, i) + ridge);
    }
    // Solve (UᵀU) Xᵀ = Uᵀ row-by-row of U: each row w_i of W solves
    // (UᵀU) w_i = u_i where u_i is the i-th row of U. The Gram is factored
    // once and every row reuses the factor.
    let factor = m2td_linalg::cholesky(&gram)?;
    let mut w = Matrix::zeros(u.rows(), r);
    for i in 0..u.rows() {
        let sol = factor.solve(u.row(i))?;
        w.row_mut(i).copy_from_slice(&sol);
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2td_tensor::Shape;

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

    fn full(dims: &[usize], f: impl Fn(&[usize]) -> f64) -> SparseTensor {
        let shape = Shape::new(dims);
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .map(|l| {
                let idx = shape.multi_index(l);
                let v = f(&idx);
                (idx, v)
            })
            .collect();
        SparseTensor::from_entries(dims, &entries).unwrap()
    }

    fn value(p: usize, a: usize, b: usize, c: usize) -> f64 {
        ((p as f64) * 0.6).sin() * ((a + 1) as f64) + ((b * c) as f64) * 0.1 + (c as f64) * 0.3
    }

    #[test]
    fn two_way_multi_matches_pairwise_m2td() {
        let x1 = full(&[5, 4], |i| value(i[0], i[1], 2, 2));
        let x2 = full(&[5, 4], |i| value(i[0], 2, i[1], 2));
        let ranks = [3, 3, 3];
        for combine in PivotCombine::all() {
            let opts = M2tdOptions {
                combine,
                ..M2tdOptions::default()
            };
            let pair = m2td_decompose(&x1, &x2, 1, &ranks, opts).unwrap();
            let multi = m2td_decompose_multi(&[&x1, &x2], 1, &ranks, opts).unwrap();
            let d = pair
                .tucker
                .core
                .sub(&multi.tucker.core)
                .unwrap()
                .frobenius_norm();
            assert!(d < 1e-9, "{}: core diff {d}", combine.name());
        }
    }

    #[test]
    fn three_way_decomposition_runs_and_reconstructs() {
        let x1 = full(&[5, 3], |i| value(i[0], i[1], 1, 1));
        let x2 = full(&[5, 3], |i| value(i[0], 1, i[1], 1));
        let x3 = full(&[5, 3], |i| value(i[0], 1, 1, i[1]));
        let ranks = [2, 2, 2, 2];
        for combine in PivotCombine::all() {
            let opts = M2tdOptions {
                combine,
                ..M2tdOptions::default()
            };
            let d = m2td_decompose_multi(&[&x1, &x2, &x3], 1, &ranks, opts).unwrap();
            assert_eq!(d.tucker.output_dims(), vec![5, 3, 3, 3]);
            let recon = d.tucker.reconstruct().unwrap();
            assert!(recon.frobenius_norm() > 0.0);
            // Against the true join tensor.
            let (join, _) =
                stitch_multi(&[&x1, &x2, &x3], 1, m2td_stitch::StitchKind::Join).unwrap();
            let dense_join = join.to_dense().unwrap();
            let err =
                recon.sub(&dense_join).unwrap().frobenius_norm() / dense_join.frobenius_norm();
            assert!(err < 1.0, "{}: join fit {err}", combine.name());
        }
    }

    #[test]
    fn validation() {
        let x = full(&[3, 3], |i| (i[0] + i[1]) as f64);
        let opts = M2tdOptions::default();
        assert!(m2td_decompose_multi(&[&x], 1, &[2, 2], opts).is_err());
        assert!(m2td_decompose_multi(&[&x, &x], 0, &[2, 2, 2], opts).is_err());
        assert!(m2td_decompose_multi(&[&x, &x], 1, &[2, 2], opts).is_err());
        assert!(m2td_decompose_multi(&[&x, &x], 1, &[2, 9, 2], opts).is_err());
    }

    #[test]
    fn disjoint_pivots_error() {
        let x1 = SparseTensor::from_entries(&[2, 2], &[(vec![0, 0], 1.0)]).unwrap();
        let x2 = SparseTensor::from_entries(&[2, 2], &[(vec![1, 0], 1.0)]).unwrap();
        let x3 = SparseTensor::from_entries(&[2, 2], &[(vec![0, 1], 1.0)]).unwrap();
        let r = m2td_decompose_multi(&[&x1, &x2, &x3], 1, &[1, 1, 1, 1], M2tdOptions::default());
        assert!(r.is_err());
    }
}
