//! Randomized sparse routes: sketched Grams, MACH entry sampling, and
//! sketched HOSVD/HOOI.
//!
//! The sketch configuration, the install switch and the counter-based
//! random sources live in `m2td-sketch`; this module builds the
//! randomized routes on [`SparseTensor`]s:
//!
//! * [`sketched_unfold_gram`] — `G̃ = (X₍ₙ₎Ω)(X₍ₙ₎Ω)ᵀ / s`: the Gram is
//!   estimated from a thin `I_n × s` sketch instead of the full
//!   column-group accumulation, with a **measured** trace-concentration
//!   error (`tr G = ‖X‖²_F` exactly, for every mode);
//! * [`mach_sample`] — MACH-style (Tsourakakis) entry sampling with
//!   Horvitz–Thompson rescaling, uniform or magnitude-biased
//!   (goal-oriented weighting), plus a measured energy-estimate error;
//! * [`phase_gram`] — the Phase-1 dispatch point used by `m2td-core` and
//!   `m2td-dist`: exact while `m2td_sketch` is uninstalled, otherwise the
//!   cheapest route *predicted by the op-count model*, gated by
//!   [`m2td_guard::with_error_budget`] with exact fallback;
//! * [`hosvd_sparse_sketched`] / guarded HOSVD/HOOI wrappers used by
//!   [`crate::hosvd_sparse`] / [`crate::hooi_sparse`] when sketching is
//!   installed.
//!
//! ## Determinism
//!
//! Every random draw comes from a counter-based source keyed on
//! `(derived seed, column, lane)` or on the entry's linear index, and
//! every accumulation runs serially per mode in stored entry order —
//! so a fixed [`SketchConfig::seed`] produces bitwise-identical Grams,
//! samples, factors and cores at every thread count, matching the
//! `m2td-par` contract.
//!
//! ## Guard gating
//!
//! Sketched results are never accepted unmeasured. Each route computes a
//! cheap *measured* relative error (trace concentration, energy
//! estimate, or the free identity `‖X − X̃‖² = ‖X‖² − ‖G‖²` for
//! orthonormal factors) and feeds it through
//! [`m2td_guard::with_error_budget`]; a rejection falls back to the
//! exact route and bumps the `sketch.fallbacks` counter — never any
//! `guard.*` counter, because a rejected sketch corrupted nothing.

use crate::hooi::{hooi_sparse_exact, hooi_sparse_from, HooiOptions, HooiOutcome};
use crate::hosvd::{gram_factor, sparse_core, CoreOrdering};
use crate::sparse::SparseTensor;
use crate::tucker::TuckerDecomp;
use crate::Result;
use m2td_linalg::Matrix;
use m2td_sketch::{counter_gaussian, counter_uniform, SketchConfig, SketchPolicy};
use std::collections::BTreeMap;

/// Site tags mixed into [`SketchConfig::seed_for`] so Grams and samples
/// draw independent streams from one configured seed.
const GRAM_SITE: u64 = 0x4752_414D; // "GRAM"
const MACH_SITE: u64 = 0x4D41_4348; // "MACH"

/// Outcome of a MACH entry-sampling pass.
#[derive(Debug, Clone)]
pub struct MachSample {
    /// The sampled, Horvitz–Thompson-rescaled tensor.
    pub tensor: SparseTensor,
    /// Number of entries kept.
    pub kept: usize,
    /// Measured relative error of the unbiased energy estimate
    /// `Σ_kept v² / p_e` against the true `‖X‖²_F` — a cheap concentration
    /// check on the sample itself.
    pub energy_rel_err: f64,
}

/// MACH-style random entry sampling: keep each stored entry with
/// probability `keep` (uniform) or `min(1, keep·|v|/mean|v|)` (biased
/// toward high-magnitude entries, the goal-oriented weighting), and scale
/// survivors by the inverse keep probability so the sampled tensor is an
/// unbiased estimator of `X` entrywise.
///
/// Keep/drop decisions hash the entry's linear index, so the sample is a
/// pure function of `(seed, tensor)` — independent of iteration order,
/// partitioning and thread count.
pub fn mach_sample(x: &SparseTensor, keep: f64, biased: bool, seed: u64) -> Result<MachSample> {
    let _span = m2td_obs::span!("sketch.mach_sample");
    let keep = keep.clamp(f64::MIN_POSITIVE, 1.0);
    let mean_abs = if biased && x.nnz() > 0 {
        x.iter_linear().map(|(_, v)| v.abs()).sum::<f64>() / x.nnz() as f64
    } else {
        0.0
    };
    let mut indices = Vec::new();
    let mut values = Vec::new();
    let mut energy_est = 0.0;
    for (lin, v) in x.iter_linear() {
        let p = if biased && mean_abs > 0.0 {
            (keep * v.abs() / mean_abs).min(1.0)
        } else {
            keep
        };
        if counter_uniform(seed, lin, MACH_SITE) < p {
            indices.push(lin);
            values.push(v / p);
            energy_est += v * v / p;
        }
    }
    let kept = indices.len();
    let total = x.frobenius_norm().powi(2);
    let energy_rel_err = if total > 0.0 {
        (energy_est - total).abs() / total
    } else {
        0.0
    };
    m2td_obs::gauge_set("sketch.mach_kept", kept as f64);
    let tensor = SparseTensor::from_sorted_linear(x.dims(), indices, values)?;
    Ok(MachSample {
        tensor,
        kept,
        energy_rel_err,
    })
}

/// Sketched mode-`n` Gram: `G̃ = Y Yᵀ / s` with `Y = X₍ₙ₎ Ω` for a
/// counter-based Gaussian `Ω` — `E[ΩΩᵀ] = s·I` makes `G̃` an unbiased
/// estimator of `X₍ₙ₎X₍ₙ₎ᵀ`. Cost is `O(nnz·s + I_n²·s)` instead of the
/// exact route's `Σ_g |g|²` column-group accumulation, so it wins exactly
/// when the average unfolding column carries far more than `2s` nonzeros
/// (long fibers along big modes).
///
/// Returns the estimate together with its measured trace-concentration
/// error: `tr(X₍ₙ₎X₍ₙ₎ᵀ) = ‖X‖²_F` exactly (for every mode), so
/// `|tr G̃ − ‖X‖²| / ‖X‖²` is a free, honest sketch-quality statistic.
pub fn sketched_unfold_gram(
    x: &SparseTensor,
    mode: usize,
    cfg: &SketchConfig,
) -> Result<(Matrix, f64)> {
    x.shape().check_mode(mode)?;
    let _span = m2td_obs::span!("sketch.gram", mode = mode);
    let m = x.shape().dim(mode);
    let s = cfg.size.clamp(1, x.shape().unfold_cols(mode).max(1));
    m2td_obs::gauge_set("sketch.size", s as f64);
    let seed = cfg.seed_for(GRAM_SITE ^ (mode as u64) << 32);

    // Group entries by unfolding column (as the exact route does), so the
    // s Gaussian lanes of each column are generated once per column, not
    // once per entry. BTreeMap keeps accumulation order deterministic.
    let mut cols: BTreeMap<u64, Vec<(u32, f64)>> = BTreeMap::new();
    let mut idx = vec![0usize; x.order()];
    for (lin, v) in x.iter_linear() {
        x.shape().multi_index_into(lin as usize, &mut idx);
        let c = x.shape().unfold_col_index(mode, &idx) as u64;
        cols.entry(c).or_default().push((idx[mode] as u32, v));
    }
    let mut y = Matrix::zeros(m, s);
    let mut omega_row = vec![0.0; s];
    for (&c, group) in &cols {
        for (k, slot) in omega_row.iter_mut().enumerate() {
            *slot = counter_gaussian(seed, c, k as u64);
        }
        for &(i, v) in group {
            let row = y.row_mut(i as usize);
            for (k, &g) in omega_row.iter().enumerate() {
                row[k] += v * g;
            }
        }
    }
    let gram = y.gram_rows().scaled(1.0 / s as f64);

    let total = x.frobenius_norm().powi(2);
    let trace: f64 = (0..m).map(|i| gram.get(i, i)).sum();
    let rel_err = if total > 0.0 {
        (trace - total).abs() / total
    } else {
        0.0
    };
    m2td_obs::gauge_set("sketch.rel_err", rel_err);
    Ok((gram, rel_err))
}

// ---------------------------------------------------------------------------
// Op-count models (multiply-adds), mirroring `TtmPlan::predicted_madds`.
// ---------------------------------------------------------------------------

/// Predicted madds of the exact [`SparseTensor::unfold_gram`] for `mode`:
/// each unfolding column group `g` contributes its upper-triangular outer
/// product, `|g|·(|g|+1)/2`. Computed from the actual group sizes in one
/// `O(nnz)` counting pass.
pub fn exact_gram_madds(x: &SparseTensor, mode: usize) -> u64 {
    let mut sizes: BTreeMap<u64, u64> = BTreeMap::new();
    let mut idx = vec![0usize; x.order()];
    for (lin, _) in x.iter_linear() {
        x.shape().multi_index_into(lin as usize, &mut idx);
        *sizes
            .entry(x.shape().unfold_col_index(mode, &idx) as u64)
            .or_default() += 1;
    }
    sizes.values().map(|&g| g * (g + 1) / 2).sum()
}

/// Predicted madds of [`sketched_unfold_gram`]: the sparse sketch product
/// (`nnz·s`), the thin Gram (`s·I_n(I_n+1)/2`), and one Gaussian lane per
/// distinct column (`cols·s`, counted as madd-equivalents).
pub fn sketched_gram_madds(nnz: usize, mode_dim: usize, distinct_cols: usize, s: usize) -> u64 {
    let (nnz, m, c, s) = (nnz as u64, mode_dim as u64, distinct_cols as u64, s as u64);
    nnz * s + s * m * (m + 1) / 2 + c * s
}

/// Number of distinct unfolding columns of `x` along `mode` (the `cols`
/// input of [`sketched_gram_madds`]), via the same counting pass as
/// [`exact_gram_madds`].
pub fn distinct_unfold_cols(x: &SparseTensor, mode: usize) -> usize {
    let mut cols: BTreeMap<u64, ()> = BTreeMap::new();
    let mut idx = vec![0usize; x.order()];
    for (lin, _) in x.iter_linear() {
        x.shape().multi_index_into(lin as usize, &mut idx);
        cols.insert(x.shape().unfold_col_index(mode, &idx) as u64, ());
    }
    cols.len()
}

// ---------------------------------------------------------------------------
// Guarded dispatch
// ---------------------------------------------------------------------------

/// Mode-`n` Gram for the Phase-1 factor computations (`m2td-core` and
/// `m2td-dist` route through here): the exact [`SparseTensor::unfold_gram`]
/// while `m2td_sketch` is uninstalled; otherwise the cheapest route the
/// op-count model predicts, gated on its measured error with exact
/// fallback (`sketch.fallbacks`).
///
/// Pure function of `(tensor, mode, installed sketch config)` — dist
/// workers and the serial path compute bitwise-identical Grams.
pub fn phase_gram(x: &SparseTensor, mode: usize) -> Result<Matrix> {
    if !m2td_sketch::installed() {
        return x.unfold_gram(mode);
    }
    let cfg = m2td_sketch::config();
    match cfg.policy {
        SketchPolicy::Gaussian => {
            let s = cfg.size.clamp(1, x.shape().unfold_cols(mode).max(1));
            let exact = exact_gram_madds(x, mode);
            let sketched = sketched_gram_madds(
                x.nnz(),
                x.shape().dim(mode),
                distinct_unfold_cols(x, mode),
                s,
            );
            if sketched >= exact {
                // The model says the exact route is already cheaper here
                // (short column groups); planning, not a failure.
                return x.unfold_gram(mode);
            }
            let gated = m2td_guard::with_error_budget(m2td_sketch::DEFAULT_SKETCH_BUDGET, || {
                sketched_unfold_gram(x, mode, &cfg).map_err(guard_wrap)
            });
            match gated {
                Ok((gram, _err, gate)) if gate.accepted() => Ok(gram),
                _ => {
                    m2td_obs::counter_add("sketch.fallbacks", 1);
                    x.unfold_gram(mode)
                }
            }
        }
        SketchPolicy::Mach { keep } | SketchPolicy::MachBiased { keep } => {
            let biased = matches!(cfg.policy, SketchPolicy::MachBiased { .. });
            let gated = m2td_guard::with_error_budget(m2td_sketch::DEFAULT_SKETCH_BUDGET, || {
                let s =
                    mach_sample(x, keep, biased, cfg.seed_for(MACH_SITE)).map_err(guard_wrap)?;
                let err = if s.kept == 0 {
                    f64::INFINITY
                } else {
                    s.energy_rel_err
                };
                Ok((s, err))
            });
            match gated {
                Ok((sample, _err, gate)) if gate.accepted() => sample.tensor.unfold_gram(mode),
                _ => {
                    m2td_obs::counter_add("sketch.fallbacks", 1);
                    x.unfold_gram(mode)
                }
            }
        }
    }
}

/// Maps a tensor error into the guard error space for
/// [`m2td_guard::with_error_budget`] closures (and back out via
/// `TensorError: From<GuardError>`).
fn guard_wrap(e: crate::TensorError) -> m2td_guard::GuardError {
    match e {
        crate::TensorError::Linalg(l) => m2td_guard::GuardError::Linalg(l),
        crate::TensorError::Guard(g) => g,
        // Structural errors (bad mode, shape mismatch, empty sample)
        // cannot reach the caller: the guarded wrappers fall back to the
        // exact route on any closure error, which re-raises the original
        // diagnostics if the problem is real. Surface as a convergence
        // failure rather than panicking.
        _ => m2td_guard::GuardError::Linalg(m2td_linalg::LinalgError::NoConvergence {
            kernel: "sketch",
            iterations: 0,
        }),
    }
}

/// Sketched sparse HOSVD: per-mode factors from the randomized route the
/// installed policy selects, core recovered from the **full** tensor.
///
/// Because the factors are orthonormal and the core is the projection of
/// the full `X`, the relative reconstruction error is free:
/// `‖X − X̃‖²_F = ‖X‖²_F − ‖G‖²_F` — no per-entry reconstruction pass.
/// Returns the decomposition with that measured error.
pub fn hosvd_sparse_sketched(
    x: &SparseTensor,
    ranks: &[usize],
    cfg: &SketchConfig,
) -> Result<(TuckerDecomp, f64)> {
    let _span = m2td_obs::span!("tensor.hosvd_sketched");
    let factors = sketched_mode_factors(x, ranks, cfg)?;
    let core = sparse_core(x, &factors, CoreOrdering::BestShrinkFirst)?;
    let total = x.frobenius_norm().powi(2);
    let captured = core.frobenius_norm().powi(2);
    let rel_err = if total > 0.0 {
        ((total - captured).max(0.0) / total).sqrt()
    } else {
        0.0
    };
    m2td_obs::gauge_set("sketch.rel_err", rel_err);
    Ok((TuckerDecomp::new(core, factors)?, rel_err))
}

/// Per-mode factors under the installed sketch policy: Gaussian sketched
/// Grams (with op-count planning per mode) or one shared MACH sample with
/// exact Grams on the thin sample. Spectrum extraction still routes
/// through the guard layer ([`gram_factor`]).
pub(crate) fn sketched_mode_factors(
    x: &SparseTensor,
    ranks: &[usize],
    cfg: &SketchConfig,
) -> Result<Vec<Matrix>> {
    match cfg.policy {
        SketchPolicy::Gaussian => {
            let modes: Vec<(usize, usize)> = ranks.iter().copied().enumerate().collect();
            m2td_par::par_map(&modes, |&(mode, r)| -> Result<_> {
                let s = cfg.size.clamp(1, x.shape().unfold_cols(mode).max(1));
                let sketched = sketched_gram_madds(
                    x.nnz(),
                    x.shape().dim(mode),
                    distinct_unfold_cols(x, mode),
                    s,
                );
                let gram = if sketched < exact_gram_madds(x, mode) {
                    sketched_unfold_gram(x, mode, cfg)?.0
                } else {
                    x.unfold_gram(mode)?
                };
                gram_factor(&gram, r, mode)
            })
            .into_iter()
            .collect()
        }
        SketchPolicy::Mach { keep } | SketchPolicy::MachBiased { keep } => {
            let biased = matches!(cfg.policy, SketchPolicy::MachBiased { .. });
            let sample = mach_sample(x, keep, biased, cfg.seed_for(MACH_SITE))?;
            if sample.kept == 0 {
                // Nothing survived sampling; the caller's budget gate will
                // reject the (vacuous) factors via the measured error.
                return Err(crate::TensorError::EmptyTensor);
            }
            let modes: Vec<(usize, usize)> = ranks.iter().copied().enumerate().collect();
            m2td_par::par_map(&modes, |&(mode, r)| -> Result<_> {
                let gram = sample.tensor.unfold_gram(mode)?;
                gram_factor(&gram, r, mode)
            })
            .into_iter()
            .collect()
        }
    }
}

/// [`hosvd_sparse_sketched`] gated by [`m2td_guard::with_error_budget`]:
/// accepted within budget, otherwise (or on any sketch-induced failure)
/// the exact [`crate::hosvd::hosvd_sparse_exact`] runs and
/// `sketch.fallbacks` is bumped. This is what [`crate::hosvd_sparse`]
/// dispatches to while sketching is installed.
pub(crate) fn hosvd_sparse_guarded(
    x: &SparseTensor,
    ranks: &[usize],
    cfg: &SketchConfig,
) -> Result<TuckerDecomp> {
    let gated = m2td_guard::with_error_budget(m2td_sketch::DEFAULT_SKETCH_BUDGET, || {
        hosvd_sparse_sketched(x, ranks, cfg).map_err(guard_wrap)
    });
    match gated {
        Ok((decomp, _err, gate)) if gate.accepted() => Ok(decomp),
        Ok(_) | Err(_) => {
            // Over budget, or the sketch itself degenerated (e.g. an
            // empty/deficient sample): retry exactly. A genuine data
            // problem (NaN cells, impossible ranks) re-surfaces from the
            // exact route with its original diagnostics.
            m2td_obs::counter_add("sketch.fallbacks", 1);
            crate::hosvd::hosvd_sparse_exact(x, ranks)
        }
    }
}

/// Sketched sparse HOOI. MACH policies run every sweep on one thin entry
/// sample (the order-of-magnitude lever: sweep cost scales with the
/// sample's nnz), then recover the final core from the **full** tensor so
/// the free error identity applies; the Gaussian policy sketches only the
/// HOSVD initialization and sweeps exactly. Returns the outcome with its
/// measured relative reconstruction error.
pub fn hooi_sparse_sketched(
    x: &SparseTensor,
    ranks: &[usize],
    opts: HooiOptions,
    cfg: &SketchConfig,
) -> Result<(HooiOutcome, f64)> {
    let _span = m2td_obs::span!("tensor.hooi_sketched");
    let (decomp, sweeps) = match cfg.policy {
        SketchPolicy::Gaussian => {
            let (init, _err) = hosvd_sparse_sketched(x, ranks, cfg)?;
            hooi_sparse_from(x, init, ranks, opts)?
        }
        SketchPolicy::Mach { keep } | SketchPolicy::MachBiased { keep } => {
            let biased = matches!(cfg.policy, SketchPolicy::MachBiased { .. });
            let sample = mach_sample(x, keep, biased, cfg.seed_for(MACH_SITE))?;
            if sample.kept == 0 {
                return Err(crate::TensorError::EmptyTensor);
            }
            let (thin, sweeps) = hooi_sparse_exact(&sample.tensor, ranks, opts)?;
            // The sampled tensor picked the subspaces; the core must come
            // from the full data (also what makes the error identity free).
            let core = sparse_core(x, &thin.factors, CoreOrdering::BestShrinkFirst)?;
            (TuckerDecomp::new(core, thin.factors)?, sweeps)
        }
    };
    let total = x.frobenius_norm().powi(2);
    let captured = decomp.core.frobenius_norm().powi(2);
    let rel_err = if total > 0.0 {
        ((total - captured).max(0.0) / total).sqrt()
    } else {
        0.0
    };
    m2td_obs::gauge_set("sketch.rel_err", rel_err);
    Ok(((decomp, sweeps), rel_err))
}

/// [`hooi_sparse_sketched`] gated by [`m2td_guard::with_error_budget`]
/// with exact fallback — the dispatch target of [`crate::hooi_sparse`]
/// while sketching is installed.
pub(crate) fn hooi_sparse_guarded(
    x: &SparseTensor,
    ranks: &[usize],
    opts: HooiOptions,
    cfg: &SketchConfig,
) -> Result<HooiOutcome> {
    let gated = m2td_guard::with_error_budget(m2td_sketch::DEFAULT_SKETCH_BUDGET, || {
        hooi_sparse_sketched(x, ranks, opts, cfg).map_err(guard_wrap)
    });
    match gated {
        Ok((outcome, _err, gate)) if gate.accepted() => Ok(outcome),
        Ok(_) | Err(_) => {
            m2td_obs::counter_add("sketch.fallbacks", 1);
            hooi_sparse_exact(x, ranks, opts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTensor;
    use crate::hosvd::hosvd_sparse_exact;

    fn dense_ish(dims: &[usize], fill_mod: usize) -> SparseTensor {
        let shape = crate::shape::Shape::new(dims);
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .filter(|l| l % fill_mod == 0)
            .map(|l| {
                let idx = shape.multi_index(l);
                let smooth: f64 = idx
                    .iter()
                    .enumerate()
                    .map(|(m, &i)| ((i as f64) * (0.2 + 0.1 * m as f64)).sin() + 1.2)
                    .product();
                (idx, smooth + 0.05 * ((l as f64) * 0.77).sin())
            })
            .collect();
        SparseTensor::from_entries(dims, &entries).unwrap()
    }

    #[test]
    fn mach_sample_is_seed_deterministic_and_unbiased_in_energy() {
        let x = dense_ish(&[8, 6, 5], 2);
        let a = mach_sample(&x, 0.5, false, 7).unwrap();
        let b = mach_sample(&x, 0.5, false, 7).unwrap();
        assert_eq!(a.kept, b.kept);
        assert_eq!(
            a.tensor.iter_linear().collect::<Vec<_>>(),
            b.tensor.iter_linear().collect::<Vec<_>>()
        );
        assert!(a.kept > 0 && a.kept < x.nnz());
        // The unbiased energy estimate concentrates.
        assert!(
            a.energy_rel_err < 0.5,
            "energy estimate off by {}",
            a.energy_rel_err
        );
        // Different seed, different sample.
        let c = mach_sample(&x, 0.5, false, 8).unwrap();
        assert_ne!(
            a.tensor.iter_linear().collect::<Vec<_>>(),
            c.tensor.iter_linear().collect::<Vec<_>>()
        );
    }

    #[test]
    fn biased_mach_keeps_large_entries_preferentially() {
        // A tensor with a few huge entries in a sea of tiny ones: the
        // biased sampler must keep (essentially) all of the huge ones.
        let dims = [10, 10];
        let entries: Vec<(Vec<usize>, f64)> = (0..100)
            .map(|l| {
                let v = if l % 10 == 0 { 50.0 } else { 0.01 };
                (vec![l / 10, l % 10], v)
            })
            .collect();
        let x = SparseTensor::from_entries(&dims, &entries).unwrap();
        let s = mach_sample(&x, 0.3, true, 3).unwrap();
        let big_kept = s.tensor.iter().filter(|(idx, _)| idx[1] == 0).count();
        assert_eq!(big_kept, 10, "magnitude bias must keep all huge entries");
        // Huge entries have p = 1, so they are not rescaled.
        for (idx, v) in s.tensor.iter() {
            if idx[1] == 0 {
                assert_eq!(v, 50.0);
            }
        }
    }

    #[test]
    fn sketched_gram_estimates_the_exact_gram() {
        let x = dense_ish(&[6, 8, 7], 1);
        let cfg = SketchConfig::with_size(64).with_seed(11);
        let (approx, rel_err) = sketched_unfold_gram(&x, 0, &cfg).unwrap();
        let exact = x.unfold_gram(0).unwrap();
        assert_eq!(approx.shape(), exact.shape());
        assert!(rel_err < 0.35, "trace error {rel_err} too large at s=64");
        // Entrywise the estimate tracks the exact Gram at sketch scale.
        let diff = approx
            .as_slice()
            .iter()
            .zip(exact.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let scale = exact.max_abs();
        assert!(
            diff < scale,
            "sketched Gram deviates by {diff} against scale {scale}"
        );
        // Deterministic in the seed.
        let (again, _) = sketched_unfold_gram(&x, 0, &cfg).unwrap();
        assert_eq!(approx.as_slice(), again.as_slice());
    }

    #[test]
    fn op_count_model_favors_sketch_only_for_long_columns() {
        // Long fibers along a 64-dim mode: exact pays |g|² per column.
        let tall = dense_ish(&[64, 6, 6], 1);
        let s = 8;
        let sketched = sketched_gram_madds(tall.nnz(), 64, distinct_unfold_cols(&tall, 0), s);
        let exact = exact_gram_madds(&tall, 0);
        assert!(sketched < exact, "sketch {sketched} !< exact {exact}");
        // Short groups (mode dim 3): the exact route must win and the
        // planner must say so.
        let sketched1 = sketched_gram_madds(tall.nnz(), 3, distinct_unfold_cols(&tall, 1), s);
        let exact1 = exact_gram_madds(&tall, 1);
        assert!(sketched1 > exact1, "sketch {sketched1} !> exact {exact1}");
    }

    #[test]
    fn mach_shrinks_predicted_gram_work() {
        let x = dense_ish(&[12, 12, 12], 1);
        let sample = mach_sample(&x, 0.3, false, 5).unwrap();
        for mode in 0..3 {
            let full = exact_gram_madds(&x, mode);
            let thin = exact_gram_madds(&sample.tensor, mode);
            assert!(
                thin * 4 < full,
                "mode {mode}: sampled gram {thin} not ≪ full {full}"
            );
        }
    }

    #[test]
    fn phase_gram_uninstalled_is_bitwise_exact() {
        let _g = crate::test_support::sketch_lock();
        m2td_sketch::uninstall();
        let x = dense_ish(&[6, 5, 4], 2);
        let a = phase_gram(&x, 1).unwrap();
        let b = x.unfold_gram(1).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn phase_gram_mach_route_is_gated_and_deterministic() {
        let _g = crate::test_support::sketch_lock();
        let x = dense_ish(&[10, 8, 6], 1);
        m2td_sketch::install(
            SketchConfig::with_size(8)
                .with_seed(21)
                .with_policy(SketchPolicy::Mach { keep: 0.5 }),
        );
        let a = phase_gram(&x, 0).unwrap();
        let b = phase_gram(&x, 0).unwrap();
        m2td_sketch::uninstall();
        assert_eq!(a.as_slice(), b.as_slice());
        // The sampled Gram differs from the exact one (it really sketched).
        let exact = x.unfold_gram(0).unwrap();
        assert_ne!(a.as_slice(), exact.as_slice());
    }

    #[test]
    fn sketched_hosvd_error_matches_true_reconstruction_error() {
        let x = dense_ish(&[8, 7, 6], 1);
        let cfg = SketchConfig::with_size(16)
            .with_seed(9)
            .with_policy(SketchPolicy::Mach { keep: 0.6 });
        let (decomp, rel_err) = hosvd_sparse_sketched(&x, &[3, 3, 3], &cfg).unwrap();
        let dense = x.to_dense().unwrap();
        let true_err = decomp.relative_error(&dense).unwrap();
        assert!(
            (rel_err - true_err).abs() < 1e-9,
            "free identity {rel_err} vs true {true_err}"
        );
        // And the sketched error is in the same ballpark as exact HOSVD.
        let exact_err = hosvd_sparse_exact(&x, &[3, 3, 3])
            .unwrap()
            .relative_error(&dense)
            .unwrap();
        assert!(
            rel_err <= exact_err + 0.25,
            "sketched {rel_err} ≫ exact {exact_err}"
        );
    }

    #[test]
    fn dense_tensor_roundtrip_sanity() {
        // Guard against from_sorted_linear misuse in mach_sample: the
        // sample must load back into the same dense positions.
        let x = dense_ish(&[4, 4], 1);
        let s = mach_sample(&x, 1.0, false, 1).unwrap();
        assert_eq!(s.kept, x.nnz());
        let a: DenseTensor = x.to_dense().unwrap();
        let b: DenseTensor = s.tensor.to_dense().unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
