//! # m2td-sketch — randomized sketching kernels for the M2TD pipeline
//!
//! Exact per-mode factorization (`svd` / `gram_left_singular_vectors`)
//! scales with the full mode dimensions even when the target rank is
//! tiny. This crate provides the randomized alternatives (MACH-style,
//! Tsourakakis 2010; randomized range-finders, Halko–Martinsson–Tropp
//! 2011) the paper's ensemble shapes reward:
//!
//! * [`range_finder`] — a Gaussian randomized range-finder with optional
//!   power iterations and oversampling, producing `r` orthonormal
//!   leading-subspace columns plus a **measured** relative error, as a
//!   drop-in alternative to [`m2td_linalg::truncated_left_singular_vectors`];
//! * [`guarded_left_singular_vectors`] — the same, gated by
//!   [`m2td_guard::with_error_budget`]: if the measured error exceeds the
//!   budget the exact route runs instead and `sketch.fallbacks` is
//!   bumped — accuracy loss is *rejected*, never assumed;
//! * [`counter_gaussian`] / [`gaussian_matrix`] — the deterministic
//!   Gaussian sources backing the sketches (see below);
//! * op-count models ([`exact_factor_madds`], [`sketched_factor_madds`])
//!   mirroring `TtmPlan::predicted_madds`, so routes are chosen on
//!   predicted work, not vibes.
//!
//! Tensor-level sketches (sketched sparse Grams, MACH entry sampling,
//! sketched HOSVD/HOOI) live in `m2td_tensor::sketch`, which builds on
//! these kernels — the dependency points tensor → sketch → linalg.
//!
//! ## Determinism contract
//!
//! Fixed [`SketchConfig::seed`] ⇒ bitwise-identical results at every
//! thread count, matching the `m2td-par` kernels. Two mechanisms:
//!
//! * [`gaussian_matrix`] fills a test matrix *serially* from the in-tree
//!   xoshiro256++ `StdRng`, so a sketch generated once up front is a pure
//!   function of `(seed, rows, cols)`;
//! * [`counter_gaussian`] is a *counter-based* source — a SplitMix64-style
//!   hash of `(seed, a, b)` fed through Box–Muller — whose value is
//!   independent of evaluation order, so streaming accumulations (sparse
//!   `X·Ω` products, MACH keep/drop decisions) are partition-invariant.
//!
//! ## Install idiom
//!
//! Mirrors `m2td-guard`/`m2td-obs`: nothing sketches until [`install`]
//! flips the global flag, and while uninstalled every dispatch site costs
//! one relaxed atomic load and computes the exact route bitwise
//! unchanged.

use m2td_linalg::{
    householder_qr, symmetric_eig, truncated_left_singular_vectors, LinalgError, Matrix,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How a sketched route randomizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SketchPolicy {
    /// Dense Gaussian test matrices: range-finders over unfoldings and
    /// `(XΩ)(XΩ)ᵀ/s` sketched Grams.
    Gaussian,
    /// MACH-style uniform entry sampling: keep each nonzero with
    /// probability `keep`, scale survivors by `1/keep` (Horvitz–Thompson,
    /// unbiased in expectation), then run the exact kernels on the thin
    /// sample.
    Mach {
        /// Per-entry keep probability in `(0, 1]`.
        keep: f64,
    },
    /// MACH sampling biased toward large-magnitude entries
    /// (goal-oriented weighting à la Dunlavy et al.): entry `v` survives
    /// with probability `min(1, keep · |v| / mean|v|)` and is rescaled by
    /// the inverse of that probability, so high-energy regions are kept
    /// preferentially while the estimator stays unbiased.
    MachBiased {
        /// Base keep probability in `(0, 1]`.
        keep: f64,
    },
}

impl SketchPolicy {
    /// The keep probability for the MACH variants, `None` for Gaussian.
    pub fn keep(&self) -> Option<f64> {
        match self {
            SketchPolicy::Gaussian => None,
            SketchPolicy::Mach { keep } | SketchPolicy::MachBiased { keep } => Some(*keep),
        }
    }
}

impl std::str::FromStr for SketchPolicy {
    type Err = String;

    /// Parses `gaussian`, `mach`, `mach:<keep>`, `mach-biased` or
    /// `mach-biased:<keep>`.
    fn from_str(s: &str) -> Result<Self, String> {
        let parse_keep = |spec: &str| -> Result<f64, String> {
            let k: f64 = spec
                .parse()
                .map_err(|_| format!("invalid keep probability '{spec}' in sketch policy"))?;
            if !(k.is_finite() && k > 0.0 && k <= 1.0) {
                return Err(format!("keep probability {k} must lie in (0, 1]"));
            }
            Ok(k)
        };
        match s {
            "gaussian" => Ok(SketchPolicy::Gaussian),
            "mach" => Ok(SketchPolicy::Mach { keep: 0.3 }),
            "mach-biased" => Ok(SketchPolicy::MachBiased { keep: 0.3 }),
            other => {
                if let Some(spec) = other.strip_prefix("mach-biased:") {
                    Ok(SketchPolicy::MachBiased {
                        keep: parse_keep(spec)?,
                    })
                } else if let Some(spec) = other.strip_prefix("mach:") {
                    Ok(SketchPolicy::Mach {
                        keep: parse_keep(spec)?,
                    })
                } else {
                    Err(format!(
                        "unknown sketch policy '{other}' (expected gaussian | mach[:keep] | mach-biased[:keep])"
                    ))
                }
            }
        }
    }
}

impl fmt::Display for SketchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchPolicy::Gaussian => write!(f, "gaussian"),
            SketchPolicy::Mach { keep } => write!(f, "mach:{keep}"),
            SketchPolicy::MachBiased { keep } => write!(f, "mach-biased:{keep}"),
        }
    }
}

/// Configuration installed with [`install`] and threaded through Phase 1,
/// HOSVD/HOOI and the dist path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchConfig {
    /// Sketch width `s` (number of random test vectors). Internally
    /// clamped to `[r, min(m, n)]` per call site, so this acts as
    /// `r + oversampling` when larger than the rank.
    pub size: usize,
    /// Seed for every random draw. Fixed seed ⇒ bitwise-identical
    /// results at every thread count.
    pub seed: u64,
    /// Number of power iterations `q` in the range-finder (each one
    /// re-orthonormalizes, so modest `q` is numerically safe).
    pub power_iters: usize,
    /// Randomization scheme.
    pub policy: SketchPolicy,
}

impl SketchConfig {
    /// Defaults: width 8, seed 0x5EED, one power iteration, Gaussian.
    pub const DEFAULT: SketchConfig = SketchConfig {
        size: 8,
        seed: 0x5EED,
        power_iters: 1,
        policy: SketchPolicy::Gaussian,
    };

    /// [`Self::DEFAULT`] with the given sketch width.
    pub fn with_size(size: usize) -> Self {
        Self {
            size,
            ..Self::DEFAULT
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the power-iteration count.
    pub fn with_power_iters(mut self, q: usize) -> Self {
        self.power_iters = q;
        self
    }

    /// Sets the randomization policy.
    pub fn with_policy(mut self, policy: SketchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The effective sketch width for an `m × n` problem at rank `r`:
    /// at least `r` (a narrower sketch cannot carry the subspace), at
    /// most `min(m, n)` (a wider one adds no information).
    pub fn effective_size(&self, m: usize, n: usize, r: usize) -> usize {
        self.size.max(r).min(m).min(n).max(1)
    }

    /// Derives a per-site seed so different modes/sites draw independent
    /// sketches from one configured seed. Pure function of its inputs —
    /// the derivation is stable across thread counts and processes.
    pub fn seed_for(&self, site: u64) -> u64 {
        splitmix(self.seed ^ site.wrapping_mul(0xA24BAED4963EE407))
    }
}

impl Default for SketchConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Default relative-error budget used by guarded sketch routes when the
/// guard is uninstalled or installed without an explicit budget. Sketched
/// results are never accepted unmeasured; this permissive ceiling only
/// rejects sketches that lost the bulk of the signal.
pub const DEFAULT_SKETCH_BUDGET: f64 = 0.75;

/// Global sketch flag; mirrors the `m2td-guard` install idiom.
static INSTALLED: AtomicBool = AtomicBool::new(false);

static CONFIG: Mutex<SketchConfig> = Mutex::new(SketchConfig::DEFAULT);

fn config_slot() -> MutexGuard<'static, SketchConfig> {
    CONFIG.lock().unwrap_or_else(|e| e.into_inner())
}

/// Enables sketched routes globally under `config`. Idempotent; a second
/// call replaces the configuration.
pub fn install(config: SketchConfig) {
    *config_slot() = config;
    INSTALLED.store(true, Ordering::SeqCst);
}

/// Disables sketched routes globally (the configuration is retained but
/// unused); every dispatch site reverts to the exact kernels.
pub fn uninstall() {
    INSTALLED.store(false, Ordering::SeqCst);
}

/// Whether sketching is installed. One relaxed load — the entire
/// overhead of every dispatch site while uninstalled.
#[inline]
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// The installed configuration (the default when never installed).
pub fn config() -> SketchConfig {
    *config_slot()
}

/// SplitMix64 finalizer: a bijective avalanche mix.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Counter-based uniform hash of `(seed, a, b)` — a pure function of its
/// arguments, so any evaluation order (or partition across threads)
/// produces the same stream.
#[inline]
pub fn counter_hash(seed: u64, a: u64, b: u64) -> u64 {
    splitmix(seed ^ splitmix(a ^ 0x8E9B_5C4A_D1F2_3E07) ^ splitmix(b).rotate_left(17))
}

/// Uniform in `(0, 1]` from the top 53 bits of a hash (never 0, so it is
/// safe under `ln`).
#[inline]
fn unit_open(h: u64) -> f64 {
    ((h >> 11) as f64 + 1.0) * (1.0 / 9007199254740992.0) // 2⁻⁵³
}

/// Counter-based standard Gaussian: Box–Muller over two decorrelated
/// hashes of `(seed, a, b)`. Deterministic and evaluation-order
/// independent — the backbone of the sparse sketched-Gram kernel.
#[inline]
pub fn counter_gaussian(seed: u64, a: u64, b: u64) -> f64 {
    let u1 = unit_open(counter_hash(seed, a, b));
    let u2 = unit_open(counter_hash(seed ^ 0x6A09_E667_F3BC_C909, b, a));
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Counter-based uniform in `[0, 1)` for keep/drop decisions (MACH).
#[inline]
pub fn counter_uniform(seed: u64, a: u64, b: u64) -> f64 {
    (counter_hash(seed, a, b) >> 11) as f64 * (1.0 / 9007199254740992.0)
}

/// A dense `rows × cols` standard-Gaussian test matrix, filled serially
/// from the in-tree xoshiro256++ `StdRng` — a pure function of
/// `(seed, rows, cols)`.
pub fn gaussian_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = move || {
        // Box–Muller on xoshiro uniforms; (0,1] keeps ln finite.
        let u1: f64 = 1.0 - rng.gen_range(0.0..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m.set(i, j, draw());
        }
    }
    m
}

/// Result of a randomized range-finder pass.
#[derive(Debug, Clone)]
pub struct RangeFinder {
    /// `m × r` orthonormal leading-subspace estimate.
    pub u: Matrix,
    /// Measured relative error of the rank-`r` approximation
    /// `‖A − U Uᵀ A‖_F / ‖A‖_F`, computed from the energy identity
    /// `‖A‖²_F − ‖Uᵀ A‖²_F` — no dense residual is ever formed.
    pub rel_err: f64,
    /// The effective sketch width used (after clamping).
    pub sketch_size: usize,
}

/// Gaussian randomized range-finder (Halko–Martinsson–Tropp):
/// `Y = A·Ω`, `q` power iterations with QR re-orthonormalization, then a
/// small eigensolve on the sketched Gram recovers the leading `r` left
/// singular directions. A drop-in alternative to
/// [`truncated_left_singular_vectors`] whose cost scales with the sketch
/// width `s`, not the full mode dimension.
///
/// # Errors
///
/// * [`LinalgError::RankTooLarge`] if `r > min(m, n)` (same contract as
///   the exact route);
/// * [`LinalgError::EmptyInput`] for an empty matrix;
/// * any failure of the underlying QR/eig kernels.
pub fn range_finder(a: &Matrix, r: usize, cfg: &SketchConfig) -> Result<RangeFinder, LinalgError> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::EmptyInput);
    }
    if r == 0 || r > m.min(n) {
        return Err(LinalgError::RankTooLarge {
            requested: r,
            available: m.min(n),
        });
    }
    let _span = m2td_obs::span!("sketch.range_finder");
    let s = cfg.effective_size(m, n, r);
    m2td_obs::gauge_set("sketch.size", s as f64);

    let omega = gaussian_matrix(cfg.seed_for(0x52414E47), n, s); // site tag "RANG"
    let y = a.matmul(&omega)?;
    let mut q = householder_qr(&y)?.q;
    for _ in 0..cfg.power_iters {
        // One subspace-iteration round trip, re-orthonormalized on both
        // legs to stop the columns collapsing onto the top direction.
        let z = householder_qr(&a.transpose_matmul(&q)?)?.q;
        q = householder_qr(&a.matmul(&z)?)?.q;
    }

    // B = Qᵀ A is s × n; its row Gram carries the sketched spectrum.
    let b = q.transpose_matmul(a)?;
    let eig = symmetric_eig(&b.gram_rows())?;
    let u = q.matmul(&eig.eigenvectors.leading_columns(r)?)?;

    // Energy identity: ‖A − U Uᵀ A‖² = ‖A‖² − ‖Uᵀ A‖², where
    // ‖Uᵀ A‖² = Σ_{i≤r} λ_i(BBᵀ) because U's columns are Q·W[:, :r].
    let total = a.frobenius_norm().powi(2);
    let captured: f64 = eig.eigenvalues.iter().take(r).sum();
    let rel_err = if total > 0.0 {
        ((total - captured).max(0.0) / total).sqrt()
    } else {
        0.0
    };
    m2td_obs::gauge_set("sketch.rel_err", rel_err);
    Ok(RangeFinder {
        u,
        rel_err,
        sketch_size: s,
    })
}

/// [`range_finder`] gated by [`m2td_guard::with_error_budget`]: the
/// sketched factor is accepted only if its **measured** relative error
/// fits the budget (the installed guard budget, else
/// [`DEFAULT_SKETCH_BUDGET`]); otherwise the exact
/// [`truncated_left_singular_vectors`] route runs and `sketch.fallbacks`
/// is bumped. Never bumps any `guard.*` counter — a rejected sketch
/// corrupted nothing.
pub fn guarded_left_singular_vectors(
    a: &Matrix,
    r: usize,
    cfg: &SketchConfig,
) -> Result<Matrix, LinalgError> {
    let gated = m2td_guard::with_error_budget(DEFAULT_SKETCH_BUDGET, || {
        let rf = range_finder(a, r, cfg)?;
        Ok((rf.u, rf.rel_err))
    });
    match gated {
        Ok((u, _err, gate)) if gate.accepted() => Ok(u),
        Ok(_) => {
            m2td_obs::counter_add("sketch.fallbacks", 1);
            truncated_left_singular_vectors(a, r)
        }
        Err(m2td_guard::GuardError::Linalg(e)) => Err(e),
        // with_error_budget itself raises nothing beyond the closure's
        // error, and the closure only returns Linalg.
        Err(_) => unreachable!("sketch closure raises only Linalg errors"),
    }
}

// ---------------------------------------------------------------------------
// Op-count models (multiply-adds), mirroring `TtmPlan::predicted_madds`.
// ---------------------------------------------------------------------------

/// Jacobi-sweep count assumed by the op-count models (one-sided Jacobi on
/// well-scattered spectra typically converges in ~10 sweeps).
pub const JACOBI_SWEEPS: u64 = 10;

/// Per-sweep rotation cost factor for the Jacobi kernels (each rotated
/// pair touches both columns ~3 times: dot products + the rotation).
const JACOBI_PAIR_COST: u64 = 3;

/// Predicted madds of the exact truncated-left-singular-vector dispatch
/// for an `m × n` input: the Gram trick (`n·m(m+1)/2` plus an `m × m`
/// Jacobi eigensolve) when `n ≥ m`, a full one-sided Jacobi SVD
/// (`sweeps · 3·m·n²`) otherwise — matching
/// [`truncated_left_singular_vectors`]'s routing.
pub fn exact_factor_madds(m: usize, n: usize) -> u64 {
    let (m, n) = (m as u64, n as u64);
    if n >= m {
        n * m * (m + 1) / 2 + JACOBI_SWEEPS * JACOBI_PAIR_COST * m * m * m
    } else {
        JACOBI_SWEEPS * JACOBI_PAIR_COST * m * n * n
    }
}

/// Predicted madds of [`range_finder`] for an `m × n` input at rank `r`
/// with sketch width `s` and `q` power iterations: the sketch product,
/// the power-iteration round trips with their QR re-orthonormalizations,
/// the small `s × s` eigensolve, and the final basis rotation.
pub fn sketched_factor_madds(m: usize, n: usize, r: usize, s: usize, q: usize) -> u64 {
    let (m, n, r, s, q) = (m as u64, n as u64, r as u64, s as u64, q as u64);
    let sketch = m * n * s; // Y = A·Ω
    let power = q * 2 * m * n * s; // AᵀQ then A·Z per iteration
    let qr = (2 * q + 1) * 2 * m * s * s; // Householder passes
    let small_gram = n * s * (s + 1) / 2; // BBᵀ
    let small_eig = JACOBI_SWEEPS * JACOBI_PAIR_COST * s * s * s;
    let rotate = m * s * r; // U = Q·W[:, :r]
    sketch + power + qr + small_gram + small_eig + rotate + m * n * s // B = QᵀA
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// Sketch and metrics state is process-global; tests that install or
    /// that call `range_finder` (which records gauges) serialize here.
    static LOCK: TestMutex<()> = TestMutex::new(());

    fn test_matrix(m: usize, n: usize) -> Matrix {
        // Rank-heavy in the leading directions: a few dominant outer
        // products plus a small full-rank tail.
        Matrix::from_fn(m, n, |i, j| {
            let a = ((i as f64) * 0.17).sin() * ((j as f64) * 0.23).cos();
            let b = ((i as f64) * 0.05 + 1.0) * ((j as f64) * 0.07 - 0.5);
            // The tail is a non-separable (full-rank) surface, so no
            // finite rank captures the matrix exactly.
            4.0 * a + 0.8 * b + 0.01 * ((i * j) as f64 * 0.9).sin()
        })
    }

    #[test]
    fn policy_parsing_round_trips() {
        assert_eq!(
            "gaussian".parse::<SketchPolicy>(),
            Ok(SketchPolicy::Gaussian)
        );
        assert_eq!(
            "mach:0.5".parse::<SketchPolicy>(),
            Ok(SketchPolicy::Mach { keep: 0.5 })
        );
        assert_eq!(
            "mach-biased:0.25".parse::<SketchPolicy>(),
            Ok(SketchPolicy::MachBiased { keep: 0.25 })
        );
        assert_eq!(
            "mach".parse::<SketchPolicy>(),
            Ok(SketchPolicy::Mach { keep: 0.3 })
        );
        assert!("mach:1.5".parse::<SketchPolicy>().is_err());
        assert!("mach:0".parse::<SketchPolicy>().is_err());
        assert!("bogus".parse::<SketchPolicy>().is_err());
        for p in [
            SketchPolicy::Gaussian,
            SketchPolicy::Mach { keep: 0.3 },
            SketchPolicy::MachBiased { keep: 0.125 },
        ] {
            assert_eq!(p.to_string().parse::<SketchPolicy>(), Ok(p));
        }
    }

    #[test]
    fn install_round_trip() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!installed());
        let cfg = SketchConfig::with_size(16).with_seed(7).with_power_iters(2);
        install(cfg);
        assert!(installed());
        assert_eq!(config(), cfg);
        uninstall();
        assert!(!installed());
    }

    #[test]
    fn counter_sources_are_deterministic_and_spread() {
        assert_eq!(counter_gaussian(1, 2, 3), counter_gaussian(1, 2, 3));
        assert_ne!(counter_gaussian(1, 2, 3), counter_gaussian(2, 2, 3));
        assert_ne!(counter_gaussian(1, 2, 3), counter_gaussian(1, 3, 2));
        // Mean and variance of the counter stream are roughly standard.
        let n = 4000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for i in 0..n {
            let g = counter_gaussian(42, i as u64, (i / 7) as u64);
            sum += g;
            sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.08, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.12, "variance {var} too far from 1");
        for i in 0..100 {
            let u = counter_uniform(9, i, 2 * i);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gaussian_matrix_is_a_pure_function_of_seed_and_shape() {
        let a = gaussian_matrix(11, 8, 5);
        let b = gaussian_matrix(11, 8, 5);
        assert_eq!(a.as_slice(), b.as_slice());
        let c = gaussian_matrix(12, 8, 5);
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn range_finder_recovers_dominant_subspace() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = test_matrix(64, 12);
        let cfg = SketchConfig::with_size(8).with_seed(3);
        let rf = range_finder(&a, 4, &cfg).unwrap();
        assert_eq!(rf.u.shape(), (64, 4));
        assert!(rf.u.orthonormality_defect() < 1e-9);
        // Measured error agrees with the true residual.
        let proj = rf.u.matmul(&rf.u.transpose_matmul(&a).unwrap()).unwrap();
        let true_err = a.sub(&proj).unwrap().frobenius_norm() / a.frobenius_norm();
        assert!(
            (rf.rel_err - true_err).abs() < 1e-8,
            "energy-identity error {} vs residual {}",
            rf.rel_err,
            true_err
        );
        // And it is close to the exact truncated route's error.
        let exact = truncated_left_singular_vectors(&a, 4).unwrap();
        let eproj = exact.matmul(&exact.transpose_matmul(&a).unwrap()).unwrap();
        let exact_err = a.sub(&eproj).unwrap().frobenius_norm() / a.frobenius_norm();
        assert!(
            rf.rel_err <= exact_err + 0.05,
            "sketched error {} much worse than exact {}",
            rf.rel_err,
            exact_err
        );
    }

    #[test]
    fn range_finder_is_seed_deterministic() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = test_matrix(40, 10);
        let cfg = SketchConfig::with_size(6).with_seed(99);
        let r1 = range_finder(&a, 3, &cfg).unwrap();
        let r2 = range_finder(&a, 3, &cfg).unwrap();
        assert_eq!(r1.u.as_slice(), r2.u.as_slice());
        assert_eq!(r1.rel_err, r2.rel_err);
        let r3 = range_finder(&a, 3, &cfg.with_seed(100)).unwrap();
        assert_ne!(r1.u.as_slice(), r3.u.as_slice());
    }

    #[test]
    fn range_finder_rank_contract_matches_exact_route() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = test_matrix(6, 2);
        let cfg = SketchConfig::DEFAULT;
        match range_finder(&a, 3, &cfg) {
            Err(LinalgError::RankTooLarge {
                requested,
                available,
            }) => assert_eq!((requested, available), (3, 2)),
            other => panic!("expected RankTooLarge, got {other:?}"),
        }
        assert!(range_finder(&Matrix::zeros(0, 3), 1, &cfg).is_err());
    }

    #[test]
    fn guarded_route_accepts_good_sketches_and_rejects_tiny_ones() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = test_matrix(48, 16);
        // Healthy sketch: accepted, factors orthonormal.
        let cfg = SketchConfig::with_size(12).with_seed(5);
        let u = guarded_left_singular_vectors(&a, 4, &cfg).unwrap();
        assert_eq!(u.shape(), (48, 4));
        assert!(u.orthonormality_defect() < 1e-9);

        // A guard with a near-zero budget forces the fallback; the result
        // must be the exact route's, with the fallback counter bumped and
        // no guard.* counter touched.
        m2td_guard::install(m2td_guard::GuardConfig::DEFAULT.with_error_budget(1e-12));
        m2td_obs::install();
        m2td_obs::reset();
        let u2 = guarded_left_singular_vectors(&a, 4, &cfg).unwrap();
        let exact = truncated_left_singular_vectors(&a, 4).unwrap();
        let snap = m2td_obs::snapshot();
        m2td_obs::reset();
        m2td_obs::uninstall();
        m2td_guard::uninstall();
        assert_eq!(u2.as_slice(), exact.as_slice(), "fallback must be exact");
        assert_eq!(snap.counter("sketch.fallbacks"), Some(1));
        assert!(
            !snap.counters.iter().any(|(k, _)| k.starts_with("guard.")),
            "sketch fallback must not bump guard counters: {:?}",
            snap.counters
        );
    }

    #[test]
    fn op_count_model_predicts_sketch_wins_on_tall_skinny() {
        // The bench's tall-skinny unfold shape: the exact route is a full
        // Jacobi SVD, the sketch does a handful of thin GEMMs.
        let (m, n, r, s, q) = (256, 16, 4, 8, 1);
        assert!(
            sketched_factor_madds(m, n, r, s, q) < exact_factor_madds(m, n),
            "sketch {} !< exact {}",
            sketched_factor_madds(m, n, r, s, q),
            exact_factor_madds(m, n)
        );
        // Short-and-wide Gram-trick shapes are already cheap; the dense
        // sketch must honestly predict it does NOT win there.
        assert!(sketched_factor_madds(12, 1728, 4, 8, 1) > exact_factor_madds(12, 1728));
    }

    #[test]
    fn effective_size_clamps_to_problem() {
        let cfg = SketchConfig::with_size(32);
        assert_eq!(cfg.effective_size(256, 16, 4), 16);
        assert_eq!(cfg.effective_size(8, 300, 4), 8);
        assert_eq!(SketchConfig::with_size(2).effective_size(64, 64, 5), 5);
    }

    #[test]
    fn sketch_spans_and_gauges_are_recorded() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        m2td_obs::install();
        m2td_obs::reset();
        let a = test_matrix(32, 12);
        let cfg = SketchConfig::with_size(6).with_seed(1);
        let rf = range_finder(&a, 3, &cfg).unwrap();
        let snap = m2td_obs::snapshot();
        m2td_obs::reset();
        m2td_obs::uninstall();
        assert!(snap.span("sketch.range_finder").is_some());
        assert_eq!(snap.gauge("sketch.size"), Some(6.0));
        assert_eq!(snap.gauge("sketch.rel_err"), Some(rf.rel_err));
    }
}
