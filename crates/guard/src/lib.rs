//! # m2td-guard — numerical guard rails for the M2TD pipeline
//!
//! A rank-deficient Gram matrix, a NaN leaking out of an ill-conditioned
//! eigensolve, or a corrupted durable record will silently poison the
//! stitched join tensor and the recovered core. This crate is the *validation*
//! layer: it detects those conditions where they arise and either repairs
//! them under a configured [`GuardPolicy`] or fails loudly with a
//! structured [`GuardError`] naming the detection site — never letting a
//! silent NaN/garbage core escape.
//!
//! Three families of checks:
//!
//! * **Spectrum guards** — [`gram_factor`] wraps every Gram → leading-
//!   eigenvector extraction with effective-rank and condition-number
//!   estimation. Deficient or ill-conditioned spectra are handled per the
//!   installed policy: `Fail` (structured error), `ClampRank` (truncate to
//!   the numerically supported rank), or `Regularize(λ)` (accept, with the
//!   ridge `λ` applied by downstream least-squares solves).
//! * **NaN/Inf sentinels** — [`check_cells`], [`check_matrix`] and
//!   [`check_dense`] scan phase-boundary artifacts (sub-tensor inputs,
//!   factors, join tensor, core) and report the offending site, mode and
//!   multi-index.
//! * **Error-budget acceptance** — [`budget_verdict`] bounds the relative
//!   reconstruction error of the recovered core against a configured
//!   budget before a run is marked healthy.
//!
//! ## Overhead contract (mirrors `m2td-obs`)
//!
//! Nothing is checked until [`install`] flips the global flag: while
//! uninstalled, every entry point is a single relaxed atomic load and the
//! numerical results are bitwise identical to the unguarded code paths.
//! Installing the guard never changes computed values either — unless a
//! policy explicitly repairs something (`ClampRank` truncating a factor),
//! in which case the repair is recorded in the `guard.*` counters of
//! `m2td-obs`.
//!
//! ## Detection counters
//!
//! Every detection is mirrored into `m2td-obs` (when its subscriber is
//! installed) under the `guard.*` namespace: `guard.nonfinite`,
//! `guard.rank_deficient`, `guard.rank_clamped`, `guard.ill_conditioned`,
//! `guard.regularized` and `guard.budget_exceeded`. Damaged durable
//! records are counted by the store that quarantines them (see
//! [`integrity::SealedFiles`]), e.g. `manifest.log_quarantined`.

pub mod integrity;

use m2td_linalg::{symmetric_eig, LinalgError, Matrix};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// What to do when a spectrum guard detects a rank-deficient or
/// ill-conditioned Gram matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardPolicy {
    /// Surface a structured [`GuardError`] naming the detection site.
    Fail,
    /// Truncate the requested rank to the numerically supported one (at
    /// least 1). Downstream consumers must size themselves off the actual
    /// factor widths, not the requested ranks.
    ClampRank,
    /// Accept the requested rank; the ridge `λ` is applied by downstream
    /// least-squares solves (`U (UᵀU + λI)⁻¹`), bounding their
    /// conditioning. The extracted eigenvectors themselves are unchanged
    /// (adding `λI` to a Gram shifts eigenvalues, not eigenvectors).
    Regularize(f64),
}

impl std::str::FromStr for GuardPolicy {
    type Err = String;

    /// Parses `fail`, `clamp-rank`, `regularize` or `regularize:<λ>`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fail" => Ok(GuardPolicy::Fail),
            "clamp-rank" | "clamp" => Ok(GuardPolicy::ClampRank),
            "regularize" => Ok(GuardPolicy::Regularize(1e-8)),
            other => match other.strip_prefix("regularize:") {
                Some(lambda) => {
                    let l: f64 = lambda
                        .parse()
                        .map_err(|_| format!("invalid ridge '{lambda}' in guard policy"))?;
                    if !(l.is_finite() && l > 0.0) {
                        return Err(format!("ridge {l} must be a positive finite number"));
                    }
                    Ok(GuardPolicy::Regularize(l))
                }
                None => Err(format!(
                    "unknown guard policy '{other}' (expected fail | clamp-rank | regularize[:λ])"
                )),
            },
        }
    }
}

/// Configuration installed with [`install`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Response to deficient/ill-conditioned spectra.
    pub policy: GuardPolicy,
    /// Maximum accepted relative reconstruction error of the recovered
    /// core; `None` disables the acceptance check.
    pub error_budget: Option<f64>,
    /// Condition-number ceiling (`λ_max / λ_r`) for the leading block of a
    /// guarded spectrum.
    pub cond_threshold: f64,
    /// Relative eigenvalue floor defining the effective rank:
    /// `#{λ_i > rank_tolerance · λ_max}`.
    pub rank_tolerance: f64,
}

impl GuardConfig {
    /// Conservative defaults: `Fail` policy, no budget, condition ceiling
    /// `1e12`, rank tolerance `1e-12`.
    pub const DEFAULT: GuardConfig = GuardConfig {
        policy: GuardPolicy::Fail,
        error_budget: None,
        cond_threshold: 1e12,
        rank_tolerance: 1e-12,
    };

    /// [`Self::DEFAULT`] with the given policy.
    pub fn with_policy(policy: GuardPolicy) -> Self {
        Self {
            policy,
            ..Self::DEFAULT
        }
    }

    /// Sets the acceptance budget.
    pub fn with_error_budget(mut self, budget: f64) -> Self {
        self.error_budget = Some(budget);
        self
    }

    /// Sets the condition-number ceiling.
    pub fn with_cond_threshold(mut self, threshold: f64) -> Self {
        self.cond_threshold = threshold;
        self
    }
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Which non-finite value a sentinel caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonFiniteKind {
    /// Not-a-number.
    NaN,
    /// Positive infinity.
    PosInf,
    /// Negative infinity.
    NegInf,
}

impl NonFiniteKind {
    /// Classifies a non-finite value; `None` for finite input.
    pub fn classify(v: f64) -> Option<NonFiniteKind> {
        if v.is_nan() {
            Some(NonFiniteKind::NaN)
        } else if v == f64::INFINITY {
            Some(NonFiniteKind::PosInf)
        } else if v == f64::NEG_INFINITY {
            Some(NonFiniteKind::NegInf)
        } else {
            None
        }
    }
}

impl fmt::Display for NonFiniteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NonFiniteKind::NaN => write!(f, "NaN"),
            NonFiniteKind::PosInf => write!(f, "+inf"),
            NonFiniteKind::NegInf => write!(f, "-inf"),
        }
    }
}

/// A guard detection that the configured policy could not (or must not)
/// repair. Every variant names the detection site, so a failed run is
/// diagnosable without rerunning.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardError {
    /// A NaN/Inf crossed a phase boundary.
    NonFinite {
        /// Detection site (e.g. `"phase1.x1"`, `"phase3.core"`).
        site: &'static str,
        /// Mode the artifact belongs to, when meaningful.
        mode: Option<usize>,
        /// Multi-index (or `[row, col]`) of the offending value.
        index: Vec<usize>,
        /// Which non-finite value was found.
        kind: NonFiniteKind,
    },
    /// A Gram spectrum supports fewer directions than requested.
    RankDeficient {
        /// Detection site.
        site: &'static str,
        /// Mode of the Gram matrix, when known.
        mode: Option<usize>,
        /// The rank that was requested.
        requested: usize,
        /// The effective rank (`#{λ_i > tol · λ_max}`).
        effective: usize,
    },
    /// The leading block of a Gram spectrum exceeds the condition ceiling.
    IllConditioned {
        /// Detection site.
        site: &'static str,
        /// Mode of the Gram matrix, when known.
        mode: Option<usize>,
        /// Observed condition number `λ_max / λ_r`.
        cond: f64,
        /// The configured ceiling.
        threshold: f64,
    },
    /// The recovered core's relative reconstruction error exceeded the
    /// acceptance budget (only raised by callers that escalate an
    /// unhealthy [`GuardVerdict`]).
    BudgetExceeded {
        /// Observed relative reconstruction error.
        relative_error: f64,
        /// The configured budget.
        budget: f64,
    },
    /// An underlying linear-algebra kernel failed inside a guarded call.
    Linalg(LinalgError),
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_mode = |mode: &Option<usize>| match mode {
            Some(m) => format!(" (mode {m})"),
            None => String::new(),
        };
        match self {
            GuardError::NonFinite {
                site,
                mode,
                index,
                kind,
            } => write!(
                f,
                "non-finite value ({kind}) at {site}{} index {index:?}",
                fmt_mode(mode)
            ),
            GuardError::RankDeficient {
                site,
                mode,
                requested,
                effective,
            } => write!(
                f,
                "rank-deficient spectrum at {site}{}: requested rank {requested}, effective rank {effective}",
                fmt_mode(mode)
            ),
            GuardError::IllConditioned {
                site,
                mode,
                cond,
                threshold,
            } => write!(
                f,
                "ill-conditioned spectrum at {site}{}: condition {cond:.3e} exceeds threshold {threshold:.3e}",
                fmt_mode(mode)
            ),
            GuardError::BudgetExceeded {
                relative_error,
                budget,
            } => write!(
                f,
                "reconstruction error budget exceeded: relative error {relative_error:.3e} > budget {budget:.3e}"
            ),
            GuardError::Linalg(e) => write!(f, "linear algebra error in guarded call: {e}"),
        }
    }
}

impl std::error::Error for GuardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GuardError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for GuardError {
    fn from(e: LinalgError) -> Self {
        GuardError::Linalg(e)
    }
}

/// Outcome of the end-to-end acceptance check attached to a run report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardVerdict {
    /// True iff the relative reconstruction error is finite and within
    /// budget.
    pub healthy: bool,
    /// Observed relative reconstruction error of the recovered core over
    /// the observed (join) cells.
    pub relative_error: f64,
    /// The budget the error was checked against.
    pub budget: f64,
}

/// Global guard flag. Relaxed is enough: checking threads only need to
/// *eventually* observe installation (matching the `m2td-obs` contract),
/// and config readers get a happens-before edge from the config mutex.
static INSTALLED: AtomicBool = AtomicBool::new(false);

static CONFIG: Mutex<GuardConfig> = Mutex::new(GuardConfig::DEFAULT);

fn config_slot() -> MutexGuard<'static, GuardConfig> {
    CONFIG.lock().unwrap_or_else(|e| e.into_inner())
}

/// Enables guarding globally under `config`. Idempotent; a second call
/// replaces the configuration.
pub fn install(config: GuardConfig) {
    *config_slot() = config;
    INSTALLED.store(true, Ordering::SeqCst);
}

/// Disables guarding globally (the configuration is retained but unused).
pub fn uninstall() {
    INSTALLED.store(false, Ordering::SeqCst);
}

/// Whether the guard is installed. One relaxed load — this is the entire
/// overhead of every guard entry point while uninstalled.
#[inline]
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// The installed configuration (the default when never installed).
pub fn config() -> GuardConfig {
    *config_slot()
}

/// The ridge to use in downstream least-squares solves:
/// `Some(λ)` iff the guard is installed with [`GuardPolicy::Regularize`].
pub fn ridge_lambda() -> Option<f64> {
    if !installed() {
        return None;
    }
    match config().policy {
        GuardPolicy::Regularize(l) => Some(l),
        _ => None,
    }
}

/// Effective rank of a descending eigenvalue spectrum:
/// `#{λ_i > tol · λ_max}` (0 when `λ_max ≤ 0`).
pub fn effective_rank(eigenvalues: &[f64], tol: f64) -> usize {
    let lambda_max = eigenvalues.first().copied().unwrap_or(0.0);
    if lambda_max <= 0.0 {
        return 0;
    }
    eigenvalues
        .iter()
        .filter(|&&l| l > tol * lambda_max)
        .count()
}

/// Condition number `λ_max / λ_r` of the leading `r` block of a
/// descending spectrum; infinite when `λ_r ≤ 0` or `r` exceeds the
/// spectrum length.
pub fn condition_number(eigenvalues: &[f64], r: usize) -> f64 {
    let lambda_max = eigenvalues.first().copied().unwrap_or(0.0);
    if r == 0 || r > eigenvalues.len() {
        return f64::INFINITY;
    }
    let lambda_r = eigenvalues[r - 1];
    if lambda_r <= 0.0 {
        return f64::INFINITY;
    }
    lambda_max / lambda_r
}

/// NaN/Inf sentinel over a matrix. No-op (one relaxed load) while
/// uninstalled. The error index is `[row, col]`.
pub fn check_matrix(site: &'static str, mode: Option<usize>, m: &Matrix) -> Result<(), GuardError> {
    if !installed() {
        return Ok(());
    }
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            if let Some(kind) = NonFiniteKind::classify(m.get(i, j)) {
                m2td_obs::counter_add("guard.nonfinite", 1);
                return Err(GuardError::NonFinite {
                    site,
                    mode,
                    index: vec![i, j],
                    kind,
                });
            }
        }
    }
    Ok(())
}

/// NaN/Inf sentinel over sparse cells `(multi_index, value)`. No-op (one
/// relaxed load) while uninstalled — the iterator is not consumed.
pub fn check_cells<I>(site: &'static str, cells: I) -> Result<(), GuardError>
where
    I: IntoIterator<Item = (Vec<usize>, f64)>,
{
    if !installed() {
        return Ok(());
    }
    for (index, v) in cells {
        if let Some(kind) = NonFiniteKind::classify(v) {
            m2td_obs::counter_add("guard.nonfinite", 1);
            return Err(GuardError::NonFinite {
                site,
                mode: None,
                index,
                kind,
            });
        }
    }
    Ok(())
}

/// NaN/Inf sentinel over a dense row-major buffer of shape `dims`. The
/// error index is the multi-index of the offending element.
pub fn check_dense(site: &'static str, dims: &[usize], data: &[f64]) -> Result<(), GuardError> {
    if !installed() {
        return Ok(());
    }
    for (lin, &v) in data.iter().enumerate() {
        if let Some(kind) = NonFiniteKind::classify(v) {
            m2td_obs::counter_add("guard.nonfinite", 1);
            return Err(GuardError::NonFinite {
                site,
                mode: None,
                index: multi_index(dims, lin),
                kind,
            });
        }
    }
    Ok(())
}

/// Row-major multi-index of linear position `lin` in shape `dims`.
fn multi_index(dims: &[usize], mut lin: usize) -> Vec<usize> {
    let mut idx = vec![0usize; dims.len()];
    for (slot, &d) in idx.iter_mut().zip(dims.iter()).rev() {
        if d > 0 {
            *slot = lin % d;
            lin /= d;
        }
    }
    idx
}

/// Leading-`r` eigenvectors of a Gram matrix, guarded.
///
/// While uninstalled this is exactly `symmetric_eig` + `leading_columns`
/// (plus one relaxed load) — results are bitwise identical to the
/// unguarded path. While installed, the Gram is first scanned for
/// non-finite entries and the spectrum is assessed:
///
/// * effective rank below `r` → [`GuardPolicy`] decides: fail, clamp to
///   the effective rank (≥ 1), or accept with regularization;
/// * leading-block condition number above the ceiling → fail, clamp to
///   the largest acceptable block, or accept with regularization.
///
/// Repairs never alter the retained columns — clamping only drops
/// trailing ones — so any two policies agree on the columns they both
/// keep.
pub fn gram_factor(
    site: &'static str,
    mode: Option<usize>,
    gram: &Matrix,
    r: usize,
) -> Result<Matrix, GuardError> {
    if !installed() {
        let eig = symmetric_eig(gram)?;
        return Ok(eig.eigenvectors.leading_columns(r)?);
    }
    check_matrix(site, mode, gram)?;
    let cfg = config();
    let eig = symmetric_eig(gram)?;
    let evs = &eig.eigenvalues; // descending
    let eff = effective_rank(evs, cfg.rank_tolerance);
    let r_used = if eff < r {
        m2td_obs::counter_add("guard.rank_deficient", 1);
        match cfg.policy {
            GuardPolicy::Fail => {
                return Err(GuardError::RankDeficient {
                    site,
                    mode,
                    requested: r,
                    effective: eff,
                })
            }
            GuardPolicy::ClampRank => {
                m2td_obs::counter_add("guard.rank_clamped", 1);
                eff.max(1)
            }
            GuardPolicy::Regularize(_) => {
                m2td_obs::counter_add("guard.regularized", 1);
                r
            }
        }
    } else {
        let cond = condition_number(evs, r);
        if cond > cfg.cond_threshold {
            m2td_obs::counter_add("guard.ill_conditioned", 1);
            match cfg.policy {
                GuardPolicy::Fail => {
                    return Err(GuardError::IllConditioned {
                        site,
                        mode,
                        cond,
                        threshold: cfg.cond_threshold,
                    })
                }
                GuardPolicy::ClampRank => {
                    m2td_obs::counter_add("guard.rank_clamped", 1);
                    let mut rp = r;
                    while rp > 1 && condition_number(evs, rp) > cfg.cond_threshold {
                        rp -= 1;
                    }
                    rp
                }
                GuardPolicy::Regularize(_) => {
                    m2td_obs::counter_add("guard.regularized", 1);
                    r
                }
            }
        } else {
            r
        }
    };
    Ok(eig.eigenvectors.leading_columns(r_used)?)
}

/// Outcome of a [`with_error_budget`] acceptance gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetGate {
    /// The measured error is finite and within the effective budget.
    Accepted,
    /// The measured error exceeded the effective budget (or was
    /// non-finite); the caller must fall back to its exact route.
    Rejected,
}

impl BudgetGate {
    /// Whether the approximate result may be used.
    pub fn accepted(self) -> bool {
        matches!(self, BudgetGate::Accepted)
    }
}

/// Gates an *approximate* computation behind an error budget.
///
/// `compute` runs unconditionally and must return its result together
/// with a **measured** relative error. The error is then checked against
/// the installed [`GuardConfig::error_budget`] when the guard is
/// installed and a budget is configured, and against `default_budget`
/// otherwise — approximate routes are never accepted *unmeasured*, even
/// with the guard uninstalled. A rejection does not bump any `guard.*`
/// counter (nothing corrupted the pipeline — the caller simply retries
/// exactly); callers record their own fallback counters.
pub fn with_error_budget<T>(
    default_budget: f64,
    compute: impl FnOnce() -> Result<(T, f64), GuardError>,
) -> Result<(T, f64, BudgetGate), GuardError> {
    let budget = if installed() {
        config().error_budget.unwrap_or(default_budget)
    } else {
        default_budget
    };
    let (value, relative_error) = compute()?;
    let gate = if relative_error.is_finite() && relative_error <= budget {
        BudgetGate::Accepted
    } else {
        BudgetGate::Rejected
    };
    Ok((value, relative_error, gate))
}

/// The end-to-end acceptance check: compares the observed relative
/// reconstruction error against the installed budget. Returns `None` when
/// the guard is uninstalled or no budget is configured; an unhealthy
/// verdict bumps `guard.budget_exceeded`.
pub fn budget_verdict(relative_error: f64) -> Option<GuardVerdict> {
    if !installed() {
        return None;
    }
    let budget = config().error_budget?;
    let healthy = relative_error.is_finite() && relative_error <= budget;
    if !healthy {
        m2td_obs::counter_add("guard.budget_exceeded", 1);
    }
    Some(GuardVerdict {
        healthy,
        relative_error,
        budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// Guard state is process-global; tests that install serialize here.
    static LOCK: TestMutex<()> = TestMutex::new(());

    fn with_guard<T>(cfg: GuardConfig, f: impl FnOnce() -> T) -> T {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(cfg);
        let out = f();
        uninstall();
        out
    }

    /// Gram of a matrix whose columns have the given singular values.
    fn diag_gram(values: &[f64]) -> Matrix {
        let n = values.len();
        Matrix::from_fn(n, n, |i, j| if i == j { values[i] } else { 0.0 })
    }

    #[test]
    fn uninstalled_checks_are_inert() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        assert!(!installed());
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 0, f64::NAN);
        // Sentinels pass without looking.
        assert!(check_matrix("t", None, &m).is_ok());
        assert!(check_cells("t", vec![(vec![0], f64::NAN)]).is_ok());
        assert!(check_dense("t", &[2], &[f64::NAN, 1.0]).is_ok());
        assert!(budget_verdict(9.9).is_none());
        assert!(ridge_lambda().is_none());
    }

    #[test]
    fn uninstalled_gram_factor_matches_plain_eig() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        let gram = diag_gram(&[4.0, 2.0, 1.0]);
        let guarded = gram_factor("t", None, &gram, 2).unwrap();
        let eig = symmetric_eig(&gram).unwrap();
        let plain = eig.eigenvectors.leading_columns(2).unwrap();
        assert_eq!(guarded.as_slice(), plain.as_slice());
    }

    #[test]
    fn nonfinite_is_reported_with_site_and_index() {
        let cfg = GuardConfig::DEFAULT;
        with_guard(cfg, || {
            let mut m = Matrix::zeros(2, 3);
            m.set(1, 2, f64::INFINITY);
            match check_matrix("phase1.factor", Some(1), &m) {
                Err(GuardError::NonFinite {
                    site,
                    mode,
                    index,
                    kind,
                }) => {
                    assert_eq!(site, "phase1.factor");
                    assert_eq!(mode, Some(1));
                    assert_eq!(index, vec![1, 2]);
                    assert_eq!(kind, NonFiniteKind::PosInf);
                }
                other => panic!("expected NonFinite, got {other:?}"),
            }
            let cells = vec![(vec![0, 1], 1.0), (vec![2, 3], f64::NAN)];
            match check_cells("phase1.x1", cells) {
                Err(GuardError::NonFinite { index, kind, .. }) => {
                    assert_eq!(index, vec![2, 3]);
                    assert_eq!(kind, NonFiniteKind::NaN);
                }
                other => panic!("expected NonFinite, got {other:?}"),
            }
        });
    }

    #[test]
    fn dense_sentinel_reports_multi_index() {
        with_guard(GuardConfig::DEFAULT, || {
            let mut data = vec![0.0; 2 * 3 * 4];
            let lin = 12 + 2 * 4 + 3; // linearized index [1, 2, 3]
            data[lin] = f64::NEG_INFINITY;
            match check_dense("phase3.core", &[2, 3, 4], &data) {
                Err(GuardError::NonFinite { index, kind, .. }) => {
                    assert_eq!(index, vec![1, 2, 3]);
                    assert_eq!(kind, NonFiniteKind::NegInf);
                }
                other => panic!("expected NonFinite, got {other:?}"),
            }
        });
    }

    #[test]
    fn effective_rank_and_condition() {
        assert_eq!(effective_rank(&[4.0, 2.0, 0.0], 1e-12), 2);
        assert_eq!(effective_rank(&[0.0, 0.0], 1e-12), 0);
        assert_eq!(effective_rank(&[], 1e-12), 0);
        assert_eq!(condition_number(&[8.0, 2.0], 2), 4.0);
        assert!(condition_number(&[8.0, 0.0], 2).is_infinite());
        assert!(condition_number(&[8.0], 2).is_infinite());
    }

    #[test]
    fn fail_policy_rejects_deficient_rank() {
        let cfg = GuardConfig::with_policy(GuardPolicy::Fail);
        with_guard(cfg, || {
            let gram = diag_gram(&[4.0, 0.0, 0.0]);
            match gram_factor("phase1.factor", Some(0), &gram, 2) {
                Err(GuardError::RankDeficient {
                    requested,
                    effective,
                    mode,
                    ..
                }) => {
                    assert_eq!((requested, effective, mode), (2, 1, Some(0)));
                }
                other => panic!("expected RankDeficient, got {other:?}"),
            }
        });
    }

    #[test]
    fn clamp_policy_truncates_to_effective_rank() {
        let cfg = GuardConfig::with_policy(GuardPolicy::ClampRank);
        with_guard(cfg, || {
            let gram = diag_gram(&[4.0, 3.0, 0.0]);
            let u = gram_factor("t", None, &gram, 3).unwrap();
            assert_eq!(u.cols(), 2, "rank should clamp from 3 to 2");
            assert_eq!(u.rows(), 3);
        });
    }

    #[test]
    fn regularize_policy_accepts_full_rank_and_exposes_ridge() {
        let cfg = GuardConfig::with_policy(GuardPolicy::Regularize(1e-6));
        with_guard(cfg, || {
            let gram = diag_gram(&[4.0, 0.0]);
            let u = gram_factor("t", None, &gram, 2).unwrap();
            assert_eq!(u.cols(), 2);
            assert_eq!(ridge_lambda(), Some(1e-6));
        });
    }

    #[test]
    fn condition_ceiling_is_enforced() {
        let cfg = GuardConfig::with_policy(GuardPolicy::Fail).with_cond_threshold(1e6);
        with_guard(cfg, || {
            let gram = diag_gram(&[1.0, 1e-9, 1e-10]);
            match gram_factor("t", None, &gram, 2) {
                Err(GuardError::IllConditioned {
                    cond, threshold, ..
                }) => {
                    assert!(cond > threshold);
                }
                other => panic!("expected IllConditioned, got {other:?}"),
            }
        });
        let clamp = GuardConfig::with_policy(GuardPolicy::ClampRank).with_cond_threshold(1e6);
        with_guard(clamp, || {
            let gram = diag_gram(&[1.0, 1e-9, 1e-10]);
            let u = gram_factor("t", None, &gram, 3).unwrap();
            assert_eq!(u.cols(), 1, "only the leading direction is acceptable");
        });
    }

    #[test]
    fn healthy_spectrum_passes_every_policy_identically() {
        let gram = diag_gram(&[4.0, 2.0, 1.0]);
        let plain = {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            uninstall();
            gram_factor("t", None, &gram, 2).unwrap()
        };
        for policy in [
            GuardPolicy::Fail,
            GuardPolicy::ClampRank,
            GuardPolicy::Regularize(1e-8),
        ] {
            let u = with_guard(GuardConfig::with_policy(policy), || {
                gram_factor("t", None, &gram, 2).unwrap()
            });
            assert_eq!(
                u.as_slice(),
                plain.as_slice(),
                "{policy:?} altered a healthy factor"
            );
        }
    }

    #[test]
    fn budget_verdict_classifies_health() {
        let cfg = GuardConfig::DEFAULT.with_error_budget(0.25);
        with_guard(cfg, || {
            let ok = budget_verdict(0.1).unwrap();
            assert!(ok.healthy);
            assert_eq!(ok.budget, 0.25);
            let bad = budget_verdict(0.5).unwrap();
            assert!(!bad.healthy);
            let nan = budget_verdict(f64::NAN).unwrap();
            assert!(!nan.healthy, "non-finite error can never be healthy");
        });
        with_guard(GuardConfig::DEFAULT, || {
            assert!(budget_verdict(0.1).is_none(), "no budget, no verdict");
        });
    }

    #[test]
    fn detections_bump_guard_counters() {
        let cfg = GuardConfig::with_policy(GuardPolicy::ClampRank).with_error_budget(1e-9);
        with_guard(cfg, || {
            m2td_obs::install();
            m2td_obs::reset();
            let gram = diag_gram(&[4.0, 0.0]);
            let _ = gram_factor("t", None, &gram, 2).unwrap();
            let _ = budget_verdict(1.0).unwrap();
            let mut m = Matrix::zeros(1, 1);
            m.set(0, 0, f64::NAN);
            let _ = check_matrix("t", None, &m);
            let snap = m2td_obs::snapshot();
            assert_eq!(snap.counter("guard.rank_deficient"), Some(1));
            assert_eq!(snap.counter("guard.rank_clamped"), Some(1));
            assert_eq!(snap.counter("guard.budget_exceeded"), Some(1));
            assert_eq!(snap.counter("guard.nonfinite"), Some(1));
            m2td_obs::reset();
            m2td_obs::uninstall();
        });
    }

    #[test]
    fn with_error_budget_gates_on_installed_then_default_budget() {
        // Uninstalled: the default budget applies.
        {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            uninstall();
            let (v, err, gate) = with_error_budget(0.5, || Ok((7, 0.4))).unwrap();
            assert_eq!((v, err), (7, 0.4));
            assert!(gate.accepted());
            let (_, _, gate) = with_error_budget(0.5, || Ok(((), 0.6))).unwrap();
            assert_eq!(gate, BudgetGate::Rejected);
            let (_, _, gate) = with_error_budget(0.5, || Ok(((), f64::NAN))).unwrap();
            assert!(!gate.accepted(), "non-finite error can never be accepted");
        }
        // Installed with a budget: the installed budget wins.
        let cfg = GuardConfig::DEFAULT.with_error_budget(0.1);
        with_guard(cfg, || {
            let (_, _, gate) = with_error_budget(0.5, || Ok(((), 0.3))).unwrap();
            assert_eq!(gate, BudgetGate::Rejected, "installed budget must win");
        });
        // Installed without a budget: falls back to the default.
        with_guard(GuardConfig::DEFAULT, || {
            let (_, _, gate) = with_error_budget(0.5, || Ok(((), 0.3))).unwrap();
            assert!(gate.accepted());
        });
    }

    #[test]
    fn policy_parsing() {
        assert_eq!("fail".parse::<GuardPolicy>(), Ok(GuardPolicy::Fail));
        assert_eq!(
            "clamp-rank".parse::<GuardPolicy>(),
            Ok(GuardPolicy::ClampRank)
        );
        assert_eq!(
            "regularize".parse::<GuardPolicy>(),
            Ok(GuardPolicy::Regularize(1e-8))
        );
        assert_eq!(
            "regularize:0.001".parse::<GuardPolicy>(),
            Ok(GuardPolicy::Regularize(0.001))
        );
        assert!("regularize:-1".parse::<GuardPolicy>().is_err());
        assert!("bogus".parse::<GuardPolicy>().is_err());
    }

    #[test]
    fn errors_display_their_site() {
        let e = GuardError::NonFinite {
            site: "phase2.join",
            mode: None,
            index: vec![1, 2, 3],
            kind: NonFiniteKind::NaN,
        };
        let s = e.to_string();
        assert!(s.contains("phase2.join") && s.contains("NaN") && s.contains("[1, 2, 3]"));
        let e = GuardError::RankDeficient {
            site: "phase1.factor",
            mode: Some(2),
            requested: 4,
            effective: 1,
        };
        let s = e.to_string();
        assert!(s.contains("phase1.factor") && s.contains("mode 2"));
    }
}
