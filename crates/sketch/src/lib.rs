//! # m2td-sketch — configuration and random sources for sketched routes
//!
//! Exact per-mode factorization computes the full mode-`n` Gram even
//! when the target rank is tiny. The randomized alternatives the paper's
//! ensemble shapes reward (sketched Grams, MACH entry sampling à la
//! Tsourakakis 2010, sketched HOSVD/HOOI) live in `m2td_tensor::sketch`.
//! This crate holds what they share with the CLI:
//!
//! * [`SketchPolicy`] and [`SketchConfig`] — how a sketched route
//!   randomizes, its width and its seed;
//! * [`install`] / [`uninstall`] / [`installed`] / [`config`] — the
//!   global switch every dispatch site reads;
//! * [`DEFAULT_SKETCH_BUDGET`] — the error ceiling a sketched result must
//!   meet before it is accepted;
//! * [`counter_gaussian`] / [`counter_uniform`] / [`counter_hash`] — the
//!   deterministic random sources backing the sketches (see below).
//!
//! The crate has no dependencies; the dependency points tensor → sketch.
//!
//! ## Determinism contract
//!
//! Fixed [`SketchConfig::seed`] ⇒ bitwise-identical results at every
//! thread count, matching the `m2td-par` kernels. Every source here is
//! *counter-based* — a SplitMix64-style hash of `(seed, a, b)`, fed
//! through Box–Muller for the Gaussian — so its value is independent of
//! evaluation order, and streaming accumulations (sparse `X·Ω` products,
//! MACH keep/drop decisions) are partition-invariant.
//!
//! ## Install idiom
//!
//! Mirrors `m2td-guard`/`m2td-obs`: nothing sketches until [`install`]
//! flips the global flag, and while uninstalled every dispatch site costs
//! one relaxed atomic load and computes the exact route bitwise
//! unchanged.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How a sketched route randomizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SketchPolicy {
    /// Gaussian test vectors: `(XΩ)(XΩ)ᵀ/s` sketched Grams.
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
    /// Sketch width `s` (number of random test vectors), clamped per
    /// call site to the number of unfolding columns.
    pub size: usize,
    /// Seed for every random draw. Fixed seed ⇒ bitwise-identical
    /// results at every thread count.
    pub seed: u64,
    /// Randomization scheme.
    pub policy: SketchPolicy,
}

impl SketchConfig {
    /// Defaults: width 8, seed 0x5EED, Gaussian.
    pub const DEFAULT: SketchConfig = SketchConfig {
        size: 8,
        seed: 0x5EED,
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

    /// Sets the randomization policy.
    pub fn with_policy(mut self, policy: SketchPolicy) -> Self {
        self.policy = policy;
        self
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

#[cfg(test)]
mod tests {
    use super::*;

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
        // The only test in this crate that touches the global switch, so
        // it needs no lock.
        assert!(!installed());
        let cfg = SketchConfig::with_size(16)
            .with_seed(7)
            .with_policy(SketchPolicy::Mach { keep: 0.5 });
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
}
