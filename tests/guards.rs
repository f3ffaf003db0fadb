//! The guard-layer contract, end to end:
//!
//! 1. A poisoned input cell is caught at the phase-1 boundary with the
//!    offending site and index — never propagated into a garbage core.
//! 2. The `ClampRank` policy turns a rank-deficient ensemble into a
//!    narrower decomposition that still passes the acceptance budget.
//! 3. Every corruption kind (bit-flip, truncation, stale version) of the
//!    job manifest loses only resumable work: damage before the last
//!    record quarantines the log, a torn tail is dropped, and the rerun
//!    recomputes what was lost, bitwise identical to an uncorrupted run.
//! 4. When the guard is *not* installed, nothing changes: results are
//!    bitwise identical and no `guard.*` counter is ever emitted (the
//!    uninstalled path is a single relaxed atomic load).
//!
//! The guard and telemetry registries are process-global, so every test
//! that installs either serializes on [`lock`] and uninstalls on drop.

use m2td::core::{m2td_decompose, CoreError, M2tdOptions};
use m2td::dist::{
    d_m2td, DistDecomposition, DistJob, DlqStore, JobRecovery, ManifestStore, MapReduce,
};
use m2td::fault::CorruptionKind;
use m2td::guard::integrity::SealedFiles;
use m2td::guard::{GuardConfig, GuardError, GuardPolicy, NonFiniteKind};
use m2td::tensor::{Shape, SparseTensor};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests that touch the global guard/telemetry registries.
/// Poisoning is ignored: a failed test must not cascade into the rest.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Uninstalls the guard and telemetry registries on drop, so a panicking
/// test cannot leak an installed guard into its successors.
struct Installed;

impl Installed {
    fn guard(cfg: GuardConfig) -> Self {
        m2td::guard::install(cfg);
        Installed
    }

    fn guard_and_obs(cfg: GuardConfig) -> Self {
        m2td::obs::install();
        m2td::obs::reset();
        m2td::guard::install(cfg);
        Installed
    }
}

impl Drop for Installed {
    fn drop(&mut self) {
        m2td::guard::uninstall();
        m2td::obs::uninstall();
    }
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

/// Two dense sub-tensors sharing one pivot mode. The generic oscillatory
/// fill makes the unfoldings genuinely full-rank, so a guarded rank-3
/// request sees a healthy spectrum (a *separable* fill would be caught as
/// rank-deficient by the very layer under test).
fn sub_tensors() -> (SparseTensor, SparseTensor) {
    let x1 = full(&[7, 6], |i| {
        ((i[0] * i[1]) as f64 * 0.37 + 0.2).sin() + 0.05 * (i[0] as f64)
    });
    let x2 = full(&[7, 6], |i| {
        ((i[0] * i[1]) as f64 * 0.23 + 0.7).cos() + 0.03 * (i[1] as f64)
    });
    (x1, x2)
}

/// Rank-one sub-tensors whose *join* is also multilinear-rank one: both
/// depend only on the shared pivot coordinate, so the averaged join tensor
/// `J[p,a,b] = (x₁[p,a] + x₂[p,b])/2` collapses to a function of `p`.
/// Every requested rank above 1 is then unattainable in every mode, and a
/// clamped rank-(1,1,1) decomposition reconstructs the join exactly.
fn rank_one_sub_tensors() -> (SparseTensor, SparseTensor) {
    let p_profile = |p: usize| ((p as f64) * 0.5).cos() + 1.5;
    let x1 = full(&[6, 5], |i| p_profile(i[0]));
    let x2 = full(&[6, 5], |i| p_profile(i[0]));
    (x1, x2)
}

#[test]
fn nan_cell_is_caught_at_the_phase1_boundary_with_its_index() {
    let _l = lock();
    let _g = Installed::guard(GuardConfig::DEFAULT);
    let (x1, x2) = sub_tensors();
    let mut entries: Vec<(Vec<usize>, f64)> = x1.iter().collect();
    let poisoned_index = entries[11].0.clone();
    entries[11].1 = f64::NAN;
    let x1 = SparseTensor::from_entries(x1.dims(), &entries).unwrap();

    let err = m2td_decompose(&x1, &x2, 1, &[3, 3, 3], M2tdOptions::default()).unwrap_err();
    match err {
        CoreError::Guard(GuardError::NonFinite {
            site, index, kind, ..
        }) => {
            assert_eq!(site, "phase1.x1", "wrong detection site");
            assert_eq!(index, poisoned_index, "wrong offending cell");
            assert_eq!(kind, NonFiniteKind::NaN);
        }
        other => panic!("expected a NonFinite guard error, got {other}"),
    }

    // The clean tensor on the other side is reported under its own site.
    let (clean1, x2) = sub_tensors();
    let mut entries: Vec<(Vec<usize>, f64)> = x2.iter().collect();
    entries[0].1 = f64::INFINITY;
    let x2 = SparseTensor::from_entries(x2.dims(), &entries).unwrap();
    let err = m2td_decompose(&clean1, &x2, 1, &[3, 3, 3], M2tdOptions::default()).unwrap_err();
    match err {
        CoreError::Guard(GuardError::NonFinite { site, kind, .. }) => {
            assert_eq!(site, "phase1.x2");
            assert_eq!(kind, NonFiniteKind::PosInf);
        }
        other => panic!("expected a NonFinite guard error, got {other}"),
    }
}

#[test]
fn nan_chaos_stream_in_the_pipeline_is_caught_not_propagated() {
    use m2td::core::{SimFaultPolicy, Workbench, WorkbenchConfig};
    use m2td::sim::systems::Sir;
    let _l = lock();
    let _g = Installed::guard(GuardConfig::DEFAULT);
    static SYS: Sir = Sir;
    let cfg = WorkbenchConfig {
        resolution: 4,
        time_steps: 4,
        t_end: 40.0,
        substeps: 8,
        rank: 2,
        seed: 3,
        noise_sigma: 0.0,
    };
    let w = Workbench::new(&SYS, cfg).unwrap();
    // A corruption rate this high poisons some cell with near certainty.
    let policy = SimFaultPolicy::new(19, 0.0).with_nan_cell_rate(0.3);
    let err = w
        .run_m2td_degraded(4, M2tdOptions::default(), 1.0, 1.0, 1.0, &policy)
        .unwrap_err();
    match err {
        CoreError::Guard(GuardError::NonFinite { site, kind, .. }) => {
            assert!(site.starts_with("phase1."), "late detection at {site}");
            assert_eq!(kind, NonFiniteKind::NaN);
        }
        other => panic!("expected a NonFinite guard error, got {other}"),
    }
}

#[test]
fn clamp_rank_repairs_a_rank_deficient_ensemble_within_budget() {
    let _l = lock();
    let _g = Installed::guard_and_obs(
        GuardConfig::with_policy(GuardPolicy::ClampRank).with_error_budget(1e-6),
    );
    let (x1, x2) = rank_one_sub_tensors();

    // Requested rank 3 everywhere; the data only supports rank 1.
    let d = m2td_decompose(&x1, &x2, 1, &[3, 3, 3], M2tdOptions::default()).unwrap();
    assert_eq!(
        d.tucker.core.dims(),
        &[1, 1, 1],
        "deficient modes were not clamped"
    );
    let verdict = d.guard.expect("budget configured, verdict expected");
    assert!(
        verdict.healthy,
        "rank-1 data at clamped rank 1 must reconstruct within budget, got {}",
        verdict.relative_error
    );
    let snap = m2td::obs::snapshot();
    assert!(
        snap.counter("guard.rank_clamped").unwrap_or(0) >= 3,
        "every deficient mode should bump guard.rank_clamped: {:?}",
        snap.counters_with_prefix("guard.")
    );

    // The same ensemble under Fail must refuse instead of repairing.
    m2td::guard::install(GuardConfig::DEFAULT);
    let err = m2td_decompose(&x1, &x2, 1, &[3, 3, 3], M2tdOptions::default()).unwrap_err();
    match err {
        CoreError::Guard(GuardError::RankDeficient {
            requested,
            effective,
            ..
        }) => {
            assert_eq!(requested, 3);
            assert_eq!(effective, 1);
        }
        other => panic!("expected RankDeficient, got {other}"),
    }
}

fn assert_bitwise_equal(a: &DistDecomposition, b: &DistDecomposition, label: &str) {
    assert_eq!(
        a.tucker.core.as_slice(),
        b.tucker.core.as_slice(),
        "core not bitwise identical: {label}"
    );
    for (i, (fa, fb)) in a
        .tucker
        .factors
        .iter()
        .zip(b.tucker.factors.iter())
        .enumerate()
    {
        assert_eq!(
            fa.as_slice(),
            fb.as_slice(),
            "factor {i} not bitwise identical: {label}"
        );
    }
}

fn unique_tmp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
}

#[test]
fn every_corruption_kind_quarantines_and_recomputes_bitwise_identically() {
    let _l = lock();
    m2td::obs::install();
    let _cleanup = Installed; // uninstalls obs on drop
    let (x1, x2) = sub_tensors();
    let opts = M2tdOptions::default();
    let engine = MapReduce::new(2);
    let reference = d_m2td(&x1, &x2, 1, &[3, 3, 3], opts, &engine).unwrap();

    for kind in [
        CorruptionKind::BitFlip,
        CorruptionKind::Truncate,
        CorruptionKind::StaleVersion,
    ] {
        let dir = unique_tmp_dir("m2td_guard_corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = ManifestStore::open(&dir).unwrap();
        let dlq = DlqStore::open(&dir);
        let job = DistJob {
            opts,
            recovery: Some(JobRecovery::new(&manifest, &dlq)),
            ..DistJob::new(&x1, &x2, 1, &[3, 3, 3])
        };

        // A clean run records every task; a rerun over the undamaged log
        // replays all of them.
        let first = job.run(&engine).unwrap();
        assert_bitwise_equal(&reference, &first, &format!("{kind}: clean run"));
        let undamaged = job.run(&engine).unwrap().resumed_tasks;

        // Damage the log on disk, then resume from whatever survives.
        let files = SealedFiles::new(&dir, "manifest.log", &["manifest"]);
        assert!(files.corrupt(ManifestStore::FILE_NAME, kind).unwrap());
        m2td::obs::reset();
        let recovered = job.run(&engine).unwrap();
        assert_bitwise_equal(&reference, &recovered, &format!("{kind}: resumed run"));
        assert!(
            recovered.resumed_tasks < undamaged,
            "{kind}: resumed {} of {undamaged} tasks from a damaged log",
            recovered.resumed_tasks
        );
        let quarantined = m2td::obs::snapshot().counter("manifest.log_quarantined");
        if kind == CorruptionKind::Truncate {
            // A torn tail is dropped; the records before it still resume.
            assert_eq!(quarantined, None, "{kind}: a torn tail is not damage");
            assert!(recovered.resumed_tasks > 0, "{kind}: the prefix was lost");
        } else {
            // A stale version, or a flipped byte with records after it,
            // moves the log aside.
            assert_eq!(
                quarantined,
                Some(1),
                "{kind}: the log should be quarantined"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn uninstalled_guard_changes_nothing_and_emits_no_counters() {
    let _l = lock();
    // Reference result with the guard fully installed (healthy data, so
    // no policy ever fires).
    let (x1, x2) = sub_tensors();
    let guarded = {
        let _g = Installed::guard(GuardConfig::with_policy(GuardPolicy::Fail));
        m2td_decompose(&x1, &x2, 1, &[3, 3, 3], M2tdOptions::default()).unwrap()
    };
    assert!(!m2td::guard::installed());

    // Uninstalled run under telemetry: bitwise-identical result, zero
    // guard activity. This pins the uninstalled fast path — every guard
    // entry point bails on one relaxed atomic load before touching the
    // registry, so no `guard.*` counter can exist.
    m2td::obs::install();
    m2td::obs::reset();
    let _cleanup = Installed;
    let plain = m2td_decompose(&x1, &x2, 1, &[3, 3, 3], M2tdOptions::default()).unwrap();
    assert_eq!(
        guarded.tucker.core.as_slice(),
        plain.tucker.core.as_slice(),
        "a healthy guarded run must be bitwise identical to an unguarded one"
    );
    assert!(plain.guard.is_none(), "no budget installed, no verdict");
    let snap = m2td::obs::snapshot();
    assert!(
        snap.counters_with_prefix("guard.").is_empty(),
        "uninstalled guard emitted counters: {:?}",
        snap.counters_with_prefix("guard.")
    );
}

#[test]
fn acceptance_budget_separates_healthy_from_unhealthy() {
    let _l = lock();
    let (x1, x2) = sub_tensors();
    // Generous budget: healthy.
    {
        let _g = Installed::guard(GuardConfig::DEFAULT.with_error_budget(10.0));
        let d = m2td_decompose(&x1, &x2, 1, &[3, 3, 3], M2tdOptions::default()).unwrap();
        let v = d.guard.expect("verdict expected");
        assert!(v.healthy);
        assert!(v.relative_error.is_finite());
    }
    // Impossible budget: the decomposition still completes (the verdict is
    // a report, not a policy), but the run is marked unhealthy.
    {
        let _g = Installed::guard_and_obs(GuardConfig::DEFAULT.with_error_budget(1e-15));
        let d = m2td_decompose(&x1, &x2, 1, &[3, 3, 3], M2tdOptions::default()).unwrap();
        let v = d.guard.expect("verdict expected");
        assert!(!v.healthy);
        assert_eq!(
            m2td::obs::snapshot().counter("guard.budget_exceeded"),
            Some(1)
        );
    }
}
