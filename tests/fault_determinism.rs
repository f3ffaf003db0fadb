//! The fault-tolerance determinism contract: because every map/reduce
//! task is pure, any seeded fault schedule that eventually succeeds must
//! yield factors and core **bitwise identical** to the fault-free run, at
//! every worker count — and a run interrupted in phase 3 must resume
//! phases 1 and 2 from the job manifest without recomputing them.
//!
//! CI runs this file under `M2TD_THREADS=1` and `M2TD_THREADS=4` with two
//! values of `M2TD_FAULT_SEED`, so the same assertions are exercised
//! across the full thread × fault-schedule matrix.

use m2td::core::M2tdOptions;
use m2td::dist::{
    d_m2td, DistDecomposition, DistError, DistJob, DlqStore, FaultConfig, JobRecovery,
    ManifestStore, MapReduce, TransportKind, PHASE3_JOB,
};
use m2td::fault::{FaultPlan, RetryPolicy};
use m2td::tensor::{Shape, SparseTensor};

const K: usize = 1;
const RANKS: [usize; 3] = [3, 3, 3];

/// Two dense analytic sub-tensors sharing a pivot mode.
fn sub_tensors() -> (SparseTensor, SparseTensor) {
    let f = |p: usize, a: usize, b: usize| {
        ((p as f64) * 0.6).cos() * ((a as f64) * 0.25 + 1.0) * ((b as f64) * 0.45 + 1.0) - 0.3
    };
    let full = |g: &dyn Fn(&[usize]) -> f64| {
        let dims = [7, 6];
        let shape = Shape::new(&dims);
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .map(|l| {
                let idx = shape.multi_index(l);
                let v = g(&idx);
                (idx, v)
            })
            .collect();
        SparseTensor::from_entries(&dims, &entries).unwrap()
    };
    let x1 = full(&|i: &[usize]| f(i[0], i[1], 3));
    let x2 = full(&|i: &[usize]| f(i[0], 3, i[1]));
    (x1, x2)
}

fn assert_bitwise_equal(a: &DistDecomposition, b: &DistDecomposition, label: &str) {
    assert_eq!(
        a.tucker.core.as_slice(),
        b.tucker.core.as_slice(),
        "core not bitwise identical: {label}"
    );
    assert_eq!(a.tucker.factors.len(), b.tucker.factors.len());
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

/// Extra fault seeds injected by the CI fault matrix via `M2TD_FAULT_SEED`.
fn seeds_under_test() -> Vec<u64> {
    let mut seeds = vec![3, 17, 101];
    if let Ok(s) = std::env::var("M2TD_FAULT_SEED") {
        if let Ok(seed) = s.trim().parse::<u64>() {
            if !seeds.contains(&seed) {
                seeds.push(seed);
            }
        }
    }
    seeds
}

#[test]
fn fault_schedules_are_bitwise_deterministic_across_seeds_and_workers() {
    let (x1, x2) = sub_tensors();
    let opts = M2tdOptions::default();

    // ChunkPartition's dataflow partitions by `engine.workers()`, so the
    // reference is per worker count; the invariant under test is that a
    // fault schedule never shows through at any worker count.
    for workers in [1, 4] {
        let engine = MapReduce::new(workers);
        let reference = d_m2td(&x1, &x2, K, &RANKS, opts, &engine).unwrap();
        for seed in seeds_under_test() {
            let faults = FaultConfig {
                plan: FaultPlan::new(seed, 0.5, 0.3, 20.0),
                policy: RetryPolicy::default(),
            };
            let run = DistJob {
                opts,
                faults,
                ..DistJob::new(&x1, &x2, K, &RANKS)
            }
            .run(&engine)
            .unwrap_or_else(|e| panic!("seed {seed}, {workers} workers: {e}"));
            assert_bitwise_equal(&reference, &run, &format!("seed {seed}, {workers} workers"));
            assert!(
                run.total_tasks().kills() > 0,
                "seed {seed} injected no kills — the property is vacuous"
            );
            // The injected schedule (and hence every counter) is a pure
            // function of (seed, job, task, attempt): rerunning must
            // reproduce it exactly.
            let again = DistJob {
                opts,
                faults,
                ..DistJob::new(&x1, &x2, K, &RANKS)
            }
            .run(&engine)
            .unwrap();
            assert_eq!(
                run.total_tasks(),
                again.total_tasks(),
                "seed {seed}, {workers} workers: counters not reproducible"
            );
            assert_bitwise_equal(
                &run,
                &again,
                &format!("seed {seed} rerun, {workers} workers"),
            );
        }
    }
}

#[test]
fn channel_transport_is_bitwise_deterministic_under_faults() {
    let (x1, x2) = sub_tensors();
    let opts = M2tdOptions::default();

    // The envelope path must be invisible: at every worker count, a
    // channel-transport run under kills, stragglers AND wire corruption
    // is bitwise identical to the direct-call fault-free run.
    for workers in [1, 2, 8] {
        let direct = MapReduce::new(workers).with_transport(TransportKind::Direct);
        let reference = d_m2td(&x1, &x2, K, &RANKS, opts, &direct).unwrap();
        let channel = direct.with_transport(TransportKind::Channel);
        for seed in seeds_under_test() {
            // Kills are capped at 2 consecutive per task, but wire
            // corruption consumes attempts on top of them on every leg
            // of every retry — give the budget room so no seed exhausts.
            let faults = FaultConfig {
                plan: FaultPlan::new(seed, 0.4, 0.2, 20.0).with_xport_corrupt_rate(0.2),
                policy: RetryPolicy::with_max_attempts(10),
            };
            let run = DistJob {
                opts,
                faults,
                ..DistJob::new(&x1, &x2, K, &RANKS)
            }
            .run(&channel)
            .unwrap_or_else(|e| panic!("channel seed {seed}, {workers} workers: {e}"));
            assert_bitwise_equal(
                &reference,
                &run,
                &format!("channel transport, seed {seed}, {workers} workers"),
            );
            assert!(
                run.total_tasks().xport_corruptions > 0,
                "seed {seed}, {workers} workers: no envelopes were damaged — \
                 the corruption property is vacuous"
            );
        }
    }
}

/// A temp dir unique per process *and* per call: pid alone is not enough
/// because pids recycle and one process may run the test repeatedly.
fn unique_tmp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
}

#[test]
fn phase3_failure_resumes_from_checkpoints_without_recomputing() {
    let dir = unique_tmp_dir("m2td_ckpt_resume");
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = ManifestStore::open(&dir).unwrap();
    let dlq = DlqStore::open(&dir);
    let recovery = Some(JobRecovery::new(&manifest, &dlq));
    let (x1, x2) = sub_tensors();
    let opts = M2tdOptions::default();
    let engine = MapReduce::new(2);
    let clean = d_m2td(&x1, &x2, K, &RANKS, opts, &engine).unwrap();

    // First attempt: phase 3 is unconditionally killed with no retries, so
    // the run dies *after* the manifest recorded every task of phases 1
    // and 2. The kills reach phase 3's map tasks too, and a map task is
    // never parked, so the recovery layer cannot absorb them.
    let lethal = FaultConfig {
        plan: FaultPlan::new(12, 1.0, 0.0, 0.0)
            .in_job(PHASE3_JOB)
            .with_kill_cap(u32::MAX),
        policy: RetryPolicy::no_retries(),
    };
    let err = DistJob {
        opts,
        faults: lethal,
        recovery,
        ..DistJob::new(&x1, &x2, K, &RANKS)
    }
    .run(&engine)
    .unwrap_err();
    assert!(
        matches!(err, DistError::Exhausted(_)),
        "expected an exhausted retry budget, got {err}"
    );

    // Second attempt, fault-free: phases 1–2 must resume from the
    // manifest (zero task executions), phase 3 recomputes, and the
    // result is bitwise identical to the never-failed run.
    let resumed = DistJob {
        opts,
        recovery,
        ..DistJob::new(&x1, &x2, K, &RANKS)
    }
    .run(&engine)
    .unwrap();
    assert!(resumed.phase1.resumed, "phase 1 was recomputed");
    assert!(resumed.phase2.resumed, "phase 2 was recomputed");
    assert!(!resumed.phase3.resumed);
    assert_eq!(
        resumed.phase1.tasks.attempts(),
        0,
        "phase 1 executed tasks despite resuming"
    );
    assert_eq!(
        resumed.phase2.tasks.attempts(),
        0,
        "phase 2 executed tasks despite resuming"
    );
    assert!(resumed.phase3.tasks.attempts() > 0);
    assert_eq!(
        clean.tucker.core.as_slice(),
        resumed.tucker.core.as_slice(),
        "resumed result differs from fault-free run"
    );

    // A changed input invalidates the fingerprint: nothing resumes.
    let mut entries: Vec<(Vec<usize>, f64)> = x1.iter().collect();
    entries[0].1 += 1.0;
    let x1b = SparseTensor::from_entries(x1.dims(), &entries).unwrap();
    let fresh = DistJob {
        opts,
        recovery,
        ..DistJob::new(&x1b, &x2, K, &RANKS)
    }
    .run(&engine)
    .unwrap();
    assert!(!fresh.phase1.resumed && !fresh.phase2.resumed);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_phase3_resumes_from_manifest_and_drains_the_dlq() {
    let dir = unique_tmp_dir("m2td_job_resume");
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = ManifestStore::open(&dir).unwrap();
    let dlq = DlqStore::open(&dir);
    let (x1, x2) = sub_tensors();
    let opts = M2tdOptions::default();
    let engine = MapReduce::new(2).with_transport(TransportKind::Channel);
    let clean = d_m2td(&x1, &x2, K, &RANKS, opts, &engine).unwrap();

    // "Kill mid-phase-3": doom one of the two phase-3 reduce tasks and
    // demand full coverage, so the run dies after phases 1-2 completed,
    // the surviving phase-3 task was recorded in the manifest, and the
    // doomed one was parked in the dead-letter queue.
    let lethal = FaultConfig {
        plan: FaultPlan::none().with_doom_mask(1 << 1).in_job(PHASE3_JOB),
        policy: RetryPolicy::default(),
    };
    let strict = JobRecovery::new(&manifest, &dlq).with_min_coverage(1.0);
    let err = DistJob {
        opts,
        faults: lethal,
        recovery: Some(strict),
        ..DistJob::new(&x1, &x2, K, &RANKS)
    }
    .run(&engine)
    .unwrap_err();
    assert!(
        matches!(err, DistError::Worker(_)),
        "expected a coverage failure, got {err}"
    );
    assert_eq!(dlq.depth(), 1, "the doomed task must be parked");

    // Restart without requeueing: the dead task is still parked, so the
    // run completes degraded (coverage 1/2 meets the default 0.5 floor)
    // and differs from the clean result.
    let recovery = JobRecovery::new(&manifest, &dlq);
    let degraded = DistJob {
        opts,
        recovery: Some(recovery),
        ..DistJob::new(&x1, &x2, K, &RANKS)
    }
    .run(&engine)
    .unwrap();
    assert!(degraded.degraded);
    assert_eq!(degraded.dead_tasks, vec![1]);
    assert!(
        degraded.resumed_tasks > 0,
        "the surviving phase-3 task must replay from the manifest"
    );
    assert_ne!(
        degraded.tucker.core.as_slice(),
        clean.tucker.core.as_slice(),
        "a core missing one partial cannot equal the clean core"
    );

    // Requeue and restart: the parked task re-runs, its entry drains,
    // and the result is bitwise identical to the uninterrupted run.
    assert_eq!(dlq.requeue_all().unwrap(), 1);
    let resumed = DistJob {
        opts,
        recovery: Some(recovery),
        ..DistJob::new(&x1, &x2, K, &RANKS)
    }
    .run(&engine)
    .unwrap();
    assert!(!resumed.degraded);
    assert!(resumed.dead_tasks.is_empty());
    assert_eq!(resumed.drained, 1, "the requeued entry must drain");
    assert!(resumed.resumed_tasks > 0);
    assert_eq!(dlq.depth(), 0);
    assert_bitwise_equal(&clean, &resumed, "after requeue and resume");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_pipeline_is_deterministic_per_seed() {
    use m2td::core::{SimFaultPolicy, Workbench, WorkbenchConfig};
    use m2td::sim::systems::Sir;
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
    let policy = SimFaultPolicy::new(19, 0.3)
        .with_max_attempts(1)
        .with_min_coverage(0.2);
    let opts = M2tdOptions {
        stitch: m2td::stitch::StitchKind::ZeroJoin,
        ..M2tdOptions::default()
    };
    let a = w
        .run_m2td_degraded(4, opts, 1.0, 1.0, 1.0, &policy)
        .unwrap();
    let b = w
        .run_m2td_degraded(4, opts, 1.0, 1.0, 1.0, &policy)
        .unwrap();
    assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
    assert_eq!(a.degraded.unwrap(), b.degraded.unwrap());
    assert_eq!(a.cells, b.cells);
}
