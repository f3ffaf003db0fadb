//! Failure injection across crate boundaries: every degenerate input must
//! produce a clean error (never a panic) with a useful message — and under
//! the deterministic fault injector, every fault schedule that eventually
//! succeeds must reproduce the fault-free result exactly.

use m2td::core::{
    m2td_decompose, CoreError, M2tdOptions, SimFaultPolicy, Workbench, WorkbenchConfig,
};
use m2td::dist::{
    d_m2td, DistError, DistJob, FaultConfig, MapReduce, PHASE1_JOB, PHASE2_JOB, PHASE3_JOB,
};
use m2td::fault::{FaultPlan, RetryPolicy};
use m2td::sampling::{PfPartition, RandomSampling, SamplingScheme};
use m2td::sim::systems::Sir;
use m2td::stitch::{stitch, StitchKind};
use m2td::tensor::{hosvd_sparse, DenseTensor, Shape, SparseTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_workbench() -> Workbench<'static> {
    static SYS: Sir = Sir;
    let cfg = WorkbenchConfig {
        resolution: 3,
        time_steps: 3,
        t_end: 10.0,
        substeps: 4,
        rank: 2,
        seed: 0,
        noise_sigma: 0.0,
    };
    Workbench::new(&SYS, cfg).unwrap()
}

#[test]
fn all_zero_ensemble_is_rejected_not_panicking() {
    let empty = SparseTensor::empty(&[4, 4, 4]);
    let err = hosvd_sparse(&empty, &[2, 2, 2]).unwrap_err();
    assert!(err.to_string().contains("no elements") || !err.to_string().is_empty());
}

#[test]
fn rank_one_degenerate_tensor_decomposes() {
    // A single stored cell is representable exactly at rank 1.
    let single = SparseTensor::from_entries(&[4, 4, 4], &[(vec![1, 2, 3], 7.5)]).unwrap();
    let t = hosvd_sparse(&single, &[1, 1, 1]).unwrap();
    let err = t.relative_error(&single.to_dense().unwrap()).unwrap();
    assert!(
        err < 1e-10,
        "single-cell tensor not exactly recovered: {err}"
    );
}

#[test]
fn mismatched_partitions_error_cleanly() {
    let x1 = SparseTensor::from_entries(&[3, 3], &[(vec![0, 0], 1.0)]).unwrap();
    let x2 = SparseTensor::from_entries(&[4, 3], &[(vec![0, 0], 1.0)]).unwrap();
    // Pivot extents disagree.
    assert!(stitch(&x1, &x2, 1, StitchKind::Join).is_err());
    assert!(m2td_decompose(&x1, &x2, 1, &[2, 2, 2], M2tdOptions::default()).is_err());
    assert!(d_m2td(
        &x1,
        &x2,
        1,
        &[2, 2, 2],
        M2tdOptions::default(),
        &MapReduce::new(1)
    )
    .is_err());
}

#[test]
fn workbench_rejects_invalid_pivots_and_fractions() {
    let w = tiny_workbench();
    // Out-of-range pivot.
    assert!(w.run_m2td(9, M2tdOptions::default(), 1.0, 1.0).is_err());
    // Invalid density fractions.
    assert!(w.run_m2td(4, M2tdOptions::default(), 0.0, 1.0).is_err());
    assert!(w.run_m2td(4, M2tdOptions::default(), 1.0, 1.5).is_err());
    // Invalid cell fraction.
    assert!(w
        .run_m2td_cells(4, M2tdOptions::default(), 1.0, 1.0, 0.0)
        .is_err());
    assert!(w
        .run_m2td_cells(4, M2tdOptions::default(), 1.0, 1.0, 2.0)
        .is_err());
}

#[test]
fn conventional_budget_overflow_is_an_error() {
    let w = tiny_workbench();
    let total: usize = w.full_dims().iter().product();
    assert!(w.run_conventional(&RandomSampling, total + 1).is_err());
}

#[test]
fn partition_structural_errors_have_messages() {
    let err = PfPartition::balanced(4, 0).unwrap_err();
    assert!(err.to_string().contains("halves"), "got: {err}");
    let err = PfPartition::new(vec![0], vec![0], vec![1], 3).unwrap_err();
    assert!(err.to_string().contains("twice"), "got: {err}");
}

#[test]
fn sampling_on_degenerate_spaces() {
    let mut rng = StdRng::seed_from_u64(1);
    // Zero-extent mode.
    assert!(RandomSampling.plan(&[0, 5], 1, &mut rng).is_err());
    // Budget zero is a valid empty plan for random sampling.
    let plan = RandomSampling.plan(&[3, 3], 0, &mut rng).unwrap();
    assert!(plan.is_empty());
}

#[test]
fn error_messages_chain_to_their_sources() {
    use std::error::Error;
    let x1 = SparseTensor::from_entries(&[3, 3], &[(vec![0, 0], 1.0)]).unwrap();
    let x2 = SparseTensor::from_entries(&[4, 3], &[(vec![0, 0], 1.0)]).unwrap();
    let err = m2td_decompose(&x1, &x2, 1, &[2, 2, 2], M2tdOptions::default()).unwrap_err();
    // The top-level error formats, and either is terminal or chains.
    let mut depth = 0;
    let mut cur: Option<&dyn Error> = Some(&err);
    while let Some(e) = cur {
        assert!(!e.to_string().is_empty());
        cur = e.source();
        depth += 1;
        assert!(depth < 10, "error chain too deep / cyclic");
    }
}

#[test]
fn nan_inputs_do_not_crash_decomposition() {
    // A NaN simulation value (diverged trajectory) must not panic the
    // kernels; it may poison accuracy, which the caller can detect.
    let x =
        SparseTensor::from_entries(&[3, 3], &[(vec![0, 0], f64::NAN), (vec![1, 1], 1.0)]).unwrap();
    match hosvd_sparse(&x, &[1, 1]) {
        Ok(t) => {
            let recon = t.reconstruct().unwrap();
            // NaN propagates; caller sees it in the output.
            assert!(recon.as_slice().iter().any(|v| v.is_nan()) || recon.max_abs().is_finite());
        }
        Err(_) => {
            // A convergence error is also acceptable.
        }
    }
}

#[test]
fn zero_value_simulations_are_preserved_through_the_pipeline() {
    // The stored-zero vs null distinction must survive stitching.
    let x1 = SparseTensor::from_entries(&[2, 2], &[(vec![0, 0], 0.0)]).unwrap();
    let x2 = SparseTensor::from_entries(&[2, 2], &[(vec![0, 1], 4.0)]).unwrap();
    let (j, _) = stitch(&x1, &x2, 1, StitchKind::Join).unwrap();
    // The pair (pivot 0, a=0, b=1) exists with average (0 + 4)/2.
    assert_eq!(j.get(&[0, 0, 1]), Some(2.0));
    assert_eq!(j.nnz(), 1);
}

#[test]
fn dense_tensor_shape_mismatches_error() {
    let a = DenseTensor::zeros(&[2, 3]);
    let b = DenseTensor::zeros(&[3, 2]);
    assert!(a.sub(&b).is_err());
    assert!(a.add(&b).is_err());
    assert!(a.permute_modes(&[0, 0]).is_err());
}

// ---- Deterministic fault injection ------------------------------------

/// Two dense analytic sub-tensors sharing a pivot mode.
fn fault_sub_tensors() -> (SparseTensor, SparseTensor) {
    let f = |p: usize, a: usize, b: usize| {
        ((p as f64) * 0.7).sin() * ((a as f64) * 0.3 + 1.0) * ((b as f64) * 0.5 + 1.0) + 0.1
    };
    let full = |g: &dyn Fn(&[usize]) -> f64| {
        let dims = [6, 5];
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
    let x1 = full(&|i: &[usize]| f(i[0], i[1], 2));
    let x2 = full(&|i: &[usize]| f(i[0], 2, i[1]));
    (x1, x2)
}

#[test]
fn task_killed_in_each_phase_still_converges() {
    let (x1, x2) = fault_sub_tensors();
    let ranks = [3, 3, 3];
    let opts = M2tdOptions::default();
    let engine = MapReduce::new(3);
    let clean = d_m2td(&x1, &x2, 1, &ranks, opts, &engine).unwrap();
    for job in [PHASE1_JOB, PHASE2_JOB, PHASE3_JOB] {
        // Kill aggressively, but only inside one phase at a time; the
        // default kill cap bounds consecutive kills so retries succeed.
        let faults = FaultConfig {
            plan: FaultPlan::new(33, 0.9, 0.0, 0.0).in_job(job),
            policy: RetryPolicy::default(),
        };
        let faulty = DistJob {
            opts,
            faults,
            ..DistJob::new(&x1, &x2, 1, &ranks)
        }
        .run(&engine)
        .unwrap_or_else(|e| panic!("phase-{job} faults should be survivable: {e}"));
        assert_eq!(
            clean.tucker.core.as_slice(),
            faulty.tucker.core.as_slice(),
            "core differs after kills in phase {job}"
        );
        let total = faulty.total_tasks();
        assert!(total.kills() > 0, "no kill landed in phase {job}");
        // The fault plan is scoped: only the targeted phase saw kills.
        for (phase_job, stats) in [
            (PHASE1_JOB, &faulty.phase1),
            (PHASE2_JOB, &faulty.phase2),
            (PHASE3_JOB, &faulty.phase3),
        ] {
            if phase_job != job {
                assert_eq!(
                    stats.tasks.kills(),
                    0,
                    "phase {phase_job} saw kills scoped to phase {job}"
                );
            }
        }
    }
}

#[test]
fn straggler_is_rescued_by_speculation() {
    let (x1, x2) = fault_sub_tensors();
    let ranks = [3, 3, 3];
    let opts = M2tdOptions::default();
    let engine = MapReduce::new(2);
    let clean = d_m2td(&x1, &x2, 1, &ranks, opts, &engine).unwrap();
    // Every task straggles far past the speculation threshold.
    let policy = RetryPolicy::default();
    let faults = FaultConfig {
        plan: FaultPlan::new(8, 0.0, 1.0, 60.0),
        policy,
    };
    let faulty = DistJob {
        opts,
        faults,
        ..DistJob::new(&x1, &x2, 1, &ranks)
    }
    .run(&engine)
    .unwrap();
    let total = faulty.total_tasks();
    assert!(total.stragglers > 0, "no straggler injected");
    assert!(
        total.speculative_launches > 0,
        "stragglers past the threshold must launch backups"
    );
    // The charge per straggler is capped at the speculation threshold,
    // not the full 60-second delay.
    assert!(
        total.virtual_lost_secs <= total.stragglers as f64 * policy.speculate_after_secs + 1e-9,
        "speculation failed to cap straggler cost: {} secs over {} stragglers",
        total.virtual_lost_secs,
        total.stragglers
    );
    assert_eq!(clean.tucker.core.as_slice(), faulty.tucker.core.as_slice());
}

#[test]
fn exhausted_retry_budget_is_a_clean_dist_error() {
    let (x1, x2) = fault_sub_tensors();
    // Uncapped certain kills: no attempt can ever succeed.
    let faults = FaultConfig {
        plan: FaultPlan::new(4, 1.0, 0.0, 0.0).with_kill_cap(u32::MAX),
        policy: RetryPolicy::with_max_attempts(2),
    };
    let err = DistJob {
        faults,
        ..DistJob::new(&x1, &x2, 1, &[3, 3, 3])
    }
    .run(&MapReduce::new(2))
    .unwrap_err();
    match &err {
        DistError::Exhausted(m2td::fault::FaultError::RetryExhausted { attempts, .. }) => {
            assert_eq!(*attempts, 2, "budget was 2 attempts");
        }
        other => panic!("expected DistError::Exhausted, got {other}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("retry budget exhausted"),
        "unhelpful message: {msg}"
    );
}

#[test]
fn coverage_threshold_violation_is_a_clean_core_error() {
    static SYS: Sir = Sir;
    let cfg = WorkbenchConfig {
        resolution: 3,
        time_steps: 3,
        t_end: 10.0,
        substeps: 4,
        rank: 2,
        seed: 0,
        noise_sigma: 0.0,
    };
    let w = Workbench::new(&SYS, cfg).unwrap();
    let policy = SimFaultPolicy::new(2, 0.95)
        .with_max_attempts(1)
        .with_min_coverage(0.8);
    let err = w
        .run_m2td_degraded(4, M2tdOptions::default(), 1.0, 1.0, 1.0, &policy)
        .unwrap_err();
    match &err {
        CoreError::InsufficientCoverage { coverage, required } => {
            assert!(coverage < required);
        }
        other => panic!("expected InsufficientCoverage, got {other}"),
    }
    assert!(err.to_string().contains("coverage"), "{err}");
}
