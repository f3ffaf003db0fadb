//! Cross-crate integration tests: whole pipelines through the umbrella
//! crate's public API, asserting the paper's qualitative results at small
//! scale.

use m2td::core::{
    m2td_decompose, CoreProjection, M2tdOptions, PivotCombine, Workbench, WorkbenchConfig,
};
use m2td::dist::{d_m2td, ClusterModel, MapReduce};
use m2td::sampling::{GridSampling, RandomSampling, SamplingScheme, SliceSampling};
use m2td::sim::systems::{DoublePendulum, Lorenz, Sir, TriplePendulum};
use m2td::sim::EnsembleSystem;
use m2td::stitch::StitchKind;

fn workbench(system: &dyn EnsembleSystem, t_end: f64, rank: usize) -> Workbench<'_> {
    let cfg = WorkbenchConfig {
        resolution: 6,
        time_steps: 6,
        t_end,
        substeps: 10,
        rank,
        seed: 1234,
        noise_sigma: 0.0,
    };
    Workbench::new(system, cfg).expect("workbench builds")
}

#[test]
fn m2td_dominates_conventional_on_every_paper_system() {
    // The Table II / Table IV headline across all three systems.
    let dp = DoublePendulum::default();
    let tp = TriplePendulum::default();
    let lz = Lorenz::default();
    let systems: [(&dyn EnsembleSystem, f64); 3] = [(&dp, 2.0), (&tp, 2.0), (&lz, 1.0)];
    for (system, t_end) in systems {
        let w = workbench(system, t_end, 3);
        let m2td = w.run_m2td(4, M2tdOptions::default(), 1.0, 1.0).unwrap();
        let budget = w.m2td_budget(4, 1.0, 1.0).unwrap();
        for scheme in [
            &RandomSampling as &dyn SamplingScheme,
            &GridSampling,
            &SliceSampling,
        ] {
            let conv = w.run_conventional(scheme, budget).unwrap();
            assert!(
                m2td.accuracy > 3.0 * conv.accuracy.max(0.0),
                "{}: M2TD {} should dominate {} {}",
                system.name(),
                m2td.accuracy,
                conv.method,
                conv.accuracy
            );
        }
    }
}

#[test]
fn every_pivot_choice_beats_conventional() {
    // Table VIII: pivot choice matters, but every choice wins big.
    let system = DoublePendulum::default();
    let w = workbench(&system, 2.0, 3);
    let budget = w.m2td_budget(4, 1.0, 1.0).unwrap();
    let random = w.run_conventional(&RandomSampling, budget).unwrap();
    for pivot in 0..w.n_modes() {
        let r = w.run_m2td(pivot, M2tdOptions::default(), 1.0, 1.0).unwrap();
        assert!(
            r.accuracy > 3.0 * random.accuracy.max(0.0),
            "pivot {pivot}: {} vs random {}",
            r.accuracy,
            random.accuracy
        );
    }
}

#[test]
fn density_reductions_behave_like_tables_6_and_7() {
    let system = DoublePendulum::default();
    let w = workbench(&system, 2.0, 3);
    let opts = M2tdOptions::default();
    let full = w.run_m2td(4, opts, 1.0, 1.0).unwrap().accuracy;
    let p_half = w.run_m2td(4, opts, 0.5, 1.0).unwrap().accuracy;
    let e_half = w.run_m2td(4, opts, 1.0, 0.5).unwrap().accuracy;
    assert!(
        full >= p_half - 1e-9,
        "reducing P must not improve accuracy"
    );
    assert!(
        full >= e_half - 1e-9,
        "reducing E must not improve accuracy"
    );
    // The paper's VII-E.5 observation: E reductions hurt more than P
    // reductions (effective density ∝ P·E²).
    assert!(
        p_half >= e_half - 1e-9,
        "E reduction ({e_half}) should hurt at least as much as P reduction ({p_half})"
    );
}

#[test]
fn zero_join_rescues_thin_budgets() {
    // Table V: at reduced budgets zero-join beats plain join.
    let system = DoublePendulum::default();
    let w = workbench(&system, 2.0, 3);
    let join = w
        .run_m2td_cells(4, M2tdOptions::default(), 1.0, 1.0, 0.4)
        .unwrap();
    let zero = w
        .run_m2td_cells(
            4,
            M2tdOptions {
                stitch: StitchKind::ZeroJoin,
                ..M2tdOptions::default()
            },
            1.0,
            1.0,
            0.4,
        )
        .unwrap();
    assert!(
        zero.accuracy > join.accuracy,
        "zero-join {} must beat join {} at 40% budget",
        zero.accuracy,
        join.accuracy
    );
    // Zero-join produces at least as many join entries.
    let jn = join.stitch.as_ref().unwrap().join_nnz;
    let zn = zero.stitch.as_ref().unwrap().join_nnz;
    assert!(zn > jn);
}

#[test]
fn distributed_agrees_with_serial_through_public_api() {
    let system = Sir;
    let w = workbench(&system, 40.0, 2);
    let (x1, x2, partition) = w.subsystems(4, 1.0, 1.0, 1.0).unwrap();
    let ranks: Vec<usize> = partition
        .join_modes()
        .iter()
        .map(|&m| 2usize.min(w.full_dims()[m]))
        .collect();
    let serial = m2td_decompose(&x1, &x2, partition.k(), &ranks, M2tdOptions::default()).unwrap();
    let dist = d_m2td(
        &x1,
        &x2,
        partition.k(),
        &ranks,
        M2tdOptions::default(),
        &MapReduce::new(3),
    )
    .unwrap();
    let diff = dist
        .tucker
        .core
        .sub(&serial.tucker.core)
        .unwrap()
        .frobenius_norm();
    assert!(diff < 1e-9, "distributed core differs by {diff}");

    // Serial and distributed accuracy agree too.
    let a_serial = w.accuracy_join_order(&serial.tucker, &partition).unwrap();
    let a_dist = w.accuracy_join_order(&dist.tucker, &partition).unwrap();
    assert!((a_serial - a_dist).abs() < 1e-9);

    // Cluster projection: phase totals shrink with servers.
    let t = |srv: usize| {
        let m = ClusterModel::new(srv);
        dist.phase1.on_cluster(&m).total()
            + dist.phase2.on_cluster(&m).total()
            + dist.phase3.on_cluster(&m).total()
    };
    assert!(t(1) >= t(18));
}

#[test]
fn all_variants_and_projections_compose() {
    let system = Sir;
    let w = workbench(&system, 40.0, 2);
    for combine in PivotCombine::all() {
        for projection in [CoreProjection::Transpose, CoreProjection::LeastSquares] {
            for stitch in [StitchKind::Join, StitchKind::ZeroJoin] {
                let opts = M2tdOptions {
                    combine,
                    projection,
                    stitch,
                    ..M2tdOptions::default()
                };
                let r = w.run_m2td(4, opts, 1.0, 1.0).unwrap();
                assert!(
                    r.accuracy.is_finite() && r.accuracy > 0.0,
                    "{} {:?} {:?} produced accuracy {}",
                    combine.name(),
                    projection,
                    stitch,
                    r.accuracy
                );
            }
        }
    }
}

#[test]
fn least_squares_projection_never_hurts() {
    // The ablation claim: LS core recovery >= transpose core recovery for
    // the combined (non-orthonormal) factors.
    let system = DoublePendulum::default();
    let w = workbench(&system, 2.0, 3);
    for combine in [PivotCombine::Average, PivotCombine::Select] {
        let acc = |projection| {
            let opts = M2tdOptions {
                combine,
                projection,
                ..M2tdOptions::default()
            };
            w.run_m2td(4, opts, 1.0, 1.0).unwrap().accuracy
        };
        let transpose = acc(CoreProjection::Transpose);
        let ls = acc(CoreProjection::LeastSquares);
        assert!(
            ls >= transpose - 1e-9,
            "{}: LS {} vs transpose {}",
            combine.name(),
            ls,
            transpose
        );
    }
}

#[test]
fn grid_beats_random_which_is_conventional_ordering() {
    // Table II's conventional-scheme ordering at a budget where grid's
    // structure can express itself.
    let system = DoublePendulum::default();
    let w = workbench(&system, 2.0, 3);
    let budget = w.m2td_budget(4, 1.0, 1.0).unwrap();
    let grid = w.run_conventional(&GridSampling, budget).unwrap();
    let random = w.run_conventional(&RandomSampling, budget).unwrap();
    assert!(
        grid.accuracy > random.accuracy,
        "grid {} should beat random {}",
        grid.accuracy,
        random.accuracy
    );
}

#[test]
fn quickstart_accuracy_is_pinned() {
    // `examples/quickstart.rs`'s exact configuration; README quotes its
    // output. A drift here means a kernel changed results.
    let system = DoublePendulum::default();
    let cfg = WorkbenchConfig {
        resolution: 8,
        time_steps: 8,
        t_end: 2.0,
        substeps: 16,
        rank: 4,
        seed: 7,
        noise_sigma: 0.0,
    };
    let bench = Workbench::new(&system, cfg).unwrap();
    let pivot_time = bench.n_modes() - 1;
    let m2td = bench
        .run_m2td(pivot_time, M2tdOptions::default(), 1.0, 1.0)
        .unwrap();
    assert_eq!(bench.m2td_budget(pivot_time, 1.0, 1.0).unwrap(), 1024);
    assert_eq!(m2td.method, "M2TD-SELECT");
    assert_eq!(format!("{:.4}", m2td.accuracy), "0.4895");
    assert_eq!(
        m2td.accuracy.to_bits(),
        0x3fdf_536e_ea5b_88a2,
        "{:e}",
        m2td.accuracy
    );
}
