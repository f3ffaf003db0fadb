//! Bit-level pins for the single-node M2TD run.
//!
//! The dense kernels (mode-`n` TTM, the core-recovery chain, stitching,
//! mode permutation and scoring) promise a fixed accumulation order per
//! output element, so their results are reproducible to the last bit.
//! These tests pin `f64::to_bits` of two end-to-end accuracies and an
//! FNV-1a-64 hash of the recovered cores, so any kernel change that moves
//! a single bit fails here rather than drifting silently.

use m2td::core::{m2td_decompose, M2tdOptions, Workbench, WorkbenchConfig};
use m2td::guard::integrity::fnv1a64;
use m2td::sim::systems::{DoublePendulum, TriplePendulum};
use m2td::sim::EnsembleSystem;
use m2td::stitch::StitchKind;
use m2td::tensor::{hosvd_dense, DenseTensor};

/// The pivot is the time mode, the last of the five.
const TIME_MODE: usize = 4;

fn hash_f64s(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&[&bytes])
}

fn workbench(system: &dyn EnsembleSystem, resolution: usize, noise_sigma: f64) -> Workbench<'_> {
    let cfg = WorkbenchConfig {
        resolution,
        time_steps: resolution,
        t_end: 2.0,
        substeps: 8,
        rank: 3,
        seed: 17,
        noise_sigma,
    };
    Workbench::new(system, cfg).expect("workbench builds")
}

/// Runs one M2TD pipeline and returns `(accuracy bits, core hash)`. The
/// core comes from the same sub-ensembles `run_m2td_cells` decomposes.
fn pin(w: &Workbench<'_>, stitch: StitchKind, cell_frac: f64) -> (u64, u64) {
    let opts = M2tdOptions {
        stitch,
        ..M2tdOptions::default()
    };
    let report = w
        .run_m2td_cells(TIME_MODE, opts, 1.0, 1.0, cell_frac)
        .expect("M2TD run");
    let (x1, x2, partition) = w
        .subsystems(TIME_MODE, 1.0, 1.0, cell_frac)
        .expect("sub-ensembles");
    let ranks: Vec<usize> = partition
        .join_modes()
        .iter()
        .map(|&m| w.config().rank.min(w.full_dims()[m]))
        .collect();
    let decomp = m2td_decompose(&x1, &x2, partition.k(), &ranks, opts).expect("decompose");
    (
        report.accuracy.to_bits(),
        hash_f64s(decomp.tucker.core.as_slice()),
    )
}

#[test]
fn double_pendulum_join_run_is_bit_pinned() {
    let system = DoublePendulum::default();
    let w = workbench(&system, 6, 1e-3);
    let (acc, core) = pin(&w, StitchKind::Join, 1.0);
    assert_eq!(
        (acc, core),
        (0x3fdd_ca6b_0aa0_5bda, 0x41e8_3814_71fd_3726),
        "accuracy {:.17e} ({acc:#018x}), core fnv64 {core:#018x}",
        f64::from_bits(acc)
    );
}

#[test]
fn triple_pendulum_zero_join_run_is_bit_pinned() {
    let system = TriplePendulum::default();
    let w = workbench(&system, 5, 0.0);
    let (acc, core) = pin(&w, StitchKind::ZeroJoin, 0.5);
    assert_eq!(
        (acc, core),
        (0x3fc7_63d5_6c6b_76e8, 0x5378_93cd_c0de_c093),
        "accuracy {:.17e} ({acc:#018x}), core fnv64 {core:#018x}",
        f64::from_bits(acc)
    );
}

#[test]
fn hosvd_reconstruct_round_trip_is_bit_pinned() {
    // Large enough that both the core-recovery chain and the last
    // reconstruction step clear the blocked-GEMM size gate.
    let x = DenseTensor::from_fn(&[20, 16, 12, 10], |i| {
        let l = (i[0] * 1920 + i[1] * 120 + i[2] * 10 + i[3]) as f64;
        (l * 0.37).sin() + 0.25 * (l * 0.011).cos() - 0.1
    });
    let tucker = hosvd_dense(&x, &[5, 4, 4, 4]).expect("hosvd");
    let recon = tucker.reconstruct().expect("reconstruct");
    let (core, recon) = (
        hash_f64s(tucker.core.as_slice()),
        hash_f64s(recon.as_slice()),
    );
    assert_eq!(
        (core, recon),
        (0x0872_d093_95e3_143e, 0x2923_493f_2bba_ee01),
        "core fnv64 {core:#018x}, reconstruction fnv64 {recon:#018x}"
    );
}
