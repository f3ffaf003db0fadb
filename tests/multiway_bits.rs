//! Bit-level pins for the multi-way M2TD run, and the bitwise agreement
//! of the three schedules of one M2TD algorithm.
//!
//! `Workbench::run_m2td_multi` is pinned at 2 and 4 free groups by
//! `f64::to_bits` of its accuracy and an FNV-1a-64 hash of the core the
//! same sub-tensors decompose to. On the `kernel_bits` inputs, the serial
//! two-way run, the multi-way run at two sub-tensors and a 1-worker
//! D-M2TD job over the direct transport must agree to the last bit in
//! every factor and in the core, for all three pivot combinations.

use m2td::core::{
    m2td_decompose, m2td_decompose_multi, M2tdDecomposition, M2tdOptions, PivotCombine, Workbench,
    WorkbenchConfig,
};
use m2td::dist::{DistJob, MapReduce, TransportKind};
use m2td::guard::integrity::fnv1a64;
use m2td::linalg::Matrix;
use m2td::sim::systems::{DoublePendulum, TriplePendulum};
use m2td::sim::EnsembleSystem;
use m2td::stitch::StitchKind;
use m2td::tensor::SparseTensor;

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

fn join_ranks(w: &Workbench<'_>, join_modes: &[usize]) -> Vec<usize> {
    join_modes
        .iter()
        .map(|&m| w.config().rank.min(w.full_dims()[m]))
        .collect()
}

/// `(accuracy bits, core hash)` of the multi-way run at `groups`.
fn multi_pin(w: &Workbench<'_>, groups: usize) -> (u64, u64) {
    let opts = M2tdOptions::default();
    let report = w
        .run_m2td_multi(TIME_MODE, groups, opts, 1.0, 1.0)
        .expect("multi-way run");
    let (subs, partition) = w
        .multi_subsystems(TIME_MODE, groups, 1.0, 1.0)
        .expect("sub-ensembles");
    let refs: Vec<&SparseTensor> = subs.iter().collect();
    let ranks = join_ranks(w, &partition.join_modes());
    let decomp = m2td_decompose_multi(&refs, partition.k(), &ranks, opts).expect("decompose");
    (
        report.accuracy.to_bits(),
        hash_f64s(decomp.tucker.core.as_slice()),
    )
}

#[test]
fn multiway_run_is_bit_pinned_at_two_and_four_groups() {
    let system = DoublePendulum::default();
    let w = workbench(&system, 6, 1e-3);
    let pins: Vec<(usize, u64, u64)> = [2, 4]
        .into_iter()
        .map(|groups| {
            let (acc, core) = multi_pin(&w, groups);
            (groups, acc, core)
        })
        .collect();
    assert_eq!(
        pins,
        vec![
            (2, 0x3fdd_ca6b_0aa0_5bda, 0x41e8_3814_71fd_3726),
            (4, 0x3fc1_711c_8e03_0b58, 0xd88c_d7e0_b3f5_d678),
        ],
        "{}",
        pins.iter()
            .map(|(g, acc, core)| format!(
                "groups {g}: accuracy {:.17e} ({acc:#018x}), core fnv64 {core:#018x}",
                f64::from_bits(*acc)
            ))
            .collect::<Vec<_>>()
            .join("; ")
    );
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Factor and core bits, in join mode order.
fn decomposition_bits(factors: &[Matrix], core: &[f64]) -> (Vec<Vec<u64>>, Vec<u64>) {
    (
        factors.iter().map(bits).collect(),
        core.iter().map(|v| v.to_bits()).collect(),
    )
}

fn serial_bits(d: &M2tdDecomposition) -> (Vec<Vec<u64>>, Vec<u64>) {
    decomposition_bits(&d.tucker.factors, d.tucker.core.as_slice())
}

/// Serial, multi-way at S = 2 and 1-worker direct D-M2TD on one input.
fn assert_three_paths_agree(w: &Workbench<'_>, stitch: StitchKind, cell_frac: f64) {
    let (x1, x2, partition) = w
        .subsystems(TIME_MODE, 1.0, 1.0, cell_frac)
        .expect("sub-ensembles");
    let ranks = join_ranks(w, &partition.join_modes());
    let k = partition.k();
    for combine in PivotCombine::all() {
        let opts = M2tdOptions {
            combine,
            stitch,
            ..M2tdOptions::default()
        };
        let serial = serial_bits(&m2td_decompose(&x1, &x2, k, &ranks, opts).expect("serial"));
        let multi =
            serial_bits(&m2td_decompose_multi(&[&x1, &x2], k, &ranks, opts).expect("multi-way"));
        let dist = DistJob {
            opts,
            ..DistJob::new(&x1, &x2, k, &ranks)
        }
        .run(&MapReduce::new(1).with_transport(TransportKind::Direct))
        .expect("D-M2TD");
        let dist = decomposition_bits(&dist.tucker.factors, dist.tucker.core.as_slice());
        let name = combine.name();
        assert!(serial == multi, "{name} {stitch:?}: multi-way differs");
        assert!(serial == dist, "{name} {stitch:?}: D-M2TD differs");
    }
}

#[test]
fn serial_multiway_and_one_worker_dist_are_bitwise_equal() {
    let dp = DoublePendulum::default();
    assert_three_paths_agree(&workbench(&dp, 6, 1e-3), StitchKind::Join, 1.0);
    let tp = TriplePendulum::default();
    assert_three_paths_agree(&workbench(&tp, 5, 0.0), StitchKind::ZeroJoin, 0.5);
}
