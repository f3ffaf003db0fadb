//! Bit-level pins for the simulation layer.
//!
//! Every ensemble cell is one RK4 trajectory, so a change to the
//! integrator or to a system's right-hand side that moves a single bit
//! moves every ensemble built from it. These tests pin an FNV-1a-64 hash
//! of `f64::to_bits` over one trajectory of each paper system and over a
//! small triple-pendulum ground truth.

use m2td::guard::integrity::fnv1a64;
use m2td::sim::systems::{DoublePendulum, Lorenz, Rossler, Sir, TriplePendulum};
use m2td::sim::{EnsembleBuilder, EnsembleSystem, TimeGrid, Trajectory};

fn hash_f64s(values: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&[&bytes])
}

/// Hash of every recorded time and state of a trajectory.
fn hash_trajectory(traj: &Trajectory) -> u64 {
    hash_f64s(
        (0..traj.len())
            .flat_map(|k| std::iter::once(traj.time(k)).chain(traj.state(k).iter().copied())),
    )
}

/// One trajectory at an off-centre configuration of the system's default
/// space (axis `i` at index `(i + 1) mod 5`), on the benchmark time grid.
fn trajectory_hash(system: &dyn EnsembleSystem) -> u64 {
    let space = system.default_space(5);
    let idx: Vec<usize> = (0..space.num_params()).map(|i| (i + 1) % 5).collect();
    let traj = system.simulate(&space.values_at(&idx), &TimeGrid::new(2.0, 10, 16));
    hash_trajectory(&traj)
}

#[test]
fn one_trajectory_per_system_is_bit_pinned() {
    let hashes = [
        (
            "double_pendulum",
            trajectory_hash(&DoublePendulum::default()),
        ),
        (
            "triple_pendulum",
            trajectory_hash(&TriplePendulum::default()),
        ),
        ("lorenz", trajectory_hash(&Lorenz::default())),
        ("rossler", trajectory_hash(&Rossler::default())),
        ("sir", trajectory_hash(&Sir)),
    ];
    let expected = [
        ("double_pendulum", 0x6b3f_943d_a240_6cca),
        ("triple_pendulum", 0x2cb1_b8c3_db8f_38ca),
        ("lorenz", 0xdbe7_ddbd_f17a_d55a),
        ("rossler", 0x80bb_1d9e_83b8_722a),
        ("sir", 0xecdf_7d59_b375_2b6a),
    ];
    assert_eq!(
        hashes,
        expected,
        "trajectory fnv64: {}",
        hashes
            .iter()
            .map(|(name, h)| format!("{name} {h:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

#[test]
fn triple_pendulum_ground_truth_is_bit_pinned() {
    let system = TriplePendulum::default();
    let space = system.default_space(4);
    let grid = TimeGrid::new(2.0, 10, 16);
    let truth = EnsembleBuilder::new(&system, &space, &grid)
        .ground_truth()
        .expect("ground truth");
    assert_eq!(truth.dims(), &[4, 4, 4, 4, 10]);
    let h = hash_f64s(truth.as_slice().iter().copied());
    assert_eq!(h, 0xbe75_d617_5388_5d3c, "ground truth fnv64 {h:#018x}");
}
