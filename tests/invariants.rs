//! Property-style invariants spanning the workspace crates.
//!
//! The offline build has no `proptest`, so each property loops over a
//! fixed set of seeds and draws its inputs from the in-tree seeded RNG —
//! deterministic, shrink-free, but the same invariants.

use m2td::core::{m2td_decompose, row_select, M2tdOptions};
use m2td::linalg::Matrix;
use m2td::sampling::{
    GridSampling, PfPartition, RandomSampling, SamplingScheme, SliceSampling, SubSystem,
};
use m2td::stitch::{stitch, StitchKind};
use m2td::tensor::{hosvd_sparse, DenseTensor, Shape, SparseTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// A random small tensor shape: 2–4 modes of extent 2–5.
fn rand_shape(rng: &mut StdRng) -> Vec<usize> {
    let order = rng.gen_range(2usize..5);
    (0..order).map(|_| rng.gen_range(2usize..6)).collect()
}

/// A random sparse tensor over `dims` with values in ±10 and a random
/// subset of cells occupied.
fn rand_sparse(rng: &mut StdRng, dims: &[usize]) -> SparseTensor {
    let shape = Shape::new(dims);
    let total = shape.num_elements();
    let want = rng.gen_range(1usize..total.min(40) + 1);
    let mut cells = std::collections::BTreeSet::new();
    while cells.len() < want {
        cells.insert(rng.gen_range(0usize..total));
    }
    let entries: Vec<(Vec<usize>, f64)> = cells
        .into_iter()
        .map(|lin| (shape.multi_index(lin), rng.gen_range(-10.0..10.0)))
        .collect();
    SparseTensor::from_entries(dims, &entries).expect("generated entries are valid")
}

#[test]
fn unfold_gram_matches_explicit_gram() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = rand_shape(&mut rng);
        let t = rand_sparse(&mut rng, &dims);
        for mode in 0..dims.len() {
            let fast = t.unfold_gram(mode).unwrap();
            let explicit = t.unfold(mode).unwrap().gram_rows();
            let diff = fast.sub(&explicit).unwrap().frobenius_norm();
            assert!(diff < 1e-9, "mode {mode} gram diff {diff}");
        }
    }
}

#[test]
fn hosvd_reconstruction_error_is_bounded() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = rand_shape(&mut rng);
        let t = rand_sparse(&mut rng, &dims);
        let ranks: Vec<usize> = dims.iter().map(|&d| d.min(2)).collect();
        let tucker = hosvd_sparse(&t, &ranks).unwrap();
        let dense = t.to_dense().unwrap();
        let err = tucker.relative_error(&dense).unwrap();
        // HOSVD of any tensor never exceeds the energy of the tensor
        // itself (projection onto orthonormal bases).
        assert!(err <= 1.0 + 1e-9, "relative error {err} > 1");
        // Full-rank HOSVD is exact.
        let exact = hosvd_sparse(&t, &dims).unwrap();
        assert!(exact.relative_error(&dense).unwrap() < 1e-8);
    }
}

#[test]
fn stitch_join_entry_count_and_values() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p_dim = rng.gen_range(2usize..5);
        let f1_dim = rng.gen_range(2usize..5);
        let f2_dim = rng.gen_range(2usize..5);
        let offset = rng.gen_range(0.0..1000.0);
        // Fully dense sub-tensors: join count must be exactly P * E1 * E2
        // and every value must be the average of its sources.
        let mk = |dims: &[usize], offset: f64| {
            let shape = Shape::new(dims);
            let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
                .map(|l| (shape.multi_index(l), offset + l as f64))
                .collect();
            SparseTensor::from_entries(dims, &entries).unwrap()
        };
        let x1 = mk(&[p_dim, f1_dim], offset);
        let x2 = mk(&[p_dim, f2_dim], -offset);
        let (j, report) = stitch(&x1, &x2, 1, StitchKind::Join).unwrap();
        assert_eq!(j.nnz(), p_dim * f1_dim * f2_dim);
        assert_eq!(report.shared_pivot_configs, p_dim);
        for (idx, v) in j.iter() {
            let v1 = x1.get(&[idx[0], idx[1]]).unwrap();
            let v2 = x2.get(&[idx[0], idx[2]]).unwrap();
            assert!((v - 0.5 * (v1 + v2)).abs() < 1e-12);
        }
    }
}

#[test]
fn zero_join_is_superset_with_consistent_values() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rng.gen_range(2usize..4);
        let f1 = rng.gen_range(2usize..5);
        let f2 = rng.gen_range(2usize..5);
        let x1 = rand_sparse(&mut rng, &[p, f1]);
        let x2 = rand_sparse(&mut rng, &[p, f2]);
        let (j, _) = stitch(&x1, &x2, 1, StitchKind::Join).unwrap();
        let (zj, _) = stitch(&x1, &x2, 1, StitchKind::ZeroJoin).unwrap();
        assert!(zj.nnz() >= j.nnz());
        for (idx, v) in j.iter() {
            assert_eq!(zj.get(&idx), Some(v));
        }
    }
}

#[test]
fn sampling_plans_are_valid_and_within_budget() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let order = rng.gen_range(3usize..6);
        let dims: Vec<usize> = (0..order).map(|_| rng.gen_range(3usize..6)).collect();
        let budget_frac = rng.gen_range(0.05..0.9);
        let total: usize = dims.iter().product();
        let budget = ((total as f64 * budget_frac) as usize).max(1);
        for scheme in [
            &RandomSampling as &dyn SamplingScheme,
            &GridSampling,
            &SliceSampling,
        ] {
            let plan = scheme.plan(&dims, budget, &mut rng).unwrap();
            assert!(plan.len() <= budget, "{} overshot budget", scheme.name());
            let mut seen = std::collections::HashSet::new();
            for cell in &plan {
                assert_eq!(cell.len(), dims.len());
                for (i, d) in cell.iter().zip(dims.iter()) {
                    assert!(i < d);
                }
                assert!(seen.insert(cell.clone()), "duplicate cell");
            }
        }
    }
}

#[test]
fn pf_partition_plans_pin_fixed_modes() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let pivot = rng.gen_range(0usize..5);
        let p_frac = rng.gen_range(0.3..1.0);
        let e_frac = rng.gen_range(0.3..1.0);
        let dims = [4usize, 4, 4, 4, 4];
        let defaults = [2usize, 2, 2, 2, 2];
        let partition = PfPartition::balanced(5, pivot).unwrap();
        for which in [SubSystem::First, SubSystem::Second] {
            let plan = partition
                .plan_subsystem(&dims, &defaults, which, p_frac, e_frac, &mut rng)
                .unwrap();
            let (p, e) = partition.cell_counts(&dims, which, p_frac, e_frac).unwrap();
            assert_eq!(plan.len(), p * e);
            for cell in &plan {
                for &m in partition.fixed_modes(which) {
                    assert_eq!(cell[m], defaults[m]);
                }
            }
        }
    }
}

#[test]
fn row_select_output_energy_dominates_inputs() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rng.gen_range(1usize..8);
        let cols = rng.gen_range(1usize..5);
        let u1 = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0));
        let u2 = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0));
        let u = row_select(&[&u1, &u2]).unwrap();
        for i in 0..rows {
            let expected = u1.row_norm(i).max(u2.row_norm(i));
            assert!((u.row_norm(i) - expected).abs() < 1e-12);
        }
    }
}

#[test]
fn permute_modes_preserves_norm_and_inverts() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = rand_shape(&mut rng);
        let t = DenseTensor::from_fn(&dims, |idx| {
            idx.iter()
                .enumerate()
                .map(|(n, &i)| ((n + 1) * (i + 2)) as f64)
                .sum::<f64>()
                .sin()
        });
        // A rotation permutation and its inverse.
        let n = dims.len();
        let perm: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
        let inv: Vec<usize> = (0..n).map(|i| (i + n - 1) % n).collect();
        let p = t.permute_modes(&perm).unwrap();
        assert!((p.frobenius_norm() - t.frobenius_norm()).abs() < 1e-12);
        let back = p.permute_modes(&inv).unwrap();
        assert_eq!(back, t);
    }
}

#[test]
fn m2td_core_energy_bounded_by_join_energy() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let p_dim = rng.gen_range(3usize..5);
        let f_dim = rng.gen_range(3usize..5);
        // With orthonormal factors (CONCAT), the core's energy cannot
        // exceed the join tensor's energy.
        let mk = |dims: &[usize], phase: f64| {
            let shape = Shape::new(dims);
            let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
                .map(|l| (shape.multi_index(l), (l as f64 * 0.37 + phase).sin() + 1.1))
                .collect();
            SparseTensor::from_entries(dims, &entries).unwrap()
        };
        let x1 = mk(&[p_dim, f_dim], 0.0);
        let x2 = mk(&[p_dim, f_dim], 1.0);
        let opts = M2tdOptions {
            combine: m2td::core::PivotCombine::Concat,
            projection: m2td::core::CoreProjection::Transpose,
            ..M2tdOptions::default()
        };
        let ranks = [2usize, 2, 2];
        let d = m2td_decompose(&x1, &x2, 1, &ranks, opts).unwrap();
        let (join, _) = stitch(&x1, &x2, 1, StitchKind::Join).unwrap();
        assert!(
            d.tucker.core.frobenius_norm() <= join.frobenius_norm() * (1.0 + 1e-9),
            "core energy {} exceeds join energy {}",
            d.tucker.core.frobenius_norm(),
            join.frobenius_norm()
        );
    }
}

/// The full M2TD decomposition must be invariant to the global thread
/// cap: the pivot-side join and every parallel kernel under it are
/// deterministic, so the Tucker cores must agree within 1e-10 Frobenius
/// across `M2TD_THREADS` = 1, 2 and 8.
#[test]
fn m2td_decomposition_invariant_to_thread_count() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(3000 + seed);
        let p_dim = rng.gen_range(3usize..6);
        let f_dim = rng.gen_range(3usize..6);
        // Fully occupied sub-tensors with random values: guarantees the
        // two sides share pivot configurations so the join is non-empty.
        let mut mk = |dims: &[usize]| {
            let shape = Shape::new(dims);
            let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
                .map(|l| (shape.multi_index(l), rng.gen_range(-10.0..10.0)))
                .collect();
            SparseTensor::from_entries(dims, &entries).unwrap()
        };
        let x1 = mk(&[p_dim, f_dim]);
        let x2 = mk(&[p_dim, f_dim]);
        let ranks = [2usize.min(p_dim), 2usize.min(f_dim), 2usize.min(f_dim)];

        m2td::par::set_max_threads(1);
        let serial = m2td_decompose(&x1, &x2, 1, &ranks, M2tdOptions::default()).unwrap();

        for threads in [2usize, 8] {
            m2td::par::set_max_threads(threads);
            let par = m2td_decompose(&x1, &x2, 1, &ranks, M2tdOptions::default()).unwrap();
            let diff = par
                .tucker
                .core
                .sub(&serial.tucker.core)
                .unwrap()
                .frobenius_norm();
            assert!(diff < 1e-10, "core drift {diff} t={threads} seed={seed}");
        }
        m2td::par::set_max_threads(0);
    }
}
