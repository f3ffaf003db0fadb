//! `stitch` against a brute-force per-cell oracle.
//!
//! The oracle visits every cell of the join space and decides it from
//! `x1.get`/`x2.get` alone, with the same value expressions as the stitch
//! rules. Values are compared on `f64::to_bits`, so `-0.0` must come out
//! exactly where the rules put it.

use m2td_stitch::{stitch, StitchKind, StitchReport};
use m2td_tensor::{Shape, SparseTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn entries_bits(t: &SparseTensor) -> Vec<(u64, u64)> {
    t.iter_linear().map(|(l, v)| (l, v.to_bits())).collect()
}

/// The distinct free configurations of `x` (its modes past the first `k`).
fn free_set(x: &SparseTensor, k: usize) -> BTreeSet<Vec<usize>> {
    x.iter().map(|(idx, _)| idx[k..].to_vec()).collect()
}

fn oracle(
    x1: &SparseTensor,
    x2: &SparseTensor,
    k: usize,
    kind: StitchKind,
) -> (Vec<(u64, u64)>, StitchReport) {
    let mut dims = x1.dims().to_vec();
    dims.extend_from_slice(&x2.dims()[k..]);
    let shape = Shape::new(&dims);
    let n1 = x1.order() - k;
    let (g1, g2) = (free_set(x1, k), free_set(x2, k));
    let mut entries = Vec::new();
    for lin in 0..shape.num_elements() {
        let idx = shape.multi_index(lin);
        let (p, f1, f2) = (&idx[..k], &idx[k..k + n1], &idx[k + n1..]);
        let a = x1.get(&[p, f1].concat());
        let b = x2.get(&[p, f2].concat());
        let v = match (kind, a, b) {
            (StitchKind::Join, Some(v1), Some(v2)) => Some(0.5 * (v1 + v2)),
            (StitchKind::Join, _, _) => None,
            (StitchKind::ZeroJoin, Some(v1), b) if g2.contains(f2) => {
                Some(0.5 * (v1 + b.unwrap_or(0.0)))
            }
            (StitchKind::ZeroJoin, None, Some(v2)) if g1.contains(f1) => Some(0.5 * v2),
            (StitchKind::ZeroJoin, _, _) => None,
        };
        if let Some(v) = v {
            entries.push((lin as u64, v.to_bits()));
        }
    }
    let pivots = |x: &SparseTensor| -> BTreeSet<Vec<usize>> {
        x.iter().map(|(idx, _)| idx[..k].to_vec()).collect()
    };
    let shared = pivots(x1).intersection(&pivots(x2)).count();
    let report = StitchReport {
        join_nnz: entries.len(),
        join_density: entries.len() as f64 / shape.num_elements() as f64,
        shared_pivot_configs: shared,
        input_nnz: (x1.nnz(), x2.nnz()),
    };
    (entries, report)
}

/// A value in ±4, sometimes an exact zero of either sign.
fn rand_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..8) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-4.0..4.0),
    }
}

/// A random sub-ensemble over `dims`, each cell stored with probability
/// `fill`, restricted to the pivot configurations in `allowed`.
fn rand_input(
    rng: &mut StdRng,
    dims: &[usize],
    k: usize,
    fill: f64,
    allowed: &dyn Fn(usize) -> bool,
) -> SparseTensor {
    let shape = Shape::new(dims);
    let pivots = Shape::new(&dims[..k]);
    let mut entries = Vec::new();
    for l in 0..shape.num_elements() {
        let idx = shape.multi_index(l);
        if allowed(pivots.linear_index(&idx[..k])) && rng.gen_range(0.0..1.0) < fill {
            entries.push((idx, rand_value(rng)));
        }
    }
    SparseTensor::from_entries(dims, &entries).unwrap()
}

fn check(x1: &SparseTensor, x2: &SparseTensor, k: usize, label: &str) {
    for kind in [StitchKind::Join, StitchKind::ZeroJoin] {
        let (join, report) = stitch(x1, x2, k, kind).unwrap();
        let (want, want_report) = oracle(x1, x2, k, kind);
        assert_eq!(join.dims().len(), x1.order() + x2.order() - k);
        assert_eq!(entries_bits(&join), want, "{label} {kind:?}");
        assert_eq!(report, want_report, "{label} {kind:?}");
    }
}

#[test]
fn stitch_matches_brute_force_oracle_on_seeded_random_inputs() {
    for case in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let k = rng.gen_range(1usize..3);
        let pivot: Vec<usize> = (0..k).map(|_| rng.gen_range(1usize..4)).collect();
        let free = |rng: &mut StdRng| -> Vec<usize> {
            (0..rng.gen_range(1usize..3))
                .map(|_| rng.gen_range(1usize..4))
                .collect()
        };
        let d1 = [pivot.clone(), free(&mut rng)].concat();
        let d2 = [pivot.clone(), free(&mut rng)].concat();
        let fill1 = rng.gen_range(0.0..1.0);
        let fill2 = rng.gen_range(0.0..1.0);
        // Every fourth case keeps the two sides on disjoint pivots.
        let disjoint = case % 4 == 3;
        let x1 = rand_input(&mut rng, &d1, k, fill1, &|p| !disjoint || p % 2 == 0);
        let x2 = rand_input(&mut rng, &d2, k, fill2, &|p| !disjoint || p % 2 == 1);
        check(&x1, &x2, k, &format!("case {case} k={k} {d1:?}/{d2:?}"));
    }
}

#[test]
fn stitch_matches_oracle_on_edge_inputs() {
    let full = |dims: &[usize], v: f64| {
        let shape = Shape::new(dims);
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .map(|l| (shape.multi_index(l), v))
            .collect();
        SparseTensor::from_entries(dims, &entries).unwrap()
    };
    let empty = SparseTensor::empty(&[3, 2]);
    let x = full(&[3, 2], -0.0);
    let y = full(&[3, 4], 0.0);
    let z = full(&[3, 4], -0.0);
    check(&empty, &x, 1, "empty x1");
    check(&x, &empty, 1, "empty x2");
    check(&empty, &empty, 1, "both empty");
    check(&x, &y, 1, "-0.0 with +0.0");
    check(&x, &z, 1, "-0.0 with -0.0");
    let thin = SparseTensor::from_entries(&[3, 4], &[(vec![1, 2], -0.0)]).unwrap();
    check(&x, &thin, 1, "-0.0 against a missing partner");
    check(&thin, &x, 1, "missing partner against -0.0");
    let k2a = SparseTensor::from_entries(&[2, 2, 3], &[(vec![1, 0, 2], 1.5)]).unwrap();
    let k2b = SparseTensor::from_entries(&[2, 2, 2], &[(vec![0, 1, 1], 2.5)]).unwrap();
    check(&k2a, &k2b, 2, "k=2 disjoint pivots");
}
