//! `stitch_multi` at S = 3 and S = 4 against a brute-force per-cell
//! oracle.
//!
//! The oracle visits every cell of the join space and decides it from
//! each sub-tensor's `get` alone:
//!
//! * **join** — the cell exists when every source is present;
//! * **zero-join** — the cell exists when each free coordinate lies in
//!   its sub-tensor's selected free set and at least one source is
//!   present.
//!
//! Its value is the mean of the sources: start from the first present
//! source, add each later source in order (a missing one as `+0.0`), then
//! divide by S. Values are compared on `f64::to_bits`, so `-0.0` must come
//! out exactly where that rule puts it.

use m2td_stitch::{stitch_multi, StitchKind, StitchReport};
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

fn oracle(subs: &[&SparseTensor], k: usize, kind: StitchKind) -> (Vec<(u64, u64)>, StitchReport) {
    let mut dims = subs[0].dims()[..k].to_vec();
    for x in subs {
        dims.extend_from_slice(&x.dims()[k..]);
    }
    let shape = Shape::new(&dims);
    let sets: Vec<_> = subs.iter().map(|x| free_set(x, k)).collect();
    let mut entries = Vec::new();
    for lin in 0..shape.num_elements() {
        let idx = shape.multi_index(lin);
        let p = &idx[..k];
        let mut offset = k;
        let mut in_sets = true;
        let mut sources = Vec::with_capacity(subs.len());
        for (x, set) in subs.iter().zip(&sets) {
            let f = &idx[offset..offset + x.order() - k];
            offset += f.len();
            in_sets &= set.contains(f);
            sources.push(x.get(&[p, f].concat()));
        }
        let exists = match kind {
            StitchKind::Join => sources.iter().all(Option::is_some),
            StitchKind::ZeroJoin => in_sets && sources.iter().any(Option::is_some),
        };
        if !exists {
            continue;
        }
        let mut acc: Option<f64> = None;
        for v in &sources {
            acc = match (acc, v) {
                (None, v) => *v,
                (Some(a), v) => Some(a + v.unwrap_or(0.0)),
            };
        }
        let v = acc.unwrap() / subs.len() as f64;
        entries.push((lin as u64, v.to_bits()));
    }
    let pivots = |x: &SparseTensor| -> BTreeSet<Vec<usize>> {
        x.iter().map(|(idx, _)| idx[..k].to_vec()).collect()
    };
    let shared = subs[1..]
        .iter()
        .fold(pivots(subs[0]), |acc, x| {
            acc.intersection(&pivots(x)).cloned().collect()
        })
        .len();
    let report = StitchReport {
        join_nnz: entries.len(),
        join_density: entries.len() as f64 / shape.num_elements() as f64,
        shared_pivot_configs: shared,
        input_nnz: (subs[0].nnz(), subs[subs.len() - 1].nnz()),
    };
    (entries, report)
}

/// A value in ±4, sometimes an exact zero of either sign.
fn rand_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..6) {
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

fn check(subs: &[&SparseTensor], k: usize, label: &str) {
    for kind in [StitchKind::Join, StitchKind::ZeroJoin] {
        let (join, report) = stitch_multi(subs, k, kind).unwrap();
        let (want, want_report) = oracle(subs, k, kind);
        assert_eq!(entries_bits(&join), want, "{label} {kind:?}");
        assert_eq!(report, want_report, "{label} {kind:?}");
    }
}

#[test]
fn stitch_multi_matches_brute_force_oracle_at_three_and_four_sub_tensors() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(case);
        // Even cases stitch three sub-tensors (up to two free modes each),
        // odd cases four (one free mode each), keeping the join space to a
        // few thousand cells.
        let s = if case % 2 == 0 { 3 } else { 4 };
        let k = rng.gen_range(1usize..3);
        let pivot: Vec<usize> = (0..k).map(|_| rng.gen_range(1usize..4)).collect();
        let max_free = if s == 3 { 3 } else { 2 };
        // Every fourth case leaves each sub-tensor a random half of the
        // pivot configurations, so pivot groups go missing on some sides.
        let sparse_pivots = case % 4 >= 2;
        let subs: Vec<SparseTensor> = (0..s)
            .map(|_| {
                let free: Vec<usize> = (0..rng.gen_range(1usize..max_free))
                    .map(|_| rng.gen_range(1usize..5))
                    .collect();
                let dims = [pivot.clone(), free].concat();
                let fill = rng.gen_range(0.0..1.0);
                let keep = rng.gen_range(0usize..2);
                rand_input(&mut rng, &dims, k, fill, &|p| {
                    !sparse_pivots || p % 2 == keep
                })
            })
            .collect();
        let refs: Vec<&SparseTensor> = subs.iter().collect();
        let dims: Vec<&[usize]> = subs.iter().map(|x| x.dims()).collect();
        check(&refs, k, &format!("case {case} S={s} k={k} {dims:?}"));
    }
}

#[test]
fn stitch_multi_matches_oracle_on_empty_and_signed_zero_inputs() {
    let full = |dims: &[usize], v: f64| {
        let shape = Shape::new(dims);
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .map(|l| (shape.multi_index(l), v))
            .collect();
        SparseTensor::from_entries(dims, &entries).unwrap()
    };
    let empty = SparseTensor::empty(&[3, 2]);
    let neg = full(&[3, 2], -0.0);
    let pos = full(&[3, 3], 0.0);
    let thin = SparseTensor::from_entries(&[3, 2], &[(vec![1, 1], -0.0)]).unwrap();
    check(&[&empty, &neg, &pos], 1, "empty first");
    check(&[&neg, &neg, &neg], 1, "all -0.0");
    check(
        &[&neg, &thin, &neg, &thin],
        1,
        "-0.0 against missing partners",
    );
    check(&[&thin, &empty, &thin], 1, "missing first sources");
    check(&[&empty, &empty, &empty, &empty], 1, "all empty");
}
