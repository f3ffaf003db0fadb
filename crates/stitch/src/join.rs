//! The join and zero-join stitching kernels, for `S ≥ 2` sub-tensors.
//!
//! Every input puts its pivot modes first, so an entry's row-major linear
//! index is `p·F + f`, with `p` its pivot configuration and `f` its index
//! on the free lattice of size `F`. Sorted by linear index, each input is
//! therefore already grouped by pivot with free indices ascending inside a
//! group. [`stitch_multi`] merges the `S` group lists and emits join
//! entries in nested ascending `(p, f₁, …, f_S)` order, which is ascending
//! join index `((p·F₁ + f₁)·F₂ + f₂)⋯`. The entries go straight into
//! [`SparseTensor::from_sorted_linear`]: there is no hash map, no
//! multi-index round trip and no final sort. [`JoinLattice::emit_pivot`]
//! is the per-pivot step on its own; D-M2TD's phase-2 reducers call it on
//! their pivot groups.
//!
//! A join cell averages its `S` sources: start from the first present
//! source, add each later source in order (a missing one counted as
//! `+0.0`), then divide by `S`. At `S = 2` that is `(x₁ + x₂)/2`, and
//! `x₂/2` for a zero-join cell whose `x₁` is missing.

use crate::error::StitchError;
use crate::Result;
use m2td_tensor::SparseTensor;
use std::ops::Range;

/// Which stitching rule to apply (Section V-C.1 vs V-C.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StitchKind {
    /// Plain join: a cell exists where every sub-ensemble has a simulation.
    Join,
    /// Zero-join: a cell exists where any sub-ensemble has a simulation
    /// (free coordinates restricted to each sub-ensemble's selected free
    /// configurations); missing partners count as simulations with value
    /// 0, boosting effective density.
    ZeroJoin,
}

/// Summary statistics of a stitch, used by experiment reports.
#[derive(Debug, Clone, PartialEq)]
pub struct StitchReport {
    /// Number of entries in the join tensor.
    pub join_nnz: usize,
    /// Effective density of the join tensor.
    pub join_density: f64,
    /// Number of pivot configurations present in every sub-ensemble.
    pub shared_pivot_configs: usize,
    /// Input entry counts `(nnz(X1), nnz(X_S))`.
    pub input_nnz: (usize, usize),
}

/// One sub-tensor's entries at one pivot configuration.
#[derive(Debug, Clone, Copy)]
pub struct PivotGroup<'a> {
    /// Free-lattice indices, ascending.
    pub free: &'a [u64],
    /// The value at each of `free`.
    pub values: &'a [f64],
}

/// What every pivot group of one stitch shares: the rule and, per
/// sub-tensor, the free-lattice size and (for zero-join) the free
/// configurations it selects anywhere.
#[derive(Debug, Clone)]
pub struct JoinLattice {
    kind: StitchKind,
    free_sizes: Vec<u64>,
    free_sets: Vec<Vec<u64>>,
}

impl JoinLattice {
    /// The lattice for stitching `subs`, whose first `k` modes are the
    /// pivots, by `kind`.
    pub fn new(subs: &[&SparseTensor], k: usize, kind: StitchKind) -> Self {
        let free_sizes: Vec<u64> = subs
            .iter()
            .map(|x| x.dims()[k..].iter().product::<usize>() as u64)
            .collect();
        // Zero-join pairs a present entry with every free configuration
        // selected on the other sides; plain join needs no free sets.
        let free_sets = match kind {
            StitchKind::Join => Vec::new(),
            StitchKind::ZeroJoin => subs
                .iter()
                .zip(&free_sizes)
                .map(|(x, &size)| {
                    let mut set: Vec<u64> = x.iter_linear().map(|(lin, _)| lin % size).collect();
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect(),
        };
        Self {
            kind,
            free_sizes,
            free_sets,
        }
    }

    /// Splits sub-tensor `s`'s linear index into `(pivot, free)`.
    pub fn locate(&self, s: usize, lin: u64) -> (u64, u64) {
        (lin / self.free_sizes[s], lin % self.free_sizes[s])
    }

    /// The number of join cells [`Self::emit_pivot`] makes of `groups`.
    pub fn cell_count(&self, groups: &[PivotGroup<'_>]) -> usize {
        match self.kind {
            StitchKind::Join => groups.iter().map(|g| g.free.len()).product(),
            // Every combination of selected free configurations, less the
            // combinations with no source present.
            StitchKind::ZeroJoin => {
                let sets = self.free_sets.iter().zip(groups);
                let all: usize = sets.clone().map(|(set, _)| set.len()).product();
                let none: usize = sets.map(|(set, g)| set.len() - g.free.len()).product();
                all - none
            }
        }
    }

    /// Appends the join cells of pivot `p` to `indices` and `values`, in
    /// ascending join index. `groups` holds each sub-tensor's entries at
    /// `p`, in sub-tensor order (empty where a sub-tensor lacks `p`).
    pub fn emit_pivot(
        &self,
        p: u64,
        groups: &[PivotGroup<'_>],
        indices: &mut Vec<u64>,
        values: &mut Vec<f64>,
    ) {
        self.emit(p, None, groups, 0, indices, values);
    }

    /// Emits the cells below a join-index prefix `row` whose first `depth`
    /// free coordinates are fixed; `acc` is the running source sum, `None`
    /// while no source is present.
    fn emit(
        &self,
        row: u64,
        acc: Option<f64>,
        groups: &[PivotGroup<'_>],
        depth: usize,
        indices: &mut Vec<u64>,
        values: &mut Vec<f64>,
    ) {
        let g = groups[depth];
        let row = row * self.free_sizes[depth];
        let last = depth + 1 == groups.len();
        // The mean divides by S; for a power-of-two S the reciprocal is
        // exact, so multiplying by it gives the same bits, faster.
        let s = groups.len();
        let inverse = 1.0 / s as f64;
        let mean = |sum: f64| {
            if s.is_power_of_two() {
                sum * inverse
            } else {
                sum / s as f64
            }
        };
        let add = |v: f64| acc.map_or(v, |a| a + v);
        match self.kind {
            StitchKind::Join if last => {
                indices.extend(g.free.iter().map(|&f| row + f));
                values.extend(g.values.iter().map(|&v| mean(add(v))));
            }
            StitchKind::Join => {
                for (&f, &v) in g.free.iter().zip(g.values) {
                    self.emit(row + f, Some(add(v)), groups, depth + 1, indices, values);
                }
            }
            StitchKind::ZeroJoin => {
                // A free configuration missing here leads to cells only if
                // a source is present before it or may be present after.
                let open = acc.is_some() || groups[depth + 1..].iter().any(|g| !g.free.is_empty());
                let rows = if open {
                    &self.free_sets[depth][..]
                } else {
                    g.free
                };
                let mut c = 0;
                for &f in rows {
                    let acc = if g.free.get(c) == Some(&f) {
                        c += 1;
                        Some(add(g.values[c - 1]))
                    } else {
                        acc.map(|a| a + 0.0)
                    };
                    if !last {
                        self.emit(row + f, acc, groups, depth + 1, indices, values);
                    } else if let Some(a) = acc {
                        indices.push(row + f);
                        values.push(mean(a));
                    }
                }
            }
        }
    }
}

/// One input split against its `k` pivot modes, in stream order.
struct Split {
    /// Free-lattice index per entry, ascending within each pivot group.
    free: Vec<u64>,
    values: Vec<f64>,
    /// `(pivot, entries)` per pivot configuration present, pivot ascending.
    groups: Vec<(u64, Range<usize>)>,
}

fn split(x: &SparseTensor, s: usize, lattice: &JoinLattice) -> Split {
    let mut free = Vec::with_capacity(x.nnz());
    let mut values = Vec::with_capacity(x.nnz());
    let mut groups: Vec<(u64, Range<usize>)> = Vec::new();
    for (e, (lin, v)) in x.iter_linear().enumerate() {
        let (p, f) = lattice.locate(s, lin);
        match groups.last_mut() {
            Some((q, range)) if *q == p => range.end = e + 1,
            _ => groups.push((p, e..e + 1)),
        }
        free.push(f);
        values.push(v);
    }
    Split {
        free,
        values,
        groups,
    }
}

/// Every pivot present on any side, ascending, with each side's entry
/// range (empty when that side lacks the pivot).
fn merge_pivots(splits: &[Split]) -> Vec<(u64, Vec<Range<usize>>)> {
    let mut next = vec![0; splits.len()];
    let mut out = Vec::new();
    loop {
        let heads = splits
            .iter()
            .zip(&next)
            .filter_map(|(s, &i)| s.groups.get(i));
        let Some(p) = heads.map(|g| g.0).min() else {
            return out;
        };
        let ranges = splits
            .iter()
            .zip(next.iter_mut())
            .map(|(s, i)| match s.groups.get(*i) {
                Some((q, range)) if *q == p => {
                    *i += 1;
                    range.clone()
                }
                _ => 0..0,
            })
            .collect();
        out.push((p, ranges));
    }
}

/// Stitches two sub-ensemble tensors into the join tensor `J`: the `S = 2`
/// instance of [`stitch_multi`].
///
/// `x1` and `x2` must share their first `k` (pivot) modes; the result has
/// modes `[pivot…, free₁…, free₂…]` and extents taken from the inputs.
///
/// ```
/// use m2td_stitch::{stitch, StitchKind};
/// use m2td_tensor::SparseTensor;
///
/// // Two sub-ensembles sharing a 2-value pivot mode.
/// let x1 = SparseTensor::from_entries(&[2, 2], &[(vec![0, 1], 2.0)]).unwrap();
/// let x2 = SparseTensor::from_entries(&[2, 3], &[(vec![0, 2], 4.0)]).unwrap();
/// let (j, report) = stitch(&x1, &x2, 1, StitchKind::Join).unwrap();
/// assert_eq!(j.dims(), &[2, 2, 3]);
/// assert_eq!(j.get(&[0, 1, 2]), Some(3.0)); // (2 + 4) / 2
/// assert_eq!(report.shared_pivot_configs, 1);
/// ```
///
/// # Errors
///
/// As for [`stitch_multi`].
pub fn stitch(
    x1: &SparseTensor,
    x2: &SparseTensor,
    k: usize,
    kind: StitchKind,
) -> Result<(SparseTensor, StitchReport)> {
    stitch_multi(&[x1, x2], k, kind)
}

/// Stitches `S ≥ 2` sub-ensemble tensors sharing their first `k` (pivot)
/// modes into one join tensor with modes `[pivot…, free₁…, …, free_S…]`.
/// With `S > 2` this extends the paper: finer partitions buy more
/// effective density per simulation, at the cost of fixing more
/// parameters per sub-system (the `ablation_partitions` bench).
///
/// See the module docs for which cells exist, their values and the order
/// they are produced in.
///
/// # Errors
///
/// * [`StitchError::TooFewInputs`] for fewer than two sub-tensors.
/// * [`StitchError::InvalidPivotCount`] if `k` is 0 or not smaller than
///   every order.
/// * [`StitchError::PivotDimMismatch`] if the pivot extents disagree.
pub fn stitch_multi(
    subs: &[&SparseTensor],
    k: usize,
    kind: StitchKind,
) -> Result<(SparseTensor, StitchReport)> {
    let (first, last) = match subs {
        [first, .., last] => (first, last),
        _ => return Err(StitchError::TooFewInputs { count: subs.len() }),
    };
    if subs.iter().any(|x| k == 0 || k >= x.order()) {
        return Err(StitchError::InvalidPivotCount {
            k,
            orders: subs.iter().map(|x| x.order()).collect(),
        });
    }
    for x in subs {
        if let Some(mode) = (0..k).find(|&m| x.dims()[m] != first.dims()[m]) {
            return Err(StitchError::PivotDimMismatch {
                mode,
                dims: (first.dims()[mode], x.dims()[mode]),
            });
        }
    }

    let lattice = JoinLattice::new(subs, k, kind);
    let splits: Vec<Split> = subs
        .iter()
        .enumerate()
        .map(|(s, x)| split(x, s, &lattice))
        .collect();
    let pivots = merge_pivots(&splits);
    let groups_at = |ranges: &[Range<usize>]| -> Vec<PivotGroup<'_>> {
        splits
            .iter()
            .zip(ranges)
            .map(|(s, r)| PivotGroup {
                free: &s.free[r.clone()],
                values: &s.values[r.clone()],
            })
            .collect()
    };
    let join_nnz: usize = pivots
        .iter()
        .map(|(_, ranges)| lattice.cell_count(&groups_at(ranges)))
        .sum();

    let mut indices: Vec<u64> = Vec::with_capacity(join_nnz);
    let mut values: Vec<f64> = Vec::with_capacity(join_nnz);
    let mut shared_pivots = 0usize;
    for (p, ranges) in &pivots {
        if ranges.iter().all(|r| !r.is_empty()) {
            shared_pivots += 1;
        }
        lattice.emit_pivot(*p, &groups_at(ranges), &mut indices, &mut values);
    }
    debug_assert_eq!(indices.len(), join_nnz);

    let join_dims: Vec<usize> = first.dims()[..k]
        .iter()
        .chain(subs.iter().flat_map(|x| &x.dims()[k..]))
        .copied()
        .collect();
    let join = SparseTensor::from_sorted_linear(&join_dims, indices, values)?;
    let report = StitchReport {
        join_nnz: join.nnz(),
        join_density: join.density(),
        shared_pivot_configs: shared_pivots,
        input_nnz: (first.nnz(), last.nnz()),
    };
    Ok((join, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2td_tensor::Shape;

    /// X1: modes [pivot(2), a(2)]; X2: modes [pivot(2), b(3)].
    fn small_inputs() -> (SparseTensor, SparseTensor) {
        let x1 = SparseTensor::from_entries(
            &[2, 2],
            &[(vec![0, 0], 1.0), (vec![0, 1], 2.0), (vec![1, 0], 3.0)],
        )
        .unwrap();
        let x2 = SparseTensor::from_entries(
            &[2, 3],
            &[(vec![0, 0], 10.0), (vec![0, 2], 20.0), (vec![1, 1], 30.0)],
        )
        .unwrap();
        (x1, x2)
    }

    #[test]
    fn join_produces_all_matching_pairs() {
        let (x1, x2) = small_inputs();
        let (j, report) = stitch(&x1, &x2, 1, StitchKind::Join).unwrap();
        assert_eq!(j.dims(), &[2, 2, 3]);
        // Pivot 0: X1 has {a=0: 1, a=1: 2}, X2 has {b=0: 10, b=2: 20} => 4 pairs.
        // Pivot 1: X1 has {a=0: 3}, X2 has {b=1: 30} => 1 pair.
        assert_eq!(j.nnz(), 5);
        assert_eq!(report.join_nnz, 5);
        assert_eq!(report.shared_pivot_configs, 2);
        assert_eq!(j.get(&[0, 0, 0]), Some(5.5)); // (1+10)/2
        assert_eq!(j.get(&[0, 1, 2]), Some(11.0)); // (2+20)/2
        assert_eq!(j.get(&[1, 0, 1]), Some(16.5)); // (3+30)/2
        assert_eq!(j.get(&[0, 0, 1]), None); // b=1 missing at pivot 0
    }

    #[test]
    fn zero_join_adds_half_entries() {
        let (x1, x2) = small_inputs();
        let (j, _) = stitch(&x1, &x2, 1, StitchKind::ZeroJoin).unwrap();
        // Pivot 0: x1 entries (2) x F2 {0,1,2} = 6; x2-only pairs: b=... f1 set {0,1}
        //   x2 entries at pivot 0 with f1 not in x1[0]: none missing (both f1 present).
        // Pivot 1: x1 entry (a=0) x F2 (3) = 3; x2 entry (b=1) x F1 {0,1}: f1=1 missing => 1.
        assert_eq!(j.nnz(), 10);
        // Missing partner at pivot 0, b=1: value 2/2 = 1 for (a=1).
        assert_eq!(j.get(&[0, 1, 1]), Some(1.0));
        // x2-side zero-join at pivot 1: (a=1, b=1) = 30/2.
        assert_eq!(j.get(&[1, 1, 1]), Some(15.0));
        // Matching pairs still averaged.
        assert_eq!(j.get(&[0, 0, 0]), Some(5.5));
    }

    #[test]
    fn zero_join_is_superset_of_join() {
        let (x1, x2) = small_inputs();
        let (j, _) = stitch(&x1, &x2, 1, StitchKind::Join).unwrap();
        let (zj, _) = stitch(&x1, &x2, 1, StitchKind::ZeroJoin).unwrap();
        assert!(zj.nnz() >= j.nnz());
        for (idx, v) in j.iter() {
            assert_eq!(
                zj.get(&idx),
                Some(v),
                "join entry {idx:?} lost in zero-join"
            );
        }
    }

    #[test]
    fn full_density_join_equals_zero_join() {
        // When every (pivot, free) pair exists, zero-join degenerates to join.
        let full = |dims: &[usize], offset: f64| {
            let shape = Shape::new(dims);
            let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
                .map(|l| (shape.multi_index(l), l as f64 + offset))
                .collect();
            SparseTensor::from_entries(dims, &entries).unwrap()
        };
        let x1 = full(&[3, 2], 1.0);
        let x2 = full(&[3, 2], 100.0);
        let (j, _) = stitch(&x1, &x2, 1, StitchKind::Join).unwrap();
        let (zj, _) = stitch(&x1, &x2, 1, StitchKind::ZeroJoin).unwrap();
        assert_eq!(j, zj);
        assert_eq!(j.nnz(), 3 * 2 * 2);
        assert!((j.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn effective_density_squares() {
        // P pivots, E free configs each, fully crossed: join nnz = P * E^2
        // from 2 * P * E input cells (Figure 6 of the paper).
        let p = 4;
        let e = 5;
        let mk = |seed: f64| {
            let entries: Vec<(Vec<usize>, f64)> = (0..p)
                .flat_map(|pi| (0..e).map(move |fi| (vec![pi, fi], seed + (pi * e + fi) as f64)))
                .collect();
            SparseTensor::from_entries(&[p, e], &entries).unwrap()
        };
        let x1 = mk(0.0);
        let x2 = mk(50.0);
        let (j, report) = stitch(&x1, &x2, 1, StitchKind::Join).unwrap();
        assert_eq!(report.input_nnz, (p * e, p * e));
        assert_eq!(j.nnz(), p * e * e);
    }

    #[test]
    fn multi_pivot_stitch() {
        // k = 2 pivot modes.
        let x1 = SparseTensor::from_entries(&[2, 2, 2], &[(vec![0, 1, 0], 2.0)]).unwrap();
        let x2 = SparseTensor::from_entries(&[2, 2, 3], &[(vec![0, 1, 2], 4.0)]).unwrap();
        let (j, r) = stitch(&x1, &x2, 2, StitchKind::Join).unwrap();
        assert_eq!(j.dims(), &[2, 2, 2, 3]);
        assert_eq!(j.get(&[0, 1, 0, 2]), Some(3.0));
        assert_eq!(r.shared_pivot_configs, 1);
    }

    #[test]
    fn disjoint_pivots_produce_empty_join() {
        let x1 = SparseTensor::from_entries(&[2, 2], &[(vec![0, 0], 1.0)]).unwrap();
        let x2 = SparseTensor::from_entries(&[2, 2], &[(vec![1, 0], 1.0)]).unwrap();
        let (j, r) = stitch(&x1, &x2, 1, StitchKind::Join).unwrap();
        assert_eq!(j.nnz(), 0);
        assert_eq!(r.shared_pivot_configs, 0);
        // Zero-join still produces the half entries.
        let (zj, _) = stitch(&x1, &x2, 1, StitchKind::ZeroJoin).unwrap();
        assert_eq!(zj.nnz(), 2);
        assert_eq!(zj.get(&[0, 0, 0]), Some(0.5));
        assert_eq!(zj.get(&[1, 0, 0]), Some(0.5));
    }

    #[test]
    fn validation_errors() {
        let (x1, x2) = small_inputs();
        assert!(matches!(
            stitch(&x1, &x2, 0, StitchKind::Join),
            Err(StitchError::InvalidPivotCount { .. })
        ));
        assert!(matches!(
            stitch(&x1, &x2, 2, StitchKind::Join),
            Err(StitchError::InvalidPivotCount { .. })
        ));
        let bad = SparseTensor::from_entries(&[3, 2], &[(vec![0, 0], 1.0)]).unwrap();
        assert!(matches!(
            stitch(&x1, &bad, 1, StitchKind::Join),
            Err(StitchError::PivotDimMismatch { .. })
        ));
    }

    #[test]
    fn join_values_are_symmetric_in_inputs() {
        // stitch(x1, x2) and stitch(x2, x1) hold the same values with
        // free-mode blocks swapped.
        let (x1, x2) = small_inputs();
        let (j12, _) = stitch(&x1, &x2, 1, StitchKind::Join).unwrap();
        let (j21, _) = stitch(&x2, &x1, 1, StitchKind::Join).unwrap();
        assert_eq!(j12.nnz(), j21.nnz());
        for (idx, v) in j12.iter() {
            let swapped = vec![idx[0], idx[2], idx[1]];
            assert_eq!(j21.get(&swapped), Some(v));
        }
    }

    fn full(dims: &[usize], offset: f64) -> SparseTensor {
        let shape = Shape::new(dims);
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .map(|l| (shape.multi_index(l), offset + l as f64))
            .collect();
        SparseTensor::from_entries(dims, &entries).unwrap()
    }

    #[test]
    fn two_way_multi_matches_pairwise_stitch() {
        let x1 = full(&[3, 2], 1.0);
        let x2 = full(&[3, 4], 100.0);
        for kind in [StitchKind::Join, StitchKind::ZeroJoin] {
            let (pair, pr) = stitch(&x1, &x2, 1, kind).unwrap();
            let (multi, mr) = stitch_multi(&[&x1, &x2], 1, kind).unwrap();
            assert_eq!(pair, multi, "{kind:?} disagrees with pairwise stitch");
            assert_eq!(pr.join_nnz, mr.join_nnz);
            assert_eq!(pr.shared_pivot_configs, mr.shared_pivot_configs);
        }
    }

    #[test]
    fn two_way_multi_matches_pairwise_on_thin_inputs() {
        let thin = |x: &SparseTensor, m: usize| {
            let entries: Vec<(Vec<usize>, f64)> = x
                .iter()
                .enumerate()
                .filter(|(i, _)| i % m != 0)
                .map(|(_, e)| e)
                .collect();
            SparseTensor::from_entries(x.dims(), &entries).unwrap()
        };
        let x1 = thin(&full(&[4, 3], 1.0), 3);
        let x2 = thin(&full(&[4, 5], 50.0), 4);
        for kind in [StitchKind::Join, StitchKind::ZeroJoin] {
            let (pair, _) = stitch(&x1, &x2, 1, kind).unwrap();
            let (multi, _) = stitch_multi(&[&x1, &x2], 1, kind).unwrap();
            assert_eq!(pair, multi, "{kind:?} disagrees on thin inputs");
        }
    }

    #[test]
    fn three_way_join_counts_and_values() {
        let x1 = full(&[2, 2], 0.0);
        let x2 = full(&[2, 3], 10.0);
        let x3 = full(&[2, 2], 100.0);
        let (j, report) = stitch_multi(&[&x1, &x2, &x3], 1, StitchKind::Join).unwrap();
        assert_eq!(j.dims(), &[2, 2, 3, 2]);
        assert_eq!(j.nnz(), 2 * 2 * 3 * 2);
        assert_eq!(report.shared_pivot_configs, 2);
        // Spot-check a value: mean of the three sources.
        let v = j.get(&[1, 0, 2, 1]).unwrap();
        let expected =
            (x1.get(&[1, 0]).unwrap() + x2.get(&[1, 2]).unwrap() + x3.get(&[1, 1]).unwrap()) / 3.0;
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn three_way_zero_join_fills_missing_with_zero() {
        let x1 = SparseTensor::from_entries(&[2, 2], &[(vec![0, 0], 3.0)]).unwrap();
        let x2 = SparseTensor::from_entries(&[2, 2], &[(vec![0, 1], 6.0)]).unwrap();
        let x3 = SparseTensor::from_entries(&[2, 2], &[(vec![1, 0], 9.0)]).unwrap();
        let (j, _) = stitch_multi(&[&x1, &x2, &x3], 1, StitchKind::ZeroJoin).unwrap();
        // Pivot 0: x1 and x2 present, x3 absent -> (3 + 6 + 0)/3 at their
        // free choices.
        assert_eq!(j.get(&[0, 0, 1, 0]), Some(3.0));
        // Pivot 1: only x3 -> 9/3.
        assert_eq!(j.get(&[1, 0, 1, 0]), Some(3.0));
        // Plain join is empty (no pivot has all three).
        let (pj, _) = stitch_multi(&[&x1, &x2, &x3], 1, StitchKind::Join).unwrap();
        assert_eq!(pj.nnz(), 0);
    }

    #[test]
    fn multi_validation_errors() {
        let x = full(&[2, 2], 0.0);
        assert!(matches!(
            stitch_multi(&[&x], 1, StitchKind::Join),
            Err(StitchError::TooFewInputs { count: 1 })
        ));
        assert!(stitch_multi(&[&x, &x], 0, StitchKind::Join).is_err());
        assert!(stitch_multi(&[&x, &x], 2, StitchKind::Join).is_err());
        let bad = full(&[3, 2], 0.0);
        assert!(stitch_multi(&[&x, &bad], 1, StitchKind::Join).is_err());
    }

    #[test]
    fn four_way_effective_density() {
        // 4 sub-systems, each P x E complete: join has P * E^4 cells from
        // 4 * P * E inputs.
        let p = 3;
        let e = 2;
        let subs: Vec<SparseTensor> = (0..4).map(|s| full(&[p, e], s as f64 * 10.0)).collect();
        let refs: Vec<&SparseTensor> = subs.iter().collect();
        let (j, _) = stitch_multi(&refs, 1, StitchKind::Join).unwrap();
        assert_eq!(j.nnz(), p * e.pow(4));
    }

    #[test]
    fn signed_zero_sources_keep_their_sign_at_two_and_three_sub_tensors() {
        // The first present source starts the sum, so -0.0 halves to -0.0
        // instead of collapsing to 0.0 + -0.0 = +0.0.
        let x1 = SparseTensor::from_entries(&[1, 1], &[(vec![0, 0], -0.0)]).unwrap();
        let x2 = SparseTensor::from_entries(&[1, 2], &[(vec![0, 1], -0.0)]).unwrap();
        for kind in [StitchKind::Join, StitchKind::ZeroJoin] {
            let (pair, _) = stitch(&x1, &x2, 1, kind).unwrap();
            let (multi, _) = stitch_multi(&[&x1, &x2], 1, kind).unwrap();
            assert_eq!(pair, multi);
            let v = multi.get(&[0, 0, 1]).unwrap();
            assert_eq!(v.to_bits(), (-0.0f64).to_bits(), "{kind:?}");
        }
        let (three, _) = stitch_multi(&[&x1, &x2, &x1], 1, StitchKind::Join).unwrap();
        assert_eq!(
            three.get(&[0, 0, 1, 0]).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
    }
}
