//! The join and zero-join stitching kernels.
//!
//! Both inputs put their pivot modes first, so an entry's row-major linear
//! index is `p·F + f`, with `p` its pivot configuration and `f` its index
//! on the free lattice of size `F`. Sorted by linear index, each input is
//! therefore already grouped by pivot with free indices ascending inside a
//! group. [`stitch`] merges the two group lists and emits join entries in
//! nested ascending `(p, f₁, f₂)` order, which is ascending join index
//! `(p·F₁ + f₁)·F₂ + f₂`. The entries go straight into
//! [`SparseTensor::from_sorted_linear`]: there is no hash map, no
//! multi-index round trip and no final sort.

use crate::error::StitchError;
use crate::Result;
use m2td_tensor::SparseTensor;
use std::ops::Range;

/// Which stitching rule to apply (Section V-C.1 vs V-C.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StitchKind {
    /// Plain join: only pairs where both simulations exist.
    Join,
    /// Zero-join: missing partners are treated as simulations with value 0,
    /// producing `x/2` entries and boosting effective density.
    ZeroJoin,
}

/// Summary statistics of a stitch, used by experiment reports.
#[derive(Debug, Clone, PartialEq)]
pub struct StitchReport {
    /// Number of entries in the join tensor.
    pub join_nnz: usize,
    /// Effective density of the join tensor.
    pub join_density: f64,
    /// Number of pivot configurations present in both sub-ensembles.
    pub shared_pivot_configs: usize,
    /// Input entry counts `(nnz(X1), nnz(X2))`.
    pub input_nnz: (usize, usize),
}

/// One input split against its `k` pivot modes, in stream order.
struct Split {
    /// Free-lattice index per entry, ascending within each pivot group.
    free: Vec<u64>,
    values: Vec<f64>,
    /// `(pivot, entries)` per pivot configuration present, pivot ascending.
    groups: Vec<(u64, Range<usize>)>,
    /// Size of the free lattice.
    free_size: u64,
}

fn split(x: &SparseTensor, k: usize) -> Split {
    let free_size = x.dims()[k..].iter().product::<usize>() as u64;
    let mut free = Vec::with_capacity(x.nnz());
    let mut values = Vec::with_capacity(x.nnz());
    let mut groups: Vec<(u64, Range<usize>)> = Vec::new();
    for (e, (lin, v)) in x.iter_linear().enumerate() {
        let p = lin / free_size;
        match groups.last_mut() {
            Some((q, range)) if *q == p => range.end = e + 1,
            _ => groups.push((p, e..e + 1)),
        }
        free.push(lin % free_size);
        values.push(v);
    }
    Split {
        free,
        values,
        groups,
        free_size,
    }
}

impl Split {
    /// The distinct free configurations present anywhere, ascending.
    fn free_set(&self) -> Vec<u64> {
        let mut set = self.free.clone();
        set.sort_unstable();
        set.dedup();
        set
    }
}

/// Every pivot present on either side, ascending, with each side's entry
/// range (empty when that side lacks the pivot).
fn merge_pivots(
    g1: &[(u64, Range<usize>)],
    g2: &[(u64, Range<usize>)],
) -> Vec<(u64, Range<usize>, Range<usize>)> {
    let (mut a, mut b) = (g1.iter().peekable(), g2.iter().peekable());
    let mut out = Vec::with_capacity(g1.len().max(g2.len()));
    loop {
        let p = match (a.peek(), b.peek()) {
            (None, None) => return out,
            (Some(x), None) | (None, Some(x)) => x.0,
            (Some(x), Some(y)) => x.0.min(y.0),
        };
        let r1 = a.next_if(|g| g.0 == p).map_or(0..0, |g| g.1.clone());
        let r2 = b.next_if(|g| g.0 == p).map_or(0..0, |g| g.1.clone());
        out.push((p, r1, r2));
    }
}

/// Stitches two sub-ensemble tensors into the join tensor `J`.
///
/// `x1` and `x2` must share their first `k` (pivot) modes; the result has
/// modes `[pivot…, free₁…, free₂…]` and extents taken from the inputs.
/// See the module docs for how entries are produced in sorted order.
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
/// * [`StitchError::InvalidPivotCount`] if `k` is 0 or not smaller than
///   both orders.
/// * [`StitchError::PivotDimMismatch`] if the pivot extents disagree.
pub fn stitch(
    x1: &SparseTensor,
    x2: &SparseTensor,
    k: usize,
    kind: StitchKind,
) -> Result<(SparseTensor, StitchReport)> {
    if k == 0 || k >= x1.order() || k >= x2.order() {
        return Err(StitchError::InvalidPivotCount {
            k,
            orders: (x1.order(), x2.order()),
        });
    }
    for m in 0..k {
        if x1.dims()[m] != x2.dims()[m] {
            return Err(StitchError::PivotDimMismatch {
                mode: m,
                dims: (x1.dims()[m], x2.dims()[m]),
            });
        }
    }

    let (s1, s2) = (split(x1, k), split(x2, k));
    let pivots = merge_pivots(&s1.groups, &s2.groups);
    // Zero-join pairs present entries with every free configuration ever
    // selected on the other side; plain join needs no free sets.
    let (set1, set2) = match kind {
        StitchKind::Join => (Vec::new(), Vec::new()),
        StitchKind::ZeroJoin => (s1.free_set(), s2.free_set()),
    };
    let join_nnz: usize = pivots
        .iter()
        .map(|(_, r1, r2)| match kind {
            StitchKind::Join => r1.len() * r2.len(),
            StitchKind::ZeroJoin if r2.is_empty() => r1.len() * set2.len(),
            StitchKind::ZeroJoin => r1.len() * set2.len() + (set1.len() - r1.len()) * r2.len(),
        })
        .sum();

    let mut indices: Vec<u64> = Vec::with_capacity(join_nnz);
    let mut values: Vec<f64> = Vec::with_capacity(join_nnz);
    let mut shared_pivots = 0usize;
    for (p, r1, r2) in pivots {
        if !r1.is_empty() && !r2.is_empty() {
            shared_pivots += 1;
        }
        let (f1s, v1s) = (&s1.free[r1.clone()], &s1.values[r1]);
        let (f2s, v2s) = (&s2.free[r2.clone()], &s2.values[r2]);
        let row = |f1: u64| (p * s1.free_size + f1) * s2.free_size;
        match kind {
            StitchKind::Join => {
                for (&f1, &v1) in f1s.iter().zip(v1s) {
                    indices.extend(f2s.iter().map(|&f2| row(f1) + f2));
                    values.extend(v2s.iter().map(|&v2| 0.5 * (v1 + v2)));
                }
            }
            StitchKind::ZeroJoin => {
                // A present x1 entry pairs with every selected f2, a
                // missing x2 partner counting as 0. A free1 configuration
                // absent here pairs with x2's present entries only, and
                // only exists when x2 has entries at this pivot.
                let rows = if f2s.is_empty() { f1s } else { &set1[..] };
                let mut c1 = 0;
                for &f1 in rows {
                    if f1s.get(c1) == Some(&f1) {
                        let v1 = v1s[c1];
                        c1 += 1;
                        let mut c2 = 0;
                        for &f2 in &set2 {
                            let v2 = if f2s.get(c2) == Some(&f2) {
                                c2 += 1;
                                v2s[c2 - 1]
                            } else {
                                0.0
                            };
                            indices.push(row(f1) + f2);
                            values.push(0.5 * (v1 + v2));
                        }
                    } else {
                        indices.extend(f2s.iter().map(|&f2| row(f1) + f2));
                        values.extend(v2s.iter().map(|&v2| 0.5 * v2));
                    }
                }
            }
        }
    }
    debug_assert_eq!(indices.len(), join_nnz);

    let mut join_dims: Vec<usize> = x1.dims().to_vec();
    join_dims.extend_from_slice(&x2.dims()[k..]);
    let join = SparseTensor::from_sorted_linear(&join_dims, indices, values)?;
    let report = StitchReport {
        join_nnz: join.nnz(),
        join_density: join.density(),
        shared_pivot_configs: shared_pivots,
        input_nnz: (x1.nnz(), x2.nnz()),
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
}
