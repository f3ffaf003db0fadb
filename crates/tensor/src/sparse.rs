//! Sparse COO tensor.
//!
//! Simulation ensembles are inherently sparse (Section I-B of the paper):
//! a budget `B` of simulations in an `I₁×…×I_N` space leaves almost every
//! cell null. `SparseTensor` stores the executed simulations as sorted
//! `(linear index, value)` pairs.
//!
//! Null cells and *zero-valued results* are distinct concepts in the
//! ensemble setting: a stored entry with value `0.0` is a simulation that
//! ran and produced 0, while an absent entry is a simulation that never
//! ran. The decomposition kernels, like the paper's, treat absent cells as
//! zeros; the stitching layer (crate `m2td-stitch`) is where the
//! distinction matters.

use crate::dense::DenseTensor;
use crate::error::TensorError;
use crate::shape::Shape;
use crate::Result;
use m2td_linalg::Matrix;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A sparse `N`-mode tensor in coordinate format, sorted by row-major
/// linear index, with at most one entry per coordinate.
///
/// Entries are immutable after construction; the only mutable state is a
/// shared, lazily-built per-mode scatter-index cache that the TTM scatter
/// kernels use to turn the entry stream into contiguous per-output-cell
/// groups. Clones share the cache (the entries it indexes are the same),
/// and equality ignores it.
#[derive(Debug, Clone)]
pub struct SparseTensor {
    shape: Shape,
    /// Row-major linear indices, strictly increasing.
    indices: Vec<u64>,
    /// Values, parallel to `indices`.
    values: Vec<f64>,
    /// Lazily-built per-mode scatter indices (see [`ModeScatterIndex`]).
    cache: Arc<ScatterCache>,
}

impl PartialEq for SparseTensor {
    fn eq(&self, other: &Self) -> bool {
        // The scatter cache is derived state; two tensors with the same
        // entries are equal regardless of which indices have been built.
        self.shape == other.shape && self.indices == other.indices && self.values == other.values
    }
}

impl SparseTensor {
    fn assemble(shape: Shape, indices: Vec<u64>, values: Vec<f64>) -> Self {
        Self {
            shape,
            indices,
            values,
            cache: Arc::default(),
        }
    }

    /// Creates an empty sparse tensor of the given shape.
    pub fn empty(dims: &[usize]) -> Self {
        Self::assemble(Shape::new(dims), Vec::new(), Vec::new())
    }

    /// Creates a sparse tensor from `(multi-index, value)` pairs.
    ///
    /// Duplicate coordinates are rejected; out-of-bounds indices error.
    pub fn from_entries(dims: &[usize], entries: &[(Vec<usize>, f64)]) -> Result<Self> {
        let shape = Shape::new(dims);
        let mut pairs: Vec<(u64, f64)> = Vec::with_capacity(entries.len());
        for (idx, v) in entries {
            shape.check_index(idx)?;
            pairs.push((shape.linear_index(idx) as u64, *v));
        }
        pairs.sort_unstable_by_key(|&(i, _)| i);
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(TensorError::DuplicateEntry {
                    index: shape.multi_index(w[0].0 as usize),
                    shape: dims.to_vec(),
                });
            }
        }
        let (indices, values) = pairs.into_iter().unzip();
        Ok(Self::assemble(shape, indices, values))
    }

    /// Creates a sparse tensor from pre-sorted, strictly increasing linear
    /// indices and parallel values. This is the fast path used by the
    /// stitching layer, which produces entries already in row-major order.
    ///
    /// Returns an error if the invariants do not hold.
    pub fn from_sorted_linear(dims: &[usize], indices: Vec<u64>, values: Vec<f64>) -> Result<Self> {
        let shape = Shape::new(dims);
        if indices.len() != values.len() {
            return Err(TensorError::ShapeMismatch {
                expected: vec![indices.len()],
                actual: vec![values.len()],
                op: "from_sorted_linear",
            });
        }
        let total = shape.num_elements() as u64;
        if indices.last().is_some_and(|&l| l >= total) {
            return Err(TensorError::IndexOutOfBounds {
                index: shape.multi_index(*indices.last().unwrap() as usize % total.max(1) as usize),
                shape: dims.to_vec(),
            });
        }
        if indices.windows(2).any(|w| w[0] >= w[1]) {
            return Err(TensorError::ShapeMismatch {
                expected: vec![],
                actual: vec![],
                op: "from_sorted_linear (indices not strictly increasing)",
            });
        }
        Ok(Self::assemble(shape, indices, values))
    }

    /// The tensor shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Mode extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Tensor order.
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Fraction of cells that are stored: `nnz / Π I_n`.
    pub fn density(&self) -> f64 {
        let total = self.shape.num_elements();
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Returns the stored value at `index`, or `None` when the cell is null
    /// (i.e. the simulation was never run).
    pub fn get(&self, index: &[usize]) -> Option<f64> {
        self.shape.check_index(index).ok()?;
        let lin = self.shape.linear_index(index) as u64;
        self.indices
            .binary_search(&lin)
            .ok()
            .map(|pos| self.values[pos])
    }

    /// Iterates over `(multi-index, value)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<usize>, f64)> + '_ {
        self.indices
            .iter()
            .zip(self.values.iter())
            .map(|(&lin, &v)| (self.shape.multi_index(lin as usize), v))
    }

    /// Iterates over raw `(linear index, value)` pairs.
    pub fn iter_linear(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.indices
            .iter()
            .zip(self.values.iter())
            .map(|(&l, &v)| (l, v))
    }

    /// Frobenius norm over the stored entries.
    pub fn frobenius_norm(&self) -> f64 {
        m2td_linalg::norm2(&self.values)
    }

    /// Materializes the tensor densely (nulls become 0). Intended for small
    /// shapes (tests, ground-truth comparison); errors on empty shapes.
    pub fn to_dense(&self) -> Result<DenseTensor> {
        let mut out = DenseTensor::zeros(self.dims());
        if out.num_elements() == 0 && self.nnz() > 0 {
            return Err(TensorError::EmptyTensor);
        }
        let data = out.as_mut_slice();
        for (&lin, &v) in self.indices.iter().zip(self.values.iter()) {
            data[lin as usize] = v;
        }
        Ok(out)
    }

    /// Builds a sparse tensor from the non-zero cells of a dense tensor.
    pub fn from_dense(dense: &DenseTensor) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (lin, &v) in dense.as_slice().iter().enumerate() {
            if v != 0.0 {
                indices.push(lin as u64);
                values.push(v);
            }
        }
        Self::assemble(dense.shape().clone(), indices, values)
    }

    /// Mode-`n` matricization materialized densely
    /// (`I_n × Π_{m≠n} I_m`). Only for small tensors/tests — the pipeline
    /// itself uses [`Self::unfold_gram`].
    pub fn unfold(&self, mode: usize) -> Result<Matrix> {
        self.shape.check_mode(mode)?;
        let rows = self.shape.dim(mode);
        let cols = self.shape.unfold_cols(mode);
        let mut out = Matrix::zeros(rows, cols);
        let mut idx = vec![0usize; self.order()];
        for (&lin, &v) in self.indices.iter().zip(self.values.iter()) {
            self.shape.multi_index_into(lin as usize, &mut idx);
            out.set(idx[mode], self.shape.unfold_col_index(mode, &idx), v);
        }
        Ok(out)
    }

    /// Gram matrix of the mode-`n` matricization, `X₍ₙ₎ X₍ₙ₎ᵀ`
    /// (`I_n × I_n`), computed directly from the sparse entries without
    /// materializing the (enormous) unfolding.
    ///
    /// Entries are grouped by their unfolding column (the "rest index");
    /// each group contributes the outer product of its column vector.
    pub fn unfold_gram(&self, mode: usize) -> Result<Matrix> {
        self.shape.check_mode(mode)?;
        let _span = m2td_obs::span!("tensor.unfold_gram", mode = mode);
        let n = self.shape.dim(mode);
        let mut out = Matrix::zeros(n, n);

        // Group (mode index, value) by unfolding column. BTreeMap keeps
        // the accumulation order deterministic, so Gram matrices (and the
        // eigenvectors derived from them) are bit-identical across runs
        // and across the serial/distributed code paths.
        let mut cols: BTreeMap<u64, Vec<(u32, f64)>> = BTreeMap::new();
        let mut idx = vec![0usize; self.order()];
        for (&lin, &v) in self.indices.iter().zip(self.values.iter()) {
            self.shape.multi_index_into(lin as usize, &mut idx);
            let c = self.shape.unfold_col_index(mode, &idx) as u64;
            cols.entry(c).or_default().push((idx[mode] as u32, v));
        }
        for group in cols.values() {
            for &(i, vi) in group {
                for &(j, vj) in group {
                    if j >= i {
                        let cur = out.get(i as usize, j as usize);
                        out.set(i as usize, j as usize, cur + vi * vj);
                    }
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                let v = out.get(j, i);
                out.set(i, j, v);
            }
        }
        Ok(out)
    }

    /// Returns the mode-`mode` scatter index, building and caching it on
    /// first use. Callers must have validated `mode` already.
    pub(crate) fn scatter_index(&self, mode: usize) -> Arc<ModeScatterIndex> {
        let mut map = self.cache.per_mode.lock().unwrap();
        map.entry(mode)
            .or_insert_with(|| Arc::new(ModeScatterIndex::build(self, mode)))
            .clone()
    }

    /// Whether a scatter index for `mode` has already been built.
    pub(crate) fn has_scatter_index(&self, mode: usize) -> bool {
        self.cache.per_mode.lock().unwrap().contains_key(&mode)
    }
}

/// Lazily-built per-mode scatter indices, shared across clones.
#[derive(Debug, Default)]
struct ScatterCache {
    per_mode: Mutex<BTreeMap<usize, Arc<ModeScatterIndex>>>,
}

/// Mode-sorted view of a sparse tensor's entries for the TTM scatter
/// kernels.
///
/// An entry with linear index `lin` decomposes against mode `n` as
/// `lin = high·(stride·I_n) + i_n·stride + low` where `stride` is the
/// row-major stride of mode `n`; the output cells it touches in an
/// `X ×_n U` product all share the base `high·(stride·J) + low`. The
/// index groups entries by that `(high, low)` key — which is independent
/// of the output extent `J`, so one index serves every factor width —
/// with a *stable* sort, so within each group entries keep the original
/// stream order. Replaying a group sequentially therefore produces the
/// exact per-cell accumulation order of the serial entry-stream loop,
/// which is what makes the parallel scatter bitwise thread-invariant.
#[derive(Debug)]
pub(crate) struct ModeScatterIndex {
    /// Per group, the `high` part of the output base.
    highs: Vec<usize>,
    /// Per group, the `low` part of the output base (`low < stride`).
    lows: Vec<usize>,
    /// Half-open entry ranges: group `g` owns `entries[starts[g]..starts[g+1]]`.
    starts: Vec<usize>,
    /// `(i_n, value)` per entry, permuted so each group is contiguous and
    /// internally in original stream order.
    entries: Vec<(u32, f64)>,
    /// Row-major stride of the indexed mode (product of trailing extents).
    stride: usize,
}

impl ModeScatterIndex {
    fn build(x: &SparseTensor, mode: usize) -> Self {
        let dims = x.dims();
        let stride: usize = dims[mode + 1..].iter().product();
        let in_block = stride * dims[mode];
        let mut tagged: Vec<(usize, usize, u32, f64)> = Vec::with_capacity(x.nnz());
        for (&lin, &v) in x.indices.iter().zip(x.values.iter()) {
            let lin = lin as usize;
            let high = lin / in_block;
            let rest = lin % in_block;
            tagged.push((high, rest % stride, (rest / stride) as u32, v));
        }
        // Stable: ties (same output cell) keep stream order.
        tagged.sort_by_key(|&(h, l, _, _)| (h, l));
        let mut highs = Vec::new();
        let mut lows = Vec::new();
        let mut starts = vec![0usize];
        let mut entries = Vec::with_capacity(tagged.len());
        for (h, l, i_n, v) in tagged {
            if highs.last() != Some(&h) || lows.last() != Some(&l) {
                if !entries.is_empty() {
                    starts.push(entries.len());
                }
                highs.push(h);
                lows.push(l);
            }
            entries.push((i_n, v));
        }
        starts.push(entries.len());
        Self {
            highs,
            lows,
            starts,
            entries,
            stride,
        }
    }

    /// Number of distinct output cells (groups).
    #[inline]
    pub(crate) fn num_groups(&self) -> usize {
        self.highs.len()
    }

    /// The `(high, low)` base decomposition of group `g`.
    #[inline]
    pub(crate) fn group_key(&self, g: usize) -> (usize, usize) {
        (self.highs[g], self.lows[g])
    }

    /// The `(i_n, value)` entries of group `g`, in stream order.
    #[inline]
    pub(crate) fn group_entries(&self, g: usize) -> &[(u32, f64)] {
        &self.entries[self.starts[g]..self.starts[g + 1]]
    }

    /// Row-major stride of the indexed mode.
    #[inline]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseTensor {
        SparseTensor::from_entries(
            &[3, 4, 2],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![1, 2, 0], -2.0),
                (vec![2, 3, 1], 3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_get() {
        let t = sample();
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.get(&[1, 2, 0]), Some(-2.0));
        assert_eq!(t.get(&[1, 2, 1]), None);
        assert_eq!(t.get(&[9, 9, 9]), None);
    }

    #[test]
    fn duplicate_entries_rejected_as_duplicate_entry() {
        // Regression: this used to be misreported as IndexOutOfBounds.
        let r = SparseTensor::from_entries(&[2, 2], &[(vec![0, 0], 1.0), (vec![0, 0], 2.0)]);
        match r {
            Err(TensorError::DuplicateEntry { index, shape }) => {
                assert_eq!(index, vec![0, 0]);
                assert_eq!(shape, vec![2, 2]);
            }
            other => panic!("expected DuplicateEntry, got {other:?}"),
        }
    }

    #[test]
    fn scatter_index_groups_cover_entries_in_stream_order() {
        let t = sample();
        for mode in 0..3 {
            let idx = t.scatter_index(mode);
            assert!(t.has_scatter_index(mode));
            let total: usize = (0..idx.num_groups())
                .map(|g| idx.group_entries(g).len())
                .sum();
            assert_eq!(total, t.nnz());
            // Group keys are strictly increasing lexicographically.
            for g in 1..idx.num_groups() {
                assert!(idx.group_key(g - 1) < idx.group_key(g));
            }
        }
        // Clones share the cache; equality ignores it.
        let c = t.clone();
        assert!(c.has_scatter_index(0));
        let fresh = sample();
        assert!(!fresh.has_scatter_index(0));
        assert_eq!(fresh, t);
    }

    #[test]
    fn out_of_bounds_rejected() {
        assert!(SparseTensor::from_entries(&[2, 2], &[(vec![2, 0], 1.0)]).is_err());
    }

    #[test]
    fn density_calculation() {
        let t = sample();
        assert!((t.density() - 3.0 / 24.0).abs() < 1e-15);
        assert_eq!(SparseTensor::empty(&[0]).density(), 0.0);
    }

    #[test]
    fn dense_round_trip() {
        let t = sample();
        let d = t.to_dense().unwrap();
        assert_eq!(d.get(&[2, 3, 1]), 3.0);
        assert_eq!(d.get(&[0, 1, 0]), 0.0);
        let back = SparseTensor::from_dense(&d);
        assert_eq!(back, t);
    }

    #[test]
    fn sparse_unfold_matches_dense_unfold() {
        let t = sample();
        let d = t.to_dense().unwrap();
        for mode in 0..3 {
            let su = t.unfold(mode).unwrap();
            let du = d.unfold(mode).unwrap();
            assert_eq!(su, du, "unfold mismatch in mode {mode}");
        }
    }

    #[test]
    fn unfold_gram_matches_explicit_gram() {
        let t = sample();
        for mode in 0..3 {
            let g = t.unfold_gram(mode).unwrap();
            let m = t.unfold(mode).unwrap();
            let explicit = m.gram_rows();
            let diff = g.sub(&explicit).unwrap().frobenius_norm();
            assert!(diff < 1e-12, "gram mismatch in mode {mode}: {diff}");
        }
    }

    #[test]
    fn frobenius_norm_counts_stored_values() {
        let t =
            SparseTensor::from_entries(&[2, 2], &[(vec![0, 0], 3.0), (vec![1, 1], 4.0)]).unwrap();
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn iter_is_sorted_row_major() {
        let t = sample();
        let idxs: Vec<_> = t.iter().map(|(i, _)| i).collect();
        assert_eq!(idxs[0], vec![0, 0, 0]);
        assert_eq!(idxs[2], vec![2, 3, 1]);
    }

    #[test]
    fn empty_tensor_behaviour() {
        let t = SparseTensor::empty(&[4, 4]);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.frobenius_norm(), 0.0);
        let g = t.unfold_gram(0).unwrap();
        assert_eq!(g.frobenius_norm(), 0.0);
    }

    #[test]
    fn from_sorted_linear_validates() {
        let ok = SparseTensor::from_sorted_linear(&[2, 2], vec![0, 3], vec![1.0, 2.0]).unwrap();
        assert_eq!(ok.get(&[1, 1]), Some(2.0));
        // Length mismatch.
        assert!(SparseTensor::from_sorted_linear(&[2, 2], vec![0], vec![1.0, 2.0]).is_err());
        // Out of range.
        assert!(SparseTensor::from_sorted_linear(&[2, 2], vec![4], vec![1.0]).is_err());
        // Not strictly increasing.
        assert!(SparseTensor::from_sorted_linear(&[2, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        assert!(SparseTensor::from_sorted_linear(&[2, 2], vec![2, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn stored_zero_differs_from_null() {
        let t = SparseTensor::from_entries(&[2, 2], &[(vec![0, 1], 0.0)]).unwrap();
        assert_eq!(t.get(&[0, 1]), Some(0.0));
        assert_eq!(t.get(&[1, 0]), None);
        assert_eq!(t.nnz(), 1);
    }
}
