//! Multi-mode shape and index arithmetic.

use crate::error::TensorError;
use crate::Result;

/// The shape of an `N`-mode tensor plus precomputed row-major strides.
///
/// All index arithmetic in the crate goes through this type, so the
/// dense buffer layout, sparse linear indices and unfolding maps are
/// guaranteed to agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    dims: Vec<usize>,
    /// Row-major strides: `strides[n] = Π_{m>n} dims[m]`.
    strides: Vec<usize>,
}

impl Shape {
    /// Creates a shape from mode extents. Zero-extent modes are allowed but
    /// produce an empty tensor.
    pub fn new(dims: &[usize]) -> Self {
        let n = dims.len();
        let mut strides = vec![1usize; n];
        for i in (0..n.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        Self {
            dims: dims.to_vec(),
            strides,
        }
    }

    /// Number of modes (tensor order).
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of one mode.
    #[inline]
    pub fn dim(&self, mode: usize) -> usize {
        self.dims[mode]
    }

    /// Row-major strides: `strides()[n] = Π_{m>n} dims[m]`.
    #[inline]
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Total number of elements (`Π dims`), or `None` when the product
    /// overflows `usize`. Serve-scale shapes (e.g. `[1<<22; 3]`) exceed
    /// 2⁶⁴ cells; callers that need the exact count must handle that.
    pub fn checked_num_elements(&self) -> Option<usize> {
        if self.dims.is_empty() {
            return Some(0);
        }
        self.dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
    }

    /// Total number of elements (`Π dims`), saturating at `usize::MAX` on
    /// overflow. The unchecked `iter().product()` used to panic in debug
    /// and silently wrap in release, corrupting `density()` and the
    /// densify-threshold decisions in `TtmPlan`; saturation keeps those
    /// ratios directionally correct (a >2⁶⁴-cell tensor is treated as
    /// having vanishing density). Use [`Self::checked_num_elements`] when
    /// the exact count matters.
    pub fn num_elements(&self) -> usize {
        self.checked_num_elements().unwrap_or(usize::MAX)
    }

    /// Validates a mode id.
    pub fn check_mode(&self, mode: usize) -> Result<()> {
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        Ok(())
    }

    /// Validates a multi-index against this shape.
    pub fn check_index(&self, index: &[usize]) -> Result<()> {
        if index.len() != self.order() || index.iter().zip(self.dims.iter()).any(|(&i, &d)| i >= d)
        {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        Ok(())
    }

    /// Row-major linear index of a multi-index (debug-asserted bounds).
    #[inline]
    pub fn linear_index(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.order());
        let mut lin = 0;
        for ((i, s), d) in index.iter().zip(self.strides.iter()).zip(self.dims.iter()) {
            debug_assert!(i < d, "index component {i} out of bounds for dim {d}");
            lin += i * s;
        }
        lin
    }

    /// Inverse of [`Self::linear_index`]: writes the multi-index into `out`.
    #[inline]
    pub fn multi_index_into(&self, mut lin: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.order());
        for (o, s) in out.iter_mut().zip(self.strides.iter()) {
            *o = lin / s;
            lin %= s;
        }
    }

    /// Inverse of [`Self::linear_index`], allocating.
    pub fn multi_index(&self, lin: usize) -> Vec<usize> {
        let mut out = vec![0; self.order()];
        self.multi_index_into(lin, &mut out);
        out
    }

    /// Number of columns of the mode-`n` unfolding
    /// (`Π_{m≠n} I_m`).
    pub fn unfold_cols(&self, mode: usize) -> usize {
        self.dims
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != mode)
            .map(|(_, &d)| d)
            .product()
    }

    /// Column index of a tensor element in the mode-`n` unfolding
    /// (Kolda & Bader convention: `j = Σ_{k≠n} i_k J_k` with
    /// `J_k = Π_{m<k, m≠n} I_m`).
    pub fn unfold_col_index(&self, mode: usize, index: &[usize]) -> usize {
        let mut j = 0;
        let mut jk = 1;
        for (k, &ik) in index.iter().enumerate() {
            if k == mode {
                continue;
            }
            j += ik * jk;
            jk *= self.dims[k];
        }
        j
    }

    /// Iterates over all multi-indices in row-major order.
    pub fn iter_indices(&self) -> IndexIter<'_> {
        IndexIter {
            shape: self,
            next_lin: 0,
            total: self.num_elements(),
        }
    }
}

/// Iterator over all multi-indices of a shape in row-major order.
pub struct IndexIter<'a> {
    shape: &'a Shape,
    next_lin: usize,
    total: usize,
}

impl Iterator for IndexIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_lin >= self.total {
            return None;
        }
        let idx = self.shape.multi_index(self.next_lin);
        self.next_lin += 1;
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.total - self.next_lin;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.linear_index(&[0, 0, 1]), 1);
        assert_eq!(s.linear_index(&[0, 1, 0]), 4);
        assert_eq!(s.linear_index(&[1, 0, 0]), 12);
        assert_eq!(s.num_elements(), 24);
    }

    #[test]
    fn linear_and_multi_index_are_inverse() {
        let s = Shape::new(&[3, 4, 2, 5]);
        for lin in 0..s.num_elements() {
            let idx = s.multi_index(lin);
            assert_eq!(s.linear_index(&idx), lin);
        }
    }

    #[test]
    fn unfold_col_index_matches_kolda_example() {
        // For a 3x4x2 tensor, mode-0 unfolding has 8 columns; element
        // (i, j, k) lands in column j + 4k.
        let s = Shape::new(&[3, 4, 2]);
        assert_eq!(s.unfold_cols(0), 8);
        assert_eq!(s.unfold_col_index(0, &[1, 2, 0]), 2);
        assert_eq!(s.unfold_col_index(0, &[1, 2, 1]), 6);
        // Mode-1: element (i, j, k) lands in column i + 3k.
        assert_eq!(s.unfold_cols(1), 6);
        assert_eq!(s.unfold_col_index(1, &[2, 0, 1]), 5);
    }

    #[test]
    fn unfold_col_index_is_a_bijection() {
        let s = Shape::new(&[2, 3, 4]);
        for mode in 0..3 {
            let mut seen = vec![false; s.unfold_cols(mode)];
            for idx in s.iter_indices() {
                // Fix the mode index to 0 so each rest-index appears once.
                if idx[mode] != 0 {
                    continue;
                }
                let c = s.unfold_col_index(mode, &idx);
                assert!(!seen[c], "column {c} hit twice");
                seen[c] = true;
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn check_index_detects_out_of_bounds() {
        let s = Shape::new(&[2, 2]);
        assert!(s.check_index(&[1, 1]).is_ok());
        assert!(s.check_index(&[2, 0]).is_err());
        assert!(s.check_index(&[0]).is_err());
    }

    #[test]
    fn check_mode_bounds() {
        let s = Shape::new(&[2, 2]);
        assert!(s.check_mode(1).is_ok());
        assert!(s.check_mode(2).is_err());
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        assert_eq!(Shape::new(&[]).num_elements(), 0);
        assert_eq!(Shape::new(&[3, 0, 2]).num_elements(), 0);
        assert_eq!(Shape::new(&[5]).num_elements(), 5);
        assert_eq!(Shape::new(&[]).checked_num_elements(), Some(0));
        assert_eq!(Shape::new(&[3, 0, 2]).checked_num_elements(), Some(0));
    }

    #[test]
    fn num_elements_saturates_instead_of_wrapping() {
        // A serve-scale shape whose product (2^66) exceeds usize: the
        // unchecked product used to panic in debug / wrap in release.
        let huge = Shape::new(&[1 << 22, 1 << 22, 1 << 22]);
        assert_eq!(huge.checked_num_elements(), None);
        assert_eq!(huge.num_elements(), usize::MAX);
        // A wrap to a small number would make this fail loudly.
        assert!(huge.num_elements() > (1usize << 62));
        // Just-under-the-limit products still compute exactly.
        let fits = Shape::new(&[1 << 31, 1 << 31]);
        assert_eq!(fits.checked_num_elements(), Some(1usize << 62));
        assert_eq!(fits.num_elements(), 1usize << 62);
    }

    #[test]
    fn iter_indices_covers_all() {
        let s = Shape::new(&[2, 3]);
        let all: Vec<_> = s.iter_indices().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], vec![0, 0]);
        assert_eq!(all[5], vec![1, 2]);
    }
}
