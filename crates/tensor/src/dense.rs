//! Dense row-major tensor.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::Result;
use m2td_linalg::Matrix;

/// A dense `N`-mode tensor stored as a row-major `Vec<f64>`.
///
/// Dense tensors appear at three places in the M2TD pipeline: ground-truth
/// tensors `Y` for accuracy evaluation, Tucker cores, and intermediate
/// results of TTM chains. Sampled ensembles are [`crate::SparseTensor`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    shape: Shape,
    data: Vec<f64>,
}

impl DenseTensor {
    /// Creates an all-zero tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Self {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor from a row-major buffer.
    ///
    /// Returns an error if `data.len()` does not equal the shape's element
    /// count.
    pub fn from_vec(dims: &[usize], data: Vec<f64>) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.num_elements() {
            return Err(TensorError::ShapeMismatch {
                expected: dims.to_vec(),
                actual: vec![data.len()],
                op: "from_vec",
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let shape = Shape::new(dims);
        let total = shape.num_elements();
        let mut data = Vec::with_capacity(total);
        let mut idx = vec![0usize; shape.order()];
        for lin in 0..total {
            shape.multi_index_into(lin, &mut idx);
            data.push(f(&idx));
        }
        Self { shape, data }
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

    /// Tensor order (number of modes).
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Total number of elements.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.data.len()
    }

    /// Row-major data buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major data buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor and returns the backing buffer, so intermediates
    /// of a TTM chain can be recycled through [`crate::Workspace`].
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Value at a multi-index (debug-asserted bounds).
    #[inline]
    pub fn get(&self, index: &[usize]) -> f64 {
        self.data[self.shape.linear_index(index)]
    }

    /// Checked value access.
    pub fn try_get(&self, index: &[usize]) -> Result<f64> {
        self.shape.check_index(index)?;
        Ok(self.data[self.shape.linear_index(index)])
    }

    /// Sets the value at a multi-index (debug-asserted bounds).
    #[inline]
    pub fn set(&mut self, index: &[usize], v: f64) {
        let lin = self.shape.linear_index(index);
        self.data[lin] = v;
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        m2td_linalg::norm2(&self.data)
    }

    /// Frobenius norm of `self - other`, without building the difference.
    /// [`m2td_linalg::norm2_iter`] runs `norm2`'s two passes over `a - b`,
    /// so the result is bitwise identical to
    /// `self.sub(other)?.frobenius_norm()`.
    pub fn distance(&self, other: &DenseTensor) -> Result<f64> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.dims().to_vec(),
                actual: other.dims().to_vec(),
                op: "distance",
            });
        }
        let diffs = self.data.iter().zip(&other.data).map(|(&a, &b)| a - b);
        Ok(m2td_linalg::norm2_iter(diffs))
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Elementwise difference (`self - other`).
    pub fn sub(&self, other: &DenseTensor) -> Result<DenseTensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.dims().to_vec(),
                actual: other.dims().to_vec(),
                op: "sub",
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a - b)
            .collect();
        Ok(DenseTensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise sum (`self + other`).
    pub fn add(&self, other: &DenseTensor) -> Result<DenseTensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.dims().to_vec(),
                actual: other.dims().to_vec(),
                op: "add",
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a + b)
            .collect();
        Ok(DenseTensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Returns `alpha * self`.
    pub fn scaled(&self, alpha: f64) -> DenseTensor {
        DenseTensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| alpha * x).collect(),
        }
    }

    /// Extracts the slice with mode `mode` fixed at `index`, dropping that
    /// mode (order decreases by one). The ensemble reading: fix one
    /// parameter and look at the remaining response surface.
    pub fn slice(&self, mode: usize, index: usize) -> Result<DenseTensor> {
        self.shape.check_mode(mode)?;
        if index >= self.shape.dim(mode) {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![index],
                shape: self.dims().to_vec(),
            });
        }
        let out_dims: Vec<usize> = self
            .dims()
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != mode)
            .map(|(_, &d)| d)
            .collect();
        let out_shape = Shape::new(&out_dims);
        let mut out = DenseTensor::zeros(&out_dims);
        let mut idx = vec![0usize; self.order()];
        let mut out_idx = vec![0usize; out_dims.len()];
        for lin in 0..out_shape.num_elements() {
            out_shape.multi_index_into(lin, &mut out_idx);
            let mut o = 0;
            for (m, slot) in idx.iter_mut().enumerate() {
                if m == mode {
                    *slot = index;
                } else {
                    *slot = out_idx[o];
                    o += 1;
                }
            }
            out.data[lin] = self.get(&idx);
        }
        Ok(out)
    }

    /// Permutes the tensor modes: `perm[new_mode] = old_mode`. The result's
    /// mode `n` is the input's mode `perm[n]`.
    ///
    /// Used to map tensors between the *join order* (pivot modes first, as
    /// produced by JE-stitching) and the natural parameter order of the
    /// ground-truth tensor.
    pub fn permute_modes(&self, perm: &[usize]) -> Result<DenseTensor> {
        let order = self.order();
        if perm.len() != order {
            return Err(TensorError::WrongNumberOfRanks {
                supplied: perm.len(),
                order,
            });
        }
        let mut seen = vec![false; order];
        for &p in perm {
            if p >= order || seen[p] {
                return Err(TensorError::InvalidMode { mode: p, order });
            }
            seen[p] = true;
        }
        let new_dims: Vec<usize> = perm.iter().map(|&p| self.dims()[p]).collect();
        let shape = Shape::new(&new_dims);
        let total = shape.num_elements();
        let mut data = Vec::with_capacity(total);
        if total > 0 {
            // Odometer over the output in row-major order, carrying the
            // source offset along: output mode `n` steps the source by
            // the input stride of mode `perm[n]`.
            let src_strides: Vec<usize> = perm.iter().map(|&p| self.shape.strides()[p]).collect();
            let (inner_dim, inner_stride) = (new_dims[order - 1], src_strides[order - 1]);
            let mut counter = vec![0usize; order - 1];
            let mut off = 0usize;
            'walk: loop {
                data.extend((0..inner_dim).map(|i| self.data[off + i * inner_stride]));
                for m in (0..order - 1).rev() {
                    counter[m] += 1;
                    off += src_strides[m];
                    if counter[m] < new_dims[m] {
                        continue 'walk;
                    }
                    off -= counter[m] * src_strides[m];
                    counter[m] = 0;
                }
                break;
            }
        }
        Ok(DenseTensor { shape, data })
    }

    /// Mode-`n` unfolding as a dense matrix of shape
    /// `I_n x Π_{m≠n} I_m` (Kolda & Bader convention; see crate docs).
    pub fn unfold(&self, mode: usize) -> Result<Matrix> {
        self.shape.check_mode(mode)?;
        let rows = self.shape.dim(mode);
        let cols = self.shape.unfold_cols(mode);
        let mut out = Matrix::zeros(rows, cols);
        let mut idx = vec![0usize; self.order()];
        for (lin, &v) in self.data.iter().enumerate() {
            self.shape.multi_index_into(lin, &mut idx);
            let r = idx[mode];
            let c = self.shape.unfold_col_index(mode, &idx);
            out.set(r, c, v);
        }
        Ok(out)
    }

    /// Inverse of [`Self::unfold`]: folds an `I_n x Π_{m≠n} I_m` matrix back
    /// into a tensor of shape `dims`.
    pub fn fold(matrix: &Matrix, mode: usize, dims: &[usize]) -> Result<DenseTensor> {
        let shape = Shape::new(dims);
        shape.check_mode(mode)?;
        let rows = shape.dim(mode);
        let cols = shape.unfold_cols(mode);
        if matrix.shape() != (rows, cols) {
            return Err(TensorError::ShapeMismatch {
                expected: vec![rows, cols],
                actual: vec![matrix.rows(), matrix.cols()],
                op: "fold",
            });
        }
        let total = shape.num_elements();
        let mut data = Vec::with_capacity(total);
        let mut idx = vec![0usize; shape.order()];
        for lin in 0..total {
            shape.multi_index_into(lin, &mut idx);
            data.push(matrix.get(idx[mode], shape.unfold_col_index(mode, &idx)));
        }
        Ok(DenseTensor { shape, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = DenseTensor::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f64);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
        assert_eq!(t.num_elements(), 6);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseTensor::from_vec(&[2, 2], vec![0.0; 3]).is_err());
        assert!(DenseTensor::from_vec(&[2, 2], vec![0.0; 4]).is_ok());
    }

    #[test]
    fn try_get_bounds() {
        let t = DenseTensor::zeros(&[2, 2]);
        assert!(t.try_get(&[1, 1]).is_ok());
        assert!(t.try_get(&[2, 0]).is_err());
    }

    #[test]
    fn unfold_fold_round_trip() {
        let t = DenseTensor::from_fn(&[3, 4, 2], |idx| {
            (idx[0] + 10 * idx[1] + 100 * idx[2]) as f64
        });
        for mode in 0..3 {
            let m = t.unfold(mode).unwrap();
            let back = DenseTensor::fold(&m, mode, t.dims()).unwrap();
            assert_eq!(back, t, "round trip failed for mode {mode}");
        }
    }

    #[test]
    fn unfold_kolda_example() {
        // Kolda & Bader, SIAM Review 2009, example 3.1-style check on a
        // 3x4x2 tensor with X(:,:,1) = [[1,4,7,10],[2,5,8,11],[3,6,9,12]]
        // and X(:,:,2) = the same + 12.
        let t = DenseTensor::from_fn(&[3, 4, 2], |idx| {
            (1 + idx[0] + 3 * idx[1] + 12 * idx[2]) as f64
        });
        let m0 = t.unfold(0).unwrap();
        // Mode-0 unfolding: rows are the 3 first-mode slices; column j+4k.
        assert_eq!(m0.shape(), (3, 8));
        assert_eq!(m0.get(0, 0), 1.0);
        assert_eq!(m0.get(1, 0), 2.0);
        assert_eq!(m0.get(0, 1), 4.0);
        assert_eq!(m0.get(0, 4), 13.0);
        let m1 = t.unfold(1).unwrap();
        assert_eq!(m1.shape(), (4, 6));
        assert_eq!(m1.get(0, 0), 1.0);
        assert_eq!(m1.get(1, 0), 4.0);
        assert_eq!(m1.get(0, 1), 2.0);
        assert_eq!(m1.get(0, 3), 13.0);
    }

    #[test]
    fn unfold_invalid_mode() {
        let t = DenseTensor::zeros(&[2, 2]);
        assert!(t.unfold(2).is_err());
    }

    #[test]
    fn fold_validates_shape() {
        let m = Matrix::zeros(2, 5);
        assert!(DenseTensor::fold(&m, 0, &[2, 2, 2]).is_err());
    }

    #[test]
    fn frobenius_norm_matches_unfold_norm() {
        let t = DenseTensor::from_fn(&[2, 3, 4], |idx| ((idx[0] + idx[1] * idx[2]) as f64).sin());
        let n_t = t.frobenius_norm();
        for mode in 0..3 {
            let n_m = t.unfold(mode).unwrap().frobenius_norm();
            assert!((n_t - n_m).abs() < 1e-12);
        }
    }

    #[test]
    fn arithmetic() {
        let a = DenseTensor::from_fn(&[2, 2], |i| (i[0] + i[1]) as f64);
        let b = a.scaled(2.0);
        let s = a.add(&b).unwrap();
        assert_eq!(s.get(&[1, 1]), 6.0);
        let d = b.sub(&a).unwrap();
        assert_eq!(d, a);
        let other = DenseTensor::zeros(&[2, 3]);
        assert!(a.add(&other).is_err());
        assert!(a.sub(&other).is_err());
    }

    #[test]
    fn max_abs_on_signed_data() {
        let t = DenseTensor::from_vec(&[3], vec![1.0, -5.0, 2.0]).unwrap();
        assert_eq!(t.max_abs(), 5.0);
    }

    #[test]
    fn slice_extracts_fixed_mode() {
        let t = DenseTensor::from_fn(&[2, 3, 4], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64);
        let s = t.slice(1, 2).unwrap();
        assert_eq!(s.dims(), &[2, 4]);
        assert_eq!(s.get(&[1, 3]), t.get(&[1, 2, 3]));
        assert_eq!(s.get(&[0, 0]), t.get(&[0, 2, 0]));
        assert!(t.slice(3, 0).is_err());
        assert!(t.slice(1, 5).is_err());
    }

    #[test]
    fn slices_partition_the_norm() {
        let t = DenseTensor::from_fn(&[3, 4], |i| ((i[0] * 4 + i[1]) as f64).sin());
        let total_sq: f64 = t.frobenius_norm().powi(2);
        let slices_sq: f64 = (0..3)
            .map(|i| t.slice(0, i).unwrap().frobenius_norm().powi(2))
            .sum();
        assert!((total_sq - slices_sq).abs() < 1e-12);
    }

    #[test]
    fn permute_modes_round_trip() {
        let t = DenseTensor::from_fn(&[2, 3, 4], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64);
        let p = t.permute_modes(&[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert_eq!(p.get(&[3, 1, 2]), t.get(&[1, 2, 3]));
        // Inverse permutation restores the original.
        let back = p.permute_modes(&[1, 2, 0]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn permute_modes_identity() {
        let t = DenseTensor::from_fn(&[2, 2], |i| (i[0] + 2 * i[1]) as f64);
        assert_eq!(t.permute_modes(&[0, 1]).unwrap(), t);
    }

    #[test]
    fn permute_modes_rejects_bad_perms() {
        let t = DenseTensor::zeros(&[2, 3]);
        assert!(t.permute_modes(&[0]).is_err());
        assert!(t.permute_modes(&[0, 0]).is_err());
        assert!(t.permute_modes(&[0, 2]).is_err());
    }

    #[test]
    fn zero_order_tensor_is_empty() {
        let t = DenseTensor::zeros(&[]);
        assert_eq!(t.num_elements(), 0);
        assert_eq!(t.frobenius_norm(), 0.0);
    }
}
