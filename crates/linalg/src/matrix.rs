//! Dense row-major matrix type.

use crate::error::LinalgError;
use crate::kernel;
use crate::vecops::{dot, norm2};
use crate::Result;
use m2td_json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// Minimum multiply-add count before a kernel fans out over the pool:
/// below this the scoped-thread setup costs more than the arithmetic.
const PAR_MIN_FLOPS: usize = 64 * 1024;

/// Column-tile width for the row-streaming fallback kernels: one output
/// tile plus one B-row tile stay resident in L1 while a full A-row
/// streams through. Products at or above [`kernel::BLOCKED_MIN_FLOPS`]
/// madds go through the packed blocked backend instead (DESIGN.md §16).
const COL_BLOCK: usize = 256;

/// Runs `f(i, row)` over each `row_len` chunk of `out`, in parallel when
/// the kernel is big enough. Each output row is produced by exactly one
/// task and the per-row arithmetic is independent of the schedule, so the
/// result is bitwise identical at every thread count.
fn par_rows(out: &mut [f64], row_len: usize, flops: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
    if out.is_empty() || row_len == 0 {
        return;
    }
    if flops < PAR_MIN_FLOPS || m2td_par::max_threads() <= 1 {
        for (i, row) in out.chunks_mut(row_len).enumerate() {
            f(i, row);
        }
    } else {
        m2td_par::par_rows_mut(out, row_len, f);
    }
}

/// A dense, row-major, heap-allocated `f64` matrix.
///
/// This is the workhorse type of the M2TD reproduction: tensor
/// matricizations, factor matrices, Gram matrices and cores-in-flight are
/// all `Matrix` values. The representation is a plain `Vec<f64>` of length
/// `rows * cols` with entry `(i, j)` stored at `i * cols + j`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from a pre-filled row-major buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                left: (rows, cols),
                right: (data.len(), 1),
                op: "from_vec",
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices. All rows must have the
    /// same length; an empty outer slice is rejected.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::EmptyInput);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    left: (1, cols),
                    right: (1, r.len()),
                    op: "from_rows",
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` iff the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the backing buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reshapes the matrix in place to `rows x cols`, reusing the existing
    /// allocation, and zeros every entry. This is the buffer-reuse entry
    /// point backing [`Self::matmul_into`]: a matrix recycled through
    /// `reset` never reallocates unless the new shape outgrows its
    /// capacity.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Unchecked entry access (debug-asserted).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Unchecked entry assignment (debug-asserted).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Checked entry access.
    pub fn try_get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows || j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: (i, j),
                shape: (self.rows, self.cols),
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a freshly allocated vector. Hot column
    /// sweeps should prefer [`Self::col_into`] with a reused buffer.
    pub fn col(&self, j: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.col_into(j, &mut out);
        out
    }

    /// Copies column `j` into `out`, clearing it first and reusing its
    /// allocation — the buffer-reuse variant of [`Self::col`] for column
    /// sweeps (Jacobi SVD norms) that would
    /// otherwise allocate once per column per iteration.
    pub fn col_into(&self, j: usize, out: &mut Vec<f64>) {
        debug_assert!(j < self.cols);
        out.clear();
        out.reserve(self.rows);
        out.extend((0..self.rows).map(|i| self.data[i * self.cols + j]));
    }

    /// Iterator over column `j` without materializing it.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        debug_assert!(j < self.cols);
        self.data.iter().skip(j).step_by(self.cols.max(1)).copied()
    }

    /// Euclidean norm of row `i`. This is the "row energy" used by the
    /// paper's `ROW_SELECT` procedure (Algorithm 5).
    pub fn row_norm(&self, i: usize) -> f64 {
        norm2(self.row(i))
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Large products go through the packed blocked backend
    /// ([`crate::kernel`]), parallelized over NC×MC macro-tiles; small
    /// ones keep the row-streaming kernel. Both paths fix the
    /// accumulation order per output element independently of the
    /// schedule, so results are bitwise identical at every thread count.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Self::matmul`] writing into a caller-supplied matrix, which is
    /// reshaped in place (see [`Self::reset`]) so its allocation is reused
    /// across calls. Same kernel, same accumulation order — the result is
    /// bitwise identical to `matmul`'s at every thread count.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "matmul",
            });
        }
        out.reset(self.rows, other.cols);
        let (m, k, n) = (self.rows, self.cols, other.cols);
        if m * k * n >= kernel::BLOCKED_MIN_FLOPS {
            kernel::gemm(
                (m, k, n),
                &self.data,
                false,
                &other.data,
                false,
                &mut out.data,
                false,
            );
            return Ok(());
        }
        self.matmul_rowstream(other, out);
        Ok(())
    }

    /// The row-streaming matmul kernel: reference path for small products
    /// and the baseline the `gemm` bench family compares the blocked
    /// backend against. `out` must already be reset to `rows × other.cols`.
    fn matmul_rowstream(&self, other: &Matrix, out: &mut Matrix) {
        let (a, b, m, p) = (&self.data, &other.data, self.cols, other.cols);
        let flops = self.rows * m * p;
        par_rows(&mut out.data, p, flops, |i, out_row| {
            let a_row = &a[i * m..(i + 1) * m];
            let mut j0 = 0;
            while j0 < p {
                let j1 = (j0 + COL_BLOCK).min(p);
                for (k, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_tile = &b[k * p + j0..k * p + j1];
                    for (o, &bv) in out_row[j0..j1].iter_mut().zip(b_tile.iter()) {
                        *o += aik * bv;
                    }
                }
                j0 = j1;
            }
        });
    }

    /// [`Self::matmul_into`] forced onto the row-streaming path regardless
    /// of size. Bench/test hook for blocked-vs-streaming comparisons.
    #[doc(hidden)]
    pub fn matmul_rowstream_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "matmul",
            });
        }
        out.reset(self.rows, other.cols);
        self.matmul_rowstream(other, out);
        Ok(())
    }

    /// Product `selfᵀ * other` without materializing the transpose.
    ///
    /// Parallel over output rows; for output row `i` the shared dimension
    /// is scanned in ascending order, which is the same per-element
    /// accumulation order as the classic serial `k`-outer loop.
    pub fn transpose_matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch {
                left: (self.cols, self.rows),
                right: other.shape(),
                op: "transpose_matmul",
            });
        }
        let mut out = Matrix::zeros(self.cols, other.cols);
        let (a, b, n, m, p) = (&self.data, &other.data, self.rows, self.cols, other.cols);
        let flops = n * m * p;
        if flops >= kernel::BLOCKED_MIN_FLOPS {
            // Logical A is selfᵀ (m × n stored row-major = transposed
            // storage of the p-row operand).
            kernel::gemm((m, n, p), a, true, b, false, &mut out.data, false);
            return Ok(out);
        }
        par_rows(&mut out.data, p, flops, |i, out_row| {
            for k in 0..n {
                let aki = a[k * m + i];
                if aki == 0.0 {
                    continue;
                }
                let b_row = &b[k * p..(k + 1) * p];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += aki * bv;
                }
            }
        });
        Ok(out)
    }

    /// Product `self * otherᵀ` without materializing the transpose.
    ///
    /// Parallel over output rows; each entry is an independent dot
    /// product, so results are bitwise identical at every thread count.
    pub fn matmul_transpose(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: (other.cols, other.rows),
                op: "matmul_transpose",
            });
        }
        let mut out = Matrix::zeros(self.rows, other.rows);
        let (a, b, m, p) = (&self.data, &other.data, self.cols, other.rows);
        let flops = self.rows * m * p;
        if flops >= kernel::BLOCKED_MIN_FLOPS {
            // Logical B is otherᵀ (stored p × m row-major).
            kernel::gemm((self.rows, m, p), a, false, b, true, &mut out.data, false);
            return Ok(out);
        }
        par_rows(&mut out.data, p, flops, |i, out_row| {
            let a_row = &a[i * m..(i + 1) * m];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, &b[j * m..(j + 1) * m]);
            }
        });
        Ok(out)
    }

    /// Gram matrix `self * selfᵀ` (size `rows x rows`), exploiting symmetry.
    ///
    /// Large Grams run the blocked backend in upper-only mode (macro-tiles
    /// strictly below the diagonal are skipped); small ones compute the
    /// upper triangle row-streamed. Either way the strictly-lower triangle
    /// is mirrored serially afterwards — `C(i,j)` and `C(j,i)` share the
    /// same k-ascending accumulation, so the mirror is a bitwise copy.
    pub fn gram_rows(&self) -> Matrix {
        let n = self.rows;
        let m = self.cols;
        let mut out = Matrix::zeros(n, n);
        if n * n * m >= kernel::BLOCKED_MIN_FLOPS {
            kernel::gemm(
                (n, m, n),
                &self.data,
                false,
                &self.data,
                true,
                &mut out.data,
                true,
            );
        } else {
            Self::gram_upper_rowstream(&self.data, n, m, &mut out.data);
        }
        for i in 1..n {
            for j in 0..i {
                out.data[i * n + j] = out.data[j * n + i];
            }
        }
        out
    }

    /// Row-streamed upper-triangle Gram: row `i` owns entries `j >= i`, so
    /// parallel writers never overlap.
    fn gram_upper_rowstream(a: &[f64], n: usize, m: usize, out: &mut [f64]) {
        // Triangular work: roughly half the full n*n*m product.
        let flops = n * n * m / 2;
        par_rows(out, n, flops, |i, out_row| {
            let ri = &a[i * m..(i + 1) * m];
            for (j, o) in out_row.iter_mut().enumerate().skip(i) {
                *o = dot(ri, &a[j * m..(j + 1) * m]);
            }
        });
    }

    /// [`Self::gram_rows`] forced onto the row-streaming path regardless
    /// of size. Bench/test hook for blocked-vs-streaming comparisons.
    #[doc(hidden)]
    pub fn gram_rows_rowstream(&self) -> Matrix {
        let n = self.rows;
        let mut out = Matrix::zeros(n, n);
        Self::gram_upper_rowstream(&self.data, n, self.cols, &mut out.data);
        for i in 1..n {
            for j in 0..i {
                out.data[i * n + j] = out.data[j * n + i];
            }
        }
        out
    }

    /// Matrix-vector product `self * x`.
    ///
    /// Row-partitioned over the pool above the parallel threshold; every
    /// output element is the same k-ascending dot product the serial loop
    /// computes, so results are bitwise identical at every thread count.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: (x.len(), 1),
                op: "matvec",
            });
        }
        let mut out = vec![0.0; self.rows];
        let (a, m) = (&self.data, self.cols);
        par_rows(&mut out, 1, self.rows * m, |i, o| {
            o[0] = dot(&a[i * m..(i + 1) * m], x);
        });
        Ok(out)
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
                op,
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `alpha * self`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| alpha * x).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        norm2(&self.data)
    }

    /// Largest absolute entry (`max |a_ij|`); zero for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Stacks `self` on top of `other` (row concatenation). This is the
    /// building block of the paper's M2TD-CONCAT, which concatenates the
    /// pivot-mode matricizations of the two sub-tensors column-wise; on the
    /// transposed view that is exactly a vertical stack.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "vstack",
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Places `self` to the left of `other` (column concatenation).
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "hstack",
            });
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(other.row(i));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Returns the sub-matrix consisting of the first `k` columns.
    pub fn leading_columns(&self, k: usize) -> Result<Matrix> {
        if k > self.cols {
            return Err(LinalgError::RankTooLarge {
                requested: k,
                available: self.cols,
            });
        }
        let mut out = Matrix::zeros(self.rows, k);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[..k]);
        }
        Ok(out)
    }

    /// Measures how far the matrix is from having orthonormal columns:
    /// `‖selfᵀ self − I‖_F`.
    pub fn orthonormality_defect(&self) -> f64 {
        let gram = self
            .transpose_matmul(self)
            .expect("self is always row-compatible with itself");
        let n = gram.rows();
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                let target = if i == j { 1.0 } else { 0.0 };
                let d = gram.get(i, j) - target;
                acc += d * d;
            }
        }
        acc.sqrt()
    }
}

/// Serialized form: `{ rows, cols, data }`, validated on load.
impl ToJson for Matrix {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("rows".to_string(), self.rows.to_json()),
            ("cols".to_string(), self.cols.to_json()),
            ("data".to_string(), self.data.to_json()),
        ])
    }
}

impl FromJson for Matrix {
    fn from_json(json: &Json) -> std::result::Result<Self, JsonError> {
        let rows = json.require("rows")?.as_usize()?;
        let cols = json.require("cols")?.as_usize()?;
        let data: Vec<f64> = FromJson::from_json(json.require("data")?)?;
        Matrix::from_vec(rows, cols, data)
            .map_err(|e| JsonError::Invalid(format!("invalid matrix: {e}")))
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4e}", self.get(i, j))?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn try_get_bounds() {
        let m = Matrix::identity(2);
        assert_eq!(m.try_get(1, 1).unwrap(), 1.0);
        assert!(m.try_get(2, 0).is_err());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, 1.5], &[0.0, 1.0]]).unwrap();
        let fast = a.transpose_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn into_variants_reuse_buffers_and_match_allocating_kernels() {
        let a = Matrix::from_fn(7, 5, |i, j| ((i * 5 + j) as f64 * 0.3).sin());
        let b = Matrix::from_fn(5, 9, |i, j| ((i + 2 * j) as f64 * 0.7).cos());
        let c = Matrix::from_fn(7, 3, |i, j| (i as f64 - j as f64) * 0.25);
        let mut out = Matrix::zeros(1, 1);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        // Reusing the same output across a differently shaped product must
        // reshape cleanly and leave no stale entries behind.
        let at = a.transpose();
        at.matmul_into(&c, &mut out).unwrap();
        assert_eq!(out, at.matmul(&c).unwrap());
        assert_eq!(out.shape(), (5, 3));
        // Shape errors leave without touching the output shape contract.
        assert!(b.matmul_into(&c, &mut out).is_err());
        assert!(b.transpose_matmul(&a).is_err());
    }

    #[test]
    fn reset_reuses_capacity_and_zeroes() {
        let mut m = Matrix::from_fn(4, 4, |i, j| (i + j) as f64 + 1.0);
        let cap = m.as_slice().len();
        m.reset(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert!(m.into_vec().capacity() >= cap);
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 1.0]]).unwrap();
        let fast = a.matmul_transpose(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn gram_rows_is_symmetric_and_correct() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let g = a.gram_rows();
        let explicit = a.matmul(&a.transpose()).unwrap();
        assert_eq!(g, explicit);
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 6.0]]).unwrap();
        assert_eq!(
            a.add(&b).unwrap(),
            Matrix::from_rows(&[&[4.0, 8.0]]).unwrap()
        );
        assert_eq!(
            b.sub(&a).unwrap(),
            Matrix::from_rows(&[&[2.0, 4.0]]).unwrap()
        );
        assert_eq!(a.scaled(2.0), Matrix::from_rows(&[&[2.0, 4.0]]).unwrap());
        let c = Matrix::zeros(2, 2);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert!(approx(a.frobenius_norm(), 5.0));
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.get(1, 0), 3.0);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.get(0, 3), 4.0);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
        assert!(a.hstack(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn leading_columns_truncates() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let l = a.leading_columns(2).unwrap();
        assert_eq!(l, Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 5.0]]).unwrap());
        assert!(a.leading_columns(4).is_err());
    }

    #[test]
    fn orthonormality_defect_of_identity_is_zero() {
        assert!(Matrix::identity(4).orthonormality_defect() < 1e-14);
    }

    #[test]
    fn row_norm_is_energy() {
        let a = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]).unwrap();
        assert!(approx(a.row_norm(0), 5.0));
        assert_eq!(a.row_norm(1), 0.0);
    }

    #[test]
    fn json_round_trip_and_validation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let json = m.to_json().to_compact();
        let back = Matrix::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, m);
        // Corrupted length must be rejected.
        let bad = r#"{"rows":2,"cols":2,"data":[1.0,2.0,3.0]}"#;
        assert!(Matrix::from_json(&Json::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn kernels_match_across_thread_counts() {
        // Big enough to clear PAR_MIN_FLOPS so the pool path actually runs.
        let a = Matrix::from_fn(64, 48, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(48, 52, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.25);
        m2td_par::set_max_threads(1);
        let serial = (
            a.matmul(&b).unwrap(),
            a.transpose_matmul(&a).unwrap(),
            a.matmul_transpose(&a).unwrap(),
            a.gram_rows(),
        );
        for t in [2usize, 8] {
            m2td_par::set_max_threads(t);
            assert_eq!(a.matmul(&b).unwrap(), serial.0);
            assert_eq!(a.transpose_matmul(&a).unwrap(), serial.1);
            assert_eq!(a.matmul_transpose(&a).unwrap(), serial.2);
            assert_eq!(a.gram_rows(), serial.3);
        }
        m2td_par::set_max_threads(0);
    }

    #[test]
    fn debug_format_is_truncated() {
        let big = Matrix::zeros(100, 100);
        let s = format!("{big:?}");
        assert!(s.contains('…'));
        assert!(s.len() < 4000);
    }
}
