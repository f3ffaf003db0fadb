//! Cholesky factorisation of symmetric positive-definite matrices.
//!
//! Serves every SPD solve in the workspace: the triple pendulum's 3×3
//! mass-matrix solve (on stack arrays, once per RK4 stage), the
//! least-squares core projection's `r × r` Gram (factored once per
//! factor matrix), and tests that check positive-definiteness.
//!
//! Each algorithm has one body, a slice kernel over row-major `&[f64]`
//! (`factor_into`, `back_substitute_transposed`, and the forward
//! substitution in `solve.rs`); the [`Matrix`] APIs check shapes and call
//! it, and [`crate::solve_spd_in_place`] chains the three on caller-owned
//! buffers.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    /// The lower-triangular factor.
    pub l: Matrix,
}

impl CholeskyFactor {
    /// Recomposes `L Lᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        self.l
            .matmul_transpose(&self.l)
            .expect("L is square by construction")
    }

    /// Solves `A x = b` (with `A = L Lᵀ`) by forward and back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = crate::solve::solve_lower_triangular(&self.l, b)?;
        back_substitute_transposed(self.l.as_slice(), self.l.rows(), &mut x)?;
        Ok(x)
    }
}

/// Computes the Cholesky factorisation of a symmetric positive-definite
/// matrix.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for a non-square input.
/// * [`LinalgError::EmptyInput`] for an empty input.
/// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
pub fn cholesky(a: &Matrix) -> Result<CholeskyFactor> {
    let (m, n) = a.shape();
    if m != n {
        return Err(LinalgError::NotSquare { shape: (m, n) });
    }
    if n == 0 {
        return Err(LinalgError::EmptyInput);
    }
    let mut l = Matrix::zeros(n, n);
    factor_into(a.as_slice(), n, l.as_mut_slice())?;
    Ok(CholeskyFactor { l })
}

/// Cholesky kernel: writes the lower-triangular factor of the row-major
/// `n × n` SPD matrix `a` into the row-major `n × n` buffer `l`. Only the
/// lower triangle of `l` is written or read.
///
/// Column by column, the pivot is `a_jj − Σ_{k<j} l_jk²` and the entries
/// below it are `(a_ij − Σ_{k<j} l_ik l_jk) / l_jj`, each sum taken in
/// ascending `k`.
///
/// # Errors
///
/// [`LinalgError::NotPositiveDefinite`] at the first non-positive or
/// non-finite pivot; `l` is then partially written.
#[inline]
pub(crate) fn factor_into(a: &[f64], n: usize, l: &mut [f64]) -> Result<()> {
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            let ljk = l[j * n + k];
            d -= ljk * ljk;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
        }
        let djj = d.sqrt();
        l[j * n + j] = djj;
        for i in (j + 1)..n {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= l[i * n + k] * l[j * n + k];
            }
            l[i * n + j] = s / djj;
        }
    }
    Ok(())
}

/// Back-substitution kernel: solves `Lᵀ x = y` in place (`x` holds `y` on
/// entry) for the row-major `n × n` lower-triangular `l`, without
/// materializing the transpose.
///
/// # Errors
///
/// [`LinalgError::SingularPivot`] on a (near-)zero diagonal entry.
#[inline]
#[allow(clippy::needless_range_loop)] // `x` is read before being written at index k
pub(crate) fn back_substitute_transposed(l: &[f64], n: usize, x: &mut [f64]) -> Result<()> {
    for i in (0..n).rev() {
        let mut s = x[i];
        for k in (i + 1)..n {
            s -= l[k * n + i] * x[k];
        }
        let d = l[i * n + i];
        if d.abs() < f64::EPSILON {
            return Err(LinalgError::SingularPivot { pivot: i, value: d });
        }
        x[i] = s / d;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_known_spd() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let ch = cholesky(&a).unwrap();
        assert!((ch.l.get(0, 0) - 2.0).abs() < 1e-14);
        assert!((ch.l.get(1, 0) - 1.0).abs() < 1e-14);
        assert!((ch.l.get(1, 1) - 2.0f64.sqrt()).abs() < 1e-14);
        assert_eq!(ch.l.get(0, 1), 0.0);
    }

    #[test]
    fn reconstruction_round_trip() {
        // Build an SPD matrix as BᵀB + I.
        let b = Matrix::from_fn(5, 5, |i, j| ((i * 5 + j) as f64).sin());
        let mut a = b.transpose_matmul(&b).unwrap();
        for i in 0..5 {
            a.set(i, i, a.get(i, i) + 1.0);
        }
        let ch = cholesky(&a).unwrap();
        let err = ch.reconstruct().sub(&a).unwrap().frobenius_norm();
        assert!(err < 1e-12);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let x_true = [1.0, -2.0];
        let b = a.matvec(&x_true).unwrap();
        let x = cholesky(&a).unwrap().solve(&b).unwrap();
        assert!((x[0] - x_true[0]).abs() < 1e-12);
        assert!((x[1] - x_true[1]).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        match cholesky(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot, value }) => {
                // Pivot 1's Schur complement is 1 - 2·2/1 = -3.
                assert_eq!(pivot, 1);
                assert!((value + 3.0).abs() < 1e-12);
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(cholesky(&Matrix::zeros(2, 3)).is_err());
        assert!(cholesky(&Matrix::zeros(0, 0)).is_err());
    }
}
