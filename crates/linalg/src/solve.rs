//! Triangular and SPD linear solvers.

use crate::cholesky::{back_substitute_transposed, cholesky, factor_into};
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Solves `L x = b` for lower-triangular `L` by forward substitution.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`] on
///   shape problems.
/// * [`LinalgError::SingularPivot`] on a (near-)zero diagonal entry,
///   carrying the offending pivot index and value.
pub fn solve_lower_triangular(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let (m, n) = l.shape();
    if m != n {
        return Err(LinalgError::NotSquare { shape: (m, n) });
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            left: (m, n),
            right: (b.len(), 1),
            op: "solve_lower_triangular",
        });
    }
    let mut x = b.to_vec();
    forward_substitute(l.as_slice(), n, &mut x)?;
    Ok(x)
}

/// Forward-substitution kernel: solves `L x = b` in place (`x` holds `b`
/// on entry) for the row-major `n × n` lower-triangular `l`, reading only
/// its lower triangle.
///
/// # Errors
///
/// [`LinalgError::SingularPivot`] on a (near-)zero diagonal entry.
#[inline]
#[allow(clippy::needless_range_loop)] // forward substitution reads x[k] for k < i
pub(crate) fn forward_substitute(l: &[f64], n: usize, x: &mut [f64]) -> Result<()> {
    for i in 0..n {
        let mut s = x[i];
        for k in 0..i {
            s -= l[i * n + k] * x[k];
        }
        let d = l[i * n + i];
        if d.abs() < f64::EPSILON {
            return Err(LinalgError::SingularPivot { pivot: i, value: d });
        }
        x[i] = s / d;
    }
    Ok(())
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
///
/// # Errors
///
/// Propagates Cholesky errors ([`LinalgError::NotPositiveDefinite`], shape
/// errors) and substitution errors.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    cholesky(a)?.solve(b)
}

/// Solves `A x = b` for the row-major `n × n` symmetric positive-definite
/// `a` with no allocation: `l` (`n × n`) receives the Cholesky factor and
/// `x` holds `b` on entry and the solution on success. Runs the same
/// kernels as [`solve_spd`], so the two agree bit for bit, and so do their
/// `NotPositiveDefinite`/`SingularPivot` errors.
///
/// # Errors
///
/// * [`LinalgError::EmptyInput`] for `n == 0`.
/// * [`LinalgError::DimensionMismatch`] if `a` or `l` is not `n × n` or
///   `x` is not of length `n`.
/// * [`LinalgError::NotPositiveDefinite`] / [`LinalgError::SingularPivot`]
///   as for [`solve_spd`]; `l` and `x` are then partially written.
#[inline]
pub fn solve_spd_in_place(a: &[f64], n: usize, l: &mut [f64], x: &mut [f64]) -> Result<()> {
    if n == 0 {
        return Err(LinalgError::EmptyInput);
    }
    for (len, rows, cols) in [(a.len(), n, n), (l.len(), n, n), (x.len(), n, 1)] {
        if len != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                left: (rows, cols),
                right: (len, 1),
                op: "solve_spd_in_place",
            });
        }
    }
    factor_into(a, n, l)?;
    forward_substitute(l, n, x)?;
    back_substitute_transposed(l, n, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_substitution_known() {
        let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]).unwrap();
        let x = solve_lower_triangular(&l, &[4.0, 11.0]).unwrap();
        assert_eq!(x, vec![2.0, 3.0]);
    }

    #[test]
    fn singular_diagonal_is_detected() {
        let l = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]).unwrap();
        match solve_lower_triangular(&l, &[1.0, 1.0]) {
            Err(LinalgError::SingularPivot { pivot, value }) => {
                assert_eq!(pivot, 0);
                assert_eq!(value, 0.0);
            }
            other => panic!("expected SingularPivot, got {other:?}"),
        }
    }

    #[test]
    fn shape_checks() {
        let l = Matrix::identity(2);
        assert!(solve_lower_triangular(&l, &[1.0]).is_err());
    }

    #[test]
    fn spd_solve_round_trip() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]).unwrap();
        let x_true = [1.0, 2.0, -1.0];
        let b = a.matvec(&x_true).unwrap();
        let x = solve_spd(&a, &b).unwrap();
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-12);
        }
    }
}
