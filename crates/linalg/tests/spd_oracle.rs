//! Bit-exact oracle for the SPD solve.
//!
//! The slice kernel behind `solve_spd_in_place` and the `Matrix` wrappers
//! (`cholesky`, `CholeskyFactor::solve`, `solve_lower_triangular`,
//! `solve_spd`) are compared with a test-local copy of the original
//! `Matrix`-based factorisation and substitutions. Solutions and factors
//! must agree on `f64::to_bits`, and failures must agree on variant,
//! pivot and the bits of the offending value.

use m2td_linalg::{
    cholesky, solve_lower_triangular, solve_spd, solve_spd_in_place, LinalgError, Matrix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The original `cholesky`: `L` built with `Matrix::get`/`set`.
fn reference_cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut d = a.get(j, j);
        for k in 0..j {
            let ljk = l.get(j, k);
            d -= ljk * ljk;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j, value: d });
        }
        let djj = d.sqrt();
        l.set(j, j, djj);
        for i in (j + 1)..n {
            let mut s = a.get(i, j);
            for k in 0..j {
                s -= l.get(i, k) * l.get(j, k);
            }
            l.set(i, j, s / djj);
        }
    }
    Ok(l)
}

/// The original `solve_lower_triangular` body.
#[allow(clippy::needless_range_loop)] // forward substitution reads x[k] for k < i
fn reference_forward(l: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = l.rows();
    let mut x = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l.get(i, k) * x[k];
        }
        let d = l.get(i, i);
        if d.abs() < f64::EPSILON {
            return Err(LinalgError::SingularPivot { pivot: i, value: d });
        }
        x[i] = s / d;
    }
    Ok(x)
}

/// The original `solve_spd`: factor, forward substitution, then back
/// substitution with `Lᵀ` read in place.
#[allow(clippy::needless_range_loop)] // `x` is read before being written at index k
fn reference_solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let l = reference_cholesky(a)?;
    let mut x = reference_forward(&l, b)?;
    let n = l.rows();
    for i in (0..n).rev() {
        let mut s = x[i];
        for k in (i + 1)..n {
            s -= l.get(k, i) * x[k];
        }
        let d = l.get(i, i);
        if d.abs() < f64::EPSILON {
            return Err(LinalgError::SingularPivot { pivot: i, value: d });
        }
        x[i] = s / d;
    }
    Ok(x)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A comparable key for a result: the solution bits, or the error's
/// variant, pivot and value bits.
fn key(r: &Result<Vec<f64>, LinalgError>) -> Result<Vec<u64>, (&'static str, usize, u64)> {
    match r {
        Ok(x) => Ok(bits(x)),
        Err(LinalgError::NotPositiveDefinite { pivot, value }) => {
            Err(("NotPositiveDefinite", *pivot, value.to_bits()))
        }
        Err(LinalgError::SingularPivot { pivot, value }) => {
            Err(("SingularPivot", *pivot, value.to_bits()))
        }
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

/// `solve_spd_in_place` on fresh buffers, as a `Result<Vec<f64>>`.
fn in_place(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    let mut l = vec![f64::NAN; n * n];
    let mut x = b.to_vec();
    solve_spd_in_place(a.as_slice(), n, &mut l, &mut x).map(|()| x)
}

/// Checks every SPD entry point against the reference on one input.
fn assert_parity(a: &Matrix, b: &[f64], what: &str) {
    let expected = key(&reference_solve_spd(a, b));
    assert_eq!(key(&in_place(a, b)), expected, "solve_spd_in_place, {what}");
    assert_eq!(key(&solve_spd(a, b)), expected, "solve_spd, {what}");
    match (reference_cholesky(a), cholesky(a)) {
        (Ok(l_ref), Ok(factor)) => {
            assert_eq!(
                bits(factor.l.as_slice()),
                bits(l_ref.as_slice()),
                "L, {what}"
            );
            assert_eq!(
                key(&solve_lower_triangular(&factor.l, b)),
                key(&reference_forward(&l_ref, b)),
                "forward substitution, {what}"
            );
            assert_eq!(
                key(&factor.solve(b)),
                expected,
                "CholeskyFactor::solve, {what}"
            );
        }
        (Err(e_ref), Err(e)) => {
            assert_eq!(key(&Err(e)), key(&Err(e_ref)), "cholesky error, {what}")
        }
        (r_ref, r) => panic!("cholesky disagrees on {what}: {r_ref:?} vs {r:?}"),
    }
}

/// A seeded SPD matrix `BᵀB + δI` with `B` in ±2 and δ in [0.01, 1); the
/// Gram sum runs in the same order for `(i, j)` and `(j, i)`, so the
/// matrix is exactly symmetric.
fn rand_spd(rng: &mut StdRng, n: usize) -> Matrix {
    let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-2.0..2.0));
    let delta = rng.gen_range(0.01..1.0);
    Matrix::from_fn(n, n, |i, j| {
        let mut s = 0.0;
        for k in 0..n {
            s += b.get(k, i) * b.get(k, j);
        }
        if i == j {
            s + delta
        } else {
            s
        }
    })
}

fn rand_rhs(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect()
}

#[test]
fn spd_solves_match_the_matrix_reference_bitwise() {
    for n in 1..=6 {
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed * 31 + n as u64);
            let a = rand_spd(&mut rng, n);
            let b = rand_rhs(&mut rng, n);
            assert!(reference_solve_spd(&a, &b).is_ok(), "n={n} seed={seed}");
            assert_parity(&a, &b, &format!("SPD n={n} seed={seed}"));
        }
    }
}

#[test]
fn spd_errors_match_the_matrix_reference() {
    let mut failures = 0;
    for n in 1..=6 {
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed * 31 + n as u64);
            let spd = rand_spd(&mut rng, n);
            let b = rand_rhs(&mut rng, n);
            let p = rng.gen_range(0..n);

            // Not positive definite: a random symmetric matrix, and an SPD
            // matrix with one diagonal entry pushed negative.
            let sym = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 7 + (i * j) % 5) as f64).sin());
            let mut neg = spd.clone();
            neg.set(p, p, -neg.get(p, p));
            // Non-finite entries: NaN and ±inf on and off the diagonal.
            let mut nan_diag = spd.clone();
            nan_diag.set(p, p, f64::NAN);
            let mut nan_off = spd.clone();
            nan_off.set(n - 1, 0, f64::NAN);
            let mut inf_diag = spd.clone();
            inf_diag.set(p, p, f64::INFINITY);
            let mut neg_inf_off = spd.clone();
            neg_inf_off.set(n - 1, 0, f64::NEG_INFINITY);
            // Near-singular: a positive pivot whose square root is below
            // the substitution threshold, and a tiny but usable one.
            let tiny = Matrix::from_fn(n, n, |i, j| match (i == j, i == p) {
                (true, true) => 1e-40,
                (true, false) => 1.0 + i as f64,
                _ => 0.0,
            });
            let small = Matrix::from_fn(n, n, |i, j| match (i == j, i == p) {
                (true, true) => 1e-30,
                (true, false) => 2.0,
                _ => 0.0,
            });

            for (a, what) in [
                (&sym, "symmetric indefinite"),
                (&neg, "negative diagonal"),
                (&nan_diag, "NaN diagonal"),
                (&nan_off, "NaN off-diagonal"),
                (&inf_diag, "+inf diagonal"),
                (&neg_inf_off, "-inf off-diagonal"),
                (&tiny, "near-singular"),
                (&small, "small pivot"),
            ] {
                let what = format!("{what} n={n} seed={seed} p={p}");
                if reference_solve_spd(a, &b).is_err() {
                    failures += 1;
                }
                assert_parity(a, &b, &what);
            }
            // A non-finite right-hand side solves to non-finite values on
            // both sides, bit for bit.
            let mut b_nan = b.clone();
            b_nan[p] = f64::NAN;
            assert_parity(&spd, &b_nan, &format!("NaN rhs n={n} seed={seed}"));
        }
    }
    assert!(failures > 300, "only {failures} inputs took an error path");
}

#[test]
fn in_place_shape_errors_are_reported() {
    let a = [4.0, 2.0, 2.0, 3.0];
    let mut l = [0.0; 4];
    let mut x = [1.0, 2.0];
    assert_eq!(
        solve_spd_in_place(&a, 0, &mut l, &mut x),
        Err(LinalgError::EmptyInput)
    );
    assert!(matches!(
        solve_spd_in_place(&a[..3], 2, &mut l, &mut x),
        Err(LinalgError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        solve_spd_in_place(&a, 2, &mut l[..3], &mut x),
        Err(LinalgError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        solve_spd_in_place(&a, 2, &mut l, &mut x[..1]),
        Err(LinalgError::DimensionMismatch { .. })
    ));
    assert_eq!(solve_spd_in_place(&a, 2, &mut l, &mut x), Ok(()));
}
