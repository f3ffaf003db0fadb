//! Property-style tests of the linear-algebra kernels on random matrices.
//!
//! The offline build has no `proptest`, so each property loops over a
//! fixed set of seeds and draws its inputs from the in-tree seeded RNG —
//! deterministic, shrink-free, but the same invariants.

use m2td_linalg::{cholesky, householder_qr, svd, symmetric_eig, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// A random matrix with entries in ±3 and shape in [1, max_dim]².
fn rand_matrix(rng: &mut StdRng, max_dim: usize) -> Matrix {
    let r = rng.gen_range(1..max_dim + 1);
    let c = rng.gen_range(1..max_dim + 1);
    Matrix::from_fn(r, c, |_, _| rng.gen_range(-3.0..3.0))
}

#[test]
fn qr_reconstructs_and_q_is_orthonormal() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_matrix(&mut rng, 7);
        let qr = householder_qr(&a).unwrap();
        let recon = qr.reconstruct();
        let err = recon.sub(&a).unwrap().frobenius_norm();
        assert!(err < 1e-9 * (1.0 + a.frobenius_norm()), "QR error {err}");
        assert!(qr.q.orthonormality_defect() < 1e-9);
    }
}

#[test]
fn svd_reconstructs_any_shape() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_matrix(&mut rng, 6);
        let s = svd(&a).unwrap();
        let err = s.reconstruct().sub(&a).unwrap().frobenius_norm();
        assert!(err < 1e-8 * (1.0 + a.frobenius_norm()), "SVD error {err}");
        // Singular values decreasing and non-negative.
        for w in s.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(s.singular_values.iter().all(|&v| v >= 0.0));
        // Frobenius norm equals the singular-value energy.
        let sv_energy: f64 = s.singular_values.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((sv_energy - a.frobenius_norm()).abs() < 1e-8 * (1.0 + a.frobenius_norm()));
    }
}

#[test]
fn symmetric_eig_reconstructs_gram() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_matrix(&mut rng, 6);
        let gram = a.gram_rows();
        let e = symmetric_eig(&gram).unwrap();
        let err = e.reconstruct().sub(&gram).unwrap().frobenius_norm();
        assert!(err < 1e-8 * (1.0 + gram.frobenius_norm()));
        // Gram eigenvalues are non-negative.
        assert!(e.eigenvalues.iter().all(|&l| l > -1e-8));
    }
}

#[test]
fn cholesky_solve_leaves_small_residual_on_spd() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_matrix(&mut rng, 5);
        // AᵀA + I is SPD.
        let mut spd = a.transpose_matmul(&a).unwrap();
        for i in 0..spd.rows() {
            spd.set(i, i, spd.get(i, i) + 1.0);
        }
        let b: Vec<f64> = (0..spd.rows()).map(|i| 1.0 + i as f64).collect();
        let x = cholesky(&spd).unwrap().solve(&b).unwrap();
        let ax = spd.matvec(&x).unwrap();
        for (i, (l, r)) in ax.iter().zip(b.iter()).enumerate() {
            assert!(
                (l - r).abs() < 1e-8,
                "seed {seed}: residual {} at {i}",
                l - r
            );
        }
    }
}

#[test]
fn matmul_is_associative() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_matrix(&mut rng, 4);
        let b = rand_matrix(&mut rng, 4);
        let c = rand_matrix(&mut rng, 4);
        // Reshape to a compatible chain: A(r_a × k), B(k × k2), C(k2 × c).
        let k = a.cols().min(b.rows());
        let a = a.leading_columns(k).unwrap();
        let b_rows = k;
        let mut b2 = Matrix::zeros(b_rows, b.cols());
        for i in 0..b_rows.min(b.rows()) {
            b2.row_mut(i).copy_from_slice(b.row(i));
        }
        let k2 = b2.cols().min(c.rows());
        let b2 = b2.leading_columns(k2).unwrap();
        let mut c2 = Matrix::zeros(k2, c.cols());
        for i in 0..k2.min(c.rows()) {
            c2.row_mut(i).copy_from_slice(c.row(i));
        }
        let left = a.matmul(&b2).unwrap().matmul(&c2).unwrap();
        let right = a.matmul(&b2.matmul(&c2).unwrap()).unwrap();
        let diff = left.sub(&right).unwrap().frobenius_norm();
        assert!(diff < 1e-9 * (1.0 + left.frobenius_norm()));
    }
}

#[test]
fn transpose_matmul_agrees_with_explicit() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_matrix(&mut rng, 5);
        let b = rand_matrix(&mut rng, 5);
        // Make row counts agree.
        let rows = a.rows().min(b.rows());
        let trim = |m: &Matrix| {
            let mut out = Matrix::zeros(rows, m.cols());
            for i in 0..rows {
                out.row_mut(i).copy_from_slice(m.row(i));
            }
            out
        };
        let a = trim(&a);
        let b = trim(&b);
        let fast = a.transpose_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert!(fast.sub(&slow).unwrap().frobenius_norm() < 1e-10);
    }
}

/// Parallel kernels must match the serial path bitwise on random shapes —
/// including shapes large enough to cross the internal parallel
/// threshold — at every thread count.
#[test]
fn parallel_kernels_match_serial_on_random_shapes() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        // Mix small (serial fast path) and large (parallel path) shapes.
        let scale = if seed % 2 == 0 { 8 } else { 64 };
        let m = rng.gen_range(1..scale + 1);
        let k = rng.gen_range(1..scale + 1);
        let n = rng.gen_range(1..scale + 1);
        let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-3.0..3.0));
        let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-3.0..3.0));
        let c = Matrix::from_fn(m, n, |_, _| rng.gen_range(-3.0..3.0));
        let d = Matrix::from_fn(n, k, |_, _| rng.gen_range(-3.0..3.0));

        m2td_par::set_max_threads(1);
        let mm = a.matmul(&b).unwrap();
        let tm = a.transpose_matmul(&c).unwrap();
        let mt = a.matmul_transpose(&d).unwrap();
        let gram = a.gram_rows();

        for threads in [2usize, 8] {
            m2td_par::set_max_threads(threads);
            assert_eq!(a.matmul(&b).unwrap(), mm, "matmul t={threads} seed={seed}");
            assert_eq!(
                a.transpose_matmul(&c).unwrap(),
                tm,
                "transpose_matmul t={threads} seed={seed}"
            );
            assert_eq!(
                a.matmul_transpose(&d).unwrap(),
                mt,
                "matmul_transpose t={threads} seed={seed}"
            );
            assert_eq!(a.gram_rows(), gram, "gram_rows t={threads} seed={seed}");
        }
        m2td_par::set_max_threads(0);
    }
}
