//! Bit-exact oracle tests for the dense kernels.
//!
//! Each kernel is checked against an independent reference built from
//! other public operations, and the comparison is on `f64::to_bits`, not
//! a tolerance: the kernels promise the same per-element accumulation
//! order as the reference, so every bit must agree.

use m2td_linalg::Matrix;
use m2td_tensor::{
    ttm_dense, ttm_dense_transposed, ttm_dense_transposed_ws, ttm_dense_ws, DenseTensor, Shape,
    SparseTensor, TtmPlan, Workspace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(t: &DenseTensor) -> (Vec<usize>, Vec<u64>) {
    (
        t.dims().to_vec(),
        t.as_slice().iter().map(|v| v.to_bits()).collect(),
    )
}

/// A value in ±2, with exact zeros and negative zeros mixed in.
fn rand_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..16) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-2.0..2.0),
    }
}

fn rand_tensor(rng: &mut StdRng, dims: &[usize]) -> DenseTensor {
    DenseTensor::from_fn(dims, |_| rand_value(rng))
}

fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rand_value(rng))
}

/// The reference TTM: unfold, multiply, fold.
fn reference_ttm(x: &DenseTensor, mode: usize, u: &Matrix, transposed: bool) -> DenseTensor {
    let unfolded = x.unfold(mode).unwrap();
    let product = if transposed {
        u.transpose_matmul(&unfolded).unwrap()
    } else {
        u.matmul(&unfolded).unwrap()
    };
    let mut dims = x.dims().to_vec();
    dims[mode] = product.rows();
    DenseTensor::fold(&product, mode, &dims).unwrap()
}

#[test]
fn strided_ttm_matches_unfold_matmul_fold_bitwise() {
    // Small shapes stay on the row-streaming matmul, the large ones clear
    // BLOCKED_MIN_FLOPS (128Ki madds) and run the blocked GEMM; every
    // contracted extent stays within one KC = 256 block.
    let mut shapes: Vec<Vec<usize>> = vec![
        vec![7],
        vec![3, 1, 5],
        vec![40, 36, 30],
        vec![12, 12, 12, 12],
        vec![200, 9, 80],
    ];
    let mut rng = StdRng::seed_from_u64(0x77a1);
    for _ in 0..12 {
        let order = rng.gen_range(1usize..5);
        shapes.push((0..order).map(|_| rng.gen_range(1usize..9)).collect());
    }
    for (case, dims) in shapes.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(case as u64);
        let mut x = rand_tensor(&mut rng, dims);
        x.as_mut_slice()[0] = -0.0;
        for mode in 0..dims.len() {
            let j = rng.gen_range(1usize..7);
            let fwd = rand_matrix(&mut rng, j, dims[mode]);
            let tr = rand_matrix(&mut rng, dims[mode], j);
            let want_fwd = bits(&reference_ttm(&x, mode, &fwd, false));
            let want_tr = bits(&reference_ttm(&x, mode, &tr, true));
            for threads in [1usize, 2, 4] {
                m2td_par::set_max_threads(threads);
                let mut ws = Workspace::new();
                for _ in 0..2 {
                    let got_fwd = ttm_dense_ws(&x, mode, &fwd, &mut ws).unwrap();
                    let got_tr = ttm_dense_transposed_ws(&x, mode, &tr, &mut ws).unwrap();
                    assert_eq!(bits(&got_fwd), want_fwd, "{dims:?} mode {mode} t={threads}");
                    assert_eq!(bits(&got_tr), want_tr, "{dims:?} mode {mode}ᵀ t={threads}");
                    ws.recycle_tensor(got_fwd);
                    ws.recycle_tensor(got_tr);
                }
                assert_eq!(bits(&ttm_dense(&x, mode, &fwd).unwrap()), want_fwd);
                assert_eq!(bits(&ttm_dense_transposed(&x, mode, &tr).unwrap()), want_tr);
            }
            m2td_par::set_max_threads(0);
        }
    }
}

#[test]
fn permute_modes_matches_multi_index_reference() {
    let mut rng = StdRng::seed_from_u64(0x9e3);
    for case in 0..40 {
        let order = rng.gen_range(1usize..6);
        let dims: Vec<usize> = (0..order).map(|_| rng.gen_range(1usize..6)).collect();
        let mut x = rand_tensor(&mut rng, &dims);
        x.as_mut_slice()[0] = f64::NAN;
        // A seeded Fisher–Yates shuffle of the modes.
        let mut perm: Vec<usize> = (0..order).collect();
        for i in (1..order).rev() {
            perm.swap(i, rng.gen_range(0..i + 1));
        }
        let new_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
        let new_shape = Shape::new(&new_dims);
        let mut want = vec![0u64; x.num_elements()];
        for (lin, v) in x.as_slice().iter().enumerate() {
            let old = x.shape().multi_index(lin);
            let new: Vec<usize> = perm.iter().map(|&p| old[p]).collect();
            want[new_shape.linear_index(&new)] = v.to_bits();
        }
        let got = x.permute_modes(&perm).unwrap();
        assert_eq!(
            bits(&got),
            (new_dims, want),
            "case {case}: {dims:?} by {perm:?}"
        );
    }
}

#[test]
fn distance_matches_sub_then_norm_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xd15);
    let dims = [3usize, 4, 5];
    let mut cases: Vec<(DenseTensor, DenseTensor)> = (0..20)
        .map(|_| (rand_tensor(&mut rng, &dims), rand_tensor(&mut rng, &dims)))
        .collect();
    let zeros = DenseTensor::zeros(&dims);
    cases.push((zeros.clone(), zeros.clone()));
    let base = rand_tensor(&mut rng, &dims);
    cases.push((base.clone(), base.clone()));
    for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -0.0] {
        let mut a = base.clone();
        a.as_mut_slice()[7] = special;
        cases.push((a.clone(), base.clone()));
        cases.push((a.clone(), a.clone()));
        let mut only = zeros.clone();
        only.as_mut_slice()[7] = special;
        cases.push((only, zeros.clone()));
    }
    let mut both_inf = base.clone();
    both_inf.as_mut_slice()[0] = f64::INFINITY;
    both_inf.as_mut_slice()[1] = f64::NEG_INFINITY;
    cases.push((both_inf, base.clone()));
    for (i, (a, b)) in cases.iter().enumerate() {
        let want = a.sub(b).unwrap().frobenius_norm();
        let got = a.distance(b).unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "case {i}: {got} vs {want}");
    }
    assert!(base.distance(&DenseTensor::zeros(&[3, 4])).is_err());
}

#[test]
fn dense_join_route_matches_semi_sparse_route_bitwise() {
    // A 6·5·4·3 join, filled to just below and just above the default
    // densify threshold: below runs the semi-sparse chain, above runs the
    // dense kernel from the input. Both must equal the dense chain.
    let dims = [6usize, 5, 4, 3];
    let ranks = [2usize, 3, 2, 2];
    let size: usize = dims.iter().product();
    let plan = TtmPlan::new(&dims, &ranks).unwrap();
    let cut = (plan.densify_threshold() * size as f64).ceil() as usize;
    let mut rng = StdRng::seed_from_u64(0x5e);
    let factors: Vec<Matrix> = dims
        .iter()
        .zip(&ranks)
        .map(|(&d, &r)| rand_matrix(&mut rng, d, r))
        .collect();
    for nnz in [cut - 1, cut] {
        // Every cell gets a random key; the `nnz` smallest are stored.
        let mut order: Vec<(u64, usize)> =
            (0..size).map(|l| (rng.gen_range(0..u64::MAX), l)).collect();
        order.sort_unstable();
        let mut dense = DenseTensor::zeros(&dims);
        for &(_, lin) in &order[..nnz] {
            dense.as_mut_slice()[lin] = rng.gen_range(-2.0..2.0);
        }
        dense.as_mut_slice()[order[0].1] = -0.0;
        let sparse = SparseTensor::from_dense(&dense);
        // from_dense drops stored zeros; keep the -0.0 entry explicitly.
        let entries: Vec<(Vec<usize>, f64)> = order[..nnz]
            .iter()
            .map(|&(_, lin)| (dense.shape().multi_index(lin), dense.as_slice()[lin]))
            .collect();
        let stored = SparseTensor::from_entries(&dims, &entries).unwrap();
        assert_eq!(stored.nnz(), nnz);
        assert!(sparse.nnz() <= nnz);
        let want = bits(
            &plan
                .execute_dense(&dense, &factors, &mut Workspace::new())
                .unwrap(),
        );
        for x in [&stored, &sparse] {
            let got = plan
                .execute_sparse(x, &factors, &mut Workspace::new())
                .unwrap();
            assert_eq!(bits(&got), want, "nnz {} of {size}", x.nnz());
        }
    }
}
