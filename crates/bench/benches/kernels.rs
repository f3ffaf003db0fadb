//! Micro-benchmarks of the numerical kernels underlying M2TD: SVD routes,
//! symmetric eigendecomposition, sparse/dense TTM, Gram computation and
//! stitching — plus the serial-vs-parallel sweep that anchors the perf
//! trajectory in `BENCH_kernels.json`.

use m2td_bench::criterion_group;
use m2td_bench::harness::{BatchSize, Criterion};
use m2td_bench::registry::bench_thread_counts;
use m2td_linalg::{gram_left_singular_vectors, householder_qr, svd, symmetric_eig, Matrix};
use m2td_sim::systems::{DoublePendulum, TriplePendulum};
use m2td_sim::{EnsembleBuilder, EnsembleSystem, TimeGrid};
use m2td_sketch::{SketchConfig, SketchPolicy};
use m2td_stitch::{stitch, StitchKind};
use m2td_tensor::{
    hosvd_sparse, hosvd_sparse_exact, hosvd_sparse_sketched, sparse_core, ttm_dense,
    ttm_sparse_transposed, CoreOrdering, DenseTensor, Shape, SparseTensor, TtmPlan, Workspace,
};
use std::hint::black_box;

fn dense_tensor(dims: &[usize]) -> DenseTensor {
    DenseTensor::from_fn(dims, |i| {
        let mut acc = 1.0;
        for (n, &x) in i.iter().enumerate() {
            acc *= ((x + n + 1) as f64 * 0.37).sin() + 1.2;
        }
        acc
    })
}

fn full_sparse(dims: &[usize]) -> SparseTensor {
    SparseTensor::from_dense(&dense_tensor(dims))
}

/// SVD routes: full one-sided Jacobi vs the Gram trick used by HOSVD
/// (the `ablation_svd` design-choice ablation).
fn bench_svd_routes(c: &mut Criterion) {
    let mut g = c.benchmark_group("svd_routes");
    g.sample_size(20);
    // A short-and-wide matricization, the shape the pipeline always sees.
    let a = Matrix::from_fn(12, 1728, |i, j| ((i * 7 + j) as f64 * 0.013).sin());
    g.bench_function("jacobi_full_svd", |b| {
        b.iter(|| svd(black_box(&a)).unwrap())
    });
    g.bench_function("gram_truncated_r4", |b| {
        b.iter(|| gram_left_singular_vectors(black_box(&a), 4).unwrap())
    });
    g.finish();
}

fn bench_eig_and_qr(c: &mut Criterion) {
    let mut g = c.benchmark_group("eig_qr");
    g.sample_size(30);
    let sym = {
        let b = Matrix::from_fn(24, 24, |i, j| ((i * 3 + j * 5) as f64 * 0.11).sin());
        b.gram_rows()
    };
    g.bench_function("symmetric_eig_24", |b| {
        b.iter(|| symmetric_eig(black_box(&sym)).unwrap())
    });
    let rect = Matrix::from_fn(64, 24, |i, j| ((i + 2 * j) as f64 * 0.07).cos());
    g.bench_function("householder_qr_64x24", |b| {
        b.iter(|| householder_qr(black_box(&rect)).unwrap())
    });
    g.finish();
}

/// Blocked vs row-streaming GEMM on the shapes the pipeline actually
/// produces: a ≥256-dim square product, the tall-skinny `I×R` Phase-1
/// factor product, and the `R×I·I×R` Gram. Before timing starts the
/// blocked results are asserted tolerance-equal to the streaming kernel
/// and bitwise identical across every benched thread count.
fn bench_gemm(c: &mut Criterion) {
    let counts = bench_thread_counts();

    let sq_a = Matrix::from_fn(256, 256, |i, j| ((i * 13 + j * 7) as f64 * 0.003).sin());
    let sq_b = Matrix::from_fn(256, 256, |i, j| ((i * 5 + j * 11) as f64 * 0.007).cos());
    let tall = Matrix::from_fn(4096, 32, |i, j| ((i * 3 + j) as f64 * 0.011).sin());
    let small = Matrix::from_fn(32, 32, |i, j| ((i + 2 * j) as f64 * 0.019).cos());
    let gram_a = Matrix::from_fn(64, 4096, |i, j| ((i * 17 + j) as f64 * 0.002).sin());

    let mut blocked = Matrix::zeros(0, 0);
    let mut rows = Matrix::zeros(0, 0);
    m2td_par::set_max_threads(1);
    sq_a.matmul_into(&sq_b, &mut blocked).unwrap();
    sq_a.matmul_rowstream_into(&sq_b, &mut rows).unwrap();
    let scale = rows.max_abs().max(1.0);
    for (x, y) in blocked.as_slice().iter().zip(rows.as_slice()) {
        assert!(
            (x - y).abs() <= 1e-12 * scale,
            "blocked vs streaming drifted past 1e-12"
        );
    }
    let serial = blocked.clone();
    for &t in &counts {
        m2td_par::set_max_threads(t);
        sq_a.matmul_into(&sq_b, &mut blocked).unwrap();
        assert_eq!(blocked, serial, "blocked gemm diverged at t={t}");
    }

    let mut g = c.benchmark_group("gemm");
    g.sample_size(10);
    let mut out = Matrix::zeros(0, 0);
    for &threads in &counts {
        m2td_par::set_max_threads(threads);
        g.bench_function(format!("square256_blocked_t{threads}"), |b| {
            b.iter(|| sq_a.matmul_into(black_box(&sq_b), &mut out).unwrap())
        });
        g.bench_function(format!("square256_rows_t{threads}"), |b| {
            b.iter(|| {
                sq_a.matmul_rowstream_into(black_box(&sq_b), &mut out)
                    .unwrap()
            })
        });
        g.bench_function(format!("tall4096x32_blocked_t{threads}"), |b| {
            b.iter(|| tall.matmul_into(black_box(&small), &mut out).unwrap())
        });
        g.bench_function(format!("tall4096x32_rows_t{threads}"), |b| {
            b.iter(|| {
                tall.matmul_rowstream_into(black_box(&small), &mut out)
                    .unwrap()
            })
        });
        g.bench_function(format!("gram64x4096_blocked_t{threads}"), |b| {
            b.iter(|| black_box(&gram_a).gram_rows())
        });
        g.bench_function(format!("gram64x4096_rows_t{threads}"), |b| {
            b.iter(|| black_box(&gram_a).gram_rows_rowstream())
        });
    }
    g.finish();
    m2td_par::set_max_threads(0);
}

fn bench_ttm(c: &mut Criterion) {
    let mut g = c.benchmark_group("ttm");
    g.sample_size(20);
    let dense = dense_tensor(&[12, 12, 12, 12]);
    let sparse = SparseTensor::from_dense(&dense);
    let u = Matrix::from_fn(12, 4, |i, j| ((i + j) as f64 * 0.3).sin());
    g.bench_function("dense_mode0_12c4", |b| {
        b.iter(|| ttm_dense(black_box(&dense), 0, &u.transpose()).unwrap())
    });
    g.bench_function("sparse_transposed_mode0", |b| {
        b.iter(|| ttm_sparse_transposed(black_box(&sparse), 0, &u).unwrap())
    });
    let factors: Vec<Matrix> = (0..4)
        .map(|n| Matrix::from_fn(12, 4, |i, j| ((i * (n + 2) + j) as f64 * 0.21).cos()))
        .collect();
    g.bench_function("sparse_core_chain", |b| {
        b.iter(|| sparse_core(black_box(&sparse), &factors, CoreOrdering::BestShrinkFirst).unwrap())
    });
    g.finish();
}

/// The planned core-recovery chain vs the fixed natural order, per bench
/// shape, on 1-in-3-thinned sparse inputs — the `ttm_chain` kernel family
/// recorded in `BENCH_kernels.json`. The two variants are checked to
/// agree numerically before timing starts.
fn bench_ttm_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("ttm_chain");
    g.sample_size(15);
    let shapes: [(&str, Vec<usize>, Vec<usize>); 2] = [
        ("cube12_r4", vec![12, 12, 12, 12], vec![4, 4, 4, 4]),
        ("skew32x16x8_r422", vec![32, 16, 8], vec![4, 2, 2]),
    ];
    for (tag, dims, ranks) in shapes {
        let shape = Shape::new(&dims);
        let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
            .filter(|l| l % 3 != 0)
            .map(|l| (shape.multi_index(l), (l as f64 * 0.19).sin() + 0.4))
            .collect();
        let sparse = SparseTensor::from_entries(&dims, &entries).unwrap();
        let factors: Vec<Matrix> = dims
            .iter()
            .zip(ranks.iter())
            .enumerate()
            .map(|(n, (&d, &r))| {
                Matrix::from_fn(d, r, |i, j| ((i * (n + 2) + 3 * j) as f64 * 0.23).cos())
            })
            .collect();
        let planned = TtmPlan::with_ordering(&dims, &ranks, CoreOrdering::BestShrinkFirst).unwrap();
        let natural = TtmPlan::with_ordering(&dims, &ranks, CoreOrdering::Natural).unwrap();
        let a = planned
            .execute_sparse(&sparse, &factors, &mut Workspace::new())
            .unwrap();
        let b = natural
            .execute_sparse(&sparse, &factors, &mut Workspace::new())
            .unwrap();
        let drift = a.sub(&b).unwrap().frobenius_norm();
        assert!(drift < 1e-9, "{tag}: orderings disagree by {drift}");

        let mut ws = Workspace::new();
        g.bench_function(format!("planned_{tag}"), |b| {
            b.iter(|| {
                planned
                    .execute_sparse(black_box(&sparse), &factors, &mut ws)
                    .unwrap()
            })
        });
        g.bench_function(format!("natural_{tag}"), |b| {
            b.iter(|| {
                natural
                    .execute_sparse(black_box(&sparse), &factors, &mut ws)
                    .unwrap()
            })
        });
    }
    g.finish();
}

/// Randomized (sketched) kernels vs their exact counterparts — the
/// `sketch` family in `BENCH_kernels.json`: the `cube12_r4` sparse HOSVD
/// with MACH entry sampling vs the exact sparse HOSVD.
///
/// Each record carries its measured `rel_err` (computed outside
/// the timed region) so the JSON trajectory tracks accuracy next to
/// speed.
fn bench_sketch(c: &mut Criterion) {
    let mut g = c.benchmark_group("sketch");
    g.sample_size(15);

    // MACH-sampled sparse HOSVD on the cube12 bench shape.
    let sparse = full_sparse(&[12, 12, 12, 12]);
    let ranks = [4usize, 4, 4, 4];
    let mach = SketchConfig::with_size(8)
        .with_seed(0x5EED)
        .with_policy(SketchPolicy::Mach { keep: 0.3 });
    g.bench_function("hosvd_exact_cube12_r4", |b| {
        b.iter(|| hosvd_sparse_exact(black_box(&sparse), &ranks).unwrap())
    });
    let exact = hosvd_sparse_exact(&sparse, &ranks).unwrap();
    g.attach_rel_err(tucker_rel_err(&exact, &sparse));
    g.bench_function("hosvd_mach_cube12_r4", |b| {
        b.iter(|| hosvd_sparse_sketched(black_box(&sparse), &ranks, &mach).unwrap())
    });
    let (_, rel_err) = hosvd_sparse_sketched(&sparse, &ranks, &mach).unwrap();
    g.attach_rel_err(rel_err);

    g.finish();
}

/// Reconstruction error of a sparse-tensor Tucker decomposition via the
/// free identity `‖X − X̂‖² = ‖X‖² − ‖G‖²` (orthonormal factors, core
/// projected from the full tensor).
fn tucker_rel_err(t: &m2td_tensor::TuckerDecomp, x: &SparseTensor) -> f64 {
    let total = x.frobenius_norm().powi(2);
    let captured = t.core.frobenius_norm().powi(2);
    if total > 0.0 {
        ((total - captured).max(0.0) / total).sqrt()
    } else {
        0.0
    }
}

fn bench_gram_and_hosvd(c: &mut Criterion) {
    let mut g = c.benchmark_group("gram_hosvd");
    g.sample_size(15);
    let sparse = full_sparse(&[10, 10, 10, 10]);
    g.bench_function("unfold_gram_mode0", |b| {
        b.iter(|| sparse.unfold_gram(0).unwrap())
    });
    g.bench_function("hosvd_sparse_rank4", |b| {
        b.iter(|| hosvd_sparse(black_box(&sparse), &[4, 4, 4, 4]).unwrap())
    });
    g.finish();
}

fn bench_stitch(c: &mut Criterion) {
    let mut g = c.benchmark_group("stitch");
    g.sample_size(15);
    let x1 = full_sparse(&[10, 100]);
    let x2 = full_sparse(&[10, 100]);
    g.bench_function("join_10x100", |b| {
        b.iter(|| stitch(black_box(&x1), &x2, 1, StitchKind::Join).unwrap())
    });
    // Thinned inputs exercise the zero-join bookkeeping.
    let thin = |x: &SparseTensor| {
        let entries: Vec<(Vec<usize>, f64)> = x
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, e)| e)
            .collect();
        SparseTensor::from_entries(x.dims(), &entries).unwrap()
    };
    let t1 = thin(&x1);
    let t2 = thin(&x2);
    g.bench_function("zero_join_thinned", |b| {
        b.iter(|| stitch(black_box(&t1), &t2, 1, StitchKind::ZeroJoin).unwrap())
    });
    g.finish();
}

/// Simulation cost — the `sim` family in `BENCH_kernels.json`. One RK4
/// trajectory of each pendulum on the end-to-end benchmark's time grid
/// (t_end 2, 10 stamps, 16 substeps), plus a resolution-3 triple-pendulum
/// ground truth (81 trajectories). Simulation is serial, so the family
/// runs at one thread whatever `M2TD_THREADS` says.
fn bench_sim(c: &mut Criterion) {
    m2td_par::set_max_threads(1);
    let grid = TimeGrid::new(2.0, 10, 16);
    let double = DoublePendulum::default();
    let triple = TriplePendulum::default();
    let double_params = double.default_space(5).default_values();
    let triple_params = triple.default_space(5).default_values();
    let space3 = triple.default_space(3);
    let builder = EnsembleBuilder::new(&triple, &space3, &grid);

    let mut g = c.benchmark_group("sim");
    // Many samples: one trajectory takes tens of microseconds, so a short
    // window would price whatever else the box was doing at the time.
    g.sample_size(500);
    g.bench_function("double_pendulum_trajectory", |b| {
        b.iter(|| double.simulate(black_box(&double_params), &grid))
    });
    g.bench_function("triple_pendulum_trajectory", |b| {
        b.iter(|| triple.simulate(black_box(&triple_params), &grid))
    });
    g.sample_size(20);
    g.bench_function("triple_pendulum_ground_truth_r3", |b| {
        b.iter(|| black_box(&builder).ground_truth().unwrap())
    });
    g.finish();
    m2td_par::set_max_threads(0);
}

fn bench_shape_math(c: &mut Criterion) {
    let mut g = c.benchmark_group("shape");
    let shape = Shape::new(&[14, 14, 14, 14, 14]);
    let total = shape.num_elements();
    g.bench_function("multi_index_round_trip", |b| {
        b.iter_batched(
            || (0..total).step_by(101).collect::<Vec<_>>(),
            |lins| {
                let mut acc = 0usize;
                for l in lins {
                    let idx = shape.multi_index(l);
                    acc += shape.linear_index(&idx);
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Incremental vs batch Gram maintenance (the streaming-ensemble path).
fn bench_incremental_gram(c: &mut Criterion) {
    use m2td_tensor::IncrementalEnsemble;
    let mut g = c.benchmark_group("incremental");
    g.sample_size(15);
    let dims = [10usize, 10, 10];
    let dense = dense_tensor(&dims);
    let shape = Shape::new(&dims);
    let cells: Vec<(Vec<usize>, f64)> = dense
        .as_slice()
        .iter()
        .enumerate()
        .step_by(2)
        .map(|(l, &v)| (shape.multi_index(l), v))
        .collect();
    g.bench_function("incremental_fill_500", |b| {
        b.iter(|| {
            let mut inc = IncrementalEnsemble::new(&dims);
            for (idx, v) in &cells {
                inc.add(idx, *v).unwrap();
            }
            inc
        })
    });
    g.bench_function("batch_grams_after_fill", |b| {
        let sparse = {
            let mut inc = IncrementalEnsemble::new(&dims);
            for (idx, v) in &cells {
                inc.add(idx, *v).unwrap();
            }
            inc.to_sparse()
        };
        b.iter(|| {
            (0..3)
                .map(|m| sparse.unfold_gram(m).unwrap())
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

/// Serial-vs-parallel sweep of the two headline kernels — `gram_rows` on
/// a 512×512 matricization and `ttm_sparse_transposed` on a >10⁵-nnz
/// tensor — at every thread count from [`bench_thread_counts`]. Each
/// record carries its `threads` tag, and parallel results are asserted
/// bitwise-equal to the serial baseline before timing starts.
fn bench_parallel_speedup(c: &mut Criterion) {
    let counts = bench_thread_counts();

    let a = Matrix::from_fn(512, 512, |i, j| ((i * 13 + j * 7) as f64 * 0.003).sin());
    let sparse = full_sparse(&[24, 24, 20, 10]); // 115_200 stored entries
    let u = Matrix::from_fn(24, 4, |i, j| ((i * 4 + j) as f64 * 0.17).cos());

    m2td_par::set_max_threads(1);
    let gram_serial = a.gram_rows();
    let ttm_serial = ttm_sparse_transposed(&sparse, 0, &u).unwrap();

    let mut g = c.benchmark_group("parallel_speedup");
    g.sample_size(10);
    for &threads in &counts {
        m2td_par::set_max_threads(threads);
        assert_eq!(
            a.gram_rows(),
            gram_serial,
            "gram_rows diverged at t={threads}"
        );
        assert_eq!(
            ttm_sparse_transposed(&sparse, 0, &u).unwrap(),
            ttm_serial,
            "ttm_sparse_transposed diverged at t={threads}"
        );
        g.bench_function(format!("gram_rows_512_t{threads}"), |b| {
            b.iter(|| black_box(&a).gram_rows())
        });
        g.bench_function(format!("ttm_sparse_transposed_115k_t{threads}"), |b| {
            b.iter(|| ttm_sparse_transposed(black_box(&sparse), 0, &u).unwrap())
        });
    }
    g.finish();
    m2td_par::set_max_threads(0);
}

/// Envelope-transport overhead: the same D-M2TD job over the direct
/// in-process path vs the checksummed channel transport, at 1, 2 and 8
/// logical workers. The channel numbers price serialization, checksum
/// verification and the extra mpsc hop; results are asserted bitwise
/// equal before timing starts so the family never prices a wrong answer.
fn bench_dist_overhead(c: &mut Criterion) {
    use m2td_core::M2tdOptions;
    use m2td_dist::{d_m2td, MapReduce, TransportKind};

    let cell = |p: usize, a: usize, b: usize| {
        ((p as f64) * 0.5).sin() * ((a as f64) * 0.4 + 1.0) * ((b as f64) * 0.3 + 1.0) + 0.2
    };
    let pair = |dims: [usize; 2]| {
        let x1 = DenseTensor::from_fn(&dims, |i| cell(i[0], i[1], dims[1] / 2));
        let x2 = DenseTensor::from_fn(&dims, |i| cell(i[0], dims[1] / 2, i[1]));
        (SparseTensor::from_dense(&x1), SparseTensor::from_dense(&x2))
    };
    let (x1, x2) = pair([8, 6]);
    let ranks = [3, 3, 3];
    let opts = M2tdOptions::default();

    let mut g = c.benchmark_group("dist_overhead");
    g.sample_size(10);
    for workers in [1usize, 2, 8] {
        let direct = MapReduce::new(workers).with_transport(TransportKind::Direct);
        let channel = direct.with_transport(TransportKind::Channel);
        let baseline = d_m2td(&x1, &x2, 1, &ranks, opts, &direct).unwrap();
        let over_channel = d_m2td(&x1, &x2, 1, &ranks, opts, &channel).unwrap();
        assert_eq!(
            baseline.tucker.core.as_slice(),
            over_channel.tucker.core.as_slice(),
            "channel transport diverged at w={workers}"
        );
        for (tag, engine) in [("direct", direct), ("channel", channel)] {
            g.bench_function(format!("{tag}_w{workers}"), |b| {
                b.iter(|| d_m2td(black_box(&x1), &x2, 1, &ranks, opts, &engine).unwrap())
            });
        }
    }
    g.finish();
}

/// Serving-path QPS — the `serve` family in `BENCH_kernels.json`.
///
/// A resident [`m2td_serve::ServeEngine`] is filled from a deterministic
/// synthetic ensemble, then queried from 1, 2 and 8 std threads: the
/// single-cell path (pre-decoded `CellEvaluator` + bounded cache) and the
/// batched-TTM slice path, each tagged with its thread count, plus the
/// absorb and refresh latencies. Before timing starts, every thread
/// count's answers are asserted bitwise-equal to the single-thread
/// baseline — the serving contract the `tests/serve.rs` property tests
/// pin.
fn bench_serve(c: &mut Criterion) {
    use m2td_serve::{ServeConfig, ServeEngine};
    use std::sync::Arc;

    let dims = [16usize, 16, 12];
    let ranks = [4usize, 4, 4];
    let shape = Shape::new(&dims);
    let cells: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
        .filter(|l| l % 2 == 0)
        .map(|l| (shape.multi_index(l), (l as f64 * 0.37).sin() + 1.0))
        .collect();
    let build = |staleness: usize| {
        let engine = ServeEngine::new(ServeConfig::default().with_staleness(staleness));
        engine.register("bench", &dims, &ranks).unwrap();
        for (idx, v) in &cells {
            engine.absorb("bench", idx, *v).unwrap();
        }
        engine
    };

    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    m2td_par::set_max_threads(1);
    g.bench_function(format!("absorb_{}_cells", cells.len()), |b| {
        b.iter_batched(
            || {
                let engine = ServeEngine::new(ServeConfig::default().with_staleness(0));
                engine.register("bench", &dims, &ranks).unwrap();
                engine
            },
            |engine| {
                for (idx, v) in &cells {
                    engine.absorb("bench", idx, *v).unwrap();
                }
                engine
            },
            BatchSize::SmallInput,
        )
    });

    let engine = Arc::new(build(0));
    engine.refresh("bench").unwrap();
    g.bench_function("refresh_16x16x12_r4", |b| {
        b.iter(|| engine.refresh("bench").unwrap())
    });

    // A deterministic query mix covering the whole reconstruction space.
    let queries: Vec<Vec<usize>> = (0..shape.num_elements())
        .step_by(7)
        .map(|l| shape.multi_index(l))
        .collect();
    let baseline: Vec<u64> = queries
        .iter()
        .map(|q| engine.query_cell("bench", q).unwrap().to_bits())
        .collect();

    for threads in [1usize, 2, 8] {
        m2td_par::set_max_threads(threads);
        // Queries must be bitwise identical at every thread count.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let eng = Arc::clone(&engine);
                    let qs = &queries;
                    s.spawn(move || {
                        qs.iter()
                            .map(|q| eng.query_cell("bench", q).unwrap().to_bits())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(
                    h.join().unwrap(),
                    baseline,
                    "queries diverged at t={threads}"
                );
            }
        });
        g.bench_function(format!("query_cell_x{}_t{threads}", queries.len()), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            let eng = Arc::clone(&engine);
                            let qs = &queries;
                            s.spawn(move || {
                                let mut acc = 0.0;
                                for q in qs {
                                    acc += eng.query_cell("bench", q).unwrap();
                                }
                                acc
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).sum::<f64>()
                })
            })
        });
        // Slice path: each thread brings its own workspace so the batched
        // TTM chains run truly concurrently.
        let model = engine.model("bench").unwrap();
        g.bench_function(format!("query_slice_mode0_t{threads}"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            let m = Arc::clone(&model);
                            s.spawn(move || {
                                let mut ws = Workspace::new();
                                let mut acc = 0.0;
                                for i in 0..dims[0] {
                                    let slice = m.slice(0, (i + t) % dims[0], &mut ws).unwrap();
                                    acc += slice.as_slice()[0];
                                }
                                acc
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).sum::<f64>()
                })
            })
        });
    }
    g.finish();
    m2td_par::set_max_threads(0);
}

criterion_group!(
    kernels,
    bench_svd_routes,
    bench_eig_and_qr,
    bench_gemm,
    bench_ttm,
    bench_ttm_chain,
    bench_sketch,
    bench_gram_and_hosvd,
    bench_stitch,
    bench_sim,
    bench_shape_math,
    bench_incremental_gram,
    bench_dist_overhead,
    bench_parallel_speedup,
    bench_serve
);

fn main() {
    // Record span aggregates alongside the kernel timings: the benched
    // kernels (SVD, eig, TTM, Gram) emit spans, and `write_records`
    // appends the aggregates as `obs.span` records.
    m2td_obs::install();
    let mut c = Criterion::default();
    kernels(&mut c);
    // Check the baseline in from the repo root so the perf trajectory is
    // tracked PR over PR.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    match c.write_records(&out) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
}
