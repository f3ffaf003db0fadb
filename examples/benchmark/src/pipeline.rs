//! `pipeline_dp` and `pipeline_tp_thin`: whole `Workbench` M2TD runs
//! (simulate → sample → stitch → phases 1–3 → reconstruct → score).
//!
//! The two workloads share the call path but not its balance. On the
//! double pendulum decomposition dominates; on the triple pendulum RK4
//! with a mass-matrix solve per step is about half of every run, and the
//! thin cell budget sends stitching down the zero-join path.

use crate::measure::{
    closed_loop, fatal, observed, push_obs_layers, timed_setup, LayerSamples, Outcome,
    MIN_REQUESTS, MIN_TRACED,
};
use crate::stats::percentile_of;
use crate::trace::{self_time_by_name, Tracer};
use m2td::core::{m2td_decompose, M2tdOptions, RunReport, Workbench, WorkbenchConfig};
use m2td::json::{Json, ToJson};
use m2td::sampling::{PfPartition, RandomSampling, SubSystem};
use m2td::sim::systems::{DoublePendulum, TriplePendulum};
use m2td::sim::{EnsembleBuilder, EnsembleSystem, TimeGrid};
use m2td::stitch::StitchKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::error::Error;
use std::time::Instant;

/// The pivot is the time mode, the last of the five.
const TIME_MODE: usize = 4;
const RANK: usize = 4;
const NOISE_SIGMA: f64 = 1e-3;
const WARMUPS: usize = 3;
/// The pool runs one thread. On a 2-core machine two pool threads were
/// no faster, and their run-to-run spread of the median run was 5×
/// that of one thread (interleaved runs, ten seeds).
const POOL_THREADS: usize = 1;
/// Sampling draws the accuracy metric is the median of. On the thin
/// budget the draw moves one run's accuracy by about 5% from seed to
/// seed; the median of many draws moves far less.
const ACCURACY_DRAWS: u64 = 15;

/// Seed of sampling draw `i`; draw 0 is `seed` itself.
fn draw_seed(seed: u64, i: u64) -> u64 {
    seed ^ (i << 32)
}

pub struct Spec {
    system: Box<dyn EnsembleSystem>,
    resolution: usize,
    stitch: StitchKind,
    /// Share of the planned sub-ensemble cells that is simulated; the seed
    /// picks which.
    cell_frac: f64,
}

/// The paper's headline configuration: double pendulum, 12⁵-cell ground
/// truth, SELECT with plain join at full density.
pub fn double_pendulum() -> Spec {
    Spec {
        system: Box::new(DoublePendulum::default()),
        resolution: 12,
        stitch: StitchKind::Join,
        cell_frac: 1.0,
    }
}

/// The Table V thin-budget regime: triple pendulum, half the planned cells,
/// zero-join.
pub fn triple_pendulum_thin() -> Spec {
    Spec {
        system: Box::new(TriplePendulum::default()),
        resolution: 10,
        stitch: StitchKind::ZeroJoin,
        cell_frac: 0.5,
    }
}

impl Spec {
    fn config(&self, seed: u64) -> WorkbenchConfig {
        WorkbenchConfig {
            resolution: self.resolution,
            time_steps: self.resolution,
            t_end: 2.0,
            substeps: 16,
            rank: RANK,
            seed,
            noise_sigma: NOISE_SIGMA,
        }
    }

    fn opts(&self) -> M2tdOptions {
        M2tdOptions {
            stitch: self.stitch,
            ..M2tdOptions::default()
        }
    }

    fn workbench(&self, seed: u64) -> Workbench<'_> {
        Workbench::new(self.system.as_ref(), self.config(seed))
            .unwrap_or_else(|e| fatal(format!("workbench set-up failed: {e}")))
    }

    /// One request: the library's own end-to-end run.
    fn run(&self, w: &Workbench<'_>) -> m2td::core::Result<RunReport> {
        w.run_m2td_cells(TIME_MODE, self.opts(), 1.0, 1.0, self.cell_frac)
    }
}

pub fn timed(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    m2td::par::set_max_threads(POOL_THREADS);
    let mut out = Outcome::new();
    let (w, setup_s) = timed_setup(|| spec.workbench(seed));

    // Untimed checks: M2TD must beat conventional random-sampling HOSVD
    // given the same number of simulated cells.
    let first = spec
        .run(&w)
        .unwrap_or_else(|e| fatal(format!("M2TD run failed: {e}")));
    let random = w
        .run_conventional(&RandomSampling, first.cells)
        .unwrap_or_else(|e| fatal(format!("conventional run failed: {e}")));
    out.check(first.accuracy > random.accuracy);
    let reference = first.accuracy.to_bits();
    let same =
        |r: m2td::core::Result<RunReport>| r.is_ok_and(|r| r.accuracy.to_bits() == reference);
    for _ in 1..WARMUPS {
        out.check(same(spec.run(&w)));
    }

    let timed = closed_loop(seconds, MIN_REQUESTS, || same(spec.run(&w)));
    timed.report(&mut out, setup_s, first.cells);

    // After the timed loop, so its memory is not counted: the accuracy
    // metric is the median over `ACCURACY_DRAWS` sampling draws, rebuilt
    // from public calls. Draw 0 is the timed runs' own and must match the
    // library run bit for bit.
    let accuracies: Vec<f64> = (0..ACCURACY_DRAWS)
        .map(|i| {
            traced_run(spec, &w, draw_seed(seed, i), &mut Tracer::new())
                .unwrap_or_else(|e| fatal(format!("M2TD draw {i} failed: {e}")))
                .accuracy
        })
        .collect();
    out.check(accuracies[0].to_bits() == reference);
    out.metric("accuracy", percentile_of(&accuracies, 50.0));
    out.detail("run_accuracy", Json::Float(first.accuracy));
    out.detail("distinct_sims", Json::Int(first.distinct_sims as i64));
    out.detail("random_hosvd_accuracy", Json::Float(random.accuracy));
    out
}

/// What a traced run returns besides its spans.
struct TracedRun {
    accuracy: f64,
    distinct_sims: usize,
    join_nnz: usize,
}

/// `Workbench::run_m2td_cells` rebuilt from public calls in the same order
/// and with the same seeds, each call wrapped in a span named after its
/// layer. Its accuracy must equal the library run's bit for bit.
fn traced_run(
    spec: &Spec,
    w: &Workbench<'_>,
    seed: u64,
    t: &mut Tracer,
) -> Result<TracedRun, Box<dyn Error>> {
    let cfg = spec.config(seed);
    let system = spec.system.as_ref();
    let space = system.default_space(cfg.resolution);
    let grid = TimeGrid::new(cfg.t_end, cfg.time_steps, cfg.substeps);
    let full_dims = w.full_dims();
    let mut defaults = space.default_indices();
    defaults.push(cfg.time_steps / 2);
    let partition = PfPartition::balanced(w.n_modes(), TIME_MODE)?;

    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let (builder, _) = t.span("sim.observed", |_| {
        EnsembleBuilder::new(system, &space, &grid).with_noise(NOISE_SIGMA, seed.wrapping_add(77))
    });
    let (plans, _) = t.span("sampling.plan", |_| -> Result<_, Box<dyn Error>> {
        let mut plan =
            |which| partition.plan_subsystem(full_dims, &defaults, which, 1.0, 1.0, &mut rng);
        let (mut plan1, mut plan2) = (plan(SubSystem::First)?, plan(SubSystem::Second)?);
        if spec.cell_frac < 1.0 {
            for plan in [&mut plan1, &mut plan2] {
                plan.shuffle(&mut rng);
                let keep = ((plan.len() as f64 * spec.cell_frac).ceil() as usize).max(1);
                plan.truncate(keep);
            }
        }
        Ok((plan1, plan2))
    });
    let (plan1, plan2) = plans?;
    let (simulated, _) = t.span("sim.simulate", |_| {
        m2td::par::join(
            || builder.build_sparse(&plan1),
            || builder.build_sparse(&plan2),
        )
    });
    let ((full1, sims1), (full2, sims2)) = (simulated.0?, simulated.1?);
    let (extracted, _) = t.span("sampling.extract", |_| {
        (
            partition.extract_sub_tensor(&full1, &defaults, SubSystem::First),
            partition.extract_sub_tensor(&full2, &defaults, SubSystem::Second),
        )
    });
    let (x1, x2) = (extracted.0?, extracted.1?);

    let join_ranks: Vec<usize> = partition
        .join_modes()
        .iter()
        .map(|&m| RANK.min(full_dims[m]))
        .collect();
    let (decomp, m2td_span) = t.span("core.m2td", |_| {
        m2td_decompose(&x1, &x2, partition.k(), &join_ranks, spec.opts())
    });
    let decomp = decomp?;
    // The library times its three phases; they run back to back inside
    // the call, so they are recorded as its children in order.
    let ns = |secs: f64| (secs * 1e9) as u64;
    let tm = decomp.timings;
    let (p1, p2, p3) = (
        ns(tm.phase1_decompose),
        ns(tm.phase2_stitch),
        ns(tm.phase3_core),
    );
    t.record("core.phase1", m2td_span, 0, p1);
    t.record("stitch.join", m2td_span, p1, p2);
    t.record("core.phase3", m2td_span, p1 + p2, p3);

    let (recon_join, _) = t.span("tensor.reconstruct", |_| decomp.tucker.reconstruct());
    let recon_join = recon_join?;
    let (accuracy, _) = t.span("core.score", |_| -> Result<f64, Box<dyn Error>> {
        let recon = recon_join.permute_modes(&partition.perm_join_to_natural())?;
        Ok(w.accuracy(&recon)?)
    });
    Ok(TracedRun {
        accuracy: accuracy?,
        distinct_sims: sims1 + sims2,
        join_nnz: decomp.stitch_report.join_nnz,
    })
}

/// Per-layer shares of a run and the spans that make them up.
const LAYER_SPANS: [(&str, &[&str]); 9] = [
    ("sampling.plan_share", &["sampling.plan"]),
    ("sim.simulate_share", &["sim.observed", "sim.simulate"]),
    ("sampling.extract_share", &["sampling.extract"]),
    ("core.phase1_share", &["core.phase1"]),
    ("stitch.join_share", &["stitch.join"]),
    ("core.phase3_share", &["core.phase3"]),
    ("core.m2td_self_share", &["core.m2td"]),
    ("tensor.reconstruct_share", &["tensor.reconstruct"]),
    ("core.score_share", &["core.score"]),
];

pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    m2td::par::set_max_threads(POOL_THREADS);
    let mut out = Outcome::new();
    let w = spec.workbench(seed);
    let reference = spec
        .run(&w)
        .unwrap_or_else(|e| fatal(format!("M2TD run failed: {e}")));

    // Untraced library runs alternate with traced rebuilt runs, so drift
    // in the machine affects both sides of the overhead ratio alike.
    let mut tracer = Tracer::new();
    let mut layers = LayerSamples::default();
    let mut snapshots = Vec::new();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for request in 0u32.. {
        if start.elapsed().as_secs_f64() >= seconds && traced_ms.len() >= MIN_TRACED {
            break;
        }
        let t = Instant::now();
        let plain = spec.run(&w);
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check(plain.is_ok_and(|r| r.accuracy.to_bits() == reference.accuracy.to_bits()));

        tracer.set_request(request);
        let ((run, root), snap) =
            observed(|| tracer.span("run", |t| traced_run(spec, &w, seed, t)));
        let wall_ns = tracer.spans()[root].dur_ns;
        traced_ms.push(wall_ns as f64 / 1e6);
        let Ok(run) = run else {
            out.check(false);
            continue;
        };
        out.check(run.accuracy.to_bits() == reference.accuracy.to_bits());

        let by_name = self_time_by_name(tracer.spans(), request);
        let share = |names: &[&str]| -> f64 {
            let ns: u64 = by_name
                .iter()
                .filter(|(n, _)| names.contains(n))
                .map(|&(_, ns)| ns)
                .sum();
            ns as f64 / wall_ns as f64
        };
        for (metric, names) in LAYER_SPANS {
            layers.push(metric, share(names));
        }
        layers.push("trace.self_sum_frac", 1.0 - share(&["run"]));
        layers.push("trace.request_ms", wall_ns as f64 / 1e6);
        layers.push("sim.distinct_sims", run.distinct_sims as f64);
        layers.push("stitch.join_nnz", run.join_nnz as f64);
        push_obs_layers(&mut layers, &snap, 1.0, wall_ns as f64 / 1e6);
        snapshots.push(snap.to_json());
    }
    layers.push(
        "trace.overhead_frac",
        percentile_of(&traced_ms, 50.0) / percentile_of(&untraced_ms, 50.0) - 1.0,
    );
    layers.into_metrics(&mut out);
    out.latency_detail("untraced_run_ms", &untraced_ms);
    out.latency_detail("traced_run_ms", &traced_ms);
    out.trace = Some(Json::Obj(vec![
        ("spans".into(), tracer.to_json()),
        ("obs".into(), Json::Arr(snapshots)),
    ]));
    out
}
