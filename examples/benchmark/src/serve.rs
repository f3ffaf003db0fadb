//! `serve_session`: whole sessions of the repository's own serving
//! workload, `m2td-cli serve` at its default flags, each on a fresh
//! `ServeEngine`.
//!
//! One session registers a [12, 12, 10] ensemble at ranks [3, 3, 3],
//! absorbs every second cell of the CLI's field sin(0.37·l) + 1 one at a
//! time (`--fill 0.5`; an automatic refresh every 64 absorbs), refreshes
//! the rest, then answers 1,000 cell queries and the CLI's 8 slice
//! queries from one thread. The seed orders the absorbs and picks the
//! queried cells; everything else is the CLI's.

use crate::measure::{
    closed_loop, fatal, observed, push_obs_layers, timed_setup, LayerSamples, Outcome,
    MIN_REQUESTS, MIN_TRACED,
};
use crate::stats::percentile_of;
use crate::trace::{self_time_by_name, Tracer};
use m2td::json::{Json, ToJson};
use m2td::serve::{ServeConfig, ServeEngine, ServeError};
use m2td::tensor::{DenseTensor, Shape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const NAME: &str = "cli";
const DIMS: [usize; 3] = [12, 12, 10];
const RANKS: [usize; 3] = [3, 3, 3];
/// `--fill 0.5`: every second cell in linear order is absorbed.
const FILL_STRIDE: usize = 2;
const QUERIES: usize = 1_000;
const SLICES: usize = 8;
const WARMUPS: usize = 3;
/// Refreshes run on the session's own thread, as in the CLI.
const POOL_THREADS: usize = 1;

/// The CLI's analytic field at linear index `l`.
fn field(l: usize) -> f64 {
    ((l as f64) * 0.37).sin() + 1.0
}

/// Seeded inputs of a session and the full field they sample.
struct Data {
    cells: Vec<(Vec<usize>, f64)>,
    queries: Vec<Vec<usize>>,
    slices: Vec<(usize, usize)>,
    truth: DenseTensor,
}

impl Data {
    fn new(seed: u64) -> Self {
        let shape = Shape::new(&DIMS);
        let total = shape.num_elements();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cells: Vec<(Vec<usize>, f64)> = (0..total)
            .step_by(FILL_STRIDE)
            .map(|l| (shape.multi_index(l), field(l)))
            .collect();
        cells.shuffle(&mut rng);
        let queries = (0..QUERIES)
            .map(|_| shape.multi_index(rng.gen_range(0..total)))
            .collect();
        let slices = (0..SLICES)
            .map(|k| {
                let mode = k % DIMS.len();
                (mode, (k / DIMS.len()) % DIMS[mode])
            })
            .collect();
        let truth = DenseTensor::from_fn(&DIMS, |idx| field(shape.linear_index(idx)));
        Self {
            cells,
            queries,
            slices,
            truth,
        }
    }
}

/// Answers every cell query, appending the answers' bits to `bits`.
fn query_cells(engine: &ServeEngine, data: &Data, bits: &mut Vec<u64>) -> Result<(), ServeError> {
    for q in &data.queries {
        bits.push(engine.query_cell(NAME, q)?.to_bits());
    }
    Ok(())
}

/// Answers every slice query, appending the values' bits to `bits`.
fn query_slices(engine: &ServeEngine, data: &Data, bits: &mut Vec<u64>) -> Result<(), ServeError> {
    for &(mode, index) in &data.slices {
        let slice = engine.query_slice(NAME, mode, index)?;
        bits.extend(slice.as_slice().iter().map(|v| v.to_bits()));
    }
    Ok(())
}

/// A finished session: its engine and the bits of every answer it gave.
struct Session {
    engine: ServeEngine,
    answers: Vec<u64>,
}

/// One request.
fn session(data: &Data) -> Result<Session, ServeError> {
    let engine = ServeEngine::new(ServeConfig::default());
    engine.register(NAME, &DIMS, &RANKS)?;
    for (idx, v) in &data.cells {
        engine.absorb(NAME, idx, *v)?;
    }
    engine.refresh(NAME)?;
    let mut answers = Vec::new();
    query_cells(&engine, data, &mut answers)?;
    query_slices(&engine, data, &mut answers)?;
    Ok(Session { engine, answers })
}

/// `session` with each step in a span named after it. An absorb that
/// crossed the staleness threshold ran a refresh inside it; that absorb
/// is recorded as a `serve.refresh` child of the absorb loop. Returns the
/// answers and the number of refreshes.
fn traced_session(data: &Data, t: &mut Tracer) -> Result<(Vec<u64>, usize), ServeError> {
    let engine = ServeEngine::new(ServeConfig::default());
    let (registered, _) = t.span("serve.register", |_| engine.register(NAME, &DIMS, &RANKS));
    registered?;
    let mut refreshing = Vec::new();
    let (absorbed, absorb_span) = t.span("serve.absorb", |_| -> Result<(), ServeError> {
        let start = Instant::now();
        for (idx, v) in &data.cells {
            let before = start.elapsed();
            let report = engine.absorb(NAME, idx, *v)?;
            if report.refreshed {
                refreshing.push((before, start.elapsed() - before));
            }
        }
        Ok(())
    });
    absorbed?;
    for (offset, dur) in &refreshing {
        t.record(
            "serve.refresh",
            absorb_span,
            offset.as_nanos() as u64,
            dur.as_nanos() as u64,
        );
    }
    let (refreshed, _) = t.span("serve.refresh", |_| engine.refresh(NAME));
    refreshed?;
    let mut answers = Vec::new();
    let (cells, _) = t.span("serve.query_cell", |_| {
        query_cells(&engine, data, &mut answers)
    });
    cells?;
    let (slices, _) = t.span("serve.query_slice", |_| {
        query_slices(&engine, data, &mut answers)
    });
    slices?;
    Ok((answers, refreshing.len() + 1))
}

/// Set-up: the inputs and a reference session.
fn build(seed: u64) -> (Data, Session) {
    let data = Data::new(seed);
    let reference =
        session(&data).unwrap_or_else(|e| fatal(format!("reference session failed: {e}")));
    (data, reference)
}

/// Whether a session's answers are all finite and bit-identical to the
/// reference session's: the same absorbs in the same order must publish
/// the same model.
fn matches(reference: &Session, answers: &Result<Vec<u64>, ServeError>) -> bool {
    answers
        .as_ref()
        .is_ok_and(|a| *a == reference.answers && a.iter().all(|&b| f64::from_bits(b).is_finite()))
}

/// Checks on the reference session's final model; returns its accuracy
/// against the full field.
fn final_checks(data: &Data, reference: &Session, out: &mut Outcome) -> f64 {
    let engine = &reference.engine;
    out.check(
        reference
            .answers
            .iter()
            .all(|&b| f64::from_bits(b).is_finite()),
    );
    let model = engine
        .model(NAME)
        .unwrap_or_else(|e| fatal(format!("no final model: {e}")));
    let recon = model
        .decomp()
        .reconstruct()
        .unwrap_or_else(|e| fatal(format!("reconstruction failed: {e}")));
    let diff = recon
        .sub(&data.truth)
        .unwrap_or_else(|e| fatal(format!("scoring failed: {e}")));
    let accuracy = 1.0 - diff.frobenius_norm() / data.truth.frobenius_norm();

    // The same queries from two threads must agree bit for bit.
    let answer = || -> Vec<Option<u64>> {
        data.queries
            .iter()
            .map(|q| engine.query_cell(NAME, q).ok().map(f64::to_bits))
            .collect()
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(answer);
        (answer(), other.join().expect("check thread panicked"))
    });
    out.check(a == b && a.iter().all(Option::is_some));

    // A slice must equal its cells.
    let (mode, index) = data.slices[0];
    let slice_ok = engine.query_slice(NAME, mode, index).is_ok_and(|slice| {
        let shape = Shape::new(slice.dims());
        (0..shape.num_elements()).all(|l| {
            let mut idx = shape.multi_index(l);
            idx[mode] = index;
            let via_slice = slice.as_slice()[l];
            engine
                .query_cell(NAME, &idx)
                .is_ok_and(|v| (via_slice - v).abs() <= 1e-10 * (1.0 + v.abs()))
        })
    });
    out.check(slice_ok);
    accuracy
}

pub fn timed(seed: u64, seconds: f64) -> Outcome {
    m2td::par::set_max_threads(POOL_THREADS);
    let mut out = Outcome::new();
    let ((data, reference), setup_s) = timed_setup(|| build(seed));
    let accuracy = final_checks(&data, &reference, &mut out);
    let request = || matches(&reference, &session(&data).map(|s| s.answers));
    for _ in 0..WARMUPS {
        out.check(request());
    }
    let timed = closed_loop(seconds, MIN_REQUESTS, request);
    timed.report(&mut out, setup_s, data.cells.len());
    out.metric("accuracy", accuracy);
    out
}

/// Per-layer shares of a session and the spans that make them up.
const LAYER_SPANS: [(&str, &[&str]); 3] = [
    ("serve.absorb_share", &["serve.register", "serve.absorb"]),
    ("serve.refresh_share", &["serve.refresh"]),
    (
        "serve.query_share",
        &["serve.query_cell", "serve.query_slice"],
    ),
];

pub fn traced(seed: u64, seconds: f64) -> Outcome {
    m2td::par::set_max_threads(POOL_THREADS);
    let mut out = Outcome::new();
    let (data, reference) = build(seed);
    final_checks(&data, &reference, &mut out);

    // Untraced sessions alternate with traced ones, so drift in the
    // machine affects both sides of the overhead ratio alike. Sessions are
    // short, so the trace file keeps the spans and snapshots of the first
    // `MIN_TRACED` traced sessions only.
    let mut kept = Tracer::new();
    let mut layers = LayerSamples::default();
    let mut snapshots = Vec::new();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for request in 0u32.. {
        if start.elapsed().as_secs_f64() >= seconds && traced_ms.len() >= MIN_TRACED {
            break;
        }
        let t = Instant::now();
        let plain = session(&data).map(|s| s.answers);
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check(matches(&reference, &plain));

        let keep = traced_ms.len() < MIN_TRACED;
        let mut scratch = Tracer::new();
        let tracer = if keep { &mut kept } else { &mut scratch };
        tracer.set_request(request);
        let ((run, root), snap) = observed(|| tracer.span("run", |t| traced_session(&data, t)));
        let wall_ns = tracer.spans()[root].dur_ns;
        traced_ms.push(wall_ns as f64 / 1e6);
        let refreshes = run.as_ref().map_or(0, |&(_, n)| n);
        out.check(matches(&reference, &run.map(|(answers, _)| answers)));

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
        layers.push("serve.refreshes", refreshes as f64);
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let (hits, misses) = (counter("serve.cache_hits"), counter("serve.cache_misses"));
        layers.push("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
        push_obs_layers(&mut layers, &snap, 1.0, wall_ns as f64 / 1e6);
        if keep {
            snapshots.push(snap.to_json());
        }
    }
    layers.push(
        "trace.overhead_frac",
        percentile_of(&traced_ms, 50.0) / percentile_of(&untraced_ms, 50.0) - 1.0,
    );
    layers.into_metrics(&mut out);
    out.latency_detail("untraced_session_ms", &untraced_ms);
    out.latency_detail("traced_session_ms", &traced_ms);
    out.trace = Some(Json::Obj(vec![
        ("spans".into(), kept.to_json()),
        ("obs".into(), Json::Arr(snapshots)),
    ]));
    out
}
