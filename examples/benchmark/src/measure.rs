//! What every workload reports, and the measurement helpers they share.

use crate::stats::{
    group_rate_per_s, percentile_of, supported_percentile, MIN_BEYOND, TAIL_CANDIDATES,
};
use m2td::json::Json;
use m2td::obs::MetricsSnapshot;
use std::time::{Duration, Instant};

/// End-to-end metrics: every workload reports each of them from its timed
/// pass, with `m2td-obs` uninstalled. What "request" means is fixed per
/// workload: a whole M2TD run, a whole D-M2TD job, or a whole serve
/// session.
pub const END_TO_END: [(&str, &str); 7] = [
    // Building resident state: ground truth, inputs and reference
    // results. Median of `SETUP_REPEATS` builds.
    ("setup_s", "s"),
    // Median request latency.
    ("p50_ms", "ms"),
    // Tail request latency: the p90.
    ("tail_ms", "ms"),
    // Requests completed per second.
    ("ops_per_s", "1/s"),
    // Input cells consumed per second: sampled cells decomposed by runs
    // and jobs, or cells absorbed by serve sessions.
    ("cells_per_s", "1/s"),
    // The paper's accuracy 1 − ‖X̃ − Y‖/‖Y‖ of the result.
    ("accuracy", "1"),
    // VmHWM after the timed pass.
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every workload reports each of them from its traced
/// pass, as the median over traced requests (a pipeline run, a D-M2TD job,
/// a serve session). The times are of layers every workload reaches; the
/// rest are shares of the request's wall time, counts and ratios, which
/// read 0 for a layer the workload never reaches.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("trace.request_ms", "ms"),
    ("sampling.plan_share", "1"),
    ("sim.simulate_share", "1"),
    ("sim.distinct_sims", "count"),
    ("sampling.extract_share", "1"),
    ("core.phase1_share", "1"),
    ("stitch.join_share", "1"),
    ("core.phase3_share", "1"),
    ("core.m2td_self_share", "1"),
    ("stitch.join_nnz", "count"),
    ("tensor.reconstruct_share", "1"),
    ("core.score_share", "1"),
    ("tensor.unfold_gram_share", "1"),
    ("linalg.eig_self_ms", "ms"),
    ("tensor.ttm_self_ms", "ms"),
    ("tensor.plan_madds", "count"),
    ("dist.phase1_share", "1"),
    ("dist.phase2_share", "1"),
    ("dist.phase3_share", "1"),
    ("dist.transport_share", "1"),
    ("dist.xport_envelopes", "count"),
    ("dist.xport_bytes", "B"),
    ("dist.shuffled_pairs", "count"),
    ("dist.attempts", "count"),
    ("dist.steals", "count"),
    ("serve.refreshes", "count"),
    ("serve.absorb_share", "1"),
    ("serve.refresh_share", "1"),
    ("serve.query_share", "1"),
    ("serve.cache_hit_ratio", "1"),
    ("trace.self_sum_frac", "1"),
    ("trace.overhead_frac", "1"),
];

/// Set-up is repeated this many times and its median reported.
pub const SETUP_REPEATS: usize = 5;

/// Fewest timed requests of a batch workload: enough that its p90 has
/// `MIN_BEYOND` samples above it.
pub const MIN_REQUESTS: usize = 100;

/// Fewest traced requests of a batch workload.
pub const MIN_TRACED: usize = 20;

/// What one pass of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Context for the result record (sample counts, checks, tails).
    pub detail: Vec<(String, Json)>,
    /// Traced passes: the span list and per-request `m2td-obs` snapshots.
    pub trace: Option<Json>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            detail: Vec::new(),
            trace: None,
        }
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// Records a latency sample's size, median and the highest percentile
    /// with `MIN_BEYOND` samples above it, in milliseconds.
    pub fn latency_detail(&mut self, key: &str, ms: &[f64]) {
        let mut fields = vec![
            ("n".to_string(), Json::Int(ms.len() as i64)),
            ("p50_ms".to_string(), Json::Float(percentile_of(ms, 50.0))),
        ];
        if let Some(p) = supported_percentile(ms.len(), &TAIL_CANDIDATES, MIN_BEYOND) {
            fields.push(("tail_pct".to_string(), Json::Float(p)));
            fields.push(("tail_ms".to_string(), Json::Float(percentile_of(ms, p))));
        }
        self.detail(key, Json::Obj(fields));
    }
}

/// Prints `msg` and exits with status 1: the benchmark could not run.
pub fn fatal(msg: impl std::fmt::Display) -> ! {
    eprintln!("benchmark: {msg}");
    std::process::exit(1)
}

/// Cores this process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `build` `SETUP_REPEATS` times, keeping the last result, and
/// returns it with the median build time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous build first: peak memory is one build's.
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPEATS > 0"), percentile_of(&secs, 50.0))
}

/// Request latencies of a closed loop.
pub struct ClosedLoop {
    pub ms: Vec<f64>,
    pub failed: u64,
}

/// Requests per group when a closed loop's throughput is taken.
const RATE_GROUP: usize = 10;

impl ClosedLoop {
    /// Counts the loop's requests and reports the end-to-end metrics of a
    /// workload whose requests each consume `cells` input cells, all but
    /// `accuracy`. Peak memory is read here, so work done after the loop
    /// does not count towards it.
    pub fn report(&self, out: &mut Outcome, setup_s: f64, cells: usize) {
        let per_s = group_rate_per_s(&self.ms, RATE_GROUP);
        out.attempted += self.ms.len() as u64;
        out.failed += self.failed;
        out.metric("setup_s", setup_s);
        out.metric("p50_ms", percentile_of(&self.ms, 50.0));
        out.metric("tail_ms", percentile_of(&self.ms, 90.0));
        out.metric("ops_per_s", per_s);
        out.metric("cells_per_s", cells as f64 * per_s);
        out.metric("peak_rss_mb", peak_rss_mb());
        out.latency_detail("request_ms", &self.ms);
        out.detail("cells_per_request", Json::Int(cells as i64));
    }
}

/// Calls `request` back to back for at least `seconds` and at least
/// `min` times, with `m2td-obs` uninstalled throughout. `request` returns
/// whether its output passed its correctness check.
pub fn closed_loop(seconds: f64, min: usize, mut request: impl FnMut() -> bool) -> ClosedLoop {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut ms = Vec::new();
    let mut failed = 0;
    while start.elapsed() < budget || ms.len() < min {
        assert!(
            !m2td::obs::installed(),
            "timed pass ran with m2td-obs installed"
        );
        let t = Instant::now();
        let ok = request();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        failed += u64::from(!ok);
    }
    ClosedLoop { ms, failed }
}

/// Runs `f` with `m2td-obs` reset and installed, and returns its result
/// with the snapshot of what the program recorded meanwhile.
pub fn observed<T>(f: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    m2td::obs::reset();
    m2td::obs::install();
    let out = f();
    m2td::obs::uninstall();
    (out, m2td::obs::snapshot())
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|e| fatal(format!("cannot read /proc/self/status: {e}")));
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or_else(|| fatal("no VmHWM in /proc/self/status"))
}

/// Per-request samples of per-layer metrics, reduced to medians.
#[derive(Default)]
pub struct LayerSamples {
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl LayerSamples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        match self.samples.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.samples.push((name, vec![value])),
        }
    }

    pub fn into_metrics(self, out: &mut Outcome) {
        for (name, v) in &self.samples {
            out.metric(name, percentile_of(v, 50.0));
        }
    }
}

/// Self times per request of the library's own spans in a `m2td-obs`
/// snapshot covering `requests` requests of `request_ms` each, with the
/// TTM planner's last predicted multiply-adds. Spans on pool threads count
/// too, so a share can exceed 1 when layers run in parallel.
pub fn push_obs_layers(
    layers: &mut LayerSamples,
    snap: &MetricsSnapshot,
    requests: f64,
    request_ms: f64,
) {
    let self_ms = |prefixes: &[&str]| -> f64 {
        snap.spans
            .iter()
            .filter(|s| prefixes.iter().any(|p| s.label.starts_with(p)))
            .fold(0.0, |acc, s| acc + s.self_secs * 1e3)
            / requests.max(1.0)
    };
    layers.push(
        "tensor.unfold_gram_share",
        self_ms(&["tensor.unfold_gram"]) / request_ms,
    );
    layers.push("linalg.eig_self_ms", self_ms(&["linalg.eig"]));
    layers.push(
        "tensor.ttm_self_ms",
        self_ms(&["ttm.plan", "tensor.ttm_sparse", "tensor.sparse_core"]),
    );
    layers.push(
        "tensor.plan_madds",
        snap.gauge("ttm.plan_madds").unwrap_or(0.0),
    );
}
