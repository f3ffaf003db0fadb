//! `m2td-cli` — run one partition-stitch ensemble experiment from the
//! command line.
//!
//! ```text
//! m2td-cli list-systems
//! m2td-cli run --system double_pendulum --resolution 10 --rank 4
//! m2td-cli run --system lorenz --method avg --pivot t --e-frac 0.5
//! m2td-cli compare --system sir --resolution 8 --rank 3
//! m2td-cli run --system double_pendulum --groups 4      # multi-way
//! m2td-cli run --system sir --save decomposition.json   # persist Tucker
//! m2td-cli run --system sir --corrupt-rate 0.01 --guard-policy fail
//! m2td-cli dist --dir /tmp/job --transport channel --doom-tasks 1
//! m2td-cli dlq list --dir /tmp/job
//! m2td-cli serve --dims 16,16,12 --ranks 4,4,4 --threads 8
//! m2td-cli serve --corrupt-rate 0.05 --guard-policy fail --metrics-out m.json
//! m2td-cli bench-diff --baseline BENCH_kernels.json --current /tmp/BENCH_new.json
//! ```

use m2td_bench::registry::{system_by_name, SystemKind};
use m2td_bench::tables::workbench_config;
use m2td_core::{M2tdOptions, PivotCombine, RunReport, SimFaultPolicy, Workbench};
use m2td_guard::integrity::fnv1a64;
use m2td_sampling::{
    GridSampling, LatinHypercubeSampling, RandomSampling, SamplingScheme, SliceSampling,
    StratifiedSampling,
};
use m2td_stitch::StitchKind;
use std::collections::HashMap;
use std::process::ExitCode;

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `--key value` pairs for `command`, rejecting any key not in
    /// `known`: a misspelt or retired flag fails instead of being ignored.
    fn parse(command: &str, raw: &[String], known: &[&str]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            if !known.contains(&key) {
                return Err(format!(
                    "unknown flag --{key} for {command} (see m2td-cli --help)"
                ));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Self { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }
}

/// Flags `run` and `compare` both read.
const EXPERIMENT_FLAGS: &[&str] = &[
    "system",
    "resolution",
    "rank",
    "seed",
    "noise",
    "pivot",
    "p-frac",
    "e-frac",
    "cell-frac",
    "threads",
    "fault-rate",
    "fault-seed",
    "max-retries",
    "metrics-out",
    "guard-policy",
    "error-budget",
    "corrupt-rate",
    "sketch-size",
    "sketch-seed",
    "sketch-policy",
];

/// Flags only `run` reads.
const RUN_ONLY_FLAGS: &[&str] = &["method", "groups", "save"];

const DIST_FLAGS: &[&str] = &[
    "dir",
    "workers",
    "transport",
    "p-dim",
    "f-dim",
    "rank",
    "kill-rate",
    "straggle-rate",
    "straggle-secs",
    "xport-corrupt-rate",
    "doom-tasks",
    "doom-job",
    "fault-seed",
    "max-retries",
    "min-coverage",
    "metrics-out",
];

const SERVE_FLAGS: &[&str] = &[
    "dims",
    "ranks",
    "fill",
    "staleness",
    "cache-capacity",
    "queries",
    "slices",
    "threads",
    "corrupt-rate",
    "fault-seed",
    "guard-policy",
    "state-dir",
    "wal-sync-every",
    "snapshot-every",
    "crash-at",
    "metrics-out",
];

const BENCH_DIFF_FLAGS: &[&str] = &["baseline", "current", "max-regress", "families"];

const DLQ_FLAGS: &[&str] = &["dir"];

fn usage() -> &'static str {
    "m2td-cli — partition-stitch ensemble experiments (M2TD, ICDE 2018)

USAGE:
  m2td-cli list-systems
  m2td-cli run     [flags]   run one strategy and print its report
  m2td-cli compare [flags]   run every strategy at budget parity
  m2td-cli dist    [flags]   run resumable sharded D-M2TD on a synthetic
                             deterministic input pair
  m2td-cli dlq <list|requeue|purge> --dir <path>
                             inspect or act on the dead-letter queue
  m2td-cli serve   [flags]   exercise the resident serving engine on a
                             deterministic synthetic ensemble: absorb,
                             refresh, then answer cell and slice queries
                             from N threads
  m2td-cli bench-diff [flags]
                             compare two kernel-benchmark record files
                             (BENCH_kernels.json) per (group, name,
                             threads) and fail on wall-time regressions
                             in the gated families

FLAGS (run/compare):
  --system <name>        double_pendulum | triple_pendulum | lorenz | sir | rossler
  --resolution <n>       values per parameter axis        [default 10]
  --rank <n>             target Tucker rank per mode      [default 4]
  --seed <n>             RNG seed                         [default 42]
  --noise <sigma>        measurement-noise std-dev        [default 0]
  --pivot <mode>         pivot: t or a parameter name     [default t]
  --p-frac <f>           pivot density in (0,1]           [default 1]
  --e-frac <f>           sub-ensemble density in (0,1]    [default 1]
  --cell-frac <f>        budget fraction in (0,1]         [default 1]
  --threads <n>          compute threads (0 = auto; overrides
                         M2TD_THREADS)                    [default 0]
  --fault-rate <f>       per-attempt simulation failure
                         probability in [0,1); failed runs
                         become missing cells             [default 0]
  --fault-seed <n>       seed of the fault schedule       [default 0]
  --max-retries <n>      attempts per simulation run      [default 3]
  --metrics-out <path>   install the telemetry subscriber and write a
                         JSON metrics snapshot (spans, counters, gauges)
                         when the command finishes — even when it fails
  --guard-policy <p>     install the m2td-guard layer with policy
                         fail | clamp-rank | regularize[:lambda]
  --error-budget <f>     install the guard acceptance check: maximum
                         relative reconstruction error before a run is
                         reported UNHEALTHY (exit code 3)
  --corrupt-rate <f>     chaos stream: fraction of simulated cells
                         poisoned with NaN, in [0,1)      [default 0]
  --sketch-size <n>      install the m2td-sketch layer: sketched-Gram
                         width                            [default 8]
  --sketch-seed <n>      seed of the sketch RNG stream    [default 0x5EED]
  --sketch-policy <p>    sketch policy:
                         gaussian | mach[:keep] | mach-biased[:keep]
                                                          [default gaussian]

FLAGS (run only):
  --method <m>           select | avg | concat | zero-join |
                         random | grid | slice | latin-hypercube | stratified
                                                          [default select]
  --groups <n>           multi-way partition group count  [default 2]
  --save <path>          write the Tucker decomposition as JSON

FLAGS (dist):
  --dir <path>           job directory (required): phase checkpoints,
                         the append-only manifest.json log and dlq.json,
                         all sealed v3 records; v2 directories are rejected
  --workers <n>          logical workers                  [default 2]
  --transport <t>        direct | channel (overrides M2TD_TRANSPORT)
  --p-dim <n>            pivot-mode extent of the input   [default 8]
  --f-dim <n>            free-mode extent of the input    [default 6]
  --rank <n>             target Tucker rank per mode      [default 3]
  --kill-rate <f>        per-attempt task kill probability [default 0]
  --straggle-rate <f>    per-attempt straggler probability [default 0]
  --straggle-secs <f>    virtual straggler delay          [default 20]
  --xport-corrupt-rate <f>  per-envelope wire-damage probability
                                                          [default 0]
  --doom-tasks <csv>     reduce task ids (< 64) whose every attempt is
                         killed — they exhaust retries and park in the
                         dead-letter queue
  --doom-job <n>         job the fault plan targets when dooming
                         (1..3; restricts ALL injected faults) [default 3]
  --fault-seed <n>       seed of the fault schedule       [default 0]
  --max-retries <n>      attempts per task                [default 4]
  --min-coverage <f>     phase-3 coverage floor for degraded completion
                                                          [default 0.5]
  --metrics-out <path>   as for run/compare

FLAGS (serve):
  --dims <csv>           mode extents of the ensemble     [default 12,12,10]
  --ranks <csv>          target Tucker rank per mode      [default 3,3,3]
  --fill <f>             fraction of cells absorbed (0,1] [default 0.5]
  --staleness <n>        absorbed cells per automatic model refresh
                         (0 = one manual refresh at the end) [default 64]
  --cache-capacity <n>   cached cell predictions per model
                         (0 disables the cache)           [default 4096]
  --queries <n>          cell queries issued per thread   [default 1000]
  --slices <n>           slice queries issued             [default 8]
  --threads <n>          concurrent query threads; answers are asserted
                         bitwise-identical across threads [default 1]
  --corrupt-rate <f>     chaos stream: fraction of absorbed cells
                         poisoned with NaN, in [0,1)      [default 0]
  --fault-seed <n>       seed of the corruption schedule  [default 0]
  --guard-policy <p>     as for run/compare; with a guard installed the
                         poisoned cells are rejected at absorb time and
                         never reach the served model
  --state-dir <path>     durable mode: write-ahead log + checksummed
                         snapshots live here; a restart recovers the
                         exact pre-crash state and resumes the fill
  --wal-sync-every <n>   fsync the WAL every n appends (0 = every
                         append)                          [default 8]
  --snapshot-every <n>   seal a snapshot every n WAL records
                         (0 = only the exit snapshot)     [default 64]
  --crash-at <op>:<n>    inject a crash (exit 6) at the n-th occurrence
                         of op: absorb | refresh | wal-append |
                         snapshot-write; needs --state-dir
  --metrics-out <path>   as for run/compare

FLAGS (bench-diff):
  --baseline <path>      committed record file  [default BENCH_kernels.json]
  --current <path>       freshly generated record file (required)
  --max-regress <f>      mean-wall-time regression tolerance as a
                         fraction of the baseline; a gated record slower
                         than baseline * (1 + f) fails   [default 0.25]
  --families <csv>       benchmark groups gated by --max-regress; other
                         groups are reported but never fail — except
                         that a gated baseline record missing from
                         --current also fails
                         [default gemm,ttm_chain,sim]

EXIT CODES:
  0  success
  2  usage or runtime error
  3  run completed but the guard acceptance check failed, a serve
     run produced a non-finite prediction / could not publish a model,
     or bench-diff found a gated regression or a gated baseline
     record missing from the current run
  4  dist completed degraded: tasks are parked in the dead-letter
     queue (requeue with `m2td-cli dlq requeue`, then rerun)
  5  serve recovered a corrupted state dir into read-only degraded
     mode: the intact prefix serves, writes are refused
  6  serve died at an injected --crash-at kill point; rerun with the
     same --state-dir (without --crash-at) to recover
"
}

/// Validates a probability-like flag: finite and in `[0, 1)`.
fn check_rate(name: &str, v: f64) -> Result<(), String> {
    if !(v.is_finite() && (0.0..1.0).contains(&v)) {
        return Err(format!("--{name} {v} must lie in [0, 1)"));
    }
    Ok(())
}

/// Validates a density-like flag: finite and in `(0, 1]`.
fn check_frac(name: &str, v: f64) -> Result<(), String> {
    if !(v.is_finite() && v > 0.0 && v <= 1.0) {
        return Err(format!("--{name} {v} must lie in (0, 1]"));
    }
    Ok(())
}

/// Returns the process exit code — see the EXIT CODES table in
/// [`usage`]. (Exit 6, an injected crash, never returns: the serve
/// error funnel dies in place to emulate a real kill.)
fn run() -> Result<u8, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().map(|s| s.as_str()) else {
        return Err(usage().to_string());
    };
    match command {
        "list-systems" => {
            for kind in [
                SystemKind::DoublePendulum,
                SystemKind::TriplePendulum,
                SystemKind::Lorenz,
                SystemKind::Sir,
                SystemKind::Rossler,
            ] {
                let sys = kind.instantiate();
                println!(
                    "{:<16} parameters: {}",
                    sys.name(),
                    sys.param_names().join(", ")
                );
            }
            Ok(0)
        }
        "run" | "compare" => {
            let known = match command {
                "run" => [EXPERIMENT_FLAGS, RUN_ONLY_FLAGS].concat(),
                _ => EXPERIMENT_FLAGS.to_vec(),
            };
            let args = Args::parse(command, &raw[1..], &known)?;
            // Install telemetry before any work runs so simulation,
            // decomposition and fault spans are all captured.
            let metrics_out = args.get("metrics-out").map(str::to_string);
            if metrics_out.is_some() {
                m2td_obs::install();
            }
            // The snapshot is written even when the experiment errors out:
            // a chaos run that aborts on a guard detection must still
            // surface its `guard.*` counters.
            let outcome = run_experiment(command, &args);
            if let Some(path) = &metrics_out {
                write_metrics(path)?;
            }
            outcome.map(|healthy| if healthy { 0 } else { 3 })
        }
        "dist" => {
            let args = Args::parse(command, &raw[1..], DIST_FLAGS)?;
            let metrics_out = args.get("metrics-out").map(str::to_string);
            if metrics_out.is_some() {
                m2td_obs::install();
            }
            // Snapshot written even on failure, as for run/compare: a
            // degraded or aborted job must still surface dlq.* gauges.
            let outcome = run_dist(&args);
            if let Some(path) = &metrics_out {
                write_metrics(path)?;
            }
            outcome
        }
        "serve" => {
            let args = Args::parse(command, &raw[1..], SERVE_FLAGS)?;
            let metrics_out = args.get("metrics-out").map(str::to_string);
            if metrics_out.is_some() {
                m2td_obs::install();
            }
            // Snapshot written even on failure: a chaos serve run that
            // exits unhealthy must still surface its serve.* counters.
            let outcome = run_serve(&args);
            if let Some(path) = &metrics_out {
                write_metrics(path)?;
            }
            outcome
        }
        "bench-diff" => run_bench_diff(&Args::parse(command, &raw[1..], BENCH_DIFF_FLAGS)?),
        "dlq" => {
            let Some(action) = raw.get(1).map(|s| s.as_str()) else {
                return Err(format!("dlq needs an action\n\n{}", usage()));
            };
            run_dlq(action, &Args::parse(command, &raw[2..], DLQ_FLAGS)?)
        }
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(0)
        }
        other => Err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

fn run_experiment(command: &str, args: &Args) -> Result<bool, String> {
    let kind = match args.get("system") {
        None => SystemKind::DoublePendulum,
        Some(name) => system_by_name(name).ok_or_else(|| format!("unknown system '{name}'"))?,
    };
    let resolution: usize = args.parse_or("resolution", 10)?;
    let rank: usize = args.parse_or("rank", 4)?;
    if resolution < 2 {
        return Err(format!("--resolution {resolution} must be at least 2"));
    }
    if rank == 0 {
        return Err("--rank 0 is out of range: ranks must be at least 1".to_string());
    }
    let mut cfg = workbench_config(kind, resolution, rank);
    cfg.seed = args.parse_or("seed", 42u64)?;
    cfg.noise_sigma = args.parse_or("noise", 0.0f64)?;
    if !(cfg.noise_sigma.is_finite() && cfg.noise_sigma >= 0.0) {
        return Err(format!(
            "--noise {} must be a non-negative finite number",
            cfg.noise_sigma
        ));
    }
    let p_frac: f64 = args.parse_or("p-frac", 1.0)?;
    let e_frac: f64 = args.parse_or("e-frac", 1.0)?;
    let cell_frac: f64 = args.parse_or("cell-frac", 1.0)?;
    check_frac("p-frac", p_frac)?;
    check_frac("e-frac", e_frac)?;
    check_frac("cell-frac", cell_frac)?;
    let groups: usize = args.parse_or("groups", 2)?;
    if groups < 2 {
        return Err(format!("--groups {groups} must be at least 2"));
    }
    let threads: usize = args.parse_or("threads", 0)?;
    if threads > 0 {
        m2td_par::set_max_threads(threads);
    }
    let fault_rate: f64 = args.parse_or("fault-rate", 0.0)?;
    let fault_seed: u64 = args.parse_or("fault-seed", 0)?;
    let max_retries: u32 = args.parse_or("max-retries", 3)?;
    check_rate("fault-rate", fault_rate)?;
    if max_retries == 0 {
        return Err("--max-retries 0 is out of range: at least one attempt is needed".to_string());
    }
    let corrupt_rate: f64 = args.parse_or("corrupt-rate", 0.0)?;
    check_rate("corrupt-rate", corrupt_rate)?;

    // Guard layer: installed iff a guard flag is present, so plain runs
    // keep the uninstalled fast path (one relaxed atomic load per check).
    let guard_policy = match args.get("guard-policy") {
        None => None,
        Some(s) => Some(
            s.parse::<m2td_guard::GuardPolicy>()
                .map_err(|e| format!("--guard-policy: {e}"))?,
        ),
    };
    let error_budget = match args.get("error-budget") {
        None => None,
        Some(v) => {
            let b: f64 = v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --error-budget"))?;
            if !(b.is_finite() && b > 0.0) {
                return Err(format!(
                    "--error-budget {b} must be a positive finite number"
                ));
            }
            Some(b)
        }
    };
    if guard_policy.is_some() || error_budget.is_some() {
        let mut gc = m2td_guard::GuardConfig::with_policy(
            guard_policy.unwrap_or(m2td_guard::GuardPolicy::Fail),
        );
        if let Some(b) = error_budget {
            gc = gc.with_error_budget(b);
        }
        m2td_guard::install(gc);
    }

    // Sketch layer: like the guard, installed iff a sketch flag is
    // present, so plain runs stay on the bitwise-identical exact path.
    let sketch_flags = ["sketch-size", "sketch-seed", "sketch-policy"];
    if sketch_flags.iter().any(|f| args.get(f).is_some()) {
        let defaults = m2td_sketch::SketchConfig::default();
        let size: usize = args.parse_or("sketch-size", defaults.size)?;
        if size == 0 {
            return Err("--sketch-size 0 is out of range: at least one column is needed".into());
        }
        let seed: u64 = args.parse_or("sketch-seed", defaults.seed)?;
        let policy = match args.get("sketch-policy") {
            None => defaults.policy,
            Some(s) => s
                .parse::<m2td_sketch::SketchPolicy>()
                .map_err(|e| format!("--sketch-policy: {e}"))?,
        };
        m2td_sketch::install(
            m2td_sketch::SketchConfig::with_size(size)
                .with_seed(seed)
                .with_policy(policy),
        );
    }

    // One fault policy covers both chaos streams: simulation failures
    // (--fault-rate) and NaN-cell corruption (--corrupt-rate).
    let faults = (fault_rate > 0.0 || corrupt_rate > 0.0).then(|| {
        SimFaultPolicy::new(fault_seed, fault_rate)
            .with_max_attempts(max_retries)
            .with_nan_cell_rate(corrupt_rate)
    });

    let system = kind.instantiate();
    eprintln!(
        "building ground truth: {resolution}^5 cells for {}...",
        system.name()
    );
    let bench = Workbench::new(system.as_ref(), cfg).map_err(|e| format!("workbench: {e}"))?;
    let mode_names = bench.mode_names();
    let pivot = match args.get("pivot") {
        None => bench.n_modes() - 1,
        Some(name) => mode_names
            .iter()
            .position(|m| m == name)
            .ok_or_else(|| format!("unknown pivot '{name}' (modes: {mode_names:?})"))?,
    };

    if command == "compare" {
        let budget = bench
            .m2td_budget(pivot, p_frac, e_frac)
            .map_err(|e| e.to_string())?;
        println!("budget: {budget} cells (paper parity)\n");
        let mut healthy = true;
        for combine in PivotCombine::all() {
            let opts = M2tdOptions {
                combine,
                ..M2tdOptions::default()
            };
            let r = match &faults {
                Some(policy) => bench
                    .run_m2td_degraded(pivot, opts, p_frac, e_frac, cell_frac, policy)
                    .map_err(|e| e.to_string())?,
                None => bench
                    .run_m2td_cells(pivot, opts, p_frac, e_frac, cell_frac)
                    .map_err(|e| e.to_string())?,
            };
            print_report(&r);
            healthy &= r.is_healthy();
        }
        for scheme in [
            &RandomSampling as &dyn SamplingScheme,
            &GridSampling,
            &SliceSampling,
            &LatinHypercubeSampling,
            &StratifiedSampling,
        ] {
            let r = bench
                .run_conventional(scheme, budget)
                .map_err(|e| e.to_string())?;
            print_report(&r);
            healthy &= r.is_healthy();
        }
        return Ok(healthy);
    }

    // run: one method.
    let method = args.get("method").unwrap_or("select");
    let report = match method {
        "select" | "avg" | "concat" | "zero-join" => {
            let opts = M2tdOptions {
                combine: match method {
                    "avg" => PivotCombine::Average,
                    "concat" => PivotCombine::Concat,
                    _ => PivotCombine::Select,
                },
                stitch: if method == "zero-join" {
                    StitchKind::ZeroJoin
                } else {
                    StitchKind::Join
                },
                ..M2tdOptions::default()
            };
            if groups != 2 {
                if faults.is_some() {
                    return Err(
                        "--fault-rate/--corrupt-rate are only supported for two-way runs \
                         (--groups 2)"
                            .to_string(),
                    );
                }
                bench
                    .run_m2td_multi(pivot, groups, opts, p_frac, e_frac)
                    .map_err(|e| e.to_string())?
            } else {
                match &faults {
                    Some(policy) => bench
                        .run_m2td_degraded(pivot, opts, p_frac, e_frac, cell_frac, policy)
                        .map_err(|e| e.to_string())?,
                    None => bench
                        .run_m2td_cells(pivot, opts, p_frac, e_frac, cell_frac)
                        .map_err(|e| e.to_string())?,
                }
            }
        }
        "random" | "grid" | "slice" | "latin-hypercube" | "stratified" => {
            let scheme: &dyn SamplingScheme = match method {
                "random" => &RandomSampling,
                "grid" => &GridSampling,
                "slice" => &SliceSampling,
                "latin-hypercube" => &LatinHypercubeSampling,
                _ => &StratifiedSampling,
            };
            let budget = bench
                .m2td_budget(pivot, p_frac, e_frac)
                .map_err(|e| e.to_string())?;
            bench
                .run_conventional(scheme, budget)
                .map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown method '{other}'\n\n{}", usage())),
    };
    print_report(&report);

    if let Some(path) = args.get("save") {
        let (x1, x2, partition) = bench
            .subsystems(pivot, p_frac, e_frac, cell_frac)
            .map_err(|e| e.to_string())?;
        let ranks: Vec<usize> = partition
            .join_modes()
            .iter()
            .map(|&m| rank.min(bench.full_dims()[m]))
            .collect();
        let d = m2td_core::m2td_decompose(&x1, &x2, partition.k(), &ranks, M2tdOptions::default())
            .map_err(|e| e.to_string())?;
        m2td_tensor::save_json(&d.tucker, std::path::Path::new(path)).map_err(|e| e.to_string())?;
        println!("Tucker decomposition written to {path}");
    }
    Ok(report.is_healthy())
}

/// The deterministic synthetic input pair of `dist`: two dense 2-mode
/// sub-tensors over analytic values, so every invocation with the same
/// dimensions sees bitwise-identical inputs (no RNG, no files).
fn dist_inputs(
    p_dim: usize,
    f_dim: usize,
) -> Result<(m2td_tensor::SparseTensor, m2td_tensor::SparseTensor), String> {
    let cell = |p: usize, a: usize, b: usize| {
        ((p as f64) * 0.5).sin() * ((a as f64) * 0.4 + 1.0) * ((b as f64) * 0.3 + 1.0) + 0.2
    };
    let build = |g: &dyn Fn(usize, usize) -> f64| {
        let entries: Vec<(Vec<usize>, f64)> = (0..p_dim)
            .flat_map(|p| (0..f_dim).map(move |f| (vec![p, f], g(p, f))))
            .collect();
        m2td_tensor::SparseTensor::from_entries(&[p_dim, f_dim], &entries)
            .map_err(|e| e.to_string())
    };
    let x1 = build(&|p, f| cell(p, f, f_dim / 2))?;
    let x2 = build(&|p, f| cell(p, f_dim / 2, f))?;
    Ok((x1, x2))
}

/// `dist`: one resumable sharded D-M2TD run over a job directory.
fn run_dist(args: &Args) -> Result<u8, String> {
    use m2td_dist::{
        CheckpointStore, DistJob, DlqStore, FaultConfig, JobRecovery, ManifestStore, MapReduce,
        TransportKind,
    };
    use m2td_fault::{FaultPlan, RetryPolicy};
    use m2td_json::ToJson;

    let dir = args.get("dir").ok_or("dist needs --dir <path>")?;
    let workers: usize = args.parse_or("workers", 2)?;
    let transport = match args.get("transport") {
        None => TransportKind::from_env(),
        Some(s) => s
            .parse::<TransportKind>()
            .map_err(|e| format!("--transport: {e}"))?,
    };
    let p_dim: usize = args.parse_or("p-dim", 8)?;
    let f_dim: usize = args.parse_or("f-dim", 6)?;
    let rank: usize = args.parse_or("rank", 3)?;
    if p_dim < 2 || f_dim < 2 {
        return Err("--p-dim and --f-dim must be at least 2".to_string());
    }
    if rank == 0 {
        return Err("--rank 0 is out of range: ranks must be at least 1".to_string());
    }
    let kill_rate: f64 = args.parse_or("kill-rate", 0.0)?;
    let straggle_rate: f64 = args.parse_or("straggle-rate", 0.0)?;
    let straggle_secs: f64 = args.parse_or("straggle-secs", 20.0)?;
    let xport_rate: f64 = args.parse_or("xport-corrupt-rate", 0.0)?;
    let fault_seed: u64 = args.parse_or("fault-seed", 0)?;
    let max_retries: u32 = args.parse_or("max-retries", 4)?;
    let min_coverage: f64 = args.parse_or("min-coverage", 0.5)?;
    check_rate("kill-rate", kill_rate)?;
    check_rate("straggle-rate", straggle_rate)?;
    check_rate("xport-corrupt-rate", xport_rate)?;
    if max_retries == 0 {
        return Err("--max-retries 0 is out of range: at least one attempt is needed".to_string());
    }
    if !(0.0..=1.0).contains(&min_coverage) {
        return Err(format!("--min-coverage {min_coverage} must lie in [0, 1]"));
    }
    let doom_job: u64 = args.parse_or("doom-job", 3u64)?;
    if !(1..=3).contains(&doom_job) {
        return Err(format!("--doom-job {doom_job} must be a phase job (1..3)"));
    }
    let mut doom_mask = 0u64;
    if let Some(csv) = args.get("doom-tasks") {
        for part in csv.split(',') {
            let task: u64 = part
                .trim()
                .parse()
                .map_err(|_| format!("--doom-tasks: invalid task id '{part}'"))?;
            if task >= 64 {
                return Err(format!("--doom-tasks: task id {task} must be below 64"));
            }
            doom_mask |= 1 << task;
        }
    }

    let mut plan = FaultPlan::new(fault_seed, kill_rate, straggle_rate, straggle_secs)
        .with_xport_corrupt_rate(xport_rate);
    if doom_mask != 0 {
        // Dooming is scoped to one job so phases that require full
        // coverage are not condemned by task ids they share with it.
        plan = plan.with_doom_mask(doom_mask).in_job(doom_job);
    }
    let faults = FaultConfig {
        plan,
        policy: RetryPolicy::with_max_attempts(max_retries),
    };

    let (x1, x2) = dist_inputs(p_dim, f_dim)?;
    let ranks = [rank.min(p_dim), rank.min(f_dim), rank.min(f_dim)];
    let engine = MapReduce::new(workers).with_transport(transport);
    let checkpoint = CheckpointStore::new(dir).map_err(|e| e.to_string())?;
    let manifest = ManifestStore::open(dir).map_err(|e| e.to_string())?;
    let dlq = DlqStore::open(dir);
    let recovery = JobRecovery::new(&manifest, &dlq).with_min_coverage(min_coverage);

    eprintln!(
        "dist: {p_dim}x{f_dim} inputs, ranks {ranks:?}, {workers} workers, {transport:?} transport"
    );
    let d = DistJob {
        faults,
        checkpoint: Some(&checkpoint),
        recovery: Some(recovery),
        ..DistJob::new(&x1, &x2, 1, &ranks)
    }
    .run(&engine)
    .map_err(|e| e.to_string())?;

    let mut hashed = d.tucker.core.to_json().to_compact();
    for f in &d.tucker.factors {
        hashed.push_str(&f.to_json().to_compact());
    }
    println!(
        "phases: {} + {} + {} reduce groups, {} attempts total",
        d.phase1.shuffle.reduce_groups,
        d.phase2.shuffle.reduce_groups,
        d.phase3.shuffle.reduce_groups,
        d.total_tasks().attempts(),
    );
    println!(
        "resume: {} tasks replayed from manifest, {} dead-letter entries drained",
        d.resumed_tasks, d.drained,
    );
    println!("core fnv64: {:016x}", fnv1a64(&[hashed.as_bytes()]));
    if d.degraded {
        println!(
            "DEGRADED: phase-3 tasks {:?} are parked in the dead-letter queue; \
             requeue with `m2td-cli dlq requeue --dir {dir}` and rerun",
            d.dead_tasks,
        );
        return Ok(4);
    }
    Ok(0)
}

/// Parses a comma-separated list of positive extents (`--dims`, `--ranks`).
fn parse_extents(args: &Args, key: &str, default: &[usize]) -> Result<Vec<usize>, String> {
    let Some(csv) = args.get(key) else {
        return Ok(default.to_vec());
    };
    csv.split(',')
        .map(|part| {
            let n: usize = part
                .trim()
                .parse()
                .map_err(|_| format!("--{key}: invalid extent '{}'", part.trim()))?;
            if n == 0 {
                return Err(format!("--{key}: extents must be at least 1"));
            }
            Ok(n)
        })
        .collect()
}

/// `serve`: a resident serving-engine session over a deterministic
/// synthetic ensemble. Cells are absorbed one at a time (optionally
/// poisoned by the chaos stream), the model refreshes on the staleness
/// schedule, then cell and slice queries run from `--threads` threads
/// and are asserted bitwise-identical across threads.
fn run_serve(args: &Args) -> Result<u8, String> {
    use m2td_serve::{DurabilityConfig, ServeConfig, ServeEngine, ServeError};
    use m2td_tensor::{Shape, TensorError};
    use std::time::Instant;

    /// Error funnel for engine calls: an injected crash emulates a
    /// process kill — print where it hit and die immediately (exit 6),
    /// skipping all cleanup. The on-disk WAL/snapshot state is what the
    /// next `--state-dir` run recovers from.
    fn serve_err(e: m2td_serve::ServeError) -> String {
        if let m2td_serve::ServeError::CrashInjected { op, sequence } = &e {
            println!("serve: CRASH — injected kill point {op}#{sequence}; restart to recover");
            std::process::exit(6);
        }
        e.to_string()
    }

    let dims = parse_extents(args, "dims", &[12, 12, 10])?;
    let ranks = parse_extents(args, "ranks", &[3, 3, 3])?;
    if dims.len() < 2 {
        return Err("--dims needs at least two extents".to_string());
    }
    let fill: f64 = args.parse_or("fill", 0.5)?;
    check_frac("fill", fill)?;
    let staleness: usize = args.parse_or("staleness", 64)?;
    let cache_capacity: usize = args.parse_or("cache-capacity", 4096)?;
    let queries: usize = args.parse_or("queries", 1000)?;
    let slices: usize = args.parse_or("slices", 8)?;
    let threads: usize = args.parse_or("threads", 1)?;
    if !(1..=64).contains(&threads) {
        return Err(format!("--threads {threads} must lie in 1..=64"));
    }
    let corrupt_rate: f64 = args.parse_or("corrupt-rate", 0.0)?;
    check_rate("corrupt-rate", corrupt_rate)?;
    let fault_seed: u64 = args.parse_or("fault-seed", 0)?;
    let state_dir = args.get("state-dir").map(str::to_string);
    let wal_sync_every: usize = args.parse_or("wal-sync-every", 8)?;
    let snapshot_every: usize = args.parse_or("snapshot-every", 64)?;
    let crash_at = match args.get("crash-at") {
        None => None,
        Some(s) => {
            let (op, seq) = s
                .split_once(':')
                .ok_or("--crash-at wants <op>:<sequence>")?;
            let op: m2td_fault::CrashOp =
                op.trim().parse().map_err(|e| format!("--crash-at: {e}"))?;
            let seq: u64 = seq
                .trim()
                .parse()
                .map_err(|_| format!("--crash-at: invalid sequence '{seq}'"))?;
            Some((op, seq))
        }
    };
    if crash_at.is_some() && state_dir.is_none() {
        return Err("--crash-at needs --state-dir (nothing survives a crash otherwise)".into());
    }
    if let Some(s) = args.get("guard-policy") {
        let policy = s
            .parse::<m2td_guard::GuardPolicy>()
            .map_err(|e| format!("--guard-policy: {e}"))?;
        m2td_guard::install(m2td_guard::GuardConfig::with_policy(policy));
    }

    let config = ServeConfig::default()
        .with_staleness(staleness)
        .with_cache_capacity(cache_capacity);
    let engine = match &state_dir {
        None => ServeEngine::new(config),
        Some(dir) => {
            let mut dur = DurabilityConfig::new(dir)
                .with_wal_sync_every(wal_sync_every)
                .with_snapshot_every(snapshot_every);
            if let Some((op, seq)) = crash_at {
                dur = dur.with_crash_point(op, seq);
            }
            let (engine, rep) = ServeEngine::recover(config, dur).map_err(serve_err)?;
            println!(
                "serve: state dir {dir}: recovered from snapshot {}, replayed {} WAL record(s)",
                rep.snapshot_seq
                    .map_or("<none>".to_string(), |s| format!("seq {s}")),
                rep.replayed,
            );
            if rep.degraded {
                println!(
                    "serve: UNHEALTHY — unrecoverable store corruption in {dir}; the \
                     recovered prefix serves read-only, writes are refused"
                );
                return Ok(5);
            }
            engine
        }
    };
    match engine.register("cli", &dims, &ranks) {
        Ok(()) => {}
        // Resuming a state dir: the ensemble is already registered.
        Err(ServeError::AlreadyRegistered { .. }) if state_dir.is_some() => {}
        Err(e) => return Err(serve_err(e)),
    }

    // Deterministic fill: every `stride`-th cell of the analytic field;
    // the chaos stream poisons a hash-selected subset with NaN. On a
    // resumed state dir, cells the previous run durably absorbed come
    // back as duplicates and are skipped — the fill converges to the
    // same final state an uninterrupted run reaches.
    let shape = Shape::new(&dims);
    let total = shape.num_elements();
    let stride = ((1.0 / fill).round() as usize).max(1);
    let (mut absorbed, mut rejected, mut poisoned, mut resumed) = (0usize, 0usize, 0usize, 0usize);
    for l in (0..total).step_by(stride) {
        let mut value = ((l as f64) * 0.37).sin() + 1.0;
        if corrupt_rate > 0.0 {
            let h = fnv1a64(&[&(l as u64 ^ fault_seed.rotate_left(17)).to_le_bytes()]);
            if ((h >> 11) as f64 / (1u64 << 53) as f64) < corrupt_rate {
                value = f64::NAN;
                poisoned += 1;
            }
        }
        match engine.absorb("cli", &shape.multi_index(l), value) {
            Ok(_) => absorbed += 1,
            Err(ServeError::Tensor(TensorError::Guard(_))) => rejected += 1,
            Err(ServeError::Tensor(TensorError::DuplicateEntry { .. })) if state_dir.is_some() => {
                resumed += 1;
            }
            Err(e) => return Err(serve_err(e)),
        }
    }
    println!(
        "serve: dims {dims:?} ranks {ranks:?}, absorbed {absorbed} cells \
         ({poisoned} poisoned, {rejected} rejected by the guard, {resumed} already durable)"
    );

    // Pick up the tail of the staleness window; a guard-rejected refresh
    // with no previously published model means nothing can be served.
    let mut stats = engine.stats("cli").map_err(|e| e.to_string())?;
    if stats.pending > 0 || stats.model_version == 0 {
        match engine.refresh("cli") {
            Ok(r) => println!(
                "serve: refreshed to model v{}, served ranks {:?} from {} basis cells",
                r.version,
                r.ranks(),
                r.basis_cells,
            ),
            Err(e) => {
                let e = serve_err(e);
                stats = engine.stats("cli").map_err(|e| e.to_string())?;
                if stats.model_version == 0 {
                    println!(
                        "serve: UNHEALTHY — refresh rejected with no model to fall back to: {e}"
                    );
                    return Ok(3);
                }
                println!(
                    "serve: refresh rejected ({e}); model v{} keeps serving",
                    stats.model_version
                );
            }
        }
    }
    stats = engine.stats("cli").map_err(|e| e.to_string())?;

    // Cell queries from N threads; every thread must observe bitwise
    // the same predictions (published-snapshot serving contract).
    let query_set: Vec<Vec<usize>> = (0..queries)
        .map(|k| shape.multi_index((k.wrapping_mul(7919)) % total))
        .collect();
    let started = Instant::now();
    let per_thread: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let eng = &engine;
                let qs = &query_set;
                s.spawn(move || {
                    qs.iter()
                        .map(|q| eng.query_cell("cli", q).map(f64::to_bits))
                        .collect::<Result<Vec<u64>, _>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed().as_secs_f64();
    for t in &per_thread[1..] {
        if *t != per_thread[0] {
            return Err("serve: queries diverged across threads".to_string());
        }
    }
    let qps = (threads * queries) as f64 / elapsed.max(1e-12);
    println!(
        "serve: {} cell queries from {threads} thread(s) in {:.2} ms ({:.0} q/s), thread-invariant",
        threads * queries,
        elapsed * 1e3,
        qps,
    );

    let mut all_finite = per_thread[0].iter().all(|&b| f64::from_bits(b).is_finite());
    let mut slice_peak = 0.0f64;
    for k in 0..slices {
        let mode = k % dims.len();
        let index = (k / dims.len()) % dims[mode];
        let slice = engine
            .query_slice("cli", mode, index)
            .map_err(|e| e.to_string())?;
        for &v in slice.as_slice() {
            all_finite &= v.is_finite();
            slice_peak = slice_peak.max(v.abs());
        }
    }
    println!("serve: {slices} slice queries, peak |value| {slice_peak:.3e}");
    println!(
        "serve: model v{}, {} cells resident, {} pending",
        stats.model_version, stats.nnz, stats.pending,
    );

    // Bit-exact fingerprint of the served model: the crash-matrix CI job
    // compares this line between a crashed-and-recovered run and an
    // uninterrupted one.
    let model = engine.model("cli").map_err(|e| e.to_string())?;
    let mut core_bytes = Vec::with_capacity(model.decomp().core.as_slice().len() * 8);
    for &v in model.decomp().core.as_slice() {
        core_bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for f in &model.decomp().factors {
        for &v in f.as_slice() {
            core_bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    println!("serve: core fnv64:{:016x}", fnv1a64(&[&core_bytes]));

    if state_dir.is_some() {
        if let Some(seq) = engine.snapshot().map_err(serve_err)? {
            println!("serve: sealed exit snapshot at seq {seq}");
        }
    }
    if !all_finite {
        println!("serve: UNHEALTHY — non-finite predictions were served");
        return Ok(3);
    }
    Ok(0)
}

/// Loads a kernel-benchmark record file written by the `kernels` bench
/// (`cargo bench -p m2td-bench --bench kernels`).
fn load_kernel_records(path: &str) -> Result<Vec<m2td_bench::report::KernelRecord>, String> {
    use m2td_json::{FromJson, Json};
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read records at {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    FromJson::from_json(&json).map_err(|e| format!("{path} is not a kernel record array: {e}"))
}

/// `bench-diff`: the CI perf-regression gate. Joins two kernel-record
/// files per `(group, name, threads)`, prints every record's wall-time
/// delta, and exits 3 when a record in a gated family regressed beyond
/// `--max-regress` — or when a gated baseline record is missing from
/// the current run (a silently dropped benchmark would otherwise retire
/// its own gate). New records with no baseline and ungated retirements
/// are reported but never fail the gate.
fn run_bench_diff(args: &Args) -> Result<u8, String> {
    let baseline_path = args.get("baseline").unwrap_or("BENCH_kernels.json");
    let current_path = args
        .get("current")
        .ok_or("bench-diff needs --current <path>")?;
    let max_regress: f64 = args.parse_or("max-regress", 0.25)?;
    if !(max_regress.is_finite() && max_regress > 0.0) {
        return Err(format!(
            "--max-regress {max_regress} must be a positive finite fraction"
        ));
    }
    let families: Vec<String> = args
        .get("families")
        .unwrap_or("gemm,ttm_chain,sim")
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();

    let baseline = load_kernel_records(baseline_path)?;
    let current = load_kernel_records(current_path)?;
    let base_map: HashMap<(&str, &str, usize), f64> = baseline
        .iter()
        .map(|r| ((r.group.as_str(), r.name.as_str(), r.threads), r.mean_ns))
        .collect();
    let cur_keys: std::collections::HashSet<(&str, &str, usize)> = current
        .iter()
        .map(|r| (r.group.as_str(), r.name.as_str(), r.threads))
        .collect();

    println!(
        "bench-diff: {} baseline vs {} current records, gating {:?} at +{:.0}%",
        baseline.len(),
        current.len(),
        families,
        max_regress * 100.0,
    );
    let mut regressions = 0usize;
    for r in &current {
        let gated = families.contains(&r.group);
        let line = format!(
            "{:<14} {:<28} t={:<2} {:>10.3} ms",
            r.group,
            r.name,
            r.threads,
            r.mean_ns / 1e6,
        );
        match base_map.get(&(r.group.as_str(), r.name.as_str(), r.threads)) {
            None => println!("{line}  (new, no baseline)"),
            Some(&base_ns) if base_ns <= 0.0 => println!("{line}  (baseline empty)"),
            Some(&base_ns) => {
                let delta = r.mean_ns / base_ns - 1.0;
                let verdict = if gated && delta > max_regress {
                    regressions += 1;
                    "  REGRESSION"
                } else if gated {
                    "  ok"
                } else {
                    "  (ungated)"
                };
                println!(
                    "{line}  vs {:>10.3} ms  {:>+7.1}%{verdict}",
                    base_ns / 1e6,
                    delta * 100.0
                );
            }
        }
    }
    let mut missing = 0usize;
    for r in &baseline {
        if !cur_keys.contains(&(r.group.as_str(), r.name.as_str(), r.threads)) {
            if families.contains(&r.group) {
                missing += 1;
                println!(
                    "{:<14} {:<28} t={:<2} MISSING from current (gated)",
                    r.group, r.name, r.threads
                );
            } else {
                println!(
                    "{:<14} {:<28} t={:<2} missing from current (retired?)",
                    r.group, r.name, r.threads
                );
            }
        }
    }
    if regressions > 0 || missing > 0 {
        println!(
            "bench-diff: FAIL — {regressions} gated record(s) regressed beyond +{:.0}%, \
             {missing} gated baseline record(s) missing from current; if the slowdown \
             or retirement is intended, refresh the committed baseline \
             (see .github/workflows/ci.yml bench-gate)",
            max_regress * 100.0,
        );
        return Ok(3);
    }
    println!(
        "bench-diff: ok — no gated regression beyond +{:.0}%",
        max_regress * 100.0
    );
    Ok(0)
}

/// `dlq`: list, requeue or purge the dead-letter queue of a job directory.
fn run_dlq(action: &str, args: &Args) -> Result<u8, String> {
    let dir = args.get("dir").ok_or("dlq needs --dir <path>")?;
    let store = m2td_dist::DlqStore::open(dir);
    match action {
        "list" => {
            let entries = store.entries();
            println!("{} dead-letter entries in {dir}", entries.len());
            for e in entries {
                println!(
                    "job {} phase {} {} task {:<4} attempts {}  {}  {}",
                    e.job,
                    e.phase,
                    e.kind,
                    e.task,
                    e.attempts,
                    if e.requeued { "requeued" } else { "parked" },
                    e.error,
                );
            }
            Ok(0)
        }
        "requeue" => {
            let n = store.requeue_all()?;
            println!("{n} entries marked for requeue; the next resumable run re-executes them");
            Ok(0)
        }
        "purge" => {
            let n = store.purge()?;
            println!("{n} entries purged");
            Ok(0)
        }
        other => Err(format!("unknown dlq action '{other}'\n\n{}", usage())),
    }
}

/// Writes the current telemetry snapshot as pretty-printed JSON.
fn write_metrics(path: &str) -> Result<(), String> {
    use m2td_json::ToJson;
    let snap = m2td_obs::snapshot();
    std::fs::write(path, snap.to_json().to_pretty())
        .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    println!("metrics written to {path}");
    Ok(())
}

fn print_report(r: &RunReport) {
    println!(
        "{:<18} accuracy {:>10.4e}   decompose {:>7.1} ms   {:>8} cells ({} sims), density {:.2e}",
        r.method,
        r.accuracy,
        r.decompose_secs * 1e3,
        r.cells,
        r.distinct_sims,
        r.density,
    );
    if let Some(d) = &r.degraded {
        println!(
            "{:<18} degraded mode: {} failed sims, {} retries, coverage {:.1}% of {} planned cells",
            "",
            d.failed_sims,
            d.sim_retries,
            d.coverage * 100.0,
            d.planned_cells,
        );
    }
    if let Some(g) = &r.guard {
        println!(
            "{:<18} guard: {} — relative error {:.3e} vs budget {:.3e}",
            "",
            if g.healthy { "healthy" } else { "UNHEALTHY" },
            g.relative_error,
            g.budget,
        );
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
