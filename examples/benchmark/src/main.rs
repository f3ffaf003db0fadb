//! End-to-end and per-layer benchmark of the M2TD workspace.
//!
//! ```text
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload <pipeline_dp|pipeline_tp_thin|dist_channel|serve_session|all> \
//!     --seed <n> [--seconds <s>] [--trace <0|1>] [--out results.json]
//! ```
//!
//! `--trace 0` runs a workload's timed pass: `m2td-obs` uninstalled,
//! every end-to-end metric. `--trace 1` runs its traced pass: the
//! benchmark's own spans around each layer's public calls plus the
//! program's `m2td-obs` spans and counters, every per-layer metric, and
//! the spans written to `trace-<workload>.json`. Without `--trace`, or
//! with `--workload all`, every requested pass runs in a child process of
//! its own, so peak memory is per pass.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the pass's record (cores, pool threads, seed, obs state, profile and
//! sample details).

mod dist;
mod measure;
mod pipeline;
mod serve;
mod stats;
mod trace;

use m2td::json::Json;
use measure::{cores, fatal, Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: [&str; 4] = [
    "pipeline_dp",
    "pipeline_tp_thin",
    "dist_channel",
    "serve_session",
];

const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload <{}|all> --seed <n> [--seconds <s>] [--trace <0|1>] \
         [--out <file>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    args
}

fn run_pass(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match (workload, traced) {
        ("pipeline_dp", false) => pipeline::timed(&pipeline::double_pendulum(), seed, seconds),
        ("pipeline_dp", true) => pipeline::traced(&pipeline::double_pendulum(), seed, seconds),
        ("pipeline_tp_thin", false) => {
            pipeline::timed(&pipeline::triple_pendulum_thin(), seed, seconds)
        }
        ("pipeline_tp_thin", true) => {
            pipeline::traced(&pipeline::triple_pendulum_thin(), seed, seconds)
        }
        ("dist_channel", false) => dist::timed(seed, seconds),
        ("dist_channel", true) => dist::traced(seed, seconds),
        ("serve_session", false) => serve::timed(seed, seconds),
        ("serve_session", true) => serve::traced(seed, seconds),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// The result line: every metric of the pass's table, by name with unit.
fn result_json(out: &Outcome, traced: bool) -> Json {
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &out.metrics {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in the table of this pass"
        );
    }
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = out
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            let value = match (value, traced) {
                (Some(v), _) if v.is_finite() => v,
                // A layer the workload never reaches.
                (None, true) => 0.0,
                _ => fatal(format!("end-to-end metric {name} was not measured")),
            };
            let entry = vec![
                ("value".to_string(), Json::Float(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ];
            (name.to_string(), Json::Obj(entry))
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.failed == 0)),
        ("attempted".into(), Json::Int(out.attempted as i64)),
        ("failed".into(), Json::Int(out.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn record_json(workload: &str, args: &Args, traced: bool, out: &Outcome) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        (
            "pass".into(),
            Json::Str(if traced { "traced" } else { "timed" }.into()),
        ),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("cores".into(), Json::Int(cores() as i64)),
        ("threads".into(), Json::Int(m2td::par::max_threads() as i64)),
        (
            "obs".into(),
            Json::Str(if traced { "installed" } else { "uninstalled" }.into()),
        ),
        ("profile".into(), Json::Str("release".into())),
        ("detail".into(), Json::Obj(out.detail.clone())),
    ])
}

fn write_file(path: &PathBuf, json: &Json) {
    if let Err(e) = std::fs::write(path, json.to_pretty() + "\n") {
        fatal(format!("cannot write {}: {e}", path.display()));
    }
}

/// One pass in this process.
fn single(args: &Args, traced: bool) {
    let workload = args.workload.as_str();
    let out = run_pass(workload, args.seed, args.seconds, traced);
    let record = record_json(workload, args, traced, &out);
    let result = result_json(&out, traced);
    if let Some(spans) = &out.trace {
        let doc = Json::Obj(vec![
            ("record".into(), record.clone()),
            ("result".into(), result.clone()),
            ("trace".into(), spans.clone()),
        ]);
        write_file(&PathBuf::from(format!("trace-{workload}.json")), &doc);
    }
    if let Some(path) = &args.out {
        let doc = Json::Arr(vec![Json::Obj(vec![
            ("record".into(), record.clone()),
            ("result".into(), result.clone()),
        ])]);
        write_file(path, &doc);
    }
    println!("{}", record.to_compact());
    println!("{}", result.to_compact());
}

/// Every requested pass in a child process, then a summary of them all.
fn children(args: &Args) {
    let exe = std::env::current_exe().unwrap_or_else(|e| fatal(format!("no executable: {e}")));
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let passes = args.trace.map_or(vec![false, true], |t| vec![t]);
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let (mut docs, mut merged) = (Vec::new(), Vec::new());
    for workload in workloads {
        for &traced in &passes {
            let child = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .unwrap_or_else(|e| fatal(format!("cannot run {workload}: {e}")));
            let pass = if traced { "traced" } else { "timed" };
            let stdout = String::from_utf8_lossy(&child.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            if !child.status.success() || lines.len() < 2 {
                fatal(format!("{workload} ({pass} pass) failed: {}", child.status));
            }
            let parse = |line: &str| {
                Json::parse(line)
                    .unwrap_or_else(|e| fatal(format!("{workload}: unreadable result: {e}")))
            };
            let (record, result) = (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]));
            println!("{workload} ({pass} pass)");
            let field = |key: &str| result.get(key).cloned().unwrap_or(Json::Null);
            correct &= matches!(field("correct"), Json::Bool(true));
            attempted += field("attempted").as_u64().unwrap_or(0);
            failed += field("failed").as_u64().unwrap_or(0);
            if let Some(Json::Obj(metrics)) = result.get("metrics") {
                for (name, m) in metrics {
                    let value = m
                        .get("value")
                        .and_then(|v| v.as_f64().ok())
                        .unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(|u| u.as_str().ok()).unwrap_or("");
                    println!("  {name:<28} {value:>16.6} {unit}");
                    merged.push((format!("{workload}.{name}"), m.clone()));
                }
            }
            docs.push(Json::Obj(vec![
                ("record".into(), record),
                ("result".into(), result),
            ]));
        }
    }
    if let Some(path) = &args.out {
        write_file(path, &Json::Arr(docs));
    }
    let summary = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(attempted as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        ("metrics".into(), Json::Obj(merged)),
    ]);
    println!("{}", summary.to_compact());
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = parse_args();
    match (args.workload.as_str(), args.trace) {
        ("all", _) | (_, None) => children(&args),
        (_, Some(traced)) => single(&args, traced),
    }
    ExitCode::SUCCESS
}
