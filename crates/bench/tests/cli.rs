//! End-to-end coverage of the `m2td-cli` binary: the core fingerprints of
//! the deterministic `dist` and `serve` commands, the dead-letter-queue
//! operator flow, crash recovery of `serve` at every kill-point stream,
//! and rejection of flags a subcommand does not read.

use std::path::PathBuf;
use std::process::Command;

/// `dist --transport channel --workers 2` on a fresh job directory.
const DIST_CHANNEL_2_WORKERS: &str = "9c78302d028d7005";
/// `dist --transport direct --workers 1` on a fresh job directory.
const DIST_DIRECT_1_WORKER: &str = "7e71e41e1a3090a3";
/// `serve` at its default flags.
const SERVE_DEFAULTS: &str = "e626012c7295ec5d";

/// A fresh, empty directory under the test target dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the CLI with `args` in `cwd`; returns the exit code, stdout and
/// stderr.
fn cli(cwd: &PathBuf, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_m2td-cli"))
        .args(args)
        .current_dir(cwd)
        .env_remove("M2TD_TRANSPORT")
        .output()
        .expect("m2td-cli runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The hex digits after the `core fnv64:` marker in `stdout`.
fn fingerprint(stdout: &str) -> &str {
    let (_, rest) = stdout
        .split_once("core fnv64:")
        .unwrap_or_else(|| panic!("no core fingerprint in:\n{stdout}"));
    rest.split_whitespace().next().unwrap_or("")
}

/// Runs `dist` over the job directory `job` (relative to `cwd`) with
/// `extra` flags appended.
fn dist(
    cwd: &PathBuf,
    job: &str,
    transport: &str,
    workers: &str,
    extra: &[&str],
) -> (i32, String, String) {
    let mut args = vec![
        "dist",
        "--dir",
        job,
        "--transport",
        transport,
        "--workers",
        workers,
    ];
    args.extend_from_slice(extra);
    cli(cwd, &args)
}

fn dist_fingerprint(name: &str, transport: &str, workers: &str) -> String {
    let dir = fresh_dir(name);
    let (code, out, err) = dist(&dir, "job", transport, workers, &[]);
    assert_eq!(code, 0, "dist failed:\n{out}{err}");
    fingerprint(&out).to_string()
}

#[test]
fn dist_channel_with_two_workers_prints_its_pinned_core() {
    assert_eq!(
        dist_fingerprint("dist_channel", "channel", "2"),
        DIST_CHANNEL_2_WORKERS
    );
}

#[test]
fn dist_direct_with_one_worker_prints_its_pinned_core() {
    assert_eq!(
        dist_fingerprint("dist_direct", "direct", "1"),
        DIST_DIRECT_1_WORKER
    );
}

/// The transport never shows in the bits: at the same worker count a
/// direct run prints the channel run's core.
#[test]
fn dist_direct_with_two_workers_matches_the_channel_core() {
    assert_eq!(
        dist_fingerprint("dist_direct_2", "direct", "2"),
        DIST_CHANNEL_2_WORKERS
    );
}

/// The operator workflow of DESIGN.md §14: a doomed task parks in the
/// dead-letter queue and the run completes degraded (exit 4); after
/// `dlq requeue` a rerun resumes from the manifest, drains the entry and
/// converges to the core of a never-faulted run.
#[test]
fn doomed_task_parks_and_requeue_converges_to_the_clean_core() {
    let dir = fresh_dir("dlq_flow");
    let (code, doomed, err) = dist(&dir, "job", "channel", "2", &["--doom-tasks", "1"]);
    assert_eq!(code, 4, "a doomed run completes degraded:\n{doomed}{err}");
    assert_ne!(
        fingerprint(&doomed),
        DIST_CHANNEL_2_WORKERS,
        "a degraded core cannot equal the clean core"
    );

    let (code, list, err) = cli(&dir, &["dlq", "list", "--dir", "job"]);
    assert_eq!(code, 0, "dlq list failed:\n{list}{err}");
    assert!(list.contains("parked"), "no parked dlq entry:\n{list}");
    let (code, out, err) = cli(&dir, &["dlq", "requeue", "--dir", "job"]);
    assert_eq!(code, 0, "dlq requeue failed:\n{out}{err}");

    let (code, resumed, err) = dist(&dir, "job", "channel", "2", &[]);
    assert_eq!(code, 0, "the requeued run must converge:\n{resumed}{err}");
    assert_eq!(fingerprint(&resumed), DIST_CHANNEL_2_WORKERS);
    let drained = resumed
        .split_once(" dead-letter entries drained")
        .and_then(|(before, _)| before.rsplit(' ').next())
        .unwrap_or_else(|| panic!("no resume line in:\n{resumed}"));
    assert_eq!(drained, "1", "expected one drained entry:\n{resumed}");
}

/// DESIGN.md §17's crash matrix: one kill point in each durable stream
/// (an absorb before its WAL record exists, a refresh, a WAL append
/// before its record is applied, a snapshot write between temp file and
/// rename). The crashed process exits 6; a restart over the same state
/// directory recovers and prints the uninterrupted run's core.
#[test]
fn serve_restarts_after_every_kill_point_print_the_clean_core() {
    let serve = [
        "serve",
        "--dims",
        "10,10,8",
        "--ranks",
        "3,3,2",
        "--snapshot-every",
        "40",
        "--state-dir",
    ];
    let run = |dir: &PathBuf, state: &str, extra: &[&str]| {
        let args: Vec<&str> = serve.iter().chain([&state]).chain(extra).copied().collect();
        cli(dir, &args)
    };
    let dir = fresh_dir("serve_crash");
    let (code, clean, err) = run(&dir, "clean", &[]);
    assert_eq!(code, 0, "uninterrupted run failed:\n{clean}{err}");
    for crash_at in [
        "absorb:150",
        "refresh:3",
        "wal-append:300",
        "snapshot-write:80",
    ] {
        let state = format!("crash_{}", crash_at.replace(':', "_"));
        let (code, crashed, err) = run(&dir, &state, &["--crash-at", crash_at]);
        assert_eq!(code, 6, "{crash_at} must fire:\n{crashed}{err}");
        assert!(
            crashed.contains("injected kill point"),
            "{crash_at}:\n{crashed}"
        );
        let (code, recovered, err) = run(&dir, &state, &[]);
        assert_eq!(code, 0, "{crash_at}: restart failed:\n{recovered}{err}");
        assert!(
            recovered.contains("recovered from snapshot"),
            "{crash_at}:\n{recovered}"
        );
        assert_eq!(
            fingerprint(&recovered),
            fingerprint(&clean),
            "{crash_at}: recovered core differs from the uninterrupted run"
        );
    }
}

#[test]
fn serve_at_defaults_prints_its_pinned_core() {
    let dir = fresh_dir("serve");
    let (code, out, err) = cli(&dir, &["serve"]);
    assert_eq!(code, 0, "serve failed:\n{out}{err}");
    assert_eq!(fingerprint(&out), SERVE_DEFAULTS);
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let dir = fresh_dir("unknown_flags");
    let run = ["run", "--system", "sir", "--resolution", "4", "--rank", "2"];
    for (extra, flag) in [
        (["--bogus", "1"], "--bogus"),
        (["--power-iters", "1"], "--power-iters"),
        (["--sketch-sise", "8"], "--sketch-sise"),
    ] {
        let args: Vec<&str> = run.iter().chain(extra.iter()).copied().collect();
        let (code, out, err) = cli(&dir, &args);
        assert_eq!(code, 2, "{args:?} must be rejected:\n{out}{err}");
        assert!(err.contains(flag), "message must name {flag}: {err}");
        assert!(out.is_empty(), "{args:?} must do no work: {out}");
    }
    // A flag is only valid for the subcommands that read it.
    for args in [
        &["compare", "--method", "avg"][..],
        &["compare", "--save", "t.json"],
        &["serve", "--rank", "3"],
        &["dist", "--dims", "4,4"],
        &["bench-diff", "--dir", "x"],
        &["dlq", "list", "--workers", "2"],
    ] {
        let (code, out, err) = cli(&dir, args);
        assert_eq!(code, 2, "{args:?} must be rejected:\n{out}{err}");
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
}
