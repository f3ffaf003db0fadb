//! End-to-end coverage of the `m2td-cli` binary: the core fingerprints of
//! the deterministic `dist` and `serve` commands, and rejection of flags a
//! subcommand does not read.

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

fn dist_fingerprint(name: &str, transport: &str, workers: &str) -> String {
    let dir = fresh_dir(name);
    let job = dir.join("job");
    let (code, out, err) = cli(
        &dir,
        &[
            "dist",
            "--dir",
            job.to_str().unwrap(),
            "--transport",
            transport,
            "--workers",
            workers,
        ],
    );
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
