//! Integration coverage for the `m2td-cli bench-diff` perf-regression
//! gate: joins records per (group, name, threads), gates only the
//! configured families, and exits 3 on a regression beyond tolerance.

use std::path::PathBuf;
use std::process::Command;

fn record(group: &str, name: &str, threads: usize, mean_ns: f64) -> String {
    format!(
        "{{\"group\": \"{group}\", \"name\": \"{name}\", \"threads\": {threads}, \
         \"mean_ns\": {mean_ns}, \"samples\": 10}}"
    )
}

fn write_records(path: &PathBuf, records: &[String]) {
    std::fs::write(path, format!("[{}]", records.join(","))).unwrap();
}

fn bench_diff(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_m2td-cli"))
        .arg("bench-diff")
        .args(args)
        .output()
        .expect("m2td-cli runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

#[test]
fn gate_passes_within_tolerance_and_fails_beyond_it() {
    let dir = std::env::temp_dir().join("m2td_bench_diff_gate");
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.json");
    let cur = dir.join("cur.json");
    write_records(
        &base,
        &[
            record("gemm", "square256_blocked", 1, 1.0e6),
            record("ttm_chain", "chain3", 1, 2.0e6),
        ],
    );
    // +10% on a gated record: within the default 25% tolerance.
    write_records(
        &cur,
        &[
            record("gemm", "square256_blocked", 1, 1.1e6),
            record("ttm_chain", "chain3", 1, 2.0e6),
        ],
    );
    let (code, text) = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "within tolerance must pass:\n{text}");
    assert!(text.contains("ok"));

    // +60% on a gated record: beyond tolerance, exit 3.
    write_records(
        &cur,
        &[
            record("gemm", "square256_blocked", 1, 1.6e6),
            record("ttm_chain", "chain3", 1, 2.0e6),
        ],
    );
    let (code, text) = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code, 3, "gated regression must fail:\n{text}");
    assert!(text.contains("REGRESSION"), "{text}");

    // The override knob widens the tolerance for intentional slowdowns.
    let (code, _) = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        cur.to_str().unwrap(),
        "--max-regress",
        "0.75",
    ]);
    assert_eq!(code, 0, "--max-regress overrides the default gate");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ungated_families_and_unmatched_records_never_fail() {
    let dir = std::env::temp_dir().join("m2td_bench_diff_ungated");
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.json");
    let cur = dir.join("cur.json");
    write_records(
        &base,
        &[
            record("eig", "eig64", 1, 1.0e6),
            record("eig", "retired", 1, 1.0e6),
        ],
    );
    // eig regresses 10x but is not a gated family; `fresh` has no
    // baseline; the ungated `retired` vanished from current. None of
    // these fail.
    write_records(
        &cur,
        &[
            record("eig", "eig64", 1, 1.0e7),
            record("gemm", "fresh", 2, 5.0e5),
        ],
    );
    let (code, text) = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("(ungated)"), "{text}");
    assert!(text.contains("new, no baseline"), "{text}");
    assert!(text.contains("missing from current (retired?)"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gated_baseline_record_missing_from_current_fails_the_gate() {
    let dir = std::env::temp_dir().join("m2td_bench_diff_missing_gated");
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.json");
    let cur = dir.join("cur.json");
    write_records(
        &base,
        &[
            record("gemm", "square256_blocked", 1, 1.0e6),
            record("ttm_chain", "chain3", 1, 2.0e6),
        ],
    );
    // chain3 silently disappeared from the current run: the gate must
    // notice instead of letting a dropped benchmark retire itself.
    write_records(&cur, &[record("gemm", "square256_blocked", 1, 1.0e6)]);
    let (code, text) = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        cur.to_str().unwrap(),
    ]);
    assert_eq!(code, 3, "gated missing record must fail:\n{text}");
    assert!(text.contains("MISSING from current (gated)"), "{text}");
    assert!(
        text.contains("1 gated baseline record(s) missing"),
        "{text}"
    );

    // Narrowing --families to exclude the family un-gates the absence.
    let (code, text) = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        cur.to_str().unwrap(),
        "--families",
        "gemm",
    ]);
    assert_eq!(code, 0, "un-gated family may retire freely:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_or_malformed_inputs_are_usage_errors() {
    let dir = std::env::temp_dir().join("m2td_bench_diff_errors");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "not json").unwrap();
    let good = dir.join("good.json");
    write_records(&good, &[record("gemm", "x", 1, 1.0)]);

    let (code, _) = bench_diff(&["--baseline", good.to_str().unwrap()]);
    assert_eq!(code, 2, "--current is required");
    let (code, _) = bench_diff(&[
        "--baseline",
        bad.to_str().unwrap(),
        "--current",
        good.to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "malformed baseline is an error");
    let (code, _) = bench_diff(&[
        "--baseline",
        good.to_str().unwrap(),
        "--current",
        dir.join("absent.json").to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "missing current file is an error");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sim_family_is_gated_by_default() {
    let dir = std::env::temp_dir().join("m2td_bench_diff_sim");
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.json");
    let cur = dir.join("cur.json");
    write_records(
        &base,
        &[record("sim", "triple_pendulum_trajectory", 1, 1.0e5)],
    );
    write_records(
        &cur,
        &[record("sim", "triple_pendulum_trajectory", 1, 1.6e5)],
    );
    let (code, text) = bench_diff(&[
        "--baseline",
        base.to_str().unwrap(),
        "--current",
        cur.to_str().unwrap(),
    ]);
    assert_eq!(
        code, 3,
        "a sim regression must fail the default gate:\n{text}"
    );
    assert!(text.contains("REGRESSION"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
