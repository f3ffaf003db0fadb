//! Regenerates the paper's evaluation tables and the ablation studies from
//! the plans in `m2td_bench::tables`, or checks the committed `results/`
//! against a fresh full-scale run.
//!
//! ```text
//! cargo run --release -p m2td-bench --bin tables -- all            # write results/*.json
//! cargo run --release -p m2td-bench --bin tables -- table2 table5  # some plans
//! cargo run --release -p m2td-bench --bin tables -- --quick all    # smoke scale, print only
//! cargo run --release -p m2td-bench --bin tables -- check          # compare with results/
//! ```
//!
//! `--quick` never writes under `results/`. An unknown argument exits 2; a
//! failed check exits 1.

use m2td_bench::tables::{diff_committed, judge, plans, run_plans, FULL, SMOKE};
use std::path::Path;
use std::process::exit;

const USAGE: &str = "usage: tables [--quick] [all | table2 … table8 | ablations]… | tables check";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (check, quick) = (args == ["check"], args.iter().any(|a| a == "--quick"));
    let mut names: Vec<&str> = args.iter().map(String::as_str).collect();
    names.retain(|a| !check && *a != "--quick");
    let mut plans = plans();
    let known = |n: &str| n == "all" || plans.iter().any(|p| p.name == n);
    if let Some(bad) = names.iter().find(|n| !known(n)) {
        eprintln!("tables: unknown argument '{bad}'\n{USAGE}");
        exit(2);
    }
    plans.retain(|p| names.is_empty() || names.contains(&"all") || names.contains(&p.name));
    let started = std::time::Instant::now();
    let tables = run_plans(&plans, if quick { &SMOKE } else { &FULL }).unwrap_or_else(|e| {
        eprintln!("tables: {e}");
        exit(1)
    });
    let (secs, dir) = (started.elapsed().as_secs_f64(), Path::new("results"));
    if check {
        let failures = [diff_committed(&tables, dir), judge(&tables, &FULL)].concat();
        failures.iter().for_each(|f| eprintln!("{f}"));
        let n = failures.len();
        println!("{n} failures in {} tables ({secs:.1}s)", tables.len());
        exit(i32::from(!failures.is_empty()));
    }
    for t in &tables {
        println!("{}", t.render());
        if !quick {
            t.write_json(dir).unwrap_or_else(|e| {
                eprintln!("tables: could not write {}: {e}", t.id);
                exit(1)
            });
        }
    }
    println!("{} tables in {secs:.1}s", tables.len());
}
