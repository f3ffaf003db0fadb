//! Experiment harness shared by the `tables` binary, the `m2td-cli`
//! binary and the Criterion benches: the paper's tables as declarative
//! plans, system registry, result records and text-table formatting.
//!
//! Every table of the paper's evaluation section is one
//! [`tables::Plan`] in [`tables::PLANS`]: its factor grid, methods, KPI
//! kinds and structural claims. [`tables::run_plans`] runs plans into
//! machine-readable [`TableResult`] records, which the `tables` binary
//! prints, writes to `results/*.json` or checks against the committed
//! files. Scale parameters are chosen for a small reproduction machine
//! (see DESIGN.md §4.2); the paper-vs-measured comparison lives in
//! EXPERIMENTS.md.

pub mod harness;
pub mod registry;
pub mod report;
pub mod tables;

pub use registry::{system_by_name, SystemKind};
pub use report::TableResult;
