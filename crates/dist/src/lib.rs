//! D-M2TD — the distributed, 3-phase formulation of M2TD
//! (Section VI-D of the paper), plus the substrates it runs on.
//!
//! The paper deploys D-M2TD on an 18-node Hadoop cluster. This crate
//! substitutes (see DESIGN.md §4):
//!
//! * [`MapReduce`] — a real in-process map/shuffle/reduce engine on scoped
//!   threads, producing results bit-identical to serial execution; every
//!   job runs through [`MapReduce::run`];
//! * [`ClusterModel`] — an analytic cost model charging per-record compute
//!   to `W` virtual servers plus communication per shuffled byte, which
//!   reproduces Table III's *shape* (phase-3 dominance, diminishing
//!   returns in `W`) deterministically on one machine;
//! * [`DistJob`] — the three phases themselves: parallel sub-tensor
//!   decomposition, parallel JE-stitching, parallel core recovery. Its
//!   reducers call the per-phase kernels of the serial
//!   `m2td_core::m2td_decompose`, so factors and join tensor equal the
//!   serial ones bitwise at any worker count, and so does the core at one
//!   worker; at `W` workers the core is the sum of `W` partial cores.
//!   [`d_m2td`] is its fault-free shorthand.
//!
//! Fault tolerance (DESIGN.md §9): a [`DistJob`] with a [`FaultConfig`]
//! runs the same dataflow under a seeded
//! [`FaultPlan`](m2td_fault::FaultPlan) with retry/backoff and speculative
//! re-execution.
//!
//! Sharded execution (DESIGN.md §14): tasks cross a [`ChannelTransport`]
//! as checksummed [`TaskEnvelope`]s carrying the fixed-layout bytes of
//! [`wire`], are scheduled by a work-stealing wave
//! scheduler, and — with a [`JobRecovery`] — exhausted tasks park in a
//! [`DlqStore`] dead-letter queue while a [`JobManifest`] records
//! per-phase completion, so an interrupted run resumes instead of
//! recomputing: a finished phase 1 or 2 runs no task, and every other
//! phase re-runs only its unrecorded reduce tasks.

mod cluster;
mod dlq;
mod dmtd;
mod manifest;
mod mapreduce;
mod scheduler;
mod transport;
pub mod wire;

pub use cluster::{ClusterModel, PhaseCost};
pub use dlq::{DlqEntry, DlqStore};
pub use dmtd::{
    d_m2td, DistDecomposition, DistError, DistJob, FaultConfig, JobRecovery, PhaseStats,
    PHASE1_JOB, PHASE2_JOB, PHASE3_JOB,
};
pub use manifest::{Fingerprint, JobManifest, ManifestLog, ManifestStore, PhaseManifest};
pub use mapreduce::{JobOutput, JobSpec, MapReduce, ShuffleStats};
pub use transport::{ChannelTransport, TaskEnvelope, TransportError, TransportKind};
