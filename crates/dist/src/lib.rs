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
//!   decomposition, parallel JE-stitching, parallel core recovery. The
//!   result matches the serial `m2td_core::m2td_decompose` to floating-
//!   point accumulation order. [`d_m2td`] is its fault-free shorthand.
//!
//! Fault tolerance (DESIGN.md §9): a [`DistJob`] with a [`FaultConfig`]
//! runs the same dataflow under a seeded
//! [`FaultPlan`](m2td_fault::FaultPlan) with retry/backoff and speculative
//! re-execution, persisting phase boundaries to a [`CheckpointStore`] so
//! interrupted runs resume instead of recomputing.
//!
//! Sharded execution (DESIGN.md §14): tasks cross a [`Transport`] boundary
//! as checksummed [`TaskEnvelope`]s, are scheduled by a work-stealing wave
//! scheduler, and — with a [`JobRecovery`] — exhausted tasks park in a
//! [`DlqStore`] dead-letter queue while a [`JobManifest`] records
//! per-phase completion for job-level resume.

mod checkpoint;
mod cluster;
mod dlq;
mod dmtd;
mod manifest;
mod mapreduce;
mod scheduler;
mod transport;

pub use checkpoint::{CheckpointError, CheckpointStore, Fingerprint};
pub use cluster::{ClusterModel, FailureModel, PhaseCost};
pub use dlq::{DlqEntry, DlqStore};
pub use dmtd::{
    d_m2td, DistDecomposition, DistError, DistJob, FaultConfig, JobRecovery, Phase3Strategy,
    PhaseStats, PHASE1_JOB, PHASE2_JOB, PHASE3_JOB,
};
pub use manifest::{JobManifest, ManifestLog, ManifestStore, PhaseManifest};
pub use mapreduce::{JobOutput, JobSpec, MapReduce, ShuffleStats};
pub use transport::{
    ChannelTransport, DirectTransport, TaskEnvelope, Transport, TransportError, TransportKind,
};
