//! # m2td-serve — resident decomposition engine
//!
//! The paper's core promise is answering *"how would this unsimulated
//! configuration behave?"* from a partial ensemble. The rest of the
//! workspace computes that answer as a batch one-shot; this crate keeps it
//! **resident**: a [`ServeEngine`] holds one or more decomposed ensembles
//! keyed by name, absorbs new simulation cells as they arrive, and answers
//! cell/slice prediction queries at high QPS.
//!
//! Three moving parts:
//!
//! * **Absorption** — [`ServeEngine::absorb`] feeds each new simulation
//!   result into an [`m2td_tensor::IncrementalEnsemble`], which updates
//!   every mode's Gram matrix in `O(column occupancy)` instead of
//!   recomputing from scratch. Absorbed cells do **not** re-decompose the
//!   ensemble; they only mark the served model stale.
//! * **Refresh** — after `staleness_threshold` absorbs (or an explicit
//!   [`ServeEngine::refresh`]), per-mode factors are re-extracted from the
//!   *running* Grams through [`m2td_guard::gram_factor`] — a degenerate
//!   update is clamped or rejected per the installed policy, never served
//!   — and the core is recovered with the planned semi-sparse TTM chain
//!   (reusing one [`m2td_tensor::Workspace`] across refreshes). The result
//!   is published as an immutable [`Model`] snapshot; a rejected refresh
//!   leaves the previous healthy model serving.
//! * **Queries** — [`ServeEngine::query_cell`] /
//!   [`query_cells`](ServeEngine::query_cells) /
//!   [`query_slice`](ServeEngine::query_slice) evaluate against the
//!   published snapshot through a pre-decoded
//!   [`m2td_tensor::CellEvaluator`] (no per-call allocation) plus a
//!   bounded per-model LRU result cache. Queries take `&self` and never
//!   block behind each other; concurrent queries at any thread count
//!   return bitwise-identical predictions.
//!
//! Every request is instrumented through `m2td-obs`: `serve.query`,
//! `serve.absorb` and `serve.refresh` spans carry per-request latency,
//! and `serve.cache_hits` / `serve.cache_misses` /
//! `serve.cache_evictions` count the query cache.
//!
//! ## Durability
//!
//! With a [`DurabilityConfig`] the engine is crash-safe: every mutating
//! operation is written to a checksummed write-ahead log ([`wal`])
//! *before* it is applied, and the whole engine state is periodically
//! sealed into atomic, checksummed snapshots ([`store`]).
//! [`ServeEngine::recover`] reopens the newest snapshot that verifies —
//! quarantining damaged ones and falling back to older generations — and
//! replays the WAL tail, reproducing **bit-for-bit** the state an
//! uninterrupted engine would have reached, at any crash point. When
//! durable history exists that can no longer be replayed, the engine
//! serves what it recovered in read-only *degraded* mode instead of
//! guessing ([`ServeError::Degraded`]).
//!
//! Admission control bounds the damage of overload: a per-ensemble cap on
//! the unrefreshed absorb backlog ([`ServeError::Overloaded`]).
//!
//! ```
//! use m2td_serve::{ServeConfig, ServeEngine};
//!
//! let engine = ServeEngine::new(ServeConfig::default());
//! engine.register("demo", &[4, 4, 3], &[2, 2, 2]).unwrap();
//! for l in 0..48usize {
//!     if l % 2 == 0 {
//!         let idx = [l / 12, (l / 3) % 4, l % 3];
//!         engine.absorb("demo", &idx, (l as f64 * 0.37).sin() + 1.0).unwrap();
//!     }
//! }
//! engine.refresh("demo").unwrap();
//! // In-fill: predict a cell that was never simulated.
//! let y = engine.query_cell("demo", &[1, 1, 1]).unwrap();
//! assert!(y.is_finite());
//! ```

mod engine;
mod lru;
pub mod store;
pub mod wal;

pub use engine::{
    AbsorbReport, DurabilityConfig, EnsembleStats, Model, RecoveryReport, RefreshReport,
    ServeConfig, ServeEngine, ServeError,
};
pub use store::SnapshotStore;
pub use wal::{Wal, WalOp, WalRecord};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
