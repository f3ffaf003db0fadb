//! # M2TD — Multi-Task Tensor Decomposition
//!
//! The paper's primary contribution (Section VI): obtain a Tucker
//! decomposition of the high-order join tensor `J` *directly from the
//! decompositions of the two low-order sub-tensors* `X₁`, `X₂` produced by
//! PF-partitioning, instead of running HOSVD on `J` itself.
//!
//! Three strategies combine the pivot-mode factor pairs:
//!
//! * [`PivotCombine::Average`] — **M2TD-AVG** (Algorithm 2): average the
//!   two factor matrices entry-wise.
//! * [`PivotCombine::Concat`] — **M2TD-CONCAT** (Algorithm 3): seek the
//!   singular vectors of the column-concatenated matricization
//!   `[X₁₍ₙ₎ | X₂₍ₙ₎]` (equivalently, eigenvectors of the summed Grams).
//! * [`PivotCombine::Select`] — **M2TD-SELECT** (Algorithms 4–5): build
//!   each factor row from whichever sub-system represents that entity with
//!   higher energy (row 2-norm).
//!
//! Free-mode factors come from their own sub-tensor; the core is recovered
//! with a sparse-first TTM chain over the stitched join tensor.
//!
//! The [`pipeline`] module wires the full experiment: simulate → sample →
//! stitch → decompose → score against ground truth, for both the M2TD
//! variants and the conventional baselines of Section IV.

pub mod analysis;
mod combine;
mod error;
mod m2td;
pub mod pipeline;

pub use combine::{align_signs, combine_pivot_factor, row_select, PivotCombine};
pub use error::CoreError;
pub use m2td::{
    assemble_factors, check_join, free_offsets, m2td_decompose, m2td_decompose_multi, phase1_side,
    recover_core, validate_inputs, CoreProjection, M2tdDecomposition, M2tdOptions, M2tdTimings,
};
pub use pipeline::{DegradedStats, RunReport, SimFaultPolicy, Workbench, WorkbenchConfig};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
