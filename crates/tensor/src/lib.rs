//! Tensor substrate for the M2TD reproduction.
//!
//! Provides the data structures and decomposition kernels the paper builds
//! on: dense and sparse (COO) tensors, mode-`n` matricization (unfolding),
//! tensor-times-matrix (TTM) products, Tucker decompositions via HOSVD
//! (Algorithm 1 of the paper) with an optional HOOI refinement, and the
//! sketched sparse routes of [`sketch`].
//!
//! # Conventions
//!
//! Mode-`n` unfolding follows Kolda & Bader: tensor element
//! `(i₁, …, i_N)` maps to matrix entry `(i_n, j)` with
//! `j = Σ_{k≠n} i_k · J_k`, `J_k = Π_{m<k, m≠n} I_m`.
//!
//! # Example
//!
//! ```
//! use m2td_tensor::{DenseTensor, hosvd_dense};
//!
//! // A 4x5x6 separable (rank-1) tensor decomposes exactly at rank 1.
//! let t = DenseTensor::from_fn(&[4, 5, 6], |idx| {
//!     (idx[0] + 1) as f64 * (idx[1] + 1) as f64 * (idx[2] + 1) as f64
//! });
//! let tucker = hosvd_dense(&t, &[1, 1, 1]).unwrap();
//! assert!(tucker.relative_error(&t).unwrap() < 1e-12);
//! ```

mod dense;
mod error;
mod hooi;
mod hosvd;
mod incremental;
mod io;
mod plan;
mod shape;
pub mod sketch;
mod sparse;
mod ttm;
mod tucker;
mod workspace;

pub use dense::DenseTensor;
pub use error::TensorError;
pub use hooi::{hooi_dense, hooi_sparse, hooi_sparse_exact, HooiOptions};
pub use hosvd::{
    dense_core, dense_core_with, hosvd_dense, hosvd_sparse, hosvd_sparse_exact, sparse_core,
    sparse_core_with, CoreOrdering,
};
pub use incremental::IncrementalEnsemble;
pub use io::{load_json, save_json};
pub use plan::TtmPlan;
pub use shape::Shape;
pub use sketch::{hooi_sparse_sketched, hosvd_sparse_sketched, mach_sample, phase_gram};
pub use sparse::SparseTensor;
pub use ttm::{
    ttm_dense, ttm_dense_transposed, ttm_dense_transposed_ws, ttm_dense_ws, ttm_sparse,
    ttm_sparse_transposed,
};
pub use tucker::{CellEvaluator, TuckerDecomp};
pub use workspace::Workspace;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Process-global sketch/guard state makes concurrently-running tests
/// race on install/uninstall; tests that flip it serialize here.
#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    static SKETCH_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn sketch_lock() -> MutexGuard<'static, ()> {
        SKETCH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
