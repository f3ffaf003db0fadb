//! Dense linear-algebra substrate for the M2TD reproduction.
//!
//! The M2TD pipeline (ICDE 2018) needs a small but complete set of dense
//! linear-algebra kernels: matrix arithmetic, Householder QR, a symmetric
//! eigensolver, singular value decomposition, and triangular/Cholesky
//! solvers. No external linear-algebra crates are used; every kernel here is
//! implemented from scratch and tested against hand-computed results and
//! property-based invariants.
//!
//! # Quick example
//!
//! ```
//! use m2td_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
//! let svd = m2td_linalg::svd(&a).unwrap();
//! // Singular values are sorted in decreasing order.
//! assert!(svd.singular_values[0] >= svd.singular_values[1]);
//! // The factorisation reconstructs the input.
//! let recon = svd.reconstruct();
//! assert!(a.sub(&recon).unwrap().frobenius_norm() < 1e-10);
//! ```

mod cholesky;
mod eig;
mod error;
pub mod kernel;
mod matrix;
mod qr;
mod solve;
mod svd;
mod vecops;

pub use cholesky::{cholesky, CholeskyFactor};
pub use eig::{symmetric_eig, SymmetricEig};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use qr::{householder_qr, QrFactors};
pub use solve::{solve_lower_triangular, solve_spd, solve_spd_in_place};
pub use svd::{gram_left_singular_vectors, svd, Svd};
pub use vecops::{dot, norm2, norm2_iter};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
