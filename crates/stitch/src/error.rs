//! Error type for JE-stitching.

use m2td_tensor::TensorError;
use std::fmt;

/// Errors produced while stitching sub-ensembles.
#[derive(Debug, Clone, PartialEq)]
pub enum StitchError {
    /// A stitch needs at least two sub-tensors.
    TooFewInputs {
        /// The number supplied.
        count: usize,
    },
    /// `k` must satisfy `1 <= k < order(X_s)` for every sub-tensor.
    InvalidPivotCount {
        /// The supplied `k`.
        k: usize,
        /// Orders of the sub-tensors.
        orders: Vec<usize>,
    },
    /// A sub-tensor disagrees with `X1` on a pivot-mode extent.
    PivotDimMismatch {
        /// The offending pivot mode (sub-tensor position).
        mode: usize,
        /// The extents in `X1` and in the offending sub-tensor.
        dims: (usize, usize),
    },
    /// An underlying tensor operation failed.
    Tensor(TensorError),
}

impl fmt::Display for StitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StitchError::TooFewInputs { count } => {
                write!(f, "stitching needs at least 2 sub-tensors, got {count}")
            }
            StitchError::InvalidPivotCount { k, orders } => write!(
                f,
                "pivot count {k} invalid for sub-tensors of orders {orders:?}"
            ),
            StitchError::PivotDimMismatch { mode, dims } => write!(
                f,
                "pivot mode {mode} has extent {} in X1 but {} in another sub-tensor",
                dims.0, dims.1
            ),
            StitchError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for StitchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StitchError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for StitchError {
    fn from(e: TensorError) -> Self {
        StitchError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = StitchError::PivotDimMismatch {
            mode: 0,
            dims: (4, 5),
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('5'));
        use std::error::Error;
        let t: StitchError = TensorError::EmptyTensor.into();
        assert!(t.source().is_some());
    }
}
