//! Tucker decomposition container and reconstruction.

use crate::dense::DenseTensor;
use crate::error::TensorError;
use crate::ttm::ttm_dense_ws;
use crate::workspace::Workspace;
use crate::Result;
use m2td_linalg::Matrix;

/// A Tucker decomposition `[G; U⁽¹⁾, …, U⁽ᴺ⁾]` of an `N`-mode tensor.
///
/// `factors[n]` has shape `I_n × r_n` and the core `G` has shape
/// `r₁ × … × r_N`. Reconstruction computes
/// `X̃ = G ×₁ U⁽¹⁾ ×₂ U⁽²⁾ ⋯ ×_N U⁽ᴺ⁾` (Section III-B of the paper).
#[derive(Debug, Clone)]
pub struct TuckerDecomp {
    /// The dense core tensor (`r₁ × … × r_N`).
    pub core: DenseTensor,
    /// Per-mode factor matrices (`I_n × r_n`).
    pub factors: Vec<Matrix>,
}

impl TuckerDecomp {
    /// Creates a decomposition after validating that factor column counts
    /// match the core dimensions.
    pub fn new(core: DenseTensor, factors: Vec<Matrix>) -> Result<Self> {
        if factors.len() != core.order() {
            return Err(TensorError::WrongNumberOfRanks {
                supplied: factors.len(),
                order: core.order(),
            });
        }
        for (n, f) in factors.iter().enumerate() {
            if f.cols() != core.dims()[n] {
                return Err(TensorError::ShapeMismatch {
                    expected: vec![f.rows(), core.dims()[n]],
                    actual: vec![f.rows(), f.cols()],
                    op: "TuckerDecomp::new",
                });
            }
        }
        Ok(Self { core, factors })
    }

    /// The target ranks `(r₁, …, r_N)`.
    pub fn ranks(&self) -> &[usize] {
        self.core.dims()
    }

    /// The reconstructed tensor's mode extents `(I₁, …, I_N)`.
    pub fn output_dims(&self) -> Vec<usize> {
        self.factors.iter().map(|f| f.rows()).collect()
    }

    /// Recomposes the full tensor `X̃ = G ×₁ U⁽¹⁾ ⋯ ×_N U⁽ᴺ⁾`.
    pub fn reconstruct(&self) -> Result<DenseTensor> {
        self.reconstruct_ws(&mut Workspace::new())
    }

    /// [`Self::reconstruct`] drawing every intermediate's buffers from a
    /// caller-owned [`Workspace`], so repeated recompositions (serve
    /// refreshes, error sweeps) reuse the same few allocations.
    pub fn reconstruct_ws(&self, ws: &mut Workspace) -> Result<DenseTensor> {
        let mut acc = self.core.clone();
        for (mode, u) in self.factors.iter().enumerate() {
            let next = ttm_dense_ws(&acc, mode, u, ws)?;
            ws.recycle_tensor(acc);
            acc = next;
        }
        Ok(acc)
    }

    /// Evaluates a single reconstructed cell without materializing the
    /// full tensor: `X̃[i] = Σ_g G[g] · Π_n U⁽ⁿ⁾[i_n, g_n]`.
    ///
    /// Cost is `Π r_n` per cell — the right tool for in-fill queries
    /// ("how would this unsimulated configuration behave?") against a
    /// decomposition of a large ensemble.
    pub fn cell(&self, index: &[usize]) -> Result<f64> {
        self.check_cell_index(index)?;
        let core_shape = self.core.shape();
        let mut g_idx = vec![0usize; core_shape.order()];
        let mut acc = 0.0;
        for (lin, &g) in self.core.as_slice().iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            core_shape.multi_index_into(lin, &mut g_idx);
            let mut term = g;
            for ((&i, f), &gn) in index.iter().zip(self.factors.iter()).zip(g_idx.iter()) {
                term *= f.get(i, gn);
            }
            acc += term;
        }
        Ok(acc)
    }

    /// Validates a reconstruction-space multi-index: every mode is checked
    /// before any allocation, so the error path costs nothing until an
    /// actual error is built.
    fn check_cell_index(&self, index: &[usize]) -> Result<()> {
        if index.len() != self.factors.len() {
            return Err(TensorError::WrongNumberOfRanks {
                supplied: index.len(),
                order: self.factors.len(),
            });
        }
        if index
            .iter()
            .zip(self.factors.iter())
            .any(|(&i, f)| i >= f.rows())
        {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.output_dims(),
            });
        }
        Ok(())
    }

    /// Relative Frobenius reconstruction error
    /// `‖X̃ − Y‖_F / ‖Y‖_F` against a reference tensor `Y`.
    pub fn relative_error(&self, reference: &DenseTensor) -> Result<f64> {
        let recon = self.reconstruct()?;
        let diff_norm = recon.sub(reference)?.frobenius_norm();
        let denom = reference.frobenius_norm();
        if denom == 0.0 {
            return Ok(if diff_norm == 0.0 { 0.0 } else { f64::INFINITY });
        }
        Ok(diff_norm / denom)
    }

    /// The paper's accuracy metric (Section VII-D):
    /// `accuracy = 1 − ‖X̃ − Y‖_F / ‖Y‖_F`.
    pub fn accuracy(&self, reference: &DenseTensor) -> Result<f64> {
        Ok(1.0 - self.relative_error(reference)?)
    }
}

/// Amortized single-cell evaluation over a [`TuckerDecomp`].
///
/// [`TuckerDecomp::cell`] decodes every nonzero core entry's multi-index
/// on each call and allocates a scratch index buffer per query — fine for
/// one-shot in-fill, wasteful on a serving hot path issuing thousands of
/// queries against the same decomposition. `CellEvaluator` hoists that
/// work out of the per-call path: it scans the core once, keeping only the
/// nonzero entries with their multi-indices pre-decoded, so each query is
/// a pure read-only walk (`Π r_n` multiplies worst case, fewer on sparse
/// cores) with no allocation. Evaluation accumulates terms in the same
/// linear-core order as `cell`, so results are bitwise identical to it —
/// and, because queries take `&self`, identical across any number of
/// concurrent query threads.
#[derive(Debug, Clone)]
pub struct CellEvaluator {
    decomp: TuckerDecomp,
    /// Values of the nonzero core entries, in linear-core order.
    values: Vec<f64>,
    /// Pre-decoded core multi-indices, flattened `order` per value.
    g_idx: Vec<usize>,
    /// Cached `decomp.output_dims()`.
    output_dims: Vec<usize>,
}

impl CellEvaluator {
    /// Builds the evaluator, pre-decoding every nonzero core entry.
    pub fn new(decomp: TuckerDecomp) -> Self {
        let core_shape = decomp.core.shape();
        let order = core_shape.order();
        let mut values = Vec::new();
        let mut g_idx = Vec::new();
        let mut scratch = vec![0usize; order];
        for (lin, &g) in decomp.core.as_slice().iter().enumerate() {
            if g == 0.0 {
                continue;
            }
            core_shape.multi_index_into(lin, &mut scratch);
            values.push(g);
            g_idx.extend_from_slice(&scratch);
        }
        let output_dims = decomp.output_dims();
        Self {
            decomp,
            values,
            g_idx,
            output_dims,
        }
    }

    /// The wrapped decomposition.
    pub fn decomp(&self) -> &TuckerDecomp {
        &self.decomp
    }

    /// The reconstructed tensor's mode extents.
    pub fn output_dims(&self) -> &[usize] {
        &self.output_dims
    }

    /// Number of nonzero core entries each query walks.
    pub fn num_terms(&self) -> usize {
        self.values.len()
    }

    /// Evaluates one reconstructed cell; bitwise identical to
    /// [`TuckerDecomp::cell`] on the wrapped decomposition.
    pub fn cell(&self, index: &[usize]) -> Result<f64> {
        self.decomp.check_cell_index(index)?;
        let order = self.decomp.factors.len();
        let mut acc = 0.0;
        for (t, &g) in self.values.iter().enumerate() {
            let g_idx = &self.g_idx[t * order..(t + 1) * order];
            let mut term = g;
            for ((&i, f), &gn) in index
                .iter()
                .zip(self.decomp.factors.iter())
                .zip(g_idx.iter())
            {
                term *= f.get(i, gn);
            }
            acc += term;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_mismatches() {
        let core = DenseTensor::zeros(&[2, 2]);
        // Wrong factor count.
        assert!(TuckerDecomp::new(core.clone(), vec![Matrix::zeros(3, 2)]).is_err());
        // Wrong factor columns.
        assert!(
            TuckerDecomp::new(core.clone(), vec![Matrix::zeros(3, 2), Matrix::zeros(3, 3)])
                .is_err()
        );
        assert!(TuckerDecomp::new(core, vec![Matrix::zeros(3, 2), Matrix::zeros(3, 2)]).is_ok());
    }

    #[test]
    fn identity_factors_reconstruct_core() {
        let core = DenseTensor::from_fn(&[2, 3], |i| (i[0] * 3 + i[1]) as f64);
        let t = TuckerDecomp::new(core.clone(), vec![Matrix::identity(2), Matrix::identity(3)])
            .unwrap();
        assert_eq!(t.reconstruct().unwrap(), core);
        assert!(t.relative_error(&core).unwrap() < 1e-15);
        assert!((t.accuracy(&core).unwrap() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rank_one_outer_product() {
        // core = [[2]], factors a=[1,2]ᵀ, b=[3,4,5]ᵀ => X = 2·a bᵀ.
        let core = DenseTensor::from_vec(&[1, 1], vec![2.0]).unwrap();
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0], &[4.0], &[5.0]]).unwrap();
        let t = TuckerDecomp::new(core, vec![a, b]).unwrap();
        let x = t.reconstruct().unwrap();
        assert_eq!(x.dims(), &[2, 3]);
        assert_eq!(x.get(&[0, 0]), 6.0);
        assert_eq!(x.get(&[1, 2]), 20.0);
    }

    #[test]
    fn relative_error_zero_reference() {
        let core = DenseTensor::zeros(&[1, 1]);
        let t = TuckerDecomp::new(core, vec![Matrix::zeros(2, 1), Matrix::zeros(2, 1)]).unwrap();
        let zero_ref = DenseTensor::zeros(&[2, 2]);
        assert_eq!(t.relative_error(&zero_ref).unwrap(), 0.0);
    }

    #[test]
    fn cell_matches_full_reconstruction() {
        let core = DenseTensor::from_fn(&[2, 2], |i| (i[0] * 2 + i[1] + 1) as f64);
        let a = Matrix::from_fn(4, 2, |i, j| ((i + j) as f64 * 0.7).sin());
        let b = Matrix::from_fn(3, 2, |i, j| ((i * 2 + j) as f64 * 0.3).cos());
        let t = TuckerDecomp::new(core, vec![a, b]).unwrap();
        let full = t.reconstruct().unwrap();
        for i in 0..4 {
            for j in 0..3 {
                let direct = t.cell(&[i, j]).unwrap();
                assert!(
                    (direct - full.get(&[i, j])).abs() < 1e-12,
                    "cell ({i},{j}) mismatch"
                );
            }
        }
    }

    #[test]
    fn cell_validates_index() {
        let core = DenseTensor::zeros(&[1, 1]);
        let t = TuckerDecomp::new(core, vec![Matrix::zeros(2, 1), Matrix::zeros(2, 1)]).unwrap();
        assert!(t.cell(&[0]).is_err());
        assert!(t.cell(&[2, 0]).is_err());
        assert_eq!(t.cell(&[1, 1]).unwrap(), 0.0);
    }

    #[test]
    fn cell_evaluator_matches_cell_bitwise() {
        // A core with an exact zero exercises the nonzero-term filter.
        let core = DenseTensor::from_fn(&[2, 2], |i| {
            if i == [1, 0] {
                0.0
            } else {
                (i[0] * 2 + i[1] + 1) as f64
            }
        });
        let a = Matrix::from_fn(4, 2, |i, j| ((i + j) as f64 * 0.7).sin());
        let b = Matrix::from_fn(3, 2, |i, j| ((i * 2 + j) as f64 * 0.3).cos());
        let t = TuckerDecomp::new(core, vec![a, b]).unwrap();
        let eval = CellEvaluator::new(t.clone());
        assert_eq!(eval.num_terms(), 3);
        assert_eq!(eval.output_dims(), &[4, 3]);
        for i in 0..4 {
            for j in 0..3 {
                let direct = t.cell(&[i, j]).unwrap();
                let fast = eval.cell(&[i, j]).unwrap();
                assert_eq!(direct.to_bits(), fast.to_bits(), "cell ({i},{j})");
            }
        }
        // Validation carries over unchanged.
        assert!(matches!(
            eval.cell(&[0]),
            Err(TensorError::WrongNumberOfRanks { .. })
        ));
        assert!(matches!(
            eval.cell(&[4, 0]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn output_dims_and_ranks_follow_factors() {
        let core = DenseTensor::zeros(&[2, 2]);
        let t = TuckerDecomp::new(core, vec![Matrix::zeros(5, 2), Matrix::zeros(6, 2)]).unwrap();
        assert_eq!(t.output_dims(), vec![5, 6]);
        assert_eq!(t.ranks(), &[2, 2]);
    }
}
