//! Ensemble construction: from a dynamical system and a sampling plan to
//! ground-truth dense tensors and sampled sparse ensemble tensors.
//!
//! Tensor layout (Section III-D of the paper, plus the time mode of
//! Section VII-B): the ensemble tensor has one mode per simulation
//! parameter, in the order reported by
//! [`EnsembleSystem::param_names`], followed by a final **time** mode.
//! Cell `(p₁, …, p_N, k)` holds the Euclidean distance between the state of
//! the simulation run with parameter indices `(p₁, …, p_N)` and the state
//! of the *observed* reference system, both at time stamp `k + 1` of the
//! [`crate::TimeGrid`].

use crate::integrator::Trajectory;
use crate::space::{ParameterSpace, TimeGrid};
use m2td_tensor::{DenseTensor, Shape, SparseTensor, TensorError};
use std::collections::HashMap;
use std::fmt;

/// Errors produced while building ensembles.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The parameter space does not match the system's parameter count.
    ParamCountMismatch {
        /// What the system expects.
        expected: usize,
        /// What the space provides.
        got: usize,
    },
    /// A plan index was outside the ensemble tensor.
    Tensor(TensorError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ParamCountMismatch { expected, got } => write!(
                f,
                "system expects {expected} parameters but the space has {got}"
            ),
            SimError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for SimError {
    fn from(e: TensorError) -> Self {
        SimError::Tensor(e)
    }
}

/// A simulated complex system, as seen by the ensemble layer: named
/// parameters, default grids, and a map from one parameter combination to a
/// trajectory.
///
/// `Sync` is a supertrait so the pipeline can build the two sub-ensemble
/// tensors concurrently on the `m2td-par` pool; implementors are expected
/// to be stateless descriptions of the dynamics (all in-tree systems are
/// plain value structs).
pub trait EnsembleSystem: Sync {
    /// Short system identifier (used in reports and bench output).
    fn name(&self) -> &'static str;

    /// Names of the simulation parameters, in tensor-mode order.
    fn param_names(&self) -> Vec<&'static str>;

    /// A sensible default [`ParameterSpace`] at the given per-axis
    /// resolution.
    fn default_space(&self, resolution: usize) -> ParameterSpace;

    /// Runs one simulation.
    fn simulate(&self, params: &[f64], grid: &TimeGrid) -> Trajectory;
}

/// Builds ensemble tensors for one `(system, space, time grid)` triple.
///
/// The *observed system* defaults to the simulation at the middle of every
/// parameter axis; [`EnsembleBuilder::with_observed_indices`] overrides it.
/// Trajectories are cached per parameter combination, and the number of
/// distinct simulations actually run is tracked so experiment harnesses can
/// report the paper's simulation-budget accounting.
pub struct EnsembleBuilder<'a, S: EnsembleSystem + ?Sized> {
    system: &'a S,
    space: &'a ParameterSpace,
    grid: &'a TimeGrid,
    observed: Trajectory,
    /// Standard deviation of additive Gaussian measurement noise applied
    /// to *sampled* cell values (never to the ground truth).
    noise_sigma: f64,
    noise_seed: u64,
}

impl<'a, S: EnsembleSystem + ?Sized> EnsembleBuilder<'a, S> {
    /// Creates a builder; the observed reference system is simulated at the
    /// default (middle) parameter values.
    pub fn new(system: &'a S, space: &'a ParameterSpace, grid: &'a TimeGrid) -> Self {
        let observed = system.simulate(&space.default_values(), grid);
        Self {
            system,
            space,
            grid,
            observed,
            noise_sigma: 0.0,
            noise_seed: 0,
        }
    }

    /// Enables additive Gaussian measurement noise with standard deviation
    /// `sigma` on every sampled cell (deterministic per cell given the
    /// seed). Models imperfect observations of the simulated states; the
    /// ground-truth tensor remains noise-free, so accuracy measures how
    /// well a strategy recovers the *true* system from noisy samples.
    pub fn with_noise(mut self, sigma: f64, seed: u64) -> Self {
        self.noise_sigma = sigma;
        self.noise_seed = seed;
        self
    }

    /// Replaces the observed reference system with the simulation at the
    /// given parameter indices.
    ///
    /// # Errors
    ///
    /// * [`SimError::ParamCountMismatch`] if `indices` does not have one
    ///   entry per parameter axis.
    /// * [`SimError::Tensor`] wrapping [`TensorError::IndexOutOfBounds`] if
    ///   an index is not below its axis's resolution.
    pub fn with_observed_indices(mut self, indices: &[usize]) -> Result<Self, SimError> {
        if indices.len() != self.space.num_params() {
            return Err(SimError::ParamCountMismatch {
                expected: self.space.num_params(),
                got: indices.len(),
            });
        }
        Shape::new(&self.space.resolutions()).check_index(indices)?;
        let params = self.space.values_at(indices);
        self.observed = self.system.simulate(&params, self.grid);
        Ok(self)
    }

    /// The underlying parameter space.
    pub fn space(&self) -> &ParameterSpace {
        self.space
    }

    /// The time grid.
    pub fn grid(&self) -> &TimeGrid {
        self.grid
    }

    /// The full ensemble-tensor mode extents: parameter resolutions
    /// followed by the time-mode extent.
    pub fn tensor_dims(&self) -> Vec<usize> {
        let mut dims = self.space.resolutions();
        dims.push(self.grid.steps);
        dims
    }

    /// Simulates the trajectory for one parameter-index combination.
    pub fn trajectory(&self, param_indices: &[usize]) -> Trajectory {
        let params = self.space.values_at(param_indices);
        self.system.simulate(&params, self.grid)
    }

    /// Ensemble cell value: distance between the simulated and observed
    /// states at time stamp `t_idx + 1` (stamp 0 is the initial state).
    fn cell_value(&self, traj: &Trajectory, t_idx: usize) -> f64 {
        traj.state_distance(&self.observed, t_idx + 1)
    }

    /// Materializes the **full** ground-truth tensor `Y` (every possible
    /// simulation). Exponential in the number of parameters — intended for
    /// the scaled-down resolutions of the reproduction, where it provides
    /// the accuracy denominator of Section VII-D.
    pub fn ground_truth(&self) -> Result<DenseTensor, SimError> {
        let dims = self.tensor_dims();
        let mut out = DenseTensor::zeros(&dims);
        let param_shape = Shape::new(&self.space.resolutions());
        let t_steps = self.grid.steps;

        let n_configs = param_shape.num_elements();
        let mut full_idx = vec![0usize; dims.len()];
        for lin in 0..n_configs {
            let p_idx = param_shape.multi_index(lin);
            let traj = self.trajectory(&p_idx);
            full_idx[..p_idx.len()].copy_from_slice(&p_idx);
            for t in 0..t_steps {
                full_idx[p_idx.len()] = t;
                out.set(&full_idx, self.cell_value(&traj, t));
            }
        }
        Ok(out)
    }

    /// Builds a sparse ensemble tensor from a plan of full-tensor
    /// multi-indices (parameter indices + time index). Cells sharing a
    /// parameter combination reuse a single simulation run.
    ///
    /// Returns the tensor together with the number of **distinct
    /// simulations** executed (the paper's budget unit).
    pub fn build_sparse(&self, plan: &[Vec<usize>]) -> Result<(SparseTensor, usize), SimError> {
        let dims = self.tensor_dims();
        let shape = Shape::new(&dims);
        let n_params = self.space.num_params();

        // Group requested time indices by parameter combination.
        let param_shape = Shape::new(&self.space.resolutions());
        let mut by_config: HashMap<u64, Vec<usize>> = HashMap::new();
        for idx in plan {
            shape.check_index(idx)?;
            let p_lin = param_shape.linear_index(&idx[..n_params]) as u64;
            by_config.entry(p_lin).or_default().push(idx[n_params]);
        }

        let mut entries: Vec<(u64, f64)> = Vec::with_capacity(plan.len());
        let mut full_idx = vec![0usize; dims.len()];
        for (&p_lin, t_idxs) in &by_config {
            let p_idx = param_shape.multi_index(p_lin as usize);
            let traj = self.trajectory(&p_idx);
            full_idx[..n_params].copy_from_slice(&p_idx);
            let mut seen = t_idxs.clone();
            seen.sort_unstable();
            seen.dedup();
            for &t in &seen {
                full_idx[n_params] = t;
                let lin = shape.linear_index(&full_idx) as u64;
                let mut v = self.cell_value(&traj, t);
                if self.noise_sigma > 0.0 {
                    v += self.noise_sigma * gaussian_for_cell(self.noise_seed, lin);
                }
                entries.push((lin, v));
            }
        }
        entries.sort_unstable_by_key(|&(l, _)| l);
        let (indices, values): (Vec<u64>, Vec<f64>) = entries.into_iter().unzip();
        let tensor = SparseTensor::from_sorted_linear(&dims, indices, values)?;
        Ok((tensor, by_config.len()))
    }
}

/// A deterministic standard-normal draw keyed by `(seed, cell)`: two
/// uniform variates from a splitmix-style hash, combined with Box–Muller.
/// Per-cell determinism keeps noisy ensembles reproducible regardless of
/// the order in which cells are simulated.
fn gaussian_for_cell(seed: u64, cell: u64) -> f64 {
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    let a = splitmix(seed ^ cell.wrapping_mul(0x2545f4914f6cdd1d));
    let b = splitmix(a);
    // Map to (0, 1]; avoid ln(0).
    let u1 = ((a >> 11) as f64 + 1.0) / (u64::MAX >> 11) as f64;
    let u2 = (b >> 11) as f64 / (u64::MAX >> 11) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{Lorenz, Sir};

    fn setup() -> (Sir, ParameterSpace, TimeGrid) {
        let sys = Sir;
        let space = sys.default_space(3);
        let grid = TimeGrid::new(50.0, 4, 10);
        (sys, space, grid)
    }

    #[test]
    fn tensor_dims_are_params_plus_time() {
        let (sys, space, grid) = setup();
        let b = EnsembleBuilder::new(&sys, &space, &grid);
        assert_eq!(b.tensor_dims(), vec![3, 3, 3, 3, 4]);
    }

    #[test]
    fn ground_truth_has_zero_fiber_at_observed_config() {
        let (sys, space, grid) = setup();
        let b = EnsembleBuilder::new(&sys, &space, &grid);
        let y = b.ground_truth().unwrap();
        // At the observed configuration the distance to itself is 0.
        let mut idx = space.default_indices();
        idx.push(0);
        for t in 0..grid.steps {
            idx[4] = t;
            assert_eq!(y.get(&idx), 0.0);
        }
        // Somewhere else it must be nonzero.
        assert!(y.frobenius_norm() > 0.0);
    }

    #[test]
    fn sparse_matches_ground_truth_cells() {
        let (sys, space, grid) = setup();
        let b = EnsembleBuilder::new(&sys, &space, &grid);
        let y = b.ground_truth().unwrap();
        let plan = vec![
            vec![0, 1, 2, 0, 1],
            vec![2, 2, 2, 2, 3],
            vec![0, 0, 0, 0, 0],
        ];
        let (x, sims) = b.build_sparse(&plan).unwrap();
        assert_eq!(x.nnz(), 3);
        assert_eq!(sims, 3);
        for idx in &plan {
            assert!(
                (x.get(idx).unwrap() - y.get(idx)).abs() < 1e-12,
                "cell {idx:?} disagrees with ground truth"
            );
        }
    }

    #[test]
    fn shared_configs_count_one_simulation() {
        let (sys, space, grid) = setup();
        let b = EnsembleBuilder::new(&sys, &space, &grid);
        // Same parameter combo, all time stamps.
        let plan: Vec<Vec<usize>> = (0..grid.steps).map(|t| vec![1, 1, 1, 1, t]).collect();
        let (x, sims) = b.build_sparse(&plan).unwrap();
        assert_eq!(sims, 1, "one simulation should cover the whole time fiber");
        assert_eq!(x.nnz(), grid.steps);
    }

    #[test]
    fn duplicate_plan_entries_collapse() {
        let (sys, space, grid) = setup();
        let b = EnsembleBuilder::new(&sys, &space, &grid);
        let plan = vec![vec![0, 0, 0, 0, 1], vec![0, 0, 0, 0, 1]];
        let (x, sims) = b.build_sparse(&plan).unwrap();
        assert_eq!(x.nnz(), 1);
        assert_eq!(sims, 1);
    }

    #[test]
    fn invalid_plan_rejected() {
        let (sys, space, grid) = setup();
        let b = EnsembleBuilder::new(&sys, &space, &grid);
        assert!(b.build_sparse(&[vec![5, 0, 0, 0, 0]]).is_err());
        assert!(b.build_sparse(&[vec![0, 0, 0, 0]]).is_err());
    }

    #[test]
    fn noise_perturbs_sampled_cells_not_ground_truth() {
        let (sys, space, grid) = setup();
        let clean = EnsembleBuilder::new(&sys, &space, &grid);
        let noisy = EnsembleBuilder::new(&sys, &space, &grid).with_noise(0.1, 7);
        let plan = vec![vec![0, 1, 2, 0, 1], vec![2, 2, 2, 2, 3]];
        let (xc, _) = clean.build_sparse(&plan).unwrap();
        let (xn, _) = noisy.build_sparse(&plan).unwrap();
        let mut any_diff = false;
        for idx in &plan {
            if (xc.get(idx).unwrap() - xn.get(idx).unwrap()).abs() > 1e-12 {
                any_diff = true;
            }
        }
        assert!(any_diff, "noise had no effect");
        // Ground truth is unaffected by the noise setting.
        let yc = clean.ground_truth().unwrap();
        let yn = noisy.ground_truth().unwrap();
        assert_eq!(yc, yn);
    }

    #[test]
    fn noise_is_deterministic_per_cell() {
        let (sys, space, grid) = setup();
        let plan = vec![vec![1, 1, 1, 1, 0], vec![0, 0, 0, 0, 2]];
        let a = EnsembleBuilder::new(&sys, &space, &grid).with_noise(0.2, 3);
        let b = EnsembleBuilder::new(&sys, &space, &grid).with_noise(0.2, 3);
        let (xa, _) = a.build_sparse(&plan).unwrap();
        let (xb, _) = b.build_sparse(&plan).unwrap();
        assert_eq!(xa, xb);
        // Different seeds change the noise.
        let c = EnsembleBuilder::new(&sys, &space, &grid).with_noise(0.2, 4);
        let (xc, _) = c.build_sparse(&plan).unwrap();
        assert_ne!(xa, xc);
    }

    #[test]
    fn gaussian_helper_has_sane_moments() {
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|i| gaussian_for_cell(11, i)).collect();
        let mean: f64 = draws.iter().sum::<f64>() / n as f64;
        let var: f64 = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn observed_override_changes_values() {
        let sys = Lorenz::default();
        let space = sys.default_space(3);
        let grid = TimeGrid::new(1.0, 3, 20);
        let default_b = EnsembleBuilder::new(&sys, &space, &grid);
        let override_b = EnsembleBuilder::new(&sys, &space, &grid)
            .with_observed_indices(&[0, 0, 0, 0])
            .unwrap();
        let cell = vec![2, 2, 2, 2, 2];
        let (xd, _) = default_b.build_sparse(std::slice::from_ref(&cell)).unwrap();
        let (xo, _) = override_b
            .build_sparse(std::slice::from_ref(&cell))
            .unwrap();
        assert_ne!(xd.get(&cell), xo.get(&cell));
        // Wrong index length errors.
        assert!(EnsembleBuilder::new(&sys, &space, &grid)
            .with_observed_indices(&[0, 0])
            .is_err());
    }

    #[test]
    fn observed_index_out_of_range_is_an_error_not_a_panic() {
        let (sys, space, grid) = setup();
        for bad in [[0, 0, 3, 0], [0, 0, 0, usize::MAX]] {
            match EnsembleBuilder::new(&sys, &space, &grid).with_observed_indices(&bad) {
                Err(SimError::Tensor(TensorError::IndexOutOfBounds { index, shape })) => {
                    assert_eq!(index, bad.to_vec());
                    assert_eq!(shape, vec![3, 3, 3, 3]);
                }
                Err(other) => panic!("expected IndexOutOfBounds, got {other}"),
                Ok(_) => panic!("index {bad:?} accepted"),
            }
        }
        // The last in-range index is still accepted.
        assert!(EnsembleBuilder::new(&sys, &space, &grid)
            .with_observed_indices(&[2, 2, 2, 2])
            .is_ok());
    }
}
