//! End-to-end experiment pipeline: simulate → sample → (stitch) →
//! decompose → score.
//!
//! A [`Workbench`] fixes a dynamical system, a parameter resolution, a time
//! grid and a target rank, materializes the ground-truth tensor `Y` once,
//! and then runs any number of strategies against it:
//!
//! * [`Workbench::run_conventional`] — the Section IV baselines: sample the
//!   full space with a budget, HOSVD the sparse ensemble, reconstruct,
//!   score.
//! * [`Workbench::run_m2td`] — the paper's pipeline: PF-partition,
//!   sample the two sub-spaces, stitch, M2TD, reconstruct, score.
//! * [`Workbench::run_joined_hosvd`] — ablation: stitch but decompose the
//!   join tensor directly with sparse HOSVD instead of M2TD.
//!
//! Accuracy is the paper's Section VII-D metric
//! `1 − ‖X̃ − Y‖_F / ‖Y‖_F`, with reconstructions permuted from join order
//! back to the natural mode order before comparison.

use crate::error::CoreError;
use crate::m2td::{m2td_decompose, M2tdOptions, M2tdTimings};
use crate::Result;
use m2td_fault::FaultPlan;
use m2td_sampling::{PfPartition, SamplingScheme, SubSystem};
use m2td_sim::{EnsembleBuilder, EnsembleSystem, ParameterSpace, TimeGrid};
use m2td_stitch::StitchReport;
use m2td_tensor::{hosvd_sparse, DenseTensor, Shape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// Static configuration of a workbench.
#[derive(Debug, Clone, Copy)]
pub struct WorkbenchConfig {
    /// Values per parameter axis (the paper's "resolution", scaled down).
    pub resolution: usize,
    /// Time-mode extent.
    pub time_steps: usize,
    /// Total simulated time.
    pub t_end: f64,
    /// RK4 substeps between recorded stamps.
    pub substeps: usize,
    /// Uniform target rank (clipped per mode to the mode extent).
    pub rank: usize,
    /// RNG seed for all sampling decisions.
    pub seed: u64,
    /// Standard deviation of additive Gaussian measurement noise applied
    /// to sampled cells (0 = clean observations; the ground truth is
    /// always noise-free).
    pub noise_sigma: f64,
}

impl Default for WorkbenchConfig {
    fn default() -> Self {
        Self {
            resolution: 8,
            time_steps: 8,
            t_end: 2.0,
            substeps: 20,
            rank: 4,
            seed: 17,
            noise_sigma: 0.0,
        }
    }
}

/// Failure model for the simulation stage of a degraded-mode run
/// ([`Workbench::run_m2td_degraded`]): which runs fail (deterministic,
/// seeded), how often each is retried, and how much missingness the
/// decomposition tolerates before giving up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFaultPolicy {
    /// Seeded failure schedule; only its simulation stream is consulted.
    pub plan: FaultPlan,
    /// Attempts per simulation run before it is abandoned.
    pub max_attempts: u32,
    /// Minimum fraction of planned cells that must survive for the
    /// decomposition to proceed; below it the run aborts with
    /// [`CoreError::InsufficientCoverage`].
    pub min_coverage: f64,
}

impl SimFaultPolicy {
    /// A policy failing each simulation attempt with probability
    /// `fail_rate`, retrying up to 3 attempts, tolerating 50% cell loss.
    pub fn new(seed: u64, fail_rate: f64) -> Self {
        Self {
            plan: FaultPlan::sim_failures(seed, fail_rate),
            max_attempts: 3,
            min_coverage: 0.5,
        }
    }

    /// Sets the coverage floor.
    pub fn with_min_coverage(mut self, min_coverage: f64) -> Self {
        self.min_coverage = min_coverage;
        self
    }

    /// Sets the per-run attempt budget.
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Poisons a deterministic fraction of the simulated sub-ensemble
    /// cells with NaN (corrupted telemetry / sensor dropout). Without an
    /// installed `m2td-guard` the NaNs propagate silently; with one they
    /// are caught at the phase-1 boundary.
    pub fn with_nan_cell_rate(mut self, rate: f64) -> Self {
        self.plan = self.plan.with_nan_cell_rate(rate);
        self
    }
}

/// Degraded-mode accounting attached to a [`RunReport`] when the run
/// executed under a [`SimFaultPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedStats {
    /// Simulation runs that failed on every allowed attempt; their cells
    /// became missing values.
    pub failed_sims: usize,
    /// Extra simulation attempts spent on eventually-successful retries.
    pub sim_retries: usize,
    /// Cells the sampling plan called for before failures.
    pub planned_cells: usize,
    /// Fraction of planned cells that survived (`cells / planned_cells`).
    pub coverage: f64,
}

impl DegradedStats {
    /// True if any run was lost — i.e. the reported accuracy is a
    /// degraded-mode accuracy over a thinner-than-planned ensemble.
    pub fn is_degraded(&self) -> bool {
        self.failed_sims > 0
    }
}

/// The outcome of one strategy run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Strategy label (e.g. `"M2TD-SELECT"`, `"random"`).
    pub method: String,
    /// The paper's accuracy metric against the ground truth.
    pub accuracy: f64,
    /// Wall-clock decomposition time (seconds).
    pub decompose_secs: f64,
    /// Wall-clock simulation time (seconds).
    pub simulate_secs: f64,
    /// Number of ensemble cells simulated (the budget unit).
    pub cells: usize,
    /// Number of distinct simulation runs executed.
    pub distinct_sims: usize,
    /// Density of the sampled (or joined) tensor that was decomposed.
    pub density: f64,
    /// Phase timings, for M2TD runs.
    pub timings: Option<M2tdTimings>,
    /// Stitch statistics, for M2TD / joined-HOSVD runs.
    pub stitch: Option<StitchReport>,
    /// Degraded-mode accounting, for runs executed under a
    /// [`SimFaultPolicy`].
    pub degraded: Option<DegradedStats>,
    /// Telemetry snapshot (span aggregates, counters, gauges) taken when
    /// the report was built. Present iff an `m2td-obs` subscriber was
    /// installed; covers everything recorded since the last
    /// `m2td_obs::reset()`, not just this run.
    pub metrics: Option<m2td_obs::MetricsSnapshot>,
    /// Outcome of the guard layer's end-to-end acceptance check (relative
    /// reconstruction error over the observed join cells vs the configured
    /// budget). `None` unless `m2td-guard` is installed with an error
    /// budget; only M2TD runs compute it.
    pub guard: Option<m2td_guard::GuardVerdict>,
}

impl RunReport {
    /// Whether the run is healthy: either no acceptance check ran (no
    /// guard installed, or no budget configured) or the check passed.
    pub fn is_healthy(&self) -> bool {
        self.guard.is_none_or(|v| v.healthy)
    }
}

/// Output of [`Workbench::build_subsystems`]: the two sub-tensors plus
/// sampling/failure accounting.
struct SubsystemBuild {
    x1: m2td_tensor::SparseTensor,
    x2: m2td_tensor::SparseTensor,
    cells: usize,
    distinct_sims: usize,
    simulate_secs: f64,
    degraded: Option<DegradedStats>,
}

/// Output of [`Workbench::build_multi`]: one sub-tensor per free group
/// plus sampling accounting.
struct MultiBuild {
    subs: Vec<m2td_tensor::SparseTensor>,
    partition: m2td_sampling::MultiPartition,
    cells: usize,
    distinct_sims: usize,
    simulate_secs: f64,
}

/// Replaces each cell selected by the fault plan's NaN stream with NaN.
/// Rebuilds the tensor from its (already sorted) linear storage, so the
/// untouched cells keep their exact bit patterns.
fn poison_cells(
    x: &m2td_tensor::SparseTensor,
    plan: &FaultPlan,
    subsystem: u64,
) -> Result<m2td_tensor::SparseTensor> {
    let mut indices = Vec::with_capacity(x.nnz());
    let mut values = Vec::with_capacity(x.nnz());
    for (l, v) in x.iter_linear() {
        indices.push(l);
        values.push(if plan.cell_goes_nan(subsystem, l) {
            f64::NAN
        } else {
            v
        });
    }
    Ok(m2td_tensor::SparseTensor::from_sorted_linear(
        x.dims(),
        indices,
        values,
    )?)
}

/// A fixed `(system, space, grid, rank)` experiment context with the
/// ground-truth tensor materialized once.
pub struct Workbench<'a> {
    system: &'a dyn EnsembleSystem,
    cfg: WorkbenchConfig,
    space: ParameterSpace,
    grid: TimeGrid,
    ground_truth: DenseTensor,
    /// Frobenius norm of the ground truth, the accuracy denominator.
    truth_norm: f64,
    full_dims: Vec<usize>,
    defaults: Vec<usize>,
}

impl<'a> Workbench<'a> {
    /// Builds the workbench, simulating the complete ground-truth tensor.
    pub fn new(system: &'a dyn EnsembleSystem, cfg: WorkbenchConfig) -> Result<Self> {
        let space = system.default_space(cfg.resolution);
        let grid = TimeGrid::new(cfg.t_end, cfg.time_steps, cfg.substeps);
        let builder = EnsembleBuilder::new(system, &space, &grid);
        let ground_truth = builder.ground_truth()?;
        let full_dims = builder.tensor_dims();
        let mut defaults = space.default_indices();
        defaults.push(cfg.time_steps / 2);
        Ok(Self {
            system,
            cfg,
            space,
            grid,
            truth_norm: ground_truth.frobenius_norm(),
            ground_truth,
            full_dims,
            defaults,
        })
    }

    /// The ground-truth tensor `Y`.
    pub fn ground_truth(&self) -> &DenseTensor {
        &self.ground_truth
    }

    /// An ensemble builder honoring the configured measurement noise.
    fn builder(&self) -> EnsembleBuilder<'_, dyn EnsembleSystem + 'a> {
        let b = EnsembleBuilder::new(self.system, &self.space, &self.grid);
        if self.cfg.noise_sigma > 0.0 {
            b.with_noise(self.cfg.noise_sigma, self.cfg.seed.wrapping_add(77))
        } else {
            b
        }
    }

    /// Returns the same workbench with a different target rank — the
    /// (expensive) ground truth is reused. Used by rank sweeps (Table II).
    pub fn with_rank(mut self, rank: usize) -> Self {
        self.cfg.rank = rank;
        self
    }

    /// Returns the same workbench with a different measurement-noise
    /// level — the ground truth is noise-free, so it is reused. Used by
    /// noise sweeps (`ablation_noise`).
    pub fn with_noise_sigma(mut self, noise_sigma: f64) -> Self {
        self.cfg.noise_sigma = noise_sigma;
        self
    }

    /// The workbench configuration.
    pub fn config(&self) -> &WorkbenchConfig {
        &self.cfg
    }

    /// Public access to the PF-partitioned sub-tensors (used by the
    /// D-M2TD harness, which drives `m2td_dist::d_m2td` directly).
    /// Returns `(x1, x2, partition)`.
    pub fn subsystems(
        &self,
        pivot_mode: usize,
        p_frac: f64,
        e_frac: f64,
        cell_frac: f64,
    ) -> Result<(
        m2td_tensor::SparseTensor,
        m2td_tensor::SparseTensor,
        PfPartition,
    )> {
        let partition = PfPartition::balanced(self.n_modes(), pivot_mode)?;
        let build = self.build_subsystems(&partition, p_frac, e_frac, cell_frac, None)?;
        Ok((build.x1, build.x2, partition))
    }

    /// Mode extents of the full ensemble tensor (parameters + time).
    pub fn full_dims(&self) -> &[usize] {
        &self.full_dims
    }

    /// Number of tensor modes (parameters + time).
    pub fn n_modes(&self) -> usize {
        self.full_dims.len()
    }

    /// Human-readable mode names (parameter names + `"t"`).
    pub fn mode_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .system
            .param_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        names.push("t".to_string());
        names
    }

    /// The per-mode ranks in natural order: `min(rank, I_n)`.
    pub fn natural_ranks(&self) -> Vec<usize> {
        self.full_dims
            .iter()
            .map(|&d| self.cfg.rank.min(d))
            .collect()
    }

    /// The cell budget an M2TD run with these densities consumes
    /// (`2 · P · E`), used to give conventional baselines budget parity.
    pub fn m2td_budget(&self, pivot_mode: usize, p_frac: f64, e_frac: f64) -> Result<usize> {
        let partition = PfPartition::balanced(self.n_modes(), pivot_mode)?;
        let (p, e1) = partition.cell_counts(&self.full_dims, SubSystem::First, p_frac, e_frac)?;
        let (_, e2) = partition.cell_counts(&self.full_dims, SubSystem::Second, p_frac, e_frac)?;
        Ok(p * e1 + p * e2)
    }

    /// The paper's accuracy metric for a reconstruction in natural mode
    /// order.
    pub fn accuracy(&self, recon: &DenseTensor) -> Result<f64> {
        let dist = recon.distance(&self.ground_truth)?;
        if self.truth_norm == 0.0 {
            return Ok(if dist == 0.0 { 1.0 } else { 0.0 });
        }
        Ok(1.0 - dist / self.truth_norm)
    }

    /// Accuracy of a Tucker decomposition whose modes are in the *join
    /// order* of `partition` (as produced by `m2td_decompose` or
    /// `m2td_dist::d_m2td`).
    pub fn accuracy_join_order(
        &self,
        tucker: &m2td_tensor::TuckerDecomp,
        partition: &PfPartition,
    ) -> Result<f64> {
        let recon_join = tucker.reconstruct()?;
        let recon = recon_join.permute_modes(&partition.perm_join_to_natural())?;
        self.accuracy(&recon)
    }

    /// Runs a conventional baseline: sample `budget` cells with `scheme`,
    /// HOSVD the sparse ensemble, reconstruct, score.
    pub fn run_conventional(
        &self,
        scheme: &dyn SamplingScheme,
        budget: usize,
    ) -> Result<RunReport> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let plan = scheme.plan(&self.full_dims, budget, &mut rng)?;
        let builder = self.builder();

        let t_sim = Instant::now();
        let sim_span = m2td_obs::span!("pipeline.simulate");
        let (sparse, distinct_sims) = builder.build_sparse(&plan)?;
        drop(sim_span);
        let simulate_secs = t_sim.elapsed().as_secs_f64();

        let t_dec = Instant::now();
        let tucker = hosvd_sparse(&sparse, &self.natural_ranks())?;
        let recon = tucker.reconstruct()?;
        let decompose_secs = t_dec.elapsed().as_secs_f64();
        m2td_obs::gauge_set("threads.effective", m2td_par::max_threads() as f64);

        Ok(RunReport {
            method: scheme.name().to_string(),
            accuracy: self.accuracy(&recon)?,
            decompose_secs,
            simulate_secs,
            cells: plan.len(),
            distinct_sims,
            density: sparse.density(),
            timings: None,
            stitch: None,
            degraded: None,
            metrics: m2td_obs::snapshot_if_installed(),
            guard: None,
        })
    }

    /// Drops every plan cell belonging to a simulation run the fault plan
    /// kills on all allowed attempts. Returns the surviving plan plus
    /// `(failed_runs, retries_spent)`.
    fn filter_failed_runs(
        &self,
        plan: Vec<Vec<usize>>,
        subsystem: u64,
        faults: &SimFaultPolicy,
    ) -> (Vec<Vec<usize>>, usize, usize) {
        let n_params = self.full_dims.len() - 1;
        let param_shape = Shape::new(&self.full_dims[..n_params]);
        let mut fate: HashMap<u64, bool> = HashMap::new();
        let mut failed = 0usize;
        let mut retries = 0usize;
        let kept = plan
            .into_iter()
            .filter(|cell| {
                // One fault draw per distinct simulation run (= parameter
                // config), with the subsystem folded in so the two
                // sub-ensembles draw independently.
                let key = (param_shape.linear_index(&cell[..n_params]) as u64)
                    .wrapping_mul(2)
                    .wrapping_add(subsystem);
                *fate.entry(key).or_insert_with(|| {
                    let (ok, attempts) = faults.plan.sim_survives(key, faults.max_attempts);
                    retries += attempts.saturating_sub(1) as usize;
                    if !ok {
                        failed += 1;
                    }
                    ok
                })
            })
            .collect();
        (kept, failed, retries)
    }

    /// Builds the two PF-partitioned sub-tensors for the given pivot mode
    /// and densities, optionally dropping runs killed by a
    /// [`SimFaultPolicy`].
    fn build_subsystems(
        &self,
        partition: &PfPartition,
        p_frac: f64,
        e_frac: f64,
        cell_frac: f64,
        faults: Option<&SimFaultPolicy>,
    ) -> Result<SubsystemBuild> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(1));
        let builder = self.builder();
        let mut plan1 = partition.plan_subsystem(
            &self.full_dims,
            &self.defaults,
            SubSystem::First,
            p_frac,
            e_frac,
            &mut rng,
        )?;
        let mut plan2 = partition.plan_subsystem(
            &self.full_dims,
            &self.defaults,
            SubSystem::Second,
            p_frac,
            e_frac,
            &mut rng,
        )?;
        // Budget reduction à la Table V: keep a random fraction of the
        // planned cells, introducing genuine missingness inside the
        // selected sub-lattices (this is what zero-join compensates for).
        if !(cell_frac > 0.0 && cell_frac <= 1.0) {
            return Err(CoreError::InvalidInput {
                reason: format!("cell fraction {cell_frac} must lie in (0, 1]"),
            });
        }
        if cell_frac < 1.0 {
            use rand::seq::SliceRandom;
            for plan in [&mut plan1, &mut plan2] {
                plan.shuffle(&mut rng);
                let keep = ((plan.len() as f64 * cell_frac).ceil() as usize).max(1);
                plan.truncate(keep);
            }
        }
        let planned_cells = plan1.len() + plan2.len();

        // Degraded mode: failed simulation runs drop out of the plans and
        // become missing cells, as long as the coverage floor holds.
        let degraded = match faults {
            None => None,
            Some(policy) => {
                let (kept1, failed1, retries1) = self.filter_failed_runs(plan1, 1, policy);
                let (kept2, failed2, retries2) = self.filter_failed_runs(plan2, 2, policy);
                plan1 = kept1;
                plan2 = kept2;
                let survived = plan1.len() + plan2.len();
                let coverage = survived as f64 / planned_cells.max(1) as f64;
                if coverage < policy.min_coverage || plan1.is_empty() || plan2.is_empty() {
                    return Err(CoreError::InsufficientCoverage {
                        coverage,
                        required: policy.min_coverage,
                    });
                }
                let stats = DegradedStats {
                    failed_sims: failed1 + failed2,
                    sim_retries: retries1 + retries2,
                    planned_cells,
                    coverage,
                };
                m2td_obs::counter_add("sim.failed_runs", stats.failed_sims as u64);
                m2td_obs::counter_add("sim.retries", stats.sim_retries as u64);
                m2td_obs::gauge_set("sim.coverage", stats.coverage);
                Some(stats)
            }
        };
        let cells = plan1.len() + plan2.len();

        let t_sim = Instant::now();
        let sim_span = m2td_obs::span!("pipeline.simulate");
        // The two sub-ensembles are simulated independently, so run them
        // concurrently on the `m2td-par` pool (each build caches its own
        // trajectories; the per-plan outputs are unchanged).
        let (r1, r2) = m2td_par::join(
            || builder.build_sparse(&plan1),
            || builder.build_sparse(&plan2),
        );
        let (full1, sims1) = r1?;
        let (full2, sims2) = r2?;
        drop(sim_span);
        let simulate_secs = t_sim.elapsed().as_secs_f64();

        let mut x1 = partition.extract_sub_tensor(&full1, &self.defaults, SubSystem::First)?;
        let mut x2 = partition.extract_sub_tensor(&full2, &self.defaults, SubSystem::Second)?;
        // Chaos stream: poison a deterministic fraction of the simulated
        // cells with NaN, modeling corrupted observations entering the
        // sub-ensembles. The streams are keyed per sub-system so the two
        // tensors draw independently.
        if let Some(policy) = faults {
            if policy.plan.nan_cell_rate > 0.0 {
                x1 = poison_cells(&x1, &policy.plan, 1)?;
                x2 = poison_cells(&x2, &policy.plan, 2)?;
            }
        }
        Ok(SubsystemBuild {
            x1,
            x2,
            cells,
            distinct_sims: sims1 + sims2,
            simulate_secs,
            degraded,
        })
    }

    /// Runs the full M2TD pipeline for one pivot mode and strategy.
    pub fn run_m2td(
        &self,
        pivot_mode: usize,
        opts: M2tdOptions,
        p_frac: f64,
        e_frac: f64,
    ) -> Result<RunReport> {
        self.run_m2td_cells(pivot_mode, opts, p_frac, e_frac, 1.0)
    }

    /// As [`Self::run_m2td`], with an additional *cell fraction*: only a
    /// random `cell_frac` of the planned sub-ensemble cells are simulated
    /// (the paper's Table V budget reduction). With `cell_frac < 1`
    /// zero-join stitching meaningfully outperforms plain join.
    pub fn run_m2td_cells(
        &self,
        pivot_mode: usize,
        opts: M2tdOptions,
        p_frac: f64,
        e_frac: f64,
        cell_frac: f64,
    ) -> Result<RunReport> {
        let partition = PfPartition::balanced(self.n_modes(), pivot_mode)?;
        self.run_m2td_inner(&partition, opts, p_frac, e_frac, cell_frac, None)
    }

    /// As [`Self::run_m2td`] at full densities, over an explicit
    /// PF-partition instead of the balanced one around a single pivot —
    /// e.g. `k = 3` pivot modes (`ablation_pivot_k`).
    pub fn run_m2td_partition(
        &self,
        partition: &PfPartition,
        opts: M2tdOptions,
    ) -> Result<RunReport> {
        self.run_m2td_inner(partition, opts, 1.0, 1.0, 1.0, None)
    }

    /// As [`Self::run_m2td_cells`], but the simulation stage runs under a
    /// [`SimFaultPolicy`]: runs killed on every allowed attempt become
    /// missing cells, the decomposition proceeds as long as the policy's
    /// coverage floor holds (zero-join stitching absorbs the extra
    /// missingness), and the report's [`DegradedStats`] record what was
    /// lost. Below the floor the run aborts with
    /// [`CoreError::InsufficientCoverage`].
    pub fn run_m2td_degraded(
        &self,
        pivot_mode: usize,
        opts: M2tdOptions,
        p_frac: f64,
        e_frac: f64,
        cell_frac: f64,
        faults: &SimFaultPolicy,
    ) -> Result<RunReport> {
        let partition = PfPartition::balanced(self.n_modes(), pivot_mode)?;
        self.run_m2td_inner(&partition, opts, p_frac, e_frac, cell_frac, Some(faults))
    }

    fn run_m2td_inner(
        &self,
        partition: &PfPartition,
        opts: M2tdOptions,
        p_frac: f64,
        e_frac: f64,
        cell_frac: f64,
        faults: Option<&SimFaultPolicy>,
    ) -> Result<RunReport> {
        let build = self.build_subsystems(partition, p_frac, e_frac, cell_frac, faults)?;

        // Ranks in join order.
        let join_modes = partition.join_modes();
        let join_ranks: Vec<usize> = join_modes
            .iter()
            .map(|&m| self.cfg.rank.min(self.full_dims[m]))
            .collect();

        let t_dec = Instant::now();
        let decomp = m2td_decompose(&build.x1, &build.x2, partition.k(), &join_ranks, opts)?;
        let recon_join = decomp.tucker.reconstruct()?;
        let recon = recon_join.permute_modes(&partition.perm_join_to_natural())?;
        let decompose_secs = t_dec.elapsed().as_secs_f64();
        m2td_obs::gauge_set("threads.effective", m2td_par::max_threads() as f64);

        Ok(RunReport {
            method: opts.combine.name().to_string(),
            accuracy: self.accuracy(&recon)?,
            decompose_secs,
            simulate_secs: build.simulate_secs,
            cells: build.cells,
            distinct_sims: build.distinct_sims,
            density: decomp.stitch_report.join_density,
            timings: Some(decomp.timings),
            stitch: Some(decomp.stitch_report),
            degraded: build.degraded,
            metrics: m2td_obs::snapshot_if_installed(),
            guard: decomp.guard,
        })
    }

    /// Runs the **multi-way** M2TD pipeline (extension beyond the paper):
    /// the non-pivot modes are split into `num_groups` equal free groups,
    /// one sub-ensemble per group is sampled and all of them are stitched
    /// and decomposed with `m2td_decompose_multi`.
    ///
    /// `num_groups` must divide the number of non-pivot modes.
    pub fn run_m2td_multi(
        &self,
        pivot_mode: usize,
        num_groups: usize,
        opts: M2tdOptions,
        p_frac: f64,
        e_frac: f64,
    ) -> Result<RunReport> {
        let build = self.build_multi(pivot_mode, num_groups, p_frac, e_frac)?;
        let join_ranks: Vec<usize> = build
            .partition
            .join_modes()
            .iter()
            .map(|&m| self.cfg.rank.min(self.full_dims[m]))
            .collect();
        let sub_refs: Vec<&m2td_tensor::SparseTensor> = build.subs.iter().collect();
        let t_dec = Instant::now();
        let decomp =
            crate::m2td::m2td_decompose_multi(&sub_refs, build.partition.k(), &join_ranks, opts)?;
        let recon_join = decomp.tucker.reconstruct()?;
        let recon = recon_join.permute_modes(&build.partition.perm_join_to_natural())?;
        let decompose_secs = t_dec.elapsed().as_secs_f64();

        Ok(RunReport {
            method: format!("{}x{}", opts.combine.name(), num_groups),
            accuracy: self.accuracy(&recon)?,
            decompose_secs,
            simulate_secs: build.simulate_secs,
            cells: build.cells,
            distinct_sims: build.distinct_sims,
            density: decomp.stitch_report.join_density,
            timings: Some(decomp.timings),
            stitch: Some(decomp.stitch_report.clone()),
            degraded: None,
            metrics: m2td_obs::snapshot_if_installed(),
            guard: decomp.guard,
        })
    }

    /// Public access to the sub-tensors [`Self::run_m2td_multi`]
    /// decomposes, in group order, with their partition.
    pub fn multi_subsystems(
        &self,
        pivot_mode: usize,
        num_groups: usize,
        p_frac: f64,
        e_frac: f64,
    ) -> Result<(
        Vec<m2td_tensor::SparseTensor>,
        m2td_sampling::MultiPartition,
    )> {
        let build = self.build_multi(pivot_mode, num_groups, p_frac, e_frac)?;
        Ok((build.subs, build.partition))
    }

    /// Splits the non-pivot modes into `num_groups` equal free groups and
    /// samples one sub-ensemble per group.
    fn build_multi(
        &self,
        pivot_mode: usize,
        num_groups: usize,
        p_frac: f64,
        e_frac: f64,
    ) -> Result<MultiBuild> {
        use m2td_sampling::MultiPartition;
        let n = self.n_modes();
        if pivot_mode >= n {
            return Err(CoreError::InvalidInput {
                reason: format!("pivot mode {pivot_mode} out of range for {n} modes"),
            });
        }
        let rest: Vec<usize> = (0..n).filter(|&m| m != pivot_mode).collect();
        if num_groups == 0 || !rest.len().is_multiple_of(num_groups) {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "{num_groups} groups do not evenly divide {} free modes",
                    rest.len()
                ),
            });
        }
        let group_size = rest.len() / num_groups;
        let groups: Vec<Vec<usize>> = rest.chunks(group_size).map(|c| c.to_vec()).collect();
        let partition = MultiPartition::new(vec![pivot_mode], groups, n)?;

        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(2));
        let builder = self.builder();
        let mut subs = Vec::with_capacity(num_groups);
        let mut cells = 0usize;
        let mut distinct_sims = 0usize;
        let t_sim = Instant::now();
        for s in 0..num_groups {
            let plan = partition.plan_subsystem(
                &self.full_dims,
                &self.defaults,
                s,
                p_frac,
                e_frac,
                &mut rng,
            )?;
            cells += plan.len();
            let (full, sims) = builder.build_sparse(&plan)?;
            distinct_sims += sims;
            subs.push(partition.extract_sub_tensor(&full, &self.defaults, s)?);
        }
        Ok(MultiBuild {
            subs,
            partition,
            cells,
            distinct_sims,
            simulate_secs: t_sim.elapsed().as_secs_f64(),
        })
    }

    /// Ablation: identical sampling and stitching to [`Self::run_m2td`],
    /// but the join tensor is decomposed *directly* with sparse HOSVD —
    /// the expensive route M2TD is designed to avoid.
    pub fn run_joined_hosvd(
        &self,
        pivot_mode: usize,
        stitch_kind: m2td_stitch::StitchKind,
        p_frac: f64,
        e_frac: f64,
    ) -> Result<RunReport> {
        let partition = PfPartition::balanced(self.n_modes(), pivot_mode)?;
        let SubsystemBuild {
            x1,
            x2,
            cells,
            distinct_sims,
            simulate_secs,
            ..
        } = self.build_subsystems(&partition, p_frac, e_frac, 1.0, None)?;

        let t_dec = Instant::now();
        let (join, report) = m2td_stitch::stitch(&x1, &x2, partition.k(), stitch_kind)?;
        let join_ranks: Vec<usize> = join.dims().iter().map(|&d| self.cfg.rank.min(d)).collect();
        let tucker = hosvd_sparse(&join, &join_ranks)?;
        let recon_join = tucker.reconstruct()?;
        let recon = recon_join.permute_modes(&partition.perm_join_to_natural())?;
        let decompose_secs = t_dec.elapsed().as_secs_f64();

        Ok(RunReport {
            method: "JOIN+HOSVD".to_string(),
            accuracy: self.accuracy(&recon)?,
            decompose_secs,
            simulate_secs,
            cells,
            distinct_sims,
            density: join.density(),
            timings: None,
            stitch: Some(report),
            degraded: None,
            metrics: m2td_obs::snapshot_if_installed(),
            guard: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::PivotCombine;
    use m2td_sampling::{GridSampling, RandomSampling, SliceSampling};
    use m2td_sim::systems::Sir;
    use m2td_stitch::StitchKind;

    fn bench() -> Workbench<'static> {
        static SYS: Sir = Sir;
        let cfg = WorkbenchConfig {
            resolution: 4,
            time_steps: 4,
            t_end: 40.0,
            substeps: 8,
            rank: 2,
            seed: 3,
            noise_sigma: 0.0,
        };
        Workbench::new(&SYS, cfg).unwrap()
    }

    #[test]
    fn workbench_materializes_ground_truth() {
        let w = bench();
        assert_eq!(w.full_dims(), &[4, 4, 4, 4, 4]);
        assert!(w.ground_truth().frobenius_norm() > 0.0);
        assert_eq!(w.natural_ranks(), vec![2, 2, 2, 2, 2]);
        assert_eq!(w.mode_names().last().unwrap(), "t");
    }

    #[test]
    fn m2td_budget_matches_2pe() {
        let w = bench();
        // Pivot = time (mode 4): P = 4, E = 16 per sub-system.
        assert_eq!(w.m2td_budget(4, 1.0, 1.0).unwrap(), 2 * 4 * 16);
        assert_eq!(w.m2td_budget(4, 0.5, 1.0).unwrap(), 2 * 2 * 16);
    }

    #[test]
    fn m2td_run_produces_sane_report() {
        let w = bench();
        let report = w.run_m2td(4, M2tdOptions::default(), 1.0, 1.0).unwrap();
        assert_eq!(report.method, "M2TD-SELECT");
        assert!(report.accuracy.is_finite());
        assert!(report.accuracy > 0.0, "accuracy {}", report.accuracy);
        assert_eq!(report.cells, 128);
        assert!(report.timings.is_some());
        assert!(report.stitch.is_some());
    }

    #[test]
    fn conventional_runs_produce_reports() {
        let w = bench();
        let budget = w.m2td_budget(4, 1.0, 1.0).unwrap();
        for scheme in [
            &RandomSampling as &dyn SamplingScheme,
            &GridSampling,
            &SliceSampling,
        ] {
            let r = w.run_conventional(scheme, budget).unwrap();
            assert!(r.accuracy.is_finite());
            assert!(r.cells <= budget);
            assert!(r.distinct_sims > 0);
        }
    }

    #[test]
    fn m2td_beats_conventional_at_equal_budget() {
        // The paper's headline result (Table II shape), at miniature scale.
        let w = bench();
        let budget = w.m2td_budget(4, 1.0, 1.0).unwrap();
        let m2td = w.run_m2td(4, M2tdOptions::default(), 1.0, 1.0).unwrap();
        let random = w.run_conventional(&RandomSampling, budget).unwrap();
        assert!(
            m2td.accuracy > random.accuracy,
            "M2TD {} should beat random {}",
            m2td.accuracy,
            random.accuracy
        );
    }

    #[test]
    fn all_combine_variants_run() {
        let w = bench();
        for kind in PivotCombine::all() {
            let opts = M2tdOptions {
                combine: kind,
                ..M2tdOptions::default()
            };
            let r = w.run_m2td(4, opts, 1.0, 1.0).unwrap();
            assert_eq!(r.method, kind.name());
        }
    }

    #[test]
    fn joined_hosvd_ablation_runs() {
        let w = bench();
        let r = w.run_joined_hosvd(4, StitchKind::Join, 1.0, 1.0).unwrap();
        assert_eq!(r.method, "JOIN+HOSVD");
        assert!(r.accuracy.is_finite());
    }

    #[test]
    fn physical_parameter_pivot_works() {
        let w = bench();
        // Pivot = first parameter instead of time.
        let r = w.run_m2td(0, M2tdOptions::default(), 1.0, 1.0).unwrap();
        assert!(r.accuracy.is_finite());
    }

    #[test]
    fn multiway_pipeline_matches_two_way_at_two_groups() {
        let w = bench();
        let two_way = w.run_m2td(4, M2tdOptions::default(), 1.0, 1.0).unwrap();
        let multi = w
            .run_m2td_multi(4, 2, M2tdOptions::default(), 1.0, 1.0)
            .unwrap();
        assert_eq!(two_way.cells, multi.cells);
        assert!(
            (two_way.accuracy - multi.accuracy).abs() < 1e-9,
            "two-way {} vs multi {}",
            two_way.accuracy,
            multi.accuracy
        );
    }

    #[test]
    fn finest_partition_runs_and_uses_fewer_cells() {
        let w = bench();
        let coarse = w.run_m2td(4, M2tdOptions::default(), 1.0, 1.0).unwrap();
        let fine = w
            .run_m2td_multi(4, 4, M2tdOptions::default(), 1.0, 1.0)
            .unwrap();
        assert!(fine.accuracy.is_finite() && fine.accuracy > 0.0);
        // Four single-mode groups need 4*P*R cells vs 2*P*R^2.
        assert!(fine.cells < coarse.cells);
        assert_eq!(fine.method, "M2TD-SELECT x4".replace(' ', ""));
    }

    #[test]
    fn multiway_validates_group_count() {
        let w = bench();
        assert!(w
            .run_m2td_multi(4, 3, M2tdOptions::default(), 1.0, 1.0)
            .is_err());
        assert!(w
            .run_m2td_multi(4, 0, M2tdOptions::default(), 1.0, 1.0)
            .is_err());
        assert!(w
            .run_m2td_multi(9, 2, M2tdOptions::default(), 1.0, 1.0)
            .is_err());
    }

    #[test]
    fn reduced_densities_shrink_budget() {
        let w = bench();
        let full = w.run_m2td(4, M2tdOptions::default(), 1.0, 1.0).unwrap();
        let half = w.run_m2td(4, M2tdOptions::default(), 1.0, 0.5).unwrap();
        assert!(half.cells < full.cells);
    }

    #[test]
    fn fault_free_policy_matches_plain_run() {
        let w = bench();
        let plain = w.run_m2td(4, M2tdOptions::default(), 1.0, 1.0).unwrap();
        let policy = SimFaultPolicy::new(9, 0.0);
        let under = w
            .run_m2td_degraded(4, M2tdOptions::default(), 1.0, 1.0, 1.0, &policy)
            .unwrap();
        let stats = under.degraded.unwrap();
        assert_eq!(stats.failed_sims, 0);
        assert!(!stats.is_degraded());
        assert_eq!(stats.coverage, 1.0);
        assert_eq!(under.cells, plain.cells);
        assert_eq!(under.accuracy, plain.accuracy);
    }

    #[test]
    fn degraded_run_loses_cells_but_still_decomposes() {
        let w = bench();
        // High per-attempt failure with no retries guarantees lost runs.
        let policy = SimFaultPolicy::new(5, 0.4)
            .with_max_attempts(1)
            .with_min_coverage(0.2);
        let opts = M2tdOptions {
            stitch: m2td_stitch::StitchKind::ZeroJoin,
            ..M2tdOptions::default()
        };
        let r = w
            .run_m2td_degraded(4, opts, 1.0, 1.0, 1.0, &policy)
            .unwrap();
        let stats = r.degraded.unwrap();
        assert!(stats.is_degraded(), "no run failed at 40% failure rate");
        assert!(stats.coverage < 1.0);
        assert!(r.cells < stats.planned_cells);
        assert!(r.accuracy.is_finite());
        // Degraded accuracy should still beat doing nothing.
        assert!(r.accuracy > 0.0, "degraded accuracy {}", r.accuracy);
    }

    #[test]
    fn coverage_floor_violation_is_a_clean_error() {
        let w = bench();
        // Near-certain failure with a high floor must abort, not panic.
        let policy = SimFaultPolicy::new(7, 0.97)
            .with_max_attempts(1)
            .with_min_coverage(0.9);
        let err = w
            .run_m2td_degraded(4, M2tdOptions::default(), 1.0, 1.0, 1.0, &policy)
            .unwrap_err();
        match err {
            CoreError::InsufficientCoverage { coverage, required } => {
                assert!(coverage < required);
                assert_eq!(required, 0.9);
            }
            other => panic!("expected InsufficientCoverage, got {other}"),
        }
    }

    #[test]
    fn retries_rescue_runs_a_single_attempt_loses() {
        let w = bench();
        let one_shot = SimFaultPolicy::new(11, 0.35)
            .with_max_attempts(1)
            .with_min_coverage(0.1);
        let retried = SimFaultPolicy::new(11, 0.35)
            .with_max_attempts(4)
            .with_min_coverage(0.1);
        let opts = M2tdOptions {
            stitch: m2td_stitch::StitchKind::ZeroJoin,
            ..M2tdOptions::default()
        };
        let r1 = w
            .run_m2td_degraded(4, opts, 1.0, 1.0, 1.0, &one_shot)
            .unwrap();
        let r2 = w
            .run_m2td_degraded(4, opts, 1.0, 1.0, 1.0, &retried)
            .unwrap();
        let (s1, s2) = (r1.degraded.unwrap(), r2.degraded.unwrap());
        assert!(
            s2.failed_sims < s1.failed_sims,
            "retries should rescue runs: {} vs {}",
            s2.failed_sims,
            s1.failed_sims
        );
        assert!(s2.sim_retries > 0, "rescues must cost retries");
        assert!(s2.coverage > s1.coverage);
    }
}
