//! The three phases of D-M2TD (Section VI-D), executed on the
//! [`crate::MapReduce`] engine.
//!
//! * **Phase 1 — parallel sub-tensor decomposition**: entries are tagged
//!   with their sub-tensor id `κ ∈ {1, 2}` and shuffled so each reducer
//!   receives one sub-tensor, computes its mode Grams and factor matrices.
//!   The driver then combines the pivot factors (AVG/CONCAT/SELECT).
//! * **Phase 2 — parallel JE-stitching**: entries are shuffled by their
//!   pivot configuration; each reducer joins (or zero-joins) its pivot
//!   group into join-tensor cells.
//! * **Phase 3 — parallel core recovery**: join cells are partitioned
//!   across reducers; each computes a partial core via the TTM chain over
//!   its cells (TTM is linear in the tensor, so partial cores sum to the
//!   exact core).
//!
//! A [`DistJob`] carries the inputs plus every execution setting; its
//! defaults are the fault-free run.
//!
//! ## Fault tolerance
//!
//! With a seeded [`FaultConfig`], task kills are retried with
//! deterministic virtual backoff, stragglers are rescued by speculative
//! re-execution, and each completed phase boundary can be persisted to a
//! [`CheckpointStore`] so a later run over the same inputs resumes from
//! the first incomplete phase. Because every task is pure, any fault
//! schedule that eventually succeeds produces factors and a core
//! **bitwise identical** to the fault-free run at every `M2TD_THREADS`
//! setting; `tests/fault_determinism.rs` pins this.

use crate::checkpoint::{CheckpointStore, Fingerprint};
use crate::cluster::{ClusterModel, PhaseCost};
use crate::dlq::{DlqEntry, DlqStore};
use crate::manifest::{ManifestLog, ManifestStore};
use crate::mapreduce::{JobOutput, JobSpec, MapReduce, ShuffleStats, TaskState, WaveRecovery};
use crate::scheduler::DeadTask;
use crate::transport::TaskEnvelope;
use m2td_core::{projection_factors, CoreError, M2tdOptions};
use m2td_fault::{FaultError, FaultPlan, RetryPolicy, TaskCounters};
use m2td_json::{FromJson, Json, JsonError, ToJson};
use m2td_linalg::Matrix;
use m2td_stitch::StitchKind;
use m2td_tensor::{
    CoreOrdering, DenseTensor, Shape, SparseTensor, TtmPlan, TuckerDecomp, Workspace,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Errors produced by D-M2TD.
#[derive(Debug)]
pub enum DistError {
    /// Propagated core/tensor error.
    Core(CoreError),
    /// Structural problem specific to the distributed formulation.
    Invalid(String),
    /// A task was killed on every attempt its retry budget allowed.
    Exhausted(FaultError),
    /// A phase checkpoint could not be written.
    Checkpoint(String),
    /// A worker-side failure that crossed the transport boundary, or a
    /// task stranded in the dead-letter queue. Carries the rendered error
    /// — typed errors do not survive serialization.
    Worker(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Core(e) => write!(f, "core error: {e}"),
            DistError::Invalid(s) => write!(f, "invalid D-M2TD input: {s}"),
            DistError::Exhausted(e) => write!(f, "{e}"),
            DistError::Checkpoint(s) => write!(f, "checkpoint error: {s}"),
            DistError::Worker(s) => write!(f, "worker error: {s}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Core(e) => Some(e),
            DistError::Invalid(_) | DistError::Checkpoint(_) | DistError::Worker(_) => None,
            DistError::Exhausted(e) => Some(e),
        }
    }
}

impl From<CoreError> for DistError {
    fn from(e: CoreError) -> Self {
        DistError::Core(e)
    }
}

impl From<m2td_tensor::TensorError> for DistError {
    fn from(e: m2td_tensor::TensorError) -> Self {
        DistError::Core(e.into())
    }
}

impl From<m2td_linalg::LinalgError> for DistError {
    fn from(e: m2td_linalg::LinalgError) -> Self {
        DistError::Core(e.into())
    }
}

impl From<FaultError> for DistError {
    fn from(e: FaultError) -> Self {
        DistError::Exhausted(e)
    }
}

impl From<m2td_guard::GuardError> for DistError {
    fn from(e: m2td_guard::GuardError) -> Self {
        DistError::Core(e.into())
    }
}

/// The failure model one D-M2TD run executes under: which faults are
/// injected ([`FaultPlan`]) and how the engine responds ([`RetryPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Injected faults (deterministic, seeded).
    pub plan: FaultPlan,
    /// Retry budget, backoff schedule and speculation threshold.
    pub policy: RetryPolicy,
}

impl FaultConfig {
    /// No injected faults, default retry policy.
    pub fn none() -> Self {
        Self {
            plan: FaultPlan::none(),
            policy: RetryPolicy::default(),
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// A reduce task's result as it crosses the transport boundary: either
/// the value or the rendered error (typed errors do not serialize).
#[derive(Debug, Clone)]
enum TaskOutcome<T> {
    Ok(T),
    Fail(String),
}

impl<T> TaskOutcome<T> {
    fn into_result(self) -> Result<T, DistError> {
        match self {
            TaskOutcome::Ok(v) => Ok(v),
            TaskOutcome::Fail(s) => Err(DistError::Worker(s)),
        }
    }
}

impl<T> From<Result<T, DistError>> for TaskOutcome<T> {
    fn from(r: Result<T, DistError>) -> Self {
        match r {
            Ok(v) => TaskOutcome::Ok(v),
            Err(e) => TaskOutcome::Fail(e.to_string()),
        }
    }
}

impl<T: ToJson> ToJson for TaskOutcome<T> {
    fn to_json(&self) -> Json {
        match self {
            TaskOutcome::Ok(v) => Json::Obj(vec![("ok".to_string(), v.to_json())]),
            TaskOutcome::Fail(s) => Json::Obj(vec![("fail".to_string(), s.to_json())]),
        }
    }
}

impl<T: FromJson> FromJson for TaskOutcome<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        if let Some(v) = json.get("ok") {
            return Ok(TaskOutcome::Ok(T::from_json(v)?));
        }
        if let Some(s) = json.get("fail") {
            return Ok(TaskOutcome::Fail(String::from_json(s)?));
        }
        Err(JsonError::Invalid(
            "task outcome needs an ok or fail field".to_string(),
        ))
    }
}

/// Durable stores a resumable run reads and writes: the [`ManifestStore`]
/// tracking per-phase task completion and the [`DlqStore`] holding parked
/// tasks, plus the coverage floor below which a degraded phase-3 result
/// is refused (mirroring the ensemble coverage policy in `m2td-core`).
#[derive(Debug, Clone, Copy)]
pub struct JobRecovery<'a> {
    /// Per-phase task-completion log, keyed by the input fingerprint.
    pub manifest: &'a ManifestStore,
    /// Dead-letter queue for tasks whose retry budget is exhausted.
    pub dlq: &'a DlqStore,
    /// Minimum fraction of phase-3 partial cores that must survive for a
    /// degraded completion; below it the run fails cleanly. Phases 1 and
    /// 2 always require full coverage — their outputs feed every
    /// downstream task.
    pub min_coverage: f64,
}

impl<'a> JobRecovery<'a> {
    /// Recovery over the given stores with the default 0.5 coverage floor.
    pub fn new(manifest: &'a ManifestStore, dlq: &'a DlqStore) -> Self {
        Self {
            manifest,
            dlq,
            min_coverage: 0.5,
        }
    }

    /// Adjusts the phase-3 coverage floor (clamped to `[0, 1]`).
    pub fn with_min_coverage(mut self, min_coverage: f64) -> Self {
        self.min_coverage = min_coverage.clamp(0.0, 1.0);
        self
    }
}

/// Shared mutable state of one resumable run.
struct ResumeState {
    manifest: Mutex<ManifestLog>,
    drained: AtomicUsize,
}

/// The [`WaveRecovery`] wiring for one phase: manifest records completion
/// and death, the DLQ holds corpses and requeue marks. Persistence errors
/// are counted, not fatal — a lost manifest record only means the next
/// run re-executes a task it could have resumed.
struct PhaseRecovery<'a> {
    job: u64,
    phase: u8,
    dlq: &'a DlqStore,
    state: &'a ResumeState,
}

impl PhaseRecovery<'_> {
    fn record(&self, update: impl FnOnce(&mut ManifestLog) -> Result<(), String>) {
        if update(&mut self.state.manifest.lock().unwrap()).is_err() {
            m2td_obs::counter_add("manifest.save_errors", 1);
        }
    }
}

impl WaveRecovery for PhaseRecovery<'_> {
    fn begin_phase(&self, total: u64) {
        self.record(|m| m.begin_phase(self.phase, total));
    }

    fn task_state(&self, task: u64) -> TaskState {
        let log = self.state.manifest.lock().unwrap();
        let m = log.manifest();
        if let Some(out) = m.completed_output(self.phase, task) {
            return TaskState::Completed(out.clone());
        }
        if m.is_dead(self.phase, task) {
            return TaskState::Dead {
                requeued: self.dlq.is_requeued(self.job, self.phase, task),
            };
        }
        TaskState::Fresh
    }

    fn record_complete(&self, task: u64, output: &Json) {
        self.record(|m| m.record_complete(self.phase, task, output.clone()));
    }

    fn record_dead(&self, dead: &DeadTask, envelope: &TaskEnvelope) {
        self.record(|m| m.record_dead(self.phase, dead.task));
        let entry = DlqEntry::from_envelope(
            envelope,
            dead.attempts,
            dead.log.clone(),
            dead.error.to_string(),
        );
        if self.dlq.park(entry).is_err() {
            m2td_obs::counter_add("dlq.park_errors", 1);
        }
    }

    fn record_revived(&self, task: u64) {
        // The manifest's dead mark was already cleared by the
        // record_complete that precedes every revival.
        match self.dlq.drain(self.job, self.phase, task) {
            Ok(true) => {
                self.state.drained.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false) => {}
            Err(_) => m2td_obs::counter_add("dlq.drain_errors", 1),
        }
    }
}

/// Fails unless every reduce task of the phase survived: a corpse parked
/// this run surfaces its terminal fault; one inherited from a previous
/// run (and not requeued) points the operator at the DLQ workflow.
fn require_full_coverage<R>(phase: u8, out: &JobOutput<R>) -> Result<(), DistError> {
    if let Some(d) = out.dead.first() {
        return Err(DistError::Exhausted(d.error.clone()));
    }
    if let Some(&t) = out.skipped_dead.first() {
        return Err(DistError::Worker(format!(
            "phase-{phase} reduce task {t} is parked in the dead-letter queue \
             (phases 1-2 cannot complete degraded); requeue it with `m2td-cli dlq requeue`"
        )));
    }
    Ok(())
}

/// Job ids the three phases run under — a [`FaultPlan`] scoped with
/// [`FaultPlan::in_job`] targets exactly one phase.
pub const PHASE1_JOB: u64 = 1;
/// See [`PHASE1_JOB`].
pub const PHASE2_JOB: u64 = 2;
/// See [`PHASE1_JOB`]. Under [`Phase3Strategy::ModeShuffle`] all per-mode
/// jobs share this id.
pub const PHASE3_JOB: u64 = 3;

/// Measured statistics of one phase: serial compute time plus the shuffle
/// volume of its MapReduce job. Feed these to a [`ClusterModel`] to obtain
/// Table III-style per-server-count times.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// Wall-clock seconds of the phase's computation in this process.
    pub serial_secs: f64,
    /// Shuffle statistics of the phase's MapReduce job.
    pub shuffle: ShuffleStats,
    /// Task-execution counters (attempts, kills, stragglers, speculative
    /// copies, virtual lost time) accumulated by the phase's job(s).
    /// All-zero for a phase resumed from a checkpoint.
    pub tasks: TaskCounters,
    /// True if this phase's output was loaded from a
    /// [`CheckpointStore`](crate::CheckpointStore) instead of computed.
    pub resumed: bool,
}

impl PhaseStats {
    fn computed(serial_secs: f64, shuffle: ShuffleStats, tasks: TaskCounters) -> Self {
        Self {
            serial_secs,
            shuffle,
            tasks,
            resumed: false,
        }
    }

    fn resumed_from_checkpoint() -> Self {
        Self {
            serial_secs: 0.0,
            shuffle: ShuffleStats::default(),
            tasks: TaskCounters::default(),
            resumed: true,
        }
    }

    /// Projects this phase onto a modeled cluster.
    pub fn on_cluster(&self, model: &ClusterModel) -> PhaseCost {
        model.phase_cost(self.serial_secs, &self.shuffle)
    }
}

/// The result of a distributed M2TD run.
#[derive(Debug, Clone)]
pub struct DistDecomposition {
    /// Tucker decomposition of the join tensor (join mode order).
    pub tucker: TuckerDecomp,
    /// Phase 1 statistics (parallel sub-tensor decomposition).
    pub phase1: PhaseStats,
    /// Phase 2 statistics (parallel JE-stitching).
    pub phase2: PhaseStats,
    /// Phase 3 statistics (parallel core recovery).
    pub phase3: PhaseStats,
    /// Phase-3 reduce tasks missing from the core — parked in the
    /// dead-letter queue (this run or a previous one) and not drained.
    pub dead_tasks: Vec<u64>,
    /// Reduce tasks replayed from manifest-recorded outputs instead of
    /// re-running, across all phases.
    pub resumed_tasks: usize,
    /// Dead-letter entries drained by this run (requeued tasks that
    /// completed).
    pub drained: usize,
    /// True when the core is missing at least one partial (coverage was
    /// above the floor but below 1).
    pub degraded: bool,
}

impl DistDecomposition {
    /// Aggregate task counters over all three phases.
    pub fn total_tasks(&self) -> TaskCounters {
        let mut c = TaskCounters::default();
        c.absorb(&self.phase1.tasks);
        c.absorb(&self.phase2.tasks);
        c.absorb(&self.phase3.tasks);
        c
    }
}

/// How Phase 3 (core recovery) is distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase3Strategy {
    /// Partition the join cells across reducers; each computes a partial
    /// core via a full TTM chain over its cells, and the partial cores are
    /// summed (TTM is linear in the tensor). One MapReduce job.
    ChunkPartition,
    /// The paper's literal dataflow (Section VI-D): one MapReduce job per
    /// mode — cells are shuffled by their all-but-one-mode key, each
    /// reducer performs the vector-matrix multiplication for its fiber,
    /// and the output tensor feeds the next mode's job.
    ModeShuffle,
}

/// Runs fault-free D-M2TD over two PF-partitioned sub-tensors with the
/// [`Phase3Strategy::ChunkPartition`] dataflow: [`DistJob::new`] with
/// `opts`, run on `engine`.
pub fn d_m2td(
    x1: &SparseTensor,
    x2: &SparseTensor,
    k: usize,
    ranks: &[usize],
    opts: M2tdOptions,
    engine: &MapReduce,
) -> Result<DistDecomposition, DistError> {
    DistJob {
        opts,
        ..DistJob::new(x1, x2, k, ranks)
    }
    .run(engine)
}

/// One D-M2TD run: the two PF-partitioned sub-tensors plus every setting
/// that shapes how the three phases execute. [`DistJob::new`] gives the
/// fault-free defaults; override fields with struct-update syntax:
///
/// ```
/// use m2td_dist::{DistJob, MapReduce, Phase3Strategy};
/// use m2td_tensor::SparseTensor;
///
/// let cells = |c: f64| -> Vec<(Vec<usize>, f64)> {
///     (0..12).map(|l| (vec![l / 3, l % 3], c + l as f64)).collect()
/// };
/// let x1 = SparseTensor::from_entries(&[4, 3], &cells(1.0)).unwrap();
/// let x2 = SparseTensor::from_entries(&[4, 3], &cells(2.0)).unwrap();
/// let dist = DistJob {
///     phase3: Phase3Strategy::ModeShuffle,
///     ..DistJob::new(&x1, &x2, 1, &[2, 2, 2])
/// }
/// .run(&MapReduce::new(2))
/// .unwrap();
/// assert_eq!(dist.tucker.core.dims(), &[2, 2, 2]);
/// assert!(!dist.degraded);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DistJob<'a> {
    /// First sub-tensor; its leading `k` modes are the pivots.
    pub x1: &'a SparseTensor,
    /// Second sub-tensor, sharing `x1`'s pivot modes.
    pub x2: &'a SparseTensor,
    /// Number of pivot modes.
    pub k: usize,
    /// Tucker ranks in join mode order (pivots, then each side's free
    /// modes), as for [`m2td_core::m2td_decompose`].
    pub ranks: &'a [usize],
    /// Pivot combination, stitching and projection.
    pub opts: M2tdOptions,
    /// Phase-3 dataflow.
    pub phase3: Phase3Strategy,
    /// Injected faults and the retry policy that answers them.
    pub faults: FaultConfig,
    /// Phase-boundary checkpoints. Each completed phase persists its
    /// output (phase 1: combined factors; phase 2: join tensor), and a
    /// later run over the same inputs loads them instead of recomputing.
    pub checkpoint: Option<&'a CheckpointStore>,
    /// Job-level resume and dead-letter queue. `None` fails the job on
    /// the first exhausted task.
    pub recovery: Option<JobRecovery<'a>>,
}

impl<'a> DistJob<'a> {
    /// The fault-free job: default options, chunk-partitioned phase 3,
    /// no injected faults, no checkpoints, no recovery layer.
    pub fn new(x1: &'a SparseTensor, x2: &'a SparseTensor, k: usize, ranks: &'a [usize]) -> Self {
        Self {
            x1,
            x2,
            k,
            ranks,
            opts: M2tdOptions::default(),
            phase3: Phase3Strategy::ChunkPartition,
            faults: FaultConfig::none(),
            checkpoint: None,
            recovery: None,
        }
    }

    /// Runs the three phases on `engine`. The result agrees with the
    /// serial [`m2td_core::m2td_decompose`] up to floating-point
    /// accumulation order.
    ///
    /// Phases resumed from [`checkpoint`](Self::checkpoint) report
    /// `resumed = true` and all-zero [`TaskCounters`]. Without a
    /// [`recovery`](Self::recovery) layer, a task killed on every allowed
    /// attempt surfaces [`DistError::Exhausted`].
    ///
    /// With one, every completed reduce task (with its serialized output)
    /// is appended to the input-fingerprinted [`ManifestLog`], so a process
    /// killed mid-phase and restarted over the same inputs re-runs only
    /// incomplete tasks, and an exhausted task is parked in the
    /// [`DlqStore`] with its envelope and attempt history instead of
    /// failing the job. Phases 1 and 2 still require full coverage (their
    /// outputs feed everything downstream), but phase 3 under
    /// [`Phase3Strategy::ChunkPartition`] completes **degraded** — summing
    /// the surviving partial cores — as long as coverage stays at or above
    /// [`JobRecovery::min_coverage`]. `m2td-cli dlq requeue` marks parked
    /// tasks for re-execution; the next run re-runs them and drains their
    /// entries on success.
    ///
    /// The determinism invariant: because tasks are pure, any fault
    /// schedule that eventually succeeds (including one interrupted and
    /// resumed from checkpoints or the manifest) yields factors and core
    /// bitwise identical to the fault-free run, at every thread count.
    pub fn run(&self, engine: &MapReduce) -> Result<DistDecomposition, DistError> {
        let DistJob {
            x1,
            x2,
            k,
            ranks,
            opts,
            phase3: phase3_strategy,
            faults,
            checkpoint,
            recovery,
        } = *self;
        let m1 = x1.order();
        let m2 = x2.order();
        if k == 0 || k >= m1 || k >= m2 {
            return Err(DistError::Invalid(format!(
                "pivot count {k} invalid for sub-tensor orders {m1}, {m2}"
            )));
        }
        if ranks.len() != k + (m1 - k) + (m2 - k) {
            return Err(DistError::Invalid(format!(
                "{} ranks supplied for join order {}",
                ranks.len(),
                k + (m1 - k) + (m2 - k)
            )));
        }
        let plan = &faults.plan;
        let policy = &faults.policy;
        // Phase-boundary sentinel: reject poisoned inputs before any phase
        // runs (no-ops while m2td-guard is uninstalled).
        m2td_guard::check_cells("phase1.x1", x1.iter())?;
        m2td_guard::check_cells("phase1.x2", x2.iter())?;
        // Only checkpoints and the manifest read the fingerprint: a plain
        // run never hashes its inputs.
        let fp = (checkpoint.is_some() || recovery.is_some())
            .then(|| Fingerprint::new(x1, x2, k, ranks, &opts));
        let ckpt = checkpoint.zip(fp.as_ref());
        // Resume state: the previous run's manifest (absent or wrong-
        // fingerprint logs degrade to a fresh one) plus drain tally.
        let resume_state = match recovery.zip(fp.as_ref()) {
            Some((r, fp)) => Some(ResumeState {
                manifest: Mutex::new(r.manifest.resume(fp).map_err(DistError::Checkpoint)?),
                drained: AtomicUsize::new(0),
            }),
            None => None,
        };
        let phase_recovery = |job: u64, phase: u8| -> Option<PhaseRecovery<'_>> {
            match (recovery, &resume_state) {
                (Some(r), Some(state)) => Some(PhaseRecovery {
                    job,
                    phase,
                    dlq: r.dlq,
                    state,
                }),
                _ => None,
            }
        };
        let mut resumed_tasks = 0;
        let ckpt_factors = ckpt.and_then(|(c, fp)| c.load_phase1(fp));
        let ckpt_join = ckpt.and_then(|(c, fp)| c.load_phase2(fp));
        if checkpoint.is_some() && m2td_obs::installed() {
            let hit = |found: bool| if found { "hits" } else { "misses" };
            m2td_obs::counter_add(format!("ckpt.phase1.{}", hit(ckpt_factors.is_some())), 1);
            m2td_obs::counter_add(format!("ckpt.phase2.{}", hit(ckpt_join.is_some())), 1);
        }

        // Tagged entry stream: (κ, linear index, value). Needed by whichever
        // of phases 1 and 2 is not resumed from a checkpoint.
        let tagged: Vec<(u8, u64, f64)> = if ckpt_factors.is_none() || ckpt_join.is_none() {
            x1.iter_linear()
                .map(|(l, v)| (1u8, l, v))
                .chain(x2.iter_linear().map(|(l, v)| (2u8, l, v)))
                .collect()
        } else {
            Vec::new()
        };

        // ---- Phase 1: parallel sub-tensor decomposition ---------------------
        // Span labels are shared with `m2td_core::m2td_decompose`: the serial
        // and distributed phases correspond one-to-one, so telemetry consumers
        // see one taxonomy regardless of which entry point ran.
        let span1 = m2td_obs::span!("phase1.decompose");
        let t1 = Instant::now();
        let (factors, phase1) = match ckpt_factors {
            Some(factors) => (factors, PhaseStats::resumed_from_checkpoint()),
            None => {
                let dims1 = x1.dims().to_vec();
                let dims2 = x2.dims().to_vec();
                let ranks1: Vec<usize> = ranks[..m1].to_vec();
                let ranks2: Vec<usize> = {
                    let mut r = ranks[..k].to_vec();
                    r.extend_from_slice(&ranks[m1..]);
                    r
                };
                let rec1 = phase_recovery(PHASE1_JOB, 1);
                let sharded1 = engine.run(
                    &JobSpec {
                        job: PHASE1_JOB,
                        phase: 1,
                        plan,
                        policy,
                        recovery: rec1.as_ref().map(|r| r as &dyn WaveRecovery),
                    },
                    tagged.clone(),
                    |(kappa, lin, v)| vec![(kappa, (lin, v))],
                    |kappa, entries| -> TaskOutcome<(u8, Vec<Matrix>, Vec<Matrix>)> {
                        let compute = || -> Result<(u8, Vec<Matrix>, Vec<Matrix>), DistError> {
                            let (dims, rks) = if *kappa == 1 {
                                (&dims1, &ranks1)
                            } else {
                                (&dims2, &ranks2)
                            };
                            let (indices, values): (Vec<u64>, Vec<f64>) =
                                entries.into_iter().unzip();
                            let tensor = SparseTensor::from_sorted_linear(dims, indices, values)?;
                            let mut grams = Vec::with_capacity(dims.len());
                            let mut factors = Vec::with_capacity(dims.len());
                            for (mode, &r) in rks.iter().enumerate() {
                                let gram = m2td_tensor::phase_gram(&tensor, mode)?;
                                factors.push(m2td_guard::gram_factor(
                                    "phase1.factor",
                                    Some(mode),
                                    &gram,
                                    r,
                                )?);
                                grams.push(gram);
                            }
                            Ok((*kappa, grams, factors))
                        };
                        compute().into()
                    },
                )?;
                require_full_coverage(1, &sharded1)?;
                resumed_tasks += sharded1.resumed;
                let (stats1, tasks1) = (sharded1.stats, sharded1.counters);
                let mut factor_sets = Vec::with_capacity(sharded1.outputs.len());
                for (_, outcome) in sharded1.outputs {
                    factor_sets.push(outcome.into_result()?);
                }
                if factor_sets.len() != 2 {
                    return Err(DistError::Invalid(
                        "one of the sub-tensors is empty".to_string(),
                    ));
                }
                // factor_sets is keyed 1 then 2 (BTreeMap order).
                let (_, grams1, factors1) = &factor_sets[0];
                let (_, grams2, factors2) = &factor_sets[1];

                // Driver-side pivot combination + free-factor assembly (join
                // order).
                let mut factors: Vec<Matrix> = Vec::with_capacity(ranks.len());
                for n in 0..k {
                    // The guard's ClampRank policy may have truncated one
                    // side's factor; pivot combination needs equal widths, so
                    // harmonize both sides to the narrower one.
                    let width = factors1[n].cols().min(factors2[n].cols());
                    factors.push(m2td_core::combine_pivot_factor(
                        opts.combine,
                        &grams1[n],
                        &grams2[n],
                        &factors1[n].leading_columns(width)?,
                        &factors2[n].leading_columns(width)?,
                        width,
                    )?);
                }
                for f in &factors1[k..] {
                    factors.push(f.clone());
                }
                for f in &factors2[k..] {
                    factors.push(f.clone());
                }
                for (n, f) in factors.iter().enumerate() {
                    m2td_guard::check_matrix("phase1.factor", Some(n), f)?;
                }
                if let Some((c, fp)) = ckpt {
                    c.save_phase1(fp, &factors).map_err(DistError::Checkpoint)?;
                    // Corruption stream: damage the freshly published record
                    // (models disk corruption after a successful write). This
                    // run keeps its in-memory factors; the *next* run must
                    // quarantine the record and recompute.
                    if let Some(kind) = plan.ckpt_corruption(1) {
                        c.corrupt(1, kind).map_err(DistError::Checkpoint)?;
                    }
                }
                let stats = PhaseStats::computed(t1.elapsed().as_secs_f64(), stats1, tasks1);
                (factors, stats)
            }
        };

        drop(span1);

        // ---- Phase 2: parallel JE-stitching ---------------------------------
        let span2 = m2td_obs::span!("phase2.stitch");
        let t2 = Instant::now();
        let mut join_dims: Vec<usize> = x1.dims()[..k].to_vec();
        join_dims.extend_from_slice(&x1.dims()[k..]);
        join_dims.extend_from_slice(&x2.dims()[k..]);
        let (join, phase2) = match ckpt_join {
            Some(join) => {
                if join.dims() != join_dims.as_slice() {
                    return Err(DistError::Invalid(format!(
                        "checkpointed join tensor dims {:?} do not match expected {join_dims:?}",
                        join.dims()
                    )));
                }
                (join, PhaseStats::resumed_from_checkpoint())
            }
            None => {
                let pivot_shape = Shape::new(&x1.dims()[..k]);
                let free1_shape = Shape::new(&x1.dims()[k..]);
                let free2_shape = Shape::new(&x2.dims()[k..]);
                let join_shape = Shape::new(&join_dims);

                // Global free-config sets, needed by zero-join reducers.
                let (free_set1, free_set2): (BTreeSet<u64>, BTreeSet<u64>) = {
                    let mut f1 = BTreeSet::new();
                    let mut f2 = BTreeSet::new();
                    let mut idx1 = vec![0usize; m1];
                    for (lin, _) in x1.iter_linear() {
                        x1.shape().multi_index_into(lin as usize, &mut idx1);
                        f1.insert(free1_shape.linear_index(&idx1[k..]) as u64);
                    }
                    let mut idx2 = vec![0usize; m2];
                    for (lin, _) in x2.iter_linear() {
                        x2.shape().multi_index_into(lin as usize, &mut idx2);
                        f2.insert(free2_shape.linear_index(&idx2[k..]) as u64);
                    }
                    (f1, f2)
                };

                let shape1 = x1.shape().clone();
                let shape2 = x2.shape().clone();
                let rec2 = phase_recovery(PHASE2_JOB, 2);
                let sharded2 = engine.run(
                    &JobSpec {
                        job: PHASE2_JOB,
                        phase: 2,
                        plan,
                        policy,
                        recovery: rec2.as_ref().map(|r| r as &dyn WaveRecovery),
                    },
                    tagged,
                    |(kappa, lin, v)| {
                        // Key by pivot configuration.
                        let (shape, free_shape, order) = if kappa == 1 {
                            (&shape1, &free1_shape, m1)
                        } else {
                            (&shape2, &free2_shape, m2)
                        };
                        let mut idx = vec![0usize; order];
                        shape.multi_index_into(lin as usize, &mut idx);
                        let p = pivot_shape.linear_index(&idx[..k]) as u64;
                        let f = free_shape.linear_index(&idx[k..]) as u64;
                        vec![(p, (kappa, f, v))]
                    },
                    |pivot, entries| {
                        // Join this pivot group.
                        let mut side1: BTreeMap<u64, f64> = BTreeMap::new();
                        let mut side2: BTreeMap<u64, f64> = BTreeMap::new();
                        for (kappa, f, v) in entries {
                            if kappa == 1 {
                                side1.insert(f, v);
                            } else {
                                side2.insert(f, v);
                            }
                        }
                        let mut cells: Vec<(u64, u64, f64)> = Vec::new();
                        match opts.stitch {
                            StitchKind::Join => {
                                for (&f1, &v1) in &side1 {
                                    for (&f2, &v2) in &side2 {
                                        cells.push((f1, f2, 0.5 * (v1 + v2)));
                                    }
                                }
                            }
                            StitchKind::ZeroJoin => {
                                for (&f1, &v1) in &side1 {
                                    for &f2 in &free_set2 {
                                        let v2 = side2.get(&f2).copied().unwrap_or(0.0);
                                        cells.push((f1, f2, 0.5 * (v1 + v2)));
                                    }
                                }
                                for (&f2, &v2) in &side2 {
                                    for &f1 in &free_set1 {
                                        if side1.contains_key(&f1) {
                                            continue;
                                        }
                                        cells.push((f1, f2, 0.5 * v2));
                                    }
                                }
                            }
                        }
                        (*pivot, cells)
                    },
                )?;
                require_full_coverage(2, &sharded2)?;
                resumed_tasks += sharded2.resumed;
                let (stats2, tasks2) = (sharded2.stats, sharded2.counters);

                // Assemble the join tensor from the per-pivot groups.
                let f1_len = free1_shape.order();
                let mut entries: Vec<(u64, f64)> = Vec::new();
                let mut idx = vec![0usize; join_dims.len()];
                for (_, (pivot, cells)) in sharded2.outputs {
                    for (f1, f2, v) in cells {
                        pivot_shape.multi_index_into(pivot as usize, &mut idx[..k]);
                        free1_shape.multi_index_into(f1 as usize, &mut idx[k..k + f1_len]);
                        free2_shape.multi_index_into(f2 as usize, &mut idx[k + f1_len..]);
                        entries.push((join_shape.linear_index(&idx) as u64, v));
                    }
                }
                entries.sort_unstable_by_key(|&(l, _)| l);
                let (indices, values): (Vec<u64>, Vec<f64>) = entries.into_iter().unzip();
                let join = SparseTensor::from_sorted_linear(&join_dims, indices, values)?;
                if let Some((c, fp)) = ckpt {
                    c.save_phase2(fp, &join).map_err(DistError::Checkpoint)?;
                    if let Some(kind) = plan.ckpt_corruption(2) {
                        c.corrupt(2, kind).map_err(DistError::Checkpoint)?;
                    }
                }
                let stats = PhaseStats::computed(t2.elapsed().as_secs_f64(), stats2, tasks2);
                (join, stats)
            }
        };

        drop(span2);
        // Phase-2 boundary sentinel: a poisoned join cell (from a NaN that
        // slipped into the stitch arithmetic) must not reach core recovery.
        m2td_guard::check_cells("phase2.join", join.iter())?;

        // ---- Phase 3: parallel core recovery --------------------------------
        let _span3 = m2td_obs::span!("phase3.core");
        let t3 = Instant::now();
        if join.nnz() == 0 {
            return Err(DistError::Invalid(
                "join tensor is empty: the sub-ensembles share no pivot configuration".to_string(),
            ));
        }
        let proj_factors = projection_factors(&factors, opts.projection)?;
        let mut dead_tasks = Vec::new();
        let (core, stats3, tasks3) = match phase3_strategy {
            Phase3Strategy::ChunkPartition => {
                let partitions = engine.workers() as u64;
                let join_cells: Vec<(u64, f64)> = join.iter_linear().collect();
                // Every chunk shares the join shape and factor ranks, so the
                // TTM chain is planned once, outside the reducer.
                let ranks: Vec<usize> = proj_factors.iter().map(|f| f.cols()).collect();
                let chain_plan =
                    TtmPlan::with_ordering(&join_dims, &ranks, CoreOrdering::BestShrinkFirst)?;
                let rec3 = phase_recovery(PHASE3_JOB, 3);
                let sharded3 = engine.run(
                    &JobSpec {
                        job: PHASE3_JOB,
                        phase: 3,
                        plan,
                        policy,
                        recovery: rec3.as_ref().map(|r| r as &dyn WaveRecovery),
                    },
                    join_cells,
                    |(lin, v)| vec![(lin % partitions, (lin, v))],
                    |_part, cells| -> TaskOutcome<DenseTensor> {
                        let compute = || -> Result<DenseTensor, DistError> {
                            let (mut indices, mut values): (Vec<u64>, Vec<f64>) = (
                                Vec::with_capacity(cells.len()),
                                Vec::with_capacity(cells.len()),
                            );
                            let mut sorted = cells.clone();
                            sorted.sort_unstable_by_key(|&(l, _)| l);
                            for (l, v) in sorted {
                                indices.push(l);
                                values.push(v);
                            }
                            let chunk =
                                SparseTensor::from_sorted_linear(&join_dims, indices, values)?;
                            Ok(chain_plan.execute_sparse(
                                &chunk,
                                &proj_factors,
                                &mut Workspace::new(),
                            )?)
                        };
                        compute().into()
                    },
                )?;
                resumed_tasks += sharded3.resumed;
                // Degraded completion: partial cores sum, so a missing task
                // only loses its cells' contribution. Refuse below the
                // coverage floor (or at all without a recovery layer — the
                // wave then fails before reaching here).
                let total = sharded3.reduce_tasks.max(1);
                let missing = sharded3.dead.len() + sharded3.skipped_dead.len();
                if missing > 0 {
                    let covered = (total as usize - missing) as f64 / total as f64;
                    let floor = recovery.map(|r| r.min_coverage).unwrap_or(1.0);
                    if covered < floor {
                        return Err(DistError::Worker(format!(
                            "phase-3 coverage {covered:.3} is below the {floor:.3} floor: \
                             {missing} of {total} partial cores are parked in the dead-letter queue"
                        )));
                    }
                    dead_tasks = sharded3
                        .dead
                        .iter()
                        .map(|d| d.task)
                        .chain(sharded3.skipped_dead.iter().copied())
                        .collect();
                    dead_tasks.sort_unstable();
                    m2td_obs::counter_add("dlq.degraded_completions", 1);
                }
                let (stats3, tasks3) = (sharded3.stats, sharded3.counters);
                let mut core: Option<DenseTensor> = None;
                for (_, outcome) in sharded3.outputs {
                    let partial = outcome.into_result()?;
                    core = Some(match core {
                        None => partial,
                        Some(acc) => acc.add(&partial)?,
                    });
                }
                let core = core.ok_or_else(|| {
                    DistError::Invalid("phase 3 produced no partial cores".to_string())
                })?;
                (core, stats3, tasks3)
            }
            Phase3Strategy::ModeShuffle => {
                phase3_mode_shuffle(&join, &proj_factors, engine, &faults)?
            }
        };
        let phase3 = PhaseStats::computed(t3.elapsed().as_secs_f64(), stats3, tasks3);
        // Phase-3 boundary sentinel: the recovered core is the run's output;
        // a non-finite entry here is exactly the "silent garbage core" the
        // guard layer exists to prevent.
        m2td_guard::check_dense("phase3.core", core.dims(), core.as_slice())?;

        Ok(DistDecomposition {
            tucker: TuckerDecomp::new(core, factors)?,
            phase1,
            phase2,
            phase3,
            degraded: !dead_tasks.is_empty(),
            dead_tasks,
            resumed_tasks,
            drained: resume_state.map_or(0, |s| s.drained.into_inner()),
        })
    }
}

/// Phase 3 via the paper's dataflow: one MapReduce job per mode, cells
/// keyed by their all-but-that-mode index, reducers performing the
/// per-fiber vector-matrix multiplication `out[j] = Σ_i v_i U[i, j]`.
/// Shuffle stats and task counters are summed over the per-mode jobs
/// (which all run under [`PHASE3_JOB`]).
fn phase3_mode_shuffle(
    join: &SparseTensor,
    factors: &[m2td_linalg::Matrix],
    engine: &MapReduce,
    faults: &FaultConfig,
) -> Result<(DenseTensor, ShuffleStats, TaskCounters), DistError> {
    let order = join.order();
    let mut cells: Vec<(Vec<usize>, f64)> = join.iter().collect();
    let mut dims: Vec<usize> = join.dims().to_vec();
    let mut total = ShuffleStats::default();
    let mut tasks = TaskCounters::default();

    for mode in 0..order {
        let factor = &factors[mode];
        let r = factor.cols();
        let rest_dims: Vec<usize> = dims
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != mode)
            .map(|(_, &d)| d)
            .collect();
        let rest_shape = Shape::new(&rest_dims);

        let sharded = engine.run(
            &JobSpec {
                job: PHASE3_JOB,
                phase: 3,
                plan: &faults.plan,
                policy: &faults.policy,
                // Per-mode jobs reuse task ids, so manifest-based resume
                // cannot tell them apart — ModeShuffle never parks.
                recovery: None,
            },
            cells,
            |(idx, v): (Vec<usize>, f64)| {
                // Key: the linearized all-but-`mode` index.
                let rest: Vec<usize> = idx
                    .iter()
                    .enumerate()
                    .filter(|&(m, _)| m != mode)
                    .map(|(_, &i)| i)
                    .collect();
                let key = rest_shape.linear_index(&rest) as u64;
                vec![(key, (idx[mode], v))]
            },
            |key, fiber: Vec<(usize, f64)>| {
                // out[j] = Σ_i v_i U[i, j] — the paper's vector-matrix step.
                let mut out = vec![0.0f64; r];
                for (i, v) in fiber {
                    for (slot, j) in out.iter_mut().zip(0..r) {
                        *slot += v * factor.get(i, j);
                    }
                }
                (*key, out)
            },
        )?;
        total.map_records += sharded.stats.map_records;
        total.shuffled_pairs += sharded.stats.shuffled_pairs;
        total.reduce_groups += sharded.stats.reduce_groups;
        tasks.absorb(&sharded.counters);
        let groups = sharded.outputs.into_iter().map(|(_, g)| g);

        // Reassemble the (dense-in-`mode`) intermediate as the next input:
        // mode's extent becomes r.
        dims[mode] = r;
        let mut next: Vec<(Vec<usize>, f64)> = Vec::with_capacity(groups.len() * r);
        let mut rest_idx = vec![0usize; rest_dims.len()];
        for (key, out) in groups {
            rest_shape.multi_index_into(key as usize, &mut rest_idx);
            for (j, &v) in out.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                let mut idx = Vec::with_capacity(order);
                let mut o = 0;
                for m in 0..order {
                    if m == mode {
                        idx.push(j);
                    } else {
                        idx.push(rest_idx[o]);
                        o += 1;
                    }
                }
                next.push((idx, v));
            }
        }
        cells = next;
    }

    // Materialize the core densely.
    let mut core = DenseTensor::zeros(&dims);
    let core_shape = core.shape().clone();
    let data = core.as_mut_slice();
    for (idx, v) in cells {
        data[core_shape.linear_index(&idx)] += v;
    }
    Ok((core, total, tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2td_core::m2td_decompose;
    use m2td_tensor::Shape as TShape;

    /// A temp dir unique per process *and* per call, so concurrent test
    /// binaries (or repeated runs within one) never share checkpoint state.
    fn unique_tmp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
    }

    fn sub_tensors(p_dim: usize, f_dim: usize) -> (SparseTensor, SparseTensor) {
        let f = |p: usize, a: usize, b: usize| {
            ((p as f64) * 0.5).sin() * ((a as f64) * 0.4 + 1.0) * ((b as f64) * 0.3 + 1.0) + 0.2
        };
        let full = |dims: &[usize], g: &dyn Fn(&[usize]) -> f64| {
            let shape = TShape::new(dims);
            let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
                .map(|l| {
                    let idx = shape.multi_index(l);
                    let v = g(&idx);
                    (idx, v)
                })
                .collect();
            SparseTensor::from_entries(dims, &entries).unwrap()
        };
        let x1 = full(&[p_dim, f_dim], &|i: &[usize]| f(i[0], i[1], f_dim / 2));
        let x2 = full(&[p_dim, f_dim], &|i: &[usize]| f(i[0], f_dim / 2, i[1]));
        (x1, x2)
    }

    #[test]
    fn distributed_matches_serial() {
        let (x1, x2) = sub_tensors(6, 5);
        let ranks = [3, 3, 3];
        let opts = M2tdOptions::default();
        let serial = m2td_decompose(&x1, &x2, 1, &ranks, opts).unwrap();
        for workers in [1, 2, 4] {
            let engine = MapReduce::new(workers);
            let dist = d_m2td(&x1, &x2, 1, &ranks, opts, &engine).unwrap();
            let d_core = dist
                .tucker
                .core
                .sub(&serial.tucker.core)
                .unwrap()
                .frobenius_norm();
            assert!(
                d_core < 1e-9,
                "core mismatch with {workers} workers: {d_core}"
            );
            for (a, b) in dist.tucker.factors.iter().zip(serial.tucker.factors.iter()) {
                let d = a.sub(b).unwrap().frobenius_norm();
                assert!(d < 1e-10, "factor mismatch: {d}");
            }
        }
    }

    #[test]
    fn zero_join_distributed_matches_serial() {
        let (x1_full, x2_full) = sub_tensors(6, 5);
        // Thin both tensors to create missingness.
        let thin = |x: &SparseTensor, m: usize| {
            let entries: Vec<(Vec<usize>, f64)> = x
                .iter()
                .enumerate()
                .filter(|(i, _)| i % m != 0)
                .map(|(_, e)| e)
                .collect();
            SparseTensor::from_entries(x.dims(), &entries).unwrap()
        };
        let x1 = thin(&x1_full, 3);
        let x2 = thin(&x2_full, 4);
        let opts = M2tdOptions {
            stitch: StitchKind::ZeroJoin,
            ..Default::default()
        };
        let serial = m2td_decompose(&x1, &x2, 1, &[2, 2, 2], opts).unwrap();
        let dist = d_m2td(&x1, &x2, 1, &[2, 2, 2], opts, &MapReduce::new(3)).unwrap();
        let d = dist
            .tucker
            .core
            .sub(&serial.tucker.core)
            .unwrap()
            .frobenius_norm();
        assert!(d < 1e-9, "zero-join core mismatch: {d}");
    }

    #[test]
    fn mode_shuffle_phase3_matches_chunk_partition() {
        let (x1, x2) = sub_tensors(6, 5);
        let ranks = [3, 3, 3];
        let opts = M2tdOptions::default();
        let engine = MapReduce::new(3);
        let chunk = d_m2td(&x1, &x2, 1, &ranks, opts, &engine).unwrap();
        let shuffle = DistJob {
            opts,
            phase3: Phase3Strategy::ModeShuffle,
            ..DistJob::new(&x1, &x2, 1, &ranks)
        }
        .run(&engine)
        .unwrap();
        let d = chunk
            .tucker
            .core
            .sub(&shuffle.tucker.core)
            .unwrap()
            .frobenius_norm();
        assert!(d < 1e-9, "phase-3 strategies disagree by {d}");
        // The mode-shuffle dataflow moves more data (N jobs).
        assert!(shuffle.phase3.shuffle.shuffled_pairs >= chunk.phase3.shuffle.shuffled_pairs);
    }

    #[test]
    fn mode_shuffle_matches_serial_on_thin_inputs() {
        let (x1_full, x2_full) = sub_tensors(6, 5);
        let thin = |x: &SparseTensor, m: usize| {
            let entries: Vec<(Vec<usize>, f64)> = x
                .iter()
                .enumerate()
                .filter(|(i, _)| i % m != 0)
                .map(|(_, e)| e)
                .collect();
            SparseTensor::from_entries(x.dims(), &entries).unwrap()
        };
        let x1 = thin(&x1_full, 4);
        let x2 = thin(&x2_full, 3);
        let opts = M2tdOptions::default();
        let serial = m2td_decompose(&x1, &x2, 1, &[2, 2, 2], opts).unwrap();
        let dist = DistJob {
            opts,
            phase3: Phase3Strategy::ModeShuffle,
            ..DistJob::new(&x1, &x2, 1, &[2, 2, 2])
        }
        .run(&MapReduce::new(2))
        .unwrap();
        let d = dist
            .tucker
            .core
            .sub(&serial.tucker.core)
            .unwrap()
            .frobenius_norm();
        assert!(d < 1e-9, "mode-shuffle disagrees with serial by {d}");
    }

    #[test]
    fn phase_stats_are_populated() {
        let (x1, x2) = sub_tensors(5, 4);
        let dist = d_m2td(
            &x1,
            &x2,
            1,
            &[2, 2, 2],
            M2tdOptions::default(),
            &MapReduce::new(2),
        )
        .unwrap();
        assert!(dist.phase1.shuffle.map_records > 0);
        assert!(dist.phase2.shuffle.shuffled_pairs > 0);
        assert!(dist.phase3.shuffle.reduce_groups >= 1);
        // Phase 2's shuffle moves every input entry.
        assert_eq!(dist.phase2.shuffle.map_records, x1.nnz() + x2.nnz());
        // Fault-free: attempts ran, nothing was killed, nothing resumed.
        assert!(dist.total_tasks().attempts() > 0);
        assert_eq!(dist.total_tasks().kills(), 0);
        assert!(!dist.phase1.resumed && !dist.phase2.resumed && !dist.phase3.resumed);
    }

    #[test]
    fn cluster_projection_shows_phase3_dominance() {
        let (x1, x2) = sub_tensors(8, 7);
        let dist = d_m2td(
            &x1,
            &x2,
            1,
            &[3, 3, 3],
            M2tdOptions::default(),
            &MapReduce::new(2),
        )
        .unwrap();
        let model = ClusterModel::new(4);
        let c3 = dist.phase3.on_cluster(&model);
        // Phase 3 shuffles the (much larger) join tensor.
        assert!(
            dist.phase3.shuffle.map_records > dist.phase2.shuffle.map_records,
            "join tensor should dwarf the input entries"
        );
        assert!(c3.total() > 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (x1, x2) = sub_tensors(4, 3);
        let e = MapReduce::new(2);
        assert!(d_m2td(&x1, &x2, 0, &[2, 2, 2], M2tdOptions::default(), &e).is_err());
        assert!(d_m2td(&x1, &x2, 1, &[2, 2], M2tdOptions::default(), &e).is_err());
        let empty = SparseTensor::empty(&[4, 3]);
        assert!(d_m2td(&x1, &empty, 1, &[2, 2, 2], M2tdOptions::default(), &e).is_err());
    }

    #[test]
    fn faulty_run_bitwise_matches_fault_free() {
        let (x1, x2) = sub_tensors(6, 5);
        let ranks = [3, 3, 3];
        let opts = M2tdOptions::default();
        let engine = MapReduce::new(3);
        let clean = d_m2td(&x1, &x2, 1, &ranks, opts, &engine).unwrap();
        let faults = FaultConfig {
            plan: FaultPlan::new(21, 0.5, 0.4, 30.0),
            policy: RetryPolicy::default(),
        };
        let faulty = DistJob {
            opts,
            faults,
            ..DistJob::new(&x1, &x2, 1, &ranks)
        }
        .run(&engine)
        .unwrap();
        assert_eq!(
            clean.tucker.core.as_slice(),
            faulty.tucker.core.as_slice(),
            "core not bitwise identical under faults"
        );
        for (a, b) in clean
            .tucker
            .factors
            .iter()
            .zip(faulty.tucker.factors.iter())
        {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert!(faulty.total_tasks().kills() > 0, "no kills injected");
    }

    #[test]
    fn channel_transport_matches_direct_bitwise() {
        let (x1, x2) = sub_tensors(6, 5);
        let ranks = [3, 3, 3];
        let opts = M2tdOptions::default();
        let direct = d_m2td(
            &x1,
            &x2,
            1,
            &ranks,
            opts,
            &MapReduce::new(3).with_transport(crate::TransportKind::Direct),
        )
        .unwrap();
        let channel = d_m2td(
            &x1,
            &x2,
            1,
            &ranks,
            opts,
            &MapReduce::new(3).with_transport(crate::TransportKind::Channel),
        )
        .unwrap();
        assert_eq!(
            direct.tucker.core.as_slice(),
            channel.tucker.core.as_slice(),
            "transport changed the core"
        );
        for (a, b) in direct
            .tucker
            .factors
            .iter()
            .zip(channel.tucker.factors.iter())
        {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn doomed_phase3_task_completes_degraded_then_converges_after_requeue() {
        let dir = unique_tmp_dir("m2td_dmtd_resume_unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = ManifestStore::open(&dir).unwrap();
        let (x1, x2) = sub_tensors(6, 5);
        let ranks = [3, 3, 3];
        let opts = M2tdOptions::default();
        let engine = MapReduce::new(2); // 2 phase-3 partitions
        let clean = d_m2td(&x1, &x2, 1, &ranks, opts, &engine).unwrap();

        // Run 1: partial core 1's every attempt dies — degraded result.
        let doomed = FaultConfig {
            plan: FaultPlan::none().in_job(PHASE3_JOB).with_doom_mask(1 << 1),
            policy: RetryPolicy::default(),
        };
        let dlq = DlqStore::open(&dir);
        let recovery = JobRecovery::new(&manifest, &dlq).with_min_coverage(0.5);
        let job = DistJob {
            opts,
            recovery: Some(recovery),
            ..DistJob::new(&x1, &x2, 1, &ranks)
        };
        let report = DistJob {
            faults: doomed,
            ..job
        }
        .run(&engine)
        .unwrap();
        assert!(report.degraded);
        assert_eq!(report.dead_tasks, vec![1]);
        assert_eq!(dlq.depth(), 1);
        let entry = &dlq.entries()[0];
        assert_eq!((entry.job, entry.phase, entry.task), (PHASE3_JOB, 3, 1));
        assert_eq!(entry.attempts, RetryPolicy::default().max_attempts);
        // The degraded core differs from the clean one (cells missing).
        assert_ne!(report.tucker.core.as_slice(), clean.tucker.core.as_slice());

        // A tighter floor refuses the same degradation outright.
        let strict = JobRecovery::new(&manifest, &dlq).with_min_coverage(0.9);
        let err = DistJob {
            faults: doomed,
            recovery: Some(strict),
            ..job
        }
        .run(&engine)
        .unwrap_err();
        assert!(matches!(err, DistError::Worker(_)), "got {err}");

        // Run 2: requeue, drop the doom — converges to the clean result.
        assert_eq!(dlq.requeue_all().unwrap(), 1);
        let report2 = job.run(&engine).unwrap();
        assert!(!report2.degraded);
        assert_eq!(report2.drained, 1);
        assert!(report2.resumed_tasks > 0, "manifest resumed nothing");
        assert_eq!(dlq.depth(), 0);
        assert_eq!(
            report2.tucker.core.as_slice(),
            clean.tucker.core.as_slice(),
            "requeued run is not bitwise identical to the clean run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_phase1_task_is_a_hard_error_but_still_parks() {
        let dir = unique_tmp_dir("m2td_dmtd_p1dead_unit");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = ManifestStore::open(&dir).unwrap();
        let dlq = DlqStore::open(&dir);
        let (x1, x2) = sub_tensors(5, 4);
        // Phase 1 reduce task 0 (κ=1) is doomed: no degraded completion.
        let doomed = FaultConfig {
            plan: FaultPlan::none().in_job(PHASE1_JOB).with_doom_mask(1),
            policy: RetryPolicy::default(),
        };
        let err = DistJob {
            faults: doomed,
            recovery: Some(JobRecovery::new(&manifest, &dlq)),
            ..DistJob::new(&x1, &x2, 1, &[2, 2, 2])
        }
        .run(&MapReduce::new(2))
        .unwrap_err();
        assert!(matches!(err, DistError::Exhausted(_)), "got {err}");
        // The corpse is in the queue for forensics and requeue.
        assert_eq!(dlq.depth(), 1);
        assert_eq!(dlq.entries()[0].job, PHASE1_JOB);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_resumes_phases() {
        let dir = unique_tmp_dir("m2td_dmtd_ckpt_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let (x1, x2) = sub_tensors(6, 5);
        let ranks = [3, 3, 3];
        let opts = M2tdOptions::default();
        let engine = MapReduce::new(2);
        let job = DistJob {
            opts,
            checkpoint: Some(&store),
            ..DistJob::new(&x1, &x2, 1, &ranks)
        };
        let first = job.run(&engine).unwrap();
        assert!(!first.phase1.resumed && !first.phase2.resumed);
        let second = job.run(&engine).unwrap();
        assert!(second.phase1.resumed && second.phase2.resumed);
        assert_eq!(second.phase1.tasks.attempts(), 0);
        assert_eq!(second.phase2.tasks.attempts(), 0);
        assert!(second.phase3.tasks.attempts() > 0);
        assert_eq!(
            first.tucker.core.as_slice(),
            second.tucker.core.as_slice(),
            "resumed core differs"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
