//! The three phases of D-M2TD (Section VI-D), executed on the
//! [`crate::MapReduce`] engine.
//!
//! It is one schedule of the M2TD algorithm, not a second algorithm: the
//! reducers and the driver call the same per-phase kernels as the serial
//! `m2td_core::m2td_decompose_multi`.
//!
//! * **Phase 1 — parallel sub-tensor decomposition**: entries are tagged
//!   with their sub-tensor id `κ ∈ {1, 2}` and shuffled so each reducer
//!   receives one sub-tensor and runs [`m2td_core::phase1_side`] on it.
//!   The driver then runs [`m2td_core::assemble_factors`] (AVG/CONCAT/
//!   SELECT on the pivot modes).
//! * **Phase 2 — parallel JE-stitching**: entries are shuffled by their
//!   pivot configuration; each reducer emits its pivot group's join cells
//!   with [`JoinLattice::emit_pivot`], the stitch kernel's per-pivot step.
//! * **Phase 3 — parallel core recovery**: join cells are partitioned
//!   across reducers; each runs [`m2td_core::recover_core`] on its cells
//!   (TTM is linear in the tensor, so partial cores sum to the exact
//!   core).
//!
//! A [`DistJob`] carries the inputs plus every execution setting; its
//! defaults are the fault-free run.
//!
//! ## Fault tolerance
//!
//! With a seeded [`FaultConfig`], task kills are retried with
//! deterministic virtual backoff and stragglers are rescued by
//! speculative re-execution. With a [`JobRecovery`], every completed
//! reduce task is recorded in the job manifest, so a later run over the
//! same inputs re-runs only the unrecorded reduce tasks of each phase,
//! and none at all of a phase 1 or 2 that finished. Because every task
//! is pure, any fault schedule that eventually succeeds produces factors
//! and a core **bitwise identical** to the fault-free run at every
//! `M2TD_THREADS` setting; `tests/fault_determinism.rs` pins this.

use crate::cluster::{ClusterModel, PhaseCost};
use crate::dlq::{DlqEntry, DlqStore};
use crate::manifest::{Fingerprint, ManifestLog, ManifestStore};
use crate::mapreduce::{JobOutput, JobSpec, MapReduce, ShuffleStats, TaskState, WaveRecovery};
use crate::scheduler::DeadTask;
use crate::transport::TaskEnvelope;
use crate::wire::TaskOutcome;
use m2td_core::{CoreError, M2tdOptions};
use m2td_fault::{FaultError, FaultPlan, RetryPolicy, TaskCounters};
use m2td_json::{FromJson, Json, JsonError, ToJson};
use m2td_linalg::Matrix;
use m2td_stitch::{JoinLattice, PivotGroup};
use m2td_tensor::{DenseTensor, SparseTensor, TuckerDecomp};
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
    /// The job manifest could not be opened.
    Manifest(String),
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
            DistError::Manifest(s) => write!(f, "manifest error: {s}"),
            DistError::Worker(s) => write!(f, "worker error: {s}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Core(e) => Some(e),
            DistError::Invalid(_) | DistError::Manifest(_) | DistError::Worker(_) => None,
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

/// The manifest's form of a recorded outcome: `{"ok": …}` or `{"fail": …}`.
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

/// What a phase's job reports besides its outputs.
type JobTally = (ShuffleStats, TaskCounters);

/// The reduce outputs of phase 1 or 2, in task order, and the shuffle
/// statistics and task counters of the job that produced them. A phase
/// the manifest records as finished runs no task: its recorded outputs
/// are decoded instead and the job part is `None`. An output that does
/// not decode makes the phase run, as the engine recomputes such a task.
fn run_or_resume<R: FromJson>(
    state: Option<&ResumeState>,
    phase: u8,
    resumed_tasks: &mut usize,
    run: impl FnOnce() -> Result<JobOutput<R>, FaultError>,
) -> Result<(Vec<R>, Option<JobTally>), DistError> {
    let recorded = state.and_then(|s| {
        let log = s
            .manifest
            .lock()
            .expect("no task panics holding the manifest");
        let outputs = log.manifest().phases.get(&phase)?.finished_outputs()?;
        outputs
            .map(|doc| R::from_json(doc).ok())
            .collect::<Option<Vec<R>>>()
    });
    if let Some(outputs) = recorded {
        *resumed_tasks += outputs.len();
        m2td_obs::counter_add("manifest.tasks_resumed", outputs.len() as u64);
        return Ok((outputs, None));
    }
    let out = run()?;
    require_full_coverage(phase, &out)?;
    *resumed_tasks += out.resumed;
    let outputs = out.outputs.into_iter().map(|(_, r)| r).collect();
    Ok((outputs, Some((out.stats, out.counters))))
}

/// The [`JobSpec`] of one phase's job under `faults`, with the phase's
/// recovery hook if the run has one.
fn job_spec<'a>(
    job: u64,
    phase: u8,
    faults: &'a FaultConfig,
    recovery: &'a Option<PhaseRecovery<'_>>,
) -> JobSpec<'a> {
    JobSpec {
        job,
        phase,
        plan: &faults.plan,
        policy: &faults.policy,
        recovery: recovery.as_ref().map(|r| r as &dyn WaveRecovery),
    }
}

/// Job ids the three phases run under — a [`FaultPlan`] scoped with
/// [`FaultPlan::in_job`] targets exactly one phase.
pub const PHASE1_JOB: u64 = 1;
/// See [`PHASE1_JOB`].
pub const PHASE2_JOB: u64 = 2;
/// See [`PHASE1_JOB`].
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
    /// All-zero for a resumed phase.
    pub tasks: TaskCounters,
    /// True if this phase ran no task because the job manifest records it
    /// as finished; its output was rebuilt from the recorded outputs.
    pub resumed: bool,
}

impl PhaseStats {
    /// Stats of a phase begun at `start`: `ran` holds its job's shuffle
    /// statistics and task counters, `None` marks a resumed phase.
    fn new(start: Instant, ran: Option<JobTally>) -> Self {
        let Some((shuffle, tasks)) = ran else {
            return Self {
                serial_secs: 0.0,
                shuffle: ShuffleStats::default(),
                tasks: TaskCounters::default(),
                resumed: true,
            };
        };
        Self {
            serial_secs: start.elapsed().as_secs_f64(),
            shuffle,
            tasks,
            resumed: false,
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

/// Runs fault-free D-M2TD over two PF-partitioned sub-tensors:
/// [`DistJob::new`] with `opts`, run on `engine`.
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
/// use m2td_core::{M2tdOptions, PivotCombine};
/// use m2td_dist::{DistJob, MapReduce};
/// use m2td_tensor::SparseTensor;
///
/// let cells = |c: f64| -> Vec<(Vec<usize>, f64)> {
///     (0..12).map(|l| (vec![l / 3, l % 3], c + l as f64)).collect()
/// };
/// let x1 = SparseTensor::from_entries(&[4, 3], &cells(1.0)).unwrap();
/// let x2 = SparseTensor::from_entries(&[4, 3], &cells(2.0)).unwrap();
/// let average = M2tdOptions {
///     combine: PivotCombine::Average,
///     ..M2tdOptions::default()
/// };
/// let dist = DistJob {
///     opts: average,
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
    /// Injected faults and the retry policy that answers them.
    pub faults: FaultConfig,
    /// Job-level resume and dead-letter queue. `None` fails the job on
    /// the first exhausted task and resumes nothing.
    pub recovery: Option<JobRecovery<'a>>,
}

impl<'a> DistJob<'a> {
    /// The fault-free job: default options, no injected faults, no
    /// recovery layer.
    pub fn new(x1: &'a SparseTensor, x2: &'a SparseTensor, k: usize, ranks: &'a [usize]) -> Self {
        Self {
            x1,
            x2,
            k,
            ranks,
            opts: M2tdOptions::default(),
            faults: FaultConfig::none(),
            recovery: None,
        }
    }

    /// Runs the three phases on `engine`.
    ///
    /// The factors and the join tensor are bitwise equal to those of the
    /// serial [`m2td_core::m2td_decompose`] at every worker count. The
    /// core is bitwise equal to the serial core at one worker; at `W`
    /// workers it is the sum, in chunk order, of `W` partial cores over the
    /// cells of each linear index class mod `W`, which is the one
    /// reduction whose order differs.
    ///
    /// Without a [`recovery`](Self::recovery) layer, a task killed on
    /// every allowed attempt surfaces [`DistError::Exhausted`].
    ///
    /// With one, every completed reduce task (with its serialized output)
    /// is appended to the input-fingerprinted [`ManifestLog`], so a process
    /// killed mid-phase and restarted over the same inputs re-runs only
    /// incomplete tasks. Phase 1 or 2 finished by an earlier run runs no
    /// task at all, reporting `resumed = true` and all-zero
    /// [`TaskCounters`]; phase 3 replays task by task, because its task
    /// set depends on the worker count, which the input fingerprint does
    /// not cover. An exhausted task is parked in the
    /// [`DlqStore`] with its envelope and attempt history instead of
    /// failing the job. Phases 1 and 2 still require full coverage (their
    /// outputs feed everything downstream), but phase 3 completes
    /// **degraded** — summing
    /// the surviving partial cores — as long as coverage stays at or above
    /// [`JobRecovery::min_coverage`]. `m2td-cli dlq requeue` marks parked
    /// tasks for re-execution; the next run re-runs them and drains their
    /// entries on success.
    ///
    /// The determinism invariant: because tasks are pure, any fault
    /// schedule that eventually succeeds (including one interrupted and
    /// resumed from the manifest) yields factors and core
    /// bitwise identical to the fault-free run, at every thread count.
    pub fn run(&self, engine: &MapReduce) -> Result<DistDecomposition, DistError> {
        let DistJob {
            x1,
            x2,
            k,
            ranks,
            opts,
            faults,
            recovery,
        } = *self;
        let subs = [x1, x2];
        m2td_core::validate_inputs(&subs, k, ranks)?;
        // Resume state: the previous run's manifest (absent or wrong-
        // fingerprint logs degrade to a fresh one) plus drain tally. Only
        // the manifest reads the fingerprint: a plain run never hashes its
        // inputs.
        let resume_state = recovery
            .map(|r| -> Result<_, DistError> {
                let fp = Fingerprint::new(x1, x2, k, ranks, &opts);
                Ok(ResumeState {
                    manifest: Mutex::new(r.manifest.resume(&fp).map_err(DistError::Manifest)?),
                    drained: AtomicUsize::new(0),
                })
            })
            .transpose()?;
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
        let state = resume_state.as_ref();
        let mut resumed_tasks = 0;

        // Tagged entry stream: (κ, linear index, value), x1's entries then
        // x2's, each ascending. MapReduce hands every reducer its values in
        // this order.
        let tagged: Vec<(u8, u64, f64)> = x1
            .iter_linear()
            .map(|(l, v)| (1u8, l, v))
            .chain(x2.iter_linear().map(|(l, v)| (2u8, l, v)))
            .collect();
        let side = |kappa: u8| usize::from(kappa) - 1;

        // ---- Phase 1: parallel sub-tensor decomposition ---------------------
        // Each reducer runs the phase-1 kernel on one sub-tensor; the driver
        // runs the factor assembly. Span labels are shared with
        // `m2td_core::m2td_decompose_multi`, so telemetry consumers see one
        // taxonomy regardless of which schedule ran.
        let span1 = m2td_obs::span!("phase1.decompose");
        let t1 = Instant::now();
        let offsets = m2td_core::free_offsets(&subs, k);
        let rec1 = phase_recovery(PHASE1_JOB, 1);
        let (outcomes, ran1) = run_or_resume(state, 1, &mut resumed_tasks, || {
            engine.run(
                &job_spec(PHASE1_JOB, 1, &faults, &rec1),
                &tagged,
                subs.len(),
                |&(kappa, lin, v)| (side(kappa), (lin, v)),
                |s, entries: &[(u64, f64)]| -> TaskOutcome<(Vec<Matrix>, Vec<Matrix>)> {
                    let compute = || -> Result<_, DistError> {
                        let (indices, values) = entries.iter().copied().unzip();
                        let x = SparseTensor::from_sorted_linear(subs[s].dims(), indices, values)?;
                        Ok(m2td_core::phase1_side(&x, k, ranks, offsets[s])?)
                    };
                    compute().into()
                },
            )
        })?;
        let sides = outcomes
            .into_iter()
            .map(TaskOutcome::into_result)
            .collect::<Result<Vec<_>, _>>()?;
        if sides.len() != 2 {
            return Err(DistError::Invalid(
                "one of the sub-tensors is empty".to_string(),
            ));
        }
        let factors = m2td_core::assemble_factors(opts.combine, sides, k)?;
        let phase1 = PhaseStats::new(t1, ran1);
        drop(span1);

        // ---- Phase 2: parallel JE-stitching ---------------------------------
        // Entries are partitioned by pivot; each reducer emits its pivot's
        // join cells with the stitch kernel. Pivots arrive ascending and
        // cells ascend within a pivot, so the concatenated outputs are the
        // join tensor's sorted storage.
        let span2 = m2td_obs::span!("phase2.stitch");
        let t2 = Instant::now();
        let join_dims: Vec<usize> = x1.dims().iter().chain(&x2.dims()[k..]).copied().collect();
        let lattice = JoinLattice::new(&subs, k, opts.stitch);
        let rec2 = phase_recovery(PHASE2_JOB, 2);
        let pivots = x1.dims()[..k].iter().product();
        let (pivot_cells, ran2) = run_or_resume(state, 2, &mut resumed_tasks, || {
            engine.run(
                &job_spec(PHASE2_JOB, 2, &faults, &rec2),
                &tagged,
                pivots,
                |&(kappa, lin, v)| {
                    let (p, f) = lattice.locate(side(kappa), lin);
                    (p as usize, (kappa, f, v))
                },
                |p, entries: &[(u8, u64, f64)]| -> Vec<(u64, f64)> {
                    // x1's entries come first, each side's ascending.
                    let (free, values): (Vec<u64>, Vec<f64>) =
                        entries.iter().map(|&(_, f, v)| (f, v)).unzip();
                    let x1_len = entries.iter().take_while(|e| e.0 == 1).count();
                    let groups = [0..x1_len, x1_len..entries.len()].map(|r| PivotGroup {
                        free: &free[r.clone()],
                        values: &values[r],
                    });
                    let cells = lattice.cell_count(&groups);
                    let (mut join_indices, mut join_values) =
                        (Vec::with_capacity(cells), Vec::with_capacity(cells));
                    lattice.emit_pivot(p as u64, &groups, &mut join_indices, &mut join_values);
                    join_indices.into_iter().zip(join_values).collect()
                },
            )
        })?;
        let (indices, values) = pivot_cells.into_iter().flatten().unzip();
        let join = SparseTensor::from_sorted_linear(&join_dims, indices, values)?;
        let phase2 = PhaseStats::new(t2, ran2);
        drop(span2);
        m2td_core::check_join(&join)?;

        // ---- Phase 3: parallel core recovery --------------------------------
        let _span3 = m2td_obs::span!("phase3.core");
        let t3 = Instant::now();
        let mut dead_tasks = Vec::new();
        // Join cells are dealt round-robin by linear index (partition
        // `lin % W`); each reducer runs the core-recovery kernel on its
        // chunk, whose cells arrive ascending.
        let partitions = engine.workers();
        let rec3 = phase_recovery(PHASE3_JOB, 3);
        let sharded3 = engine.run(
            &job_spec(PHASE3_JOB, 3, &faults, &rec3),
            &join.iter_linear().collect::<Vec<_>>(),
            partitions,
            |&(lin, v)| ((lin % partitions as u64) as usize, (lin, v)),
            |_, cells: &[(u64, f64)]| -> TaskOutcome<DenseTensor> {
                let compute = || -> Result<_, DistError> {
                    let (indices, values) = cells.iter().copied().unzip();
                    let chunk = SparseTensor::from_sorted_linear(&join_dims, indices, values)?;
                    Ok(m2td_core::recover_core(&chunk, &factors, opts)?)
                };
                compute().into()
            },
        )?;
        resumed_tasks += sharded3.resumed;
        // Degraded completion: partial cores sum, so a missing task
        // only loses its cells' contribution. Refuse below the
        // coverage floor (or at all without a recovery layer — the
        // wave then fails before reaching here).
        let total = sharded3.stats.reduce_groups.max(1);
        let missing = sharded3.dead.len() + sharded3.skipped_dead.len();
        if missing > 0 {
            let covered = (total - missing) as f64 / total as f64;
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
        let mut core: Option<DenseTensor> = None;
        for (_, outcome) in sharded3.outputs {
            let partial = outcome.into_result()?;
            core = Some(match core {
                None => partial,
                Some(acc) => acc.add(&partial)?,
            });
        }
        let core = core
            .ok_or_else(|| DistError::Invalid("phase 3 produced no partial cores".to_string()))?;
        let phase3 = PhaseStats::new(t3, Some((sharded3.stats, sharded3.counters)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use m2td_core::m2td_decompose;
    use m2td_stitch::StitchKind;
    use m2td_tensor::{CoreOrdering, Shape as TShape};

    /// A temp dir unique per process *and* per call, so concurrent test
    /// binaries (or repeated runs within one) never share manifest state.
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
        assert!(dist.phase1.shuffle.shuffled_pairs > 0);
        assert!(dist.phase2.shuffle.shuffled_pairs > 0);
        assert!(dist.phase3.shuffle.reduce_groups >= 1);
        // Phase 2's shuffle moves every input entry.
        assert_eq!(dist.phase2.shuffle.shuffled_pairs, x1.nnz() + x2.nnz());
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
            dist.phase3.shuffle.shuffled_pairs > dist.phase2.shuffle.shuffled_pairs,
            "join tensor should dwarf the input entries"
        );
        assert!(c3.total() > 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (x1, x2) = sub_tensors(4, 3);
        let e = MapReduce::new(2);
        let opts = M2tdOptions::default();
        let invalid = |r: Result<DistDecomposition, DistError>| {
            matches!(r, Err(DistError::Core(CoreError::InvalidInput { .. })))
        };
        // Bad pivot count, wrong rank count, a zero rank and a rank above
        // its mode's extent are all refused before any phase runs.
        assert!(invalid(d_m2td(&x1, &x2, 0, &[2, 2, 2], opts, &e)));
        assert!(invalid(d_m2td(&x1, &x2, 1, &[2, 2], opts, &e)));
        assert!(invalid(d_m2td(&x1, &x2, 1, &[0, 2, 2], opts, &e)));
        assert!(invalid(d_m2td(&x1, &x2, 1, &[2, 2, 4], opts, &e)));
        let empty = SparseTensor::empty(&[4, 3]);
        assert!(matches!(
            d_m2td(&x1, &empty, 1, &[2, 2, 2], opts, &e),
            Err(DistError::Invalid(_))
        ));
    }

    #[test]
    fn core_ordering_option_reaches_phase3() {
        let cells = |dims: [usize; 2], c: f64| {
            let shape = TShape::new(&dims);
            let entries: Vec<(Vec<usize>, f64)> = (0..shape.num_elements())
                .map(|l| {
                    (
                        shape.multi_index(l),
                        ((l as f64) * 0.37 + c).sin() + 0.1 * c,
                    )
                })
                .collect();
            SparseTensor::from_entries(&dims, &entries).unwrap()
        };
        let (x1, x2) = (cells([3, 9], 1.0), cells([3, 7], 2.0));
        let ranks = [3, 2, 4];
        for ordering in [CoreOrdering::Natural, CoreOrdering::BestShrinkFirst] {
            let opts = M2tdOptions {
                ordering,
                ..M2tdOptions::default()
            };
            let serial = m2td_decompose(&x1, &x2, 1, &ranks, opts).unwrap();
            let engine = MapReduce::new(1).with_transport(crate::TransportKind::Direct);
            let dist = d_m2td(&x1, &x2, 1, &ranks, opts, &engine).unwrap();
            assert_eq!(
                dist.tucker.core.as_slice(),
                serial.tucker.core.as_slice(),
                "{ordering:?}: D-M2TD core differs from serial"
            );
        }
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
    fn manifest_resumed_run_skips_finished_phases() {
        let dir = unique_tmp_dir("m2td_dmtd_manifest_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = ManifestStore::open(&dir).unwrap();
        let dlq = DlqStore::open(&dir);
        let (x1, x2) = sub_tensors(6, 5);
        let ranks = [3, 3, 3];
        let opts = M2tdOptions::default();
        let engine = MapReduce::new(2);
        let job = DistJob {
            opts,
            recovery: Some(JobRecovery::new(&manifest, &dlq)),
            ..DistJob::new(&x1, &x2, 1, &ranks)
        };
        let first = job.run(&engine).unwrap();
        assert!(!first.phase1.resumed && !first.phase2.resumed);
        assert_eq!(first.resumed_tasks, 0);
        let second = job.run(&engine).unwrap();
        assert!(second.phase1.resumed && second.phase2.resumed);
        assert_eq!(second.phase1.tasks.attempts(), 0);
        assert_eq!(second.phase2.tasks.attempts(), 0);
        assert!(second.phase3.tasks.attempts() > 0);
        // Every reduce task of the three phases replays from the manifest.
        let groups = |d: &DistDecomposition| {
            [&d.phase1, &d.phase2, &d.phase3].map(|p| p.shuffle.reduce_groups)
        };
        assert_eq!(second.resumed_tasks, groups(&first).iter().sum::<usize>());
        assert_eq!(groups(&second), [0, 0, 2]);
        assert_eq!(
            first.tucker.core.as_slice(),
            second.tucker.core.as_slice(),
            "resumed core differs"
        );
        // A recorded output that does not decode runs its phase again, and
        // the engine recomputes only that task.
        let fp = Fingerprint::new(&x1, &x2, 1, &ranks, &opts);
        let mut log = manifest.resume(&fp).unwrap();
        log.record_complete(1, 0, Json::Null).unwrap();
        drop(log);
        let third = job.run(&engine).unwrap();
        assert!(!third.phase1.resumed && third.phase2.resumed);
        assert_eq!(third.phase1.tasks.reduce_attempts, 1);
        assert_eq!(first.tucker.core.as_slice(), third.tucker.core.as_slice());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_runs_record_one_begin_per_phase() {
        let dir = unique_tmp_dir("m2td_dmtd_begin_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = ManifestStore::open(&dir).unwrap();
        let dlq = DlqStore::open(&dir);
        let (x1, x2) = sub_tensors(6, 5);
        let ranks = [3, 3, 3];
        let job = DistJob {
            recovery: Some(JobRecovery::new(&manifest, &dlq)),
            ..DistJob::new(&x1, &x2, 1, &ranks)
        };
        let engine = MapReduce::new(2);
        let path = dir.join(ManifestStore::FILE_NAME);
        let first = job.run(&engine).unwrap();
        let mut logs = Vec::new();
        for _ in 0..2 {
            let again = job.run(&engine).unwrap();
            assert_eq!(again.tucker.core.as_slice(), first.tucker.core.as_slice());
            assert!(again.phase1.resumed && again.phase2.resumed);
            logs.push(std::fs::read_to_string(&path).unwrap());
        }
        // Phase 3 re-begins on every resume, with the total the manifest
        // already holds: that appends no second `begin` record.
        for phase in 1..=3 {
            let begin = format!("\"phase\":{phase},\"begin\":");
            let records = logs[1].lines().filter(|l| l.contains(&begin)).count();
            assert_eq!(records, 1, "phase {phase} has {records} begin records");
        }
        assert_eq!(logs[0], logs[1], "a fully resumed run appended to the log");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
