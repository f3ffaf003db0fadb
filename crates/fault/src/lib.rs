//! # m2td-fault — deterministic fault injection and retry policies
//!
//! Real ensemble campaigns lose work: simulation runs diverge or time out,
//! and MapReduce workers die or straggle mid-phase. This crate is the
//! workspace's *failure model*: a seeded, fully deterministic description
//! of which task attempts are killed, which straggle and by how much, and
//! which simulation runs fail — plus the [`RetryPolicy`] that governs how
//! the execution engines respond (bounded attempts, deterministic backoff
//! in virtual time, speculative re-execution of stragglers).
//!
//! ## Determinism contract
//!
//! Every fault decision is a pure function of `(seed, scope, task, attempt)`
//! via a splitmix-style hash — no wall clock, no OS entropy, no ordering
//! sensitivity. Two processes evaluating the same [`FaultPlan`] therefore
//! agree on every injected fault, regardless of thread count or scheduling.
//! Because the tasks the engines retry are themselves pure, any fault
//! schedule that eventually succeeds yields results bitwise identical to
//! the fault-free run; faults can only change *virtual time* and the
//! execution counters, never the numerics.
//!
//! Time here is **virtual**: a killed attempt charges its backoff delay and
//! a straggler charges its injected delay to an accumulator, but nothing
//! ever sleeps. This keeps fault-injection tests instantaneous while still
//! exercising the scheduling mathematics the cluster cost model consumes.

use std::fmt;

/// Which execution scope a fault decision applies to. The engines name
/// their jobs (D-M2TD uses one job id per phase), so a plan can target a
/// single phase or the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// Faults apply to every job.
    AllJobs,
    /// Faults apply only to the job with this id.
    Job(u64),
}

/// The kind of task a fault decision is being made for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// A map task (one input chunk).
    Map,
    /// A reduce task (one key group).
    Reduce,
    /// A simulation run (one parameter configuration).
    Simulation,
}

impl TaskKind {
    fn stream(self) -> u64 {
        match self {
            TaskKind::Map => 0x6d61_7000,
            TaskKind::Reduce => 0x7265_6400,
            TaskKind::Simulation => 0x7369_6d00,
        }
    }
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskKind::Map => write!(f, "map"),
            TaskKind::Reduce => write!(f, "reduce"),
            TaskKind::Simulation => write!(f, "simulation"),
        }
    }
}

/// A checkpoint mutation injected by the corruption stream. Each kind
/// models a distinct real-world failure: a flipped bit on disk, a torn
/// (partial) write that survived a crash, and a record written by an older
/// incompatible format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionKind {
    /// Flip one bit somewhere in the record body.
    BitFlip,
    /// Truncate the record (a torn write).
    Truncate,
    /// Rewrite the record claiming an older format version.
    StaleVersion,
}

impl fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionKind::BitFlip => write!(f, "bit-flip"),
            CorruptionKind::Truncate => write!(f, "truncate"),
            CorruptionKind::StaleVersion => write!(f, "stale-version"),
        }
    }
}

/// A serve-engine operation the crash stream can kill the process at.
/// Kill points are keyed by `(op, sequence)`: the `sequence` is the
/// engine's running count of that operation, so "crash at the 3rd WAL
/// append" is a deterministic, replayable event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashOp {
    /// Entry into an absorb, before its WAL record is written (the write
    /// is lost entirely — durability is never promised for it).
    Absorb,
    /// Entry into a model refresh (absorbed state is durable; the refresh
    /// must be re-derived on recovery).
    Refresh,
    /// Immediately after a WAL record reaches the log but before it is
    /// applied in memory (durable-but-unapplied; replay must apply it).
    WalAppend,
    /// Between a snapshot's temp-file write and its rename into place
    /// (the snapshot must never be observed half-published).
    SnapshotWrite,
}

impl CrashOp {
    /// Every kill point, in the order the crash-matrix sweeps them.
    pub const ALL: [CrashOp; 4] = [
        CrashOp::Absorb,
        CrashOp::Refresh,
        CrashOp::WalAppend,
        CrashOp::SnapshotWrite,
    ];

    fn stream(self) -> u64 {
        match self {
            CrashOp::Absorb => 0x6162_7300,
            CrashOp::Refresh => 0x7266_7300,
            CrashOp::WalAppend => 0x7761_6c00,
            CrashOp::SnapshotWrite => 0x736e_7000,
        }
    }
}

impl fmt::Display for CrashOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashOp::Absorb => write!(f, "absorb"),
            CrashOp::Refresh => write!(f, "refresh"),
            CrashOp::WalAppend => write!(f, "wal-append"),
            CrashOp::SnapshotWrite => write!(f, "snapshot-write"),
        }
    }
}

impl std::str::FromStr for CrashOp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "absorb" => Ok(CrashOp::Absorb),
            "refresh" => Ok(CrashOp::Refresh),
            "wal-append" => Ok(CrashOp::WalAppend),
            "snapshot-write" => Ok(CrashOp::SnapshotWrite),
            other => Err(format!(
                "unknown crash op '{other}' (expected absorb|refresh|wal-append|snapshot-write)"
            )),
        }
    }
}

/// The outcome a [`FaultPlan`] injects for one task attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// The attempt runs to completion normally.
    Ok,
    /// The attempt is killed; its output (if any) must be discarded and
    /// the task retried under the [`RetryPolicy`].
    Kill,
    /// The attempt completes but is delayed by this many virtual seconds
    /// (a straggler). Speculative re-execution may rescue it.
    Straggle(f64),
}

/// A seeded, deterministic fault-injection plan.
///
/// Rates are per-*attempt* probabilities evaluated on independent hash
/// streams, so a task killed on attempt 0 gets a fresh draw on attempt 1.
/// `kill_cap` bounds the number of consecutive kills injected into any one
/// task (modelling a scheduler that blacklists bad nodes); with a cap below
/// the retry budget, every fault schedule eventually succeeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of every hash stream.
    pub seed: u64,
    /// Probability that a map/reduce task attempt is killed.
    pub kill_rate: f64,
    /// Probability that a map/reduce task attempt straggles.
    pub straggle_rate: f64,
    /// Virtual delay injected into a straggling attempt, in seconds.
    pub straggle_secs: f64,
    /// Probability that one simulation *attempt* fails (run diverged,
    /// solver timed out). Evaluated per attempt like `kill_rate`.
    pub sim_fail_rate: f64,
    /// Upper bound on consecutive kills injected into one task;
    /// `u32::MAX` disables the cap (useful to force retry exhaustion).
    pub kill_cap: u32,
    /// Probability that a freshly written phase checkpoint is corrupted
    /// on "disk" (the corruption stream; see [`FaultPlan::ckpt_corruption`]).
    pub ckpt_corrupt_rate: f64,
    /// Probability that one simulated cell value is replaced by NaN before
    /// decomposition (models a diverged solver writing garbage output that
    /// passes the scheduler but poisons the numerics).
    pub nan_cell_rate: f64,
    /// Probability that a serialized `m2td_dist::TaskEnvelope` crossing the
    /// transport is corrupted in flight (the wire stream; see
    /// [`FaultPlan::wire_corruption`]). Wire corruption is detected by the
    /// envelope checksum and retried, so it costs attempts, never numerics.
    pub xport_corrupt_rate: f64,
    /// Probability that the crash stream kills the process at one serve
    /// kill point (see [`FaultPlan::crash_at`]). Draws are keyed by
    /// `(op, sequence)`, so the same plan crashes the same run at the
    /// same operation count every time.
    pub crash_rate: f64,
    /// Bitmask of *reduce*-task ids (bit `t` = task `t`, ids ≥ 64 never
    /// doomed) whose every attempt is killed in scoped jobs, regardless of
    /// `kill_cap`. Dooming a task forces [`FaultError::RetryExhausted`]
    /// deterministically — the hook CI uses to drive tasks into the
    /// dead-letter queue. Map tasks are never doomed: a dead map task has
    /// no degraded completion (its records feed every reduce group).
    pub doom_mask: u64,
    /// Which jobs the map/reduce faults apply to.
    pub scope: FaultScope,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self {
            seed: 0,
            kill_rate: 0.0,
            straggle_rate: 0.0,
            straggle_secs: 0.0,
            sim_fail_rate: 0.0,
            kill_cap: 2,
            ckpt_corrupt_rate: 0.0,
            nan_cell_rate: 0.0,
            xport_corrupt_rate: 0.0,
            crash_rate: 0.0,
            doom_mask: 0,
            scope: FaultScope::AllJobs,
        }
    }

    /// A seeded plan killing and straggling task attempts at the given
    /// rates (stragglers delayed by `straggle_secs` virtual seconds).
    pub fn new(seed: u64, kill_rate: f64, straggle_rate: f64, straggle_secs: f64) -> Self {
        Self {
            seed,
            kill_rate,
            straggle_rate,
            straggle_secs,
            ..Self::none()
        }
    }

    /// A plan that fails simulation attempts at `rate`.
    pub fn sim_failures(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            sim_fail_rate: rate,
            ..Self::none()
        }
    }

    /// Restricts map/reduce faults to the job with id `job`.
    pub fn in_job(mut self, job: u64) -> Self {
        self.scope = FaultScope::Job(job);
        self
    }

    /// Replaces the consecutive-kill cap.
    pub fn with_kill_cap(mut self, cap: u32) -> Self {
        self.kill_cap = cap;
        self
    }

    /// Sets the checkpoint-corruption rate of the corruption stream.
    pub fn with_ckpt_corrupt_rate(mut self, rate: f64) -> Self {
        self.ckpt_corrupt_rate = rate;
        self
    }

    /// Sets the NaN-cell injection rate of the corruption stream.
    pub fn with_nan_cell_rate(mut self, rate: f64) -> Self {
        self.nan_cell_rate = rate;
        self
    }

    /// Sets the in-flight envelope corruption rate of the wire stream.
    pub fn with_xport_corrupt_rate(mut self, rate: f64) -> Self {
        self.xport_corrupt_rate = rate;
        self
    }

    /// Sets the kill-point probability of the crash stream.
    pub fn with_crash_rate(mut self, rate: f64) -> Self {
        self.crash_rate = rate;
        self
    }

    /// Dooms the tasks whose bits are set in `mask`: every attempt of a
    /// doomed task in a scoped job is killed, ignoring `kill_cap`.
    pub fn with_doom_mask(mut self, mask: u64) -> Self {
        self.doom_mask = mask;
        self
    }

    /// True if task `task` of job `job` is doomed to exhaust its retries.
    pub fn dooms_task(&self, job: u64, task: u64) -> bool {
        self.targets_job(job) && task < 64 && (self.doom_mask >> task) & 1 == 1
    }

    /// True if the plan can inject map/reduce faults into `job`.
    pub fn targets_job(&self, job: u64) -> bool {
        match self.scope {
            FaultScope::AllJobs => true,
            FaultScope::Job(j) => j == job,
        }
    }

    /// The injected outcome for attempt `attempt` of task `task` of kind
    /// `kind` in job `job`. Pure in all arguments; when an `m2td-obs`
    /// subscriber is installed, injected faults additionally bump the
    /// `fault.kills_injected` / `fault.straggles_injected` counters
    /// (telemetry only — the returned decision is unaffected).
    pub fn decide(&self, job: u64, kind: TaskKind, task: u64, attempt: u32) -> FaultDecision {
        if !self.targets_job(job) {
            return FaultDecision::Ok;
        }
        if kind == TaskKind::Reduce && self.dooms_task(job, task) {
            m2td_obs::counter_add("fault.kills_injected", 1);
            return FaultDecision::Kill;
        }
        if attempt < self.kill_cap
            && uniform(self.seed, job ^ kind.stream(), task, attempt, SALT_KILL) < self.kill_rate
        {
            m2td_obs::counter_add("fault.kills_injected", 1);
            return FaultDecision::Kill;
        }
        if uniform(self.seed, job ^ kind.stream(), task, attempt, SALT_STRAGGLE)
            < self.straggle_rate
        {
            m2td_obs::counter_add("fault.straggles_injected", 1);
            return FaultDecision::Straggle(self.straggle_secs);
        }
        FaultDecision::Ok
    }

    /// Whether simulation attempt `attempt` for parameter configuration
    /// `config` fails. Uses its own hash stream; unaffected by `scope`.
    /// Failed attempts bump the `fault.sim_failures` counter when an
    /// `m2td-obs` subscriber is installed.
    pub fn sim_attempt_fails(&self, config: u64, attempt: u32) -> bool {
        let fails = uniform(
            self.seed,
            TaskKind::Simulation.stream(),
            config,
            attempt,
            SALT_KILL,
        ) < self.sim_fail_rate;
        if fails {
            m2td_obs::counter_add("fault.sim_failures", 1);
        }
        fails
    }

    /// The corruption (if any) the stream injects into the checkpoint of
    /// phase `phase`. Pure in its arguments: the first draw decides *if*
    /// the record is corrupted at `ckpt_corrupt_rate`, a second independent
    /// draw picks *which* [`CorruptionKind`]. Injections bump the
    /// `fault.ckpt_corruptions_injected` counter when an `m2td-obs`
    /// subscriber is installed.
    pub fn ckpt_corruption(&self, phase: u64) -> Option<CorruptionKind> {
        if uniform(self.seed, STREAM_CKPT, phase, 0, SALT_CORRUPT) >= self.ckpt_corrupt_rate {
            return None;
        }
        let pick = uniform(self.seed, STREAM_CKPT, phase, 1, SALT_CORRUPT);
        let kind = if pick < 1.0 / 3.0 {
            CorruptionKind::BitFlip
        } else if pick < 2.0 / 3.0 {
            CorruptionKind::Truncate
        } else {
            CorruptionKind::StaleVersion
        };
        m2td_obs::counter_add("fault.ckpt_corruptions_injected", 1);
        Some(kind)
    }

    /// The corruption (if any) the wire stream injects into a serialized
    /// task envelope in flight. `leg` distinguishes the two crossings of
    /// one attempt (0 = task dispatch, 1 = result return) so they draw
    /// independently. Pure in its arguments; only [`CorruptionKind::BitFlip`]
    /// and [`CorruptionKind::Truncate`] occur (envelopes carry no format
    /// version). Injections bump the `fault.xport_corruptions_injected`
    /// counter when an `m2td-obs` subscriber is installed.
    pub fn wire_corruption(
        &self,
        job: u64,
        task: u64,
        attempt: u32,
        leg: u32,
    ) -> Option<CorruptionKind> {
        if !self.targets_job(job) {
            return None;
        }
        let stream = job ^ STREAM_XPORT ^ ((leg as u64) << 32);
        if uniform(self.seed, stream, task, attempt, SALT_CORRUPT) >= self.xport_corrupt_rate {
            return None;
        }
        let pick = uniform(
            self.seed,
            stream,
            task,
            attempt.wrapping_add(1 << 16),
            SALT_CORRUPT,
        );
        let kind = if pick < 0.5 {
            CorruptionKind::BitFlip
        } else {
            CorruptionKind::Truncate
        };
        m2td_obs::counter_add("fault.xport_corruptions_injected", 1);
        Some(kind)
    }

    /// Whether the crash stream kills the process at occurrence number
    /// `sequence` of kill point `op`. Pure in its arguments — a restarted
    /// run that replays fewer operations (because some are already
    /// durable) naturally stops drawing the already-consumed sequences.
    /// Injections bump the `fault.crashes_injected` counter when an
    /// `m2td-obs` subscriber is installed.
    pub fn crash_at(&self, op: CrashOp, sequence: u64) -> bool {
        let hit = uniform(self.seed, op.stream(), sequence, 0, SALT_CRASH) < self.crash_rate;
        if hit {
            m2td_obs::counter_add("fault.crashes_injected", 1);
        }
        hit
    }

    /// Whether the corruption stream replaces simulated cell `cell` of
    /// stream `stream` (e.g. a subsystem index) with NaN. Injections bump
    /// the `fault.nan_cells_injected` counter when an `m2td-obs` subscriber
    /// is installed.
    pub fn cell_goes_nan(&self, stream: u64, cell: u64) -> bool {
        let hit = uniform(self.seed, stream, cell, 0, SALT_NANCELL) < self.nan_cell_rate;
        if hit {
            m2td_obs::counter_add("fault.nan_cells_injected", 1);
        }
        hit
    }

    /// Whether a simulation run for `config` survives a budget of
    /// `max_attempts` attempts; also returns the attempts consumed.
    pub fn sim_survives(&self, config: u64, max_attempts: u32) -> (bool, u32) {
        for attempt in 0..max_attempts {
            if !self.sim_attempt_fails(config, attempt) {
                return (true, attempt + 1);
            }
        }
        (false, max_attempts)
    }
}

/// Hash-stream salt separating kill decisions from straggle decisions.
const SALT_KILL: u64 = 0x4b49_4c4c;
/// See [`SALT_KILL`].
const SALT_STRAGGLE: u64 = 0x5354_5247;
/// Salt of the checkpoint-corruption stream ("CRPT").
const SALT_CORRUPT: u64 = 0x4352_5054;
/// Salt of the NaN-cell injection stream ("NANC").
const SALT_NANCELL: u64 = 0x4e41_4e43;
/// Stream id for checkpoint-corruption draws (not tied to any job).
const STREAM_CKPT: u64 = 0x636b_7074;
/// Stream id for in-flight envelope corruption draws ("xprt").
const STREAM_XPORT: u64 = 0x7870_7274;
/// Salt of the retry-jitter stream ("JTTR").
const SALT_JITTER: u64 = 0x4a54_5452;
/// Salt of the serve crash stream ("CRSH").
const SALT_CRASH: u64 = 0x4352_5348;

/// Deterministic uniform draw in `[0, 1)` keyed by the full task identity.
fn uniform(seed: u64, stream: u64, task: u64, attempt: u32, salt: u64) -> f64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ task.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ (attempt as u64).wrapping_mul(0x94d0_49bb_1331_11eb)
        ^ salt;
    // splitmix64 finalizer.
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// How an engine responds to injected faults: bounded retries with a
/// deterministic backoff schedule in virtual time, plus speculative
/// re-execution of stragglers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per task (including the first); exhausting this
    /// budget fails the job with [`FaultError::RetryExhausted`].
    pub max_attempts: u32,
    /// Virtual backoff before retry `1` (after the first failure).
    pub backoff_base_secs: f64,
    /// Multiplier applied to the backoff for each further retry.
    pub backoff_factor: f64,
    /// A straggling attempt delayed beyond this many virtual seconds gets
    /// a speculative backup copy; the backup's (identical) result is used
    /// and the straggler's excess delay is not charged.
    pub speculate_after_secs: f64,
    /// Ceiling on any single backoff delay: the geometric schedule is
    /// clamped here so deep retries cannot grow without bound.
    pub max_backoff_secs: f64,
    /// Fraction of the backoff randomized away by deterministic jitter in
    /// [`RetryPolicy::backoff_secs_jittered`] (0 disables jitter and keeps
    /// the plain schedule bitwise).
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_base_secs: 0.5,
            backoff_factor: 2.0,
            speculate_after_secs: 5.0,
            max_backoff_secs: 60.0,
            jitter_frac: 0.0,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing exactly one attempt (no retries).
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// A policy with the given attempt budget and default backoff.
    pub fn with_max_attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            ..Self::default()
        }
    }

    /// Replaces the backoff ceiling.
    pub fn with_max_backoff_secs(mut self, secs: f64) -> Self {
        self.max_backoff_secs = secs;
        self
    }

    /// Enables deterministic jitter over `frac` of each backoff delay
    /// (clamped to `[0, 1]`).
    pub fn with_jitter_frac(mut self, frac: f64) -> Self {
        self.jitter_frac = frac.clamp(0.0, 1.0);
        self
    }

    /// Virtual backoff charged before retry number `retry` (1-based:
    /// `retry = 1` is the first re-execution). Deterministic geometric
    /// schedule `base · factor^(retry−1)`, clamped to `max_backoff_secs`.
    pub fn backoff_secs(&self, retry: u32) -> f64 {
        if retry == 0 {
            return 0.0;
        }
        (self.backoff_base_secs * self.backoff_factor.powi(retry as i32 - 1))
            .min(self.max_backoff_secs)
    }

    /// Like [`RetryPolicy::backoff_secs`] but with deterministic jitter
    /// seeded from `(job, task, retry)`, so that tasks killed in the same
    /// wave back off at different times instead of retrying in lockstep.
    /// The jittered delay lies in `[(1 − jitter_frac)·b, b]` for base
    /// delay `b`; with `jitter_frac == 0` it equals `backoff_secs` exactly.
    pub fn backoff_secs_jittered(&self, job: u64, task: u64, retry: u32) -> f64 {
        let base = self.backoff_secs(retry);
        if self.jitter_frac <= 0.0 || base == 0.0 {
            return base;
        }
        let draw = uniform(job, STREAM_XPORT ^ SALT_JITTER, task, retry, SALT_JITTER);
        base * (1.0 - self.jitter_frac.clamp(0.0, 1.0) * draw)
    }

    /// The virtual delay actually charged for a straggler of `delay`
    /// seconds: speculation caps it at `speculate_after_secs`.
    pub fn charged_straggle_secs(&self, delay: f64) -> f64 {
        delay.min(self.speculate_after_secs)
    }

    /// Whether a straggler of `delay` seconds triggers a speculative copy.
    pub fn speculates(&self, delay: f64) -> bool {
        delay > self.speculate_after_secs
    }
}

/// Execution counters accumulated by a fault-aware engine while running
/// one job (or one D-M2TD phase). These are the observable trace of the
/// failure model: tests pin checkpoint resumes and speculation on them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskCounters {
    /// Map-task attempts actually executed (including killed ones).
    pub map_attempts: usize,
    /// Map-task attempts killed by the fault plan.
    pub map_kills: usize,
    /// Reduce-task attempts actually executed (including killed ones).
    pub reduce_attempts: usize,
    /// Reduce-task attempts killed by the fault plan.
    pub reduce_kills: usize,
    /// Straggling attempts injected.
    pub stragglers: usize,
    /// Speculative backup copies launched.
    pub speculative_launches: usize,
    /// Envelopes dropped by the transport for failing their checksum
    /// (each one costs a retried attempt, never a wrong result).
    pub xport_corruptions: usize,
    /// Virtual seconds lost to backoff and (capped) straggler delays.
    pub virtual_lost_secs: f64,
}

impl TaskCounters {
    /// Sums another counter set into this one.
    pub fn absorb(&mut self, other: &TaskCounters) {
        self.map_attempts += other.map_attempts;
        self.map_kills += other.map_kills;
        self.reduce_attempts += other.reduce_attempts;
        self.reduce_kills += other.reduce_kills;
        self.stragglers += other.stragglers;
        self.speculative_launches += other.speculative_launches;
        self.xport_corruptions += other.xport_corruptions;
        self.virtual_lost_secs += other.virtual_lost_secs;
    }

    /// Total task attempts (map + reduce).
    pub fn attempts(&self) -> usize {
        self.map_attempts + self.reduce_attempts
    }

    /// Total kills (map + reduce).
    pub fn kills(&self) -> usize {
        self.map_kills + self.reduce_kills
    }
}

/// Errors surfaced by fault-aware execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// A task was killed on every attempt the [`RetryPolicy`] allowed.
    RetryExhausted {
        /// Job id the task belonged to.
        job: u64,
        /// What kind of task it was.
        kind: TaskKind,
        /// Task index within the job.
        task: u64,
        /// Attempts consumed (= the policy's budget).
        attempts: u32,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::RetryExhausted {
                job,
                kind,
                task,
                attempts,
            } => write!(
                f,
                "retry budget exhausted: {kind} task {task} of job {job} was killed on all {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(42, 0.3, 0.2, 4.0);
        for job in 0..3u64 {
            for task in 0..50u64 {
                for attempt in 0..4u32 {
                    let a = plan.decide(job, TaskKind::Map, task, attempt);
                    let b = plan.decide(job, TaskKind::Map, task, attempt);
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn no_fault_plan_injects_nothing() {
        let plan = FaultPlan::none();
        for task in 0..100u64 {
            assert_eq!(plan.decide(1, TaskKind::Reduce, task, 0), FaultDecision::Ok);
            assert!(!plan.sim_attempt_fails(task, 0));
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::new(7, 0.25, 0.0, 0.0);
        let kills = (0..10_000u64)
            .filter(|&t| plan.decide(0, TaskKind::Map, t, 0) == FaultDecision::Kill)
            .count();
        let frac = kills as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.03, "kill fraction {frac}");
    }

    #[test]
    fn job_scope_limits_faults() {
        let plan = FaultPlan::new(3, 1.0, 0.0, 0.0).in_job(2);
        assert_eq!(plan.decide(1, TaskKind::Map, 0, 0), FaultDecision::Ok);
        assert_eq!(plan.decide(2, TaskKind::Map, 0, 0), FaultDecision::Kill);
        assert!(plan.targets_job(2) && !plan.targets_job(1));
    }

    #[test]
    fn kill_cap_guarantees_eventual_success() {
        let plan = FaultPlan::new(9, 1.0, 0.0, 0.0).with_kill_cap(2);
        for task in 0..20u64 {
            assert_eq!(plan.decide(0, TaskKind::Map, task, 0), FaultDecision::Kill);
            assert_eq!(plan.decide(0, TaskKind::Map, task, 1), FaultDecision::Kill);
            assert_eq!(plan.decide(0, TaskKind::Map, task, 2), FaultDecision::Ok);
        }
    }

    #[test]
    fn kill_and_straggle_streams_are_independent() {
        // With kill_rate 0 but straggle_rate 1 every attempt straggles.
        let plan = FaultPlan::new(5, 0.0, 1.0, 2.5);
        assert_eq!(
            plan.decide(0, TaskKind::Reduce, 3, 0),
            FaultDecision::Straggle(2.5)
        );
    }

    #[test]
    fn backoff_schedule_is_geometric() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_base_secs: 1.0,
            backoff_factor: 2.0,
            speculate_after_secs: 10.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_secs(0), 0.0);
        assert_eq!(p.backoff_secs(1), 1.0);
        assert_eq!(p.backoff_secs(2), 2.0);
        assert_eq!(p.backoff_secs(3), 4.0);
    }

    #[test]
    fn backoff_is_clamped_to_the_ceiling() {
        let p = RetryPolicy {
            backoff_base_secs: 1.0,
            backoff_factor: 10.0,
            max_backoff_secs: 30.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_secs(1), 1.0);
        assert_eq!(p.backoff_secs(2), 10.0);
        assert_eq!(p.backoff_secs(3), 30.0);
        assert_eq!(p.backoff_secs(20), 30.0);
        // The builder form clamps too.
        let q = RetryPolicy::default().with_max_backoff_secs(0.25);
        assert_eq!(q.backoff_secs(3), 0.25);
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_desynchronized() {
        let p = RetryPolicy::default().with_jitter_frac(0.5);
        let base = p.backoff_secs(2);
        let mut distinct = std::collections::HashSet::new();
        for task in 0..32u64 {
            let j = p.backoff_secs_jittered(7, task, 2);
            assert_eq!(
                j,
                p.backoff_secs_jittered(7, task, 2),
                "jitter must be pure"
            );
            assert!(
                j <= base && j >= base * 0.5,
                "jitter {j} outside [{}, {base}]",
                base * 0.5
            );
            distinct.insert(j.to_bits());
        }
        assert!(distinct.len() > 16, "tasks retry in lockstep: {distinct:?}");
        // Zero jitter degenerates to the plain schedule, bitwise.
        let plain = RetryPolicy::default();
        assert_eq!(plain.backoff_secs_jittered(7, 3, 2), plain.backoff_secs(2));
    }

    #[test]
    fn wire_stream_is_deterministic_scoped_and_honours_rate() {
        let plan = FaultPlan {
            seed: 19,
            ..FaultPlan::none().with_xport_corrupt_rate(0.5)
        };
        let mut hits = 0usize;
        let mut kinds = std::collections::HashSet::new();
        for task in 0..2_000u64 {
            let a = plan.wire_corruption(1, task, 0, 0);
            assert_eq!(
                a,
                plan.wire_corruption(1, task, 0, 0),
                "wire draws must be pure"
            );
            if let Some(kind) = a {
                hits += 1;
                kinds.insert(kind);
            }
        }
        let frac = hits as f64 / 2_000.0;
        assert!((frac - 0.5).abs() < 0.05, "wire corruption fraction {frac}");
        assert_eq!(
            kinds.len(),
            2,
            "expected bit-flips and truncations: {kinds:?}"
        );
        // The two legs of one attempt draw independently.
        assert!((0..500u64)
            .any(|t| plan.wire_corruption(1, t, 0, 0) != plan.wire_corruption(1, t, 0, 1)));
        // Scope and zero rates are honoured.
        assert_eq!(plan.in_job(2).wire_corruption(1, 0, 0, 0), None);
        assert_eq!(FaultPlan::none().wire_corruption(1, 0, 0, 0), None);
    }

    #[test]
    fn doomed_tasks_are_killed_on_every_attempt() {
        let plan = FaultPlan::none().with_doom_mask(0b101).in_job(3);
        for attempt in 0..64u32 {
            assert_eq!(
                plan.decide(3, TaskKind::Reduce, 0, attempt),
                FaultDecision::Kill
            );
            assert_eq!(
                plan.decide(3, TaskKind::Reduce, 2, attempt),
                FaultDecision::Kill
            );
        }
        // Undoomed task, map tasks, out-of-scope jobs, and ids ≥ 64 run fine.
        assert_eq!(plan.decide(3, TaskKind::Reduce, 1, 0), FaultDecision::Ok);
        assert_eq!(plan.decide(3, TaskKind::Map, 0, 0), FaultDecision::Ok);
        assert_eq!(plan.decide(1, TaskKind::Reduce, 0, 0), FaultDecision::Ok);
        assert!(!plan.dooms_task(3, 64));
    }

    #[test]
    fn speculation_caps_straggler_delay() {
        let p = RetryPolicy {
            speculate_after_secs: 3.0,
            ..RetryPolicy::default()
        };
        assert!(!p.speculates(2.0));
        assert!(p.speculates(8.0));
        assert_eq!(p.charged_straggle_secs(2.0), 2.0);
        assert_eq!(p.charged_straggle_secs(8.0), 3.0);
    }

    #[test]
    fn sim_survival_consumes_attempts() {
        let plan = FaultPlan::sim_failures(11, 0.5);
        let mut failed = 0;
        let mut total_attempts = 0u32;
        for config in 0..2_000u64 {
            let (ok, used) = plan.sim_survives(config, 3);
            assert!((1..=3).contains(&used));
            total_attempts += used;
            if !ok {
                failed += 1;
            }
        }
        // P(all 3 attempts fail) = 0.125.
        let frac = failed as f64 / 2_000.0;
        assert!((frac - 0.125).abs() < 0.03, "exhaustion fraction {frac}");
        assert!(total_attempts > 2_000);
        // Deterministic.
        assert_eq!(plan.sim_survives(77, 3), plan.sim_survives(77, 3));
    }

    #[test]
    fn counters_absorb_sums_fields() {
        let mut a = TaskCounters {
            map_attempts: 1,
            map_kills: 1,
            virtual_lost_secs: 0.5,
            ..TaskCounters::default()
        };
        let b = TaskCounters {
            map_attempts: 2,
            reduce_attempts: 3,
            stragglers: 1,
            virtual_lost_secs: 1.5,
            ..TaskCounters::default()
        };
        a.absorb(&b);
        assert_eq!(a.map_attempts, 3);
        assert_eq!(a.reduce_attempts, 3);
        assert_eq!(a.attempts(), 6);
        assert_eq!(a.kills(), 1);
        assert_eq!(a.virtual_lost_secs, 2.0);
    }

    #[test]
    fn corruption_stream_is_deterministic_and_honours_rate() {
        let plan = FaultPlan::none().with_ckpt_corrupt_rate(0.5);
        let plan = FaultPlan { seed: 13, ..plan };
        let mut hits = 0usize;
        for phase in 0..2_000u64 {
            let a = plan.ckpt_corruption(phase);
            let b = plan.ckpt_corruption(phase);
            assert_eq!(a, b, "corruption draws must be pure");
            if a.is_some() {
                hits += 1;
            }
        }
        let frac = hits as f64 / 2_000.0;
        assert!((frac - 0.5).abs() < 0.05, "corruption fraction {frac}");
        // All three kinds appear under a rate-1 stream.
        let all = FaultPlan {
            seed: 13,
            ..FaultPlan::none().with_ckpt_corrupt_rate(1.0)
        };
        let kinds: std::collections::HashSet<_> =
            (0..100u64).filter_map(|p| all.ckpt_corruption(p)).collect();
        assert_eq!(
            kinds.len(),
            3,
            "expected every CorruptionKind, got {kinds:?}"
        );
        // Zero-rate plans never corrupt.
        assert_eq!(FaultPlan::none().ckpt_corruption(1), None);
    }

    #[test]
    fn nan_cell_stream_is_deterministic_and_honours_rate() {
        let plan = FaultPlan {
            seed: 21,
            ..FaultPlan::none().with_nan_cell_rate(0.1)
        };
        let mut hits = 0usize;
        for cell in 0..5_000u64 {
            let a = plan.cell_goes_nan(3, cell);
            assert_eq!(a, plan.cell_goes_nan(3, cell));
            if a {
                hits += 1;
            }
        }
        let frac = hits as f64 / 5_000.0;
        assert!((frac - 0.1).abs() < 0.02, "nan fraction {frac}");
        // Streams are independent: same cells, different subsystem stream.
        assert!((0..5_000u64).any(|c| plan.cell_goes_nan(3, c) != plan.cell_goes_nan(4, c)));
        assert!(!FaultPlan::none().cell_goes_nan(0, 0));
    }

    #[test]
    fn crash_stream_is_deterministic_keyed_by_op_and_sequence() {
        let plan = FaultPlan {
            seed: 17,
            ..FaultPlan::none().with_crash_rate(0.5)
        };
        let mut hits = 0usize;
        for seq in 0..2_000u64 {
            let a = plan.crash_at(CrashOp::WalAppend, seq);
            assert_eq!(
                a,
                plan.crash_at(CrashOp::WalAppend, seq),
                "draws must be pure"
            );
            if a {
                hits += 1;
            }
        }
        let frac = hits as f64 / 2_000.0;
        assert!((frac - 0.5).abs() < 0.05, "crash fraction {frac}");
        // Ops draw on independent streams: same sequences, different fates.
        assert!((0..200u64)
            .any(|s| plan.crash_at(CrashOp::Absorb, s) != plan.crash_at(CrashOp::Refresh, s)));
        // Zero-rate plans never crash.
        assert!(!FaultPlan::none().crash_at(CrashOp::SnapshotWrite, 0));
        // Op names round-trip through FromStr for the CLI's --crash-at.
        for op in CrashOp::ALL {
            assert_eq!(op.to_string().parse::<CrashOp>().unwrap(), op);
        }
        assert!("reboot".parse::<CrashOp>().is_err());
    }

    #[test]
    fn retry_exhausted_formats_usefully() {
        let e = FaultError::RetryExhausted {
            job: 3,
            kind: TaskKind::Reduce,
            task: 7,
            attempts: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("retry budget exhausted"));
        assert!(msg.contains("reduce task 7"));
        assert!(msg.contains("job 3"));
        assert!(msg.contains("4 attempts"));
    }
}
