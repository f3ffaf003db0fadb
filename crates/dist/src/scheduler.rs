//! Work-stealing wave scheduler for fault-aware task execution.
//!
//! A *wave* is one homogeneous batch of tasks (all map chunks of a phase,
//! or all its reduce groups). Tasks are dealt round-robin onto per-worker
//! deques; each worker pops its own deque from the front and, when empty,
//! scans the other deques in a fixed order (`me+1, me+2, …` mod `W`) and
//! steals from the back. Replacing the fixed chunk-per-worker split of the
//! original engine, a straggling worker no longer strands the tail of its
//! chunk — idle workers steal it.
//!
//! ## Determinism
//!
//! Which worker executes which task *is* scheduling-dependent (steal
//! counts in `steal.*` are telemetry, not contract). The results are not:
//! every task is pure and identified by a stable id, fault decisions
//! depend only on `(job, kind, task, attempt)`, and outputs and counter
//! deltas are merged in task-id order after the wave. Any schedule
//! therefore produces bitwise-identical outputs and identical counters —
//! the property `tests/fault_determinism.rs` pins across worker counts.
//!
//! ## Failure handling
//!
//! Each task runs the retry loop: killed attempts are re-executed after a
//! (jittered, clamped) virtual backoff; stragglers are charged capped
//! delay and may launch a speculative backup; attempts whose envelope is
//! dropped by the transport (checksum mismatch, torn frame) count as
//! `xport_corruptions` and retry like kills. A task that exhausts its
//! budget either fails the wave ([`FaultError::RetryExhausted`], the
//! legacy behavior) or — when the wave parks exhausted tasks — is
//! recorded as a [`DeadTask`] with its full attempt log, and the wave
//! completes without it (the caller decides whether coverage allows a
//! degraded result, and routes the corpse to the dead-letter queue).

use crate::transport::TransportError;
use m2td_fault::{FaultDecision, FaultError, FaultPlan, RetryPolicy, TaskCounters, TaskKind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Shared parameters of one wave.
pub(crate) struct WaveSpec<'a> {
    /// Job the tasks belong to.
    pub job: u64,
    /// Map or reduce (decides which counters attempts land in).
    pub kind: TaskKind,
    /// Logical worker count: number of deques, and the cap passed to the
    /// thread pool (physical threads may be fewer; stealing drains the
    /// unowned deques).
    pub workers: usize,
    /// Fault plan injected into every attempt.
    pub plan: &'a FaultPlan,
    /// Retry/backoff/speculation policy.
    pub policy: &'a RetryPolicy,
    /// `true`: exhausted tasks are parked as [`DeadTask`]s and the wave
    /// completes. `false`: the first exhausted task fails the wave.
    pub park_exhausted: bool,
}

/// A task that exhausted its retry budget in a parking wave.
#[derive(Debug, Clone)]
pub struct DeadTask {
    /// Task id within the job.
    pub task: u64,
    /// Attempts consumed (= the policy budget).
    pub attempts: u32,
    /// One line per attempt: what the fault plan and transport did.
    pub log: Vec<String>,
    /// The terminal error.
    pub error: FaultError,
}

/// What a wave produced.
#[derive(Debug)]
pub(crate) struct WaveOutcome<Out> {
    /// `(task, output)` for every surviving task, ascending by task id.
    pub outputs: Vec<(u64, Out)>,
    /// Counter deltas summed in task-id order (scheduling-invariant).
    pub counters: TaskCounters,
    /// Parked tasks, ascending by task id (empty unless parking).
    pub dead: Vec<DeadTask>,
}

/// The retry loop for one task. `exec` is invoked per attempt and must be
/// pure up to transport faults: re-invocations return bitwise-identical
/// outputs whenever they succeed.
#[allow(clippy::result_large_err)] // the Err path is cold: a task is only dead after retry exhaustion
fn run_attempts<Out>(
    spec: &WaveSpec<'_>,
    task: u64,
    exec: &(impl Fn(u64, u32) -> Result<Out, TransportError> + Sync),
) -> Result<(Out, TaskCounters), (TaskCounters, DeadTask)> {
    let mut c = TaskCounters::default();
    let mut log = Vec::new();
    let bump = |c: &mut TaskCounters, killed: bool| {
        if spec.kind == TaskKind::Map {
            c.map_attempts += 1;
            c.map_kills += killed as usize;
        } else {
            c.reduce_attempts += 1;
            c.reduce_kills += killed as usize;
        }
    };
    let policy = spec.policy;
    let exhausted = |c: TaskCounters, log: Vec<String>| {
        let error = FaultError::RetryExhausted {
            job: spec.job,
            kind: spec.kind,
            task,
            attempts: policy.max_attempts,
        };
        (
            c,
            DeadTask {
                task,
                attempts: policy.max_attempts,
                log,
                error,
            },
        )
    };
    for attempt in 0..policy.max_attempts {
        match spec.plan.decide(spec.job, spec.kind, task, attempt) {
            FaultDecision::Kill => {
                // The attempt ran partway before dying: execute and
                // discard, then back off in virtual time before retrying.
                let _ = exec(task, attempt);
                bump(&mut c, true);
                log.push(format!("attempt {attempt}: killed by fault plan"));
                if attempt + 1 == policy.max_attempts {
                    return Err(exhausted(c, log));
                }
                c.virtual_lost_secs += policy.backoff_secs_jittered(spec.job, task, attempt + 1);
            }
            FaultDecision::Straggle(delay) => match exec(task, attempt) {
                Ok(out) => {
                    bump(&mut c, false);
                    c.stragglers += 1;
                    if policy.speculates(delay) {
                        // The backup re-executes the pure task; transport
                        // draws are per-attempt, so it cannot diverge from
                        // the primary that just succeeded.
                        let _ = exec(task, attempt);
                        bump(&mut c, false);
                        c.speculative_launches += 1;
                    }
                    c.virtual_lost_secs += policy.charged_straggle_secs(delay);
                    return Ok((out, c));
                }
                Err(e) => {
                    bump(&mut c, false);
                    c.xport_corruptions += 1;
                    log.push(format!("attempt {attempt}: dropped in transit ({e})"));
                    if attempt + 1 == policy.max_attempts {
                        return Err(exhausted(c, log));
                    }
                    c.virtual_lost_secs +=
                        policy.backoff_secs_jittered(spec.job, task, attempt + 1);
                }
            },
            FaultDecision::Ok => match exec(task, attempt) {
                Ok(out) => {
                    bump(&mut c, false);
                    return Ok((out, c));
                }
                Err(e) => {
                    bump(&mut c, false);
                    c.xport_corruptions += 1;
                    log.push(format!("attempt {attempt}: dropped in transit ({e})"));
                    if attempt + 1 == policy.max_attempts {
                        return Err(exhausted(c, log));
                    }
                    c.virtual_lost_secs +=
                        policy.backoff_secs_jittered(spec.job, task, attempt + 1);
                }
            },
        }
    }
    unreachable!("attempt loop always returns within the policy budget")
}

struct WaveState<Out> {
    outputs: Vec<(u64, Out)>,
    counters: Vec<(u64, TaskCounters)>,
    dead: Vec<DeadTask>,
    error: Option<FaultError>,
}

/// Runs one wave of `tasks` over the work-stealing deques. `on_accept`
/// fires once per task whose result the wave accepts — after the retry
/// loop, never for killed/discarded attempts — and is where callers
/// persist task completion (the job manifest).
pub(crate) fn run_wave<Out: Send>(
    spec: &WaveSpec<'_>,
    tasks: &[u64],
    exec: impl Fn(u64, u32) -> Result<Out, TransportError> + Sync,
    on_accept: impl Fn(u64, &Out) + Sync,
) -> Result<WaveOutcome<Out>, FaultError> {
    let workers = spec.workers.max(1);
    let deques: Vec<Mutex<VecDeque<u64>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, &t) in tasks.iter().enumerate() {
        deques[i % workers].lock().unwrap().push_back(t);
    }
    // `run_workers` closures carry no worker index: each physical thread
    // claims one by ticket. Physical threads never exceed `workers`, so
    // ids are unique; deques of unclaimed ids are drained by stealing.
    let ticket = AtomicUsize::new(0);
    let state: Mutex<WaveState<Out>> = Mutex::new(WaveState {
        outputs: Vec::new(),
        counters: Vec::new(),
        dead: Vec::new(),
        error: None,
    });
    let failed = AtomicBool::new(false);
    m2td_par::run_workers(workers, || {
        let me = ticket.fetch_add(1, Ordering::Relaxed) % workers;
        let (mut local_pops, mut steals) = (0u64, 0u64);
        loop {
            if failed.load(Ordering::Relaxed) {
                break;
            }
            let mut task = deques[me].lock().unwrap().pop_front();
            if task.is_some() {
                local_pops += 1;
            } else {
                // Deterministic victim order; steal from the back so the
                // owner's front stays hot.
                for d in 1..workers {
                    let victim = (me + d) % workers;
                    task = deques[victim].lock().unwrap().pop_back();
                    if task.is_some() {
                        steals += 1;
                        break;
                    }
                }
            }
            let Some(task) = task else { break };
            match run_attempts(spec, task, &exec) {
                Ok((out, c)) => {
                    on_accept(task, &out);
                    let mut s = state.lock().unwrap();
                    s.outputs.push((task, out));
                    s.counters.push((task, c));
                }
                Err((c, dead)) => {
                    let mut s = state.lock().unwrap();
                    if spec.park_exhausted {
                        s.counters.push((task, c));
                        s.dead.push(dead);
                    } else {
                        if s.error.is_none() {
                            s.error = Some(dead.error);
                        }
                        failed.store(true, Ordering::Relaxed);
                    }
                }
            }
        }
        if local_pops + steals > 0 {
            m2td_obs::counter_add("steal.local_pops", local_pops);
            m2td_obs::counter_add("steal.steals", steals);
        }
    });
    let s = state.into_inner().unwrap();
    if let Some(e) = s.error {
        return Err(e);
    }
    let mut outputs = s.outputs;
    outputs.sort_by_key(|&(t, _)| t);
    let mut deltas = s.counters;
    deltas.sort_by_key(|&(t, _)| t);
    let mut counters = TaskCounters::default();
    for (_, c) in &deltas {
        counters.absorb(c);
    }
    let mut dead = s.dead;
    dead.sort_by_key(|d| d.task);
    Ok(WaveOutcome {
        outputs,
        counters,
        dead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec<'a>(
        plan: &'a FaultPlan,
        policy: &'a RetryPolicy,
        workers: usize,
        park: bool,
    ) -> WaveSpec<'a> {
        WaveSpec {
            job: 7,
            kind: TaskKind::Reduce,
            workers,
            plan,
            policy,
            park_exhausted: park,
        }
    }

    #[test]
    fn outputs_and_counters_are_identical_across_worker_counts() {
        let plan = FaultPlan::new(11, 0.4, 0.3, 20.0);
        let policy = RetryPolicy::default();
        let tasks: Vec<u64> = (0..40).collect();
        let run = |w: usize| {
            let outcome = run_wave(
                &spec(&plan, &policy, w, false),
                &tasks,
                |t, _| Ok::<u64, TransportError>(t * t),
                |_, _| {},
            )
            .unwrap();
            (outcome.outputs, outcome.counters)
        };
        let serial = run(1);
        for w in [2, 3, 8] {
            assert_eq!(run(w), serial, "worker count {w} changed the wave");
        }
        assert_eq!(serial.0.len(), 40);
        assert!(serial.0.windows(2).all(|p| p[0].0 < p[1].0));
    }

    #[test]
    fn transport_failures_are_retried_and_counted() {
        let plan = FaultPlan::none();
        let policy = RetryPolicy::default();
        // Fail every first attempt in transit; succeed afterwards.
        let outcome = run_wave(
            &spec(&plan, &policy, 3, false),
            &[0, 1, 2, 3, 4],
            |t, attempt| {
                if attempt == 0 {
                    Err(TransportError::Malformed("torn frame".to_string()))
                } else {
                    Ok(t + 100)
                }
            },
            |_, _| {},
        )
        .unwrap();
        assert_eq!(outcome.outputs.len(), 5);
        assert_eq!(outcome.counters.xport_corruptions, 5);
        assert_eq!(outcome.counters.reduce_attempts, 10);
        assert!(outcome.counters.virtual_lost_secs > 0.0);
    }

    #[test]
    fn parked_waves_complete_with_dead_tasks() {
        let plan = FaultPlan::none().with_doom_mask(0b10010).in_job(7);
        let policy = RetryPolicy::default();
        let outcome = run_wave(
            &spec(&plan, &policy, 2, true),
            &[0, 1, 2, 3, 4],
            |t, _| Ok::<u64, TransportError>(t),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(
            outcome.outputs.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        assert_eq!(
            outcome.dead.iter().map(|d| d.task).collect::<Vec<_>>(),
            vec![1, 4]
        );
        for d in &outcome.dead {
            assert_eq!(d.attempts, policy.max_attempts);
            assert_eq!(d.log.len(), policy.max_attempts as usize);
            assert!(matches!(d.error, FaultError::RetryExhausted { task, .. } if task == d.task));
        }
        // Dead attempts still count (deterministically, by task order).
        assert_eq!(
            outcome.counters.reduce_kills,
            2 * policy.max_attempts as usize
        );
    }

    #[test]
    fn non_parking_waves_fail_on_exhaustion() {
        let plan = FaultPlan::none().with_doom_mask(0b1).in_job(7);
        let policy = RetryPolicy::with_max_attempts(2);
        let err = run_wave(
            &spec(&plan, &policy, 2, false),
            &[0, 1],
            |t, _| Ok::<u64, TransportError>(t),
            |_, _| {},
        )
        .unwrap_err();
        assert!(matches!(
            err,
            FaultError::RetryExhausted {
                task: 0,
                attempts: 2,
                ..
            }
        ));
    }

    #[test]
    fn on_accept_fires_once_per_surviving_task() {
        let plan = FaultPlan::new(3, 0.5, 0.0, 0.0)
            .with_doom_mask(0b100)
            .in_job(7);
        let policy = RetryPolicy::default();
        let accepted = Mutex::new(Vec::new());
        let outcome = run_wave(
            &spec(&plan, &policy, 4, true),
            &[0, 1, 2, 3, 4, 5],
            |t, _| Ok::<u64, TransportError>(t),
            |t, _| accepted.lock().unwrap().push(t),
        )
        .unwrap();
        let mut accepted = accepted.into_inner().unwrap();
        accepted.sort_unstable();
        assert_eq!(accepted, vec![0, 1, 3, 4, 5]);
        assert_eq!(outcome.dead.len(), 1);
    }

    #[test]
    fn more_logical_workers_than_tasks_still_drains() {
        let plan = FaultPlan::none();
        let policy = RetryPolicy::default();
        let outcome = run_wave(
            &spec(&plan, &policy, 16, false),
            &[0, 1],
            |t, _| Ok::<u64, TransportError>(t),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(outcome.outputs.len(), 2);
    }
}
