//! A small, real MapReduce engine on the shared `m2td-par` worker pool.
//!
//! A job declares its partitions: `route` sends every input record to one
//! partition with one value, and `reduce` folds one partition's values.
//! Deterministic: at any worker count each reducer sees its partition's
//! values in map-input order, partitions ascending, as a serial run would.
//!
//! The *logical* worker count `W` (what [`MapReduce::new`] is given) keeps
//! its cluster semantics — input chunking and the cost model both depend
//! on it — but the *physical* thread count is additionally capped by
//! [`m2td_par::max_threads`], so `M2TD_THREADS` (or `--threads`) is the
//! one knob that governs all parallelism in the process.
//!
//! Tasks are executed by the work-stealing wave scheduler
//! ([`crate::scheduler`]): map chunks and reduce groups are dealt onto
//! per-worker deques and idle workers steal from busy ones, so a
//! straggling worker no longer strands the tail of its share. Outputs and
//! counters are merged in task-id order, keeping the determinism contract
//! independent of who ran what.
//!
//! ## Fault tolerance
//!
//! [`MapReduce::run`] executes every job under the [`JobSpec`]'s seeded
//! [`FaultPlan`]: task attempts can be **killed** (output discarded, task
//! retried with deterministic virtual backoff, bounded by the
//! [`RetryPolicy`]) or can **straggle** (charged a virtual delay; delays
//! beyond the policy's speculation threshold launch a backup copy whose
//! identical result is used instead). Because route and reduce closures
//! are pure, any fault schedule that eventually succeeds yields outputs
//! bitwise identical to the fault-free run — faults only change the
//! [`TaskCounters`] and virtual time. Without a recovery hook, a task
//! killed on every allowed attempt fails the job with
//! [`FaultError::RetryExhausted`].
//!
//! ## Sharded execution
//!
//! With [`TransportKind::Channel`], every task's inputs and outputs cross
//! the channel as checksummed [`TaskEnvelope`]s whose payloads are the
//! fixed-layout little-endian bytes of [`crate::wire`], so every `f64`
//! (NaN payloads, ±inf, −0.0) and every `u64` arrives bit for bit; a
//! dropped or corrupted envelope counts as a failed attempt and retries.
//! Over [`TransportKind::Direct`] tasks borrow their inputs and nothing is
//! encoded. With a [`WaveRecovery`] hook, completed reduce tasks resume
//! from recorded
//! outputs and exhausted reduce tasks are *parked* instead of failing —
//! the caller routes them to the dead-letter queue and decides whether
//! coverage allows a degraded result.

use crate::scheduler::{run_wave, DeadTask, WaveSpec};
use crate::transport::{self, ChannelTransport, TaskEnvelope, TransportError, TransportKind};
use crate::wire::{self, Wire};
use m2td_fault::{FaultError, FaultPlan, RetryPolicy, TaskCounters, TaskKind};
use m2td_json::{FromJson, Json, ToJson};
use std::collections::BTreeSet;

/// Statistics of one MapReduce job, consumed by the cluster cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShuffleStats {
    /// Number of values the map phase routed — one per input record.
    /// These cross the network in a real deployment.
    pub shuffled_pairs: usize,
    /// Number of non-empty partitions, i.e. reduce tasks.
    pub reduce_groups: usize,
}

/// An in-process MapReduce engine with a fixed worker count.
#[derive(Debug, Clone, Copy)]
pub struct MapReduce {
    workers: usize,
    transport: TransportKind,
}

/// What a previous run already decided about one reduce task.
pub enum TaskState {
    /// Never attempted (or unknown): run it.
    Fresh,
    /// Completed earlier; the serialized output to resume from.
    Completed(Json),
    /// Retry budget exhausted earlier. `requeued` tasks get a fresh run;
    /// the rest are skipped and the phase completes without them.
    Dead { requeued: bool },
}

/// Resume/dead-letter hooks consulted by [`MapReduce::run`] for the
/// reduce wave of one job. Implementations persist to the job manifest
/// and dead-letter queue; callbacks may arrive from any worker thread,
/// but at most once per task and only for accepted results.
///
/// `pub` only because [`JobSpec`] names it; the crate does not re-export
/// it, so D-M2TD's manifest wiring stays the one implementation.
pub trait WaveRecovery: Sync {
    /// The phase is about to schedule `total` reduce tasks.
    fn begin_phase(&self, total: u64);
    /// What a previous run recorded for this task.
    fn task_state(&self, task: u64) -> TaskState;
    /// The task completed; `output` is its serialized result.
    fn record_complete(&self, task: u64, output: &Json);
    /// The task exhausted its budget; `envelope` carries its identity and
    /// serialized input for the dead-letter queue.
    fn record_dead(&self, dead: &DeadTask, envelope: &TaskEnvelope);
    /// A previously-dead, requeued task just completed.
    fn record_revived(&self, task: u64);
}

/// Parameters of one job run by [`MapReduce::run`].
pub struct JobSpec<'a> {
    /// Job id (fault-plan scope and envelope identity).
    pub job: u64,
    /// D-M2TD phase number stamped into envelopes.
    pub phase: u8,
    /// Fault plan injected into every attempt and into the wire.
    pub plan: &'a FaultPlan,
    /// Retry/backoff/speculation policy.
    pub policy: &'a RetryPolicy,
    /// Resume and dead-letter hooks; `None` fails the job on the first
    /// exhausted task.
    pub recovery: Option<&'a dyn WaveRecovery>,
}

/// What a job produced.
#[derive(Debug)]
pub struct JobOutput<R> {
    /// `(task, output)` for every surviving reduce task — freshly run or
    /// resumed from the manifest — ascending by task id.
    pub outputs: Vec<(u64, R)>,
    /// Shuffle statistics (always reflect the full job, resumed or not).
    pub stats: ShuffleStats,
    /// Execution counters for the tasks that actually ran.
    pub counters: TaskCounters,
    /// Reduce tasks that exhausted their budget in *this* run.
    pub dead: Vec<DeadTask>,
    /// Reduce tasks recorded dead by a previous run and not requeued.
    pub skipped_dead: Vec<u64>,
    /// Reduce tasks replayed from recorded outputs instead of re-running.
    pub resumed: usize,
}

/// Writes a payload with `put` (wire bytes, into a recycled buffer),
/// seals it into an envelope, pushes it across the channel, and decodes
/// the survivor. The checksum guarantees wire damage surfaces here as an
/// error (a retryable failed attempt), never as silent data corruption
/// downstream.
fn ship<U: Wire>(
    transport: &ChannelTransport,
    spec: &JobSpec<'_>,
    kind: TaskKind,
    task: u64,
    attempt: u32,
    leg: u32,
    put: impl FnOnce(&mut Vec<u8>),
) -> Result<U, TransportError> {
    let mut payload = transport::spare_buffer();
    put(&mut payload);
    let envelope = TaskEnvelope::new(spec.job, spec.phase, kind, task, attempt, payload);
    let delivered = transport.deliver(&envelope, leg);
    transport::recycle(envelope.payload);
    let delivered = delivered?;
    let value = wire::decode(&delivered.payload)
        .map_err(|e| TransportError::Malformed(format!("payload decode: {e}")));
    transport::recycle(delivered.payload);
    value
}

/// One map task: each record's value appended to its partition's run, in
/// record order.
fn route_runs<I, V>(
    records: &[I],
    partitions: usize,
    route: &impl Fn(&I) -> (usize, V),
) -> Vec<Vec<V>> {
    let mut runs: Vec<Vec<V>> = (0..partitions).map(|_| Vec::new()).collect();
    for record in records {
        let (p, v) = route(record);
        runs[p].push(v);
    }
    runs
}

/// Appends a reduce task's input as it crosses the channel or parks in
/// the dead-letter queue: the wire form of the pair `(partition, values)`.
fn put_group<V: Wire>(partition: usize, values: &[V], out: &mut Vec<u8>) {
    partition.put(out);
    wire::put_slice(values, out);
}

/// Mirrors a job's task counters into the telemetry registry so a metrics
/// snapshot reports the same numbers the caller receives.
fn mirror_counters(totals: &TaskCounters) {
    if !m2td_obs::installed() {
        return;
    }
    m2td_obs::counter_add("mr.map_attempts", totals.map_attempts as u64);
    m2td_obs::counter_add("mr.map_kills", totals.map_kills as u64);
    m2td_obs::counter_add("mr.reduce_attempts", totals.reduce_attempts as u64);
    m2td_obs::counter_add("mr.reduce_kills", totals.reduce_kills as u64);
    m2td_obs::counter_add("mr.retries", totals.kills() as u64);
    m2td_obs::counter_add("mr.stragglers", totals.stragglers as u64);
    m2td_obs::counter_add(
        "mr.speculative_launches",
        totals.speculative_launches as u64,
    );
    m2td_obs::counter_add("mr.xport_corruptions", totals.xport_corruptions as u64);
    m2td_obs::gauge_add("mr.virtual_lost_secs", totals.virtual_lost_secs);
}

impl MapReduce {
    /// Creates an engine with `workers` threads (at least 1). The
    /// transport defaults to the `M2TD_TRANSPORT` environment variable
    /// (in-process direct calls unless it says `channel`).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            transport: TransportKind::from_env(),
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Selects how sharded tasks cross the worker boundary.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// The configured transport.
    pub fn transport(&self) -> TransportKind {
        self.transport
    }

    /// Runs a job over `partitions` declared partitions: `route` sends
    /// each input to one partition with one value (map); each partition
    /// gathers its values in input order (shuffle); `reduce` folds each
    /// non-empty partition, given its index (reduce). Reduce task `t` is
    /// the `t`-th non-empty partition in ascending order.
    ///
    /// Map tasks are at most `W` contiguous chunks of `inputs`; each
    /// pushes its values onto per-partition runs, and the shuffle
    /// concatenates every partition's runs in map-task order, moving the
    /// first. Over [`TransportKind::Direct`] nothing is copied: map tasks
    /// borrow their chunk and reducers borrow their group.
    ///
    /// Map chunks and reduce groups are the retryable task units,
    /// identified as `(job, kind, index)` and run under the spec's fault
    /// plan and retry policy. Over the channel, task inputs and outputs
    /// cross as checksummed envelopes of [`crate::wire`] bytes (both legs
    /// of every attempt): a map task ships its chunk and returns its runs,
    /// a reduce task ships `(partition, values)` and returns its output.
    /// With a recovery hook, completed reduce tasks resume from their
    /// recorded outputs (the manifest keeps `R` in its JSON form) and
    /// exhausted reduce tasks are parked for the dead-letter queue instead
    /// of failing the job; map exhaustion always fails, because without
    /// its values every reducer's group is wrong.
    ///
    /// Counters are deterministic for a given `(plan, policy, job, W)` —
    /// fault decisions depend only on task identity, and per-task deltas
    /// are merged in task order, so the physical thread count never shows
    /// through.
    ///
    /// ```
    /// use m2td_dist::{JobSpec, MapReduce};
    /// use m2td_fault::{FaultPlan, RetryPolicy};
    ///
    /// let spec = JobSpec {
    ///     job: 0,
    ///     phase: 0,
    ///     plan: &FaultPlan::none(),
    ///     policy: &RetryPolicy::default(),
    ///     recovery: None,
    /// };
    /// let out = MapReduce::new(4)
    ///     .run(
    ///         &spec,
    ///         &[1u32, 2, 3, 4, 5],
    ///         3,
    ///         |&x| (x as usize % 2 * 2, x), // odd values to partition 2
    ///         |p, values| (p, values.iter().sum::<u32>()),
    ///     )
    ///     .unwrap();
    /// // (reduce task, output) pairs; partition 1 is empty.
    /// assert_eq!(out.outputs, vec![(0, (0, 6)), (1, (2, 9))]);
    /// assert_eq!(out.stats.reduce_groups, 2);
    /// ```
    ///
    /// # Panics
    ///
    /// If `route` names a partition `>= partitions`.
    pub fn run<I, V, R>(
        &self,
        spec: &JobSpec<'_>,
        inputs: &[I],
        partitions: usize,
        route: impl Fn(&I) -> (usize, V) + Sync,
        reduce: impl Fn(usize, &[V]) -> R + Sync,
    ) -> Result<JobOutput<R>, FaultError>
    where
        I: Sync + Wire,
        V: Send + Sync + Wire,
        R: Send + Wire + ToJson + FromJson,
    {
        let _span = m2td_obs::span!("mapreduce.job", job = spec.job);
        let mut totals = TaskCounters::default();
        let transport = match self.transport {
            TransportKind::Channel => Some(ChannelTransport::new(*spec.plan)),
            TransportKind::Direct => None,
        };

        // ---- Map phase (never parked, never resumed). ----
        let chunks: Vec<&[I]> = inputs
            .chunks(inputs.len().div_ceil(self.workers).max(1))
            .collect();
        let map_tasks: Vec<u64> = (0..chunks.len() as u64).collect();
        let map_wave = run_wave(
            &WaveSpec {
                job: spec.job,
                kind: TaskKind::Map,
                workers: self.workers,
                plan: spec.plan,
                policy: spec.policy,
                park_exhausted: false,
            },
            &map_tasks,
            |t, attempt| {
                let chunk = chunks[t as usize];
                let Some(ch) = &transport else {
                    return Ok(route_runs(chunk, partitions, &route));
                };
                let input: Vec<I> = ship(ch, spec, TaskKind::Map, t, attempt, 0, |out| {
                    wire::put_slice(chunk, out)
                })?;
                ship(ch, spec, TaskKind::Map, t, attempt, 1, |out| {
                    route_runs(&input, partitions, &route).put(out)
                })
            },
            |_, _| {},
        )?;
        totals.absorb(&map_wave.counters);

        // ---- Shuffle: concatenate each partition's runs in task order. ----
        let mut task_runs = map_wave.outputs.into_iter().map(|(_, runs)| runs);
        let mut groups: Vec<Vec<V>> = task_runs.next().unwrap_or_default();
        for runs in task_runs {
            for (group, run) in groups.iter_mut().zip(runs) {
                group.extend(run);
            }
        }
        let groups: Vec<(usize, Vec<V>)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, values)| !values.is_empty())
            .collect();
        let stats = ShuffleStats {
            shuffled_pairs: inputs.len(),
            reduce_groups: groups.len(),
        };

        // ---- Triage reduce tasks against the previous run's record. ----
        let total = groups.len() as u64;
        if let Some(rec) = spec.recovery {
            rec.begin_phase(total);
        }
        let mut to_run: Vec<u64> = Vec::new();
        let mut resumed_outputs: Vec<(u64, R)> = Vec::new();
        let mut skipped_dead: Vec<u64> = Vec::new();
        let mut revived: BTreeSet<u64> = BTreeSet::new();
        for t in 0..total {
            match spec.recovery.map(|r| r.task_state(t)) {
                None | Some(TaskState::Fresh) => to_run.push(t),
                Some(TaskState::Completed(doc)) => match R::from_json(&doc) {
                    Ok(r) => resumed_outputs.push((t, r)),
                    // An undecodable recorded output is recomputed, not
                    // trusted.
                    Err(_) => to_run.push(t),
                },
                Some(TaskState::Dead { requeued: true }) => {
                    revived.insert(t);
                    to_run.push(t);
                }
                Some(TaskState::Dead { requeued: false }) => skipped_dead.push(t),
            }
        }
        let resumed = resumed_outputs.len();
        if resumed > 0 {
            m2td_obs::counter_add("manifest.tasks_resumed", resumed as u64);
        }

        // ---- Reduce phase: parked when a recovery layer is attached. ----
        let revived_ref = &revived;
        let reduce_wave = run_wave(
            &WaveSpec {
                job: spec.job,
                kind: TaskKind::Reduce,
                workers: self.workers,
                plan: spec.plan,
                policy: spec.policy,
                park_exhausted: spec.recovery.is_some(),
            },
            &to_run,
            |t, attempt| {
                let (p, values) = &groups[t as usize];
                let Some(ch) = &transport else {
                    return Ok(reduce(*p, values));
                };
                let (p, values): (usize, Vec<V>) =
                    ship(ch, spec, TaskKind::Reduce, t, attempt, 0, |out| {
                        put_group(*p, values, out)
                    })?;
                ship(ch, spec, TaskKind::Reduce, t, attempt, 1, |out| {
                    reduce(p, &values).put(out)
                })
            },
            |t, out: &R| {
                if let Some(rec) = spec.recovery {
                    rec.record_complete(t, &out.to_json());
                    if revived_ref.contains(&t) {
                        rec.record_revived(t);
                    }
                }
            },
        )?;
        totals.absorb(&reduce_wave.counters);
        mirror_counters(&totals);

        // ---- Park this run's corpses. ----
        if let Some(rec) = spec.recovery {
            for d in &reduce_wave.dead {
                let (p, values) = &groups[d.task as usize];
                let mut payload = Vec::new();
                put_group(*p, values, &mut payload);
                let envelope = TaskEnvelope::new(
                    spec.job,
                    spec.phase,
                    TaskKind::Reduce,
                    d.task,
                    d.attempts,
                    payload,
                );
                rec.record_dead(d, &envelope);
            }
        }

        let mut outputs = reduce_wave.outputs;
        outputs.extend(resumed_outputs);
        outputs.sort_by_key(|&(t, _)| t);
        Ok(JobOutput {
            outputs,
            stats,
            counters: totals,
            dead: reduce_wave.dead,
            skipped_dead,
            resumed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Job 7, phase 1 under `plan` and `policy`.
    fn spec<'a>(
        plan: &'a FaultPlan,
        policy: &'a RetryPolicy,
        recovery: Option<&'a dyn WaveRecovery>,
    ) -> JobSpec<'a> {
        JobSpec {
            job: 7,
            phase: 1,
            plan,
            policy,
            recovery,
        }
    }

    /// Runs `route`/`reduce` fault-free with no recovery hook, returning
    /// the reduce outputs (task ids dropped) and the shuffle statistics.
    fn run_clean<I, V, R>(
        engine: &MapReduce,
        inputs: &[I],
        partitions: usize,
        route: impl Fn(&I) -> (usize, V) + Sync,
        reduce: impl Fn(usize, &[V]) -> R + Sync,
    ) -> (Vec<R>, ShuffleStats)
    where
        I: Sync + Wire,
        V: Send + Sync + Wire,
        R: Send + Wire + ToJson + FromJson,
    {
        let (plan, policy) = (FaultPlan::none(), RetryPolicy::default());
        let out = engine
            .run(
                &spec(&plan, &policy, None),
                inputs,
                partitions,
                route,
                reduce,
            )
            .unwrap();
        (out.outputs.into_iter().map(|(_, r)| r).collect(), out.stats)
    }

    #[test]
    fn word_count_style_job() {
        let engine = MapReduce::new(4);
        let words: Vec<String> = ["a", "b", "a", "b", "c", "a"].map(String::from).to_vec();
        let (counts, stats) = run_clean(
            &engine,
            &words,
            26,
            |w: &String| (usize::from(w.as_bytes()[0] - b'a'), w.clone()),
            |_, ws| (ws[0].clone(), ws.len()),
        );
        assert_eq!(
            counts,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
        assert_eq!(stats.shuffled_pairs, 6);
        assert_eq!(stats.reduce_groups, 3);
    }

    #[test]
    fn results_independent_of_worker_count() {
        let inputs: Vec<u64> = (0..500).collect();
        let job = |w: usize| {
            run_clean(
                &MapReduce::new(w),
                &inputs,
                7,
                |&x| (x as usize % 7, x),
                |p, vs| (p, (vs.iter().sum::<u64>(), vs.len())),
            )
        };
        let (serial, s_stats) = job(1);
        for w in [2, 3, 8, 32] {
            let (parallel, p_stats) = job(w);
            assert_eq!(serial, parallel, "worker count {w} changed results");
            assert_eq!(s_stats, p_stats);
        }
    }

    #[test]
    fn results_identical_under_global_thread_cap() {
        // The pool cap changes physical threads, never results.
        let inputs: Vec<u64> = (0..300).collect();
        let job = || {
            run_clean(
                &MapReduce::new(4),
                &inputs,
                5,
                |&x| (x as usize % 5, x * x),
                |p, vs| (p, vs.iter().sum::<u64>()),
            )
        };
        m2td_par::set_max_threads(1);
        let capped = job();
        m2td_par::set_max_threads(8);
        let wide = job();
        m2td_par::set_max_threads(0);
        assert_eq!(capped, wide);
    }

    #[test]
    fn value_order_within_group_is_input_order() {
        let engine = MapReduce::new(5);
        let inputs: Vec<usize> = (0..100).collect();
        let (groups, _) = run_clean(&engine, &inputs, 3, |&x| (x % 3, x), |_, vs| vs.to_vec());
        for g in &groups {
            assert!(
                g.windows(2).all(|w| w[0] < w[1]),
                "group not in input order"
            );
        }
    }

    #[test]
    fn empty_input() {
        let engine = MapReduce::new(3);
        let (out, stats) = run_clean(
            &engine,
            &[] as &[u32],
            4,
            |&x| (x as usize, x),
            |_, vs: &[u32]| vs.len(),
        );
        assert!(out.is_empty());
        assert_eq!(stats, ShuffleStats::default());
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let engine = MapReduce::new(0);
        assert_eq!(engine.workers(), 1);
        let (out, _) = run_clean(
            &engine,
            &[1u8, 2],
            1,
            |&x| (0, x),
            |_, vs: &[u8]| vs.to_vec(),
        );
        assert_eq!(out, vec![vec![1, 2]]);
    }

    #[test]
    fn partitions_are_dense_ordered_and_parked_as_partition_values() {
        // Values reach partitions 0, 2, 4 and 6 of 9. Reduce task `t` is
        // partition `2t` with its values in input order across map chunks.
        let inputs: Vec<u64> = (0..200).collect();
        let route = |&x: &u64| (x as usize % 4 * 2, x);
        let group = |t: usize| -> Vec<u64> {
            inputs
                .iter()
                .copied()
                .filter(|x| x % 4 == t as u64)
                .collect()
        };
        let want: Vec<_> = (0..4).map(|t| (t as u64, (2 * t, group(t)))).collect();
        let (plan, policy) = (FaultPlan::none(), RetryPolicy::default());
        for w in [1, 2, 3, 8] {
            let spec = spec(&plan, &policy, None);
            let out = MapReduce::new(w).run(&spec, &inputs, 9, route, |p, vs| (p, vs.to_vec()));
            assert_eq!(out.unwrap().outputs, want, "w = {w}");
        }

        // Over the channel, doomed task 1 parks `(partition, values)`.
        let recovery = MemRecovery::default();
        let doomed = FaultPlan::none().in_job(7).with_doom_mask(1 << 1);
        let spec = spec(&doomed, &policy, Some(&recovery));
        let channel = MapReduce::new(3).with_transport(TransportKind::Channel);
        let out = channel.run(&spec, &inputs, 9, route, |p, vs| (p, vs.to_vec()));
        assert_eq!(out.unwrap().dead.len(), 1);
        let parked = recovery.state.into_inner().unwrap().parked;
        assert_eq!((parked.len(), parked[0].task), (1, 1));
        let payload = wire::decode::<(usize, Vec<u64>)>(&parked[0].payload).unwrap();
        assert_eq!(payload, (2, group(1)));
    }

    fn summing(
        engine: &MapReduce,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        recovery: Option<&dyn WaveRecovery>,
    ) -> Result<JobOutput<(usize, u64)>, FaultError> {
        engine.run(
            &spec(plan, policy, recovery),
            &(0..400u64).collect::<Vec<_>>(),
            5,
            |&x| (x as usize % 5, x),
            |p, vs| (p, vs.iter().sum::<u64>()),
        )
    }

    #[test]
    fn faulty_run_matches_fault_free_run() {
        let engine = MapReduce::new(4);
        let clean = summing(&engine, &FaultPlan::none(), &RetryPolicy::default(), None).unwrap();
        assert_eq!(clean.counters.kills(), 0);
        for seed in [1, 2, 3] {
            let plan = FaultPlan::new(seed, 0.4, 0.3, 20.0);
            let faulty = summing(&engine, &plan, &RetryPolicy::default(), None).unwrap();
            assert_eq!(clean.outputs, faulty.outputs, "seed {seed} changed results");
            assert_eq!(clean.stats, faulty.stats);
            assert!(faulty.counters.attempts() >= clean.counters.attempts());
        }
    }

    #[test]
    fn counters_are_deterministic_across_thread_caps() {
        let engine = MapReduce::new(4);
        let plan = FaultPlan::new(5, 0.5, 0.4, 30.0);
        m2td_par::set_max_threads(1);
        let serial = summing(&engine, &plan, &RetryPolicy::default(), None).unwrap();
        m2td_par::set_max_threads(8);
        let wide = summing(&engine, &plan, &RetryPolicy::default(), None).unwrap();
        m2td_par::set_max_threads(0);
        assert_eq!(serial.outputs, wide.outputs);
        assert_eq!(serial.stats, wide.stats);
        assert_eq!(serial.counters, wide.counters);
        assert!(serial.counters.kills() > 0, "plan injected no kills");
    }

    #[test]
    fn kills_are_retried_and_counted() {
        let engine = MapReduce::new(2);
        // Kill every first attempt; the cap lets attempt 1 through.
        let plan = FaultPlan::new(1, 1.0, 0.0, 0.0).with_kill_cap(1);
        let out = summing(&engine, &plan, &RetryPolicy::default(), None).unwrap();
        assert_eq!(out.outputs.len(), 5);
        // 2 map chunks + 5 reduce groups, each killed exactly once.
        let counters = out.counters;
        assert_eq!(counters.map_kills, 2);
        assert_eq!(counters.reduce_kills, 5);
        assert_eq!(counters.map_attempts, 4);
        assert_eq!(counters.reduce_attempts, 10);
        assert!(counters.virtual_lost_secs > 0.0);
    }

    #[test]
    fn exhausted_retry_budget_is_an_error() {
        let engine = MapReduce::new(2);
        let plan = FaultPlan::new(1, 1.0, 0.0, 0.0).with_kill_cap(u32::MAX);
        let err = summing(&engine, &plan, &RetryPolicy::with_max_attempts(3), None).unwrap_err();
        match err {
            FaultError::RetryExhausted { attempts, .. } => assert_eq!(attempts, 3),
        }
    }

    #[test]
    fn stragglers_trigger_speculation() {
        let engine = MapReduce::new(2);
        // Every attempt straggles 60s; default policy speculates after 5s.
        let plan = FaultPlan::new(2, 0.0, 1.0, 60.0);
        let out = summing(&engine, &plan, &RetryPolicy::default(), None).unwrap();
        assert_eq!(out.outputs.len(), 5);
        let counters = out.counters;
        assert_eq!(counters.stragglers, 7); // 2 map + 5 reduce tasks
        assert_eq!(counters.speculative_launches, 7);
        // Charged delay is capped at the speculation threshold.
        assert!((counters.virtual_lost_secs - 7.0 * 5.0).abs() < 1e-12);
    }

    #[test]
    fn scoped_plan_leaves_other_jobs_alone() {
        let engine = MapReduce::new(2);
        let plan = FaultPlan::new(3, 1.0, 0.0, 0.0).in_job(99);
        // Job 7 is untouched even though the kill rate is 1.
        let out = summing(&engine, &plan, &RetryPolicy::no_retries(), None).unwrap();
        assert_eq!(out.counters.kills(), 0);
    }

    #[test]
    fn channel_transport_matches_direct_bitwise() {
        let direct = MapReduce::new(3).with_transport(TransportKind::Direct);
        let channel = MapReduce::new(3).with_transport(TransportKind::Channel);
        let plan = FaultPlan::new(9, 0.3, 0.2, 20.0);
        let a = summing(&direct, &plan, &RetryPolicy::default(), None).unwrap();
        let b = summing(&channel, &plan, &RetryPolicy::default(), None).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn channel_carries_values_json_could_not_bit_for_bit() {
        // A NaN with a non-default payload, ±inf, −0.0, a subnormal, and
        // u64s at and above 2^63: as inputs, routed values and outputs.
        let floats = [
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::from_bits(1),
        ];
        let keys = [1u64 << 63, u64::MAX, 0, 3, u64::MAX - 7];
        let inputs: Vec<(u64, f64)> = keys.iter().flat_map(|&k| floats.map(|v| (k, v))).collect();
        let (plan, policy) = (FaultPlan::none(), RetryPolicy::default());
        let job = |transport| {
            MapReduce::new(3)
                .with_transport(transport)
                .run(
                    &spec(&plan, &policy, None),
                    &inputs,
                    3,
                    |&(k, v): &(u64, f64)| ((k % 3) as usize, (k ^ v.to_bits(), v)),
                    |p, vs| (u64::MAX - p as u64, vs.to_vec()),
                )
                .unwrap()
        };
        // Every task id, key and value bit pattern, in output order.
        let bits = |out: &JobOutput<(u64, Vec<(u64, f64)>)>| -> Vec<u64> {
            let cells = |vs: &[(u64, f64)]| -> Vec<u64> {
                vs.iter().flat_map(|&(k, v)| [k, v.to_bits()]).collect()
            };
            let tasks = out.outputs.iter();
            tasks
                .flat_map(|(t, (p, vs))| [vec![*t, *p], cells(vs)].concat())
                .collect()
        };
        let (direct, channel) = (job(TransportKind::Direct), job(TransportKind::Channel));
        assert_eq!(bits(&channel), bits(&direct));
        assert_eq!(channel.outputs.len(), 2);
        // Every envelope decoded on its first attempt.
        assert_eq!(channel.counters, direct.counters);
        assert_eq!(channel.counters.kills(), 0);
        assert_eq!(channel.counters.xport_corruptions, 0);
    }

    #[test]
    fn wire_corruption_is_retried_without_changing_results() {
        let channel = MapReduce::new(2).with_transport(TransportKind::Channel);
        let clean = summing(&channel, &FaultPlan::none(), &RetryPolicy::default(), None).unwrap();
        let noisy_plan = FaultPlan::none().with_xport_corrupt_rate(0.4);
        let noisy = summing(&channel, &noisy_plan, &RetryPolicy::default(), None).unwrap();
        assert_eq!(clean.outputs, noisy.outputs);
        assert!(
            noisy.counters.xport_corruptions > 0,
            "plan injected no wire damage"
        );
        assert!(noisy.counters.attempts() > clean.counters.attempts());
    }

    /// In-memory recovery: the manifest/DLQ wiring without the disk.
    #[derive(Default)]
    struct MemRecovery {
        state: Mutex<MemState>,
    }

    #[derive(Default)]
    struct MemState {
        total: u64,
        completed: BTreeMap<u64, Json>,
        dead: BTreeMap<u64, bool>, // task -> requeued
        parked: Vec<TaskEnvelope>,
        revived: Vec<u64>,
    }

    impl WaveRecovery for MemRecovery {
        fn begin_phase(&self, total: u64) {
            self.state.lock().unwrap().total = total;
        }
        fn task_state(&self, task: u64) -> TaskState {
            let s = self.state.lock().unwrap();
            if let Some(doc) = s.completed.get(&task) {
                return TaskState::Completed(doc.clone());
            }
            if let Some(&requeued) = s.dead.get(&task) {
                return TaskState::Dead { requeued };
            }
            TaskState::Fresh
        }
        fn record_complete(&self, task: u64, output: &Json) {
            let mut s = self.state.lock().unwrap();
            s.dead.remove(&task);
            s.completed.insert(task, output.clone());
        }
        fn record_dead(&self, dead: &DeadTask, envelope: &TaskEnvelope) {
            assert_eq!(dead.task, envelope.task);
            let mut s = self.state.lock().unwrap();
            s.completed.remove(&dead.task);
            s.dead.insert(dead.task, false);
            s.parked.push(envelope.clone());
        }
        fn record_revived(&self, task: u64) {
            self.state.lock().unwrap().revived.push(task);
        }
    }

    #[test]
    fn doomed_tasks_park_then_requeue_then_drain() {
        let engine = MapReduce::new(2);
        let policy = RetryPolicy::default();
        let recovery = MemRecovery::default();

        // Run 1: task 2's every attempt is killed — parked, not fatal.
        let doomed = FaultPlan::none().in_job(7).with_doom_mask(1 << 2);
        let out = summing(&engine, &doomed, &policy, Some(&recovery)).unwrap();
        assert_eq!(out.stats.reduce_groups, 5);
        assert_eq!(out.dead.len(), 1);
        assert_eq!(out.dead[0].task, 2);
        assert_eq!(out.dead[0].attempts, policy.max_attempts);
        assert_eq!(
            out.outputs.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![0, 1, 3, 4]
        );
        let parked: Vec<u64> = recovery
            .state
            .lock()
            .unwrap()
            .parked
            .iter()
            .map(|e| e.task)
            .collect();
        assert_eq!(parked, vec![2]);

        // Run 2: task 2 still dead and not requeued — skipped, others
        // resumed from their recorded outputs without re-running.
        let reduce_calls = AtomicUsize::new(0);
        let out2 = engine
            .run(
                &spec(&FaultPlan::none(), &policy, Some(&recovery)),
                &(0..400u64).collect::<Vec<_>>(),
                5,
                |&x| (x as usize % 5, x),
                |p, vs| {
                    reduce_calls.fetch_add(1, Ordering::Relaxed);
                    (p, vs.iter().sum::<u64>())
                },
            )
            .unwrap();
        assert_eq!(out2.resumed, 4);
        assert_eq!(out2.skipped_dead, vec![2]);
        assert_eq!(reduce_calls.load(Ordering::Relaxed), 0);
        assert_eq!(out2.outputs, out.outputs);

        // Run 3: requeued and no longer doomed — revived and drained.
        recovery.state.lock().unwrap().dead.insert(2, true);
        let out3 = summing(&engine, &FaultPlan::none(), &policy, Some(&recovery)).unwrap();
        assert_eq!(out3.resumed, 4);
        assert!(out3.skipped_dead.is_empty() && out3.dead.is_empty());
        assert_eq!(out3.outputs.len(), 5);
        assert_eq!(recovery.state.lock().unwrap().revived, vec![2]);

        // The full set matches a fresh, fault-free run bitwise.
        let fresh = summing(&engine, &FaultPlan::none(), &policy, None).unwrap();
        assert_eq!(out3.outputs, fresh.outputs);
    }

    #[test]
    fn map_exhaustion_still_fails_even_with_recovery() {
        let engine = MapReduce::new(2);
        let plan = FaultPlan::new(1, 1.0, 0.0, 0.0)
            .with_kill_cap(u32::MAX)
            .in_job(7);
        let recovery = MemRecovery::default();
        let err = summing(
            &engine,
            &plan,
            &RetryPolicy::with_max_attempts(2),
            Some(&recovery),
        )
        .unwrap_err();
        let FaultError::RetryExhausted { kind, .. } = err;
        assert_eq!(kind, TaskKind::Map);
    }
}
