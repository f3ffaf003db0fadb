//! Job manifest: per-phase task completion for job-level resume.
//!
//! A [`JobManifest`] records, for each D-M2TD phase, which reduce tasks
//! have completed (with their serialized outputs) and which are dead
//! (parked in the dead-letter queue). A killed process restarted over
//! the same inputs loads the manifest, replays completed tasks from
//! their stored outputs, skips dead tasks that were not requeued, and
//! re-runs only the remainder. Map tasks are never recorded — a map
//! re-run is cheap, deterministic, and required anyway to rebuild the
//! shuffle groups the surviving reduce tasks consume.
//!
//! ## Append-only log (format v3)
//!
//! `manifest.json` in the checkpoint directory is a [`SealedLog`]: one
//! sealed record per line (see [`m2td_guard::integrity`]), each verified
//! before its body is parsed. Record 0 holds the input [`Fingerprint`];
//! every later record is one event — `begin` (a phase's task total),
//! `complete` (a task and its serialized output) or `dead` — numbered
//! consecutively, so a reordered, dropped or duplicated line reads as
//! damage. Recording a task appends O(its output) bytes and rewrites
//! nothing. [`ManifestStore::resume`] folds the events into a
//! [`JobManifest`] and compacts the log to one event per recorded fact.
//! The log is flushed per record and never fsynced: a lost record only
//! means the next run re-executes a task it could have resumed.
//!
//! A log for different inputs is not resumed (counted in
//! `manifest.fingerprint_mismatches`): the run starts fresh rather than
//! stitching outputs from two different jobs. A torn last record is
//! dropped. Damage before the last record keeps the verified prefix of
//! events and quarantines the file to `manifest.quarantined.<n>.json`
//! (counted in `manifest.log_quarantined`).

use crate::checkpoint::Fingerprint;
use m2td_guard::integrity::{SealedFiles, SealedLog};
use m2td_json::{FromJson, Json, ToJson};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Completion bookkeeping for one phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseManifest {
    /// Total reduce tasks the phase schedules.
    pub total: u64,
    /// Completed reduce tasks, keyed by task id, with serialized outputs.
    pub completed: BTreeMap<u64, Json>,
    /// Reduce tasks whose retry budget was exhausted (parked in the DLQ).
    pub dead: BTreeSet<u64>,
}

/// Per-phase completion state of one job over one set of inputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobManifest {
    /// Phase number (1–3) to its bookkeeping.
    pub phases: BTreeMap<u8, PhaseManifest>,
}

impl JobManifest {
    /// Ensures a phase entry exists with the given task total and returns
    /// it. A total that changed (different chunking) resets the phase —
    /// its recorded task ids no longer mean the same work.
    pub fn begin_phase(&mut self, phase: u8, total: u64) -> &mut PhaseManifest {
        let entry = self.phases.entry(phase).or_default();
        if entry.total != total {
            *entry = PhaseManifest {
                total,
                ..PhaseManifest::default()
            };
        }
        entry
    }

    /// The recorded output of a completed task, if any.
    pub fn completed_output(&self, phase: u8, task: u64) -> Option<&Json> {
        self.phases.get(&phase)?.completed.get(&task)
    }

    /// Whether the task is recorded dead.
    pub fn is_dead(&self, phase: u8, task: u64) -> bool {
        self.phases
            .get(&phase)
            .is_some_and(|p| p.dead.contains(&task))
    }

    /// Records a completed task with its serialized output, clearing any
    /// stale dead mark (a drained requeue).
    pub fn record_complete(&mut self, phase: u8, task: u64, output: Json) {
        let entry = self.phases.entry(phase).or_default();
        entry.dead.remove(&task);
        entry.completed.insert(task, output);
    }

    /// Records a task whose retry budget was exhausted.
    pub fn record_dead(&mut self, phase: u8, task: u64) {
        let entry = self.phases.entry(phase).or_default();
        entry.completed.remove(&task);
        entry.dead.insert(task);
    }
}

/// One recorded fact of the manifest log. `Begin(phase, total)`,
/// `Complete(phase, task, output)` and `Dead(phase, task)` mirror the
/// [`JobManifest`] updates of the same names.
enum Event {
    /// Record 0: the inputs the log belongs to.
    Fingerprint(Json),
    Begin(u8, u64),
    Complete(u8, u64, Json),
    Dead(u8, u64),
}

impl Event {
    /// The record body, e.g. `{"seq":5,"phase":3,"complete":1,"output":…}`.
    fn to_json(&self, seq: u64) -> Json {
        let mut fields = vec![("seq".to_string(), seq.to_json())];
        let (phase, key, n) = match self {
            Event::Fingerprint(fp) => {
                fields.push(("fingerprint".to_string(), fp.clone()));
                return Json::Obj(fields);
            }
            Event::Begin(phase, total) => (phase, "begin", total),
            Event::Complete(phase, task, _) => (phase, "complete", task),
            Event::Dead(phase, task) => (phase, "dead", task),
        };
        fields.push(("phase".to_string(), phase.to_json()));
        fields.push((key.to_string(), n.to_json()));
        if let Event::Complete(_, _, output) = self {
            fields.push(("output".to_string(), output.clone()));
        }
        Json::Obj(fields)
    }

    fn from_json(body: &Json) -> Option<Self> {
        if let Some(fp) = body.get("fingerprint") {
            return Some(Event::Fingerprint(fp.clone()));
        }
        let phase = u8::from_json(body.get("phase")?).ok()?;
        let int = |key: &str| body.get(key).and_then(|v| v.as_u64().ok());
        if let Some(total) = int("begin") {
            Some(Event::Begin(phase, total))
        } else if let Some(task) = int("complete") {
            Some(Event::Complete(phase, task, body.get("output")?.clone()))
        } else {
            Some(Event::Dead(phase, int("dead")?))
        }
    }
}

impl JobManifest {
    fn apply(&mut self, event: Event) {
        match event {
            Event::Fingerprint(_) => {}
            Event::Begin(phase, total) => {
                self.begin_phase(phase, total);
            }
            Event::Complete(phase, task, output) => self.record_complete(phase, task, output),
            Event::Dead(phase, task) => self.record_dead(phase, task),
        }
    }

    /// The events that rebuild this manifest from an empty one.
    fn events(&self) -> impl Iterator<Item = Event> + '_ {
        self.phases.iter().flat_map(|(&phase, p)| {
            let done = p.completed.iter();
            let done = done.map(move |(&task, out)| Event::Complete(phase, task, out.clone()));
            let dead = p.dead.iter().map(move |&task| Event::Dead(phase, task));
            std::iter::once(Event::Begin(phase, p.total))
                .chain(done)
                .chain(dead)
        })
    }
}

/// The manifest log of a checkpoint directory.
#[derive(Debug, Clone)]
pub struct ManifestStore {
    files: SealedFiles,
}

impl ManifestStore {
    /// File name of the manifest log inside a checkpoint directory.
    pub const FILE_NAME: &'static str = "manifest.json";

    /// Opens the store rooted at `dir`, creating the directory if needed.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            files: SealedFiles::new(dir.as_ref(), "manifest.log", &["manifest"]),
        })
    }

    /// Folds the log into the manifest recorded for exactly these inputs
    /// (empty when the log is absent or belongs to other inputs), then
    /// compacts the log and returns the handle later events append
    /// through.
    pub fn resume(&self, fingerprint: &Fingerprint) -> Result<ManifestLog, String> {
        let path = self.files.path(Self::FILE_NAME);
        let mut next = 0u64;
        let read = SealedLog::read(&path, |body| {
            let event = Event::from_json(&body)?;
            let in_place = body.get("seq")?.as_u64().ok()? == next
                && (next == 0) == matches!(event, Event::Fingerprint(_));
            next += 1;
            in_place.then_some(event)
        });
        if read.corrupt {
            self.files.quarantine(Self::FILE_NAME, "corrupt");
        }
        let fp = fingerprint.to_json();
        let mut manifest = JobManifest::default();
        let mut events = read.records.into_iter();
        match events.next() {
            Some(Event::Fingerprint(stored)) if stored == fp => {
                events.for_each(|e| manifest.apply(e))
            }
            Some(_) => m2td_obs::counter_add("manifest.fingerprint_mismatches", 1),
            None => {}
        }
        let mut log = SealedLog::open(&path, 0)?;
        let compacted: Vec<Event> = std::iter::once(Event::Fingerprint(fp))
            .chain(manifest.events())
            .collect();
        log.rewrite(compacted.iter().zip(0..).map(|(e, seq)| e.to_json(seq)))?;
        Ok(ManifestLog {
            log,
            next_seq: compacted.len() as u64,
            manifest,
        })
    }
}

/// A resumed manifest and the log its updates append to. Each update
/// applies to the in-memory [`JobManifest`] and appends one record.
#[derive(Debug)]
pub struct ManifestLog {
    log: SealedLog,
    next_seq: u64,
    manifest: JobManifest,
}

impl ManifestLog {
    /// The manifest as recorded so far.
    pub fn manifest(&self) -> &JobManifest {
        &self.manifest
    }

    /// Records that `phase` schedules `total` reduce tasks.
    pub fn begin_phase(&mut self, phase: u8, total: u64) -> Result<(), String> {
        self.record(Event::Begin(phase, total))
    }

    /// Records a completed task with its serialized output.
    pub fn record_complete(&mut self, phase: u8, task: u64, output: Json) -> Result<(), String> {
        self.record(Event::Complete(phase, task, output))
    }

    /// Records a task whose retry budget was exhausted.
    pub fn record_dead(&mut self, phase: u8, task: u64) -> Result<(), String> {
        self.record(Event::Dead(phase, task))
    }

    fn record(&mut self, event: Event) -> Result<(), String> {
        let body = event.to_json(self.next_seq);
        self.manifest.apply(event);
        self.log.append(&body)?;
        self.next_seq += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2td_core::M2tdOptions;
    use m2td_linalg::Matrix;
    use m2td_tensor::SparseTensor;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("m2td_manifest_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fp(k: usize) -> Fingerprint {
        let x1 =
            SparseTensor::from_entries(&[3, 2], &[(vec![0, 0], 1.0), (vec![2, 1], -0.5)]).unwrap();
        let x2 = SparseTensor::from_entries(&[3, 2], &[(vec![1, 1], 2.0)]).unwrap();
        Fingerprint::new(&x1, &x2, k, &[2, 2, 2], &M2tdOptions::default())
    }

    /// Records the sample history through `log`.
    fn record_sample(log: &mut ManifestLog) {
        log.begin_phase(1, 3).unwrap();
        log.record_complete(1, 0, Json::Str("out0".to_string()))
            .unwrap();
        log.record_complete(1, 2, Json::Str("out2".to_string()))
            .unwrap();
        log.record_dead(1, 1).unwrap();
        log.begin_phase(3, 5).unwrap();
        log.record_complete(3, 4, Json::Int(9)).unwrap();
    }

    fn sample() -> JobManifest {
        let mut m = JobManifest::default();
        m.begin_phase(1, 3);
        m.record_complete(1, 0, Json::Str("out0".to_string()));
        m.record_complete(1, 2, Json::Str("out2".to_string()));
        m.record_dead(1, 1);
        m.begin_phase(3, 5);
        m.record_complete(3, 4, Json::Int(9));
        m
    }

    fn lines(store: &ManifestStore) -> Vec<String> {
        let text = std::fs::read_to_string(store.files.path(ManifestStore::FILE_NAME)).unwrap();
        text.lines().map(str::to_string).collect()
    }

    #[test]
    fn manifest_round_trips_by_fingerprint() {
        let store = ManifestStore::open(tmp_dir("roundtrip")).unwrap();
        record_sample(&mut store.resume(&fp(7)).unwrap());
        assert_eq!(store.resume(&fp(7)).unwrap().manifest(), &sample());
        // Resuming again after a compaction reads the same state.
        assert_eq!(store.resume(&fp(7)).unwrap().manifest(), &sample());
        // A different input fingerprint must not resume from this state,
        // and starts the log afresh.
        assert_eq!(
            store.resume(&fp(8)).unwrap().manifest(),
            &JobManifest::default()
        );
        assert_eq!(
            store.resume(&fp(7)).unwrap().manifest(),
            &JobManifest::default()
        );
    }

    #[test]
    fn recording_a_task_appends_exactly_one_record() {
        let store = ManifestStore::open(tmp_dir("linear")).unwrap();
        let path = store.files.path(ManifestStore::FILE_NAME);
        let mut log = store.resume(&fp(7)).unwrap();
        log.begin_phase(1, 64).unwrap();
        for task in 0..64u64 {
            let before = std::fs::read(&path).unwrap();
            log.record_complete(1, task, Json::Int(task as i64))
                .unwrap();
            let after = std::fs::read(&path).unwrap();
            assert!(after.starts_with(&before), "task {task} rewrote history");
            let grown = &after[before.len()..];
            assert_eq!(grown.iter().filter(|&&b| b == b'\n').count(), 1);
            assert_eq!(grown.last(), Some(&b'\n'));
        }
        // Compaction on resume keeps one record per fact.
        assert_eq!(
            store.resume(&fp(7)).unwrap().manifest().phases[&1]
                .completed
                .len(),
            64
        );
        assert_eq!(lines(&store).len(), 1 + 1 + 64);
    }

    #[test]
    fn completion_clears_dead_and_vice_versa() {
        let mut m = sample();
        assert!(m.is_dead(1, 1));
        m.record_complete(1, 1, Json::Null);
        assert!(!m.is_dead(1, 1));
        assert!(m.completed_output(1, 1).is_some());
        m.record_dead(1, 1);
        assert!(m.completed_output(1, 1).is_none());
    }

    #[test]
    fn changed_totals_reset_a_phase() {
        let mut m = sample();
        assert_eq!(m.begin_phase(1, 3).completed.len(), 2);
        let entry = m.begin_phase(1, 4);
        assert_eq!(entry.total, 4);
        assert!(entry.completed.is_empty() && entry.dead.is_empty());
    }

    #[test]
    fn damage_keeps_the_verified_prefix() {
        let store = ManifestStore::open(tmp_dir("damaged")).unwrap();
        record_sample(&mut store.resume(&fp(7)).unwrap());
        let path = store.files.path(ManifestStore::FILE_NAME);
        let good = lines(&store);
        // Fingerprint, begin, complete 0, complete 2, dead 1, begin, ...
        let mut prefix = JobManifest::default();
        prefix.begin_phase(1, 3);
        prefix.record_complete(1, 0, Json::Str("out0".to_string()));

        // Mid-log damage: the prefix before it survives, the file is
        // quarantined byte for byte.
        let mut damaged = good.clone();
        damaged[3] = damaged[3].replacen("out2", "out!", 1);
        let text = damaged.join("\n") + "\n";
        std::fs::write(&path, &text).unwrap();
        assert_eq!(store.resume(&fp(7)).unwrap().manifest(), &prefix);
        let moved = store.files.path("manifest.quarantined.1.json");
        assert_eq!(std::fs::read_to_string(moved).unwrap(), text);

        // Swapped lines read as damage, not as a reordered history.
        let mut swapped = good.clone();
        swapped.swap(3, 4);
        std::fs::write(&path, swapped.join("\n") + "\n").unwrap();
        assert_eq!(store.resume(&fp(7)).unwrap().manifest(), &prefix);

        // A torn tail drops only the last record.
        let torn = good.join("\n");
        std::fs::write(&path, &torn[..torn.len() - 3]).unwrap();
        let mut all_but_last = sample();
        all_but_last.phases.get_mut(&3).unwrap().completed.clear();
        assert_eq!(store.resume(&fp(7)).unwrap().manifest(), &all_but_last);
        assert_eq!(store.files.quarantined("manifest").len(), 2);
    }

    #[test]
    fn hostile_nesting_is_treated_as_absent() {
        let store = ManifestStore::open(tmp_dir("hostile")).unwrap();
        let path = store.files.path(ManifestStore::FILE_NAME);
        std::fs::write(path, "[".repeat(100_000)).unwrap();
        assert_eq!(
            store.resume(&fp(7)).unwrap().manifest(),
            &JobManifest::default()
        );
    }

    #[test]
    fn phase1_outputs_round_trip() {
        // The deepest document the workspace writes: phase-1 reduce
        // outputs `{"ok": [κ, grams, factors]}` inside a manifest record.
        let gram = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 * 0.25);
        let factor = Matrix::from_fn(3, 2, |i, j| (i + j) as f64 - 0.5);
        let output = Json::Obj(vec![(
            "ok".to_string(),
            (1u8, vec![gram.clone(), gram], vec![factor.clone(), factor]).to_json(),
        )]);
        let store = ManifestStore::open(tmp_dir("phase1")).unwrap();
        let mut log = store.resume(&fp(7)).unwrap();
        log.begin_phase(1, 2).unwrap();
        log.record_complete(1, 0, output.clone()).unwrap();
        log.record_complete(1, 1, output).unwrap();
        let expected = log.manifest().clone();
        assert_eq!(store.resume(&fp(7)).unwrap().manifest(), &expected);
    }
}
