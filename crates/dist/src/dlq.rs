//! Dead-letter queue: where exhausted tasks go instead of killing the job.
//!
//! When a reduce task is killed on every attempt its [`RetryPolicy`]
//! budget allows, a recovery-enabled run no longer aborts: the task's
//! envelope (identity + input payload), its attempt history,
//! and the terminal error are **parked** as a [`DlqEntry`] in `dlq.json`
//! next to the job manifest, and the phase completes degraded where
//! coverage allows. Operators inspect the queue with `m2td-cli dlq list`,
//! mark entries for another try with `dlq requeue`, and discard them with
//! `dlq purge`. A requeued entry makes the next run over the same inputs
//! re-execute that task; success **drains** the entry and un-marks the
//! task in the job manifest.
//!
//! `dlq.json` is one sealed record of the shared codec in
//! [`m2td_guard::integrity`] (format v3: a `{version, checksum}` header,
//! a tab, then the raw entry array, verified before it is parsed, and
//! published atomically). The queue spans runs, so it carries no input
//! fingerprint: its entries carry their own identity. A file that fails
//! verification or does not decode is quarantined — moved aside byte for
//! byte to `dlq.quarantined.<n>.json` and counted in
//! `dlq.file_quarantined` — and the queue starts empty, so the next
//! `park` can never overwrite parked history.
//!
//! [`RetryPolicy`]: m2td_fault::RetryPolicy

use crate::transport::TaskEnvelope;
use m2td_guard::integrity::SealedFiles;
use m2td_json::{FromJson, Json, JsonError, ToJson};
use std::path::Path;
use std::sync::Mutex;

/// One parked task.
#[derive(Debug, Clone, PartialEq)]
pub struct DlqEntry {
    /// Job the task belonged to.
    pub job: u64,
    /// D-M2TD phase (1–3).
    pub phase: u8,
    /// Task kind as a display string (`map` / `reduce` / `simulation`).
    pub kind: String,
    /// Task index within the job.
    pub task: u64,
    /// Attempts consumed before parking.
    pub attempts: u32,
    /// One line per attempt: what the fault plan and transport did.
    pub log: Vec<String>,
    /// The terminal error, rendered.
    pub error: String,
    /// The task's input payload: its [`crate::wire`] bytes, as shipped
    /// over the channel, written as lowercase hex (two digits a byte) —
    /// enough to identify and (in a rerun over the same inputs)
    /// re-execute it.
    pub payload: String,
    /// Set by `dlq requeue`: the next run re-executes this task instead of
    /// skipping it as dead.
    pub requeued: bool,
}

impl DlqEntry {
    /// Builds an entry from a parked task's envelope and history.
    pub(crate) fn from_envelope(
        envelope: &TaskEnvelope,
        attempts: u32,
        log: Vec<String>,
        error: String,
    ) -> Self {
        Self {
            job: envelope.job,
            phase: envelope.phase,
            kind: envelope.kind.to_string(),
            task: envelope.task,
            attempts,
            log,
            error,
            payload: hex(&envelope.payload),
            requeued: false,
        }
    }
}

/// `bytes` as lowercase hex, two digits a byte.
fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(2 * bytes.len());
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    out
}

impl ToJson for DlqEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("job".to_string(), self.job.to_json()),
            ("phase".to_string(), self.phase.to_json()),
            ("kind".to_string(), self.kind.to_json()),
            ("task".to_string(), self.task.to_json()),
            ("attempts".to_string(), self.attempts.to_json()),
            ("log".to_string(), self.log.to_json()),
            ("error".to_string(), self.error.to_json()),
            ("payload".to_string(), self.payload.to_json()),
            ("requeued".to_string(), self.requeued.to_json()),
        ])
    }
}

impl FromJson for DlqEntry {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            job: u64::from_json(json.require("job")?)?,
            phase: u8::from_json(json.require("phase")?)?,
            kind: String::from_json(json.require("kind")?)?,
            task: u64::from_json(json.require("task")?)?,
            attempts: u32::from_json(json.require("attempts")?)?,
            log: Vec::<String>::from_json(json.require("log")?)?,
            error: String::from_json(json.require("error")?)?,
            payload: String::from_json(json.require("payload")?)?,
            requeued: bool::from_json(json.require("requeued")?)?,
        })
    }
}

/// The persistent dead-letter queue of one job directory.
#[derive(Debug)]
pub struct DlqStore {
    files: SealedFiles,
    entries: Mutex<Vec<DlqEntry>>,
}

impl DlqStore {
    /// File name of the queue inside a job directory.
    pub const FILE_NAME: &'static str = "dlq.json";

    /// Opens the queue stored in `dir` (typically the job directory,
    /// next to the manifest). A missing file yields an empty queue; so does a
    /// damaged one, after it is quarantined.
    pub fn open(dir: impl AsRef<Path>) -> Self {
        let files = SealedFiles::new(dir.as_ref(), "dlq.file", &["dlq"]);
        let entries = files
            .load(Self::FILE_NAME, |body| {
                Vec::<DlqEntry>::from_json(&body)
                    .map(Some)
                    .map_err(|_| "payload")
            })
            .ok()
            .flatten()
            .unwrap_or_default();
        let store = Self {
            files,
            entries: Mutex::new(entries),
        };
        store.publish_depth();
        store
    }

    fn publish_depth(&self) {
        m2td_obs::gauge_set("dlq.depth", self.depth() as f64);
    }

    fn persist(&self) -> Result<(), String> {
        let entries = self.entries.lock().unwrap().to_json();
        self.files.publish(Self::FILE_NAME, &entries)
    }

    /// Number of parked entries.
    pub fn depth(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Snapshot of every entry, in parking order.
    pub fn entries(&self) -> Vec<DlqEntry> {
        self.entries.lock().unwrap().clone()
    }

    /// Whether the entry for `(job, phase, task)` is marked for requeue.
    pub fn is_requeued(&self, job: u64, phase: u8, task: u64) -> bool {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .any(|e| e.job == job && e.phase == phase && e.task == task && e.requeued)
    }

    /// Parks (or re-parks) an entry. A fresh death for a task already in
    /// the queue replaces its entry and clears any requeue mark — the
    /// retry was spent. Persists the queue and bumps `dlq.parked`.
    pub fn park(&self, entry: DlqEntry) -> Result<(), String> {
        {
            let mut entries = self.entries.lock().unwrap();
            if let Some(slot) = entries
                .iter_mut()
                .find(|e| e.job == entry.job && e.phase == entry.phase && e.task == entry.task)
            {
                *slot = entry;
            } else {
                entries.push(entry);
            }
        }
        m2td_obs::counter_add("dlq.parked", 1);
        self.publish_depth();
        self.persist()
    }

    /// Removes the entry for a task that has since completed (a drained
    /// requeue). Persists and bumps `dlq.drained` when an entry existed.
    pub fn drain(&self, job: u64, phase: u8, task: u64) -> Result<bool, String> {
        let removed = {
            let mut entries = self.entries.lock().unwrap();
            let before = entries.len();
            entries.retain(|e| !(e.job == job && e.phase == phase && e.task == task));
            before != entries.len()
        };
        if removed {
            m2td_obs::counter_add("dlq.drained", 1);
            self.publish_depth();
            self.persist()?;
        }
        Ok(removed)
    }

    /// Marks every entry for requeue; returns how many were newly marked.
    pub fn requeue_all(&self) -> Result<usize, String> {
        let marked = {
            let mut entries = self.entries.lock().unwrap();
            let mut marked = 0;
            for e in entries.iter_mut() {
                if !e.requeued {
                    e.requeued = true;
                    marked += 1;
                }
            }
            marked
        };
        if marked > 0 {
            self.persist()?;
        }
        Ok(marked)
    }

    /// Discards every entry; returns how many were removed.
    pub fn purge(&self) -> Result<usize, String> {
        let removed = {
            let mut entries = self.entries.lock().unwrap();
            let n = entries.len();
            entries.clear();
            n
        };
        self.publish_depth();
        if removed > 0 {
            self.persist()?;
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use m2td_fault::TaskKind;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("m2td_dlq_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(task: u64) -> DlqEntry {
        let env = TaskEnvelope::new(3, 3, TaskKind::Reduce, task, 4, wire::encode(&task));
        DlqEntry::from_envelope(
            &env,
            4,
            vec!["attempt 0: killed by fault plan".to_string()],
            "retry budget exhausted".to_string(),
        )
    }

    #[test]
    fn entries_round_trip_through_the_file() {
        let dir = tmp_dir("roundtrip");
        let store = DlqStore::open(&dir);
        assert_eq!(store.depth(), 0);
        store.park(entry(7)).unwrap();
        store.park(entry(2)).unwrap();
        let reopened = DlqStore::open(&dir);
        assert_eq!(reopened.depth(), 2);
        assert_eq!(reopened.entries(), store.entries());
        let e = &reopened.entries()[0];
        assert_eq!((e.job, e.phase, e.task), (3, 3, 7));
        assert_eq!(e.kind, "reduce");
        assert_eq!(e.payload, "0700000000000000");
        assert!(!e.requeued);
    }

    #[test]
    fn park_upserts_and_clears_requeue_marks() {
        let dir = tmp_dir("upsert");
        let store = DlqStore::open(&dir);
        store.park(entry(7)).unwrap();
        assert_eq!(store.requeue_all().unwrap(), 1);
        assert!(store.is_requeued(3, 3, 7));
        // The task died again: the retry was spent, the mark clears.
        store.park(entry(7)).unwrap();
        assert_eq!(store.depth(), 1);
        assert!(!store.is_requeued(3, 3, 7));
    }

    #[test]
    fn drain_and_purge_remove_entries() {
        let dir = tmp_dir("drain");
        let store = DlqStore::open(&dir);
        store.park(entry(1)).unwrap();
        store.park(entry(2)).unwrap();
        assert!(store.drain(3, 3, 1).unwrap());
        assert!(!store.drain(3, 3, 1).unwrap(), "double drain");
        assert_eq!(store.depth(), 1);
        assert_eq!(store.purge().unwrap(), 1);
        assert_eq!(store.depth(), 0);
        assert_eq!(DlqStore::open(&dir).depth(), 0);
    }

    #[test]
    fn corrupt_queue_files_degrade_to_empty() {
        let dir = tmp_dir("corrupt");
        let store = DlqStore::open(&dir);
        store.park(entry(1)).unwrap();
        std::fs::write(dir.join(DlqStore::FILE_NAME), "{torn").unwrap();
        assert_eq!(DlqStore::open(&dir).depth(), 0);
        // Hostile nesting is rejected by the header check, unparsed.
        std::fs::write(dir.join(DlqStore::FILE_NAME), "[".repeat(100_000)).unwrap();
        assert_eq!(DlqStore::open(&dir).depth(), 0);
        // A checksum-valid but version-stale record is also rejected.
        store.park(entry(1)).unwrap();
        SealedFiles::new(&dir, "dlq.file", &[])
            .corrupt(
                DlqStore::FILE_NAME,
                m2td_fault::CorruptionKind::StaleVersion,
            )
            .unwrap();
        assert_eq!(DlqStore::open(&dir).depth(), 0);
        // Each damaged file was moved aside, none overwritten.
        for n in 1..=3 {
            assert!(dir.join(format!("dlq.quarantined.{n}.json")).exists());
        }
    }
}
