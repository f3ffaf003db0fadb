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
//! The manifest is persisted as a format-v2 record (`manifest.json`:
//! version, input fingerprint, checksum, atomic unique-temp write) in
//! the checkpoint directory. A record whose checksum fails or whose
//! fingerprint does not match the current inputs is treated as absent:
//! resuming over different inputs silently degrades to a full run
//! rather than stitching outputs from two different jobs.

use crate::checkpoint::Fingerprint;
use crate::checkpoint::{open_record, seal_record, write_atomic};
use m2td_json::{FromJson, Json, JsonError, ToJson};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

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

impl ToJson for PhaseManifest {
    fn to_json(&self) -> Json {
        let completed = self
            .completed
            .iter()
            .map(|(task, out)| (task.to_string(), out.clone()))
            .collect();
        Json::Obj(vec![
            ("total".to_string(), self.total.to_json()),
            ("completed".to_string(), Json::Obj(completed)),
            (
                "dead".to_string(),
                Json::Arr(self.dead.iter().map(|t| t.to_json()).collect()),
            ),
        ])
    }
}

impl FromJson for PhaseManifest {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let completed = match json.require("completed")? {
            Json::Obj(entries) => entries
                .iter()
                .map(|(k, v)| {
                    k.parse::<u64>()
                        .map(|task| (task, v.clone()))
                        .map_err(|_| JsonError::Invalid(format!("bad task id key {k:?}")))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            other => {
                return Err(JsonError::Invalid(format!(
                    "completed must be an object, got {other:?}"
                )))
            }
        };
        Ok(Self {
            total: u64::from_json(json.require("total")?)?,
            completed,
            dead: Vec::<u64>::from_json(json.require("dead")?)?
                .into_iter()
                .collect(),
        })
    }
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

impl ToJson for JobManifest {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.phases
                .iter()
                .map(|(phase, p)| (phase.to_string(), p.to_json()))
                .collect(),
        )
    }
}

impl FromJson for JobManifest {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Obj(entries) => Ok(Self {
                phases: entries
                    .iter()
                    .map(|(k, v)| {
                        let phase = k
                            .parse::<u8>()
                            .map_err(|_| JsonError::Invalid(format!("bad phase key {k:?}")))?;
                        Ok((phase, PhaseManifest::from_json(v)?))
                    })
                    .collect::<Result<BTreeMap<_, _>, JsonError>>()?,
            }),
            other => Err(JsonError::Invalid(format!(
                "manifest must be an object, got {other:?}"
            ))),
        }
    }
}

/// Loads and saves the manifest of a checkpoint directory.
#[derive(Debug, Clone)]
pub struct ManifestStore {
    dir: PathBuf,
}

impl ManifestStore {
    /// File name of the manifest inside a checkpoint directory.
    pub const FILE_NAME: &'static str = "manifest.json";

    /// Opens the store rooted at `dir`, creating the directory if needed.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir: dir.as_ref().to_path_buf(),
        })
    }

    fn path(&self) -> PathBuf {
        self.dir.join(Self::FILE_NAME)
    }

    /// Loads the manifest if one exists for exactly these inputs. A
    /// missing file, parse failure, checksum mismatch, stale version, or
    /// fingerprint for different inputs all yield `None`.
    pub fn load(&self, fingerprint: &Fingerprint) -> Option<JobManifest> {
        let text = std::fs::read_to_string(self.path()).ok()?;
        let doc = Json::parse(&text).ok()?;
        let (stored_fp, payload) = open_record(&doc)?;
        if *stored_fp != fingerprint.to_json() {
            m2td_obs::counter_add("manifest.fingerprint_mismatches", 1);
            return None;
        }
        JobManifest::from_json(payload).ok()
    }

    /// Atomically persists the manifest, sealed to the input fingerprint.
    pub fn save(&self, fingerprint: &Fingerprint, manifest: &JobManifest) -> Result<(), String> {
        let doc = seal_record(&fingerprint.to_json(), manifest.to_json());
        write_atomic(&self.path(), &doc.to_compact())
    }

    /// Removes the manifest file, if present.
    pub fn clear(&self) {
        let _ = std::fs::remove_file(self.path());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2td_core::M2tdOptions;
    use m2td_linalg::Matrix;
    use m2td_tensor::SparseTensor;

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

    #[test]
    fn manifest_round_trips_by_fingerprint() {
        let store = ManifestStore::open(tmp_dir("roundtrip")).unwrap();
        let m = sample();
        store.save(&fp(7), &m).unwrap();
        assert_eq!(store.load(&fp(7)), Some(m));
        // A different input fingerprint must not resume from this state.
        assert_eq!(store.load(&fp(8)), None);
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
    fn damaged_records_are_treated_as_absent() {
        let store = ManifestStore::open(tmp_dir("damaged")).unwrap();
        store.save(&fp(7), &sample()).unwrap();
        let path = store.path();
        let good = std::fs::read_to_string(&path).unwrap();

        std::fs::write(&path, good.replacen("out0", "out!", 1)).unwrap();
        assert_eq!(store.load(&fp(7)), None, "checksum must catch bit damage");

        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_eq!(store.load(&fp(7)), None, "truncation");

        store.clear();
        assert_eq!(store.load(&fp(7)), None);
    }

    #[test]
    fn hostile_nesting_is_treated_as_absent() {
        let store = ManifestStore::open(tmp_dir("hostile")).unwrap();
        std::fs::write(store.path(), "[".repeat(100_000)).unwrap();
        assert_eq!(store.load(&fp(7)), None);
    }

    #[test]
    fn phase1_outputs_round_trip() {
        // The deepest document the workspace writes: phase-1 reduce
        // outputs `{"ok": [κ, grams, factors]}` inside the sealed manifest.
        let gram = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 * 0.25);
        let factor = Matrix::from_fn(3, 2, |i, j| (i + j) as f64 - 0.5);
        let output = Json::Obj(vec![(
            "ok".to_string(),
            (1u8, vec![gram.clone(), gram], vec![factor.clone(), factor]).to_json(),
        )]);
        let mut m = JobManifest::default();
        m.begin_phase(1, 2);
        m.record_complete(1, 0, output.clone());
        m.record_complete(1, 1, output);
        let store = ManifestStore::open(tmp_dir("phase1")).unwrap();
        store.save(&fp(7), &m).unwrap();
        assert_eq!(store.load(&fp(7)), Some(m));
    }
}
