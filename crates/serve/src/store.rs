//! Checksummed atomic snapshot store for the serve engine.
//!
//! A snapshot is one file `snapshot.<seq>.json` holding the engine's
//! entire durable state — every ensemble's entries, running Grams,
//! staleness counter and published model. It is one sealed record of the
//! shared codec (format v3, see [`m2td_guard::integrity`]): a `{version,
//! checksum}` header, a tab, then the raw body `{seq, payload}`, verified
//! before it is parsed. `<seq>` is the write-ahead-log sequence number
//! the snapshot covers: recovery loads the newest *valid* snapshot and
//! replays only WAL records with a higher sequence.
//!
//! Publication is atomic in two steps — write a uniquely named temp file,
//! then rename into place — with the crash injector's `snapshot-write`
//! kill point sitting between them ([`SnapshotStore::begin_write`] /
//! [`PendingSnapshot::commit`]): a crash mid-snapshot leaves the previous
//! snapshot untouched and only an orphaned temp file behind, cleaned on
//! the next open.
//!
//! A snapshot that fails verification on load (seeded bit-flip, torn
//! write, stale format) is **quarantined** — moved aside byte for byte to
//! `snapshot.quarantined.<n>.json`, counted in
//! `serve.snapshot_quarantined` — and recovery falls back to the next
//! older snapshot plus a longer WAL replay. Retention keeps the newest
//! [`SnapshotStore::keep`] snapshots (the WAL is truncated only past the
//! *oldest* retained one, so every retained snapshot remains a viable
//! recovery base) and the newest few quarantined records for post-mortem.
//!
//! All floating-point payload data — entry values, Gram matrices, model
//! cores and factors — is stored as bit-cast `u64` arrays, so recovery is
//! bitwise regardless of what the values are (including non-finite
//! garbage absorbed by an unguarded engine).

use crate::Result;
use crate::ServeError;
use m2td_fault::CorruptionKind;
use m2td_guard::integrity::{sequenced_files, sweep_retention, SealedFiles, Staged};
use m2td_json::{FromJson, Json, ToJson};
use m2td_linalg::Matrix;
use m2td_tensor::DenseTensor;
use std::path::{Path, PathBuf};

/// File-name prefix of live snapshots.
const SNAP_PREFIX: &str = "snapshot.";

pub(crate) fn store_err(message: String) -> ServeError {
    ServeError::Store { message }
}

fn snapshot_file(seq: u64) -> String {
    format!("{SNAP_PREFIX}{seq}.json")
}

/// A directory of rolling engine snapshots.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    files: SealedFiles,
    keep: usize,
}

/// A snapshot written to its temp file but not yet published. Dropping it
/// without [`PendingSnapshot::commit`] models a crash mid-snapshot: the
/// orphaned temp file is removed on the next store open.
#[derive(Debug)]
pub struct PendingSnapshot(Staged);

impl PendingSnapshot {
    /// Renames the temp file into place, making the snapshot visible.
    pub fn commit(self) -> Result<()> {
        self.0.commit().map_err(store_err)
    }
}

/// Outcome of scanning the store for the newest usable snapshot.
#[derive(Debug)]
pub struct StoreScan {
    /// Newest snapshot that verified, as `(covered WAL seq, payload)`.
    pub loaded: Option<(u64, Json)>,
    /// Highest snapshot sequence *seen*, valid or not. Evidence of how
    /// far the engine had progressed; if recovery cannot replay back up
    /// to this point, operations were lost and the engine must degrade.
    pub max_seen_seq: Option<u64>,
    /// Snapshots quarantined during this scan.
    pub quarantined: usize,
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory, deleting
    /// orphaned temp files and sweeping quarantine retention.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| store_err(format!("create snapshot dir {}: {e}", dir.display())))?;
        Ok(Self {
            files: SealedFiles::new(dir, "serve.snapshot", &["snapshot"]),
            keep: keep.max(1),
        })
    }

    /// The directory snapshots live in.
    pub fn dir(&self) -> &Path {
        self.files.dir()
    }

    /// How many snapshots the retention sweep keeps.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// Live snapshots as `(seq, path)` pairs, unsorted. Quarantined files
    /// do not match — their `snapshot.quarantined.<n>` tail is not a bare
    /// integer.
    pub fn snapshots(&self) -> Vec<(u64, PathBuf)> {
        sequenced_files(self.dir(), SNAP_PREFIX)
    }

    /// Stage one: seal and write the snapshot covering WAL sequence `seq`
    /// to a temp file. The caller commits (or crashes) separately.
    pub fn begin_write(&self, seq: u64, payload: Json) -> Result<PendingSnapshot> {
        let body = Json::Obj(vec![
            ("seq".to_string(), Json::Int(seq as i64)),
            ("payload".to_string(), payload),
        ]);
        let staged = self.files.stage(&snapshot_file(seq), &body);
        staged.map(PendingSnapshot).map_err(store_err)
    }

    /// Retention sweep over live snapshots: keeps the newest
    /// [`SnapshotStore::keep`] and returns the covered sequence of the
    /// *oldest retained* one — the WAL may be truncated up to (and
    /// including) that sequence, and no further: every retained snapshot
    /// must stay a viable recovery base when newer ones are quarantined.
    pub fn sweep(&self) -> Option<u64> {
        sweep_retention(
            self.dir(),
            SNAP_PREFIX,
            self.keep,
            "serve.snapshots_retired",
        );
        self.snapshots().iter().map(|&(seq, _)| seq).min()
    }

    pub(crate) fn quarantine(&self, seq: u64, reason: &str) {
        self.files.quarantine(&snapshot_file(seq), reason);
    }

    /// Scans for the newest snapshot that passes verification,
    /// quarantining damaged ones along the way instead of panicking on
    /// them. A snapshot whose body names another sequence (a file renamed
    /// to the wrong one) cannot anchor replay and is damage too.
    pub fn scan(&self) -> StoreScan {
        let mut files = self.snapshots();
        files.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        let max_seen_seq = files.first().map(|&(seq, _)| seq);
        let mut quarantined = 0;
        for (seq, _) in files {
            let loaded = self.files.load(&snapshot_file(seq), |body| {
                if body.get("seq").and_then(|s| s.as_u64().ok()) != Some(seq) {
                    return Err("fingerprint");
                }
                match body {
                    Json::Obj(fields) => fields.into_iter().find(|(k, _)| k == "payload"),
                    _ => None,
                }
                .map(|(_, payload)| Some(payload))
                .ok_or("structure")
            });
            match loaded {
                Ok(Some(payload)) => {
                    return StoreScan {
                        loaded: Some((seq, payload)),
                        max_seen_seq,
                        quarantined,
                    }
                }
                Ok(None) => {} // removed since the listing
                Err(_) => quarantined += 1,
            }
        }
        StoreScan {
            loaded: None,
            max_seen_seq,
            quarantined,
        }
    }

    /// Applies a [`CorruptionKind`] mutation to the newest snapshot,
    /// simulating disk damage for the chaos harness. Returns whether a
    /// snapshot existed to corrupt.
    pub fn corrupt_newest(&self, kind: CorruptionKind) -> Result<bool> {
        let Some((seq, _)) = self.snapshots().into_iter().max_by_key(|&(seq, _)| seq) else {
            return Ok(false);
        };
        self.files
            .corrupt(&snapshot_file(seq), kind)
            .map_err(store_err)
    }
}

// ---------------------------------------------------------------------------
// Bit-exact float codecs shared by the snapshot payload builder (engine.rs).

/// Encodes a float slice as an array of bit-cast integers.
pub(crate) fn bits_to_json(vals: &[f64]) -> Json {
    Json::Arr(vals.iter().map(|v| Json::Int(v.to_bits() as i64)).collect())
}

/// Decodes a [`bits_to_json`] array.
pub(crate) fn bits_from_json(json: &Json) -> Result<Vec<f64>> {
    match json {
        Json::Arr(items) => items
            .iter()
            .map(|it| match it {
                Json::Int(b) => Ok(f64::from_bits(*b as u64)),
                other => Err(store_err(format!(
                    "expected bit-cast float, found {}",
                    other.type_name()
                ))),
            })
            .collect(),
        other => Err(store_err(format!(
            "expected bits array, found {}",
            other.type_name()
        ))),
    }
}

/// Encodes a matrix as `{rows, cols, bits}` with bit-exact data.
pub(crate) fn matrix_to_json(m: &Matrix) -> Json {
    Json::Obj(vec![
        ("rows".to_string(), Json::Int(m.rows() as i64)),
        ("cols".to_string(), Json::Int(m.cols() as i64)),
        ("bits".to_string(), bits_to_json(m.as_slice())),
    ])
}

/// Decodes a [`matrix_to_json`] object.
pub(crate) fn matrix_from_json(json: &Json) -> Result<Matrix> {
    let (rows, cols) = match (json.get("rows"), json.get("cols")) {
        (Some(Json::Int(r)), Some(Json::Int(c))) if *r >= 0 && *c >= 0 => {
            (*r as usize, *c as usize)
        }
        _ => return Err(store_err("matrix missing rows/cols".to_string())),
    };
    let data = bits_from_json(
        json.get("bits")
            .ok_or_else(|| store_err("matrix missing bits".to_string()))?,
    )?;
    Matrix::from_vec(rows, cols, data).map_err(|e| store_err(format!("restore matrix: {e}")))
}

/// Encodes a dense tensor as `{dims, bits}` with bit-exact data.
pub(crate) fn dense_to_json(t: &DenseTensor) -> Json {
    Json::Obj(vec![
        ("dims".to_string(), t.dims().to_vec().to_json()),
        ("bits".to_string(), bits_to_json(t.as_slice())),
    ])
}

/// Decodes a [`dense_to_json`] object.
pub(crate) fn dense_from_json(json: &Json) -> Result<DenseTensor> {
    let dims = json
        .get("dims")
        .and_then(|j| Vec::<usize>::from_json(j).ok());
    let dims = dims.ok_or_else(|| store_err("dense tensor missing dims".to_string()))?;
    let data = bits_from_json(
        json.get("bits")
            .ok_or_else(|| store_err("dense tensor missing bits".to_string()))?,
    )?;
    DenseTensor::from_vec(&dims, data).map_err(|e| store_err(format!("restore dense tensor: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str, keep: usize) -> SnapshotStore {
        let dir = std::env::temp_dir().join("m2td_snapstore_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::new(dir, keep).unwrap()
    }

    fn payload(tag: i64) -> Json {
        Json::Obj(vec![("tag".to_string(), Json::Int(tag))])
    }

    fn publish(store: &SnapshotStore, seq: u64) {
        store
            .begin_write(seq, payload(seq as i64))
            .unwrap()
            .commit()
            .unwrap();
    }

    #[test]
    fn scan_loads_the_newest_valid_snapshot() {
        let store = tmp_store("newest", 3);
        for seq in [3u64, 7, 5] {
            publish(&store, seq);
        }
        let scan = store.scan();
        let (seq, body) = scan.loaded.unwrap();
        assert_eq!(seq, 7);
        assert_eq!(body, payload(7));
        assert_eq!(scan.max_seen_seq, Some(7));
        assert_eq!(scan.quarantined, 0);
    }

    #[test]
    fn every_corruption_kind_quarantines_and_falls_back() {
        for kind in [
            CorruptionKind::BitFlip,
            CorruptionKind::Truncate,
            CorruptionKind::StaleVersion,
        ] {
            let store = tmp_store(&format!("fallback_{kind:?}"), 3);
            publish(&store, 2);
            publish(&store, 6);
            assert!(store.corrupt_newest(kind).unwrap());
            let scan = store.scan();
            let (seq, body) = scan.loaded.unwrap();
            assert_eq!(seq, 2, "{kind} must fall back to the older snapshot");
            assert_eq!(body, payload(2));
            assert_eq!(scan.max_seen_seq, Some(6), "damage is still evidence");
            assert_eq!(scan.quarantined, 1);
            assert!(
                store.dir().join("snapshot.quarantined.1.json").exists(),
                "{kind} must quarantine, not delete"
            );
            assert!(!store.dir().join("snapshot.6.json").exists());
        }
    }

    #[test]
    fn uncommitted_snapshots_are_invisible_and_cleaned_on_open() {
        let store = tmp_store("pending", 3);
        publish(&store, 1);
        let pending = store.begin_write(2, payload(2)).unwrap();
        // Not yet committed: scans still see only seq 1.
        assert_eq!(store.scan().loaded.unwrap().0, 1);
        drop(pending); // crash before rename
        let reopened = SnapshotStore::new(store.dir(), 3).unwrap();
        assert_eq!(reopened.scan().loaded.unwrap().0, 1);
        let leftovers: Vec<_> = std::fs::read_dir(reopened.dir())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp orphans: {leftovers:?}");
    }

    #[test]
    fn sweep_keeps_newest_and_reports_truncation_floor() {
        let store = tmp_store("sweep", 2);
        for seq in 1..=5u64 {
            publish(&store, seq);
        }
        let floor = store.sweep().unwrap();
        assert_eq!(floor, 4, "oldest retained snapshot bounds WAL truncation");
        let mut seqs: Vec<u64> = store.snapshots().into_iter().map(|(s, _)| s).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![4, 5]);
        // An empty store has no floor.
        let empty = tmp_store("sweep_empty", 2);
        assert_eq!(empty.sweep(), None);
    }

    #[test]
    fn codecs_round_trip_bitwise() {
        let vals = [0.1 + 0.2, -0.0, f64::NAN, f64::NEG_INFINITY, 1e-320, 3.0];
        let back = bits_from_json(&bits_to_json(&vals)).unwrap();
        for (a, b) in vals.iter().zip(back.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.5, -0.75, 0.1 + 0.2, 5.0, -6.25]).unwrap();
        let back = matrix_from_json(&matrix_to_json(&m)).unwrap();
        assert_eq!(back.rows(), 2);
        assert_eq!(back.cols(), 3);
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let t = DenseTensor::from_vec(&[2, 2], vec![1.0, 0.5, -0.25, 0.125]).unwrap();
        let back = dense_from_json(&dense_to_json(&t)).unwrap();
        assert_eq!(back.dims(), t.dims());
        assert_eq!(back.as_slice(), t.as_slice());
        // Damaged codecs error instead of panicking.
        assert!(bits_from_json(&Json::Int(3)).is_err());
        assert!(matrix_from_json(&Json::Obj(vec![])).is_err());
        assert!(dense_from_json(&Json::Obj(vec![])).is_err());
    }
}
