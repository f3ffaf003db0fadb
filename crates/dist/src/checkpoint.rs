//! Phase-boundary checkpoints for D-M2TD.
//!
//! A D-M2TD run is three MapReduce phases; under failure a naive engine
//! recomputes everything from scratch. The [`CheckpointStore`] persists
//! the output of each completed phase boundary via `m2td-json`:
//!
//! * **phase 1** — the combined factor matrices, in join order;
//! * **phase 2** — the stitched join tensor.
//!
//! A later run over the *same inputs* (guarded by a [`Fingerprint`] of the
//! sub-tensor contents, pivot count, ranks and options) loads these
//! artifacts and skips straight to the first incomplete phase, so a
//! phase-3 failure resumes from persisted phase-1 factors and phase-2 join
//! cells instead of recomputing them. Stale or corrupt checkpoint files
//! are treated as absent, never trusted.
//!
//! ## Record integrity (format v3)
//!
//! Each phase file (`phase<N>.json`) is one sealed record of the shared
//! codec in [`m2td_guard::integrity`]: a short `{version, checksum}`
//! header, a tab, then the raw body `{fingerprint, payload}`, with the
//! checksum over the raw body bytes. Loading verifies before it parses:
//! the header is parsed first, the version and checksum checked, and
//! only then is the body parsed, once. Records are published atomically
//! (unique temp file + rename; orphans are deleted when the store opens).
//! A record that cannot be read, fails verification, or whose
//! fingerprint or payload does not decode is **quarantined** — moved
//! aside byte for byte to `phase<N>.quarantined.<n>.json`, counted in
//! `guard.ckpt_quarantined` and `guard.ckpt_quarantined.<reason>` — and
//! reported absent, forcing the phase to recompute. Retention keeps the
//! newest four quarantined records per phase (`guard.ckpt_quarantine_swept`
//! counts removals). A clean record from a run with a different
//! fingerprint is merely absent and left in place.

use m2td_core::M2tdOptions;
use m2td_fault::CorruptionKind;
use m2td_guard::integrity::SealedFiles;
use m2td_json::{FromJson, Json, ToJson};
use m2td_linalg::Matrix;
use m2td_tensor::SparseTensor;
use std::path::{Path, PathBuf};

/// Identity of one D-M2TD invocation: checkpoints are only resumable when
/// every field matches, including a content hash of both entry streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    dims1: Vec<usize>,
    dims2: Vec<usize>,
    k: usize,
    ranks: Vec<usize>,
    options: String,
    content_hash: u64,
}

/// Folds one `(linear index, value)` entry into a running splitmix hash.
fn fold_entry(acc: u64, lin: u64, value: f64) -> u64 {
    let mut z = acc
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(lin)
        .wrapping_add(value.to_bits().rotate_left(17));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

impl Fingerprint {
    /// Fingerprints a D-M2TD invocation.
    pub fn new(
        x1: &SparseTensor,
        x2: &SparseTensor,
        k: usize,
        ranks: &[usize],
        opts: &M2tdOptions,
    ) -> Self {
        let mut h = 0x4d32_5444u64; // "M2TD"
        for (lin, v) in x1.iter_linear() {
            h = fold_entry(h, lin, v);
        }
        h = h.rotate_left(32);
        for (lin, v) in x2.iter_linear() {
            h = fold_entry(h, lin, v);
        }
        Self {
            dims1: x1.dims().to_vec(),
            dims2: x2.dims().to_vec(),
            k,
            ranks: ranks.to_vec(),
            options: format!("{opts:?}"),
            content_hash: h,
        }
    }
}

impl ToJson for Fingerprint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("dims1".to_string(), self.dims1.to_json()),
            ("dims2".to_string(), self.dims2.to_json()),
            ("k".to_string(), self.k.to_json()),
            ("ranks".to_string(), self.ranks.to_json()),
            ("options".to_string(), self.options.to_json()),
            // Bit-cast through i64: the hash uses all 64 bits, and
            // `Json::Int` is an i64.
            (
                "content_hash".to_string(),
                Json::Int(self.content_hash as i64),
            ),
        ])
    }
}

/// A directory of phase-boundary checkpoint files for D-M2TD runs.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    files: SealedFiles,
}

/// Errors raised while *writing* checkpoints. (Unreadable checkpoints are
/// not errors — loads degrade to "absent" and the phase recomputes.)
pub type CheckpointError = String;

/// File name of a phase's checkpoint.
fn phase_file(phase: u8) -> String {
    format!("phase{phase}.json")
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory, deleting orphaned
    /// temp files and sweeping quarantine retention.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create checkpoint dir {}: {e}", dir.display()))?;
        Ok(Self {
            files: SealedFiles::new(dir, "guard.ckpt", &["phase1", "phase2"]),
        })
    }

    /// The directory checkpoints are stored in.
    pub fn dir(&self) -> &Path {
        self.files.dir()
    }

    fn save(&self, phase: u8, fp: &Fingerprint, payload: Json) -> Result<(), CheckpointError> {
        let body = Json::Obj(vec![
            ("fingerprint".to_string(), fp.to_json()),
            ("payload".to_string(), payload),
        ]);
        self.files.publish(&phase_file(phase), &body)
    }

    /// Loads a phase payload iff the record verifies, its fingerprint
    /// matches `fp`, and its payload decodes. Damage is quarantined (it
    /// can never load, and keeping it would mask the corruption); a clean
    /// record of another run is left in place.
    fn load<T: FromJson>(&self, phase: u8, fp: &Fingerprint) -> Option<T> {
        let decoded = self.files.load(&phase_file(phase), |body| {
            if body.get("fingerprint") != Some(&fp.to_json()) {
                return Ok(None);
            }
            let payload = body.get("payload").ok_or("payload")?;
            T::from_json(payload).map(Some).map_err(|_| "payload")
        });
        decoded.ok().flatten()
    }

    /// Applies a [`CorruptionKind`] mutation to the stored record of
    /// `phase`, simulating disk/format corruption for the chaos harness.
    /// Returns whether a record existed to corrupt.
    pub fn corrupt(&self, phase: u8, kind: CorruptionKind) -> Result<bool, CheckpointError> {
        self.files.corrupt(&phase_file(phase), kind)
    }

    /// Persists the phase-1 output: combined factors in join order.
    pub fn save_phase1(&self, fp: &Fingerprint, factors: &[Matrix]) -> Result<(), CheckpointError> {
        self.save(1, fp, factors.to_vec().to_json())
    }

    /// Loads phase-1 factors for a matching run, if present and intact.
    pub fn load_phase1(&self, fp: &Fingerprint) -> Option<Vec<Matrix>> {
        self.load(1, fp)
    }

    /// Persists the phase-2 output: the stitched join tensor.
    pub fn save_phase2(
        &self,
        fp: &Fingerprint,
        join: &SparseTensor,
    ) -> Result<(), CheckpointError> {
        self.save(2, fp, join.to_json())
    }

    /// Loads the phase-2 join tensor for a matching run, if present and
    /// intact.
    pub fn load_phase2(&self, fp: &Fingerprint) -> Option<SparseTensor> {
        self.load(2, fp)
    }

    /// Deletes any checkpoint files in the store, including quarantined
    /// records.
    pub fn clear(&self) -> Result<(), CheckpointError> {
        for phase in [1u8, 2] {
            let mut paths = vec![self.files.path(&phase_file(phase))];
            paths.extend(self.quarantined(phase).into_iter().map(|(_, p)| p));
            for path in paths {
                if path.exists() {
                    std::fs::remove_file(&path)
                        .map_err(|e| format!("remove checkpoint {}: {e}", path.display()))?;
                }
            }
        }
        Ok(())
    }

    /// The quarantined records of `phase`, as `(n, path)` pairs.
    fn quarantined(&self, phase: u8) -> Vec<(u64, PathBuf)> {
        self.files.quarantined(&format!("phase{phase}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that install the global obs subscriber, so
    /// concurrent tests cannot capture each other's counter bumps.
    static OBS_LOCK: Mutex<()> = Mutex::new(());

    fn tmp_store(name: &str) -> CheckpointStore {
        let dir = std::env::temp_dir()
            .join("m2td_checkpoint_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir).unwrap()
    }

    fn tensors() -> (SparseTensor, SparseTensor) {
        let x1 =
            SparseTensor::from_entries(&[3, 2], &[(vec![0, 0], 1.0), (vec![2, 1], -0.5)]).unwrap();
        let x2 = SparseTensor::from_entries(&[3, 2], &[(vec![1, 1], 2.0)]).unwrap();
        (x1, x2)
    }

    #[test]
    fn phase1_round_trips_under_matching_fingerprint() {
        let store = tmp_store("p1_roundtrip");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        let factors = vec![Matrix::identity(3), Matrix::identity(2)];
        store.save_phase1(&fp, &factors).unwrap();
        let back = store.load_phase1(&fp).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].as_slice(), factors[0].as_slice());
    }

    #[test]
    fn phase2_round_trips_and_clear_removes() {
        let store = tmp_store("p2_roundtrip");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        store.save_phase2(&fp, &x1).unwrap();
        assert_eq!(store.load_phase2(&fp).unwrap(), x1);
        store.clear().unwrap();
        assert!(store.load_phase2(&fp).is_none());
    }

    #[test]
    fn mismatched_fingerprint_is_treated_as_absent() {
        let store = tmp_store("fp_mismatch");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        store.save_phase2(&fp, &x1).unwrap();
        // Different ranks → different fingerprint → no resume.
        let other = Fingerprint::new(&x1, &x2, 1, &[1, 1, 1], &M2tdOptions::default());
        assert!(store.load_phase2(&other).is_none());
        // Different input values → different fingerprint.
        let x1b = SparseTensor::from_entries(&[3, 2], &[(vec![0, 0], 9.0)]).unwrap();
        let changed = Fingerprint::new(&x1b, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        assert!(store.load_phase2(&changed).is_none());
    }

    #[test]
    fn corrupt_checkpoint_files_degrade_to_absent() {
        let store = tmp_store("corrupt");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        std::fs::write(store.dir().join("phase1.json"), "{not json").unwrap();
        std::fs::write(store.dir().join("phase2.json"), "{\"payload\": 3}").unwrap();
        assert!(store.load_phase1(&fp).is_none());
        assert!(store.load_phase2(&fp).is_none());
    }

    #[test]
    fn orphaned_temp_files_are_cleaned_on_open() {
        let store = tmp_store("tmp_cleanup");
        let orphan = store.dir().join("phase1.json.tmp");
        std::fs::write(&orphan, "half-written garbage").unwrap();
        // Re-opening the same directory removes the orphan.
        let reopened = CheckpointStore::new(store.dir()).unwrap();
        assert!(!orphan.exists());
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        assert!(reopened.load_phase1(&fp).is_none());
    }

    #[test]
    fn every_corruption_kind_is_detected_and_quarantined() {
        for (name, kind) in [
            ("bitflip", CorruptionKind::BitFlip),
            ("truncate", CorruptionKind::Truncate),
            ("stale", CorruptionKind::StaleVersion),
        ] {
            let store = tmp_store(&format!("corrupt_{name}"));
            let (x1, x2) = tensors();
            let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
            store.save_phase2(&fp, &x1).unwrap();
            assert!(store.corrupt(2, kind).unwrap(), "no record to corrupt");
            assert!(
                store.load_phase2(&fp).is_none(),
                "{kind} survived verification"
            );
            // The damaged record was moved aside, not left in place.
            assert!(store.dir().join("phase2.quarantined.1.json").exists());
            assert!(!store.dir().join("phase2.json").exists());
            // A fresh save then loads cleanly again.
            store.save_phase2(&fp, &x1).unwrap();
            assert_eq!(store.load_phase2(&fp).unwrap(), x1);
        }
    }

    #[test]
    fn corrupting_an_absent_record_reports_false() {
        let store = tmp_store("corrupt_absent");
        assert!(!store.corrupt(1, CorruptionKind::BitFlip).unwrap());
    }

    #[test]
    fn quarantine_bumps_the_guard_counter() {
        let _obs = OBS_LOCK.lock().unwrap();
        let store = tmp_store("quarantine_counter");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        store.save_phase1(&fp, &[Matrix::identity(3)]).unwrap();
        store.corrupt(1, CorruptionKind::Truncate).unwrap();
        m2td_obs::install();
        let before = m2td_obs::snapshot()
            .counter("guard.ckpt_quarantined")
            .unwrap_or(0);
        assert!(store.load_phase1(&fp).is_none());
        let after = m2td_obs::snapshot()
            .counter("guard.ckpt_quarantined")
            .unwrap_or(0);
        m2td_obs::uninstall();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn stale_version_keeps_valid_checksum_but_still_fails() {
        // The stale-version mutation leaves fingerprint and payload (and
        // thus the checksum) untouched: only the version check can catch
        // it. This pins that the check exists.
        let store = tmp_store("stale_checksum");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        store.save_phase2(&fp, &x1).unwrap();
        store.corrupt(2, CorruptionKind::StaleVersion).unwrap();
        let stale = std::fs::read(store.dir().join("phase2.json")).unwrap();
        assert_eq!(m2td_guard::integrity::open(&stale), Err("version"));
        let restamped = String::from_utf8(stale).unwrap().replacen(
            &format!("\"version\":{}", m2td_guard::integrity::FORMAT_VERSION - 1),
            &format!("\"version\":{}", m2td_guard::integrity::FORMAT_VERSION),
            1,
        );
        assert!(
            m2td_guard::integrity::open(restamped.as_bytes()).is_ok(),
            "stale-version must not break the checksum"
        );
        assert!(store.load_phase2(&fp).is_none());
    }

    #[test]
    fn fingerprint_json_keeps_the_high_hash_bit() {
        // Content hashes use all 64 bits; serialization must not lose the
        // high bit through `Json::Int`'s i64.
        let fp = |content_hash| Fingerprint {
            dims1: vec![2],
            dims2: vec![2],
            k: 1,
            ranks: vec![1, 1, 1],
            options: "opts".to_string(),
            content_hash,
        };
        let high = u64::MAX - 3;
        assert_ne!(fp(high).to_json(), fp(high & !(1 << 63)).to_json());
        assert_eq!(fp(high).to_json(), fp(high).to_json());
    }

    #[test]
    fn retention_sweep_keeps_the_newest_quarantines() {
        let _obs = OBS_LOCK.lock().unwrap();
        let store = tmp_store("retention");
        for seq in 1..=7u64 {
            std::fs::write(
                store.dir().join(format!("phase1.quarantined.{seq}.json")),
                "damaged",
            )
            .unwrap();
        }
        m2td_obs::install();
        let before = m2td_obs::snapshot()
            .counter("guard.ckpt_quarantine_swept")
            .unwrap_or(0);
        let reopened = CheckpointStore::new(store.dir()).unwrap();
        let after = m2td_obs::snapshot()
            .counter("guard.ckpt_quarantine_swept")
            .unwrap_or(0);
        m2td_obs::uninstall();
        // 7 quarantines, keep 4: the three oldest are swept and counted.
        assert_eq!(after, before + 3);
        let mut kept: Vec<u64> = reopened
            .quarantined(1)
            .into_iter()
            .map(|(seq, _)| seq)
            .collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![4, 5, 6, 7]);
    }

    #[test]
    fn concurrent_stores_do_not_clobber_or_double_quarantine() {
        let store_a = tmp_store("concurrent");
        let store_b = CheckpointStore::new(store_a.dir()).unwrap();
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        let factors = vec![Matrix::identity(3)];
        // Interleaved atomic saves from two stores (the restarted-job
        // race) must never tear: every write publishes through its own
        // uniquely named temp file.
        let (fp_ref, factors_ref) = (&fp, &factors);
        std::thread::scope(|s| {
            for store in [&store_a, &store_b] {
                s.spawn(move || {
                    for _ in 0..32 {
                        store.save_phase1(fp_ref, factors_ref).unwrap();
                    }
                });
            }
        });
        assert_eq!(store_a.load_phase1(&fp).unwrap().len(), 1);
        assert_eq!(store_b.load_phase1(&fp).unwrap().len(), 1);
        // A damaged record seen by both stores at once is quarantined
        // exactly once — the losing rename must not mint a second copy.
        store_a.corrupt(1, CorruptionKind::Truncate).unwrap();
        std::thread::scope(|s| {
            for store in [&store_a, &store_b] {
                s.spawn(move || assert!(store.load_phase1(fp_ref).is_none()));
            }
        });
        assert!(!store_a.dir().join("phase1.json").exists());
        assert_eq!(
            store_a.quarantined(1).len(),
            1,
            "double-quarantined: {:?}",
            store_a.quarantined(1)
        );
    }

    #[test]
    fn missing_store_files_are_absent_not_errors() {
        let store = tmp_store("empty");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        assert!(store.load_phase1(&fp).is_none());
        assert!(store.load_phase2(&fp).is_none());
        store.clear().unwrap();
    }
}
