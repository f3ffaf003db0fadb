//! Seeded mutation of every decoder of bytes from disk or the wire: the
//! job manifest log, `dlq.json`, the serve `wal.log` and a snapshot, a
//! `TaskEnvelope` frame, the wire payload of every value a MapReduce job
//! ships, and `Json::parse`.
//!
//! Each artifact takes a few hundred mutations drawn from `crates/rand`:
//! flip any bit (high bits included), truncate at any offset, delete or
//! duplicate a byte range or a whole line, swap two lines. The oracle:
//!
//! * a sealed file loads equal to the original, or is rejected and moved
//!   aside (quarantined) — never half-trusted, never left to be
//!   overwritten;
//! * a log yields a prefix of its original records; when it yields fewer
//!   than all of them, the read reports a torn tail or corrupt history
//!   (or the file is a clean truncation, indistinguishable from a shorter
//!   log), and only corrupt history may lose a record whose line is
//!   still intact;
//! * a frame decodes to the original envelope or fails;
//! * a wire payload fails or decodes to exactly the value its bytes
//!   encode (the codec has no slack: re-encoding gives the mutated bytes
//!   back). The codec carries no checksum, so a flipped value bit is
//!   another valid value; the frame checksum is what rejects it;
//! * nothing panics.
//!
//! Every failure message names the seed, round and mutation, so a
//! failing case replays exactly.

use m2td::core::M2tdOptions;
use m2td::dist::wire::{self, TaskOutcome, Wire};
use m2td::dist::{DlqEntry, DlqStore, Fingerprint, JobManifest, ManifestStore, TaskEnvelope};
use m2td::fault::TaskKind;
use m2td::guard::integrity::fnv1a64;
use m2td::json::Json;
use m2td::linalg::Matrix;
use m2td::serve::{SnapshotStore, Wal, WalOp};
use m2td::tensor::{DenseTensor, SparseTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Base seed; each artifact mixes in a hash of its name.
const SEED: u64 = 0x4d32_5444_0019;
/// Mutations per artifact.
const ROUNDS: usize = 300;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("m2td_decoder_mutation")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `bytes` split into lines, each keeping its `\n`.
fn lines(bytes: &[u8]) -> Vec<&[u8]> {
    bytes.split_inclusive(|&b| b == b'\n').collect()
}

/// A random non-empty range of `0..n`, at most 64 bytes long.
fn range(rng: &mut StdRng, n: usize) -> (usize, usize) {
    let a = rng.gen_range(0..n);
    (a, a + rng.gen_range(1..(n - a).min(64) + 1))
}

/// One seeded mutation of `bytes`, with a description of it.
fn mutate(rng: &mut StdRng, bytes: &[u8]) -> (Vec<u8>, String) {
    let n = bytes.len();
    let mut out = bytes.to_vec();
    let parts = lines(bytes);
    let what = match rng.gen_range(0..6u32) {
        4 if parts.len() >= 2 => {
            let i = rng.gen_range(0..parts.len());
            let j = rng.gen_range(0..parts.len());
            let mut swapped = parts.clone();
            swapped.swap(i, j);
            out = swapped.concat();
            format!("swap lines {i} and {j}")
        }
        5 => {
            let i = rng.gen_range(0..parts.len());
            let a: usize = parts[..i].iter().map(|l| l.len()).sum();
            let b = a + parts[i].len();
            if rng.gen_range(0..2u32) == 0 {
                out.drain(a..b);
                format!("delete line {i}")
            } else {
                out.splice(b..b, bytes[a..b].iter().copied());
                format!("duplicate line {i}")
            }
        }
        1 => {
            let at = rng.gen_range(0..n);
            out.truncate(at);
            format!("truncate at {at}")
        }
        2 => {
            let (a, b) = range(rng, n);
            out.drain(a..b);
            format!("delete bytes {a}..{b}")
        }
        3 => {
            let (a, b) = range(rng, n);
            out.splice(b..b, bytes[a..b].iter().copied());
            format!("duplicate bytes {a}..{b}")
        }
        _ => {
            let at = rng.gen_range(0..n);
            let bit = rng.gen_range(0..8u32);
            out[at] ^= 1 << bit;
            format!("flip bit {bit} at byte {at}")
        }
    };
    (out, what)
}

/// Runs `check` on [`ROUNDS`] seeded mutations of `original`. A panic
/// inside a decoder is reported with the seed, round and mutation.
fn for_each_mutation(artifact: &str, original: &[u8], mut check: impl FnMut(&[u8], &str)) {
    let seed = SEED ^ fnv1a64(&[artifact.as_bytes()]);
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..ROUNDS {
        let (mutated, what) = mutate(&mut rng, original);
        let ctx = format!("{artifact}: seed {seed:#x}, round {round}: {what}");
        if catch_unwind(AssertUnwindSafe(|| check(&mutated, &ctx))).is_err() {
            panic!("{ctx}: panicked");
        }
    }
}

/// Whether `mutated` lost only the tail of `original`: every line but its
/// last is original bytes, and all of those lines were among the
/// `yielded` records.
fn only_tail_lost(mutated: &[u8], original: &[u8], yielded: usize) -> bool {
    let body = mutated.strip_suffix(b"\n").unwrap_or(mutated);
    let head = &body[..body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)];
    original.starts_with(head) && lines(head).len() <= yielded
}

/// Deletes every quarantined file of `dir`; returns how many there were.
fn clear_quarantine(dir: &Path) -> usize {
    let mut n = 0;
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        if entry
            .file_name()
            .to_string_lossy()
            .contains(".quarantined.")
        {
            std::fs::remove_file(entry.path()).unwrap();
            n += 1;
        }
    }
    n
}

fn fingerprint() -> Fingerprint {
    let x1 = SparseTensor::from_entries(
        &[3, 2, 2],
        &[
            (vec![0, 0, 1], 1.0),
            (vec![2, 1, 0], -0.5),
            (vec![1, 1, 1], 0.1 + 0.2),
        ],
    )
    .unwrap();
    let x2 = SparseTensor::from_entries(&[3, 2], &[(vec![1, 1], 2.0)]).unwrap();
    Fingerprint::new(&x1, &x2, 1, &[2, 2, 2, 2], &M2tdOptions::default())
}

#[test]
fn manifest_log_resumes_a_prefix_of_its_events() {
    let dir = tmp_dir("manifest");
    let store = ManifestStore::open(&dir).unwrap();
    let fp = fingerprint();
    let mut log = store.resume(&fp).unwrap();
    // The manifest after 0, 1, 2, ... recorded events.
    let mut folds = vec![log.manifest().clone()];
    log.begin_phase(1, 3).unwrap();
    folds.push(log.manifest().clone());
    for task in [0u64, 2] {
        let output = Json::Arr(vec![Json::Float(0.1 * task as f64), Json::Int(-7)]);
        log.record_complete(1, task, output).unwrap();
        folds.push(log.manifest().clone());
    }
    log.record_dead(1, 1).unwrap();
    folds.push(log.manifest().clone());
    log.begin_phase(3, 2).unwrap();
    folds.push(log.manifest().clone());
    log.record_complete(3, 1, Json::Str("tab\t, newline\n, é".to_string()))
        .unwrap();
    folds.push(log.manifest().clone());
    drop(log);

    let path = dir.join(ManifestStore::FILE_NAME);
    let original = std::fs::read(&path).unwrap();
    for_each_mutation("manifest", &original, |mutated, ctx| {
        std::fs::write(&path, mutated).unwrap();
        let resumed: JobManifest = store.resume(&fp).unwrap().manifest().clone();
        let k = folds
            .iter()
            .position(|fold| *fold == resumed)
            .unwrap_or_else(|| panic!("{ctx}: resumed a state no prefix of the log holds"));
        // Corrupt history is quarantined; without a quarantine, only the
        // tail may be lost (the fingerprint record is record 0).
        let quarantined = clear_quarantine(&dir) > 0;
        assert!(
            k + 1 == folds.len() || quarantined || only_tail_lost(mutated, &original, k + 1),
            "{ctx}: resumed {k} of {} events without reporting damage",
            folds.len() - 1
        );
    });
}

#[test]
fn dlq_file_loads_equal_or_quarantines() {
    let dir = tmp_dir("dlq");
    let store = DlqStore::open(&dir);
    for task in [3u64, 8] {
        store.park(dlq_entry(task)).unwrap();
    }
    let entries = store.entries();
    let path = dir.join(DlqStore::FILE_NAME);
    let original = std::fs::read(&path).unwrap();
    for_each_mutation("dlq", &original, |mutated, ctx| {
        std::fs::write(&path, mutated).unwrap();
        let reopened = DlqStore::open(&dir);
        if reopened.depth() == 0 {
            assert!(!path.exists(), "{ctx}: rejected but not quarantined");
            assert_eq!(clear_quarantine(&dir), 1, "{ctx}");
        } else {
            assert_eq!(reopened.entries(), entries, "{ctx}: loaded other entries");
        }
    });
}

fn dlq_entry(task: u64) -> DlqEntry {
    DlqEntry {
        job: 3,
        phase: 3,
        kind: TaskKind::Reduce.to_string(),
        task,
        attempts: 4,
        log: vec!["attempt 0: killed by fault plan".to_string()],
        error: "retry budget exhausted".to_string(),
        payload: format!("{task:016x}000000000000f83f"),
        requeued: false,
    }
}

#[test]
fn wal_yields_a_prefix_and_reports_every_loss() {
    let path = tmp_dir("wal").join("wal.log");
    let mut wal = Wal::open(&path, 1, 0).unwrap();
    let ops = vec![
        WalOp::Register {
            name: "é".into(),
            dims: vec![3, 3],
            ranks: vec![2, 2],
        },
        WalOp::Absorb {
            name: "é".into(),
            index: vec![0, 1],
            value_bits: f64::NAN.to_bits(),
        },
        WalOp::Absorb {
            name: "é".into(),
            index: vec![2, 2],
            value_bits: (-0.0f64).to_bits(),
        },
        WalOp::Refresh { name: "é".into() },
        WalOp::Remove { name: "é".into() },
        WalOp::Register {
            name: "é".into(),
            dims: vec![2],
            ranks: vec![1],
        },
    ];
    for op in &ops {
        wal.append(op.clone()).unwrap();
    }
    drop(wal);
    let original = std::fs::read(&path).unwrap();
    let records = Wal::read(&path).records;
    assert_eq!(records.len(), ops.len());
    for_each_mutation("wal", &original, |mutated, ctx| {
        std::fs::write(&path, mutated).unwrap();
        let report = Wal::read(&path);
        let k = report.records.len();
        assert_eq!(report.records, records[..k], "{ctx}: not a prefix");
        let clean_cut = original.starts_with(mutated) && lines(mutated).len() == k;
        assert!(
            k == records.len() || report.torn > 0 || report.corrupt || clean_cut,
            "{ctx}: lost records {k}.. without a torn or corrupt report"
        );
        assert!(
            k == records.len() || report.corrupt || only_tail_lost(mutated, &original, k),
            "{ctx}: dropped intact records without reporting corruption"
        );
    });
}

#[test]
fn snapshot_loads_equal_or_quarantines() {
    let dir = tmp_dir("snapshot");
    let store = SnapshotStore::new(&dir, 2).unwrap();
    let payload = Json::Obj(vec![
        ("name".to_string(), Json::Str("a\"b\\c\té".to_string())),
        (
            "bits".to_string(),
            Json::Arr(vec![Json::Int(i64::MIN), Json::Int(-1), Json::Int(42)]),
        ),
        ("scale".to_string(), Json::Float(1e-300)),
    ]);
    store
        .begin_write(7, payload.clone())
        .unwrap()
        .commit()
        .unwrap();
    let path = dir.join("snapshot.7.json");
    let original = std::fs::read(&path).unwrap();
    for_each_mutation("snapshot", &original, |mutated, ctx| {
        std::fs::write(&path, mutated).unwrap();
        let scan = store.scan();
        match scan.loaded {
            Some((seq, loaded)) => {
                assert_eq!((seq, &loaded), (7, &payload), "{ctx}: loaded other state");
            }
            None => {
                assert_eq!(scan.quarantined, 1, "{ctx}: rejected but not quarantined");
                assert!(!path.exists(), "{ctx}");
                clear_quarantine(&dir);
            }
        }
    });
}

/// Join cells a phase-3 map task routes: awkward values included.
fn cells() -> Vec<(u64, f64)> {
    vec![
        (0, 1.5),
        (1 << 63, f64::from_bits(0x7ff8_0000_0000_0001)),
        (u64::MAX, f64::NEG_INFINITY),
        (4, -0.0),
    ]
}

#[test]
fn envelope_frames_decode_equal_or_fail() {
    let envelope = TaskEnvelope::new(3, 2, TaskKind::Reduce, 17, 1, wire::encode(&cells()));
    let frame = envelope.encode();
    for_each_mutation("envelope", &frame, |mutated, ctx| {
        // The receiver sees the raw bytes the channel carried.
        if let Ok(decoded) = TaskEnvelope::decode(mutated) {
            assert_eq!(decoded, envelope, "{ctx}: decoded another envelope");
        }
    });
}

/// Mutates the wire form of `value`: every mutant fails to decode or
/// decodes to the value its bytes encode, and the payload inside a
/// mutated frame decodes to `value` or not at all.
fn payload_decodes_exactly_or_fail<T: Wire>(artifact: &str, value: &T) {
    let original = wire::encode(value);
    for_each_mutation(artifact, &original, |mutated, ctx| {
        if let Ok(decoded) = wire::decode::<T>(mutated) {
            assert_eq!(wire::encode(&decoded), mutated, "{ctx}: decoded with slack");
        }
    });
    let envelope = TaskEnvelope::new(3, 3, TaskKind::Reduce, 0, 0, original.clone());
    let frame = envelope.encode();
    for_each_mutation(&format!("{artifact} frame"), &frame, |mutated, ctx| {
        let Ok(delivered) = TaskEnvelope::decode(mutated) else {
            return;
        };
        let decoded = wire::decode::<T>(&delivered.payload);
        let bytes = decoded.map(|v| wire::encode(&v));
        assert_eq!(
            bytes.as_ref(),
            Ok(&original),
            "{ctx}: decoded another value"
        );
    });
}

#[test]
fn wire_payloads_decode_equal_or_fail() {
    // Phase 2's routed runs: (side, free index, value) per pivot.
    let runs: Vec<Vec<(u8, u64, f64)>> = vec![
        vec![(1, 7, 0.25), (2, u64::MAX, f64::INFINITY)],
        vec![],
        vec![(1, 1 << 63, -0.0)],
    ];
    payload_decodes_exactly_or_fail("routed runs", &runs);
    payload_decodes_exactly_or_fail("partition values", &(5usize, cells()));
    let gram = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 * 0.25);
    let factor = Matrix::from_fn(3, 2, |i, j| (i + j) as f64 - 0.5);
    let sides = TaskOutcome::Ok((vec![gram.clone(), gram], vec![factor]));
    payload_decodes_exactly_or_fail("phase-1 outcome", &sides);
    let fail = TaskOutcome::<(Vec<Matrix>, Vec<Matrix>)>::Fail("core error: é".to_string());
    payload_decodes_exactly_or_fail("phase-1 failure", &fail);
    let core = DenseTensor::from_fn(&[2, 3, 2], |i| (i[0] * 6 + i[1] * 2 + i[2]) as f64 - 5.5);
    payload_decodes_exactly_or_fail("phase-3 outcome", &TaskOutcome::Ok(core));
}

#[test]
fn wire_lengths_beyond_the_payload_are_rejected_unreserved() {
    // A count of u64::MAX, and one of more elements than the bytes that
    // remain could hold: reserving either would abort the process.
    for count in [u64::MAX, 1 << 40] {
        let mut bytes = wire::encode(&count);
        bytes.extend_from_slice(&wire::encode(&cells())[8..]);
        assert!(
            wire::decode::<Vec<(u64, f64)>>(&bytes).is_err(),
            "count {count}"
        );
        assert!(
            wire::decode::<Vec<Vec<u8>>>(&bytes).is_err(),
            "count {count}"
        );
        let routed = wire::decode::<(usize, Vec<(u64, f64)>)>(&[&[0; 8][..], &bytes].concat());
        assert!(routed.is_err(), "count {count}");
    }
    // One element more than the cells that follow.
    let mut bytes = wire::encode(&cells());
    bytes[..8].copy_from_slice(&(cells().len() as u64 + 1).to_le_bytes());
    assert!(wire::decode::<Vec<(u64, f64)>>(&bytes).is_err());
    // A string as long as the payload claims; a 2^32 x 2^32 matrix, whose
    // element count overflows; a tensor whose zero extent does not excuse
    // an overflowing stride.
    assert!(wire::decode::<String>(&[&wire::encode(&u64::MAX)[..], b"abc"].concat()).is_err());
    let matrix = [&wire::encode(&(1u64 << 32, 1u64 << 32))[..], &[0; 64]].concat();
    assert!(wire::decode::<Matrix>(&matrix).is_err());
    let tensor = [&wire::encode(&vec![0usize, 1 << 40, 1 << 40])[..], &[0; 64]].concat();
    assert!(wire::decode::<DenseTensor>(&tensor).is_err());
}

#[test]
fn json_parse_is_total() {
    // Deep enough that duplicated brackets cross the nesting limit.
    let deep = format!("{}1{}", "[".repeat(120), "]".repeat(120));
    let doc = format!(
        "{{\"s\":\"tab\\t quote\\\" é \\u00e9 \\ud83d\\ude00\",\"n\":[-0.0,1e308,-12,3.5e-7],\
         \"o\":{{\"t\":true,\"f\":false,\"z\":null}},\"deep\":{deep}}}"
    );
    assert!(Json::parse(&doc).is_ok());
    for_each_mutation("json", doc.as_bytes(), |mutated, _| {
        let _ = Json::parse(&String::from_utf8_lossy(mutated));
    });
}
