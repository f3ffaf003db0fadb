//! Damage the durable stores must surface, never absorb silently: a
//! flipped high bit in the serve write-ahead log, and a damaged
//! dead-letter queue file.

use m2td::dist::{DlqEntry, DlqStore};
use m2td::serve::{DurabilityConfig, ServeConfig, ServeEngine, ServeError};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("m2td_durability").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A byte that is no longer UTF-8 inside an interior WAL record loses
/// only the history from that record on, and the engine says so: it
/// recovers the records before the damage and degrades to read-only
/// instead of coming up empty and accepting writes.
#[test]
fn high_bit_flip_in_the_wal_keeps_the_prefix_and_degrades() {
    let dir = tmp_dir("wal_high_bit");
    let dur = DurabilityConfig::new(&dir)
        .with_wal_sync_every(0)
        .with_snapshot_every(0);
    let (engine, _) = ServeEngine::recover(ServeConfig::default(), dur.clone()).unwrap();
    engine.register("a", &[3, 3], &[2, 2]).unwrap();
    for l in 0..6usize {
        engine.absorb("a", &[l / 3, l % 3], l as f64 + 0.5).unwrap();
    }
    drop(engine);

    // XOR 0x80 into the middle of record 3 (the second absorb).
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let ends: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
    assert_eq!(ends.len(), 7, "register + 6 absorbs");
    bytes[(ends[1] + ends[2]) / 2] ^= 0x80;
    std::fs::write(&wal, &bytes).unwrap();

    let (recovered, report) = ServeEngine::recover(ServeConfig::default(), dur).unwrap();
    assert!(report.degraded, "lost history must degrade: {report:?}");
    assert_eq!(report.replayed, 2, "register and the first absorb replay");
    assert_eq!(recovered.stats("a").unwrap().nnz, 1);
    assert!(matches!(
        recovered.register("b", &[2, 2], &[1, 1]),
        Err(ServeError::Degraded)
    ));
}

fn entry(task: u64) -> DlqEntry {
    DlqEntry {
        job: 3,
        phase: 3,
        kind: "reduce".to_string(),
        task,
        attempts: 4,
        log: vec!["attempt 0: killed by fault plan".to_string()],
        error: "retry budget exhausted".to_string(),
        payload: format!("[{task}]"),
        requeued: false,
    }
}

/// A damaged `dlq.json` is moved aside byte for byte and counted; the
/// queue then starts empty, and parking never overwrites the damaged
/// history.
#[test]
fn damaged_dlq_is_quarantined_then_park_starts_a_fresh_queue() {
    let dir = tmp_dir("dlq_damage");
    let store = DlqStore::open(&dir);
    store.park(entry(1)).unwrap();
    store.park(entry(2)).unwrap();
    drop(store);
    let path = dir.join(DlqStore::FILE_NAME);
    let mut damaged = std::fs::read(&path).unwrap();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x80;
    std::fs::write(&path, &damaged).unwrap();

    m2td::obs::install();
    let count = || {
        m2td::obs::snapshot()
            .counter("dlq.file_quarantined")
            .unwrap_or(0)
    };
    let before = count();
    let reopened = DlqStore::open(&dir);
    let after = count();
    m2td::obs::uninstall();
    assert_eq!(reopened.depth(), 0);
    assert_eq!(after, before + 1, "the quarantine must be counted");
    let moved = dir.join("dlq.quarantined.1.json");
    assert_eq!(std::fs::read(&moved).unwrap(), damaged);

    reopened.park(entry(3)).unwrap();
    assert_eq!(DlqStore::open(&dir).entries(), vec![entry(3)]);
    assert_eq!(std::fs::read(&moved).unwrap(), damaged, "never overwritten");
}
