//! Write-ahead log for the serve engine.
//!
//! One append-only file (`wal.log`) holds every mutating operation of the
//! whole engine — `register`, `absorb`, `remove` and *manual* `refresh`
//! records, each tagged with its ensemble name. A single totally-ordered
//! log (rather than one per ensemble) is deliberate: `remove` followed by
//! `register` of the same name must replay in exactly the order it
//! happened, and per-ensemble files would lose that cross-ensemble order.
//! Automatic staleness refreshes are **not** logged — replaying the
//! absorbs re-derives them deterministically at the same points.
//!
//! The file is a [`SealedLog`] (format v3, see [`m2td_guard::integrity`]):
//! one line per record, a `{version, checksum}` header, a tab, then the
//! raw body — the record's sequence number and its operation, e.g.
//! `{"seq":7,"op":"refresh","name":"a"}`. Reading works on bytes and
//! verifies each line before parsing its body, so no damaged byte — a
//! flipped high bit included — can make the log read as empty. Absorb
//! values are stored as bit-cast `u64` (through `Json::Int`), so recovery
//! restores them bitwise even for values a shortest-round-trip float
//! formatter could not represent (NaN, infinities).
//!
//! Durability batching: [`Wal::append`] flushes every record to the OS
//! (the bytes survive a process *crash*), but only issues an expensive
//! `fsync` every `sync_every` records (machine-loss durability), counted
//! in `serve.wal_syncs`. `0` disables fsync entirely.
//!
//! Reading tolerates a *torn tail*: a final record that fails to verify,
//! or lacks its newline, is the remnant of a crash mid-append — never
//! acknowledged — and is dropped. The first record of the file carries
//! `"first":true` and sequence numbers run consecutively from it, so a
//! reordered, lost or duplicated line is damage too.
//! A damaged record with records *after* it is corruption of
//! already-committed history, and [`WalReadReport::corrupt`] reports it
//! so the engine can degrade to read-only instead of silently serving a
//! hole in the timeline.

use crate::store::store_err;
use crate::Result;
use m2td_guard::integrity::{LogRead, SealedLog};
use m2td_json::{FromJson, Json, ToJson};
use std::path::Path;

/// One logged mutating operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// `register(name, dims, ranks)`.
    Register {
        /// Ensemble name.
        name: String,
        /// Mode extents.
        dims: Vec<usize>,
        /// Per-mode target ranks.
        ranks: Vec<usize>,
    },
    /// `absorb(name, index, value)`; the value is kept bit-exact.
    Absorb {
        /// Ensemble name.
        name: String,
        /// Cell multi-index.
        index: Vec<usize>,
        /// Bit pattern of the absorbed `f64`.
        value_bits: u64,
    },
    /// `deregister(name)`.
    Remove {
        /// Ensemble name.
        name: String,
    },
    /// A *manual* refresh. Logged because it resets the staleness counter
    /// and therefore shifts every later auto-refresh point.
    Refresh {
        /// Ensemble name.
        name: String,
    },
}

/// One sequenced log record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based).
    pub seq: u64,
    /// The operation.
    pub op: WalOp,
}

impl WalRecord {
    /// The record body; `first` marks the first record of the file.
    fn to_json(&self, first: bool) -> Json {
        let field = |key: &str, value: Json| (key.to_string(), value);
        let (kind, name, extra) = match &self.op {
            WalOp::Register { name, dims, ranks } => (
                "register",
                name,
                vec![
                    field("dims", dims.to_json()),
                    field("ranks", ranks.to_json()),
                ],
            ),
            WalOp::Absorb {
                name,
                index,
                value_bits,
            } => (
                "absorb",
                name,
                vec![
                    field("index", index.to_json()),
                    field("value_bits", Json::Int(*value_bits as i64)),
                ],
            ),
            WalOp::Remove { name } => ("remove", name, vec![]),
            WalOp::Refresh { name } => ("refresh", name, vec![]),
        };
        let mut fields = vec![field("seq", Json::Int(self.seq as i64))];
        if first {
            fields.push(field("first", Json::Bool(true)));
        }
        fields.extend([
            field("op", Json::Str(kind.to_string())),
            field("name", Json::Str(name.clone())),
        ]);
        fields.extend(extra);
        Json::Obj(fields)
    }

    fn from_json(json: &Json) -> Option<WalRecord> {
        let seq = match json.get("seq") {
            Some(Json::Int(s)) if *s > 0 => *s as u64,
            _ => return None,
        };
        let name = match json.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => return None,
        };
        let op = match json.get("op")?.as_str().ok()? {
            "register" => WalOp::Register {
                name,
                dims: FromJson::from_json(json.get("dims")?).ok()?,
                ranks: FromJson::from_json(json.get("ranks")?).ok()?,
            },
            "absorb" => WalOp::Absorb {
                name,
                index: FromJson::from_json(json.get("index")?).ok()?,
                value_bits: match json.get("value_bits")? {
                    Json::Int(b) => *b as u64,
                    _ => return None,
                },
            },
            "remove" => WalOp::Remove { name },
            "refresh" => WalOp::Refresh { name },
            _ => return None,
        };
        Some(WalRecord { seq, op })
    }
}

/// Outcome of reading a log back from disk: the verified records in file
/// order, whether committed history is corrupt, and whether a torn tail
/// was dropped.
pub type WalReadReport = LogRead<WalRecord>;

/// The append-side handle of the write-ahead log.
#[derive(Debug)]
pub struct Wal {
    log: SealedLog,
    next_seq: u64,
    /// Whether the file holds no record yet.
    fresh: bool,
}

impl Wal {
    /// Opens (creating if needed) the log at `path` for appending.
    /// `next_seq` is the sequence number the next record will get —
    /// recovery passes one past the highest sequence it replayed or
    /// skipped. `sync_every` batches fsyncs (`0` disables them).
    pub fn open(path: &Path, next_seq: u64, sync_every: usize) -> Result<Self> {
        Ok(Self {
            log: SealedLog::open(path, sync_every).map_err(store_err)?,
            next_seq,
            fresh: std::fs::metadata(path).map_or(true, |m| m.len() == 0),
        })
    }

    /// Sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence number of the most recently appended record (0 = none).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Appends one operation, returning its sequence number. The record
    /// is flushed to the OS before this returns (crash durability); an
    /// fsync is issued every `sync_every` appends (machine durability).
    pub fn append(&mut self, op: WalOp) -> Result<u64> {
        let record = WalRecord {
            seq: self.next_seq,
            op,
        };
        if self
            .log
            .append(&record.to_json(self.fresh))
            .map_err(store_err)?
        {
            m2td_obs::counter_add("serve.wal_syncs", 1);
        }
        self.fresh = false;
        self.next_seq += 1;
        m2td_obs::counter_add("serve.wal_appends", 1);
        Ok(record.seq)
    }

    /// Reads and verifies the log at `path` (absent file = empty log).
    pub fn read(path: &Path) -> WalReadReport {
        let mut last: Option<u64> = None;
        SealedLog::read(path, |body| {
            let rec = WalRecord::from_json(&body)?;
            let first = body.get("first").is_some();
            let in_place = match last {
                None => first,
                Some(prev) => !first && rec.seq == prev + 1,
            };
            last = Some(rec.seq);
            in_place.then_some(rec)
        })
    }

    /// Rewrites the log keeping only records with `seq > covered_seq`
    /// (everything at or below is durable in a retained snapshot). The
    /// rewrite publishes atomically and the append handle is reopened on
    /// the new file.
    pub fn truncate_covered(&mut self, covered_seq: u64) -> Result<()> {
        let report = Self::read(self.log.path());
        let kept: Vec<&WalRecord> = report
            .records
            .iter()
            .filter(|r| r.seq > covered_seq)
            .collect();
        let bodies = kept.iter().enumerate().map(|(i, r)| r.to_json(i == 0));
        self.log.rewrite(bodies).map_err(store_err)?;
        self.fresh = kept.is_empty();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("m2td_wal_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Register {
                name: "e".into(),
                dims: vec![3, 3],
                ranks: vec![2, 2],
            },
            WalOp::Absorb {
                name: "e".into(),
                index: vec![0, 1],
                value_bits: 1.5f64.to_bits(),
            },
            WalOp::Refresh { name: "e".into() },
            WalOp::Remove { name: "e".into() },
        ]
    }

    #[test]
    fn append_then_read_round_trips_in_order() {
        let path = tmp("roundtrip");
        let mut wal = Wal::open(&path, 1, 2).unwrap();
        for op in ops() {
            wal.append(op).unwrap();
        }
        assert_eq!(wal.next_seq(), 5);
        let report = Wal::read(&path);
        assert!(!report.corrupt);
        assert_eq!(report.torn, 0);
        assert_eq!(report.records.len(), 4);
        for (i, (rec, op)) in report.records.iter().zip(ops()).enumerate() {
            assert_eq!(rec.seq, i as u64 + 1);
            assert_eq!(rec.op, op);
        }
    }

    #[test]
    fn absorb_values_round_trip_bitwise_even_non_finite() {
        let path = tmp("bits");
        let mut wal = Wal::open(&path, 1, 0).unwrap();
        for v in [0.1 + 0.2, -0.0, f64::NAN, f64::INFINITY, 1e-320] {
            wal.append(WalOp::Absorb {
                name: "e".into(),
                index: vec![0],
                value_bits: v.to_bits(),
            })
            .unwrap();
        }
        let report = Wal::read(&path);
        let bits: Vec<u64> = report
            .records
            .iter()
            .map(|r| match &r.op {
                WalOp::Absorb { value_bits, .. } => *value_bits,
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        let expect: Vec<u64> = [0.1 + 0.2, -0.0, f64::NAN, f64::INFINITY, 1e-320]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, expect);
    }

    #[test]
    fn torn_tail_is_dropped_but_mid_log_damage_is_corruption() {
        let path = tmp("torn");
        let mut wal = Wal::open(&path, 1, 0).unwrap();
        for op in ops() {
            wal.append(op).unwrap();
        }
        drop(wal);
        // Torn tail: a half-written final record.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{full}{{\"version\":2,\"finge")).unwrap();
        let report = Wal::read(&path);
        assert!(!report.corrupt);
        assert_eq!(report.torn, 1);
        assert_eq!(report.records.len(), 4);
        // Mid-log damage: flip a byte inside the *second* record.
        let mut lines: Vec<String> = full.lines().map(str::to_string).collect();
        lines[1] = lines[1].replace("absorb", "absorB");
        std::fs::write(&path, lines.join("\n")).unwrap();
        let report = Wal::read(&path);
        assert!(report.corrupt, "mid-log damage must be reported");
        assert_eq!(report.records.len(), 1, "replay stops at the hole");
    }

    #[test]
    fn truncate_covered_keeps_only_the_tail() {
        let path = tmp("truncate");
        let mut wal = Wal::open(&path, 1, 0).unwrap();
        for op in ops() {
            wal.append(op).unwrap();
        }
        wal.truncate_covered(2).unwrap();
        let report = Wal::read(&path);
        assert_eq!(
            report.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // The handle still appends with continuous sequencing.
        wal.append(WalOp::Refresh { name: "e".into() }).unwrap();
        let report = Wal::read(&path);
        assert_eq!(
            report.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        // Covering everything empties the log.
        wal.truncate_covered(5).unwrap();
        assert!(Wal::read(&path).records.is_empty());
    }

    #[test]
    fn missing_log_reads_as_empty() {
        let path = tmp("missing");
        let report = Wal::read(&path);
        assert!(report.records.is_empty());
        assert!(!report.corrupt);
    }
}
