//! The one durable-record codec of the workspace (format v3).
//!
//! Every durable artifact — the D-M2TD job manifest, the dead-letter
//! queue, and the serve layer's snapshots and write-ahead log — is made
//! of one record frame:
//!
//! ```text
//! {"version":3,"checksum":-4311459447823561209}\t{"seq":7,"op":"refresh","name":"a"}
//! ```
//!
//! a compact JSON header of two integers (at most [`MAX_HEADER_BYTES`]),
//! one tab, then the raw body — compact `m2td-json`, which never holds a
//! raw tab or newline, so the first tab always ends the header and a
//! newline always ends a log record. `checksum` is FNV-1a-64 over the raw
//! body bytes. `version` stays outside the checksum, so a record whose
//! checksum holds but whose version differs is a stale format, never a
//! damaged one.
//!
//! **Verify before parse.** [`open`] works on bytes: it parses only the
//! header, checks the version, then the checksum over the raw body slice,
//! and only a body that passed both is parsed — once, with no
//! re-serialization. Unverified bytes never reach the JSON parser beyond
//! the short header, and damage never deserializes into the pipeline.
//!
//! Two storage shapes are built on the frame, each written once here:
//!
//! * [`SealedFiles`] — one record per file in a store's directory:
//!   atomic publish (or a two-step [`Staged`] publish), orphan-temp
//!   cleanup on open, load with a reason label on failure, quarantine to
//!   `<stem>.quarantined.<n>.json` with keep-newest-4 retention, and the
//!   chaos harness's [`CorruptionKind`] mutation;
//! * [`SealedLog`] — one record per line of an append-only file: append
//!   with a flush per record and an optional fsync every N records, a
//!   byte-level read returning the verified prefix plus whether the tail
//!   was torn or committed history is corrupt, and an atomic rewrite.

use m2td_fault::CorruptionKind;
use m2td_json::Json;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Current record format version. Records claiming any other version are
/// rejected (and quarantined by their store).
pub const FORMAT_VERSION: i64 = 3;

/// Longest header [`open`] looks through for the separating tab. The
/// widest real header (`{"version":3,"checksum":-9223372036854775808}`)
/// is 45 bytes.
pub const MAX_HEADER_BYTES: usize = 64;

/// Quarantined records kept per file family by the retention sweep.
const QUARANTINE_KEEP: usize = 4;

/// FNV-1a 64-bit hash over a byte stream, fed chunk by chunk.
pub fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The frame header. The checksum is bit-cast through `i64`: the hash
/// uses all 64 bits, and `Json::Int` is an `i64`.
fn header(version: i64, checksum: u64) -> String {
    let checksum = checksum as i64;
    format!("{{\"version\":{version},\"checksum\":{checksum}}}\t")
}

/// Frames `body` as one sealed record: header, tab, compact body.
fn seal(body: &Json) -> String {
    let body = body.to_compact();
    header(FORMAT_VERSION, fnv1a64(&[body.as_bytes()])) + &body
}

/// Splits a record into its `(version, checksum)` header and raw body.
fn split(record: &[u8]) -> Option<(i64, u64, &[u8])> {
    let tab = record
        .iter()
        .take(MAX_HEADER_BYTES)
        .position(|&b| b == b'\t')?;
    let doc = Json::parse(std::str::from_utf8(&record[..tab]).ok()?).ok()?;
    let int = |key| match doc.get(key) {
        Some(Json::Int(v)) => Some(*v),
        _ => None,
    };
    Some((int("version")?, int("checksum")? as u64, &record[tab + 1..]))
}

/// Verifies one sealed record and parses its body: header first, then
/// the version, then the checksum over the raw body bytes; only a body
/// that passed all three is parsed. The error names the failed check —
/// `header`, `version`, `checksum` or `body` — for quarantine counters.
pub fn open(record: &[u8]) -> Result<Json, &'static str> {
    let (version, checksum, body) = split(record).ok_or("header")?;
    if version != FORMAT_VERSION {
        return Err("version");
    }
    if fnv1a64(&[body]) != checksum {
        return Err("checksum");
    }
    let text = std::str::from_utf8(body).map_err(|_| "body")?;
    Json::parse(text).map_err(|_| "body")
}

/// Monotonic discriminator making temp-file names unique within this
/// process; combined with the pid it keeps concurrent writers (two stores
/// on one directory, or a restarted job racing its predecessor) from ever
/// clobbering each other's in-flight temp files.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A record written to its uniquely named temp file but not yet visible.
/// Dropping it without [`Staged::commit`] models a crash mid-publish: the
/// orphan is deleted by the next [`SealedFiles::new`] on its directory.
#[derive(Debug)]
pub struct Staged {
    tmp: PathBuf,
    path: PathBuf,
}

impl Staged {
    /// Writes `text` to `<name>.tmp.<pid>.<n>` next to `path`.
    fn write(path: &Path, text: &str) -> Result<Self, String> {
        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("rec");
        let tmp = path.with_file_name(format!("{name}.tmp.{}.{n}", std::process::id()));
        std::fs::write(&tmp, text).map_err(|e| format!("write temp {}: {e}", tmp.display()))?;
        Ok(Self {
            tmp,
            path: path.to_path_buf(),
        })
    }

    /// Renames the temp file into place, making the record visible.
    pub fn commit(self) -> Result<(), String> {
        std::fs::rename(&self.tmp, &self.path)
            .map_err(|e| format!("publish {}: {e}", self.path.display()))
    }
}

/// The sealed files of one store's directory. Damage is quarantined per
/// *family* — the file name up to its first `.`, so `phase1.json` goes to
/// `phase1.quarantined.<n>.json` and `snapshot.<seq>.json` to
/// `snapshot.quarantined.<n>.json` — and counted under the store's
/// counter prefix: `<prefix>_quarantined`, `<prefix>_quarantined.<reason>`
/// and `<prefix>_quarantine_swept`.
#[derive(Debug, Clone)]
pub struct SealedFiles {
    dir: PathBuf,
    counter: &'static str,
}

impl SealedFiles {
    /// Adopts `dir` (which must exist for writes to succeed): deletes the
    /// `*.tmp*` orphans a crash mid-publish left behind — they were never
    /// renamed into place, so they are by definition incomplete — and
    /// sweeps the quarantine retention of each family in `stems`.
    pub fn new(dir: impl Into<PathBuf>, counter: &'static str, stems: &[&str]) -> Self {
        let files = Self {
            dir: dir.into(),
            counter,
        };
        for entry in entries(&files.dir) {
            if entry.file_name().to_string_lossy().contains(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        stems.iter().for_each(|stem| files.sweep_quarantine(stem));
        files
    }

    /// The directory the files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the file `name`.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Atomically publishes `body` as `name`: a crash mid-write leaves
    /// only a temp orphan, never a torn record.
    pub fn publish(&self, name: &str, body: &Json) -> Result<(), String> {
        self.stage(name, body)?.commit()
    }

    /// Step one of a two-step publish: the sealed record is written to a
    /// temp file; [`Staged::commit`] makes it visible.
    pub fn stage(&self, name: &str, body: &Json) -> Result<Staged, String> {
        Staged::write(&self.path(name), &seal(body))
    }

    /// Loads `name` through `decode`. `Ok(None)` means absent, or a clean
    /// record `decode` declined (another run's, left in place). A file
    /// that cannot be read, fails [`open`] or fails `decode` is
    /// quarantined, and the reason is returned.
    pub fn load<T>(
        &self,
        name: &str,
        decode: impl FnOnce(Json) -> Result<Option<T>, &'static str>,
    ) -> Result<Option<T>, &'static str> {
        let loaded = match std::fs::read(self.path(name)) {
            Ok(bytes) => open(&bytes).and_then(decode),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(_) => Err("unreadable"),
        };
        if let Err(reason) = loaded {
            self.quarantine(name, reason);
        }
        loaded
    }

    /// The quarantined records of a family as `(n, path)` pairs, in
    /// arbitrary order; higher `n` = newer.
    pub fn quarantined(&self, stem: &str) -> Vec<(u64, PathBuf)> {
        sequenced_files(&self.dir, &format!("{stem}.quarantined."))
    }

    fn sweep_quarantine(&self, stem: &str) {
        let swept = format!("{}_quarantine_swept", self.counter);
        sweep_retention(
            &self.dir,
            &format!("{stem}.quarantined."),
            QUARANTINE_KEEP,
            &swept,
        );
    }

    /// Moves `name` aside, byte for byte, as the next
    /// `<stem>.quarantined.<n>.json` of its family. Counters bump only
    /// when the rename wins: two stores that detect the same damage race,
    /// exactly one owns the quarantine and the loser stays silent.
    pub fn quarantine(&self, name: &str, reason: &str) {
        let stem = name.split('.').next().unwrap_or(name);
        let next = self.quarantined(stem).iter().map(|(n, _)| n + 1).max();
        let dst = self.path(&format!("{stem}.quarantined.{}.json", next.unwrap_or(1)));
        if std::fs::rename(self.path(name), dst).is_ok() {
            m2td_obs::counter_add(format!("{}_quarantined", self.counter), 1);
            m2td_obs::counter_add(format!("{}_quarantined.{reason}", self.counter), 1);
            self.sweep_quarantine(stem);
        }
    }

    /// Applies a [`CorruptionKind`] to the stored `name`, modelling damage
    /// *after* a successful publish (so it bypasses the atomic path).
    /// Returns whether a file existed to corrupt.
    pub fn corrupt(&self, name: &str, kind: CorruptionKind) -> Result<bool, String> {
        let path = self.path(name);
        let Ok(mut bytes) = std::fs::read(&path) else {
            return Ok(false);
        };
        let half = bytes.len() / 2;
        match (kind, split(&bytes)) {
            (CorruptionKind::BitFlip, _) => {
                if let Some(b) = bytes.get_mut(half) {
                    *b ^= 0x01;
                }
            }
            // Claim the previous format version: the checksum does not
            // cover the version, so only the version check can catch it.
            (CorruptionKind::StaleVersion, Some((_, checksum, body))) => {
                bytes = [header(FORMAT_VERSION - 1, checksum).as_bytes(), body].concat();
            }
            // Truncation, or a stale-version stamp on an unframed file.
            _ => bytes.truncate(half),
        }
        std::fs::write(&path, bytes).map_err(|e| format!("corrupt {}: {e}", path.display()))?;
        Ok(true)
    }
}

/// What a read of a [`SealedLog`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRead<T> {
    /// The verified records, in file order, up to the first bad line.
    /// Records after it are not returned: replaying across a hole would
    /// apply them against the wrong state.
    pub records: Vec<T>,
    /// `true` when a bad line is followed by more lines: committed
    /// history is damaged, not just a torn tail.
    pub corrupt: bool,
    /// Lines dropped as a torn tail: 1 when only the last line is bad or
    /// unterminated (a crash mid-append), else 0.
    pub torn: usize,
}

/// The append side of an append-only log of sealed records, one per
/// line.
#[derive(Debug)]
pub struct SealedLog {
    path: PathBuf,
    file: File,
    sync_every: usize,
    since_sync: usize,
}

impl SealedLog {
    /// Opens (creating if needed) the log at `path` for appending;
    /// `sync_every` batches fsyncs (`0` never fsyncs).
    pub fn open(path: &Path, sync_every: usize) -> Result<Self, String> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open log {}: {e}", path.display()))?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            sync_every,
            since_sync: 0,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to the OS (it survives a process
    /// crash); every `sync_every`-th append also fsyncs (it survives
    /// machine loss). Returns whether this append fsynced.
    pub fn append(&mut self, body: &Json) -> Result<bool, String> {
        let line = seal(body) + "\n";
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("append {}: {e}", self.path.display()))?;
        self.since_sync += 1;
        let due = self.sync_every > 0 && self.since_sync >= self.sync_every;
        if due {
            self.sync()?;
        }
        Ok(due)
    }

    /// Forces an fsync of everything appended so far.
    fn sync(&mut self) -> Result<(), String> {
        self.since_sync = 0;
        self.file
            .sync_data()
            .map_err(|e| format!("sync {}: {e}", self.path.display()))
    }

    /// Reads the log at `path` (absent = empty) byte by byte: each line is
    /// [`open`]ed, then handed to `decode`, which may also reject it (an
    /// out-of-order sequence number). Reading stops at the first line
    /// that fails. A failure on the last line — or a last line missing
    /// its newline, which its append never acknowledged — is a torn tail;
    /// a failure with lines after it is corruption.
    pub fn read<T>(path: &Path, mut decode: impl FnMut(Json) -> Option<T>) -> LogRead<T> {
        let bytes = std::fs::read(path).unwrap_or_default();
        let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        // `split` yields a final empty piece exactly when the file ends in
        // a newline; anything else there is an unterminated last record.
        let unterminated = lines
            .pop()
            .is_some_and(|last| !last.iter().all(u8::is_ascii_whitespace));
        lines.retain(|line| !line.iter().all(u8::is_ascii_whitespace));
        let mut records = Vec::new();
        let mut bad = None;
        for (i, line) in lines.iter().enumerate() {
            match open(line).ok().and_then(&mut decode) {
                Some(record) => records.push(record),
                None => {
                    bad = Some(i);
                    break;
                }
            }
        }
        let corrupt = bad.is_some_and(|i| i + 1 < lines.len() || unterminated);
        let torn = usize::from(!corrupt && (bad.is_some() || unterminated));
        LogRead {
            records,
            corrupt,
            torn,
        }
    }

    /// Atomically replaces the log with `bodies` (compaction, or dropping
    /// records a snapshot covers) and reopens the append handle on it.
    pub fn rewrite(&mut self, bodies: impl IntoIterator<Item = Json>) -> Result<(), String> {
        let text: String = bodies.into_iter().map(|b| seal(&b) + "\n").collect();
        Staged::write(&self.path, &text)?.commit()?;
        *self = Self::open(&self.path, self.sync_every)?;
        Ok(())
    }
}

/// Enumerates the `<prefix><seq>.json` files of `dir` as `(seq, path)`
/// pairs in arbitrary order. Higher sequence = newer. Files whose suffix
/// is not a bare `u64` are ignored — they belong to someone else.
pub fn sequenced_files(dir: &Path, prefix: &str) -> Vec<(u64, PathBuf)> {
    let seq = |name: &str| {
        name.strip_prefix(prefix)?
            .strip_suffix(".json")?
            .parse()
            .ok()
    };
    entries(dir)
        .filter_map(|entry| Some((seq(entry.file_name().to_str()?)?, entry.path())))
        .collect()
}

/// The entries of `dir`; unreadable directories and entries are skipped.
fn entries(dir: &Path) -> impl Iterator<Item = std::fs::DirEntry> {
    std::fs::read_dir(dir).into_iter().flatten().flatten()
}

/// Retention sweep over one `<prefix><seq>.json` family: keeps the newest
/// `keep` files, deletes older ones, and bumps `counter` in `m2td-obs`
/// once per successful removal. Returns how many files were removed.
/// Racing sweepers are safe: the remove only counts when it wins.
pub fn sweep_retention(dir: &Path, prefix: &str, keep: usize, counter: &str) -> usize {
    let mut files = sequenced_files(dir, prefix);
    files.sort_by_key(|(seq, _)| std::cmp::Reverse(*seq));
    let mut removed = 0;
    for (_, path) in files.into_iter().skip(keep) {
        if std::fs::remove_file(&path).is_ok() {
            m2td_obs::counter_add(counter, 1);
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("m2td_integrity_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn body() -> Json {
        Json::Obj(vec![
            ("run".to_string(), Json::Int(7)),
            (
                "text".to_string(),
                Json::Str("tab\there\nnewline é".to_string()),
            ),
            (
                "vals".to_string(),
                Json::Arr(vec![Json::Float(1.5), Json::Int(-3)]),
            ),
        ])
    }

    #[test]
    fn seal_then_open_round_trips_and_detects_mutation() {
        let record = seal(&body()).into_bytes();
        assert_eq!(open(&record), Ok(body()));
        // The frame is one line even when strings hold tabs and newlines.
        assert!(!record.contains(&b'\n'));
        for at in 0..record.len() {
            for bit in [0x01, 0x80] {
                let mut flipped = record.clone();
                flipped[at] ^= bit;
                assert!(open(&flipped).is_err(), "flip {bit:#x} at {at} opened");
            }
            assert!(open(&record[..at]).is_err(), "cut at {at} opened");
        }
    }

    #[test]
    fn open_checks_header_then_version_then_checksum() {
        let record = seal(&body());
        let (_, body_text) = record.split_once('\t').unwrap();
        let good = fnv1a64(&[body_text.as_bytes()]);
        let stale = header(FORMAT_VERSION - 1, good) + body_text;
        assert_eq!(open(stale.as_bytes()), Err("version"));
        let wrong = header(FORMAT_VERSION, good ^ 1) + body_text;
        assert_eq!(open(wrong.as_bytes()), Err("checksum"));
        // A tab past MAX_HEADER_BYTES is never looked for.
        let padded = format!("{}{record}", " ".repeat(MAX_HEADER_BYTES));
        assert_eq!(open(padded.as_bytes()), Err("header"));
        // A verified but unparseable body (only a broken writer makes one).
        let junk = header(FORMAT_VERSION, fnv1a64(&[b"{"])) + "{";
        assert_eq!(open(junk.as_bytes()), Err("body"));
        // The widest possible header still fits.
        assert!(header(FORMAT_VERSION, i64::MIN as u64).len() <= MAX_HEADER_BYTES);
    }

    #[test]
    fn files_publish_load_quarantine_and_clean_orphans() {
        let dir = tmp_dir("files");
        let files = SealedFiles::new(&dir, "guard.test", &["rec"]);
        files.publish("rec.json", &body()).unwrap();
        assert_eq!(files.load("rec.json", |b| Ok(Some(b))), Ok(Some(body())));
        assert_eq!(files.load("gone.json", |b| Ok(Some(b))), Ok(None));
        // A staged publish stays invisible, and its orphan is cleaned.
        let staged = files.stage("next.json", &body()).unwrap();
        assert!(!files.path("next.json").exists());
        drop(staged);
        SealedFiles::new(&dir, "guard.test", &["rec"]);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["rec.json".to_string()]);
        // Every corruption kind quarantines byte-identically, by reason.
        for (n, kind, reason) in [
            (1, CorruptionKind::BitFlip, "checksum"),
            (2, CorruptionKind::Truncate, "checksum"),
            (3, CorruptionKind::StaleVersion, "version"),
        ] {
            files.publish("rec.json", &body()).unwrap();
            assert!(files.corrupt("rec.json", kind).unwrap());
            let damaged = std::fs::read(files.path("rec.json")).unwrap();
            assert_eq!(files.load("rec.json", |b| Ok(Some(b))), Err(reason));
            assert!(!files.path("rec.json").exists());
            let moved = std::fs::read(files.path(&format!("rec.quarantined.{n}.json")));
            assert_eq!(moved.unwrap(), damaged, "{kind}");
        }
        assert!(!files.corrupt("rec.json", CorruptionKind::BitFlip).unwrap());
        // A record the decoder declines is left in place; one it rejects
        // is quarantined under the decoder's reason.
        files.publish("rec.json", &body()).unwrap();
        assert_eq!(files.load("rec.json", |_| Ok(None::<Json>)), Ok(None));
        assert_eq!(
            files.load("rec.json", |_| Err::<Option<Json>, _>("shape")),
            Err("shape")
        );
        assert_eq!(files.quarantined("rec").len(), 4);
    }

    #[test]
    fn racing_handles_neither_tear_nor_double_quarantine() {
        let dir = tmp_dir("race");
        let handles = [0, 1].map(|_| SealedFiles::new(&dir, "guard.test", &["rec"]));
        let load = |files: &SealedFiles| files.load("rec.json", |b| Ok(Some(b)));
        let start = std::sync::Barrier::new(handles.len());
        let start = &start;
        // Interleaved publishes from two handles (a restarted job racing
        // its predecessor) never tear: each write goes through its own
        // uniquely named temp file.
        std::thread::scope(|s| {
            for files in &handles {
                s.spawn(move || {
                    start.wait();
                    for _ in 0..32 {
                        files.publish("rec.json", &body()).unwrap();
                    }
                });
            }
        });
        for files in &handles {
            assert_eq!(load(files), Ok(Some(body())));
        }
        // Damage both handles see at once is quarantined exactly once: the
        // losing rename must not mint a second copy.
        assert!(handles[0]
            .corrupt("rec.json", CorruptionKind::Truncate)
            .unwrap());
        std::thread::scope(|s| {
            for files in &handles {
                s.spawn(move || {
                    start.wait();
                    assert_ne!(load(files), Ok(Some(body())));
                });
            }
        });
        assert!(!handles[0].path("rec.json").exists());
        let quarantined = handles[0].quarantined("rec");
        assert_eq!(quarantined.len(), 1, "double-quarantined: {quarantined:?}");
    }

    #[test]
    fn log_reads_the_verified_prefix_and_classifies_damage() {
        let path = tmp_dir("log").join("x.log");
        let mut log = SealedLog::open(&path, 2).unwrap();
        let syncs: Vec<bool> = (0..4).map(|i| log.append(&Json::Int(i)).unwrap()).collect();
        assert_eq!(syncs, vec![false, true, false, true]);
        let all = |p: &Path| SealedLog::read(p, Some);
        let clean = all(&path);
        assert_eq!(clean.records, (0..4).map(Json::Int).collect::<Vec<_>>());
        assert!(!clean.corrupt && clean.torn == 0);
        let full = std::fs::read(&path).unwrap();
        // An unterminated or damaged last line is a torn tail.
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();
        let cut = all(&path);
        assert_eq!((cut.records.len(), cut.torn, cut.corrupt), (3, 1, false));
        // Damage with lines after it is corruption; the prefix survives.
        let mut flipped = full.clone();
        flipped[full.len() / 2] ^= 0x80;
        std::fs::write(&path, &flipped).unwrap();
        let hole = all(&path);
        assert!(hole.corrupt && hole.torn == 0);
        assert_eq!(
            hole.records,
            (0..hole.records.len() as i64)
                .map(Json::Int)
                .collect::<Vec<_>>()
        );
        // The decoder can reject a verified line too.
        std::fs::write(&path, &full).unwrap();
        let picky = SealedLog::read(&path, |b| (b != Json::Int(2)).then_some(b));
        assert_eq!((picky.records.len(), picky.corrupt), (2, true));
        // A rewrite replaces the content and appends continue after it.
        log.rewrite([Json::Int(9)]).unwrap();
        log.append(&Json::Int(10)).unwrap();
        assert_eq!(all(&path).records, vec![Json::Int(9), Json::Int(10)]);
        assert!(all(&path.with_extension("absent")).records.is_empty());
    }

    /// One test covering both real call-site naming schemes: the
    /// quarantine family `<stem>.quarantined.<seq>.json` of every sealed
    /// store and the serve snapshot store's `snapshot.<seq>.json` family
    /// share this sweep.
    #[test]
    fn sweep_retention_keeps_newest_for_both_naming_schemes() {
        for prefix in ["manifest.quarantined.", "snapshot."] {
            let dir = tmp_dir(&format!("sweep_{}", prefix.trim_end_matches('.')));
            for seq in 1..=6u64 {
                std::fs::write(dir.join(format!("{prefix}{seq}.json")), "x").unwrap();
            }
            // A neighbor that merely shares the directory is untouched.
            std::fs::write(dir.join("other.2.json"), "y").unwrap();
            let removed = sweep_retention(&dir, prefix, 2, "guard.test_swept");
            assert_eq!(removed, 4, "prefix {prefix}");
            let mut kept: Vec<u64> = sequenced_files(&dir, prefix)
                .into_iter()
                .map(|(seq, _)| seq)
                .collect();
            kept.sort_unstable();
            assert_eq!(kept, vec![5, 6], "prefix {prefix}");
            assert!(dir.join("other.2.json").exists());
            // Already at/below the floor: nothing more to do.
            assert_eq!(sweep_retention(&dir, prefix, 2, "guard.test_swept"), 0);
        }
    }
}
