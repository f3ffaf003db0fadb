//! Transport abstraction: how tasks and sub-tensor shards cross the
//! boundary between the D-M2TD driver and its workers.
//!
//! Everything that crosses a transport is a [`TaskEnvelope`]: the task
//! identity (job, phase, kind, task id, attempt) plus an opaque serialized
//! payload, sealed with the FNV-1a-64 checksum every durable record of
//! `m2td_guard::integrity` uses. On the wire an envelope is one frame:
//!
//! ```text
//! {"job":3,"phase":2,"kind":"reduce","task":17,"attempt":1,"checksum":1447188547863556484}
//! [[0,4,1.5],[1,9,-0.25]]
//! ```
//!
//! a compact `m2td-json` header line, a `\n`, then the raw payload, which is
//! never escaped or re-parsed by the transport. Compact JSON holds no raw
//! newline, so the first `\n` always ends the header. The checksum covers
//! the *whole* envelope (identity and payload), so a bit-flip or
//! truncation anywhere in flight is detected on receive, counted in
//! `xport.corrupt_dropped`, and surfaces as a [`TransportError`] the
//! scheduler retries. Decoding verifies before it parses: only the short
//! header is parsed, and the checksum is checked over the raw payload
//! slice before any payload byte is read as JSON — corrupt bytes are
//! never deserialized into the pipeline.
//!
//! Two implementations exist today:
//!
//! * [`DirectTransport`] — a pass-through used as a reference; and
//! * [`ChannelTransport`] — frames every envelope, pushes the bytes
//!   through an in-process `std::sync::mpsc` channel hop, optionally
//!   injects deterministic wire corruption from the [`FaultPlan`] wire
//!   stream, and verifies the frame on the far side.
//!
//! The channel implementation is deliberately shaped like a future
//! socket/process transport: nothing crosses it except bytes, so swapping
//! the hop for a TCP stream changes no caller.

use m2td_fault::{CorruptionKind, FaultPlan, TaskKind};
use m2td_guard::integrity::fnv1a64;
use m2td_json::{Json, ToJson};
use std::fmt;

/// Which transport implementation an engine routes its tasks through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Tasks are executed by direct function call; nothing is serialized.
    #[default]
    Direct,
    /// Tasks and results cross an in-process channel as serialized
    /// envelopes (checksummed, corruptible, retryable).
    Channel,
}

impl TransportKind {
    /// Reads `M2TD_TRANSPORT` (`direct` | `channel`); unset or
    /// unrecognized values fall back to [`TransportKind::Direct`].
    pub fn from_env() -> Self {
        match std::env::var("M2TD_TRANSPORT").as_deref() {
            Ok("channel") => TransportKind::Channel,
            _ => TransportKind::Direct,
        }
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "direct" => Ok(TransportKind::Direct),
            "channel" => Ok(TransportKind::Channel),
            other => Err(format!(
                "unknown transport '{other}' (expected direct | channel)"
            )),
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportKind::Direct => write!(f, "direct"),
            TransportKind::Channel => write!(f, "channel"),
        }
    }
}

/// Why a delivery failed. Both variants are *retryable*: the sender still
/// holds the task and can re-dispatch a fresh attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The received bytes did not parse as an envelope (torn write,
    /// truncation, or a structural bit-flip).
    Malformed(String),
    /// The header parsed but its checksum did not match the header fields
    /// and the payload bytes.
    ChecksumMismatch {
        /// Checksum the envelope claimed.
        stored: u64,
        /// Checksum recomputed from the received contents.
        computed: u64,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Malformed(why) => write!(f, "malformed envelope: {why}"),
            TransportError::ChecksumMismatch { stored, computed } => write!(
                f,
                "envelope checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

/// Longest header line [`TaskEnvelope::decode`] looks through for the
/// newline that ends it. The longest header the encoder writes (every
/// number at its widest) is 141 bytes, so a frame without a newline this
/// early is malformed, however long its payload.
const MAX_HEADER_BYTES: usize = 256;

/// Parses the `kind` field of an envelope back into a [`TaskKind`].
fn parse_kind(s: &str) -> Option<TaskKind> {
    match s {
        "map" => Some(TaskKind::Map),
        "reduce" => Some(TaskKind::Reduce),
        "simulation" => Some(TaskKind::Simulation),
        _ => None,
    }
}

/// One unit of work (or one result) in transit: task identity plus an
/// opaque serialized payload, sealed under an FNV-1a-64 checksum.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskEnvelope {
    /// Job the task belongs to (D-M2TD uses one job id per phase).
    pub job: u64,
    /// D-M2TD phase number (1–3), for DLQ forensics.
    pub phase: u8,
    /// Map / reduce / simulation.
    pub kind: TaskKind,
    /// Task index within the job.
    pub task: u64,
    /// Attempt number this envelope was dispatched for.
    pub attempt: u32,
    /// FNV-1a-64 over the identity fields followed by the payload bytes;
    /// [`TaskEnvelope::decode`] recomputes it before parsing the payload.
    pub checksum: u64,
    /// The serialized task input or output.
    pub payload: String,
}

impl TaskEnvelope {
    /// Seals a new envelope around `payload`.
    pub fn new(
        job: u64,
        phase: u8,
        kind: TaskKind,
        task: u64,
        attempt: u32,
        payload: String,
    ) -> Self {
        let checksum = Self::checksum_of(job, phase, kind, task, attempt, &payload);
        Self {
            job,
            phase,
            kind,
            task,
            attempt,
            checksum,
            payload,
        }
    }

    /// The envelope checksum: FNV-1a-64 over a canonical serialization of
    /// the identity fields followed by the payload bytes. Covering the
    /// identity too means a bit-flip in (say) the task id cannot slip
    /// through just because the payload survived.
    fn checksum_of(
        job: u64,
        phase: u8,
        kind: TaskKind,
        task: u64,
        attempt: u32,
        payload: &str,
    ) -> u64 {
        let header = format!("{job}/{phase}/{kind}/{task}/{attempt}/");
        fnv1a64(&[header.as_bytes(), payload.as_bytes()])
    }

    /// Serializes the envelope into its wire frame (the only form that
    /// ever crosses a transport): the compact JSON header
    /// `{job,phase,kind,task,attempt,checksum}`, a `\n`, then the payload
    /// bytes verbatim.
    pub fn encode(&self) -> String {
        let header = Json::Obj(vec![
            ("job".to_string(), self.job.to_json()),
            ("phase".to_string(), self.phase.to_json()),
            ("kind".to_string(), self.kind.to_string().to_json()),
            ("task".to_string(), self.task.to_json()),
            ("attempt".to_string(), self.attempt.to_json()),
            // Bit-cast through i64 like every other 64-bit hash on disk.
            ("checksum".to_string(), Json::Int(self.checksum as i64)),
        ])
        .to_compact();
        let mut frame = String::with_capacity(header.len() + 1 + self.payload.len());
        frame.push_str(&header);
        frame.push('\n');
        frame.push_str(&self.payload);
        frame
    }

    /// Parses and *verifies* a received frame. Malformed frames and
    /// checksum mismatches are rejected — the caller retries the attempt,
    /// it never sees the damaged payload.
    pub fn decode(text: &str) -> Result<Self, TransportError> {
        let (mut envelope, body) = Self::open(text)?;
        envelope.payload = text[body..].to_string();
        Ok(envelope)
    }

    /// Verifies a frame without reading its payload: parses the header
    /// line, then checks the checksum over the header fields and the raw
    /// payload bytes. Returns the envelope with an empty `payload` and the
    /// byte offset where the verified payload starts.
    fn open(text: &str) -> Result<(Self, usize), TransportError> {
        let newline = text
            .bytes()
            .take(MAX_HEADER_BYTES)
            .position(|b| b == b'\n')
            .ok_or_else(|| TransportError::Malformed("no header line".to_string()))?;
        let doc = Json::parse(&text[..newline])
            .map_err(|e| TransportError::Malformed(format!("header parse: {e}")))?;
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| TransportError::Malformed(format!("missing field '{name}'")))
        };
        let as_u64 = |name: &str| {
            field(name)?
                .as_u64()
                .map_err(|e| TransportError::Malformed(format!("field '{name}': {e}")))
        };
        let job = as_u64("job")?;
        let phase = as_u64("phase")?;
        let phase = u8::try_from(phase)
            .map_err(|_| TransportError::Malformed(format!("phase {phase} out of range")))?;
        let kind = field("kind")?
            .as_str()
            .ok()
            .and_then(parse_kind)
            .ok_or_else(|| TransportError::Malformed("unrecognized task kind".to_string()))?;
        let task = as_u64("task")?;
        let attempt = as_u64("attempt")?;
        let attempt = u32::try_from(attempt)
            .map_err(|_| TransportError::Malformed(format!("attempt {attempt} out of range")))?;
        let checksum = match field("checksum")? {
            Json::Int(c) => *c as u64,
            other => {
                return Err(TransportError::Malformed(format!(
                    "checksum must be an integer, found {}",
                    other.type_name()
                )))
            }
        };
        let body = newline + 1;
        let computed = Self::checksum_of(job, phase, kind, task, attempt, &text[body..]);
        if computed != checksum {
            return Err(TransportError::ChecksumMismatch {
                stored: checksum,
                computed,
            });
        }
        let envelope = Self {
            job,
            phase,
            kind,
            task,
            attempt,
            checksum,
            payload: String::new(),
        };
        Ok((envelope, body))
    }
}

/// How envelopes cross from driver to worker (and back). `leg` identifies
/// the crossing within one attempt: `0` = task dispatch, `1` = result
/// return — the wire-corruption stream draws independently per leg.
pub trait Transport: Sync {
    /// Delivers one envelope, returning it as the far side sees it.
    fn deliver(&self, envelope: &TaskEnvelope, leg: u32) -> Result<TaskEnvelope, TransportError>;

    /// Which implementation this is.
    fn kind(&self) -> TransportKind;
}

/// Pass-through transport: no serialization, no loss. The reference
/// implementation the channel transport must agree with bitwise.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectTransport;

impl Transport for DirectTransport {
    fn deliver(&self, envelope: &TaskEnvelope, _leg: u32) -> Result<TaskEnvelope, TransportError> {
        Ok(envelope.clone())
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Direct
    }
}

/// In-process channel transport: every delivery frames the envelope,
/// optionally damages the bytes per the [`FaultPlan`] wire stream, pushes
/// them through an `mpsc` channel hop, and verifies the checksum on the
/// receiving side before handing the payload on.
#[derive(Debug, Clone, Copy)]
pub struct ChannelTransport {
    plan: FaultPlan,
}

impl ChannelTransport {
    /// A channel transport injecting wire corruption from `plan` (use
    /// [`FaultPlan::none`] for a loss-free channel).
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    /// Applies one wire mutation to serialized envelope bytes.
    fn damage(text: String, kind: CorruptionKind) -> String {
        let mut bytes = text.into_bytes();
        match kind {
            CorruptionKind::BitFlip => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
            }
            // Stale-version corruption has no meaning on the wire;
            // envelopes carry no format version. Model it as a torn frame.
            CorruptionKind::Truncate | CorruptionKind::StaleVersion => {
                bytes.truncate(bytes.len() / 2);
            }
        }
        // The mutation may have broken UTF-8; replace invalid sequences
        // (the parser rejects the replacement character anyway).
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl Transport for ChannelTransport {
    fn deliver(&self, envelope: &TaskEnvelope, leg: u32) -> Result<TaskEnvelope, TransportError> {
        let mut text = envelope.encode();
        if let Some(kind) =
            self.plan
                .wire_corruption(envelope.job, envelope.task, envelope.attempt, leg)
        {
            text = Self::damage(text, kind);
        }
        // The channel hop: only bytes cross. A socket transport would
        // replace these two lines with a write + read.
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        tx.send(text).expect("receiver alive in scope");
        let mut received = rx.recv().expect("sender alive in scope");
        m2td_obs::counter_add("xport.envelopes", 1);
        m2td_obs::counter_add("xport.bytes", received.len() as u64);
        let (mut delivered, body) = TaskEnvelope::open(&received).inspect_err(|_| {
            m2td_obs::counter_add("xport.corrupt_dropped", 1);
        })?;
        // Cut the verified payload out of the received frame in place
        // rather than copying it into a second buffer.
        received.drain(..body);
        delivered.payload = received;
        Ok(delivered)
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope() -> TaskEnvelope {
        TaskEnvelope::new(
            3,
            2,
            TaskKind::Reduce,
            17,
            1,
            "[[0,4,1.5],[1,9,-0.25]]".to_string(),
        )
    }

    #[test]
    fn envelope_round_trips_bitwise() {
        let env = envelope();
        let back = TaskEnvelope::decode(&env.encode()).unwrap();
        assert_eq!(back, env);
        // Payload floats survive textually (bitwise by the m2td-json
        // float contract).
        assert_eq!(back.payload, env.payload);
    }

    #[test]
    fn every_field_is_covered_by_the_checksum() {
        let env = envelope();
        let text = env.encode();
        // Flip one character in each field region and require detection.
        for (needle, replacement) in [
            ("\"job\":3", "\"job\":5"),
            ("\"phase\":2", "\"phase\":1"),
            ("\"kind\":\"reduce\"", "\"kind\":\"map\""),
            ("\"task\":17", "\"task\":16"),
            ("\"attempt\":1", "\"attempt\":2"),
            ("1.5", "1.25"),
        ] {
            let tampered = text.replacen(needle, replacement, 1);
            assert_ne!(tampered, text, "needle {needle:?} not found");
            assert!(
                matches!(
                    TaskEnvelope::decode(&tampered),
                    Err(TransportError::ChecksumMismatch { .. })
                ),
                "tampering {needle:?} went undetected"
            );
        }
    }

    #[test]
    fn malformed_envelopes_are_rejected() {
        for bad in ["", "{", "[1,2]", "{\"job\":1}", "not json at all"] {
            assert!(
                matches!(TaskEnvelope::decode(bad), Err(TransportError::Malformed(_))),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn frame_is_a_header_line_then_the_raw_payload() {
        let env = envelope();
        let frame = env.encode();
        let (header, payload) = frame.split_once('\n').unwrap();
        assert_eq!(
            header,
            format!(
                r#"{{"job":3,"phase":2,"kind":"reduce","task":17,"attempt":1,"checksum":{}}}"#,
                env.checksum as i64
            )
        );
        assert_eq!(payload, env.payload);
        // The header must end early: a newline past MAX_HEADER_BYTES is
        // not looked for, even when the text before it would parse.
        let padded = format!("{}{frame}", " ".repeat(MAX_HEADER_BYTES));
        assert!(matches!(
            TaskEnvelope::decode(&padded),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn every_bit_flip_and_truncation_is_rejected() {
        // Escapes, a raw newline and multi-byte UTF-8 in the payload, so
        // the sweep damages every kind of byte a frame holds.
        let env = TaskEnvelope::new(
            9,
            3,
            TaskKind::Map,
            4,
            2,
            "[[\"é\\n\",-0.5],\n{\"k\":[1e-3,\"日\"]}]".to_string(),
        );
        let frame = env.encode().into_bytes();
        for at in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[at] ^= 0x01;
            for (what, damaged) in [("flip", &flipped[..]), ("truncation", &frame[..at])] {
                // No byte of a frame is slack: a damaged frame never
                // decodes, neither to another envelope nor to this one.
                let decoded = TaskEnvelope::decode(&String::from_utf8_lossy(damaged));
                assert!(decoded.is_err(), "{what} at byte {at} decoded: {decoded:?}");
            }
        }
    }

    #[test]
    fn payload_is_verified_without_being_parsed() {
        // Not JSON: raw newlines, an open brace, a lone backslash, NUL.
        let raw = "not json {\n\"\\ \u{0}é\n".to_string();
        let env = TaskEnvelope::new(1, 1, TaskKind::Simulation, 0, 0, raw.clone());
        assert_eq!(TaskEnvelope::decode(&env.encode()).unwrap(), env);
        let delivered = ChannelTransport::new(FaultPlan::none())
            .deliver(&env, 1)
            .unwrap();
        assert_eq!(delivered.payload.as_bytes(), raw.as_bytes());
        // Damage to such a payload fails the checksum, not a parse.
        let mut frame = env.encode();
        frame.push('x');
        assert!(matches!(
            TaskEnvelope::decode(&frame),
            Err(TransportError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn clean_channel_agrees_with_direct() {
        let env = envelope();
        let direct = DirectTransport.deliver(&env, 0).unwrap();
        let channel = ChannelTransport::new(FaultPlan::none())
            .deliver(&env, 0)
            .unwrap();
        assert_eq!(direct, channel);
        assert_eq!(DirectTransport.kind(), TransportKind::Direct);
        assert_eq!(
            ChannelTransport::new(FaultPlan::none()).kind(),
            TransportKind::Channel
        );
    }

    #[test]
    fn wire_corruption_is_always_detected_never_passed_through() {
        let plan = FaultPlan {
            seed: 23,
            ..FaultPlan::none().with_xport_corrupt_rate(1.0)
        };
        let transport = ChannelTransport::new(plan);
        let mut rejected = 0;
        for task in 0..50u64 {
            let env = TaskEnvelope::new(1, 1, TaskKind::Map, task, 0, format!("[[{task},0,0.5]]"));
            match transport.deliver(&env, 0) {
                Err(_) => rejected += 1,
                Ok(received) => assert_eq!(received, env, "damaged envelope accepted"),
            }
        }
        assert_eq!(rejected, 50, "rate-1 wire stream must reject everything");
    }

    #[test]
    fn transport_kind_parses_and_reads_env() {
        assert_eq!("direct".parse::<TransportKind>(), Ok(TransportKind::Direct));
        assert_eq!(
            "channel".parse::<TransportKind>(),
            Ok(TransportKind::Channel)
        );
        assert!("tcp".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::Channel.to_string(), "channel");
    }

    #[test]
    fn both_damage_kinds_fail_decode() {
        let env = envelope();
        for kind in [CorruptionKind::BitFlip, CorruptionKind::Truncate] {
            let damaged = ChannelTransport::damage(env.encode(), kind);
            assert!(
                TaskEnvelope::decode(&damaged).is_err(),
                "{kind} survived decode"
            );
        }
    }
}
