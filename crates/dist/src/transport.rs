//! Transport: how tasks and sub-tensor shards cross the boundary between
//! the D-M2TD driver and its workers.
//!
//! Everything that crosses a transport is a [`TaskEnvelope`]: the task
//! identity (job, phase, kind, task id, attempt) plus an opaque payload of
//! bytes, sealed with the FNV-1a-64 checksum every durable record of
//! `m2td_guard::integrity` uses. On the wire an envelope is one frame:
//!
//! ```text
//! {"job":3,"phase":2,"kind":"reduce","task":17,"attempt":1,"checksum":1447188547863556484}
//! <payload bytes>
//! ```
//!
//! a compact `m2td-json` header line, a `\n`, then the raw payload bytes,
//! which the transport never looks inside. Compact JSON holds no raw
//! newline, so the first `\n` always ends the header. The engine fills the
//! payload with the fixed-layout little-endian codec of [`crate::wire`].
//! The checksum covers the *whole* envelope (identity and payload), so a
//! bit-flip or truncation anywhere in flight is detected on receive,
//! counted in `xport.corrupt_dropped`, and surfaces as a
//! [`TransportError`] the scheduler retries. Decoding verifies before it
//! decodes: only the short header is parsed, and the checksum is checked
//! over the raw payload slice before any payload byte is decoded —
//! corrupt bytes are never deserialized into the pipeline.
//!
//! [`ChannelTransport`] frames every envelope, pushes the bytes through
//! an in-process `std::sync::mpsc` channel hop, optionally injects
//! deterministic wire corruption from the [`FaultPlan`] wire stream, and
//! verifies the frame on the far side. Under [`TransportKind::Direct`] no
//! envelope exists at all: the engine calls its tasks on borrowed inputs.
//!
//! The channel is deliberately shaped like a future socket/process
//! transport: nothing crosses it except bytes, so swapping the hop for a
//! TCP stream changes no caller.
//!
//! Payload and frame buffers are recycled: [`spare_buffer`] hands out a
//! buffer an earlier delivery gave back through [`recycle`]. A job's
//! payloads run to megabytes, and the allocator maps and page-faults in
//! a fresh buffer of that size on every use: about 2,500 page faults a
//! `dist_channel` job, whose latency then follows the host's page-fault
//! cost.

use m2td_fault::{CorruptionKind, FaultPlan, TaskKind};
use m2td_guard::integrity::fnv1a64;
use m2td_json::{Json, ToJson};
use std::fmt;
use std::sync::Mutex;

/// Buffers [`recycle`] keeps for [`spare_buffer`]: enough for every
/// buffer two workers hold at once (a payload and its frame each).
const SPARE_BUFFERS: usize = 4;

/// Largest buffer capacity [`recycle`] keeps, so one job's outsized
/// payloads do not stay resident after it.
const MAX_SPARE_CAPACITY: usize = 16 << 20;

static SPARES: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// An empty byte buffer, with the capacity of one given back earlier if
/// there is one.
pub(crate) fn spare_buffer() -> Vec<u8> {
    SPARES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .pop()
        .unwrap_or_default()
}

/// Gives `buffer` back for a later [`spare_buffer`] call, unless enough
/// are kept already or it is too large to keep.
pub(crate) fn recycle(mut buffer: Vec<u8>) {
    if buffer.capacity() == 0 || buffer.capacity() > MAX_SPARE_CAPACITY {
        return;
    }
    buffer.clear();
    let mut spares = SPARES.lock().unwrap_or_else(|e| e.into_inner());
    if spares.len() < SPARE_BUFFERS {
        spares.push(buffer);
    }
}

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
/// opaque payload of bytes, sealed under an FNV-1a-64 checksum.
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
    /// [`TaskEnvelope::decode`] recomputes it before returning the payload.
    pub checksum: u64,
    /// The task input or output in its [`crate::wire`] form.
    pub payload: Vec<u8>,
}

impl TaskEnvelope {
    /// Seals a new envelope around `payload`.
    pub fn new(
        job: u64,
        phase: u8,
        kind: TaskKind,
        task: u64,
        attempt: u32,
        payload: Vec<u8>,
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
        payload: &[u8],
    ) -> u64 {
        let header = format!("{job}/{phase}/{kind}/{task}/{attempt}/");
        fnv1a64(&[header.as_bytes(), payload])
    }

    /// Serializes the envelope into its wire frame (the only form that
    /// ever crosses a transport): the compact JSON header
    /// `{job,phase,kind,task,attempt,checksum}`, a `\n`, then the payload
    /// bytes verbatim.
    pub fn encode(&self) -> Vec<u8> {
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
        let mut frame = spare_buffer();
        frame.reserve(header.len() + 1 + self.payload.len());
        frame.extend_from_slice(header.as_bytes());
        frame.push(b'\n');
        frame.extend_from_slice(&self.payload);
        frame
    }

    /// Parses and *verifies* a received frame. Malformed frames and
    /// checksum mismatches are rejected — the caller retries the attempt,
    /// it never sees the damaged payload.
    pub fn decode(frame: &[u8]) -> Result<Self, TransportError> {
        let (mut envelope, body) = Self::open(frame)?;
        envelope.payload = frame[body..].to_vec();
        Ok(envelope)
    }

    /// Verifies a frame without reading its payload: parses the header
    /// line, then checks the checksum over the header fields and the raw
    /// payload bytes. Returns the envelope with an empty `payload` and the
    /// byte offset where the verified payload starts.
    fn open(frame: &[u8]) -> Result<(Self, usize), TransportError> {
        let newline = frame
            .iter()
            .take(MAX_HEADER_BYTES)
            .position(|&b| b == b'\n')
            .ok_or_else(|| TransportError::Malformed("no header line".to_string()))?;
        let header = std::str::from_utf8(&frame[..newline])
            .map_err(|e| TransportError::Malformed(format!("header is not UTF-8: {e}")))?;
        let doc = Json::parse(header)
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
        let computed = Self::checksum_of(job, phase, kind, task, attempt, &frame[body..]);
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
            payload: Vec::new(),
        };
        Ok((envelope, body))
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

    /// Applies one wire mutation to a frame's bytes.
    fn damage(bytes: &mut Vec<u8>, kind: CorruptionKind) {
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
    }

    /// Delivers one envelope, returning it as the far side sees it. `leg`
    /// identifies the crossing within one attempt: `0` = task dispatch,
    /// `1` = result return — the wire-corruption stream draws
    /// independently per leg.
    pub fn deliver(
        &self,
        envelope: &TaskEnvelope,
        leg: u32,
    ) -> Result<TaskEnvelope, TransportError> {
        let mut frame = envelope.encode();
        if let Some(kind) =
            self.plan
                .wire_corruption(envelope.job, envelope.task, envelope.attempt, leg)
        {
            Self::damage(&mut frame, kind);
        }
        // The channel hop: only bytes cross. A socket transport would
        // replace these two lines with a write + read.
        let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        tx.send(frame).expect("receiver alive in scope");
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    /// Two `(partition, value)` cells in their wire form.
    fn payload() -> Vec<u8> {
        wire::encode(&vec![(4u64, 1.5f64), (9, -0.25)])
    }

    fn envelope() -> TaskEnvelope {
        TaskEnvelope::new(3, 2, TaskKind::Reduce, 17, 1, payload())
    }

    /// `frame` with its first `needle` replaced by `replacement`.
    fn replaced(frame: &[u8], needle: &[u8], replacement: &[u8]) -> Vec<u8> {
        let at = frame
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap_or_else(|| panic!("needle {needle:?} not found"));
        [&frame[..at], replacement, &frame[at + needle.len()..]].concat()
    }

    #[test]
    fn envelope_round_trips_bitwise() {
        let env = envelope();
        let back = TaskEnvelope::decode(&env.encode()).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.payload, payload());
    }

    #[test]
    fn every_field_is_covered_by_the_checksum() {
        let env = envelope();
        let frame = env.encode();
        // Change each field of the header, and one payload byte, and
        // require detection.
        let half = 1.5f64.to_le_bytes();
        let quarter = 1.25f64.to_le_bytes();
        for (needle, replacement) in [
            (&b"\"job\":3"[..], &b"\"job\":5"[..]),
            (b"\"phase\":2", b"\"phase\":1"),
            (b"\"kind\":\"reduce\"", b"\"kind\":\"map\""),
            (b"\"task\":17", b"\"task\":16"),
            (b"\"attempt\":1", b"\"attempt\":2"),
            (&half, &quarter),
        ] {
            assert!(
                matches!(
                    TaskEnvelope::decode(&replaced(&frame, needle, replacement)),
                    Err(TransportError::ChecksumMismatch { .. })
                ),
                "tampering {needle:?} went undetected"
            );
        }
    }

    #[test]
    fn malformed_envelopes_are_rejected() {
        for bad in [
            &b""[..],
            b"{",
            b"[1,2]",
            b"{\"job\":1}",
            b"not json at all",
            b"\xff\n",
        ] {
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
        let newline = frame.iter().position(|&b| b == b'\n').unwrap();
        assert_eq!(
            std::str::from_utf8(&frame[..newline]).unwrap(),
            format!(
                r#"{{"job":3,"phase":2,"kind":"reduce","task":17,"attempt":1,"checksum":{}}}"#,
                env.checksum as i64
            )
        );
        assert_eq!(frame[newline + 1..], env.payload);
        // The header must end early: a newline past MAX_HEADER_BYTES is
        // not looked for, even when the text before it would parse.
        let padded = [&[b' '; MAX_HEADER_BYTES][..], &frame].concat();
        assert!(matches!(
            TaskEnvelope::decode(&padded),
            Err(TransportError::Malformed(_))
        ));
    }

    #[test]
    fn every_bit_flip_and_truncation_is_rejected() {
        // Newlines, NUL, 0xff and invalid UTF-8 in the payload, so the
        // sweep damages every kind of byte a frame holds.
        let raw = b"\n\x00\xff\xc3\x28{\n\"\\".to_vec();
        let env = TaskEnvelope::new(9, 3, TaskKind::Map, 4, 2, raw);
        let frame = env.encode();
        for at in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[at] ^= 0x01;
            for (what, damaged) in [("flip", &flipped[..]), ("truncation", &frame[..at])] {
                // No byte of a frame is slack: a damaged frame never
                // decodes, neither to another envelope nor to this one.
                let decoded = TaskEnvelope::decode(damaged);
                assert!(decoded.is_err(), "{what} at byte {at} decoded: {decoded:?}");
            }
        }
    }

    #[test]
    fn payload_is_verified_without_being_decoded() {
        // No wire value: it claims 2^64 - 1 elements.
        let raw = vec![0xff; 8];
        let env = TaskEnvelope::new(1, 1, TaskKind::Simulation, 0, 0, raw.clone());
        assert_eq!(TaskEnvelope::decode(&env.encode()).unwrap(), env);
        let delivered = ChannelTransport::new(FaultPlan::none())
            .deliver(&env, 1)
            .unwrap();
        assert_eq!(delivered.payload, raw);
        // Damage to such a payload fails the checksum, not a decode.
        let mut frame = env.encode();
        frame.push(b'x');
        assert!(matches!(
            TaskEnvelope::decode(&frame),
            Err(TransportError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn values_json_could_not_carry_cross_bit_for_bit() {
        // A NaN with a payload, ±inf, −0.0, a subnormal, and u64s at and
        // above 2^63.
        let cells: Vec<(u64, f64)> = vec![
            (1 << 63, f64::from_bits(0x7ff4_0000_0000_beef)),
            (u64::MAX, f64::INFINITY),
            (0, f64::NEG_INFINITY),
            (1, -0.0),
            (2, f64::from_bits(3)),
        ];
        let env = TaskEnvelope::new(3, 3, TaskKind::Reduce, 0, 0, wire::encode(&cells));
        let delivered = ChannelTransport::new(FaultPlan::none())
            .deliver(&env, 0)
            .unwrap();
        let back: Vec<(u64, f64)> = wire::decode(&delivered.payload).unwrap();
        let bits = |c: &[(u64, f64)]| c.iter().map(|&(k, v)| (k, v.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&cells));
    }

    #[test]
    fn clean_channel_delivers_the_envelope_unchanged() {
        let env = envelope();
        let channel = ChannelTransport::new(FaultPlan::none());
        for leg in [0, 1] {
            assert_eq!(channel.deliver(&env, leg).unwrap(), env);
        }
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
            let cells = wire::encode(&vec![(task, 0.5f64)]);
            let env = TaskEnvelope::new(1, 1, TaskKind::Map, task, 0, cells);
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
            let mut frame = env.encode();
            ChannelTransport::damage(&mut frame, kind);
            assert!(
                TaskEnvelope::decode(&frame).is_err(),
                "{kind} survived decode"
            );
        }
    }
}
