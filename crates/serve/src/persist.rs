//! Durable per-shard cache state: a segmented write-ahead log whose
//! checkpoints are frames in the log itself, fsynced once per commit
//! point.
//!
//! The paper's whole argument is that a cache hit means the clip
//! survives disconnection — which is only true if the cache itself
//! survives a crash. This module makes a shard's state durable with the
//! classic checkpoint + WAL pairing, both inside one log:
//!
//! * **Records** — one per access, kept as fixed-size numbered
//!   **segments** (`wal.000001.log`, `wal.000002.log`, …). Each record is
//!   length-prefixed and CRC-framed ([`crc32`] over the length *and*
//!   payload, so a corrupted length cannot masquerade as a valid
//!   frame). Recovery replays them through the shard's zero-alloc
//!   `access_into` path.
//! * **Checkpoint frames** — a [`DurableCheckpoint`] (the shard's
//!   [`CacheSnapshot`], its [`HitStats`] and the sequence number of the
//!   last record before it, serialized through the workspace's
//!   `workload::json` codec) appended to the active segment like a
//!   record: [`CHECKPOINT_MARK`] in the length field, then the payload
//!   length, a CRC over mark ‖ length ‖ payload, and the payload. A
//!   checkpoint therefore shares the fsync of the commit point that
//!   covers it, like any record; nothing is renamed or truncated.
//!
//! ## Segments
//!
//! Every segment starts with a 24-byte header (magic, [`WAL_VERSION`],
//! its own segment number — so a renamed file or a version-skewed log
//! is refused by name, never reinterpreted). Exactly one segment is
//! *active* (appended to); once an append takes it to `--segment-bytes`
//! it is **sealed** — a [`SEAL_MARK`] footer naming the last sequence
//! number and a CRC over *every* byte of the segment is fsynced onto the
//! end — and a fresh successor segment is created. Sealed segments are
//! immutable and fully durable; a single flipped bit anywhere in one
//! fails the footer CRC loudly.
//!
//! A checkpoint frame in the active segment subsumes every sealed
//! segment before it. Once an fsync covers that frame the sealed
//! segments are unlinked, oldest first — at most once per segment roll,
//! since later checkpoints in the same segment find nothing sealed left.
//! The active segment itself is never truncated: it keeps its records
//! and checkpoint frames until it is sealed and subsumed in turn. So
//! disk usage and recovery's decode work are bounded by one segment
//! plus at most one sealed predecessor, and records replayed by
//! `--checkpoint-every`, no matter how long the shard runs.
//!
//! ## Loop-level commit
//!
//! With `--wal-sync always` an append writes and flushes its frame to
//! the operating system but does not fsync it: it marks the store
//! *unsynced*, and so does a checkpoint frame. [`ShardStore::sync`] then
//! fsyncs the active segment once, covering every record and checkpoint
//! appended since the last sync, and unlinks whatever sealed segments a
//! covered checkpoint subsumed. The caller picks the commit point: the
//! epoll server calls it once per event-loop turn, after executing every
//! ready request and before writing any of their replies, so pipelined
//! and concurrent requests — and the checkpoints among them — share one
//! fsync without anyone waiting between appends. In-process callers
//! call it before they count a request as acknowledged. A seal or a
//! crash-point fsync also leaves the store synced, since each of those
//! fsyncs the records too. Acked ⇒ durable is unchanged: where the
//! fsync happens moves, never which bytes reach the disk.
//! [`ShardStore::syncs`] counts every fsync the store issues after
//! open, whatever issued it.
//!
//! ## The recovery contract
//!
//! [`ShardStore::open`] decodes the segments oldest-to-newest, restores
//! from the newest complete checkpoint frame, and hands back only the
//! records after it for replay. Records (and whole sealed segments)
//! before that frame are the normal case — the checkpoint already folds
//! them in, and they wait for the next covered checkpoint to unlink
//! them — so they are skipped, never replayed twice, and never rewritten
//! on open. Recovery tolerates exactly the artifacts a crash can leave
//! and refuses everything else:
//!
//! * a **torn tail** — the newest segment ends mid-frame (mid-record,
//!   mid-checkpoint, mid-footer, or even mid-header), the signature of a
//!   crash during a write. The partial bytes are truncated away and
//!   recovery proceeds from the last complete frame; a torn checkpoint
//!   frame leaves the previous checkpoint in charge. The dropped byte
//!   count is reported, never hidden.
//! * a **sealed newest segment** — a crash in the roll window, after
//!   the seal fsync but before the successor segment was created.
//!   Recovery opens a fresh successor; nothing was lost.
//! * **corruption** — a complete frame whose CRC fails or whose length
//!   prefix is neither the fixed record layout nor a checkpoint mark
//!   with a payload length within [`MAX_CHECKPOINT_BYTES`], a sequence
//!   break (records are contiguous across checkpoint frames, and the
//!   newest checkpoint's `seq` must be that of the record just before
//!   it), a failed seal-footer CRC, a gap in the segment numbering, or a
//!   file of an older layout — the single-file `wal.log`, or the
//!   `checkpoint.json`/`checkpoint.tmp` pair that version-2 logs kept
//!   beside their segments. That is bit rot, foul play or version skew,
//!   not a crash artifact, and recovery refuses loudly
//!   ([`PersistError::Corrupt`]) rather than replaying garbage. A
//!   checkpoint length that runs past the end of the file is a torn
//!   write unless clearing one of its bits yields a complete frame
//!   whose CRC holds, so a single flipped length bit is loud too; only
//!   a multi-bit corruption of the *newest* checkpoint frame's length
//!   can still read as a torn tail.
//!
//! Recovery is deterministic: the same on-disk bytes produce the same
//! rebuilt shard, bit for bit, on every attempt — the crash-kill chaos
//! suite (`tests/crash_recovery.rs`) pins this by recovering twice from
//! copies of the same directory.
//!
//! ## Deterministic crash points
//!
//! A [`CrashSpec`] arms the store with a *crash point* — die after the
//! Nth WAL append, write only half of the Nth append (a torn write),
//! write only half of the Nth checkpoint frame (`checkpoint:N`, with no
//! fsync), write only half of the Nth seal footer (`seal:N`), or die
//! after the Nth seal lands but before the successor segment exists
//! (`segment-roll:N`). The store performs the partial effect, then
//! reports [`PersistError::CrashInjected`]; the service maps that to
//! `process::exit(137)` in the binaries (`--crash-at`) or surfaces it to
//! an in-process harness. Crash points count operations performed
//! *after* recovery, so a crash-restart loop steps deterministically
//! through the log.

use clipcache_core::snapshot::CacheSnapshot;
use clipcache_media::{ByteSize, ClipId};
use clipcache_sim::metrics::HitStats;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// The single-file WAL name used before the log was segmented. Found
/// on disk it is refused by name — this build neither reads nor
/// silently migrates the old layout.
pub const LEGACY_WAL_FILE: &str = "wal.log";
/// The checkpoint file, and the scratch name it was written under,
/// that version-2 logs kept beside their segments. Found on disk they
/// are refused by name: this build keeps checkpoints as frames inside
/// the log and would otherwise ignore the state they hold.
const LEGACY_CHECKPOINT_FILES: [&str; 2] = ["checkpoint.json", "checkpoint.tmp"];

/// The durable-checkpoint schema version this build writes and reads.
/// Version 2 added chunk-granular residency: the embedded snapshot
/// carries partial prefixes and the stats carry `prefix_hits`.
pub const CHECKPOINT_VERSION: u64 = 2;

/// The WAL layout version this build writes and replays. Version 2
/// added the chunk field (17-byte payloads); version 3 moved
/// checkpoints from a side file into the log as checkpoint frames.
/// Other versions are rejected by name, never reinterpreted. Every
/// segment header carries this version, and peers compare it over the
/// wire (`VERSION`/`KIND_HELLO`) before cooperating.
pub const WAL_VERSION: u64 = 3;

/// Magic bytes opening every WAL segment header.
pub const SEGMENT_MAGIC: [u8; 8] = *b"CLIPWAL\0";
/// Bytes in a segment header: magic (8) + version (8) + segment no (8).
pub const SEGMENT_HEADER_BYTES: usize = 24;
/// Bytes in a seal footer: mark (4) + last seq (8) + CRC (4).
pub const SEGMENT_FOOTER_BYTES: usize = 16;
/// The length-field value that marks a seal footer instead of a record.
/// Record frames always declare the one fixed payload length, so the
/// mark can never be confused with a valid frame.
pub const SEAL_MARK: u32 = 0xFFFF_FFFF;
/// The length-field value that marks a checkpoint frame:
/// `mark ‖ payload length ‖ crc ‖ payload`, the CRC over mark ‖ length
/// ‖ payload. It is two bits away from [`SEAL_MARK`] and far from the
/// record length, so no single flipped bit turns one kind of frame
/// into another.
pub const CHECKPOINT_MARK: u32 = 0xFFFF_FFFC;
/// Bytes in a checkpoint frame before its payload: mark (4) + payload
/// length (4) + CRC (4).
pub const CHECKPOINT_HEADER_BYTES: usize = 12;
/// The largest checkpoint payload a frame may declare. A larger length
/// field is corruption, so a flipped high bit is loud instead of
/// reading as a frame that runs past the end of the file.
pub const MAX_CHECKPOINT_BYTES: usize = 1 << 28;
/// Default segment-roll threshold (`--segment-bytes`).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Bytes in one record's payload: seq (8) + clip (4) + chunk (4) + op (1).
/// Version 1 of the log had no chunk field (13-byte payloads); those
/// records are rejected by name, never reinterpreted.
const RECORD_PAYLOAD_BYTES: usize = 17;
/// The version-1 payload layout (seq + clip + op, no chunk), kept only
/// so the rejection message can name what it found.
const V1_RECORD_PAYLOAD_BYTES: usize = 13;
/// Bytes in one record's frame header: length (4) + CRC (4).
const FRAME_HEADER_BYTES: usize = 8;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `bytes` — the same
/// polynomial zlib and ethernet use, hand-rolled because the offline
/// build vendors no checksum crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The byte-at-a-time lookup table behind [`Crc32`]: entry `i` is the
/// register after eight rounds of the bitwise algorithm on byte `i`,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut round = 0;
        while round < 8 {
            let mask = (c & 1).wrapping_neg();
            c = (c >> 1) ^ (0xEDB8_8320 & mask);
            round += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Streaming CRC-32, so frames can be checked without copying the
/// length prefix and payload into one buffer, and the active segment
/// can keep a running digest for its eventual seal footer.
#[derive(Clone)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = CRC_TABLE[((self.0 ^ b as u32) & 0xFF) as usize] ^ (self.0 >> 8);
        }
    }

    fn finish(self) -> u32 {
        !self.0
    }
}

/// The file name of WAL segment `no` (1-based): `wal.000001.log`, …
pub fn segment_file_name(no: u64) -> String {
    format!("wal.{no:06}.log")
}

/// Parse a segment number back out of a `wal.NNNNNN.log` file name.
fn parse_segment_no(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal.")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The 24-byte header opening segment `no`: magic, [`WAL_VERSION`],
/// and the segment's own number (so a renamed or copied file is loud).
pub fn segment_header(no: u64) -> [u8; SEGMENT_HEADER_BYTES] {
    let mut h = [0u8; SEGMENT_HEADER_BYTES];
    h[..8].copy_from_slice(&SEGMENT_MAGIC);
    h[8..16].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[16..24].copy_from_slice(&no.to_le_bytes());
    h
}

/// The 16-byte seal footer for a segment whose on-disk bytes (header
/// plus frames) are `segment`: `SEAL_MARK ‖ last_seq ‖ crc`, with the
/// CRC taken over every preceding byte *including* the mark and seq —
/// one flipped bit anywhere in a sealed segment fails the check.
pub fn seal_footer(segment: &[u8], last_seq: u64) -> [u8; SEGMENT_FOOTER_BYTES] {
    let mut f = [0u8; SEGMENT_FOOTER_BYTES];
    f[..4].copy_from_slice(&SEAL_MARK.to_le_bytes());
    f[4..12].copy_from_slice(&last_seq.to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(segment);
    crc.update(&f[..12]);
    f[12..].copy_from_slice(&crc.finish().to_le_bytes());
    f
}

/// What a logged access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalOp {
    /// A counted request (`Shard::get`): replay records hit statistics.
    Get,
    /// An uncounted warm-up (`Shard::admit`): replay touches the cache
    /// but not the statistics.
    Admit,
    /// A chunk-granular residency probe (`Shard::get_range`): the
    /// record's `chunk` field is meaningful; replay is a state no-op.
    GetRange,
}

impl WalOp {
    fn to_byte(self) -> u8 {
        match self {
            WalOp::Get => 0,
            WalOp::Admit => 1,
            WalOp::GetRange => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, String> {
        match b {
            0 => Ok(WalOp::Get),
            1 => Ok(WalOp::Admit),
            2 => Ok(WalOp::GetRange),
            other => Err(format!("unknown WAL op byte {other}")),
        }
    }
}

/// One logged access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WalRecord {
    /// Position in the shard's access stream (1-based, contiguous).
    pub seq: u64,
    /// The clip accessed.
    pub clip: ClipId,
    /// The probed chunk for [`WalOp::GetRange`]; 0 for whole-clip ops
    /// (and enforced 0 on decode, so a flipped bit is loud).
    pub chunk: u32,
    /// Whether the access was counted.
    pub op: WalOp,
}

impl WalRecord {
    /// Encode the record as one framed WAL entry:
    /// `len(4 LE) ‖ crc(4 LE) ‖ payload`, CRC over `len ‖ payload`.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = [0u8; RECORD_PAYLOAD_BYTES];
        payload[..8].copy_from_slice(&self.seq.to_le_bytes());
        payload[8..12].copy_from_slice(&self.clip.get().to_le_bytes());
        payload[12..16].copy_from_slice(&self.chunk.to_le_bytes());
        payload[16] = self.op.to_byte();
        let len = (RECORD_PAYLOAD_BYTES as u32).to_le_bytes();
        let mut crc = Crc32::new();
        crc.update(&len);
        crc.update(&payload);
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + RECORD_PAYLOAD_BYTES);
        frame.extend_from_slice(&len);
        frame.extend_from_slice(&crc.finish().to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }
}

/// Encode a checkpoint frame around `json` (a
/// [`DurableCheckpoint::to_json`] payload):
/// `CHECKPOINT_MARK(4 LE) ‖ len(4 LE) ‖ crc(4 LE) ‖ json`, CRC over
/// `mark ‖ len ‖ json`.
///
/// # Panics
/// If `json` is longer than [`MAX_CHECKPOINT_BYTES`].
pub fn checkpoint_frame(json: &str) -> Vec<u8> {
    assert!(
        json.len() <= MAX_CHECKPOINT_BYTES,
        "a {}-byte checkpoint exceeds the {MAX_CHECKPOINT_BYTES}-byte frame limit",
        json.len()
    );
    let mut frame = Vec::with_capacity(CHECKPOINT_HEADER_BYTES + json.len());
    frame.extend_from_slice(&CHECKPOINT_MARK.to_le_bytes());
    frame.extend_from_slice(&(json.len() as u32).to_le_bytes());
    frame.extend_from_slice(&checkpoint_crc(json.as_bytes()).to_le_bytes());
    frame.extend_from_slice(json.as_bytes());
    frame
}

/// The CRC a checkpoint frame stores: over mark ‖ length ‖ payload.
fn checkpoint_crc(payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&CHECKPOINT_MARK.to_le_bytes());
    crc.update(&(payload.len() as u32).to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// How [`decode_wal`] found the end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The log ends exactly on a frame boundary.
    Clean,
    /// The log ends mid-frame — a crash interrupted an append. The
    /// partial frame is not replayed; `valid_bytes` is where the log
    /// should be truncated and `dropped_bytes` what the truncation
    /// discards.
    Torn {
        /// Bytes of complete, valid frames.
        valid_bytes: u64,
        /// Trailing bytes of the incomplete frame.
        dropped_bytes: u64,
    },
}

/// One step of frame decoding at `pos`.
enum FrameStep {
    /// A complete, valid record; the second field is the next position.
    Record(WalRecord, usize),
    /// A complete checkpoint frame whose CRC holds: its payload's byte
    /// range, then the next position. Only the newest checkpoint in a
    /// log is ever parsed.
    Checkpoint(Range<usize>, usize),
    /// The bytes end mid-frame: a torn write, not corruption.
    Torn,
}

/// Decode the frame starting at `pos`, validating length, CRC and
/// payload invariants. Absolute offsets (including any segment header
/// before the frames) land in the error messages unchanged.
fn decode_frame(bytes: &[u8], pos: usize) -> Result<FrameStep, PersistError> {
    let remaining = bytes.len() - pos;
    if remaining < 4 {
        return Ok(FrameStep::Torn);
    }
    let len_bytes = &bytes[pos..pos + 4];
    let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes"));
    if len == CHECKPOINT_MARK {
        return decode_checkpoint_frame(bytes, pos);
    }
    let len = len as usize;
    // The length field is the first thing an append writes, so a torn
    // write can truncate it but never leave it complete-and-wrong.
    // Records are fixed-size, so a complete length that is not the
    // one layout is corruption — trusting it would let a flipped bit
    // masquerade the rest of the log as a "torn tail" and silently
    // truncate valid frames after it.
    if len == V1_RECORD_PAYLOAD_BYTES {
        // A version-1 log (13-byte payloads: seq + clip + op, no
        // chunk field). Reinterpreting it under the current layout
        // would shear every field, so refuse by name.
        return Err(PersistError::Corrupt {
            offset: pos as u64,
            reason: format!(
                "WAL record uses the version-1 {V1_RECORD_PAYLOAD_BYTES}-byte \
                 whole-clip layout; this build reads only the \
                 {RECORD_PAYLOAD_BYTES}-byte chunk-aware layout — delete the \
                 old data directory (or replay it with a version-1 build) \
                 instead of mixing formats"
            ),
        });
    }
    if len != RECORD_PAYLOAD_BYTES {
        return Err(PersistError::Corrupt {
            offset: pos as u64,
            reason: format!(
                "WAL record length {len} is not the fixed \
                 {RECORD_PAYLOAD_BYTES}-byte layout"
            ),
        });
    }
    if remaining < FRAME_HEADER_BYTES + len {
        // The frame promises more bytes than the file holds: an
        // append died mid-write.
        return Ok(FrameStep::Torn);
    }
    let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
    let payload = &bytes[pos + FRAME_HEADER_BYTES..pos + FRAME_HEADER_BYTES + len];
    let mut crc = Crc32::new();
    crc.update(len_bytes);
    crc.update(payload);
    if crc.finish() != stored_crc {
        return Err(PersistError::Corrupt {
            offset: pos as u64,
            reason: "WAL record CRC mismatch".into(),
        });
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let clip = u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes"));
    if clip == 0 {
        return Err(PersistError::Corrupt {
            offset: pos as u64,
            reason: "WAL record names clip id 0".into(),
        });
    }
    let chunk = u32::from_le_bytes(payload[12..16].try_into().expect("4 bytes"));
    let op = WalOp::from_byte(payload[16]).map_err(|reason| PersistError::Corrupt {
        offset: pos as u64,
        reason,
    })?;
    if op != WalOp::GetRange && chunk != 0 {
        return Err(PersistError::Corrupt {
            offset: pos as u64,
            reason: format!(
                "whole-clip WAL record carries nonzero chunk {chunk} (only \
                 GETRANGE records address chunks)"
            ),
        });
    }
    Ok(FrameStep::Record(
        WalRecord {
            seq,
            clip: ClipId::new(clip),
            chunk,
            op,
        },
        pos + FRAME_HEADER_BYTES + len,
    ))
}

/// Decode the checkpoint frame starting at `pos` (its mark already
/// read): bound the declared length, then check the CRC.
fn decode_checkpoint_frame(bytes: &[u8], pos: usize) -> Result<FrameStep, PersistError> {
    let remaining = bytes.len() - pos;
    if remaining < CHECKPOINT_HEADER_BYTES {
        return Ok(FrameStep::Torn);
    }
    let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes")) as usize;
    if len > MAX_CHECKPOINT_BYTES {
        return Err(PersistError::Corrupt {
            offset: pos as u64,
            reason: format!(
                "checkpoint frame declares {len} payload bytes, past the \
                 {MAX_CHECKPOINT_BYTES}-byte limit"
            ),
        });
    }
    let start = pos + CHECKPOINT_HEADER_BYTES;
    let stored_crc = u32::from_le_bytes(bytes[pos + 8..start].try_into().expect("4 bytes"));
    let body = &bytes[start..];
    if body.len() < len {
        // The frame runs past the end of the file: a torn write —
        // unless clearing one bit of the length yields a complete frame
        // whose CRC holds, which is a flipped bit hiding the valid
        // frames after it.
        let flipped = (0..32)
            .map(|bit| len & !(1 << bit))
            .any(|l| l < len && l <= body.len() && checkpoint_crc(&body[..l]) == stored_crc);
        if flipped {
            return Err(PersistError::Corrupt {
                offset: pos as u64,
                reason: "checkpoint frame length has a flipped bit".into(),
            });
        }
        return Ok(FrameStep::Torn);
    }
    if checkpoint_crc(&body[..len]) != stored_crc {
        return Err(PersistError::Corrupt {
            offset: pos as u64,
            reason: "checkpoint frame CRC mismatch".into(),
        });
    }
    Ok(FrameStep::Checkpoint(start..start + len, start + len))
}

/// Decode a bare WAL frame stream (no segment header) into records.
/// Checkpoint frames are validated and skipped.
///
/// An *incomplete* final frame (fewer bytes than its header or declared
/// length promises) is a torn tail: the complete prefix is returned with
/// [`WalTail::Torn`]. A frame whose (fully present) length prefix is not
/// the fixed record layout or a checkpoint mark, whose CRC fails, or
/// that breaks anything else is corruption and fails loudly — no record
/// after the first invalid byte is ever returned, no valid record frame
/// is ever silently discarded as a "torn tail", and no invalid record is
/// ever replayed.
pub fn decode_wal(bytes: &[u8]) -> Result<(Vec<WalRecord>, WalTail), PersistError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match decode_frame(bytes, pos)? {
            FrameStep::Record(record, next) => {
                records.push(record);
                pos = next;
            }
            FrameStep::Checkpoint(_, next) => pos = next,
            FrameStep::Torn => {
                return Ok((
                    records,
                    WalTail::Torn {
                        valid_bytes: pos as u64,
                        dropped_bytes: (bytes.len() - pos) as u64,
                    },
                ));
            }
        }
    }
    Ok((records, WalTail::Clean))
}

/// How [`decode_segment`] found the end of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentEnd {
    /// No seal footer: the segment is (or was) the active one. The tail
    /// says whether it ends on a frame boundary or mid-write; a torn
    /// tail with `valid_bytes` shorter than the header means even the
    /// header never finished (a crash during segment creation).
    Unsealed(WalTail),
    /// A valid seal footer: the segment is immutable and fully durable.
    Sealed {
        /// The sequence number the footer names as the segment's last.
        last_seq: u64,
    },
}

/// Everything recovery needs from one decoded segment.
struct SegmentFrames {
    records: Vec<WalRecord>,
    /// The segment's newest checkpoint frame: how many of `records`
    /// precede it, and its payload's byte range.
    checkpoint: Option<(usize, Range<usize>)>,
    end: SegmentEnd,
}

/// Decode one on-disk segment (header, frames, optional seal footer)
/// into its records and how it ends. Checkpoint frames are validated
/// and skipped.
///
/// `no` is the number the file name claims; the header must agree.
/// Torn artifacts (short header, mid-frame tail, partial footer) come
/// back as [`SegmentEnd::Unsealed`] with a torn tail for the caller to
/// truncate — only ever legitimate on the *newest* segment. Everything
/// else that fails validation is loud corruption, including a single
/// flipped bit anywhere in a sealed segment (the footer CRC covers
/// every byte).
pub fn decode_segment(bytes: &[u8], no: u64) -> Result<(Vec<WalRecord>, SegmentEnd), PersistError> {
    decode_segment_frames(bytes, no).map(|s| (s.records, s.end))
}

fn decode_segment_frames(bytes: &[u8], no: u64) -> Result<SegmentFrames, PersistError> {
    let mut frames = SegmentFrames {
        records: Vec::new(),
        checkpoint: None,
        end: SegmentEnd::Unsealed(WalTail::Clean),
    };
    if bytes.len() < SEGMENT_HEADER_BYTES {
        // The segment was created but its header never finished: a
        // crash artifact, only tolerable on the newest segment.
        frames.end = SegmentEnd::Unsealed(WalTail::Torn {
            valid_bytes: 0,
            dropped_bytes: bytes.len() as u64,
        });
        return Ok(frames);
    }
    if bytes[..8] != SEGMENT_MAGIC {
        return Err(PersistError::Corrupt {
            offset: 0,
            reason: "segment header magic mismatch (not a clipcache WAL segment)".into(),
        });
    }
    let version = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if version != WAL_VERSION {
        return Err(PersistError::Corrupt {
            offset: 8,
            reason: format!(
                "segment header names WAL version {version}; this build reads \
                 only version {WAL_VERSION} (which keeps checkpoints as frames \
                 in the log) — replay the log with the build that wrote it \
                 instead of mixing formats"
            ),
        });
    }
    let header_no = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    if header_no != no {
        return Err(PersistError::Corrupt {
            offset: 16,
            reason: format!(
                "segment header names segment {header_no} but the file is \
                 named {} — renamed or copied?",
                segment_file_name(no)
            ),
        });
    }
    let mut pos = SEGMENT_HEADER_BYTES;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(frames);
        }
        if remaining >= 4
            && u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) == SEAL_MARK
        {
            if remaining < SEGMENT_FOOTER_BYTES {
                // The seal itself tore: the frames before it are fine,
                // the segment simply stays unsealed.
                frames.end = SegmentEnd::Unsealed(WalTail::Torn {
                    valid_bytes: pos as u64,
                    dropped_bytes: remaining as u64,
                });
                return Ok(frames);
            }
            let last_seq = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8"));
            let stored = u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().expect("4"));
            if crc32(&bytes[..pos + 12]) != stored {
                return Err(PersistError::Corrupt {
                    offset: pos as u64,
                    reason: "sealed segment CRC mismatch (a bit flipped somewhere \
                             in the segment)"
                        .into(),
                });
            }
            match frames.records.last() {
                None => {
                    return Err(PersistError::Corrupt {
                        offset: pos as u64,
                        reason: "sealed segment holds no records".into(),
                    })
                }
                Some(r) if r.seq != last_seq => {
                    return Err(PersistError::Corrupt {
                        offset: pos as u64,
                        reason: format!(
                            "seal footer names last seq {last_seq} but the \
                             segment ends at seq {}",
                            r.seq
                        ),
                    })
                }
                Some(_) => {}
            }
            if remaining > SEGMENT_FOOTER_BYTES {
                return Err(PersistError::Corrupt {
                    offset: (pos + SEGMENT_FOOTER_BYTES) as u64,
                    reason: "bytes after the seal footer".into(),
                });
            }
            frames.end = SegmentEnd::Sealed { last_seq };
            return Ok(frames);
        }
        match decode_frame(bytes, pos)? {
            FrameStep::Record(record, next) => {
                frames.records.push(record);
                pos = next;
            }
            FrameStep::Checkpoint(payload, next) => {
                frames.checkpoint = Some((frames.records.len(), payload));
                pos = next;
            }
            FrameStep::Torn => {
                frames.end = SegmentEnd::Unsealed(WalTail::Torn {
                    valid_bytes: pos as u64,
                    dropped_bytes: remaining as u64,
                });
                return Ok(frames);
            }
        }
    }
}

/// When appends reach the platter.
///
/// Either way every append is flushed to the *operating system* before
/// the call returns, so the log survives a killed process (`kill -9`);
/// the difference is whether it also survives a power failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// `fsync` before a request is acknowledged: survives power loss.
    /// Appends only mark the store unsynced; one
    /// [`ShardStore::sync`] per commit point covers all of them.
    Always,
    /// Flush to the OS page cache only (the default): survives process
    /// death, trusts the kernel for power loss. Checkpoint frames and
    /// seal footers still fsync before the call that wrote them
    /// returns — one fsync each.
    #[default]
    Off,
}

impl WalSync {
    /// Parse a `--wal-sync` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "always" => Ok(WalSync::Always),
            "off" => Ok(WalSync::Off),
            other => Err(format!(
                "unknown --wal-sync '{other}' (expected always or off)"
            )),
        }
    }

    /// The canonical flag spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            WalSync::Always => "always",
            WalSync::Off => "off",
        }
    }
}

/// A deterministic crash point: where the process dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Die immediately after the Nth WAL append is durable (1-based).
    AfterAppend(u64),
    /// The Nth WAL append writes only half its frame, then the process
    /// dies — the canonical torn write.
    TornAppend(u64),
    /// The Nth checkpoint frame writes only half its bytes, with no
    /// fsync, then the process dies. Recovery truncates the torn frame
    /// and restores from the previous checkpoint.
    MidCheckpoint(u64),
    /// The Nth seal writes only half its footer, then the process dies.
    /// Recovery truncates the partial footer; the segment stays active.
    TornSeal(u64),
    /// Die after the Nth seal footer is durable but before the
    /// successor segment is created — a crash in the roll window.
    /// Recovery finds the newest segment sealed and opens a successor.
    SegmentRoll(u64),
}

/// A parsed `--crash-at` spec. Counters start at zero when the store is
/// armed (after recovery), so a crash-restart loop steps forward
/// deterministically instead of re-dying at the same byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrashSpec {
    /// Where to die.
    pub point: CrashPoint,
}

impl CrashSpec {
    /// Parse `append:N`, `torn:N`, `checkpoint:N`, `seal:N` or
    /// `segment-roll:N` (N ≥ 1).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, n) = spec
            .split_once(':')
            .ok_or_else(|| format!("crash spec '{spec}' is not kind:N"))?;
        let n: u64 = n
            .parse()
            .map_err(|_| format!("bad crash count '{n}' in '{spec}'"))?;
        if n == 0 {
            return Err("crash counts are 1-based; 0 never fires".into());
        }
        let point = match kind {
            "append" => CrashPoint::AfterAppend(n),
            "torn" => CrashPoint::TornAppend(n),
            "checkpoint" => CrashPoint::MidCheckpoint(n),
            "seal" => CrashPoint::TornSeal(n),
            "segment-roll" => CrashPoint::SegmentRoll(n),
            other => {
                return Err(format!(
                    "unknown crash point '{other}' (expected append, torn, \
                     checkpoint, seal or segment-roll)"
                ))
            }
        };
        Ok(CrashSpec { point })
    }

    /// The canonical spec spelling ([`parse`](Self::parse) inverts it).
    pub fn spelling(&self) -> String {
        match self.point {
            CrashPoint::AfterAppend(n) => format!("append:{n}"),
            CrashPoint::TornAppend(n) => format!("torn:{n}"),
            CrashPoint::MidCheckpoint(n) => format!("checkpoint:{n}"),
            CrashPoint::TornSeal(n) => format!("seal:{n}"),
            CrashPoint::SegmentRoll(n) => format!("segment-roll:{n}"),
        }
    }
}

/// What the service does when an armed crash point fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashAction {
    /// Exit the whole process with code 137 — the same observable as
    /// `kill -9`, for the binaries (`--crash-at`).
    ExitProcess,
    /// Surface [`ServiceError::Crashed`](crate::ServiceError::Crashed)
    /// to the caller, for in-process crash-restart harnesses.
    Surface,
}

/// Tuning knobs for the segmented WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalTuning {
    /// Roll to a fresh segment once the active one reaches this many
    /// bytes (`--segment-bytes`).
    pub segment_bytes: u64,
}

impl Default for WalTuning {
    fn default() -> Self {
        WalTuning {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// How a service persists its shards (`CacheService::open_persistent`).
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Root data directory; shard `i` lives in `shard-i/` beneath it.
    pub dir: PathBuf,
    /// WAL fsync policy.
    pub sync: WalSync,
    /// Deterministic crash point to arm on every shard (each counts its
    /// own operations), or `None` for normal operation.
    pub crash: Option<CrashSpec>,
    /// What a fired crash point does.
    pub on_crash: CrashAction,
    /// Segment size tuning.
    pub tuning: WalTuning,
}

impl PersistOptions {
    /// Plain persistence in `dir`: default sync and tuning, no crash
    /// point, crashes (if somehow armed later) surfaced to the caller.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        PersistOptions {
            dir: dir.into(),
            sync: WalSync::default(),
            crash: None,
            on_crash: CrashAction::Surface,
            tuning: WalTuning::default(),
        }
    }
}

/// What recovery found and did, summed over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records replayed through the access path.
    pub replayed: u64,
    /// Torn-tail bytes truncated away.
    pub torn_bytes_dropped: u64,
    /// Shards that had a durable checkpoint to restore.
    pub checkpoints_loaded: usize,
}

/// Everything that can go wrong beneath a durable shard.
#[derive(Debug)]
pub enum PersistError {
    /// The filesystem said no.
    Io(std::io::Error),
    /// A complete WAL frame failed validation: bit rot, never a crash
    /// artifact. Recovery refuses rather than replaying garbage.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What failed.
        reason: String,
    },
    /// A checkpoint cannot be trusted: the newest checkpoint frame's
    /// payload has a bad version or missing fields, its policy does not
    /// match the running config, or a caller asked to checkpoint a
    /// sequence number the log does not end at.
    BadCheckpoint(String),
    /// The recovered snapshot could not rebuild a cache.
    Build(String),
    /// An armed [`CrashSpec`] fired. The binaries turn this into
    /// `process::exit(137)`; in-process harnesses treat the store as
    /// dead and recover from disk.
    CrashInjected,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::Corrupt { offset, reason } => {
                write!(f, "WAL corrupt at byte {offset}: {reason}")
            }
            PersistError::BadCheckpoint(reason) => write!(f, "bad checkpoint: {reason}"),
            PersistError::Build(reason) => write!(f, "cannot rebuild cache: {reason}"),
            PersistError::CrashInjected => write!(f, "injected crash point fired"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The durable anchor a shard rebuilds from: its snapshot, the hit
/// statistics at that instant, and the WAL sequence number the pair
/// covers (records with larger sequence numbers replay on top).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableCheckpoint {
    /// The shard's cache snapshot.
    pub snapshot: CacheSnapshot,
    /// Hit statistics at checkpoint time.
    pub stats: HitStats,
    /// The last WAL sequence number folded into this checkpoint.
    pub seq: u64,
}

impl DurableCheckpoint {
    /// Serialize to the on-disk JSON form. The snapshot is embedded as a
    /// nested object (carrying its own schema version).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"version\":{},\"seq\":{},\"hits\":{},\"misses\":{},\"prefix_hits\":{},\
             \"byte_hits\":{},\"byte_misses\":{},\"evictions\":{},\"snapshot\":{}}}",
            CHECKPOINT_VERSION,
            self.seq,
            self.stats.hits,
            self.stats.misses,
            self.stats.prefix_hits,
            self.stats.byte_hits.as_u64(),
            self.stats.byte_misses.as_u64(),
            self.stats.evictions,
            self.snapshot.to_json()
        )
    }

    /// Deserialize from the [`to_json`](Self::to_json) shape, rejecting
    /// unknown versions loudly.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let v = clipcache_workload::json::parse(json)?;
        let version = v
            .get("version")
            .and_then(|n| n.as_u64())
            .ok_or("checkpoint needs an integer `version`")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {version} is not supported (this build reads \
                 version {CHECKPOINT_VERSION}, which added chunk-granular residency \
                 and the prefix_hits counter; version 1 checkpoints are whole-clip); \
                 refusing to restore"
            ));
        }
        let field = |name: &str| {
            v.get(name)
                .and_then(|n| n.as_u64())
                .ok_or_else(|| format!("checkpoint needs an integer `{name}`"))
        };
        let stats = HitStats {
            hits: field("hits")?,
            misses: field("misses")?,
            prefix_hits: field("prefix_hits")?,
            byte_hits: ByteSize::bytes(field("byte_hits")?),
            byte_misses: ByteSize::bytes(field("byte_misses")?),
            evictions: field("evictions")?,
        };
        let snapshot = CacheSnapshot::from_value(
            v.get("snapshot")
                .ok_or("checkpoint needs a `snapshot` object")?,
        )?;
        Ok(DurableCheckpoint {
            snapshot,
            stats,
            seq: field("seq")?,
        })
    }
}

/// What [`ShardStore::open`] found on disk.
#[derive(Debug)]
pub struct DurableState {
    /// The newest complete checkpoint frame, if one was ever written.
    pub checkpoint: Option<DurableCheckpoint>,
    /// WAL records after that checkpoint frame, in append order,
    /// sequence-contiguous across all segments.
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail truncated away during open (0 for a clean log).
    pub torn_bytes_dropped: u64,
}

/// The segment currently being appended to.
struct ActiveSegment {
    file: File,
    /// This segment's number (its header and file name agree).
    no: u64,
    /// Bytes on disk (header + complete frames).
    len: u64,
    /// Running CRC over every byte on disk, extended per frame so the
    /// seal footer never re-reads the file.
    crc: Crc32,
    /// Sequence number of the last record in this segment (0 if none).
    last_seq: u64,
}

/// Create segment `no` in `dir`: header written, flushed, fsynced, and
/// the directory fsynced so the name is durable too; `syncs` counts the
/// fsyncs. The handle is opened in append mode so truncation and
/// appends compose.
fn create_segment(dir: &Path, no: u64, syncs: &mut u64) -> Result<ActiveSegment, PersistError> {
    let path = dir.join(segment_file_name(no));
    let file = OpenOptions::new().create(true).append(true).open(&path)?;
    file.set_len(0)?;
    let header = segment_header(no);
    let mut f: &File = &file;
    f.write_all(&header)?;
    f.flush()?;
    file.sync_data()?;
    *syncs += 1;
    // Best effort: not every filesystem lets you open a directory for
    // sync.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
        *syncs += 1;
    }
    let mut crc = Crc32::new();
    crc.update(&header);
    Ok(ActiveSegment {
        file,
        no,
        len: SEGMENT_HEADER_BYTES as u64,
        crc,
        last_seq: 0,
    })
}

/// List `dir`'s WAL segments as `(number, path)`, sorted by number.
/// A file of an older layout (the single-file `wal.log`, a
/// `checkpoint.json` or `checkpoint.tmp`) or an unparseable `wal.*.log`
/// name is refused loudly.
fn scan_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if name == LEGACY_WAL_FILE {
            return Err(PersistError::Corrupt {
                offset: 0,
                reason: format!(
                    "found a pre-segment single-file '{LEGACY_WAL_FILE}'; this \
                     build reads only segmented logs ({}…) — replay it with \
                     the build that wrote it or delete the data directory \
                     instead of mixing layouts",
                    segment_file_name(1)
                ),
            });
        }
        if LEGACY_CHECKPOINT_FILES.contains(&name.as_str()) {
            return Err(PersistError::Corrupt {
                offset: 0,
                reason: format!(
                    "found '{name}', a checkpoint file of the version-2 \
                     layout; this build keeps checkpoints as frames inside \
                     the WAL segments and would ignore it — replay the \
                     directory with the build that wrote it or delete it \
                     instead of mixing layouts"
                ),
            });
        }
        if let Some(no) = parse_segment_no(&name) {
            if no == 0 {
                return Err(PersistError::Corrupt {
                    offset: 0,
                    reason: "segment number 0 (numbering is 1-based)".into(),
                });
            }
            found.push((no, entry.path()));
        } else if name.starts_with("wal.") && name.ends_with(".log") {
            return Err(PersistError::Corrupt {
                offset: 0,
                reason: format!("unrecognized WAL file name '{name}'"),
            });
        }
    }
    found.sort();
    Ok(found)
}

/// One shard's durable store: the active segment's append handle, its
/// sealed predecessors and the armed crash point.
pub struct ShardStore {
    dir: PathBuf,
    sync: WalSync,
    /// Roll threshold: seal the active segment once it reaches this.
    segment_bytes: u64,
    active: ActiveSegment,
    /// The lowest segment number still on disk; sealed predecessors of
    /// the active segment are `oldest_no..active.no`.
    oldest_no: u64,
    /// A checkpoint frame in segment `n` makes every sealed segment
    /// below `n` garbage once an fsync covers it: `Some(n)` until then.
    drop_below: Option<u64>,
    /// Under [`WalSync::Always`]: frames were appended since the last
    /// fsync that covered them, so [`sync`](ShardStore::sync) has work.
    unsynced: bool,
    /// Next sequence number to append.
    next_seq: u64,
    /// Appends performed since the store was armed (crash counting).
    appends: u64,
    /// Checkpoint frames written since the store was armed.
    checkpoints: u64,
    /// Segment seals performed since the store was armed.
    seals: u64,
    /// Fsyncs issued since the store was opened.
    syncs: u64,
    crash: Option<CrashSpec>,
    /// A fired crash point leaves the store dead: every later operation
    /// reports the crash again instead of quietly resuming.
    dead: bool,
}

impl ShardStore {
    /// Open (creating if absent) the store in `dir` with default
    /// tuning, returning the durable state to rebuild from.
    pub fn open(dir: &Path, sync: WalSync) -> Result<(ShardStore, DurableState), PersistError> {
        Self::open_tuned(dir, sync, WalTuning::default())
    }

    /// Open (creating if absent) the store in `dir`, returning the
    /// durable state to rebuild from: the newest complete checkpoint
    /// frame and the records after it.
    ///
    /// A torn tail on the newest segment is truncated in place, and a
    /// sealed *newest* segment (crash in the roll window) gets a fresh
    /// successor; nothing else is written. Sealed segments before the
    /// newest checkpoint stay on disk until the next covered checkpoint
    /// unlinks them. Mid-log corruption, version skew, numbering gaps,
    /// sequence breaks, files of an older layout and untrusted
    /// checkpoints all fail loudly.
    pub fn open_tuned(
        dir: &Path,
        sync: WalSync,
        tuning: WalTuning,
    ) -> Result<(ShardStore, DurableState), PersistError> {
        std::fs::create_dir_all(dir)?;
        let listed = scan_segments(dir)?;
        for pair in listed.windows(2) {
            if pair[1].0 != pair[0].0 + 1 {
                return Err(PersistError::Corrupt {
                    offset: 0,
                    reason: format!(
                        "WAL segment numbering has a gap: {} is followed by {} \
                         (a middle segment is missing)",
                        segment_file_name(pair[0].0),
                        segment_file_name(pair[1].0)
                    ),
                });
            }
        }
        // Decode every segment; only the newest may be unsealed or torn.
        struct Decoded {
            no: u64,
            path: PathBuf,
            bytes: Vec<u8>,
            frames: SegmentFrames,
        }
        let mut segs = Vec::with_capacity(listed.len());
        for (i, (no, path)) in listed.iter().enumerate() {
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let frames = decode_segment_frames(&bytes, *no)?;
            if i + 1 != listed.len() {
                if let SegmentEnd::Unsealed(_) = frames.end {
                    return Err(PersistError::Corrupt {
                        offset: 0,
                        reason: format!(
                            "segment {} is not sealed but a later segment \
                             follows it",
                            segment_file_name(*no)
                        ),
                    });
                }
            }
            segs.push(Decoded {
                no: *no,
                path: path.clone(),
                bytes,
                frames,
            });
        }

        // The concatenated log must be one contiguous sequence run,
        // checkpoint frames or not.
        let mut records: Vec<WalRecord> = segs
            .iter()
            .flat_map(|s| s.frames.records.iter().copied())
            .collect();
        for (i, pair) in records.windows(2).enumerate() {
            if pair[1].seq != pair[0].seq + 1 {
                return Err(PersistError::Corrupt {
                    offset: 0,
                    reason: format!(
                        "WAL sequence broken: record {} has seq {}, expected {}",
                        i + 1,
                        pair[1].seq,
                        pair[0].seq + 1
                    ),
                });
            }
        }
        if records.first().is_some_and(|r| r.seq == 0) {
            return Err(PersistError::Corrupt {
                offset: 0,
                reason: "WAL record has seq 0 (sequence numbers are 1-based)".into(),
            });
        }
        // The newest checkpoint frame, and how many records precede it.
        let mut before = records.len();
        let mut newest = None;
        for s in segs.iter().rev() {
            before -= s.frames.records.len();
            if let Some((k, payload)) = &s.frames.checkpoint {
                newest = Some((before + k, &s.bytes[payload.clone()]));
                break;
            }
        }
        let checkpoint = match newest {
            None => {
                // Segments are only ever unlinked behind a durable
                // checkpoint frame, so a log without one is whole.
                if let Some(first) = records.first().filter(|r| r.seq != 1) {
                    return Err(PersistError::Corrupt {
                        offset: 0,
                        reason: format!(
                            "WAL starts at seq {} with no checkpoint frame \
                             before it: records 1 through {} are missing",
                            first.seq,
                            first.seq - 1
                        ),
                    });
                }
                None
            }
            Some((at, payload)) => {
                let ckpt = std::str::from_utf8(payload)
                    .map_err(|_| "checkpoint frame payload is not UTF-8".to_string())
                    .and_then(DurableCheckpoint::from_json)
                    .map_err(PersistError::BadCheckpoint)?;
                // The frame covers exactly the records before it (seq
                // 0 was refused above, so `r.seq - 1` cannot wrap).
                let covered = match at {
                    0 => records.first().map(|r| r.seq - 1),
                    _ => Some(records[at - 1].seq),
                };
                if let Some(seq) = covered.filter(|&seq| seq != ckpt.seq) {
                    return Err(PersistError::Corrupt {
                        offset: 0,
                        reason: format!(
                            "checkpoint frame covers through seq {} but the \
                             records around it cover through seq {seq}",
                            ckpt.seq
                        ),
                    });
                }
                records.drain(..at);
                Some(ckpt)
            }
        };

        let mut torn_bytes_dropped = 0;
        // Fsyncs recovery itself issues are not the store's to count.
        let mut open_syncs = 0;
        let active = match segs.last() {
            None => create_segment(dir, 1, &mut open_syncs)?,
            Some(s) => match s.frames.end {
                SegmentEnd::Sealed { .. } => {
                    // A crash in the roll window: the seal landed, the
                    // successor was never created. Open one now.
                    create_segment(dir, s.no + 1, &mut open_syncs)?
                }
                SegmentEnd::Unsealed(tail) => {
                    let file = OpenOptions::new().create(true).append(true).open(&s.path)?;
                    let mut crc = Crc32::new();
                    let disk_len = match tail {
                        WalTail::Torn {
                            valid_bytes,
                            dropped_bytes,
                        } if (valid_bytes as usize) < SEGMENT_HEADER_BYTES => {
                            // Even the header never finished (a crash
                            // during segment creation): rewrite it.
                            file.set_len(0)?;
                            let header = segment_header(s.no);
                            let mut f: &File = &file;
                            f.write_all(&header)?;
                            f.flush()?;
                            file.sync_data()?;
                            torn_bytes_dropped = dropped_bytes;
                            crc.update(&header);
                            SEGMENT_HEADER_BYTES
                        }
                        WalTail::Torn {
                            valid_bytes,
                            dropped_bytes,
                        } => {
                            // Truncate the partial frame (or partial
                            // seal footer) so the next open sees a clean
                            // segment.
                            file.set_len(valid_bytes)?;
                            file.sync_data()?;
                            torn_bytes_dropped = dropped_bytes;
                            crc.update(&s.bytes[..valid_bytes as usize]);
                            valid_bytes as usize
                        }
                        WalTail::Clean => {
                            crc.update(&s.bytes);
                            s.bytes.len()
                        }
                    };
                    ActiveSegment {
                        file,
                        no: s.no,
                        len: disk_len as u64,
                        crc,
                        last_seq: s.frames.records.last().map_or(0, |r| r.seq),
                    }
                }
            },
        };
        let oldest_no = segs.first().map_or(active.no, |s| s.no);
        let next_seq = records
            .last()
            .map_or(checkpoint.as_ref().map_or(0, |c| c.seq), |r| r.seq)
            + 1;
        Ok((
            ShardStore {
                dir: dir.to_path_buf(),
                sync,
                segment_bytes: tuning.segment_bytes,
                active,
                oldest_no,
                drop_below: None,
                unsynced: false,
                next_seq,
                appends: 0,
                checkpoints: 0,
                seals: 0,
                syncs: 0,
                crash: None,
                dead: false,
            },
            DurableState {
                checkpoint,
                records,
                torn_bytes_dropped,
            },
        ))
    }

    /// Arm a crash point. Counters start now — recovery-time operations
    /// performed before arming never count.
    pub fn arm_crash(&mut self, crash: Option<CrashSpec>) {
        self.crash = crash;
        self.appends = 0;
        self.checkpoints = 0;
        self.seals = 0;
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The next sequence number an append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The active segment's number and the lowest segment number still
    /// on disk — `(oldest, active)`.
    pub fn segment_span(&self) -> (u64, u64) {
        (self.oldest_no, self.active.no)
    }

    /// Every fsync the store has issued since it was opened: commit
    /// points ([`sync`](Self::sync)), checkpoint frames under
    /// [`WalSync::Off`], seals, successor-segment creation (the file and
    /// its directory) and crash-point fsyncs. Recovery's own fsyncs
    /// inside [`open`](Self::open) are not counted.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Fsync the active segment, counting it.
    fn fsync_active(&mut self) -> std::io::Result<()> {
        self.active.file.sync_data()?;
        self.syncs += 1;
        Ok(())
    }

    /// Make every frame appended so far durable with one fsync of the
    /// active segment, then unlink the sealed segments a now-durable
    /// checkpoint frame subsumes. A no-op when nothing is unsynced,
    /// which is always the case under [`WalSync::Off`].
    ///
    /// A failed fsync kills the store, exactly like a failed append: the
    /// frames it should have covered may or may not be on the platter,
    /// so every later operation (this method included) errors rather
    /// than acknowledging them.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        if !self.unsynced {
            return Ok(());
        }
        if self.dead {
            return Err(PersistError::CrashInjected);
        }
        if let Err(e) = self.fsync_active() {
            self.kill();
            return Err(e.into());
        }
        self.unsynced = false;
        self.drop_subsumed()
    }

    /// Unlink the sealed segments a durable checkpoint frame subsumes,
    /// oldest first, so a crash partway leaves a contiguous run. Called
    /// right after an fsync that covers the active segment. A failed
    /// unlink kills the store, like every other I/O failure beneath it.
    fn drop_subsumed(&mut self) -> Result<(), PersistError> {
        if let Some(below) = self.drop_below.take() {
            while self.oldest_no < below {
                let path = self.dir.join(segment_file_name(self.oldest_no));
                if let Err(e) = std::fs::remove_file(path) {
                    self.kill();
                    return Err(e.into());
                }
                self.oldest_no += 1;
            }
        }
        Ok(())
    }

    /// Append one whole-clip access to the WAL, returning its sequence
    /// number.
    ///
    /// The frame is flushed to the OS before the call returns; with
    /// [`WalSync::Always`] it becomes durable at the next
    /// [`sync`](Self::sync) (or seal or crash-point fsync). An armed
    /// crash point may fire here: `torn:N` writes half the frame then
    /// dies, `append:N` dies after the frame is durable, and `seal:N` /
    /// `segment-roll:N` fire if this append fills the segment.
    ///
    /// # Panics
    /// If `op` is [`WalOp::GetRange`] — ranged probes carry a chunk and
    /// go through [`append_range`](Self::append_range).
    pub fn append(&mut self, op: WalOp, clip: ClipId) -> Result<u64, PersistError> {
        assert!(
            op != WalOp::GetRange,
            "GETRANGE records go through append_range"
        );
        self.append_record(op, clip, 0)
    }

    /// Append one chunk-granular residency probe to the WAL.
    pub fn append_range(&mut self, clip: ClipId, chunk: u32) -> Result<u64, PersistError> {
        self.append_record(WalOp::GetRange, clip, chunk)
    }

    fn append_record(&mut self, op: WalOp, clip: ClipId, chunk: u32) -> Result<u64, PersistError> {
        if self.dead {
            return Err(PersistError::CrashInjected);
        }
        let record = WalRecord {
            seq: self.next_seq,
            clip,
            chunk,
            op,
        };
        let frame = record.encode();
        if let Some(CrashSpec {
            point: CrashPoint::TornAppend(n),
        }) = self.crash
        {
            if self.appends + 1 == n {
                // Half the frame reaches the disk; the process dies
                // mid-write. Recovery must truncate this tail.
                let mut f: &File = &self.active.file;
                f.write_all(&frame[..frame.len() / 2])?;
                f.flush()?;
                self.fsync_active()?;
                // That fsync also made every earlier record durable.
                self.unsynced = false;
                self.dead = true;
                return Err(PersistError::CrashInjected);
            }
        }
        if let Err(e) = self.write_frame(&frame) {
            // The frame may be partially on disk; a retried append after
            // it would decode as garbage. Refuse further operations —
            // the caller recovers from disk, which truncates the torn
            // frame — rather than silently diverging.
            self.kill();
            return Err(e);
        }
        self.active.last_seq = record.seq;
        self.appends += 1;
        self.next_seq += 1;
        if let Some(CrashSpec {
            point: CrashPoint::AfterAppend(n),
        }) = self.crash
        {
            if self.appends == n {
                // The record IS durable; the process dies right after.
                self.fsync_active()?;
                self.unsynced = false;
                self.dead = true;
                return Err(PersistError::CrashInjected);
            }
        }
        if self.active.len >= self.segment_bytes {
            self.roll()?;
        }
        Ok(record.seq)
    }

    /// The fallible I/O of one append or checkpoint: write `frame` to
    /// the active segment and flush it to the OS. The caller kills the
    /// store if this fails. Under [`WalSync::Always`] the fsync is left
    /// to [`sync`](Self::sync).
    fn write_frame(&mut self, frame: &[u8]) -> Result<(), PersistError> {
        let mut f: &File = &self.active.file;
        f.write_all(frame)?;
        f.flush()?;
        self.active.len += frame.len() as u64;
        self.active.crc.update(frame);
        if self.sync == WalSync::Always {
            self.unsynced = true;
        }
        Ok(())
    }

    /// Seal the active segment (footer write + fsync) and open its
    /// successor. The `seal:N` and `segment-roll:N` crash points fire
    /// here.
    fn roll(&mut self) -> Result<(), PersistError> {
        let mut footer = [0u8; SEGMENT_FOOTER_BYTES];
        footer[..4].copy_from_slice(&SEAL_MARK.to_le_bytes());
        footer[4..12].copy_from_slice(&self.active.last_seq.to_le_bytes());
        let mut crc = self.active.crc.clone();
        crc.update(&footer[..12]);
        footer[12..].copy_from_slice(&crc.finish().to_le_bytes());
        if let Some(CrashSpec {
            point: CrashPoint::TornSeal(n),
        }) = self.crash
        {
            if self.seals + 1 == n {
                // Half the footer reaches the disk; the process dies
                // mid-seal. Recovery truncates the partial footer and
                // the segment stays active.
                let mut f: &File = &self.active.file;
                f.write_all(&footer[..SEGMENT_FOOTER_BYTES / 2])?;
                f.flush()?;
                self.fsync_active()?;
                // The partial-footer fsync still made every record in
                // the segment durable.
                self.unsynced = false;
                self.dead = true;
                return Err(PersistError::CrashInjected);
            }
        }
        let written = {
            let mut f: &File = &self.active.file;
            f.write_all(&footer).and_then(|()| f.flush())
        };
        if let Err(e) = written.and_then(|()| self.fsync_active()) {
            self.kill();
            return Err(e.into());
        }
        self.seals += 1;
        // The seal fsync made every record in this segment durable.
        self.unsynced = false;
        if let Some(CrashSpec {
            point: CrashPoint::SegmentRoll(n),
        }) = self.crash
        {
            if self.seals == n {
                // The seal is durable; the successor segment is never
                // created. Recovery opens one.
                self.dead = true;
                return Err(PersistError::CrashInjected);
            }
        }
        match create_segment(&self.dir, self.active.no + 1, &mut self.syncs) {
            Ok(next) => {
                self.active = next;
                Ok(())
            }
            Err(e) => {
                self.kill();
                Err(e)
            }
        }
    }

    /// Append a checkpoint frame covering every record so far.
    /// `ckpt.seq` must be the last sequence number appended (0 before
    /// any), and it may repeat: checkpointing twice without an append
    /// in between is valid.
    ///
    /// Under [`WalSync::Always`] the frame only marks the store
    /// unsynced, and the next [`sync`](Self::sync) makes it durable
    /// with the records around it. Under [`WalSync::Off`] it is fsynced
    /// before this call returns. Either way, the fsync that covers the
    /// frame also unlinks the sealed segments before it. A torn frame
    /// (a crash mid-write) is an ordinary torn tail that recovery
    /// truncates, leaving the previous checkpoint in charge; a non-crash
    /// I/O failure kills the store, since a retried frame after a
    /// partial one would decode as garbage.
    pub fn checkpoint(&mut self, ckpt: &DurableCheckpoint) -> Result<(), PersistError> {
        if self.dead {
            return Err(PersistError::CrashInjected);
        }
        if ckpt.seq != self.next_seq - 1 {
            return Err(PersistError::BadCheckpoint(format!(
                "checkpoint covers through seq {} but the log ends at seq {}",
                ckpt.seq,
                self.next_seq - 1
            )));
        }
        let frame = checkpoint_frame(&ckpt.to_json());
        if let Some(CrashSpec {
            point: CrashPoint::MidCheckpoint(n),
        }) = self.crash
        {
            if self.checkpoints + 1 == n {
                // Half the frame reaches the OS, never the platter; the
                // process dies. Recovery truncates it as a torn tail.
                let mut f: &File = &self.active.file;
                f.write_all(&frame[..frame.len() / 2])?;
                f.flush()?;
                self.kill();
                return Err(PersistError::CrashInjected);
            }
        }
        if let Err(e) = self.write_frame(&frame) {
            self.kill();
            return Err(e);
        }
        self.checkpoints += 1;
        if self.oldest_no < self.active.no {
            self.drop_below = Some(self.active.no);
        }
        if self.sync == WalSync::Off {
            if let Err(e) = self.fsync_active() {
                self.kill();
                return Err(e.into());
            }
            self.drop_subsumed()?;
        }
        Ok(())
    }

    /// Mark the store dead, as after a fired crash point: every later
    /// operation reports [`PersistError::CrashInjected`]. Used when an
    /// I/O failure leaves disk and memory describing different states —
    /// refusing further appends beats silently diverging. Frames not
    /// yet synced stay unsynced, so a later [`sync`](Self::sync) errors
    /// instead of acknowledging them.
    pub fn kill(&mut self) {
        self.dead = true;
    }
}

#[cfg(test)]
mod tests;
