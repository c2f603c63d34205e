//! Length-prefixed binary wire format for high-volume classify clients.
//!
//! The line-JSON protocol ([`protocol`](crate::protocol)) stays the
//! default — it is scriptable and every existing client keeps working —
//! but it pays a float/text round trip and a JSON parse per request.
//! This module defines the binary alternative negotiated per connection
//! by **first-byte sniffing**: a JSON connection's first byte is `{`
//! (or whitespace), a binary connection's first byte is the magic
//! `0xB1`, which is neither valid JSON nor valid UTF-8 text. Whatever
//! the first byte says, the connection speaks that format for its whole
//! lifetime.
//!
//! ## Frame layout
//!
//! Every frame — request or response — is a fixed 16-byte header
//! followed by a `payload_len`-byte payload. All integers little-endian
//! (the same [`ByteWriter`]/[`ByteReader`] primitives as the snapshot
//! format):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 1    | magic0 = `0xB1` |
//! | 1      | 1    | magic1 = `0x48` (`'H'`) |
//! | 2      | 1    | version = [`WIRE_VERSION`] |
//! | 3      | 1    | opcode |
//! | 4      | 8    | request id (`u64`), echoed verbatim in responses |
//! | 12     | 4    | payload length (`u32`, ≤ [`MAX_PAYLOAD`]) |
//!
//! ## Opcodes
//!
//! | opcode | dir | payload |
//! |--------|-----|---------|
//! | `0x01` `CLASSIFY` | → | flags `u8` (bit 0 = want scores) · `n` `u16` · `n × u16` levels |
//! | `0x02` `INFO`     | → | empty |
//! | `0x03` `SEARCH`   | → | k `u16` · `n` `u16` · `n × u16` levels |
//! | `0x04` `BULK`     | → | flags `u8` (bit 0 = want scores) · count `u32` · `n` `u16` · `count × n × u16` levels |
//! | `0x81` `CLASS`    | ← | class `u32` |
//! | `0x82` `SCORES`   | ← | class `u32` · count `u32` · `count × f64` score bits |
//! | `0x83` `INFO`     | ← | dim/features/levels/classes `u32` · generation `u64` · checksum `u64` · backend len `u8` + UTF-8 |
//! | `0x84` `MATCHES`  | ← | count `u32` · `count ×` (row `u32` · `f64` score bits) |
//! | `0x85` `BULK`     | ← | count `u32` · `count ×` (tag `u8`: 0 = class `u32`, 1 = class `u32` · n `u32` · `n × f64` score bits, 2 = len `u16` + UTF-8 error) |
//! | `0xEF` `ERROR`    | ← | flags `u8` (bit 0 = throttled, bit 1 = overloaded) · len `u16` + UTF-8 message |
//!
//! A `BULK` request packs many rows of one uniform width `n` into a
//! single frame, amortizing the 16-byte header and the per-request
//! dispatch cost; the batcher fuses the rows into the same kernel
//! batches as single-row traffic, so per-row results are bit-identical
//! to `count` individual `CLASSIFY` frames. The response carries one
//! positional item per request row — rejected rows (validation,
//! admission, mid-flight swap) ride along as tagged errors instead of
//! failing the whole frame.
//!
//! Classify and search payloads carry the quantized feature row as
//! packed `u16` level indices — no float text round trip anywhere on
//! the hot path; score vectors and top-k hits travel as raw `f64` bit
//! patterns, so binary responses are **bit-identical** to what the
//! session computed (and to what the JSON path serializes via `{:?}`).
//!
//! Admin operations (`reload`/`rekey`/`stats`) are deliberately
//! JSON-only: they are rare operator-plane calls, and keeping them off
//! the binary opcode space keeps this format frozen to the hot path.
//!
//! ## Version rules
//!
//! A frame whose version is **newer** than [`WIRE_VERSION`] is answered
//! with an `ERROR` frame echoing its id (the header layout is
//! versioned-forward: magic, version, opcode, id and length never
//! move), and the connection keeps serving sibling requests. A frame
//! without our magic means the stream is desynchronized — the server
//! answers nothing and closes cleanly, because no further byte can be
//! trusted. An oversized length prefix (> [`MAX_PAYLOAD`]) is answered
//! with an `ERROR` frame, then the connection closes: the prefix cannot
//! be skipped safely.
//!
//! Malformed-but-framed requests (unknown opcode, truncated payload
//! fields, wrong version) consume exactly their declared payload and
//! answer a structured `ERROR` — sibling in-flight requests on the same
//! connection are never affected.

use std::io::Read;

use hdc_store::wire::{ByteReader, ByteWriter};

use crate::protocol::{checksum_hex, BulkOutcome, ClassifyResponse, SearchMatch, ServerInfo};

/// First magic byte; distinguishes binary connections from JSON ones
/// (never `{`, never ASCII whitespace, not valid UTF-8 lead byte).
pub const MAGIC0: u8 = 0xB1;
/// Second magic byte.
pub const MAGIC1: u8 = b'H';
/// Newest wire version this build speaks.
pub const WIRE_VERSION: u8 = 1;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Upper bound on a frame payload. Large enough for a 64k-feature row
/// or a 100k-class score vector; anything bigger is a desynchronized or
/// hostile stream.
pub const MAX_PAYLOAD: usize = 1 << 20;
/// Upper bound on rows per bulk-classify frame. Keeps the response —
/// including worst-case per-row rejection messages — under
/// [`MAX_PAYLOAD`] and bounds the queue memory one frame can pin.
pub const MAX_BULK_ROWS: usize = 4096;

/// Request opcode: classify one quantized row.
pub const OP_CLASSIFY: u8 = 0x01;
/// Request opcode: server info.
pub const OP_INFO: u8 = 0x02;
/// Request opcode: top-k similarity search of one quantized row.
pub const OP_SEARCH: u8 = 0x03;
/// Request opcode: bulk-classify many packed rows in one frame.
pub const OP_BULK: u8 = 0x04;
/// Response opcode: top-1 class.
pub const OP_CLASS: u8 = 0x81;
/// Response opcode: top-1 class plus the full score vector.
pub const OP_SCORES: u8 = 0x82;
/// Response opcode: server info.
pub const OP_INFO_RESP: u8 = 0x83;
/// Response opcode: top-k search hits, best-first.
pub const OP_MATCHES: u8 = 0x84;
/// Response opcode: per-row outcomes of a bulk-classify frame.
pub const OP_BULK_RESP: u8 = 0x85;
/// Response opcode: structured error.
pub const OP_ERROR: u8 = 0xEF;

/// Which protocol a connection (or client) speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// Line-delimited JSON (the default; scriptable).
    #[default]
    Json,
    /// Length-prefixed binary frames (this module).
    Binary,
}

impl WireMode {
    /// Parses a `--wire` CLI value.
    #[must_use]
    pub fn from_flag(value: &str) -> Option<Self> {
        match value {
            "json" => Some(WireMode::Json),
            "binary" => Some(WireMode::Binary),
            _ => None,
        }
    }

    /// The `--wire` CLI name of this mode.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WireMode::Json => "json",
            WireMode::Binary => "binary",
        }
    }
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Wire version the sender wrote.
    pub version: u8,
    /// Frame opcode.
    pub opcode: u8,
    /// Request correlation id.
    pub id: u64,
    /// Payload length in bytes.
    pub len: usize,
}

/// A well-formed binary request, server side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerFrame {
    /// Classify one quantized row.
    Classify {
        /// Request id.
        id: u64,
        /// Quantized feature row.
        levels: Vec<u16>,
        /// Whether the full score vector was requested.
        want_scores: bool,
    },
    /// Server-info request.
    Info {
        /// Request id.
        id: u64,
    },
    /// Top-k similarity search of one quantized row.
    Search {
        /// Request id.
        id: u64,
        /// Quantized feature row.
        levels: Vec<u16>,
        /// How many best rows to return (1..=65535, enforced by the
        /// `u16` wire field being nonzero).
        k: usize,
    },
    /// Bulk-classify many packed rows of one uniform width.
    BulkClassify {
        /// Request id (one id covers the whole frame).
        id: u64,
        /// Quantized feature rows, in request order.
        rows: Vec<Vec<u16>>,
        /// Whether every row's score vector was requested.
        want_scores: bool,
    },
}

/// A framing fault that cannot be answered in-stream: the connection
/// must close after (optionally) sending one final error frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FatalFrameError {
    /// The stream does not carry our magic — desynchronized or not our
    /// protocol at all. Nothing is answered (no trustworthy id).
    BadMagic([u8; 2]),
    /// The length prefix exceeds [`MAX_PAYLOAD`]; answered with an
    /// error frame echoing `id`, then the connection closes (the
    /// payload cannot be skipped safely).
    Oversized {
        /// Id recovered from the frame header.
        id: u64,
        /// The declared payload length.
        len: usize,
    },
}

fn push_header(out: &mut Vec<u8>, opcode: u8, id: u64, payload_len: usize) {
    debug_assert!(payload_len <= MAX_PAYLOAD);
    out.push(MAGIC0);
    out.push(MAGIC1);
    out.push(WIRE_VERSION);
    out.push(opcode);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

fn frame(opcode: u8, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    push_header(&mut out, opcode, id, payload.len());
    out.extend_from_slice(payload);
    out
}

/// Encodes a classify request frame (client side).
///
/// # Panics
///
/// Panics when the row has more than `u16::MAX` levels — the count
/// field is a `u16`, and silently truncating it would misparse the
/// payload server-side.
#[must_use]
pub fn classify_frame(id: u64, levels: &[u16], want_scores: bool) -> Vec<u8> {
    assert!(
        levels.len() <= usize::from(u16::MAX),
        "classify rows are capped at {} levels (got {})",
        u16::MAX,
        levels.len()
    );
    let mut w = ByteWriter::new();
    w.put_u8(u8::from(want_scores));
    w.put_u16(levels.len() as u16);
    w.put_u16s(levels);
    frame(OP_CLASSIFY, id, &w.into_bytes())
}

/// Encodes an info request frame (client side).
#[must_use]
pub fn info_frame(id: u64) -> Vec<u8> {
    frame(OP_INFO, id, &[])
}

/// Encodes a bulk-classify request frame (client side): `rows` packed
/// rows of one uniform width, answered as one positional multi-result
/// frame.
///
/// # Panics
///
/// Panics when `rows` is empty, exceeds [`MAX_BULK_ROWS`], mixes row
/// widths, has rows wider than `u16::MAX`, or the packed payload would
/// exceed [`MAX_PAYLOAD`] — each would misparse (or be rejected)
/// server-side.
#[must_use]
pub fn bulk_classify_frame(id: u64, rows: &[&[u16]], want_scores: bool) -> Vec<u8> {
    assert!(!rows.is_empty(), "bulk frames carry at least one row");
    assert!(
        rows.len() <= MAX_BULK_ROWS,
        "bulk frames are capped at {MAX_BULK_ROWS} rows (got {})",
        rows.len()
    );
    let width = rows[0].len();
    assert!(
        width <= usize::from(u16::MAX),
        "bulk rows are capped at {} levels (got {width})",
        u16::MAX
    );
    assert!(
        rows.iter().all(|row| row.len() == width),
        "bulk frames carry rows of one uniform width"
    );
    let payload_len = 1 + 4 + 2 + 2 * rows.len() * width;
    assert!(
        payload_len <= MAX_PAYLOAD,
        "bulk payload of {payload_len} bytes exceeds the {MAX_PAYLOAD} byte cap"
    );
    let mut w = ByteWriter::new();
    w.put_u8(u8::from(want_scores));
    w.put_u32(rows.len() as u32);
    w.put_u16(width as u16);
    for row in rows {
        w.put_u16s(row);
    }
    frame(OP_BULK, id, &w.into_bytes())
}

/// Encodes a top-k search request frame (client side).
///
/// # Panics
///
/// Panics when the row has more than `u16::MAX` levels or `k` does not
/// fit `1..=u16::MAX` — both fields are `u16` on the wire, and silent
/// truncation would misparse (or silently shrink) the request.
#[must_use]
pub fn search_frame(id: u64, levels: &[u16], k: usize) -> Vec<u8> {
    assert!(
        levels.len() <= usize::from(u16::MAX),
        "search rows are capped at {} levels (got {})",
        u16::MAX,
        levels.len()
    );
    assert!(
        (1..=usize::from(u16::MAX)).contains(&k),
        "search k must be in 1..=65535 (got {k})"
    );
    let mut w = ByteWriter::new();
    w.put_u16(k as u16);
    w.put_u16(levels.len() as u16);
    w.put_u16s(levels);
    frame(OP_SEARCH, id, &w.into_bytes())
}

/// Encodes a top-1 class response frame.
#[must_use]
pub fn class_frame(id: u64, class: usize) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(class as u32);
    frame(OP_CLASS, id, &w.into_bytes())
}

/// Encodes a class + full-score-vector response frame. Scores travel
/// as raw `f64` bit patterns — bit-identical to the session's output.
#[must_use]
pub fn scores_frame(id: u64, class: usize, scores: &[f64]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(class as u32);
    w.put_u32(scores.len() as u32);
    for &s in scores {
        w.put_u64(s.to_bits());
    }
    frame(OP_SCORES, id, &w.into_bytes())
}

/// Encodes a top-k search response frame, hits best-first. Scores
/// travel as raw `f64` bit patterns — bit-identical to the session's
/// output.
#[must_use]
pub fn matches_frame(id: u64, matches: &[SearchMatch]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(matches.len() as u32);
    for m in matches {
        w.put_u32(m.row);
        w.put_u64(m.score.to_bits());
    }
    frame(OP_MATCHES, id, &w.into_bytes())
}

/// Encodes a bulk-classify response frame: one positional item per
/// request row. Scores travel as raw `f64` bit patterns — bit-identical
/// to the session's output.
#[must_use]
pub fn bulk_response_frame(id: u64, items: &[crate::batcher::BulkItem]) -> Vec<u8> {
    use crate::batcher::BulkItem;
    let mut w = ByteWriter::new();
    w.put_u32(items.len() as u32);
    for item in items {
        match item {
            BulkItem::Class(class) => {
                w.put_u8(0);
                w.put_u32(*class as u32);
            }
            BulkItem::ClassWithScores(class, scores) => {
                w.put_u8(1);
                w.put_u32(*class as u32);
                w.put_u32(scores.len() as u32);
                for &s in scores {
                    w.put_u64(s.to_bits());
                }
            }
            BulkItem::Rejected(message) => {
                let msg = message.as_bytes();
                let take = msg.len().min(u16::MAX as usize);
                w.put_u8(2);
                w.put_u16(take as u16);
                w.put_bytes(&msg[..take]);
            }
        }
    }
    frame(OP_BULK_RESP, id, &w.into_bytes())
}

/// Encodes a server-info response frame.
#[must_use]
pub fn info_response_frame(id: u64, info: &ServerInfo) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(info.dim as u32);
    w.put_u32(info.features as u32);
    w.put_u32(info.levels as u32);
    w.put_u32(info.classes as u32);
    w.put_u64(info.generation);
    w.put_u64(u64::from_str_radix(&info.checksum, 16).unwrap_or(0));
    let backend = info.backend.as_bytes();
    let take = backend.len().min(255);
    w.put_u8(take as u8);
    w.put_bytes(&backend[..take]);
    frame(OP_INFO_RESP, id, &w.into_bytes())
}

/// Encodes a structured error response frame. `throttled` marks
/// admission back-pressure, `overloaded` marks a full pipeline window.
#[must_use]
pub fn error_frame(id: u64, message: &str, throttled: bool, overloaded: bool) -> Vec<u8> {
    let msg = message.as_bytes();
    let take = msg.len().min(u16::MAX as usize);
    let mut w = ByteWriter::new();
    w.put_u8(u8::from(throttled) | (u8::from(overloaded) << 1));
    w.put_u16(take as u16);
    w.put_bytes(&msg[..take]);
    frame(OP_ERROR, id, &w.into_bytes())
}

/// Incremental frame accumulator for the server's non-blocking read
/// loop: bytes stream in via [`FrameBuffer::extend`], complete frames
/// stream out via [`FrameBuffer::next_frame`]. Partial frames (a read
/// timeout mid-header, a payload split across TCP segments) simply wait
/// for more bytes.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        compact(&mut self.buf, &mut self.start);
        self.buf.extend_from_slice(bytes);
    }

    /// Yields the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`FatalFrameError`] when the stream can no longer be trusted
    /// (bad magic, oversized length prefix).
    pub fn next_frame(&mut self) -> Result<Option<(FrameHeader, Vec<u8>)>, FatalFrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        if avail[0] != MAGIC0 || avail[1] != MAGIC1 {
            return Err(FatalFrameError::BadMagic([avail[0], avail[1]]));
        }
        let id = u64::from_le_bytes(avail[4..12].try_into().expect("len 8"));
        let len = u32::from_le_bytes(avail[12..16].try_into().expect("len 4")) as usize;
        if len > MAX_PAYLOAD {
            return Err(FatalFrameError::Oversized { id, len });
        }
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let header = FrameHeader {
            version: avail[2],
            opcode: avail[3],
            id,
            len,
        };
        let payload = avail[HEADER_LEN..HEADER_LEN + len].to_vec();
        self.start += HEADER_LEN + len;
        Ok(Some((header, payload)))
    }
}

/// Incremental line accumulator for the server's line-JSON read loop,
/// the twin of [`FrameBuffer`]: bytes stream in via
/// [`LineBuffer::extend`], complete `\n`-terminated lines stream out via
/// [`LineBuffer::next_line`]. Every byte is searched for the line end
/// once, so a line trickled in one byte per read costs linear time,
/// not quadratic.
#[derive(Debug, Default)]
pub(crate) struct LineBuffer {
    buf: Vec<u8>,
    start: usize,
    /// `buf[start..scanned]` holds no line end.
    scanned: usize,
}

impl LineBuffer {
    /// An empty buffer.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.scanned -= compact(&mut self.buf, &mut self.start);
        self.buf.extend_from_slice(bytes);
    }

    /// Yields the next complete line, `\n` included; `None` when more
    /// bytes are needed.
    pub(crate) fn next_line(&mut self) -> Option<&[u8]> {
        let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
            self.scanned = self.buf.len();
            return None;
        };
        let line = self.start..self.scanned + at + 1;
        self.start = line.end;
        self.scanned = line.end;
        Some(&self.buf[line])
    }

    /// Bytes buffered toward the next, still incomplete line.
    #[must_use]
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

/// Lazy compaction shared by [`FrameBuffer`] and [`LineBuffer`]: drops
/// the consumed prefix `buf[..start]` once it is all of `buf` or past
/// 4 KiB, so a long-lived connection's buffer does not grow without
/// bound and consumed frames or lines are not shifted out one by one.
/// Returns how far the unconsumed bytes moved toward the front.
fn compact(buf: &mut Vec<u8>, start: &mut usize) -> usize {
    let moved = *start;
    if moved == buf.len() {
        buf.clear();
    } else if moved > 4096 {
        buf.drain(..moved);
    } else {
        return 0;
    }
    *start = 0;
    moved
}

/// Decodes a framed request (server side). The payload was already
/// consumed from the stream, so every error here is *answerable*: the
/// `(id, message)` pair renders one error frame and the connection —
/// and its sibling in-flight requests — keeps going.
///
/// # Errors
///
/// `(id, message)` for wrong version, unknown opcode, or a payload
/// that does not parse.
pub fn decode_request(header: &FrameHeader, payload: &[u8]) -> Result<ServerFrame, (u64, String)> {
    if header.version > WIRE_VERSION {
        return Err((
            header.id,
            format!(
                "unsupported wire version {} (this server speaks ≤ {WIRE_VERSION})",
                header.version
            ),
        ));
    }
    match header.opcode {
        OP_CLASSIFY => {
            let mut r = ByteReader::new(payload);
            let parse = |e| (header.id, format!("malformed classify payload: {e}"));
            let flags = r.get_u8().map_err(parse)?;
            let n = r.get_u16().map_err(parse)? as usize;
            let levels = r.get_u16s(n).map_err(parse)?;
            if r.remaining() != 0 {
                return Err((
                    header.id,
                    format!("{} trailing bytes after classify payload", r.remaining()),
                ));
            }
            Ok(ServerFrame::Classify {
                id: header.id,
                levels,
                want_scores: flags & 1 != 0,
            })
        }
        OP_INFO => Ok(ServerFrame::Info { id: header.id }),
        OP_SEARCH => {
            let mut r = ByteReader::new(payload);
            let parse = |e| (header.id, format!("malformed search payload: {e}"));
            let k = r.get_u16().map_err(parse)? as usize;
            if k == 0 {
                return Err((header.id, "search k must be nonzero".to_owned()));
            }
            let n = r.get_u16().map_err(parse)? as usize;
            let levels = r.get_u16s(n).map_err(parse)?;
            if r.remaining() != 0 {
                return Err((
                    header.id,
                    format!("{} trailing bytes after search payload", r.remaining()),
                ));
            }
            Ok(ServerFrame::Search {
                id: header.id,
                levels,
                k,
            })
        }
        OP_BULK => {
            let mut r = ByteReader::new(payload);
            let parse = |e| (header.id, format!("malformed bulk payload: {e}"));
            let flags = r.get_u8().map_err(parse)?;
            let count = r.get_u32().map_err(parse)? as usize;
            if count == 0 {
                return Err((header.id, "bulk frame carries no rows".to_owned()));
            }
            if count > MAX_BULK_ROWS {
                return Err((
                    header.id,
                    format!("bulk frame carries {count} rows; cap is {MAX_BULK_ROWS}"),
                ));
            }
            let width = r.get_u16().map_err(parse)? as usize;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push(r.get_u16s(width).map_err(parse)?);
            }
            if r.remaining() != 0 {
                return Err((
                    header.id,
                    format!("{} trailing bytes after bulk payload", r.remaining()),
                ));
            }
            Ok(ServerFrame::BulkClassify {
                id: header.id,
                rows,
                want_scores: flags & 1 != 0,
            })
        }
        op => Err((header.id, format!("unknown opcode 0x{op:02x}"))),
    }
}

/// Decodes a framed response (client side) into the same
/// [`ClassifyResponse`] shape the JSON parser produces, so callers are
/// wire-format agnostic.
///
/// # Errors
///
/// A message for malformed frames.
pub fn decode_response(header: &FrameHeader, payload: &[u8]) -> Result<ClassifyResponse, String> {
    let mut resp = ClassifyResponse {
        id: header.id,
        class: None,
        scores: None,
        matches: None,
        bulk: None,
        info: None,
        swapped: None,
        stats: None,
        error: None,
        xfer_received: None,
        throttled: false,
        overloaded: false,
    };
    let mut r = ByteReader::new(payload);
    match header.opcode {
        OP_CLASS => {
            resp.class = Some(r.get_u32().map_err(|e| e.to_string())? as usize);
        }
        OP_SCORES => {
            resp.class = Some(r.get_u32().map_err(|e| e.to_string())? as usize);
            let n = r.get_u32().map_err(|e| e.to_string())? as usize;
            let mut scores = Vec::with_capacity(n);
            for _ in 0..n {
                scores.push(f64::from_bits(r.get_u64().map_err(|e| e.to_string())?));
            }
            resp.scores = Some(scores);
        }
        OP_INFO_RESP => {
            let err = |e| format!("malformed info frame: {e}");
            let dim = r.get_u32().map_err(err)? as usize;
            let features = r.get_u32().map_err(err)? as usize;
            let levels = r.get_u32().map_err(err)? as usize;
            let classes = r.get_u32().map_err(err)? as usize;
            let generation = r.get_u64().map_err(err)?;
            let checksum = r.get_u64().map_err(err)?;
            let blen = r.get_u8().map_err(err)? as usize;
            let backend = r.get_bytes(blen).map_err(err)?;
            resp.info = Some(ServerInfo {
                backend: String::from_utf8_lossy(backend).into_owned(),
                dim,
                features,
                levels,
                classes,
                generation,
                checksum: checksum_hex(checksum),
                // The v1 binary info frame predates hardened mode and
                // does not carry the flag; binary clients query the
                // JSON `info` request for it (see docs/wire.md).
                hardened: false,
            });
        }
        OP_MATCHES => {
            let err = |e| format!("malformed matches frame: {e}");
            let n = r.get_u32().map_err(err)? as usize;
            let mut matches = Vec::with_capacity(n);
            for _ in 0..n {
                let row = r.get_u32().map_err(err)?;
                let score = f64::from_bits(r.get_u64().map_err(err)?);
                matches.push(SearchMatch { row, score });
            }
            resp.matches = Some(matches);
        }
        OP_BULK_RESP => {
            let err = |e| format!("malformed bulk response frame: {e}");
            let n = r.get_u32().map_err(err)? as usize;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let tag = r.get_u8().map_err(err)?;
                items.push(match tag {
                    0 => BulkOutcome {
                        class: Some(r.get_u32().map_err(err)? as usize),
                        scores: None,
                        error: None,
                    },
                    1 => {
                        let class = r.get_u32().map_err(err)? as usize;
                        let count = r.get_u32().map_err(err)? as usize;
                        let mut scores = Vec::with_capacity(count);
                        for _ in 0..count {
                            scores.push(f64::from_bits(r.get_u64().map_err(err)?));
                        }
                        BulkOutcome {
                            class: Some(class),
                            scores: Some(scores),
                            error: None,
                        }
                    }
                    2 => {
                        let mlen = r.get_u16().map_err(err)? as usize;
                        let msg = r.get_bytes(mlen).map_err(err)?;
                        BulkOutcome {
                            class: None,
                            scores: None,
                            error: Some(String::from_utf8_lossy(msg).into_owned()),
                        }
                    }
                    tag => return Err(format!("unknown bulk item tag {tag}")),
                });
            }
            resp.bulk = Some(items);
        }
        OP_ERROR => {
            let err = |e| format!("malformed error frame: {e}");
            let flags = r.get_u8().map_err(err)?;
            let mlen = r.get_u16().map_err(err)? as usize;
            let msg = r.get_bytes(mlen).map_err(err)?;
            resp.error = Some(String::from_utf8_lossy(msg).into_owned());
            resp.throttled = flags & 1 != 0;
            resp.overloaded = flags & 2 != 0;
        }
        op => return Err(format!("unknown response opcode 0x{op:02x}")),
    }
    Ok(resp)
}

/// Blocking read of one complete frame (client side).
///
/// # Errors
///
/// Propagates I/O errors; EOF mid-frame surfaces as
/// [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_frame(reader: &mut impl Read) -> std::io::Result<(FrameHeader, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header)?;
    if header[0] != MAGIC0 || header[1] != MAGIC1 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad frame magic {:02x} {:02x}", header[0], header[1]),
        ));
    }
    let id = u64::from_le_bytes(header[4..12].try_into().expect("len 8"));
    let len = u32::from_le_bytes(header[12..16].try_into().expect("len 4")) as usize;
    if len > MAX_PAYLOAD {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("oversized frame payload ({len} bytes)"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok((
        FrameHeader {
            version: header[2],
            opcode: header[3],
            id,
            len,
        },
        payload,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn feed(bytes: &[u8]) -> FrameBuffer {
        let mut fb = FrameBuffer::new();
        fb.extend(bytes);
        fb
    }

    #[test]
    fn lines_split_anywhere_come_out_whole() {
        let mut lines = LineBuffer::new();
        lines.extend(b"{\"id\":1}\n{\"i");
        assert_eq!(lines.next_line(), Some(&b"{\"id\":1}\n"[..]));
        assert_eq!(lines.next_line(), None);
        assert_eq!(lines.pending(), 3);
        lines.extend(b"d\":2}");
        assert_eq!(lines.next_line(), None);
        lines.extend(b"\n\n");
        assert_eq!(lines.next_line(), Some(&b"{\"id\":2}\n"[..]));
        assert_eq!(lines.next_line(), Some(&b"\n"[..]));
        assert_eq!(lines.next_line(), None);
        assert_eq!(lines.pending(), 0);
    }

    /// A line trickled in one byte per read, polled after every byte as
    /// the event loop polls, is searched once per byte. A buffer that
    /// rescans from its first byte on every poll needs minutes for this
    /// (1 MiB − 1)-byte line and trips the deadline.
    #[test]
    fn trickled_line_is_scanned_in_linear_time() {
        const DEADLINE: Duration = Duration::from_secs(10);
        let len = (1 << 20) - 1;
        let mut lines = LineBuffer::new();
        let started = Instant::now();
        for i in 0..len {
            lines.extend(b"x");
            assert_eq!(lines.next_line(), None);
            if i % 4096 == 0 {
                assert!(started.elapsed() < DEADLINE, "{i} bytes in {DEADLINE:?}");
            }
        }
        lines.extend(b"\n");
        assert_eq!(lines.next_line().map(<[u8]>::len), Some(len + 1));
        assert_eq!(lines.next_line(), None);
        assert!(started.elapsed() < DEADLINE, "took {:?}", started.elapsed());
    }

    #[test]
    fn classify_roundtrip() {
        let bytes = classify_frame(42, &[0, 3, 65535], true);
        let mut fb = feed(&bytes);
        let (header, payload) = fb.next_frame().unwrap().unwrap();
        assert_eq!(header.version, WIRE_VERSION);
        assert_eq!(header.id, 42);
        let req = decode_request(&header, &payload).unwrap();
        assert_eq!(
            req,
            ServerFrame::Classify {
                id: 42,
                levels: vec![0, 3, 65535],
                want_scores: true,
            }
        );
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn info_roundtrip() {
        let bytes = info_frame(7);
        let mut fb = feed(&bytes);
        let (header, payload) = fb.next_frame().unwrap().unwrap();
        assert_eq!(
            decode_request(&header, &payload),
            Ok(ServerFrame::Info { id: 7 })
        );

        let info = ServerInfo {
            backend: "avx2".to_owned(),
            dim: 10_000,
            features: 64,
            levels: 16,
            classes: 8,
            generation: 3,
            checksum: checksum_hex(0xDEAD_BEEF),
            // The v1 binary frame carries no hardened flag; the decoded
            // struct always reports false.
            hardened: false,
        };
        let bytes = info_response_frame(7, &info);
        let mut fb = feed(&bytes);
        let (header, payload) = fb.next_frame().unwrap().unwrap();
        let resp = decode_response(&header, &payload).unwrap();
        assert_eq!(resp.id, 7);
        assert_eq!(resp.info, Some(info));
    }

    #[test]
    fn responses_roundtrip_bit_identical() {
        let mut fb = feed(&class_frame(1, 3));
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let resp = decode_response(&h, &p).unwrap();
        assert_eq!((resp.id, resp.class), (1, Some(3)));

        // Score vectors survive bit-for-bit (raw f64 bits on the wire).
        let scores = [0.5, -1.0, f64::from_bits(0x3FF0_0000_0000_0001)];
        let mut fb = feed(&scores_frame(2, 0, &scores));
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let got = decode_response(&h, &p).unwrap().scores.unwrap();
        for (g, w) in got.iter().zip(&scores) {
            assert_eq!(g.to_bits(), w.to_bits());
        }

        let mut fb = feed(&error_frame(3, "query budget exhausted", true, false));
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let resp = decode_response(&h, &p).unwrap();
        assert!(resp.throttled && !resp.overloaded);
        assert_eq!(resp.error.as_deref(), Some("query budget exhausted"));

        let mut fb = feed(&error_frame(4, "pipeline window full", false, true));
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let resp = decode_response(&h, &p).unwrap();
        assert!(resp.overloaded && !resp.throttled);
    }

    #[test]
    fn search_roundtrip_bit_identical() {
        let bytes = search_frame(21, &[0, 3, 65535], 10);
        let mut fb = feed(&bytes);
        let (header, payload) = fb.next_frame().unwrap().unwrap();
        assert_eq!(
            decode_request(&header, &payload),
            Ok(ServerFrame::Search {
                id: 21,
                levels: vec![0, 3, 65535],
                k: 10,
            })
        );

        // Hits round-trip bit-for-bit (raw f64 bits on the wire).
        let hits = [
            SearchMatch {
                row: 1_000_003,
                score: f64::from_bits(0x3FF0_0000_0000_0001),
            },
            SearchMatch {
                row: 7,
                score: -0.125,
            },
        ];
        let mut fb = feed(&matches_frame(21, &hits));
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let resp = decode_response(&h, &p).unwrap();
        assert_eq!(resp.id, 21);
        let got = resp.matches.unwrap();
        assert_eq!(got.len(), 2);
        for (g, w) in got.iter().zip(&hits) {
            assert_eq!(g.row, w.row);
            assert_eq!(g.score.to_bits(), w.score.to_bits());
        }

        // k = 0 is rejected with the id intact.
        let mut w = ByteWriter::new();
        w.put_u16(0);
        w.put_u16(1);
        w.put_u16s(&[1]);
        let mut fb = feed(&frame(OP_SEARCH, 6, &w.into_bytes()));
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let (id, msg) = decode_request(&h, &p).unwrap_err();
        assert_eq!(id, 6);
        assert!(msg.contains("nonzero"));
    }

    #[test]
    fn bulk_roundtrip_bit_identical() {
        use crate::batcher::BulkItem;

        let rows: Vec<&[u16]> = vec![&[0, 3, 7], &[1, 1, 1], &[65535, 0, 2]];
        let bytes = bulk_classify_frame(13, &rows, true);
        let mut fb = feed(&bytes);
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let req = decode_request(&h, &p).unwrap();
        assert_eq!(
            req,
            ServerFrame::BulkClassify {
                id: 13,
                rows: rows.iter().map(|r| r.to_vec()).collect(),
                want_scores: true,
            }
        );

        let items = vec![
            BulkItem::Class(4),
            BulkItem::ClassWithScores(1, vec![0.5, f64::from_bits(0x3FF0_0000_0000_0001)]),
            BulkItem::Rejected("level 9 at feature 0 out of range (M = 8)".to_owned()),
        ];
        let mut fb = feed(&bulk_response_frame(13, &items));
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let resp = decode_response(&h, &p).unwrap();
        assert_eq!(resp.id, 13);
        let got = resp.bulk.unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].class, Some(4));
        assert!(got[0].scores.is_none() && got[0].error.is_none());
        assert_eq!(got[1].class, Some(1));
        let scores = got[1].scores.as_ref().unwrap();
        assert_eq!(scores[1].to_bits(), 0x3FF0_0000_0000_0001);
        assert!(got[2].error.as_deref().unwrap().contains("out of range"));

        // Zero rows and over-cap row counts are answerable errors.
        let mut w = ByteWriter::new();
        w.put_u8(0);
        w.put_u32(0);
        w.put_u16(1);
        let mut fb = feed(&frame(OP_BULK, 9, &w.into_bytes()));
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let (id, msg) = decode_request(&h, &p).unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("no rows"));

        let mut w = ByteWriter::new();
        w.put_u8(0);
        w.put_u32(MAX_BULK_ROWS as u32 + 1);
        w.put_u16(1);
        let mut fb = feed(&frame(OP_BULK, 10, &w.into_bytes()));
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let (id, msg) = decode_request(&h, &p).unwrap_err();
        assert_eq!(id, 10);
        assert!(msg.contains("cap is"));
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let bytes = classify_frame(9, &[1, 2, 3, 4], false);
        let mut fb = FrameBuffer::new();
        for chunk in bytes.chunks(3) {
            assert!(fb.next_frame().unwrap().is_none() || chunk.is_empty());
            fb.extend(chunk);
        }
        let (header, payload) = fb.next_frame().unwrap().unwrap();
        assert!(matches!(
            decode_request(&header, &payload),
            Ok(ServerFrame::Classify { id: 9, .. })
        ));
    }

    #[test]
    fn pipelined_frames_parse_in_sequence() {
        let mut bytes = classify_frame(1, &[1], false);
        bytes.extend(info_frame(2));
        bytes.extend(classify_frame(3, &[2], true));
        let mut fb = feed(&bytes);
        let mut ids = Vec::new();
        while let Some((h, _)) = fb.next_frame().unwrap() {
            ids.push(h.id);
        }
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut bytes = classify_frame(1, &[1], false);
        bytes[0] = b'{';
        let mut fb = feed(&bytes);
        assert_eq!(
            fb.next_frame(),
            Err(FatalFrameError::BadMagic([b'{', MAGIC1]))
        );
    }

    #[test]
    fn oversized_length_prefix_is_fatal_with_id() {
        let mut bytes = classify_frame(77, &[1], false);
        bytes[12..16].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        let mut fb = feed(&bytes);
        assert_eq!(
            fb.next_frame(),
            Err(FatalFrameError::Oversized {
                id: 77,
                len: MAX_PAYLOAD + 1
            })
        );
    }

    #[test]
    fn unknown_opcode_and_wrong_version_are_answerable() {
        let mut bytes = classify_frame(5, &[1], false);
        bytes[3] = 0x7E; // unknown opcode
        let mut fb = feed(&bytes);
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let (id, msg) = decode_request(&h, &p).unwrap_err();
        assert_eq!(id, 5);
        assert!(msg.contains("opcode"));

        let mut bytes = classify_frame(6, &[1], false);
        bytes[2] = WIRE_VERSION + 1;
        let mut fb = feed(&bytes);
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let (id, msg) = decode_request(&h, &p).unwrap_err();
        assert_eq!(id, 6);
        assert!(msg.contains("version"));
    }

    #[test]
    fn truncated_payload_fields_are_answerable() {
        // Declared length is honored by framing, but the classify
        // payload inside claims more levels than it carries.
        let mut w = ByteWriter::new();
        w.put_u8(0);
        w.put_u16(10); // claims 10 levels…
        w.put_u16s(&[1, 2]); // …carries 2
        let bytes = frame(OP_CLASSIFY, 8, &w.into_bytes());
        let mut fb = feed(&bytes);
        let (h, p) = fb.next_frame().unwrap().unwrap();
        let (id, msg) = decode_request(&h, &p).unwrap_err();
        assert_eq!(id, 8);
        assert!(msg.contains("malformed classify payload"));
    }

    #[test]
    fn buffer_compacts_consumed_prefix() {
        let mut fb = FrameBuffer::new();
        for i in 0..5000u64 {
            fb.extend(&classify_frame(i, &[1, 2, 3], false));
            let (h, _) = fb.next_frame().unwrap().unwrap();
            assert_eq!(h.id, i);
        }
        // The consumed prefix must not accumulate forever.
        assert!(fb.buf.len() < 16 * 1024, "buffer grew to {}", fb.buf.len());
    }

    #[test]
    fn read_frame_blocking_roundtrip() {
        let bytes = classify_frame(11, &[4, 5], false);
        let mut cursor = &bytes[..];
        let (header, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!(header.id, 11);
        assert!(decode_request(&header, &payload).is_ok());

        // EOF mid-frame is UnexpectedEof, not a panic.
        let mut cursor = &bytes[..7];
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }
}
