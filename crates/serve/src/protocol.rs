//! Line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, over a plain TCP
//! stream — trivially scriptable (`nc`, any language) and cheap enough
//! to parse that the encode+search kernels stay the bottleneck.
//!
//! ```text
//! → {"id":1,"levels":[0,3,2,1]}
//! ← {"id":1,"class":2}
//! → {"id":2,"levels":[0,3,2,1],"scores":true}
//! ← {"id":2,"class":2,"scores":[0.12,-0.03,0.57]}
//! → {"id":3,"levels":[99]}
//! ← {"id":3,"error":"row has 1 levels, model expects 4"}
//! → {"id":4,"info":true}
//! ← {"id":4,"info":{"backend":"avx2","dim":10000,"features":64,"levels":16,
//!    "classes":8,"generation":3,"checksum":"a1b2c3d4e5f60789","hardened":false}}
//! → {"id":5,"levels":[0,3,2,1],"search":{"k":3}}
//! ← {"id":5,"matches":[{"row":41,"score":0.93},{"row":7,"score":0.41},
//!    {"row":1003,"score":0.40}]}
//! ```
//!
//! A `search` request runs top-k similarity search over the serving
//! model's row memory instead of top-1 classification: the response
//! carries the best `k` rows, best-first (ties broken toward the lowest
//! row id), with their exact similarity scores.
//!
//! The `info` request reports the serving model's shape, the active
//! SIMD kernel backend, and the active model **generation id** and
//! snapshot **checksum**, so clients can detect a hot swap from the
//! wire.
//!
//! ## Admin requests
//!
//! ```text
//! → {"id":5,"stats":true}
//! ← {"id":5,"stats":{"generation":3,"checksum":"…","locked":true,"hardened":false,
//!    "reloads":1,"rekeys":1,"rollbacks":0,"requests":9041,"throttled":12}}
//! → {"id":6,"reload":{"snapshot":"/models/v7.hdsn","key":"/keys/v7.hdky"}}
//! ← {"id":6,"swapped":{"generation":4,"checksum":"…"}}
//! → {"id":7,"rekey":20240317}
//! ← {"id":7,"swapped":{"generation":5,"checksum":"…"}}
//! ```
//!
//! ## Streamed snapshot transfer
//!
//! Snapshots too large to pre-place on the server's filesystem stream
//! over the wire in base64 chunks, staged server-side and committed as
//! a hot swap (each chunk is acked with the cumulative byte count):
//!
//! ```text
//! → {"id":8,"xfer":{"begin":1048576}}
//! ← {"id":8,"xfer":{"received":0}}
//! → {"id":9,"xfer":{"chunk":"SERTTg…"}}
//! ← {"id":9,"xfer":{"received":65536}}
//! → {"id":10,"xfer":{"commit":{"key":"/keys/v7.hdky"}}}
//! ← {"id":10,"swapped":{"generation":4,"checksum":"…"}}
//! ```
//!
//! ## Throttling
//!
//! A client over its admission budget receives a **structured**
//! throttle error — `{"id":…,"error":"…","throttled":true}` — so
//! well-behaved clients can distinguish back-off from hard failures.
//!
//! Requests are parsed through the vendored `serde_json` stand-in into
//! its [`Value`] tree; responses are rendered directly (the numeric
//! formats are plain Rust `Display`, which round-trips through the
//! parser).

use serde_json::Value;

/// An administrative operation carried by a request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminRequest {
    /// Hot-reload a snapshot file (plus optional sealed key segment).
    Reload {
        /// Path of the `.hdsn` snapshot on the server's filesystem.
        snapshot: String,
        /// Path of the sealed key segment, for locked snapshots.
        key: Option<String>,
    },
    /// Re-key the serving locked model with this seed.
    Rekey {
        /// Seed of the fresh random key (deterministic rotation).
        seed: u64,
    },
    /// Report registry + serving counters.
    Stats,
    /// Report the full telemetry snapshot (requires a server started
    /// with metrics enabled).
    Metrics,
    /// Begin a streamed snapshot transfer of `len` bytes (discards any
    /// transfer already in progress on this connection).
    XferBegin {
        /// Declared total snapshot length in bytes.
        len: u64,
    },
    /// Append a chunk of bytes to the in-progress snapshot transfer.
    XferChunk {
        /// Raw chunk bytes (base64-decoded from the wire).
        data: Vec<u8>,
    },
    /// Verify the completed transfer and hot-swap it in.
    XferCommit {
        /// Path of the sealed key segment, for locked snapshots.
        key: Option<String>,
    },
    /// Abort and discard the in-progress transfer.
    XferAbort,
}

/// A parsed classify request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifyRequest {
    /// Client-chosen correlation id, echoed back in the response.
    pub id: u64,
    /// Quantized feature row (level indices); empty for info/admin
    /// requests.
    pub levels: Vec<u16>,
    /// Whether to return the full per-class score vector.
    pub want_scores: bool,
    /// Whether this is a server-info request instead of a classify.
    pub want_info: bool,
    /// `Some(k)` turns the request into a top-k similarity search over
    /// the row memory instead of a top-1 classification.
    pub search_k: Option<usize>,
    /// Administrative operation, when this is an admin request.
    pub admin: Option<AdminRequest>,
}

/// One top-k search hit: a row memory index and its exact similarity
/// score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchMatch {
    /// Row index in the serving model's row memory.
    pub row: u32,
    /// Exact similarity score of that row against the query.
    pub score: f64,
}

/// Server shape and runtime facts reported by an info response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// Active SIMD kernel backend (`scalar`, `avx2` or `avx512`).
    pub backend: String,
    /// Hypervector dimensionality `D`.
    pub dim: usize,
    /// Input feature count `N`.
    pub features: usize,
    /// Quantization level count `M`.
    pub levels: usize,
    /// Class count `C`.
    pub classes: usize,
    /// Active model generation (a server boots on generation 1).
    pub generation: u64,
    /// Active snapshot checksum, 16 hex digits.
    pub checksum: String,
    /// Whether the serving model runs in constant-time hardened mode.
    pub hardened: bool,
}

/// Identity of a freshly swapped-in generation (reload/rekey response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapInfo {
    /// New generation id.
    pub generation: u64,
    /// New snapshot checksum, 16 hex digits.
    pub checksum: String,
}

/// Registry + serving counters reported by a stats response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReport {
    /// Currently serving generation id.
    pub generation: u64,
    /// Currently serving snapshot checksum, 16 hex digits.
    pub checksum: String,
    /// Whether the serving model is locked.
    pub locked: bool,
    /// Whether the serving model runs in constant-time hardened mode.
    pub hardened: bool,
    /// Completed reload swaps.
    pub reloads: u64,
    /// Completed rekey swaps.
    pub rekeys: u64,
    /// Completed rollbacks.
    pub rollbacks: u64,
    /// Requests answered since boot.
    pub requests: u64,
    /// Requests rejected by admission control since boot.
    pub throttled: u64,
    /// Seconds this server core has been running.
    pub uptime_secs: u64,
    /// Requests that arrived on the JSON wire.
    pub requests_json: u64,
    /// Requests that arrived on the binary wire.
    pub requests_binary: u64,
    /// Connections currently open.
    pub active_connections: u64,
}

/// Outcome of one row of a bulk classify (client side).
#[derive(Debug, Clone, PartialEq)]
pub struct BulkOutcome {
    /// Predicted class, when the row succeeded.
    pub class: Option<usize>,
    /// Per-class scores, when requested and the row succeeded.
    pub scores: Option<Vec<f64>>,
    /// Error message, when the row was rejected.
    pub error: Option<String>,
}

/// A parsed classify response (client side).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyResponse {
    /// Echoed correlation id.
    pub id: u64,
    /// Predicted class, when the request succeeded.
    pub class: Option<usize>,
    /// Per-class scores, when requested.
    pub scores: Option<Vec<f64>>,
    /// Top-k hits, when this answers a search request (best-first).
    pub matches: Option<Vec<SearchMatch>>,
    /// Server info, when this answers an info request.
    pub info: Option<ServerInfo>,
    /// New generation identity, when this answers a reload/rekey.
    pub swapped: Option<SwapInfo>,
    /// Counters, when this answers a stats request.
    pub stats: Option<StatsReport>,
    /// Per-row outcomes, in request order, when this answers a bulk
    /// classify frame.
    pub bulk: Option<Vec<BulkOutcome>>,
    /// Cumulative bytes staged so far, when this acks a snapshot
    /// transfer request.
    pub xfer_received: Option<u64>,
    /// Error message, when the request failed.
    pub error: Option<String>,
    /// Whether the error is an admission throttle (back off and retry
    /// later) rather than a hard failure.
    pub throttled: bool,
    /// Whether the error is pipeline back-pressure: the connection's
    /// in-flight window is full, so the client should drain responses
    /// before sending more requests.
    pub overloaded: bool,
}

/// Best-effort request-id recovery from a line that failed to parse as
/// JSON (or parsed without a numeric `id`): scans for an `"id"` key and
/// reads the digits after its colon. Pipelined clients have several
/// requests in flight at once, so an error they cannot correlate to a
/// request is an error they cannot handle — every failure response must
/// echo the id whenever any recognizable id is present, even on a
/// truncated or otherwise mangled line. Returns 0 when nothing
/// recoverable is found.
#[must_use]
pub fn recover_id(line: &str) -> u64 {
    let Some(key) = line.find("\"id\"") else {
        return 0;
    };
    let rest = line[key + 4..].trim_start();
    let Some(rest) = rest.strip_prefix(':') else {
        return 0;
    };
    let rest = rest.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or(0)
}

/// Renders a `u64` checksum as the wire's 16-hex-digit form.
#[must_use]
pub fn checksum_hex(checksum: u64) -> String {
    format!("{checksum:016x}")
}

/// Parses one request line.
///
/// # Errors
///
/// Returns `(id, message)` — `id` is the request's id when it could be
/// recovered (so the error response still correlates), 0 otherwise.
pub fn parse_request(line: &str) -> Result<ClassifyRequest, (u64, String)> {
    let value: Value = serde_json::from_str(line.trim())
        .map_err(|e| (recover_id(line), format!("malformed JSON: {e}")))?;
    let id = value
        .get("id")
        .and_then(Value::as_u64)
        .ok_or((recover_id(line), "missing numeric `id`".to_owned()))?;
    let bare = |admin: Option<AdminRequest>, want_info: bool| ClassifyRequest {
        id,
        levels: Vec::new(),
        want_scores: false,
        want_info,
        search_k: None,
        admin,
    };
    if matches!(value.get("info"), Some(Value::Bool(true))) {
        return Ok(bare(None, true));
    }
    if matches!(value.get("stats"), Some(Value::Bool(true))) {
        return Ok(bare(Some(AdminRequest::Stats), false));
    }
    if matches!(value.get("metrics"), Some(Value::Bool(true))) {
        return Ok(bare(Some(AdminRequest::Metrics), false));
    }
    if let Some(reload) = value.get("reload") {
        let snapshot = reload
            .get("snapshot")
            .and_then(Value::as_str)
            .ok_or((id, "`reload` needs a `snapshot` path".to_owned()))?
            .to_owned();
        let key = reload.get("key").and_then(Value::as_str).map(str::to_owned);
        return Ok(bare(Some(AdminRequest::Reload { snapshot, key }), false));
    }
    if let Some(rekey) = value.get("rekey") {
        let seed = rekey
            .as_u64()
            .ok_or((id, "`rekey` needs a numeric seed".to_owned()))?;
        return Ok(bare(Some(AdminRequest::Rekey { seed }), false));
    }
    if let Some(xfer) = value.get("xfer") {
        return parse_xfer(id, xfer).map(|admin| bare(Some(admin), false));
    }
    let levels_value = value
        .get("levels")
        .and_then(Value::as_array)
        .ok_or((id, "missing `levels` array".to_owned()))?;
    let mut levels = Vec::with_capacity(levels_value.len());
    for (i, lv) in levels_value.iter().enumerate() {
        let n = lv
            .as_u64()
            .and_then(|n| u16::try_from(n).ok())
            .ok_or((id, format!("level {i} is not a u16")))?;
        levels.push(n);
    }
    let want_scores = matches!(value.get("scores"), Some(Value::Bool(true)));
    let search_k = match value.get("search") {
        Some(search) => {
            let k = search
                .get("k")
                .and_then(Value::as_u64)
                .ok_or((id, "`search` needs a numeric `k`".to_owned()))?;
            if k == 0 || k > u64::from(u16::MAX) {
                return Err((id, format!("search k {k} out of range (1..=65535)")));
            }
            Some(k as usize)
        }
        None => None,
    };
    Ok(ClassifyRequest {
        id,
        levels,
        want_scores,
        want_info: false,
        search_k,
        admin: None,
    })
}

/// Parses the body of an `xfer` request object.
fn parse_xfer(id: u64, xfer: &Value) -> Result<AdminRequest, (u64, String)> {
    if let Some(len) = xfer.get("begin") {
        let len = len
            .as_u64()
            .ok_or((id, "`xfer.begin` needs a numeric byte length".to_owned()))?;
        return Ok(AdminRequest::XferBegin { len });
    }
    if let Some(chunk) = xfer.get("chunk") {
        let encoded = chunk
            .as_str()
            .ok_or((id, "`xfer.chunk` needs a base64 string".to_owned()))?;
        let data =
            base64_decode(encoded).map_err(|e| (id, format!("bad `xfer.chunk` base64: {e}")))?;
        return Ok(AdminRequest::XferChunk { data });
    }
    if let Some(commit) = xfer.get("commit") {
        let key = commit.get("key").and_then(Value::as_str).map(str::to_owned);
        return Ok(AdminRequest::XferCommit { key });
    }
    if matches!(xfer.get("abort"), Some(Value::Bool(true))) {
        return Ok(AdminRequest::XferAbort);
    }
    Err((
        id,
        "`xfer` needs one of `begin`, `chunk`, `commit` or `abort`".to_owned(),
    ))
}

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard padded base64 (RFC 4648) for `xfer.chunk`
/// payloads. Hand-rolled: the wire must not depend on crates the build
/// environment cannot fetch.
#[must_use]
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = u32::from(chunk[0]);
        let b1 = u32::from(chunk.get(1).copied().unwrap_or(0));
        let b2 = u32::from(chunk.get(2).copied().unwrap_or(0));
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(BASE64_ALPHABET[(triple >> 18) as usize & 63] as char);
        out.push(BASE64_ALPHABET[(triple >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            BASE64_ALPHABET[(triple >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            BASE64_ALPHABET[triple as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes standard padded base64.
///
/// # Errors
///
/// Returns a message on stray characters, bad length, or misplaced
/// padding.
pub fn base64_decode(text: &str) -> Result<Vec<u8>, String> {
    fn val(b: u8) -> Result<u32, String> {
        match b {
            b'A'..=b'Z' => Ok(u32::from(b - b'A')),
            b'a'..=b'z' => Ok(u32::from(b - b'a') + 26),
            b'0'..=b'9' => Ok(u32::from(b - b'0') + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            _ => Err(format!("stray byte 0x{b:02x}")),
        }
    }
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!("length {} is not a multiple of 4", bytes.len()));
    }
    let quads = bytes.len() / 4;
    let mut out = Vec::with_capacity(quads * 3);
    for (i, quad) in bytes.chunks(4).enumerate() {
        let pad = if quad[3] == b'=' {
            if quad[2] == b'=' {
                2
            } else {
                1
            }
        } else {
            0
        };
        if pad > 0 && i + 1 != quads {
            return Err("`=` padding before the final group".to_owned());
        }
        if quad[..4 - pad].contains(&b'=') {
            return Err("`=` inside a group".to_owned());
        }
        let mut triple = 0u32;
        for &b in &quad[..4 - pad] {
            triple = (triple << 6) | val(b)?;
        }
        triple <<= 6 * pad as u32;
        out.push((triple >> 16) as u8);
        if pad < 2 {
            out.push((triple >> 8) as u8);
        }
        if pad == 0 {
            out.push(triple as u8);
        }
    }
    Ok(out)
}

/// Renders an info request line (client side), with trailing newline.
#[must_use]
pub fn info_request_line(id: u64) -> String {
    format!("{{\"id\":{id},\"info\":true}}\n")
}

/// Renders a stats request line (client side), with trailing newline.
#[must_use]
pub fn stats_request_line(id: u64) -> String {
    format!("{{\"id\":{id},\"stats\":true}}\n")
}

/// Renders a metrics request line (client side), with trailing newline.
#[must_use]
pub fn metrics_request_line(id: u64) -> String {
    format!("{{\"id\":{id},\"metrics\":true}}\n")
}

/// Renders a reload request line (client side), with trailing newline.
/// Paths are JSON-escaped.
#[must_use]
pub fn reload_request_line(id: u64, snapshot: &str, key: Option<&str>) -> String {
    let mut out = format!(
        "{{\"id\":{id},\"reload\":{{\"snapshot\":\"{}\"",
        escape(snapshot)
    );
    if let Some(key) = key {
        out.push_str(&format!(",\"key\":\"{}\"", escape(key)));
    }
    out.push_str("}}\n");
    out
}

/// Renders a rekey request line (client side), with trailing newline.
#[must_use]
pub fn rekey_request_line(id: u64, seed: u64) -> String {
    format!("{{\"id\":{id},\"rekey\":{seed}}}\n")
}

/// Renders an info response line (with trailing newline). The backend
/// name is emitted as-is; backend names are plain identifiers.
#[must_use]
pub fn info_response(id: u64, info: &ServerInfo) -> String {
    format!(
        "{{\"id\":{id},\"info\":{{\"backend\":\"{}\",\"dim\":{},\"features\":{},\
         \"levels\":{},\"classes\":{},\"generation\":{},\"checksum\":\"{}\",\
         \"hardened\":{}}}}}\n",
        info.backend,
        info.dim,
        info.features,
        info.levels,
        info.classes,
        info.generation,
        info.checksum,
        info.hardened
    )
}

/// Renders a swap (reload/rekey success) response line.
#[must_use]
pub fn swap_response(id: u64, swap: &SwapInfo) -> String {
    format!(
        "{{\"id\":{id},\"swapped\":{{\"generation\":{},\"checksum\":\"{}\"}}}}\n",
        swap.generation, swap.checksum
    )
}

/// Renders a stats response line.
#[must_use]
pub fn stats_response(id: u64, stats: &StatsReport) -> String {
    format!(
        "{{\"id\":{id},\"stats\":{{\"generation\":{},\"checksum\":\"{}\",\"locked\":{},\
         \"hardened\":{},\"reloads\":{},\"rekeys\":{},\"rollbacks\":{},\"requests\":{},\
         \"throttled\":{},\"uptime_secs\":{},\"requests_json\":{},\"requests_binary\":{},\
         \"active_connections\":{}}}}}\n",
        stats.generation,
        stats.checksum,
        stats.locked,
        stats.hardened,
        stats.reloads,
        stats.rekeys,
        stats.rollbacks,
        stats.requests,
        stats.throttled,
        stats.uptime_secs,
        stats.requests_json,
        stats.requests_binary,
        stats.active_connections
    )
}

/// Renders an xfer-begin request line (client side), with trailing
/// newline.
#[must_use]
pub fn xfer_begin_line(id: u64, len: u64) -> String {
    format!("{{\"id\":{id},\"xfer\":{{\"begin\":{len}}}}}\n")
}

/// Renders an xfer-chunk request line (client side), with trailing
/// newline. The chunk bytes are base64-encoded.
#[must_use]
pub fn xfer_chunk_line(id: u64, data: &[u8]) -> String {
    format!(
        "{{\"id\":{id},\"xfer\":{{\"chunk\":\"{}\"}}}}\n",
        base64_encode(data)
    )
}

/// Renders an xfer-commit request line (client side), with trailing
/// newline. The key path is JSON-escaped.
#[must_use]
pub fn xfer_commit_line(id: u64, key: Option<&str>) -> String {
    match key {
        Some(key) => format!(
            "{{\"id\":{id},\"xfer\":{{\"commit\":{{\"key\":\"{}\"}}}}}}\n",
            escape(key)
        ),
        None => format!("{{\"id\":{id},\"xfer\":{{\"commit\":{{}}}}}}\n"),
    }
}

/// Renders an xfer-abort request line (client side), with trailing
/// newline.
#[must_use]
pub fn xfer_abort_line(id: u64) -> String {
    format!("{{\"id\":{id},\"xfer\":{{\"abort\":true}}}}\n")
}

/// Renders a snapshot-transfer ack line: the cumulative bytes staged so
/// far on this connection's transfer.
#[must_use]
pub fn xfer_response(id: u64, received: u64) -> String {
    format!("{{\"id\":{id},\"xfer\":{{\"received\":{received}}}}}\n")
}

/// Renders a snapshot-transfer abort ack line (bytes discarded).
#[must_use]
pub fn xfer_abort_response(id: u64, received: u64) -> String {
    format!("{{\"id\":{id},\"xfer\":{{\"received\":{received},\"aborted\":true}}}}\n")
}

/// Renders a request line (client side). The line includes the trailing
/// newline.
#[must_use]
pub fn request_line(id: u64, levels: &[u16], want_scores: bool) -> String {
    let mut out = format!("{{\"id\":{id},\"levels\":[");
    for (i, lv) in levels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&lv.to_string());
    }
    out.push(']');
    if want_scores {
        out.push_str(",\"scores\":true");
    }
    out.push_str("}\n");
    out
}

/// Renders a top-k search request line (client side), with trailing
/// newline.
#[must_use]
pub fn search_request_line(id: u64, levels: &[u16], k: usize) -> String {
    let mut out = format!("{{\"id\":{id},\"levels\":[");
    for (i, lv) in levels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&lv.to_string());
    }
    out.push_str(&format!("],\"search\":{{\"k\":{k}}}}}\n"));
    out
}

/// Renders a top-k search response line (with trailing newline), hits
/// best-first.
#[must_use]
pub fn matches_response(id: u64, matches: &[SearchMatch]) -> String {
    let mut out = format!("{{\"id\":{id},\"matches\":[");
    for (i, m) in matches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `{:?}` keeps a decimal point / exponent, so the score reads
        // back as a float.
        out.push_str(&format!("{{\"row\":{},\"score\":{:?}}}", m.row, m.score));
    }
    out.push_str("]}\n");
    out
}

/// Renders a success response line (with trailing newline).
#[must_use]
pub fn ok_response(id: u64, class: usize, scores: Option<&[f64]>) -> String {
    let mut out = format!("{{\"id\":{id},\"class\":{class}");
    if let Some(scores) = scores {
        out.push_str(",\"scores\":[");
        for (i, s) in scores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // `{s:?}` keeps a decimal point / exponent, so the value
            // reads back as a float.
            out.push_str(&format!("{s:?}"));
        }
        out.push(']');
    }
    out.push_str("}\n");
    out
}

/// Renders a bulk-classify response line: one outcome object per row,
/// in request order. The JSON wire never carries bulk requests (they
/// are a binary-frame optimization), but rendering keeps the completion
/// path wire-agnostic.
#[must_use]
pub fn bulk_response(id: u64, items: &[crate::batcher::BulkItem]) -> String {
    use crate::batcher::BulkItem;
    let mut out = format!("{{\"id\":{id},\"bulk\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match item {
            BulkItem::Class(class) => out.push_str(&format!("{{\"class\":{class}}}")),
            BulkItem::ClassWithScores(class, scores) => {
                out.push_str(&format!("{{\"class\":{class},\"scores\":["));
                for (j, s) in scores.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    // `{s:?}` keeps a decimal point / exponent, so the
                    // value reads back as a float.
                    out.push_str(&format!("{s:?}"));
                }
                out.push_str("]}");
            }
            BulkItem::Rejected(msg) => {
                out.push_str(&format!("{{\"error\":\"{}\"}}", escape(msg)));
            }
        }
    }
    out.push_str("]}\n");
    out
}

fn escape(message: &str) -> String {
    message
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// Renders an error response line (with trailing newline).
#[must_use]
pub fn error_response(id: u64, message: &str) -> String {
    format!("{{\"id\":{id},\"error\":\"{}\"}}\n", escape(message))
}

/// Renders a structured admission-throttle error response line: carries
/// `"throttled":true` so clients can tell back-off from hard failure.
#[must_use]
pub fn throttle_response(id: u64, message: &str) -> String {
    format!(
        "{{\"id\":{id},\"error\":\"{}\",\"throttled\":true}}\n",
        escape(message)
    )
}

/// Renders a structured pipeline-overload error response line: carries
/// `"overloaded":true` so pipelined clients know to drain in-flight
/// responses before issuing more requests.
#[must_use]
pub fn overload_response(id: u64, message: &str) -> String {
    format!(
        "{{\"id\":{id},\"error\":\"{}\",\"overloaded\":true}}\n",
        escape(message)
    )
}

/// Parses one response line (client side).
///
/// # Errors
///
/// Returns a message for malformed lines.
pub fn parse_response(line: &str) -> Result<ClassifyResponse, String> {
    let value: Value =
        serde_json::from_str(line.trim()).map_err(|e| format!("malformed JSON: {e}"))?;
    let id = value
        .get("id")
        .and_then(Value::as_u64)
        .ok_or_else(|| "missing numeric `id`".to_owned())?;
    let class = value
        .get("class")
        .and_then(Value::as_u64)
        .map(|c| c as usize);
    let scores = match value.get("scores").and_then(Value::as_array) {
        Some(arr) => {
            let mut out = Vec::with_capacity(arr.len());
            for s in arr {
                out.push(s.as_f64().ok_or_else(|| "non-numeric score".to_owned())?);
            }
            Some(out)
        }
        None => None,
    };
    let info = match value.get("info") {
        Some(obj) => Some(ServerInfo {
            backend: obj
                .get("backend")
                .and_then(Value::as_str)
                .ok_or_else(|| "info without `backend`".to_owned())?
                .to_owned(),
            dim: info_field(obj, "dim")?,
            features: info_field(obj, "features")?,
            levels: info_field(obj, "levels")?,
            classes: info_field(obj, "classes")?,
            generation: obj.get("generation").and_then(Value::as_u64).unwrap_or(0),
            checksum: obj
                .get("checksum")
                .and_then(Value::as_str)
                .unwrap_or("0000000000000000")
                .to_owned(),
            // Absent on pre-hardening servers; false keeps old
            // responses parseable.
            hardened: matches!(obj.get("hardened"), Some(Value::Bool(true))),
        }),
        None => None,
    };
    let swapped = match value.get("swapped") {
        Some(obj) => Some(SwapInfo {
            generation: obj
                .get("generation")
                .and_then(Value::as_u64)
                .ok_or_else(|| "swap without numeric `generation`".to_owned())?,
            checksum: obj
                .get("checksum")
                .and_then(Value::as_str)
                .ok_or_else(|| "swap without `checksum`".to_owned())?
                .to_owned(),
        }),
        None => None,
    };
    let stats = match value.get("stats") {
        Some(obj) => Some(StatsReport {
            generation: stat_field(obj, "generation")?,
            checksum: obj
                .get("checksum")
                .and_then(Value::as_str)
                .ok_or_else(|| "stats without `checksum`".to_owned())?
                .to_owned(),
            locked: matches!(obj.get("locked"), Some(Value::Bool(true))),
            hardened: matches!(obj.get("hardened"), Some(Value::Bool(true))),
            reloads: stat_field(obj, "reloads")?,
            rekeys: stat_field(obj, "rekeys")?,
            rollbacks: stat_field(obj, "rollbacks")?,
            requests: stat_field(obj, "requests")?,
            throttled: stat_field(obj, "throttled")?,
            // Absent on pre-telemetry servers; default 0 keeps old
            // responses parseable.
            uptime_secs: opt_stat_field(obj, "uptime_secs"),
            requests_json: opt_stat_field(obj, "requests_json"),
            requests_binary: opt_stat_field(obj, "requests_binary"),
            active_connections: opt_stat_field(obj, "active_connections"),
        }),
        None => None,
    };
    let matches = match value.get("matches").and_then(Value::as_array) {
        Some(arr) => {
            let mut out = Vec::with_capacity(arr.len());
            for m in arr {
                let row = m
                    .get("row")
                    .and_then(Value::as_u64)
                    .and_then(|r| u32::try_from(r).ok())
                    .ok_or_else(|| "match without numeric `row`".to_owned())?;
                let score = m
                    .get("score")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| "match without numeric `score`".to_owned())?;
                out.push(SearchMatch { row, score });
            }
            Some(out)
        }
        None => None,
    };
    let bulk = match value.get("bulk").and_then(Value::as_array) {
        Some(arr) => {
            let mut out = Vec::with_capacity(arr.len());
            for item in arr {
                let class = item
                    .get("class")
                    .and_then(Value::as_u64)
                    .map(|c| c as usize);
                let scores = match item.get("scores").and_then(Value::as_array) {
                    Some(sarr) => {
                        let mut s = Vec::with_capacity(sarr.len());
                        for v in sarr {
                            s.push(
                                v.as_f64()
                                    .ok_or_else(|| "non-numeric bulk score".to_owned())?,
                            );
                        }
                        Some(s)
                    }
                    None => None,
                };
                let error = item.get("error").and_then(Value::as_str).map(str::to_owned);
                if class.is_none() && error.is_none() {
                    return Err("bulk item carries neither `class` nor `error`".to_owned());
                }
                out.push(BulkOutcome {
                    class,
                    scores,
                    error,
                });
            }
            Some(out)
        }
        None => None,
    };
    let xfer_received = value
        .get("xfer")
        .and_then(|x| x.get("received"))
        .and_then(Value::as_u64);
    let error = value
        .get("error")
        .and_then(Value::as_str)
        .map(str::to_owned);
    let throttled = matches!(value.get("throttled"), Some(Value::Bool(true)));
    let overloaded = matches!(value.get("overloaded"), Some(Value::Bool(true)));
    if class.is_none()
        && matches.is_none()
        && bulk.is_none()
        && error.is_none()
        && info.is_none()
        && swapped.is_none()
        && stats.is_none()
        && xfer_received.is_none()
    {
        return Err(
            "response carries neither `class`, `matches`, `bulk`, `info`, `swapped`, `stats`, \
             `xfer` nor `error`"
                .to_owned(),
        );
    }
    Ok(ClassifyResponse {
        id,
        class,
        scores,
        matches,
        info,
        swapped,
        stats,
        bulk,
        xfer_received,
        error,
        throttled,
        overloaded,
    })
}

/// Extracts one numeric field of an info response object.
fn info_field(obj: &Value, key: &str) -> Result<usize, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| format!("info without numeric `{key}`"))
}

/// Extracts one numeric field of a stats response object.
fn stat_field(obj: &Value, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("stats without numeric `{key}`"))
}

/// Extracts an optional numeric stats field (0 when absent).
fn opt_stat_field(obj: &Value, key: &str) -> u64 {
    obj.get(key).and_then(Value::as_u64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let line = request_line(42, &[0, 3, 65535], true);
        let req = parse_request(&line).unwrap();
        assert_eq!(
            req,
            ClassifyRequest {
                id: 42,
                levels: vec![0, 3, 65535],
                want_scores: true,
                want_info: false,
                search_k: None,
                admin: None,
            }
        );
        let plain = parse_request(&request_line(7, &[1], false)).unwrap();
        assert!(!plain.want_scores);
    }

    #[test]
    fn search_roundtrip() {
        let req = parse_request(&search_request_line(13, &[0, 2, 1], 5)).unwrap();
        assert_eq!(req.id, 13);
        assert_eq!(req.levels, vec![0, 2, 1]);
        assert_eq!(req.search_k, Some(5));
        assert!(req.admin.is_none() && !req.want_info && !req.want_scores);

        let hits = [
            SearchMatch {
                row: 41,
                score: 0.9375,
            },
            SearchMatch {
                row: 7,
                score: -0.125,
            },
        ];
        let resp = parse_response(&matches_response(13, &hits)).unwrap();
        assert_eq!(resp.id, 13);
        assert_eq!(resp.matches, Some(hits.to_vec()));
        assert!(resp.class.is_none() && resp.error.is_none());

        // Empty hit lists are a valid payload (k = 0 never reaches the
        // wire, but an empty memory could produce this).
        let resp = parse_response(&matches_response(14, &[])).unwrap();
        assert_eq!(resp.matches, Some(Vec::new()));

        // k bounds are enforced at parse time, with the id kept.
        let (id, msg) =
            parse_request("{\"id\":9,\"levels\":[1],\"search\":{\"k\":0}}").unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("out of range"));
        let (id, _) =
            parse_request("{\"id\":8,\"levels\":[1],\"search\":{\"k\":70000}}").unwrap_err();
        assert_eq!(id, 8);
        let (id, msg) = parse_request("{\"id\":7,\"levels\":[1],\"search\":{}}").unwrap_err();
        assert_eq!(id, 7);
        assert!(msg.contains('k'));
    }

    #[test]
    fn info_roundtrip() {
        let req = parse_request(&info_request_line(11)).unwrap();
        assert!(req.want_info);
        assert!(req.admin.is_none());
        let info = ServerInfo {
            backend: "avx2".to_owned(),
            dim: 10_000,
            features: 64,
            levels: 16,
            classes: 8,
            generation: 3,
            checksum: checksum_hex(0xDEAD_BEEF),
            hardened: true,
        };
        let resp = parse_response(&info_response(11, &info)).unwrap();
        assert_eq!(resp.id, 11);
        assert_eq!(resp.info, Some(info));
        assert!(resp.class.is_none() && resp.error.is_none());
    }

    #[test]
    fn admin_request_roundtrips() {
        let req = parse_request(&stats_request_line(1)).unwrap();
        assert_eq!(req.admin, Some(AdminRequest::Stats));

        let req = parse_request(&reload_request_line(2, "/m/v7.hdsn", Some("/k/v7.hdky"))).unwrap();
        assert_eq!(
            req.admin,
            Some(AdminRequest::Reload {
                snapshot: "/m/v7.hdsn".to_owned(),
                key: Some("/k/v7.hdky".to_owned()),
            })
        );
        let req = parse_request(&reload_request_line(3, "/m/v8.hdsn", None)).unwrap();
        assert_eq!(
            req.admin,
            Some(AdminRequest::Reload {
                snapshot: "/m/v8.hdsn".to_owned(),
                key: None,
            })
        );

        let req = parse_request(&rekey_request_line(4, 20_240_317)).unwrap();
        assert_eq!(req.admin, Some(AdminRequest::Rekey { seed: 20_240_317 }));

        // Malformed admin requests keep the id.
        let (id, msg) = parse_request("{\"id\":9,\"reload\":{}}").unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("snapshot"));
        let (id, _) = parse_request("{\"id\":8,\"rekey\":\"soon\"}").unwrap_err();
        assert_eq!(id, 8);
    }

    #[test]
    fn swap_and_stats_roundtrip() {
        let swap = SwapInfo {
            generation: 4,
            checksum: checksum_hex(7),
        };
        let resp = parse_response(&swap_response(6, &swap)).unwrap();
        assert_eq!(resp.swapped, Some(swap));

        let stats = StatsReport {
            generation: 4,
            checksum: checksum_hex(7),
            locked: true,
            hardened: true,
            reloads: 1,
            rekeys: 2,
            rollbacks: 0,
            requests: 9000,
            throttled: 12,
            uptime_secs: 3600,
            requests_json: 8000,
            requests_binary: 1000,
            active_connections: 7,
        };
        let resp = parse_response(&stats_response(5, &stats)).unwrap();
        assert_eq!(resp.stats, Some(stats));

        // Pre-telemetry stats lines (no uptime/wire/connection fields)
        // still parse, defaulting the new fields to 0.
        let legacy = "{\"id\":5,\"stats\":{\"generation\":4,\"checksum\":\"0000000000000007\",\
                      \"locked\":true,\"reloads\":1,\"rekeys\":2,\"rollbacks\":0,\
                      \"requests\":9000,\"throttled\":12}}\n";
        let resp = parse_response(legacy).unwrap();
        let got = resp.stats.unwrap();
        assert_eq!(got.uptime_secs, 0);
        assert_eq!(got.requests_json, 0);
        assert_eq!(got.active_connections, 0);
        assert!(!got.hardened, "pre-hardening stats default to false");
    }

    #[test]
    fn metrics_request_parses_as_admin() {
        let req = parse_request(&metrics_request_line(6)).unwrap();
        assert_eq!(req.admin, Some(AdminRequest::Metrics));
        assert!(!req.want_info && req.levels.is_empty());
    }

    #[test]
    fn throttle_is_structured() {
        let resp = parse_response(&throttle_response(3, "query budget exhausted")).unwrap();
        assert!(resp.throttled);
        assert_eq!(resp.error.as_deref(), Some("query budget exhausted"));
        // Plain errors are not throttles.
        let resp = parse_response(&error_response(3, "bad row")).unwrap();
        assert!(!resp.throttled);
    }

    #[test]
    fn response_roundtrip() {
        let ok = parse_response(&ok_response(1, 3, None)).unwrap();
        assert_eq!(ok.id, 1);
        assert_eq!(ok.class, Some(3));
        assert!(ok.scores.is_none() && ok.error.is_none());

        let scored = parse_response(&ok_response(2, 0, Some(&[0.5, -1.0, 0.125]))).unwrap();
        assert_eq!(scored.scores, Some(vec![0.5, -1.0, 0.125]));

        let err = parse_response(&error_response(3, "bad \"row\"\nhere")).unwrap();
        assert_eq!(err.id, 3);
        assert_eq!(err.error.as_deref(), Some("bad \"row\"\nhere"));
        assert!(err.class.is_none());
    }

    #[test]
    fn malformed_requests_keep_recoverable_id() {
        assert_eq!(parse_request("not json").unwrap_err().0, 0);
        assert_eq!(parse_request("{\"levels\":[1]}").unwrap_err().0, 0);
        let (id, msg) = parse_request("{\"id\":9}").unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("levels"));
        let (id, _) = parse_request("{\"id\":5,\"levels\":[1,99999]}").unwrap_err();
        assert_eq!(id, 5);
    }

    /// Pipelined clients must be able to match *every* failure response
    /// to a request: even JSON that fails to parse outright echoes the
    /// id when one is recognizable, and the error round-trips back
    /// through the response parser with that id intact.
    #[test]
    fn parse_failures_echo_recoverable_id_roundtrip() {
        // Truncated mid-array: not valid JSON, but the id is right there.
        let (id, msg) = parse_request("{\"id\":7,\"levels\":[1,").unwrap_err();
        assert_eq!(id, 7, "truncated request must keep its id");
        let resp = parse_response(&error_response(id, &msg)).unwrap();
        assert_eq!(resp.id, 7);
        assert!(resp.error.is_some());

        // Unquoted garbage after the id.
        let (id, _) = parse_request("{\"id\": 31415, oops}").unwrap_err();
        assert_eq!(id, 31415);

        // `id` as a non-numeric value still recovers 0, never panics.
        let (id, _) = parse_request("{\"id\":\"seven\",\"levels\":[1]}").unwrap_err();
        assert_eq!(id, 0);

        assert_eq!(recover_id("{\"id\":42"), 42);
        assert_eq!(recover_id("{\"id\" : 42 ,"), 42);
        assert_eq!(recover_id("no id here"), 0);
        assert_eq!(recover_id("{\"id\":}"), 0);
    }

    #[test]
    fn overload_is_structured() {
        let resp =
            parse_response(&overload_response(4, "pipeline window full (64 in flight)")).unwrap();
        assert!(resp.overloaded && !resp.throttled);
        assert_eq!(resp.id, 4);
        // Throttles and plain errors are not overloads.
        assert!(
            !parse_response(&throttle_response(5, "budget"))
                .unwrap()
                .overloaded
        );
        assert!(
            !parse_response(&error_response(6, "bad row"))
                .unwrap()
                .overloaded
        );
    }

    #[test]
    fn response_without_payload_is_rejected() {
        assert!(parse_response("{\"id\":1}").is_err());
    }

    #[test]
    fn base64_roundtrips_all_lengths() {
        let data: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        for take in 0..data.len() {
            let encoded = base64_encode(&data[..take]);
            assert_eq!(base64_decode(&encoded).unwrap(), &data[..take]);
        }
        assert_eq!(base64_encode(b"HDSN"), "SERTTg==");
        assert_eq!(base64_decode("SERTTg==").unwrap(), b"HDSN");
        // Malformed inputs are rejected, never panic.
        assert!(base64_decode("abc").is_err());
        assert!(base64_decode("ab=c").is_err());
        assert!(base64_decode("====").is_err());
        assert!(base64_decode("ab==cdef").is_err());
        assert!(base64_decode("ab~d").is_err());
    }

    #[test]
    fn xfer_request_roundtrips() {
        let req = parse_request(&xfer_begin_line(1, 1 << 20)).unwrap();
        assert_eq!(req.admin, Some(AdminRequest::XferBegin { len: 1 << 20 }));

        let req = parse_request(&xfer_chunk_line(2, &[0, 1, 2, 0xFF])).unwrap();
        assert_eq!(
            req.admin,
            Some(AdminRequest::XferChunk {
                data: vec![0, 1, 2, 0xFF],
            })
        );

        let req = parse_request(&xfer_commit_line(3, Some("/k/v7.hdky"))).unwrap();
        assert_eq!(
            req.admin,
            Some(AdminRequest::XferCommit {
                key: Some("/k/v7.hdky".to_owned()),
            })
        );
        let req = parse_request(&xfer_commit_line(4, None)).unwrap();
        assert_eq!(req.admin, Some(AdminRequest::XferCommit { key: None }));

        let req = parse_request(&xfer_abort_line(5)).unwrap();
        assert_eq!(req.admin, Some(AdminRequest::XferAbort));

        // Malformed xfer requests keep the id.
        let (id, msg) = parse_request("{\"id\":9,\"xfer\":{}}").unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("begin"));
        let (id, msg) = parse_request("{\"id\":8,\"xfer\":{\"chunk\":\"a\"}}").unwrap_err();
        assert_eq!(id, 8);
        assert!(msg.contains("base64"));
        let (id, _) = parse_request("{\"id\":7,\"xfer\":{\"begin\":\"big\"}}").unwrap_err();
        assert_eq!(id, 7);
    }

    #[test]
    fn xfer_ack_roundtrips() {
        let resp = parse_response(&xfer_response(6, 65_536)).unwrap();
        assert_eq!(resp.id, 6);
        assert_eq!(resp.xfer_received, Some(65_536));
        assert!(resp.error.is_none());
        let resp = parse_response(&xfer_abort_response(7, 128)).unwrap();
        assert_eq!(resp.xfer_received, Some(128));
    }

    #[test]
    fn bulk_response_roundtrips() {
        use crate::batcher::BulkItem;
        let items = [
            BulkItem::Class(4),
            BulkItem::ClassWithScores(1, vec![0.5, -0.25]),
            BulkItem::Rejected("row has 2 levels, model expects 4".to_owned()),
        ];
        let resp = parse_response(&bulk_response(21, &items)).unwrap();
        assert_eq!(resp.id, 21);
        let got = resp.bulk.unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].class, Some(4));
        assert!(got[0].scores.is_none() && got[0].error.is_none());
        assert_eq!(got[1].class, Some(1));
        assert_eq!(got[1].scores, Some(vec![0.5, -0.25]));
        assert_eq!(
            got[2].error.as_deref(),
            Some("row has 2 levels, model expects 4")
        );
        assert!(got[2].class.is_none());
    }

    #[test]
    fn checksum_hex_is_16_digits() {
        assert_eq!(checksum_hex(0), "0000000000000000");
        assert_eq!(checksum_hex(u64::MAX), "ffffffffffffffff");
        assert_eq!(checksum_hex(0xAB), "00000000000000ab");
    }
}
