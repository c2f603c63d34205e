//! Per-request serving policy and the server front door.
//!
//! This module holds everything about answering a request that does
//! *not* depend on how sockets are driven: validation, admission,
//! pipeline windowing, admin handling, bulk-frame preparation and
//! response rendering. Every server serves a [`ModelRegistry`]; a
//! fixed model is served as a one-generation registry. Two
//! interchangeable connection cores consume the policy:
//!
//! * [`crate::event_loop`] (Linux, the default) — one nonblocking
//!   epoll-driven thread multiplexes every connection; scales to tens
//!   of thousands of concurrent sockets.
//! * [`crate::threaded`] — one reader + one writer thread per
//!   connection; portable, and the differential baseline the event
//!   core is pinned against.
//!
//! The seam between policy and core is the `ConnOutbox` trait (what the
//! core provides per connection: a write path, the in-flight set, the
//! job queue). `dispatch_incoming` runs one request's policy against
//! it, so both cores answer every request byte-for-byte identically.
//!
//! [`serve_registry_with_core_metrics`] is the one entry point; it takes
//! the core explicitly (tests pin both and diff the bytes).

use std::collections::HashSet;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hdc_model::ClassifySession;
use hdc_store::{ModelRegistry, SnapshotStage};

use crate::admission::{AdmissionConfig, ConnectionAdmission};
use crate::batcher::{
    run_batch, BatchConfig, BatchQueue, BulkSlot, Completion, JobKind, JobResult,
};
use crate::metrics::{elapsed_us, ServeMetrics, SwapKind};
use crate::protocol;
use crate::wire::{self, WireMode};

/// How often blocked I/O re-checks the shutdown flag.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(20);

/// Counters reported when the server exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests answered (success or protocol error).
    pub requests: u64,
    /// Requests that reached the batch workers and were classified —
    /// `requests − classified` is the protocol-rejection count.
    pub classified: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Requests rejected by admission control.
    pub throttled: u64,
}

/// Always-on per-server counters shared by both connection cores, plus
/// the optional telemetry plane. The atomics cost one relaxed add per
/// event whether telemetry is on or off — so the two configurations pay
/// the same base price and stay byte-identical on the wire; everything
/// richer (clocks, histograms, labeled series) hides behind `metrics`.
pub(crate) struct CoreStats<'m> {
    /// Requests answered (success or protocol error).
    pub(crate) requests: AtomicU64,
    /// Requests rejected by admission control.
    pub(crate) throttled: AtomicU64,
    /// Requests arriving on JSON connections.
    pub(crate) requests_json: AtomicU64,
    /// Requests arriving on binary connections.
    pub(crate) requests_binary: AtomicU64,
    /// Currently open connections.
    pub(crate) active: AtomicU64,
    /// When this server started (drives the stats uptime field).
    pub(crate) started: Instant,
    /// The opt-in telemetry plane; `None` keeps every recording site
    /// clock-free.
    pub(crate) metrics: Option<&'m ServeMetrics>,
}

impl<'m> CoreStats<'m> {
    pub(crate) fn new(metrics: Option<&'m ServeMetrics>) -> Self {
        CoreStats {
            requests: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            requests_json: AtomicU64::new(0),
            requests_binary: AtomicU64::new(0),
            active: AtomicU64::new(0),
            started: Instant::now(),
            metrics,
        }
    }

    /// One connection entered service.
    pub(crate) fn enter_connection(&self) {
        self.active.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.metrics {
            m.conns_opened.inc();
            m.active_connections.add(1);
        }
    }

    /// One connection left service.
    pub(crate) fn leave_connection(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
        if let Some(m) = self.metrics {
            m.conns_closed.inc();
            m.active_connections.sub(1);
        }
    }
}

/// Configuration of the server.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegistryServeConfig {
    /// Batching queue, worker-pool and pipeline-window parameters.
    pub batch: BatchConfig,
    /// Per-connection admission thresholds.
    pub admission: AdmissionConfig,
}

/// Which connection core drives the sockets. Both cores answer every
/// request with identical bytes; they differ in how far they scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreKind {
    /// Nonblocking epoll event loop: one thread multiplexes all
    /// connections (Linux; falls back to [`CoreKind::Threaded`]
    /// elsewhere).
    Event,
    /// Two threads (reader + writer) per connection.
    Threaded,
}

impl Default for CoreKind {
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            CoreKind::Event
        } else {
            CoreKind::Threaded
        }
    }
}

// ---------------------------------------------------------------------
// Per-request policy (shared by both cores)
// ---------------------------------------------------------------------

/// How an admin request is executed.
///
/// Cheap admin operations (stats, transfer chunks) answer inline on the
/// dispatching thread. Slow ones (reload, rekey, transfer commit —
/// anything that builds a model generation) are handed back as a
/// closure so the event-loop core can run them off-loop; the threaded
/// core just runs the closure on the connection's reader thread, which
/// is the pre-event-loop behavior.
pub(crate) enum AdminOutcome<'env> {
    /// The rendered JSON response line, produced inline.
    Done(String),
    /// Deferred work; returns the rendered JSON response line.
    Offload(Box<dyn FnOnce() -> String + Send + 'env>),
}

/// Shared context of the server's connection handlers.
pub(crate) struct RegistryCtx<'a> {
    pub(crate) registry: &'a ModelRegistry,
    pub(crate) admission: &'a AdmissionConfig,
    pub(crate) stats: &'a CoreStats<'a>,
}

/// What a connection needs to answer requests: the model shape,
/// per-row validation, admission and admin handling — one admission
/// state (and at most one in-progress snapshot transfer) per
/// connection, every check against the *current* generation. The
/// connection machinery (sniffing, framing, pipelining, writes) is the
/// core's business.
pub(crate) struct RegistryBrain<'env> {
    ctx: &'env RegistryCtx<'env>,
    admission: ConnectionAdmission,
    /// The connection's in-progress streamed snapshot transfer, if any.
    stage: Option<SnapshotStage>,
}

/// Renders a generation swap (or its failure) as the response line.
fn render_swap(
    id: u64,
    verb: &str,
    result: Result<std::sync::Arc<hdc_store::Generation>, hdc_store::StoreError>,
) -> String {
    match result {
        Ok(generation) => protocol::swap_response(
            id,
            &protocol::SwapInfo {
                generation: generation.id(),
                checksum: protocol::checksum_hex(generation.checksum()),
            },
        ),
        Err(e) => protocol::error_response(id, &format!("{verb} failed: {e}")),
    }
}

/// [`render_swap`] plus telemetry: a swap that landed ticks its
/// per-kind counter and records the age of the generation it retired
/// (captured by the caller *before* the swap ran).
fn finish_swap(
    id: u64,
    verb: &str,
    kind: SwapKind,
    metrics: Option<&ServeMetrics>,
    retired_age: Duration,
    result: Result<std::sync::Arc<hdc_store::Generation>, hdc_store::StoreError>,
) -> String {
    if let (Some(m), Ok(generation)) = (metrics, result.as_ref()) {
        m.record_swap(kind, generation.id(), retired_age);
    }
    render_swap(id, verb, result)
}

impl<'env> RegistryBrain<'env> {
    pub(crate) fn new(ctx: &'env RegistryCtx<'env>) -> Self {
        RegistryBrain {
            ctx,
            admission: ConnectionAdmission::new(ctx.admission),
            stage: None,
        }
    }

    /// Shape/runtime facts for an `info` response.
    fn server_info(&self) -> protocol::ServerInfo {
        let generation = self.ctx.registry.current();
        let session = generation.session();
        protocol::ServerInfo {
            backend: session.kernel_backend().to_owned(),
            dim: session.dim(),
            features: session.n_features(),
            levels: session.m_levels(),
            classes: session.n_classes(),
            generation: generation.id(),
            checksum: protocol::checksum_hex(generation.checksum()),
            hardened: generation.is_hardened(),
        }
    }

    /// Row validation against the currently served model; `Some` is the
    /// rejection message.
    fn validate_levels(&self, levels: &[u16]) -> Option<String> {
        let generation = self.ctx.registry.current();
        validate_against(levels, generation.session())
    }

    /// Admission check; `Err` is the throttle message.
    fn admit(&mut self, levels: &[u16]) -> Result<(), String> {
        // The typed reason is recorded here, before stringification —
        // the only place budget/rate/sweep are still distinguishable.
        self.admission.admit(levels).map_err(|reason| {
            if let Some(m) = self.ctx.stats.metrics {
                m.record_throttle_reason(&reason);
            }
            reason.to_string()
        })
    }

    /// Executes one admin operation (admin is deliberately JSON-only;
    /// binary connections cannot express it).
    fn admin(&mut self, id: u64, admin: protocol::AdminRequest) -> AdminOutcome<'env> {
        // Copy the context reference out so offloaded closures capture
        // it by value (they must not borrow `self`).
        let ctx: &'env RegistryCtx<'env> = self.ctx;
        let metrics = ctx.stats.metrics;
        match admin {
            protocol::AdminRequest::Stats => {
                let s = ctx.registry.stats();
                AdminOutcome::Done(protocol::stats_response(
                    id,
                    &protocol::StatsReport {
                        generation: s.generation,
                        checksum: protocol::checksum_hex(s.checksum),
                        locked: s.locked,
                        hardened: s.hardened,
                        reloads: s.reloads,
                        rekeys: s.rekeys,
                        rollbacks: s.rollbacks,
                        requests: ctx.stats.requests.load(Ordering::Relaxed),
                        throttled: ctx.stats.throttled.load(Ordering::Relaxed),
                        uptime_secs: ctx.stats.started.elapsed().as_secs(),
                        requests_json: ctx.stats.requests_json.load(Ordering::Relaxed),
                        requests_binary: ctx.stats.requests_binary.load(Ordering::Relaxed),
                        active_connections: ctx.stats.active.load(Ordering::Relaxed),
                    },
                ))
            }
            protocol::AdminRequest::Metrics => AdminOutcome::Done(match metrics {
                Some(m) => m.render_json(id, Some(ctx.registry)),
                None => protocol::error_response(id, "metrics are not enabled on this server"),
            }),
            protocol::AdminRequest::Reload { snapshot, key } => {
                AdminOutcome::Offload(Box::new(move || {
                    let retired_age = ctx.registry.current().age();
                    let result = ctx
                        .registry
                        .reload_files(Path::new(&snapshot), key.as_deref().map(Path::new));
                    finish_swap(id, "reload", SwapKind::Reload, metrics, retired_age, result)
                }))
            }
            protocol::AdminRequest::Rekey { seed } => AdminOutcome::Offload(Box::new(move || {
                let retired_age = ctx.registry.current().age();
                let result = ctx.registry.rekey(seed);
                finish_swap(id, "rekey", SwapKind::Rekey, metrics, retired_age, result)
            })),
            protocol::AdminRequest::XferBegin { len } => {
                // A new `begin` implicitly aborts any prior transfer on
                // this connection (its staged file is removed on drop).
                self.stage = None;
                match SnapshotStage::begin(&std::env::temp_dir(), len) {
                    Ok(stage) => {
                        self.stage = Some(stage);
                        AdminOutcome::Done(protocol::xfer_response(id, 0))
                    }
                    Err(e) => AdminOutcome::Done(protocol::error_response(
                        id,
                        &format!("snapshot transfer rejected: {e}"),
                    )),
                }
            }
            protocol::AdminRequest::XferChunk { data } => match self.stage.as_mut() {
                None => AdminOutcome::Done(protocol::error_response(
                    id,
                    "no snapshot transfer in progress",
                )),
                Some(stage) => match stage.write_chunk(&data) {
                    Ok(received) => AdminOutcome::Done(protocol::xfer_response(id, received)),
                    Err(e) => {
                        // A poisoned stage cannot be resumed; drop it so
                        // the staged file is cleaned up immediately.
                        self.stage = None;
                        AdminOutcome::Done(protocol::error_response(
                            id,
                            &format!("snapshot transfer invalid: {e}"),
                        ))
                    }
                },
            },
            protocol::AdminRequest::XferCommit { key } => match self.stage.take() {
                None => AdminOutcome::Done(protocol::error_response(
                    id,
                    "no snapshot transfer in progress",
                )),
                Some(stage) => AdminOutcome::Offload(Box::new(move || match stage.finish() {
                    Ok(staged) => {
                        let retired_age = ctx.registry.current().age();
                        let result = ctx
                            .registry
                            .reload_files(staged.path(), key.as_deref().map(Path::new));
                        finish_swap(id, "reload", SwapKind::Reload, metrics, retired_age, result)
                    }
                    Err(e) => {
                        protocol::error_response(id, &format!("snapshot transfer invalid: {e}"))
                    }
                })),
            },
            protocol::AdminRequest::XferAbort => match self.stage.take() {
                None => AdminOutcome::Done(protocol::error_response(
                    id,
                    "no snapshot transfer in progress",
                )),
                Some(stage) => {
                    let received = stage.received();
                    drop(stage); // removes the staged file
                    AdminOutcome::Done(protocol::xfer_abort_response(id, received))
                }
            },
        }
    }
}

/// Shape/range validation of a classify row against a session; `Some`
/// is the rejection message (rendered per wire mode by the caller).
fn validate_against<S: ClassifySession>(levels: &[u16], session: &S) -> Option<String> {
    if levels.len() != session.n_features() {
        return Some(format!(
            "row has {} levels, model expects {}",
            levels.len(),
            session.n_features()
        ));
    }
    if let Some(bad) = levels
        .iter()
        .position(|&lv| usize::from(lv) >= session.m_levels())
    {
        return Some(format!(
            "level {} at feature {bad} out of range (M = {})",
            levels[bad],
            session.m_levels()
        ));
    }
    None
}

// ---------------------------------------------------------------------
// Wire-mode-agnostic rendering
// ---------------------------------------------------------------------

/// Renders an error response in the connection's wire format.
pub(crate) fn render_error(
    mode: WireMode,
    id: u64,
    message: &str,
    throttled: bool,
    overloaded: bool,
) -> Vec<u8> {
    match mode {
        WireMode::Json => {
            let line = if overloaded {
                protocol::overload_response(id, message)
            } else if throttled {
                protocol::throttle_response(id, message)
            } else {
                protocol::error_response(id, message)
            };
            line.into_bytes()
        }
        WireMode::Binary => wire::error_frame(id, message, throttled, overloaded),
    }
}

/// Renders an info response in the connection's wire format.
pub(crate) fn render_info(mode: WireMode, id: u64, info: &protocol::ServerInfo) -> Vec<u8> {
    match mode {
        WireMode::Json => protocol::info_response(id, info).into_bytes(),
        WireMode::Binary => wire::info_response_frame(id, info),
    }
}

/// Renders a batch-worker completion in the connection's wire format.
pub(crate) fn render_completion(mode: WireMode, done: &Completion) -> Vec<u8> {
    match (&done.result, mode) {
        (JobResult::Class(class), WireMode::Json) => {
            protocol::ok_response(done.id, *class, None).into_bytes()
        }
        (JobResult::Class(class), WireMode::Binary) => wire::class_frame(done.id, *class),
        (JobResult::ClassWithScores(class, scores), WireMode::Json) => {
            protocol::ok_response(done.id, *class, Some(scores)).into_bytes()
        }
        (JobResult::ClassWithScores(class, scores), WireMode::Binary) => {
            wire::scores_frame(done.id, *class, scores)
        }
        (JobResult::Matches(matches), WireMode::Json) => {
            protocol::matches_response(done.id, matches).into_bytes()
        }
        (JobResult::Matches(matches), WireMode::Binary) => wire::matches_frame(done.id, matches),
        (JobResult::Bulk(items), WireMode::Json) => {
            protocol::bulk_response(done.id, items).into_bytes()
        }
        (JobResult::Bulk(items), WireMode::Binary) => wire::bulk_response_frame(done.id, items),
        (JobResult::Rejected(msg), _) => render_error(mode, done.id, msg, false, false),
    }
}

// ---------------------------------------------------------------------
// Request dispatch (the policy seam both cores share)
// ---------------------------------------------------------------------

/// One parsed request, wire-format agnostic.
pub(crate) enum Incoming {
    Classify {
        id: u64,
        levels: Vec<u16>,
        want_scores: bool,
        /// `Some(k)` routes the row to top-k search instead of
        /// classification (same validation, window and admission path).
        search_k: Option<usize>,
    },
    /// Many rows under one id, from a binary BULK_CLASSIFY frame
    /// (JSON never produces this variant).
    Bulk {
        id: u64,
        rows: Vec<Vec<u16>>,
        want_scores: bool,
    },
    Info {
        id: u64,
    },
    Admin {
        id: u64,
        admin: protocol::AdminRequest,
    },
    /// A malformed request answered with an error; `fatal` closes the
    /// connection after the error is delivered (stream desync).
    Bad {
        id: u64,
        message: String,
        fatal: bool,
    },
}

/// Maps one parsed JSON request line to an [`Incoming`].
pub(crate) fn incoming_from_json(line: &str) -> Incoming {
    match protocol::parse_request(line) {
        Ok(request) => {
            if request.want_info {
                Incoming::Info { id: request.id }
            } else if let Some(admin) = request.admin {
                Incoming::Admin {
                    id: request.id,
                    admin,
                }
            } else {
                Incoming::Classify {
                    id: request.id,
                    levels: request.levels,
                    want_scores: request.want_scores,
                    search_k: request.search_k,
                }
            }
        }
        Err((id, message)) => Incoming::Bad {
            id,
            message,
            fatal: false,
        },
    }
}

/// Maps one complete binary frame to an [`Incoming`].
pub(crate) fn incoming_from_frame(header: &wire::FrameHeader, payload: &[u8]) -> Incoming {
    match wire::decode_request(header, payload) {
        Ok(wire::ServerFrame::Classify {
            id,
            levels,
            want_scores,
        }) => Incoming::Classify {
            id,
            levels,
            want_scores,
            search_k: None,
        },
        Ok(wire::ServerFrame::Search { id, levels, k }) => Incoming::Classify {
            id,
            levels,
            want_scores: false,
            search_k: Some(k),
        },
        Ok(wire::ServerFrame::BulkClassify {
            id,
            rows,
            want_scores,
        }) => Incoming::Bulk {
            id,
            rows,
            want_scores,
        },
        Ok(wire::ServerFrame::Info { id }) => Incoming::Info { id },
        Err((id, message)) => Incoming::Bad {
            id,
            message,
            fatal: false,
        },
    }
}

/// What a connection core provides per connection so the shared
/// dispatcher can answer requests: the negotiated wire mode, a write
/// path, the in-flight id set, and routes into the batch queue and the
/// admin executor.
pub(crate) trait ConnOutbox<'env> {
    /// Negotiated wire format.
    fn mode(&self) -> WireMode;
    /// Pipeline-window depth (≥ 1).
    fn window(&self) -> usize;
    /// Always-on server counters plus the optional telemetry plane.
    /// The `'env` inner lifetime lets dispatch copy the metrics
    /// reference out and keep it across `&mut self` calls.
    fn stats(&self) -> &CoreStats<'env>;
    /// Sends pre-rendered bytes (inline responses: errors, info,
    /// admin), ordered with respect to earlier sends.
    fn send_inline(&mut self, bytes: Vec<u8>);
    /// Whether `id` is currently in flight on this connection.
    fn inflight_contains(&self, id: u64) -> bool;
    /// Current pipeline depth.
    fn inflight_len(&self) -> usize;
    /// Marks `id` in flight.
    fn inflight_insert(&mut self, id: u64);
    /// Unmarks `id` (admission rejected it after the window check).
    fn inflight_remove(&mut self, id: u64);
    /// Hands one job (already validated/admitted) to the batch queue.
    fn enqueue(&mut self, id: u64, kind: JobKind);
    /// Runs a slow admin operation; its rendered response line must be
    /// delivered to this connection when it completes.
    fn offload_admin(&mut self, run: Box<dyn FnOnce() -> String + Send + 'env>);
}

/// Outcome of preparing a bulk frame for enqueue.
pub(crate) enum BulkPrep {
    /// The whole frame is rejected with one error (response would not
    /// fit a frame).
    Reject(String),
    /// Per-row slots in request order (valid rows plus in-place
    /// rejections), and how many rows admission throttled.
    Slots {
        slots: Vec<BulkSlot>,
        throttled_rows: u64,
    },
}

/// Validates and admits every row of a bulk frame, preserving request
/// order: invalid rows become in-place rejections (no admission budget
/// burned), throttled rows in-place throttle messages. The frame-level
/// guard rejects score requests whose response could not fit the wire's
/// frame cap no matter what the rows contain.
pub(crate) fn prepare_bulk(
    brain: &mut RegistryBrain<'_>,
    rows: Vec<Vec<u16>>,
    want_scores: bool,
) -> BulkPrep {
    if want_scores {
        let classes = brain.server_info().classes;
        // Response-size bound: 4-byte count plus per row a 1-byte tag,
        // 4-byte class, 4-byte score count and 8 bytes per class score.
        let worst = 4 + rows.len() * (9 + 8 * classes);
        if worst > wire::MAX_PAYLOAD {
            return BulkPrep::Reject(format!(
                "bulk scores response for {} rows of {} classes would exceed the {} byte frame cap",
                rows.len(),
                classes,
                wire::MAX_PAYLOAD
            ));
        }
    }
    let mut slots = Vec::with_capacity(rows.len());
    let mut throttled_rows = 0u64;
    for row in rows {
        if let Some(msg) = brain.validate_levels(&row) {
            slots.push(BulkSlot::Rejected(msg));
        } else if let Err(msg) = brain.admit(&row) {
            throttled_rows += 1;
            slots.push(BulkSlot::Rejected(msg));
        } else {
            slots.push(BulkSlot::Row(row));
        }
    }
    BulkPrep::Slots {
        slots,
        throttled_rows,
    }
}

/// Handles one parsed request: the exact validation → duplicate-id →
/// window → admission → enqueue ordering both cores share. Returns
/// `false` when the connection must close (fatal framing fault).
///
/// This wrapper owns the per-request accounting: the always-on request
/// counters (total and per wire format) tick unconditionally, and with
/// telemetry on the whole parse→validate→admit→enqueue turn lands in
/// the dispatch-stage histogram. [`dispatch_inner`] does the actual
/// policy work and is timing-free.
pub(crate) fn dispatch_incoming<'env, O: ConnOutbox<'env>>(
    out: &mut O,
    brain: &mut RegistryBrain<'env>,
    incoming: Incoming,
) -> bool {
    let metrics = out.stats().metrics;
    out.stats().requests.fetch_add(1, Ordering::Relaxed);
    match out.mode() {
        WireMode::Json => {
            out.stats().requests_json.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = metrics {
                m.requests_json.inc();
            }
        }
        WireMode::Binary => {
            out.stats().requests_binary.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = metrics {
                m.requests_binary.inc();
            }
        }
    }
    let start = metrics.map(|_| Instant::now());
    let keep_open = dispatch_inner(out, brain, incoming);
    if let (Some(m), Some(start)) = (metrics, start) {
        m.dispatch_us.record(elapsed_us(start));
    }
    keep_open
}

/// The policy body of [`dispatch_incoming`].
fn dispatch_inner<'env, O: ConnOutbox<'env>>(
    out: &mut O,
    brain: &mut RegistryBrain<'env>,
    incoming: Incoming,
) -> bool {
    match incoming {
        Incoming::Info { id } => {
            let info = brain.server_info();
            let bytes = render_info(out.mode(), id, &info);
            out.send_inline(bytes);
        }
        Incoming::Admin { id, admin } => match brain.admin(id, admin) {
            AdminOutcome::Done(line) => out.send_inline(line.into_bytes()),
            AdminOutcome::Offload(run) => out.offload_admin(run),
        },
        Incoming::Bad { id, message, fatal } => {
            let bytes = render_error(out.mode(), id, &message, false, false);
            out.send_inline(bytes);
            return !fatal;
        }
        Incoming::Classify {
            id,
            levels,
            want_scores,
            search_k,
        } => {
            if let Some(msg) = brain.validate_levels(&levels) {
                let bytes = render_error(out.mode(), id, &msg, false, false);
                out.send_inline(bytes);
                return true;
            }
            if !check_window(out, id) {
                return true;
            }
            out.inflight_insert(id);
            // Admission runs last, after validation and windowing, so
            // malformed or back-pressured requests never consume the
            // connection's query budget.
            if let Err(msg) = brain.admit(&levels) {
                out.inflight_remove(id);
                out.stats().throttled.fetch_add(1, Ordering::Relaxed);
                let bytes = render_error(out.mode(), id, &msg, true, false);
                out.send_inline(bytes);
                return true;
            }
            out.enqueue(
                id,
                JobKind::Single {
                    levels,
                    want_scores,
                    search_k,
                },
            );
        }
        Incoming::Bulk {
            id,
            rows,
            want_scores,
        } => {
            // A bulk frame occupies ONE pipeline-window slot and counts
            // as one request; its rows meter admission individually.
            if !check_window(out, id) {
                return true;
            }
            match prepare_bulk(brain, rows, want_scores) {
                BulkPrep::Reject(msg) => {
                    let bytes = render_error(out.mode(), id, &msg, false, false);
                    out.send_inline(bytes);
                }
                BulkPrep::Slots {
                    slots,
                    throttled_rows,
                } => {
                    if throttled_rows > 0 {
                        out.stats()
                            .throttled
                            .fetch_add(throttled_rows, Ordering::Relaxed);
                    }
                    out.inflight_insert(id);
                    out.enqueue(id, JobKind::Bulk { slots, want_scores });
                }
            }
        }
    }
    true
}

/// Duplicate-id and pipeline-window checks shared by classify and bulk;
/// `false` means the request was answered inline and must not enqueue.
fn check_window<'env, O: ConnOutbox<'env>>(out: &mut O, id: u64) -> bool {
    if out.inflight_contains(id) {
        let bytes = render_error(
            out.mode(),
            id,
            &format!("request id {id} already in flight on this connection"),
            false,
            false,
        );
        out.send_inline(bytes);
        return false;
    }
    if out.inflight_len() >= out.window() {
        let bytes = render_error(
            out.mode(),
            id,
            &format!(
                "pipeline window full ({} requests in flight); \
                 drain responses before sending more",
                out.window()
            ),
            false,
            true,
        );
        out.send_inline(bytes);
        return false;
    }
    true
}

/// Tracks whether a binary read stream is still trustworthy after a
/// framing decision; shared by both cores' binary read paths.
pub(crate) enum FrameStep {
    /// One frame decoded (or answerable error) — keep going.
    Dispatch(Incoming),
    /// Buffer holds no complete frame yet.
    NeedMore,
    /// Stream desynchronized (bad magic): close silently.
    CloseSilent,
    /// Oversized length prefix: answer `Incoming::Bad { fatal }`, then
    /// close.
    CloseAfter(Incoming),
}

/// Pulls the next framing decision out of a frame buffer.
pub(crate) fn next_frame_step(frames: &mut wire::FrameBuffer) -> FrameStep {
    match frames.next_frame() {
        Ok(Some((header, payload))) => FrameStep::Dispatch(incoming_from_frame(&header, &payload)),
        Ok(None) => FrameStep::NeedMore,
        Err(wire::FatalFrameError::BadMagic(_)) => {
            // Desynchronized or not our protocol: no trustworthy id to
            // answer — close cleanly.
            FrameStep::CloseSilent
        }
        Err(wire::FatalFrameError::Oversized { id, len }) => {
            // The id sits before the length prefix, so it is still
            // trustworthy: answer, then close (the payload cannot be
            // skipped).
            FrameStep::CloseAfter(Incoming::Bad {
                id,
                message: format!(
                    "frame payload of {len} bytes exceeds the {} byte cap",
                    wire::MAX_PAYLOAD
                ),
                fatal: true,
            })
        }
    }
}

// ---------------------------------------------------------------------
// Batch worker loop
// ---------------------------------------------------------------------

/// Batch worker: every batch runs against the generation current at
/// pop time; rows that no longer fit that generation (a shape-changing
/// swap raced them) are answered with per-request errors, never
/// dropped.
pub(crate) fn worker_loop(
    queue: &BatchQueue,
    registry: &ModelRegistry,
    config: &BatchConfig,
    served: &AtomicU64,
    metrics: Option<&ServeMetrics>,
) {
    while let Some(batch) = queue.next_batch(config) {
        run_batch(&registry.current(), config, batch, served, metrics);
    }
}

// ---------------------------------------------------------------------
// The front door
// ---------------------------------------------------------------------

/// Serves classify traffic from a [`ModelRegistry`] on `listener` until
/// `shutdown` is raised, on the connection core `core`
/// (`CoreKind::default()` picks the platform's), honoring admin
/// requests and enforcing per-connection admission control.
///
/// A fixed model is served as a one-generation registry:
/// `ModelRegistry::from_snapshot(ModelSnapshot::from_standard_model(&model), None)`
/// answers bit-identically to the model's own session (see the crate
/// quickstart).
///
/// Every connection speaks either the line-JSON protocol ([`protocol`])
/// or the binary frame protocol ([`wire`]), negotiated by first-byte
/// sniffing; requests from all connections funnel into one batch
/// queue ([`batcher`](crate::batcher)) and are answered by
/// `config.batch.workers` fused batch calls, pipelined up to
/// `config.batch.pipeline_window` in-flight requests per connection,
/// admission metering every classify request identically in both
/// formats.
///
/// Hot swaps are wait-free for traffic: a reload/rekey builds the new
/// generation entirely off the serving path, batches in flight finish
/// on the generation they grabbed, and the next batch picks up the new
/// one. Snapshots too big for one request body stream in over the wire
/// (`{"xfer":…}` — see [`protocol`]) into a checksummed staging file
/// and commit through the same reload path.
///
/// `metrics` attaches the telemetry plane: request stages, admission
/// refusals by reason, generation swaps and connection churn all record
/// into it (see [`ServeMetrics`]), and `{"metrics":true}` is answered
/// with the structured JSON catalog. With `None` no clock is read and
/// `{"metrics":true}` is answered with a structured error; every other
/// response is byte-identical either way.
///
/// # Trust boundary
///
/// Admin requests (`reload` / `rekey` / `stats` / `xfer`) are an
/// **operator plane** carried on the same port for protocol simplicity
/// — they are not authenticated and are deliberately exempt from
/// admission budgets. In particular, `rekey` is seed-deterministic by
/// design (so rotation is reproducible and auditable), which means
/// whoever can send it can also derive the new key from the public
/// pool. Do not expose this listener to untrusted clients: bind it to
/// loopback / an internal network and front it with an authenticating
/// proxy, as you would any database admin port.
///
/// # Errors
///
/// Propagates listener configuration errors; per-connection I/O errors
/// only terminate that connection.
pub fn serve_registry_with_core_metrics(
    core: CoreKind,
    listener: TcpListener,
    registry: &ModelRegistry,
    config: &RegistryServeConfig,
    shutdown: &AtomicBool,
    metrics: Option<&ServeMetrics>,
) -> std::io::Result<ServeStats> {
    match core {
        CoreKind::Threaded => {
            crate::threaded::serve_registry(listener, registry, config, shutdown, metrics)
        }
        CoreKind::Event => {
            #[cfg(target_os = "linux")]
            {
                crate::event_loop::serve_registry(listener, registry, config, shutdown, metrics)
            }
            #[cfg(not(target_os = "linux"))]
            {
                crate::threaded::serve_registry(listener, registry, config, shutdown, metrics)
            }
        }
    }
}

/// Ids of classify requests currently queued or running on one
/// connection; its size is the pipeline depth. (A shared alias so both
/// cores use the same structure.)
pub(crate) type InflightSet = HashSet<u64>;
