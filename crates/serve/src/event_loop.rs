//! The epoll event loop: one nonblocking thread multiplexes every
//! connection. It is the server's only connection core, so serving is
//! Linux only.
//!
//! ## Shape
//!
//! ```text
//!                  ┌──────────────── event loop thread ────────────────┐
//!   listener ──────┤ accept burst → Conn { read buf │ state │ out buf } │
//!   10k+ sockets ──┤ readiness-driven reads → dispatch → batch queue    │
//!                  │ completions (via waker pipe) → render → out buf    │
//!                  └──────────▲──────────────────────────┬─────────────┘
//!                             │ waker.wake()             │ jobs
//!                  ┌──────────┴─────────┐   ┌────────────▼───────────┐
//!                  │ admin executor     │   │ batch worker pool      │
//!                  │ (reload/rekey/     │   │ (fused classify/search │
//!                  │  xfer commit)      │   │  batches)              │
//!                  └────────────────────┘   └────────────────────────┘
//! ```
//!
//! Per connection the loop keeps a read accumulator (frames and lines
//! may split at any byte boundary across wakeups, and each byte is
//! searched for a line end once), the negotiated wire mode, the
//! in-flight id set and a bounded write backlog. Interest is re-armed
//! per tick: reads pause at a backlog high watermark (a slow-reading
//! client stalls only itself — TCP back-pressure reaches it, siblings
//! keep flowing) and resume at the low watermark; `EPOLLOUT` is armed
//! only while unflushed bytes remain. A read-fairness cap (at most
//! `READ_ROUNDS` chunks per readiness event) keeps one firehose
//! connection from starving the rest; level-triggered epoll re-reports
//! whatever remains.
//!
//! Batch workers and the admin executor run on their own threads and
//! hand results back through one shared channel, tagged with the
//! connection token, then nudge the loop through the self-pipe
//! [`Waker`]. Request policy — validation, admission, pipeline window,
//! bulk preparation, admin routing — is `dispatch_incoming` in
//! [`crate::server`].
//!
//! ## Hardening
//!
//! * A JSON line longer than `MAX_JSON_LINE` is answered with an
//!   error and the connection closed.
//! * Accepts past `max_connections`, and accepts during drain, are
//!   answered with a structured JSON `"overloaded"` error before the
//!   socket closes, instead of languishing in the accept queue.
//! * An offloaded admin operation (reload/rekey/commit) does not block
//!   the connection's read side; its response is matched by id like any
//!   pipelined response.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hdc_store::ModelRegistry;

use crate::batcher::{BatchQueue, Delivery};
use crate::epoll::{
    raise_nofile_limit, set_listen_backlog, PollEvent, Poller, Waker, EV_READ, EV_WRITE,
};
use crate::metrics::{elapsed_us, ServeMetrics};
use crate::protocol;
use crate::server::{
    dispatch_incoming, incoming_from_frame, incoming_from_json, render_completion, render_error,
    worker_loop, AdminTask, CoreStats, Incoming, Outbox, RegistryBrain, RegistryCtx,
    RegistryServeConfig, ServeStats,
};
use crate::wire::{self, WireMode};

/// epoll_wait timeout — the shutdown-flag poll cadence.
const POLL_TICK_MS: i32 = 20;
/// Reads pause once a connection's unflushed output reaches this.
const HIGH_WATERMARK: usize = 256 * 1024;
/// Paused reads resume once the backlog drains below this.
const LOW_WATERMARK: usize = 64 * 1024;
/// Bytes already written are compacted out of the buffer at this point.
const COMPACT_THRESHOLD: usize = 64 * 1024;
/// A JSON request line may grow this large before the connection is
/// closed with an error (hardening; no legitimate request approaches
/// it — the binary wire's frame cap is 1 MiB too).
const MAX_JSON_LINE: usize = 1024 * 1024;
/// Read-fairness cap: chunks pulled per readiness event.
const READ_ROUNDS: usize = 8;
/// Size of one read chunk.
const READ_CHUNK: usize = 64 * 1024;
/// How long a graceful drain waits for in-flight work and unflushed
/// responses before closing what remains.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Everything the loop hands to per-connection dispatch.
struct LoopEnv<'l, 'env> {
    queue: &'env BatchQueue,
    window: usize,
    max_connections: usize,
    done_tx: mpsc::Sender<(u64, Delivery)>,
    admin_tx: mpsc::Sender<AdminTask<'env>>,
    waker: Arc<Waker>,
    stats: &'l CoreStats<'env>,
}

/// One multiplexed connection's state machine.
struct Conn<'env> {
    stream: TcpStream,
    fd: i32,
    brain: RegistryBrain<'env>,
    /// `None` until the first byte negotiates the wire format.
    mode: Option<WireMode>,
    /// Binary-mode read accumulator (frames split anywhere).
    frames: wire::FrameBuffer,
    /// JSON-mode read accumulator (lines split anywhere).
    lines: wire::LineBuffer,
    /// Unflushed response bytes; `out[out_pos..]` awaits the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Ids of classify/bulk requests queued or running.
    inflight: HashSet<u64>,
    /// Offloaded admin operations awaiting their response line.
    inflight_admin: usize,
    /// Interest bits currently registered with the poller.
    interest: u32,
    /// Read side finished (EOF, fatal frame fault, or drain); the
    /// connection stays up until in-flight responses flush.
    read_closed: bool,
    /// Write side failed; the connection is removed immediately.
    dead: bool,
    /// With telemetry on, when the connection was accepted — consumed
    /// by the sniff-stage histogram once the first byte negotiates the
    /// wire mode.
    accepted_at: Option<Instant>,
}

impl<'env> Conn<'env> {
    fn new(
        stream: TcpStream,
        fd: i32,
        brain: RegistryBrain<'env>,
        accepted_at: Option<Instant>,
    ) -> Self {
        Conn {
            stream,
            fd,
            brain,
            mode: None,
            frames: wire::FrameBuffer::new(),
            lines: wire::LineBuffer::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: HashSet::new(),
            inflight_admin: 0,
            interest: EV_READ,
            read_closed: false,
            dead: false,
            accepted_at,
        }
    }

    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// Runs the dispatcher for one parsed request against this connection.
/// Returns `false` on a fatal fault (stop reading).
fn dispatch_on<'env>(
    conn: &mut Conn<'env>,
    token: u64,
    env: &LoopEnv<'_, 'env>,
    incoming: Incoming,
) -> bool {
    let mut outbox = Outbox {
        mode: conn.mode.expect("dispatch only after wire negotiation"),
        out: &mut conn.out,
        inflight: &mut conn.inflight,
        inflight_admin: &mut conn.inflight_admin,
        queue: env.queue,
        done_tx: &env.done_tx,
        waker: &env.waker,
        token,
        admin_tx: &env.admin_tx,
        window: env.window,
        stats: env.stats,
    };
    dispatch_incoming(&mut outbox, &mut conn.brain, incoming)
}

/// Feeds freshly read bytes through the binary frame accumulator.
fn feed_binary<'env>(conn: &mut Conn<'env>, token: u64, env: &LoopEnv<'_, 'env>, bytes: &[u8]) {
    conn.frames.extend(bytes);
    loop {
        let incoming = match conn.frames.next_frame() {
            Ok(Some((header, payload))) => incoming_from_frame(&header, &payload),
            Ok(None) => return,
            // Desynchronized or not our protocol: no trustworthy id to
            // answer — close cleanly.
            Err(wire::FatalFrameError::BadMagic(_)) => {
                conn.read_closed = true;
                return;
            }
            // The id sits before the length prefix, so it is still
            // trustworthy: answer, then close (the payload cannot be
            // skipped).
            Err(wire::FatalFrameError::Oversized { id, len }) => Incoming::Bad {
                id,
                message: format!(
                    "frame payload of {len} bytes exceeds the {} byte cap",
                    wire::MAX_PAYLOAD
                ),
                fatal: true,
            },
        };
        if !dispatch_on(conn, token, env, incoming) {
            conn.read_closed = true;
            return;
        }
    }
}

/// Feeds freshly read bytes through the JSON line accumulator.
fn feed_json<'env>(conn: &mut Conn<'env>, token: u64, env: &LoopEnv<'_, 'env>, bytes: &[u8]) {
    conn.lines.extend(bytes);
    loop {
        let incoming = match conn.lines.next_line().map(std::str::from_utf8) {
            None => {
                if conn.lines.pending() > MAX_JSON_LINE {
                    let bytes = render_error(
                        WireMode::Json,
                        0,
                        &format!("request line exceeds the {MAX_JSON_LINE} byte cap"),
                        false,
                        false,
                    );
                    conn.out.extend_from_slice(&bytes);
                    conn.read_closed = true;
                }
                return;
            }
            // Invalid UTF-8 ends the read side without a response
            // (there is no trustworthy line to answer).
            Some(Err(_)) => {
                conn.read_closed = true;
                return;
            }
            Some(Ok(text)) if text.trim().is_empty() => continue,
            Some(Ok(text)) => incoming_from_json(text),
        };
        if !dispatch_on(conn, token, env, incoming) {
            conn.read_closed = true;
            return;
        }
    }
}

/// Pulls up to [`READ_ROUNDS`] chunks off a readable connection and
/// dispatches whatever complete requests they contain.
fn handle_readable<'env>(
    conn: &mut Conn<'env>,
    token: u64,
    env: &LoopEnv<'_, 'env>,
    buf: &mut [u8],
) {
    for _ in 0..READ_ROUNDS {
        if conn.read_closed || conn.dead || conn.backlog() >= HIGH_WATERMARK {
            break;
        }
        let n = match conn.stream.read(buf) {
            Ok(0) => {
                // Client hung up (any partial frame/line is theirs);
                // in-flight requests still get their responses.
                conn.read_closed = true;
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        };
        // First byte negotiates the wire format: binary frames open
        // with the magic 0xB1, which no JSON line starts with.
        if conn.mode.is_none() {
            conn.mode = Some(if buf[0] == wire::MAGIC0 {
                WireMode::Binary
            } else {
                WireMode::Json
            });
            if let (Some(m), Some(accepted)) = (env.stats.metrics, conn.accepted_at.take()) {
                m.sniff_us.record(elapsed_us(accepted));
            }
        }
        match conn.mode.expect("mode set above") {
            WireMode::Binary => feed_binary(conn, token, env, &buf[..n]),
            WireMode::Json => feed_json(conn, token, env, &buf[..n]),
        }
        if n < buf.len() {
            // Socket likely drained; level-triggered epoll re-reports
            // any racing remainder next tick.
            break;
        }
    }
}

/// Writes as much pending output as the socket accepts right now.
fn flush_out(conn: &mut Conn<'_>) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    } else if conn.out_pos >= COMPACT_THRESHOLD {
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
}

/// Applies one worker/admin completion to its connection.
fn apply_delivery(conn: &mut Conn<'_>, delivery: Delivery) {
    match delivery {
        Delivery::Done(done) => {
            conn.inflight.remove(&done.id);
            // Completions only exist for dispatched requests, which
            // only exist after negotiation.
            let mode = conn.mode.unwrap_or(WireMode::Json);
            let bytes = render_completion(mode, &done);
            conn.out.extend_from_slice(&bytes);
        }
        Delivery::Raw(bytes) => {
            // `Raw` through the loop channel is exclusively an
            // offloaded admin result (every other inline response is
            // appended directly by the loop).
            conn.inflight_admin = conn.inflight_admin.saturating_sub(1);
            conn.out.extend_from_slice(&bytes);
        }
    }
}

/// Flushes, re-arms interest (with read-pause hysteresis between the
/// watermarks), and decides whether the connection is finished.
/// Returns `true` when the connection must be removed.
fn settle(
    conn: &mut Conn<'_>,
    poller: &Poller,
    token: u64,
    metrics: Option<&ServeMetrics>,
) -> bool {
    if !conn.dead {
        let start = match metrics {
            Some(_) if conn.backlog() > 0 => Some(Instant::now()),
            _ => None,
        };
        flush_out(conn);
        if let (Some(m), Some(start)) = (metrics, start) {
            m.drain_us.record(elapsed_us(start));
        }
    }
    let backlog = conn.backlog();
    let finished =
        conn.read_closed && conn.inflight.is_empty() && conn.inflight_admin == 0 && backlog == 0;
    if conn.dead || finished {
        poller.remove(conn.fd);
        return true;
    }
    let was_reading = conn.interest & EV_READ != 0;
    let read_ok = !conn.read_closed
        && if was_reading {
            backlog < HIGH_WATERMARK
        } else {
            backlog < LOW_WATERMARK
        };
    if let Some(m) = metrics {
        // A still-open read side losing EV_READ means the backlog just
        // crossed the high watermark.
        if was_reading && !read_ok && !conn.read_closed {
            m.backlog_high_watermark.inc();
        }
    }
    let mut want = 0u32;
    if read_ok {
        want |= EV_READ;
    }
    if backlog > 0 {
        want |= EV_WRITE;
    }
    if want != conn.interest {
        if poller.modify(conn.fd, token, want).is_err() {
            poller.remove(conn.fd);
            return true;
        }
        conn.interest = want;
    }
    false
}

/// Answers a connection the server cannot take (capacity or drain) with
/// a best-effort structured overload line, then closes it. Rejected
/// connections are not counted in [`ServeStats::connections`].
fn reject_connection(stream: &TcpStream, draining: bool, max_connections: usize) {
    let msg = if draining {
        "server draining; connection rejected".to_owned()
    } else {
        format!("server at connection capacity ({max_connections} connections); retry later")
    };
    let line = protocol::overload_response(0, &msg);
    let _ = stream.set_nodelay(true);
    let _ = (&*stream).write_all(line.as_bytes());
}

/// The loop itself; every accepted connection gets its own brain over
/// `ctx`. Returns the number of accepted connections.
fn run_event_loop<'env>(
    listener: &TcpListener,
    ctx: &'env RegistryCtx<'env>,
    env: &LoopEnv<'_, 'env>,
    done_rx: &mpsc::Receiver<(u64, Delivery)>,
    shutdown: &AtomicBool,
) -> io::Result<u64> {
    listener.set_nonblocking(true)?;
    // Best-effort headroom for the sockets themselves plus pipes,
    // listener and whatever the process already holds.
    let _ = raise_nofile_limit(env.max_connections as u64 * 2 + 64);
    // Best-effort accept queue as deep as the connection ceiling, so a
    // connect burst does not overflow std's 128 entries.
    let _ = set_listen_backlog(listener, env.max_connections);

    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, EV_READ)?;
    poller.add(env.waker.read_fd(), TOKEN_WAKER, EV_READ)?;

    let mut conns: HashMap<u64, Conn<'env>> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut accepted = 0u64;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut buf = vec![0u8; READ_CHUNK];
    let mut draining = false;
    let mut drain_deadline = Instant::now();

    loop {
        if !draining && shutdown.load(Ordering::SeqCst) {
            // Graceful drain: stop reading everywhere, answer what is
            // in flight, flush, then exit (or give up at the deadline).
            draining = true;
            drain_deadline = Instant::now() + DRAIN_DEADLINE;
            for (&token, conn) in conns.iter_mut() {
                conn.read_closed = true;
                touched.push(token);
            }
        }
        if draining && (conns.is_empty() || Instant::now() >= drain_deadline) {
            break;
        }

        events.clear();
        let wait_start = env.stats.metrics.map(|_| Instant::now());
        poller.wait(&mut events, POLL_TICK_MS)?;
        if let (Some(m), Some(start)) = (env.stats.metrics, wait_start) {
            m.epoll_wait_us.record(elapsed_us(start));
        }
        for event in &events {
            match event.token {
                TOKEN_LISTENER => loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if draining || conns.len() >= env.max_connections {
                                if let Some(m) = env.stats.metrics {
                                    m.overload_rejects.inc();
                                }
                                reject_connection(&stream, draining, env.max_connections);
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            let fd = stream.as_raw_fd();
                            let token = next_token;
                            next_token += 1;
                            if poller.add(fd, token, EV_READ).is_err() {
                                continue; // drop; client sees a close
                            }
                            accepted += 1;
                            env.stats.enter_connection();
                            let accepted_at = env.stats.metrics.map(|_| Instant::now());
                            let brain = RegistryBrain::new(ctx);
                            conns.insert(token, Conn::new(stream, fd, brain, accepted_at));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        // Transient accept failures (EMFILE, aborted
                        // handshake): retry next tick rather than
                        // killing the server.
                        Err(_) => break,
                    }
                },
                TOKEN_WAKER => {
                    // Pipe first, then the channel — the ordering that
                    // makes the waker's dedup flag race-free.
                    env.waker.drain();
                    let mut drained = 0u64;
                    while let Ok((token, delivery)) = done_rx.try_recv() {
                        drained += 1;
                        // Completions for connections that died
                        // mid-flight are discarded.
                        if let Some(conn) = conns.get_mut(&token) {
                            apply_delivery(conn, delivery);
                            touched.push(token);
                        }
                    }
                    if let Some(m) = env.stats.metrics {
                        m.wakeup_batch.record(drained);
                    }
                }
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if event.writable() {
                            flush_out(conn);
                        }
                        if event.readable() && !conn.read_closed && !conn.dead {
                            handle_readable(conn, token, env, &mut buf);
                        }
                        touched.push(token);
                    }
                }
            }
        }
        for token in touched.drain(..) {
            let remove = match conns.get_mut(&token) {
                Some(conn) => settle(conn, &poller, token, env.stats.metrics),
                None => false, // settled (and removed) earlier this tick
            };
            if remove {
                conns.remove(&token);
                env.stats.leave_connection();
            }
        }
    }
    // Connections cut off by the drain deadline still count as closed.
    for _ in conns.drain() {
        env.stats.leave_connection();
    }
    Ok(accepted)
}

/// Drains offloaded admin operations on a dedicated thread, feeding the
/// rendered response lines back to the loop. Exits when every sender is
/// gone.
fn admin_executor<'env>(
    rx: mpsc::Receiver<AdminTask<'env>>,
    done_tx: mpsc::Sender<(u64, Delivery)>,
    waker: Arc<Waker>,
) {
    while let Ok(task) = rx.recv() {
        let line = (task.run)();
        let _ = done_tx.send((task.token, Delivery::Raw(line.into_bytes())));
        waker.wake();
    }
}

/// [`crate::serve_registry_with_core_metrics`] on the epoll core:
/// serves a [`ModelRegistry`] until `shutdown` is raised. See there for
/// the protocol contract and the trust-boundary notes.
///
/// # Errors
///
/// Propagates listener/poller configuration errors; per-connection I/O
/// errors only terminate that connection.
pub(crate) fn serve_registry(
    listener: TcpListener,
    registry: &ModelRegistry,
    config: &RegistryServeConfig,
    shutdown: &AtomicBool,
    metrics: Option<&ServeMetrics>,
) -> io::Result<ServeStats> {
    let queue = BatchQueue::new();
    let stats = CoreStats::new(metrics);
    let served = AtomicU64::new(0);
    let ctx = RegistryCtx {
        registry,
        admission: &config.admission,
        stats: &stats,
    };

    let connections = std::thread::scope(|scope| -> io::Result<u64> {
        let waker = Arc::new(Waker::new()?);
        let (done_tx, done_rx) = mpsc::channel::<(u64, Delivery)>();
        let (admin_tx, admin_rx) = mpsc::channel::<AdminTask<'_>>();
        let workers: Vec<_> = (0..config.batch.workers.max(1))
            .map(|_| scope.spawn(|| worker_loop(&queue, registry, &config.batch, &served, metrics)))
            .collect();
        let admin_worker = scope.spawn({
            let done_tx = done_tx.clone();
            let waker = Arc::clone(&waker);
            move || admin_executor(admin_rx, done_tx, waker)
        });
        let env = LoopEnv {
            queue: &queue,
            window: config.batch.pipeline_window.max(1),
            max_connections: config.batch.max_connections.max(1),
            done_tx,
            admin_tx,
            waker,
            stats: &stats,
        };
        let outcome = run_event_loop(&listener, &ctx, &env, &done_rx, shutdown);
        // Dropping the env drops the admin sender, letting the executor
        // exit; the queue closes after so workers drain the backlog.
        drop(env);
        let _ = admin_worker.join();
        queue.close();
        for w in workers {
            let _ = w.join();
        }
        outcome
    })?;

    Ok(ServeStats {
        requests: stats.requests.load(Ordering::Relaxed),
        classified: served.load(Ordering::Relaxed),
        connections,
        throttled: stats.throttled.load(Ordering::Relaxed),
    })
}
