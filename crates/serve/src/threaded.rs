//! The thread-per-connection core: one reader + one writer thread per
//! connection ([`CoreKind::Threaded`](crate::server::CoreKind)).
//!
//! This is the original serving core, kept as the portable fallback and
//! as the differential baseline the epoll core is pinned against: both
//! cores share every byte of request policy
//! (`dispatch_incoming` in `crate::server`), so their
//! responses are identical — they differ only in how sockets are
//! driven and how far they scale (this core spends two OS threads per
//! connection; the event loop multiplexes thousands on one).
//!
//! ## Connection multiplexing
//!
//! Every connection is a **pipeline**: the read side parses requests
//! (line-JSON or binary frames, negotiated by first-byte sniffing — see
//! [`wire`]) and enqueues them without waiting for answers; a dedicated
//! per-connection writer thread interleaves responses as batch workers
//! finish, matched to requests by id, possibly out of order. A client
//! may keep up to `pipeline_window` classify requests in flight; the
//! window is enforced with a structured *overload* error
//! (`"overloaded":true` / error-frame flag bit 1), so well-behaved
//! clients drain responses instead of stalling the server. Serial
//! request/response clients are a degenerate pipeline of depth 1 and
//! behave exactly as they did before multiplexing.
//!
//! The server blocks the calling thread until `shutdown` is raised:
//! connection handlers, writers and batch workers run on
//! `std::thread::scope` threads, so the server needs no `'static` state
//! and no external runtime. Shutdown is graceful — the accept loop
//! stops, readers notice within their read-timeout tick and stop
//! accepting new requests, in-flight requests are answered, writers
//! drain, the queue closes, workers exit.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use hdc_store::ModelRegistry;

use crate::batcher::{BatchQueue, CompletionSink, Delivery, Job, JobKind};
use crate::metrics::{elapsed_us, ServeMetrics};
use crate::server::{
    dispatch_incoming, incoming_from_json, next_frame_step, render_completion, worker_loop,
    ConnOutbox, CoreStats, FrameStep, InflightSet, RegistryBrain, RegistryCtx, RegistryServeConfig,
    ServeStats, POLL_TICK,
};
use crate::wire::{self, WireMode};

/// Responses (beyond the classify window itself) the writer may have
/// pending before the read side stops pulling bytes off the socket.
/// Inline responses — errors, info, overload notices — are not metered
/// by the pipeline window, so without this cap a client that floods
/// requests and never reads responses would grow the writer's queue
/// without bound; at the cap, the reader pauses and ordinary TCP
/// back-pressure reaches the client.
const WRITER_BACKLOG_SLACK: usize = 256;

/// Shared per-connection I/O state handed to the dispatcher.
struct ConnIo<'a, 'env> {
    mode: WireMode,
    queue: &'a BatchQueue,
    tx: &'a mpsc::Sender<Delivery>,
    /// Ids of classify requests currently queued or running. The read
    /// side inserts before enqueue; the writer removes as it renders
    /// the completion — its size is the pipeline depth.
    inflight: &'a Mutex<InflightSet>,
    /// Deliveries handed to the writer but not yet written: the read
    /// side increments per send (inline response or enqueued job), the
    /// writer decrements per delivery processed.
    pending: &'a AtomicU64,
    window: usize,
    stats: &'a CoreStats<'env>,
}

impl ConnIo<'_, '_> {
    /// The writer-backlog ceiling: the full pipeline window plus slack
    /// for unmetered inline responses.
    fn backlog_cap(&self) -> u64 {
        (self.window + WRITER_BACKLOG_SLACK) as u64
    }

    fn send_raw(&self, bytes: Vec<u8>) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        // The writer only exits once every sender is gone; a failed
        // send means the connection is already tearing down.
        let _ = self.tx.send(Delivery::Raw(bytes));
    }

    /// Blocks while the writer's backlog is at the cap (a client
    /// sending without reading). Returns `false` when shutdown was
    /// raised while waiting.
    fn wait_for_backlog_room(&self, shutdown: &AtomicBool) -> bool {
        while self.pending.load(Ordering::SeqCst) >= self.backlog_cap() {
            if shutdown.load(Ordering::SeqCst) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }
}

impl<'env> ConnOutbox<'env> for ConnIo<'_, 'env> {
    fn mode(&self) -> WireMode {
        self.mode
    }

    fn window(&self) -> usize {
        self.window
    }

    fn stats(&self) -> &CoreStats<'env> {
        self.stats
    }

    fn send_inline(&mut self, bytes: Vec<u8>) {
        self.send_raw(bytes);
    }

    fn inflight_contains(&self, id: u64) -> bool {
        self.inflight
            .lock()
            .expect("in-flight set lock never poisoned")
            .contains(&id)
    }

    fn inflight_len(&self) -> usize {
        self.inflight
            .lock()
            .expect("in-flight set lock never poisoned")
            .len()
    }

    fn inflight_insert(&mut self, id: u64) {
        self.inflight
            .lock()
            .expect("in-flight set lock never poisoned")
            .insert(id);
    }

    fn inflight_remove(&mut self, id: u64) {
        self.inflight
            .lock()
            .expect("in-flight set lock never poisoned")
            .remove(&id);
    }

    fn enqueue(&mut self, id: u64, kind: JobKind) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.queue.push(Job {
            id,
            kind,
            tx: CompletionSink::Channel(self.tx.clone()),
            enqueued_at: self.stats.metrics.is_some().then(Instant::now),
        });
    }

    fn offload_admin(&mut self, run: Box<dyn FnOnce() -> String + Send + 'env>) {
        // Swaps are rare; blocking this one connection's reader while
        // the new generation builds is the intended behavior — classify
        // traffic on other connections keeps flowing on the old
        // generation.
        self.send_raw(run().into_bytes());
    }
}

/// The per-connection writer: receives deliveries (batch completions,
/// pre-rendered inline responses) and writes them in arrival order —
/// which for pipelined completions is *completion* order, not request
/// order; clients match on the echoed id. Exits when every sender
/// (reader + all queued jobs) is gone.
fn writer_loop(
    stream: TcpStream,
    rx: mpsc::Receiver<Delivery>,
    mode: WireMode,
    inflight: &Mutex<InflightSet>,
    pending: &AtomicU64,
    metrics: Option<&ServeMetrics>,
) {
    let mut writer = BufWriter::new(stream);
    let mut dead = false;
    while let Ok(first) = rx.recv() {
        // One drain+flush cycle is this core's write-backlog drain
        // stage (the event loop's counterpart is its nonblocking
        // flush).
        let drain_start = metrics.map(|_| Instant::now());
        let mut next = Some(first);
        // Greedily drain whatever has completed, then flush once: under
        // pipelined load this coalesces many small responses into one
        // syscall.
        while let Some(delivery) = next {
            let bytes = match delivery {
                Delivery::Raw(bytes) => bytes,
                Delivery::Done(done) => {
                    inflight
                        .lock()
                        .expect("in-flight set lock never poisoned")
                        .remove(&done.id);
                    render_completion(mode, &done)
                }
            };
            if !dead && writer.write_all(&bytes).is_err() {
                // Client hung up (or stalled past the write timeout)
                // mid-pipeline: keep draining so the in-flight and
                // backlog bookkeeping finishes, skip the writes — and
                // shut the socket down so the read side sees EOF and
                // closes the connection instead of silently accepting
                // requests that will never be answered.
                dead = true;
                let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
            }
            pending.fetch_sub(1, Ordering::SeqCst);
            next = rx.try_recv().ok();
        }
        if !dead && writer.flush().is_err() {
            dead = true;
            let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
        }
        if let (Some(m), Some(start)) = (metrics, drain_start) {
            m.drain_us.record(elapsed_us(start));
        }
    }
}

/// One connection: sniff the wire format, then run the read loop on
/// this thread and the writer on a scoped sibling. Returns when the
/// client hangs up, a fatal framing fault closes the stream, or
/// shutdown is raised (after in-flight requests are answered).
fn handle_connection<'env>(
    stream: TcpStream,
    mut brain: RegistryBrain<'env>,
    queue: &BatchQueue,
    shutdown: &AtomicBool,
    stats: &CoreStats<'env>,
    window: usize,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_TICK))?;

    // Negotiate the wire format without consuming anything: the first
    // byte of a binary connection is the magic 0xB1, which no JSON line
    // starts with.
    let sniff_start = stats.metrics.map(|_| Instant::now());
    let mode = loop {
        let mut first = [0u8; 1];
        match stream.peek(&mut first) {
            Ok(0) => return Ok(()), // connected, sent nothing, left
            Ok(_) => {
                break if first[0] == wire::MAGIC0 {
                    WireMode::Binary
                } else {
                    WireMode::Json
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    };
    if let (Some(m), Some(start)) = (stats.metrics, sniff_start) {
        m.sniff_us.record(elapsed_us(start));
    }

    let write_stream = stream.try_clone()?;
    // A generous write timeout keeps a stalled (never-reading) client
    // from pinning the writer — and with it, graceful shutdown —
    // forever once the kernel send buffer fills.
    write_stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let (tx, rx) = mpsc::channel::<Delivery>();
    let inflight = Mutex::new(InflightSet::new());
    let pending = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let writer = scope.spawn({
            let inflight = &inflight;
            let pending = &pending;
            let metrics = stats.metrics;
            move || writer_loop(write_stream, rx, mode, inflight, pending, metrics)
        });
        let mut io = ConnIo {
            mode,
            queue,
            tx: &tx,
            inflight: &inflight,
            pending: &pending,
            window: window.max(1),
            stats,
        };
        let result = match mode {
            WireMode::Json => read_json_loop(&stream, &mut io, &mut brain, shutdown),
            WireMode::Binary => read_binary_loop(&stream, &mut io, &mut brain, shutdown),
        };
        // Dropping the reader's sender lets the writer exit once the
        // last in-flight job has delivered its completion.
        drop(tx);
        let _ = writer.join();
        result
    })
}

/// Read loop, line-JSON flavor.
fn read_json_loop<'env>(
    stream: &TcpStream,
    io: &mut ConnIo<'_, 'env>,
    brain: &mut RegistryBrain<'env>,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        // Stop pulling bytes while the writer backlog is at its cap
        // (client sends but does not read) — TCP back-pressure takes
        // over from here.
        if !io.wait_for_backlog_room(shutdown) {
            break;
        }
        // `line` is NOT cleared at the top: a read timeout may leave a
        // partially received request in it, and the next tick must
        // append the rest instead of dropping the fragment.
        match reader.read_line(&mut line) {
            Ok(0) => break, // client hung up (any partial line is theirs)
            Ok(_) => {
                if !line.trim().is_empty() {
                    let incoming = incoming_from_json(&line);
                    if !dispatch_incoming(io, brain, incoming) {
                        break;
                    }
                }
                line.clear();
                // A client that never pauses must not be able to pin
                // this reader past shutdown: in-flight requests are
                // answered by the writer, then the connection closes.
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    Ok(())
}

/// Read loop, binary-frame flavor: accumulate bytes, peel off complete
/// frames, dispatch each. Framed-but-malformed requests (unknown
/// opcode, newer version, bad payload) answer a structured error and
/// keep the connection — and its sibling in-flight requests — alive;
/// only an untrustworthy stream (bad magic, oversized length prefix)
/// closes it.
fn read_binary_loop<'env>(
    mut stream: &TcpStream,
    io: &mut ConnIo<'_, 'env>,
    brain: &mut RegistryBrain<'env>,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    let mut frames = wire::FrameBuffer::new();
    let mut chunk = vec![0u8; 64 * 1024];
    'conn: loop {
        // Same writer-backlog pause as the JSON loop (frames already
        // buffered still dispatch — bounded by one read chunk).
        if !io.wait_for_backlog_room(shutdown) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // client hung up (any partial frame is theirs)
            Ok(n) => {
                frames.extend(&chunk[..n]);
                loop {
                    match next_frame_step(&mut frames) {
                        FrameStep::Dispatch(incoming) => {
                            if !dispatch_incoming(io, brain, incoming) {
                                break 'conn;
                            }
                        }
                        FrameStep::NeedMore => break,
                        FrameStep::CloseSilent => break 'conn,
                        FrameStep::CloseAfter(fatal) => {
                            let _ = dispatch_incoming(io, brain, fatal);
                            break 'conn;
                        }
                    }
                }
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// [`crate::serve_registry_with_core_metrics`] on the threaded core:
/// serves a [`ModelRegistry`] until `shutdown` is raised, with one
/// reader + one writer thread per connection. See there for the
/// protocol contract and the **trust boundary** notes on the
/// unauthenticated admin plane.
///
/// # Errors
///
/// Propagates listener configuration errors; per-connection I/O errors
/// only terminate that connection.
pub(crate) fn serve_registry(
    listener: TcpListener,
    registry: &ModelRegistry,
    config: &RegistryServeConfig,
    shutdown: &AtomicBool,
    metrics: Option<&ServeMetrics>,
) -> std::io::Result<ServeStats> {
    listener.set_nonblocking(true)?;
    let queue = BatchQueue::new();
    let stats = CoreStats::new(metrics);
    let served = AtomicU64::new(0);
    let mut connections = 0u64;
    let ctx = RegistryCtx {
        registry,
        admission: &config.admission,
        stats: &stats,
    };

    std::thread::scope(|scope| {
        let worker_handles: Vec<_> = (0..config.batch.workers.max(1))
            .map(|_| scope.spawn(|| worker_loop(&queue, registry, &config.batch, &served, metrics)))
            .collect();

        let mut handler_handles = Vec::new();
        while !shutdown.load(Ordering::SeqCst) {
            // Reap handlers whose connections already closed, so a
            // long-running server does not accumulate one JoinHandle
            // per connection it ever accepted.
            handler_handles.retain(|h: &std::thread::ScopedJoinHandle<'_, ()>| !h.is_finished());
            match listener.accept() {
                Ok((stream, _peer)) => {
                    connections += 1;
                    let ctx = &ctx;
                    let queue = &queue;
                    handler_handles.push(scope.spawn(move || {
                        ctx.stats.enter_connection();
                        let _ = handle_connection(
                            stream,
                            RegistryBrain::new(ctx),
                            queue,
                            shutdown,
                            ctx.stats,
                            config.batch.pipeline_window,
                        );
                        ctx.stats.leave_connection();
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err(_) => break,
            }
        }

        // Graceful shutdown: stop accepting, let handlers drain their
        // in-flight requests (readers exit within a read-timeout tick,
        // writers once the last completion lands — the workers are
        // still popping batches at this point), then close the queue so
        // workers finish the backlog and exit.
        for h in handler_handles {
            let _ = h.join();
        }
        queue.close();
        for h in worker_handles {
            let _ = h.join();
        }
    });

    Ok(ServeStats {
        requests: stats.requests.load(Ordering::Relaxed),
        classified: served.load(Ordering::Relaxed),
        connections,
        throttled: stats.throttled.load(Ordering::Relaxed),
    })
}
