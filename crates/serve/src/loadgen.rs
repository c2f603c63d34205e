//! Load generator for the classify server.
//!
//! One epoll-driven thread (Linux only) multiplexes every connection as
//! a nonblocking socket, so thousands of concurrent connections cost no
//! more threads than one. Each connection is a closed loop with a
//! window: it keeps up to `pipeline` requests in flight with random
//! (seeded) quantized rows and sends the next as each response lands.
//! Requests travel as line-JSON (the default) or as binary frames
//! ([`crate::wire`]); responses are matched to requests by id, so
//! out-of-order completions from the server's multiplexed writer are
//! handled naturally. With `pipeline == 1` every connection is a
//! synchronous round-trip loop — the *serial* rungs `BENCH_search.json`
//! tracks. With `churn_every`, connections disconnect and reconnect
//! under load, exercising the server's accept path.
//!
//! With `connections × pipeline` in the same ballpark as the server's
//! `max_batch`, the batching queue fuses the concurrent requests into
//! full batch-kernel calls; at 10k connections the same runner is the
//! client half of the acceptance run in `BENCH_search.json`'s
//! `serving.concurrency` section.
//!
//! Every successful round trip is recorded, in microseconds, into one
//! [`hdc_obs::Histogram`] — the type the server's stage spans record
//! into — so client-observed and server-side quantiles share buckets.
//! [`LoadReport::latency`] is its snapshot. Off Linux, [`run`] returns
//! [`std::io::ErrorKind::Unsupported`], as serving does.

use std::net::SocketAddr;

use hdc_obs::HistogramSnapshot;

use crate::wire::WireMode;

/// Load-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadgenConfig {
    /// Concurrent connections, all multiplexed from one thread.
    pub connections: usize,
    /// Requests issued per connection (across churn reconnects).
    /// Must stay below `2^20` — ids pack as `conn << 20 | seq`.
    pub requests_per_connection: usize,
    /// Seed for the per-connection row generators.
    pub seed: u64,
    /// Wire format to speak ([`WireMode::Json`] by default).
    pub wire: WireMode,
    /// In-flight requests per connection (1 = serial request/response).
    pub pipeline: usize,
    /// `Some(k)` switches every request to a top-k search (`search`
    /// JSON requests / `SEARCH` frames); a response without a match
    /// list counts as an error.
    pub search_k: Option<usize>,
    /// `Some(n)`: every `n` responses a connection drains its window,
    /// disconnects and reconnects — steady accept-path churn while the
    /// rest of the fleet keeps serving.
    pub churn_every: Option<usize>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            connections: 32,
            requests_per_connection: 1000,
            seed: 2022,
            wire: WireMode::Json,
            pipeline: 1,
            search_k: None,
            churn_every: None,
        }
    }
}

/// Aggregate result of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Successful responses.
    pub total_requests: u64,
    /// Error responses, unparseable responses and unmatched ids.
    pub errors: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed_secs: f64,
    /// Successful requests per second (0 when none succeeded).
    pub requests_per_sec: f64,
    /// Round-trip latency of every successful request, µs.
    pub latency: HistogramSnapshot,
}

/// Runs the load generator against a serving address.
///
/// `n_features` / `m_levels` must match the served model (the generator
/// crafts uniformly random valid rows). A run in which no request
/// succeeds still returns its report.
///
/// # Errors
///
/// Propagates connection failures and servers that close or stall
/// mid-run (no progress for 30 s); per-request protocol errors are
/// counted in [`LoadReport::errors`]. Off Linux, returns
/// [`std::io::ErrorKind::Unsupported`].
///
/// # Panics
///
/// Panics if `connections == 0`, `pipeline == 0` or
/// `requests_per_connection ≥ 2^20`.
pub fn run(
    addr: SocketAddr,
    n_features: usize,
    m_levels: usize,
    config: &LoadgenConfig,
) -> std::io::Result<LoadReport> {
    assert!(config.connections > 0, "need at least one connection");
    assert!(config.pipeline > 0, "pipeline depth must be at least 1");
    assert!(
        config.requests_per_connection < (1 << 20),
        "per-connection request count must fit the id packing"
    );
    #[cfg(target_os = "linux")]
    {
        client::run(addr, n_features, m_levels, config)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (addr, n_features, m_levels);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "load generation needs the Linux epoll client",
        ))
    }
}

#[cfg(target_os = "linux")]
mod client {
    use super::{LoadReport, LoadgenConfig};
    use crate::epoll::{raise_nofile_limit, PollEvent, Poller, EV_READ, EV_WRITE};
    use crate::protocol;
    use crate::wire::{self, WireMode};
    use hdc_obs::Histogram;
    use hypervec::HvRng;
    use std::collections::HashMap;
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    /// Abort when the server makes no progress for this long.
    const STALL_DEADLINE: Duration = Duration::from_secs(30);
    const POLL_TICK_MS: i32 = 100;
    const READ_CHUNK: usize = 64 * 1024;

    /// One multiplexed client connection.
    struct Conn {
        stream: TcpStream,
        fd: i32,
        rng: HvRng,
        sent: usize,
        received: usize,
        frames: wire::FrameBuffer,
        line: Vec<u8>,
        out: Vec<u8>,
        out_pos: usize,
        interest: u32,
        /// Response count that triggers the next churn reconnect.
        next_churn: usize,
        /// Window draining ahead of a churn reconnect: no new sends.
        reconnecting: bool,
    }

    impl Conn {
        fn connect(addr: SocketAddr, seed: u64, next_churn: usize) -> io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            let fd = stream.as_raw_fd();
            Ok(Conn {
                stream,
                fd,
                rng: HvRng::from_seed(seed),
                sent: 0,
                received: 0,
                frames: wire::FrameBuffer::new(),
                line: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                interest: EV_READ,
                next_churn,
                reconnecting: false,
            })
        }

        fn backlog(&self) -> usize {
            self.out.len() - self.out_pos
        }
    }

    /// Per-run bookkeeping shared by both wire formats.
    struct Tally {
        sent_at: HashMap<u64, Instant>,
        latency: Histogram,
        errors: u64,
    }

    impl Tally {
        /// Accounts one response; `id: None` means unparseable. An id
        /// never sent (or already answered) counts as an error, so a
        /// server-side anomaly cannot hide.
        fn response(&mut self, id: Option<u64>, ok: bool) {
            match id.and_then(|id| self.sent_at.remove(&id)) {
                Some(at) if ok => self
                    .latency
                    .record(u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX)),
                Some(_) | None => self.errors += 1,
            }
        }
    }

    /// Queues requests until the pipeline window or request budget is
    /// full.
    fn fill_window(
        conn: &mut Conn,
        c: usize,
        n_features: usize,
        m_levels: usize,
        config: &LoadgenConfig,
        tally: &mut Tally,
    ) {
        while !conn.reconnecting
            && conn.sent < config.requests_per_connection
            && conn.sent - conn.received < config.pipeline
        {
            let levels: Vec<u16> = (0..n_features)
                .map(|_| conn.rng.index(m_levels) as u16)
                .collect();
            let id = (c as u64) << 20 | conn.sent as u64;
            conn.sent += 1;
            tally.sent_at.insert(id, Instant::now());
            match (config.wire, config.search_k) {
                (WireMode::Json, None) => conn
                    .out
                    .extend_from_slice(protocol::request_line(id, &levels, false).as_bytes()),
                (WireMode::Json, Some(k)) => conn
                    .out
                    .extend_from_slice(protocol::search_request_line(id, &levels, k).as_bytes()),
                (WireMode::Binary, None) => conn
                    .out
                    .extend_from_slice(&wire::classify_frame(id, &levels, false)),
                (WireMode::Binary, Some(k)) => conn
                    .out
                    .extend_from_slice(&wire::search_frame(id, &levels, k)),
            }
        }
    }

    /// Writes whatever the socket accepts. Errors are fatal for the run
    /// (the server should never drop a loadgen connection).
    fn flush(conn: &mut Conn) -> io::Result<()> {
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "server stopped accepting bytes mid-run",
                    ))
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        }
        Ok(())
    }

    /// Reads and accounts every complete response currently available.
    fn drain_responses(
        conn: &mut Conn,
        config: &LoadgenConfig,
        tally: &mut Tally,
        buf: &mut [u8],
    ) -> io::Result<()> {
        let want_matches = config.search_k.is_some();
        loop {
            let n = match conn.stream.read(buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-run",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            match config.wire {
                WireMode::Binary => {
                    conn.frames.extend(&buf[..n]);
                    loop {
                        match conn.frames.next_frame() {
                            Ok(Some((header, payload))) => {
                                conn.received += 1;
                                match wire::decode_response(&header, &payload) {
                                    Ok(resp) => tally.response(
                                        Some(resp.id),
                                        resp.error.is_none()
                                            && (!want_matches || resp.matches.is_some()),
                                    ),
                                    Err(_) => tally.response(Some(header.id), false),
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    "server sent an unframeable response",
                                ))
                            }
                        }
                    }
                }
                WireMode::Json => {
                    conn.line.extend_from_slice(&buf[..n]);
                    while let Some(pos) = conn.line.iter().position(|&b| b == b'\n') {
                        let line_bytes: Vec<u8> = conn.line.drain(..=pos).collect();
                        conn.received += 1;
                        let parsed = std::str::from_utf8(&line_bytes)
                            .ok()
                            .and_then(|text| protocol::parse_response(text).ok());
                        match parsed {
                            Some(resp) => tally.response(
                                Some(resp.id),
                                resp.error.is_none() && (!want_matches || resp.matches.is_some()),
                            ),
                            None => tally.response(None, false),
                        }
                    }
                }
            }
            if n < buf.len() {
                return Ok(());
            }
        }
    }

    pub(super) fn run(
        addr: SocketAddr,
        n_features: usize,
        m_levels: usize,
        config: &LoadgenConfig,
    ) -> io::Result<LoadReport> {
        let _ = raise_nofile_limit(config.connections as u64 * 2 + 64);
        let poller = Poller::new()?;
        let start = Instant::now();
        let seed_of = |c: usize| config.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let first_churn = config.churn_every.unwrap_or(usize::MAX);
        let mut tally = Tally {
            sent_at: HashMap::with_capacity(config.connections * config.pipeline),
            latency: Histogram::new(),
            errors: 0,
        };

        // Serial blocking connects (loopback-fast), then nonblocking.
        let mut conns: Vec<Option<Conn>> = Vec::with_capacity(config.connections);
        for c in 0..config.connections {
            let mut conn = Conn::connect(addr, seed_of(c), first_churn)?;
            fill_window(&mut conn, c, n_features, m_levels, config, &mut tally);
            poller.add(conn.fd, c as u64, EV_READ)?;
            conns.push(Some(conn));
        }

        // A connection with no requests to send is done from the start.
        let mut done = if config.requests_per_connection == 0 {
            config.connections
        } else {
            0
        };
        let mut events: Vec<PollEvent> = Vec::new();
        let mut buf = vec![0u8; READ_CHUNK];
        let mut last_progress = Instant::now();
        let mut total_received = 0u64;

        // Initial flush after registration so nothing is lost if a
        // socket would have been writable before its poller add.
        for conn in conns.iter_mut().flatten() {
            flush(conn)?;
        }

        while done < config.connections {
            events.clear();
            poller.wait(&mut events, POLL_TICK_MS)?;
            for event in &events {
                let c = event.token as usize;
                let Some(conn) = conns.get_mut(c).and_then(Option::as_mut) else {
                    continue;
                };
                if event.writable() {
                    flush(conn)?;
                }
                if event.readable() {
                    drain_responses(conn, config, &mut tally, &mut buf)?;
                }

                // Schedule churn: stop sending, drain the window, then
                // reconnect with the remaining request budget.
                if conn.received >= conn.next_churn && conn.sent < config.requests_per_connection {
                    conn.reconnecting = true;
                }
                if conn.reconnecting && conn.sent == conn.received && conn.backlog() == 0 {
                    poller.remove(conn.fd);
                    let (sent, received, next_churn) = (
                        conn.sent,
                        conn.received,
                        conn.received + config.churn_every.unwrap_or(usize::MAX),
                    );
                    let mut fresh = Conn::connect(addr, seed_of(c) ^ sent as u64, next_churn)?;
                    fresh.sent = sent;
                    fresh.received = received;
                    poller.add(fresh.fd, c as u64, EV_READ)?;
                    *conn = fresh;
                }

                fill_window(conn, c, n_features, m_levels, config, &mut tally);
                flush(conn)?;

                if conn.received == config.requests_per_connection {
                    poller.remove(conn.fd);
                    conns[c] = None;
                    done += 1;
                    continue;
                }
                let want = EV_READ | if conn.backlog() > 0 { EV_WRITE } else { 0 };
                if want != conn.interest {
                    poller.modify(conn.fd, c as u64, want)?;
                    conn.interest = want;
                }
            }

            let received_now = tally.latency.count() + tally.errors;
            if received_now > total_received {
                total_received = received_now;
                last_progress = Instant::now();
            } else if last_progress.elapsed() > STALL_DEADLINE {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "load generation stalled: {done}/{} connections finished, \
                         {received_now} responses, none for {STALL_DEADLINE:?}",
                        config.connections
                    ),
                ));
            }
        }

        let elapsed_secs = start.elapsed().as_secs_f64();
        let latency = tally.latency.snapshot();
        let total_requests = latency.count();
        Ok(LoadReport {
            total_requests,
            errors: tally.errors,
            elapsed_secs,
            requests_per_sec: total_requests as f64 / elapsed_secs,
            latency,
        })
    }
}
