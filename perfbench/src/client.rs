//! The load generator: one nonblocking connection driven from one
//! thread. Request bytes are built before a phase; inside it the
//! generator only writes them, splits complete responses off the byte
//! stream by their length (binary) or newline (JSON), and stamps each
//! with its arrival time. Decoding and answer checks happen after the
//! phase.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hdc_serve::wire::{self, FrameHeader};
use hdc_serve::{protocol, ClassifyResponse};

/// How long a phase may wait for its last answers.
const DRAIN_TIMEOUT: f64 = 10.0;

/// Request ids carry their phase in the top bits and the request index
/// below; the index picks the request row.
pub const PHASE_SHIFT: u32 = 40;

pub fn request_id(phase: u64, index: usize) -> u64 {
    (phase << PHASE_SHIFT) | index as u64
}

pub fn split_id(id: u64) -> (u64, usize) {
    (id >> PHASE_SHIFT, (id & ((1 << PHASE_SHIFT) - 1)) as usize)
}

/// One request's bytes on the workload's wire.
pub fn request_bytes(json: bool, id: u64, row: &[u16], search_k: Option<usize>) -> Vec<u8> {
    match (json, search_k) {
        (true, None) => protocol::request_line(id, row, false).into_bytes(),
        (true, Some(k)) => protocol::search_request_line(id, row, k).into_bytes(),
        (false, None) => wire::classify_frame(id, row, false),
        (false, Some(k)) => wire::search_frame(id, row, k),
    }
}

/// Length and id of the complete response at the front of `buf`.
/// A JSON line without a readable id yields `u64::MAX`.
pub fn split_response(buf: &[u8], json: bool) -> Option<(usize, u64)> {
    if json {
        let end = buf.iter().position(|&b| b == b'\n')?;
        let id = buf[..end]
            .strip_prefix(b"{\"id\":")
            .map(|rest| {
                rest.iter()
                    .take_while(|b| b.is_ascii_digit())
                    .fold(0u64, |a, &b| {
                        a.wrapping_mul(10).wrapping_add(u64::from(b - b'0'))
                    })
            })
            .unwrap_or(u64::MAX);
        Some((end + 1, id))
    } else {
        if buf.len() < wire::HEADER_LEN {
            return None;
        }
        let id = u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize;
        (buf.len() >= wire::HEADER_LEN + len).then_some((wire::HEADER_LEN + len, id))
    }
}

/// A response as it arrived.
#[derive(Debug, Clone, Copy)]
pub struct Received {
    pub id: u64,
    /// Seconds since the phase origin.
    pub t: f64,
    off: usize,
    len: usize,
}

/// One connection and everything it has received.
pub struct Conn {
    stream: TcpStream,
    json: bool,
    raw: Vec<u8>,
    parsed: usize,
    pending: Vec<u8>,
    scratch: Vec<u8>,
    pub got: Vec<Received>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, json: bool) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            json,
            raw: Vec::new(),
            parsed: 0,
            pending: Vec::new(),
            scratch: vec![0; 1 << 16],
            got: Vec::new(),
        })
    }

    /// Queues bytes to send.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Writes as much queued data as the socket takes without blocking.
    fn flush(&mut self) -> std::io::Result<()> {
        while !self.pending.is_empty() {
            match self.stream.write(&self.pending) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.pending.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Flushes, then reads whatever has arrived and records every
    /// complete response at the current time. Returns how many.
    pub fn pump(&mut self, origin: Instant) -> std::io::Result<usize> {
        self.flush()?;
        let mut fresh = 0;
        loop {
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.raw.extend_from_slice(&self.scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let t = origin.elapsed().as_secs_f64();
        while let Some((len, id)) = split_response(&self.raw[self.parsed..], self.json) {
            self.got.push(Received {
                id,
                t,
                off: self.parsed,
                len,
            });
            self.parsed += len;
            fresh += 1;
        }
        Ok(fresh)
    }

    /// Decodes a recorded response.
    pub fn decode(&self, r: &Received) -> Result<ClassifyResponse, String> {
        let bytes = &self.raw[r.off..r.off + r.len];
        if self.json {
            protocol::parse_response(std::str::from_utf8(bytes).map_err(|e| e.to_string())?)
        } else {
            let header = FrameHeader {
                version: bytes[2],
                opcode: bytes[3],
                id: r.id,
                len: r.len - wire::HEADER_LEN,
            };
            wire::decode_response(&header, &bytes[wire::HEADER_LEN..])
        }
    }

    /// Sends one request and waits for its response (set-up probes and
    /// admin requests outside timed windows).
    pub fn roundtrip(
        &mut self,
        bytes: &[u8],
        timeout: Duration,
    ) -> Result<ClassifyResponse, String> {
        let origin = Instant::now();
        let before = self.got.len();
        self.queue(bytes);
        while self.got.len() == before {
            self.pump(origin).map_err(|e| e.to_string())?;
            if origin.elapsed() > timeout {
                return Err("no answer before the timeout".into());
            }
        }
        self.decode(&self.got[before])
    }
}

/// Outcome of a closed-loop phase.
pub struct Closed {
    /// Completion times of the responses received inside the phase.
    pub completions: Vec<f64>,
    /// `sample()` at the start and at every `width` boundary.
    pub samples: Vec<f64>,
    /// Requests sent.
    pub sent: usize,
    /// Index of the phase's first response in `Conn::got`.
    pub first: usize,
}

/// Closed loop: keeps `window` requests in flight for `secs`, cycling
/// through `ring`, then drains what is still in flight. Calls `sample`
/// at the start and each time a `width`-second boundary passes.
pub fn closed_loop(
    conn: &mut Conn,
    ring: &[Vec<u8>],
    window: usize,
    secs: f64,
    width: f64,
    sample: &mut dyn FnMut() -> f64,
) -> std::io::Result<Closed> {
    let mut samples = vec![sample()];
    let origin = Instant::now();
    let first = conn.got.len();
    let (mut next, mut in_flight, mut sent) = (0usize, 0usize, 0usize);
    loop {
        let now = origin.elapsed().as_secs_f64();
        if now >= samples.len() as f64 * width && samples.len() as f64 * width <= secs + 1e-9 {
            samples.push(sample());
        }
        if now < secs {
            while in_flight < window {
                conn.queue(&ring[next % ring.len()]);
                next += 1;
                in_flight += 1;
                sent += 1;
            }
        } else if in_flight == 0 {
            break;
        } else if now > secs + DRAIN_TIMEOUT {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "closed loop drain",
            ));
        }
        in_flight -= conn.pump(origin)?;
    }
    let completions = conn.got[first..]
        .iter()
        .map(|r| r.t)
        .filter(|&t| t < secs)
        .collect();
    Ok(Closed {
        completions,
        samples,
        sent,
        first,
    })
}

/// Sequential admin requests on a second (JSON) connection, sent while
/// an open-loop phase runs: the next goes out `gap` seconds after the
/// previous answer.
pub struct AdminSeq {
    pub conn: Conn,
    pub requests: Vec<Vec<u8>>,
    pub gap: f64,
    /// `(sent, answered)` per request, seconds since the phase origin.
    pub times: Vec<(f64, f64)>,
    in_flight: Option<f64>,
    ready_at: f64,
}

impl AdminSeq {
    pub fn new(conn: Conn, requests: Vec<Vec<u8>>, gap: f64) -> Self {
        AdminSeq {
            conn,
            requests,
            gap,
            times: Vec::new(),
            in_flight: None,
            ready_at: gap,
        }
    }

    fn done(&self) -> bool {
        self.times.len() == self.requests.len()
    }

    fn poll(&mut self, origin: Instant) -> std::io::Result<()> {
        let now = origin.elapsed().as_secs_f64();
        if self.in_flight.is_none() && !self.done() && now >= self.ready_at {
            let req = self.requests[self.times.len()].clone();
            self.conn.queue(&req);
            self.in_flight = Some(now);
        }
        if self.conn.pump(origin)? > 0 {
            if let Some(sent) = self.in_flight.take() {
                let t = origin.elapsed().as_secs_f64();
                self.times.push((sent, t));
                self.ready_at = t + self.gap;
            }
        }
        Ok(())
    }
}

/// Outcome of an open-loop phase.
pub struct Open {
    /// When each request was due, seconds since the phase origin.
    pub scheduled: Vec<f64>,
    /// When each request was actually written.
    pub sent: Vec<f64>,
    /// Index of the phase's first response in `Conn::got`.
    pub first: usize,
}

/// Open loop: request `i` is due at `i / rate` seconds, whatever the
/// server has answered. Runs until every request sent is answered and
/// every admin request is done, or the drain timeout passes. With
/// `admin`, no request is sent after the last admin answer: the load
/// lasts exactly as long as the admin sequence.
pub fn open_loop(
    conn: &mut Conn,
    frames: &[Vec<u8>],
    rate: f64,
    mut admin: Option<&mut AdminSeq>,
) -> std::io::Result<Open> {
    let mut n = frames.len();
    let mut scheduled: Vec<f64> = (0..n).map(|i| i as f64 / rate).collect();
    let mut sent = vec![0.0; n];
    let first = conn.got.len();
    let origin = Instant::now();
    let end = scheduled.last().copied().unwrap_or(0.0) + DRAIN_TIMEOUT;
    let mut i = 0;
    loop {
        let now = origin.elapsed().as_secs_f64();
        while i < n && scheduled[i] <= now {
            conn.queue(&frames[i]);
            sent[i] = now;
            i += 1;
        }
        conn.pump(origin)?;
        if let Some(a) = admin.as_deref_mut() {
            a.poll(origin)?;
            if a.done() {
                n = i;
            }
        }
        let admin_done = admin.as_deref().is_none_or(AdminSeq::done);
        if i == n && conn.got.len() - first >= n && admin_done {
            break;
        }
        if now > end {
            break;
        }
    }
    scheduled.truncate(n);
    sent.truncate(n);
    Ok(Open {
        scheduled,
        sent,
        first,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_split_on_both_wires() {
        let line = protocol::ok_response(42, 3, None);
        let mut buf = line.clone().into_bytes();
        buf.extend_from_slice(b"{\"id\":7");
        assert_eq!(split_response(&buf, true), Some((line.len(), 42)));
        assert_eq!(split_response(&buf[line.len()..], true), None);

        let frame = wire::class_frame(request_id(2, 9), 5);
        let mut buf = frame.clone();
        buf.extend_from_slice(&frame[..7]);
        let (len, id) = split_response(&buf, false).unwrap();
        assert_eq!(len, frame.len());
        assert_eq!(split_id(id), (2, 9));
        assert_eq!(split_response(&buf[len..], false), None);
    }
}
