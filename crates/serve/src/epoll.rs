//! Thin libc shims for the event-driven server core.
//!
//! Everything here follows the same pattern as the `HYPERVEC_PIN`
//! `sched_setaffinity` shim in `hypervec::par`: a tiny `extern "C"` block
//! behind `#[cfg(target_os = "linux")]`, best-effort semantics, and a silent
//! no-op (or an explicit `Unsupported` error) everywhere else. No external
//! crates are involved.
//!
//! Four things live here:
//!
//! * [`Poller`] — a level-triggered `epoll` wrapper (Linux only) whose
//!   [`Poller::wait`] retries `EINTR` internally with a recomputed timeout.
//! * [`Waker`] — a nonblocking self-pipe that worker threads use to nudge the
//!   event loop after pushing a completion. A [`Waker`] deduplicates wakes
//!   with an atomic flag so a storm of completions costs one pipe write.
//! * [`raise_nofile_limit`] — best-effort `RLIMIT_NOFILE` bump so a 10k+
//!   connection target does not die on the default soft limit of 1024.
//! * [`set_listen_backlog`] — best-effort re-`listen` that deepens a
//!   listener's accept queue past std's fixed backlog of 128.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

/// Readiness bit: the file descriptor is readable (`EPOLLIN`).
pub const EV_READ: u32 = 0x001;
/// Readiness bit: the file descriptor is writable (`EPOLLOUT`).
pub const EV_WRITE: u32 = 0x004;
/// Readiness bit: error condition (`EPOLLERR`).
pub const EV_ERROR: u32 = 0x008;
/// Readiness bit: peer hung up (`EPOLLHUP`).
pub const EV_HANGUP: u32 = 0x010;

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Bitwise OR of the `EV_*` readiness bits.
    pub events: u32,
}

impl PollEvent {
    /// True when the descriptor has bytes to read (or a pending hangup, which
    /// level-triggered epoll reports so the read path can observe EOF).
    pub fn readable(&self) -> bool {
        self.events & (EV_READ | EV_HANGUP | EV_ERROR) != 0
    }

    /// True when the descriptor can accept more bytes.
    pub fn writable(&self) -> bool {
        self.events & (EV_WRITE | EV_ERROR) != 0
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw syscall surface. Only x86-64 packs `epoll_event`.

    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const O_NONBLOCK: i32 = 0x800;
    pub const O_CLOEXEC: i32 = 0x80000;
    pub const RLIMIT_NOFILE: i32 = 7;

    /// The kernel's `struct epoll_event`, packed only where the kernel
    /// packs it (`__EPOLL_PACKED` in `linux/eventpoll.h`: x86-64).
    /// Elsewhere `data` sits at the C alignment of a `u64`, so
    /// `epoll_wait` fills its array at a 16-byte stride (12 on 32-bit
    /// x86, whose `u64` is 4-byte aligned).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    const _: () = assert!(
        std::mem::size_of::<EpollEvent>()
            == if cfg!(any(target_arch = "x86_64", target_arch = "x86")) {
                12
            } else {
                16
            }
    );

    #[repr(C)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn pipe2(fds: *mut i32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
        pub fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
        pub fn listen(sockfd: i32, backlog: i32) -> i32;
    }
}

/// Level-triggered `epoll` instance (Linux only).
///
/// Registrations map a raw file descriptor to a caller-chosen `u64` token;
/// [`Poller::wait`] hands the token back with the readiness bits. `EINTR`
/// from `epoll_wait` is retried internally with the timeout recomputed from a
/// monotonic clock, so callers never observe a spurious `Interrupted` error.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct Poller {
    epfd: i32,
}

#[cfg(target_os = "linux")]
impl Poller {
    /// Create a new epoll instance with close-on-exec set.
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with the given token and interest mask (`EV_*` bits).
    pub fn add(&self, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest mask of an already-registered descriptor.
    pub fn modify(&self, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Remove a descriptor from the interest set. Errors are ignored so the
    /// teardown path can call this unconditionally.
    pub fn remove(&self, fd: i32) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Block until at least one registered descriptor is ready or the timeout
    /// elapses, appending readiness events to `out`. Returns the number of
    /// events delivered (0 on timeout). `EINTR` is retried with the remaining
    /// timeout.
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<usize> {
        const CAP: usize = 256;
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; CAP];
        let deadline = if timeout_ms >= 0 {
            Some(std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms as u64))
        } else {
            None
        };
        loop {
            let remaining = match deadline {
                None => -1,
                Some(d) => d
                    .saturating_duration_since(std::time::Instant::now())
                    .as_millis()
                    .min(i32::MAX as u128) as i32,
            };
            let n = unsafe { sys::epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, remaining) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    // Retried with the recomputed remaining timeout; a zero
                    // remainder still makes one non-blocking pass so a wake
                    // that raced the signal is not lost.
                    continue;
                }
                return Err(err);
            }
            for ev in raw.iter().take(n as usize) {
                out.push(PollEvent {
                    token: ev.data,
                    events: ev.events,
                });
            }
            return Ok(n as usize);
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            let _ = sys::close(self.epfd);
        }
    }
}

/// A self-pipe the worker pool uses to nudge the event loop.
///
/// Producers call [`Waker::wake`] after pushing work onto a completion
/// channel; an atomic flag collapses any number of wakes between two event
/// loop passes into a single one-byte pipe write. The event loop registers
/// [`Waker::read_fd`] with its [`Poller`], and on readiness calls
/// [`Waker::drain`] *before* draining the completion channel, which is the
/// ordering that makes the dedup flag race-free.
///
/// On non-Linux targets the type still exists (so cross-platform code can
/// hold one) but both operations are no-ops.
#[derive(Debug)]
pub struct Waker {
    #[cfg(target_os = "linux")]
    read_fd: i32,
    #[cfg(target_os = "linux")]
    write_fd: i32,
    pending: AtomicBool,
}

impl Waker {
    /// Create the wake pipe (nonblocking, close-on-exec).
    pub fn new() -> io::Result<Waker> {
        #[cfg(target_os = "linux")]
        {
            let mut fds = [-1i32; 2];
            let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Waker {
                read_fd: fds[0],
                write_fd: fds[1],
                pending: AtomicBool::new(false),
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Ok(Waker {
                pending: AtomicBool::new(false),
            })
        }
    }

    /// The readable end to register with a [`Poller`] (Linux only).
    #[cfg(target_os = "linux")]
    pub fn read_fd(&self) -> i32 {
        self.read_fd
    }

    /// Nudge the event loop. Deduplicated: only the first wake after a
    /// [`Waker::drain`] pays the pipe write. Errors (pipe full, loop gone)
    /// are ignored — a full pipe already guarantees a pending wakeup, and a
    /// closed read end means the loop has exited.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            #[cfg(target_os = "linux")]
            unsafe {
                let byte = 1u8;
                let _ = sys::write(self.write_fd, &byte, 1);
            }
        }
    }

    /// Drain the pipe and reset the dedup flag. Call this before draining
    /// whatever channel the producers pushed to: any producer that skipped
    /// its pipe write because the flag was still set is ordered before the
    /// flag reset, so its payload is visible to the channel drain that
    /// follows.
    pub fn drain(&self) {
        #[cfg(target_os = "linux")]
        unsafe {
            let mut buf = [0u8; 64];
            while sys::read(self.read_fd, buf.as_mut_ptr(), buf.len()) > 0 {}
        }
        self.pending.store(false, Ordering::SeqCst);
    }
}

#[cfg(target_os = "linux")]
impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            let _ = sys::close(self.read_fd);
            let _ = sys::close(self.write_fd);
        }
    }
}

/// Best-effort raise of `RLIMIT_NOFILE` so the server can hold `target`
/// descriptors. Returns `Some((soft, hard))` with the limits now in force
/// when the query succeeded, `None` when the platform gave no answer.
/// Never fails: if the soft limit cannot be raised the current limits are
/// reported and the caller decides whether to complain. Silent no-op
/// returning `None` off Linux.
pub fn raise_nofile_limit(target: u64) -> Option<(u64, u64)> {
    #[cfg(target_os = "linux")]
    {
        let mut lim = sys::Rlimit { cur: 0, max: 0 };
        if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) } != 0 {
            return None;
        }
        if lim.cur < target {
            let want = sys::Rlimit {
                cur: target.min(lim.max),
                max: lim.max,
            };
            if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) } == 0 {
                lim.cur = want.cur;
            }
        }
        Some((lim.cur, lim.max))
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = target;
        None
    }
}

/// Best-effort resize of `listener`'s accept queue to `backlog` pending
/// connections. `TcpListener::bind` listens with a backlog of 128; a
/// burst of connects past a full queue has its SYNs dropped, and each
/// dropped peer retries only after a whole-second retransmit timeout.
/// Linux resizes the queue when `listen` is called again on a socket
/// that is already listening, clamping the value to
/// `net.core.somaxconn`. Returns whether the call succeeded; a silent
/// no-op returning `false` off Linux.
pub fn set_listen_backlog(listener: &std::net::TcpListener, backlog: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        let backlog = i32::try_from(backlog).unwrap_or(i32::MAX);
        // SAFETY: `listen` takes no pointers, and the borrowed listener
        // keeps its descriptor open for the duration of the call.
        unsafe { sys::listen(listener.as_raw_fd(), backlog) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (listener, backlog);
        false
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn waker_wakes_poller_and_dedups() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.read_fd(), 7, EV_READ).unwrap();

        // No wake yet: times out empty.
        let mut events = Vec::new();
        let n = poller.wait(&mut events, 10).unwrap();
        assert_eq!(n, 0);

        // Many wakes collapse into one readiness event.
        for _ in 0..100 {
            waker.wake();
        }
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable());

        // Drain resets the flag; the next wake is visible again.
        waker.drain();
        events.clear();
        assert_eq!(poller.wait(&mut events, 10).unwrap(), 0);
        waker.wake();
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
    }

    #[test]
    fn deepened_backlog_holds_a_connect_burst() {
        use std::net::{TcpListener, TcpStream};
        // Nothing accepts, so every connect must fit the accept queue:
        // at std's backlog of 128 the 130th SYN is dropped and its
        // connect times out. The kernel clamps the backlog to
        // somaxconn, which caps how many connects can be asked for.
        let somaxconn = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(128);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        assert!(set_listen_backlog(&listener, 512));
        let addr = listener.local_addr().unwrap();
        let burst = 300.min(somaxconn);
        let mut held = Vec::with_capacity(burst);
        for i in 0..burst {
            match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
                Ok(stream) => held.push(stream),
                Err(e) => panic!("connect {} of {burst} did not complete: {e}", i + 1),
            }
        }
    }

    #[test]
    fn rlimit_query_reports_limits() {
        let got = raise_nofile_limit(1024);
        let (soft, hard) = got.expect("getrlimit works on linux");
        assert!(soft >= 1, "soft nofile limit should be nonzero");
        assert!(hard >= soft);
    }

    extern "C" fn noop_handler(_sig: i32) {}

    #[test]
    fn eintr_during_wait_is_retried() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
            fn pthread_self() -> u64;
            fn pthread_kill(thread: u64, sig: i32) -> i32;
        }
        const SIGUSR1: i32 = 10;
        unsafe {
            signal(SIGUSR1, noop_handler as *const () as usize);
        }

        let poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new().unwrap());
        poller.add(waker.read_fd(), 3, EV_READ).unwrap();

        let waiter_thread = Arc::new(AtomicU64::new(0));
        let started = Instant::now();
        std::thread::scope(|scope| {
            let thread_slot = Arc::clone(&waiter_thread);
            let wake_handle = Arc::clone(&waker);
            let waiter = scope.spawn(move || {
                thread_slot.store(unsafe { pthread_self() }, Ordering::SeqCst);
                let mut events = Vec::new();
                let n = poller.wait(&mut events, 10_000).unwrap();
                (n, events)
            });

            // Interrupt the epoll_wait with a signal, twice for good measure,
            // then deliver a real wake. The waiter must survive both EINTRs
            // and report the wake, well before its 10s timeout.
            let mut tid = 0;
            while tid == 0 {
                tid = waiter_thread.load(Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(30));
            unsafe {
                assert_eq!(pthread_kill(tid, SIGUSR1), 0);
            }
            std::thread::sleep(Duration::from_millis(30));
            unsafe {
                assert_eq!(pthread_kill(tid, SIGUSR1), 0);
            }
            std::thread::sleep(Duration::from_millis(30));
            wake_handle.wake();

            let (n, events) = waiter.join().unwrap();
            assert_eq!(n, 1, "wake delivered after EINTR retries");
            assert_eq!(events[0].token, 3);
        });
        assert!(
            started.elapsed() < Duration::from_secs(9),
            "wait returned via the wake, not the timeout"
        );
    }
}
