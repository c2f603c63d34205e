//! The request-batching queue and its worker pool.
//!
//! Connection handlers enqueue one [`Job`] per request; worker threads
//! pop *batches* — up to `max_batch` jobs, or whatever has accumulated
//! after `max_wait` — and run one fused `encode_batch → search_batch`
//! call per batch. Latency under light load is bounded by `max_wait`;
//! throughput under heavy load approaches the batch kernel's, because
//! the per-request protocol cost is the only per-request work left.
//!
//! A job is either a single row ([`JobKind::Single`]) or a packed
//! BULK_CLASSIFY frame ([`JobKind::Bulk`]) whose rows are fused into
//! the same batch call as everything else — a bulk frame is just a
//! client that pre-batched its own traffic.
//!
//! Completions flow back through a [`CompletionSink`]: the threaded
//! core hands each connection's writer an mpsc channel, the event-loop
//! core funnels every connection into one channel tagged with the
//! connection token and nudges the loop through its wakeup pipe.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use hdc_model::ClassifySession;
use hdc_store::{Generation, ServingSession};
use hypervec::ProbeConfig;

use crate::epoll::Waker;
use crate::metrics::{elapsed_us, ServeMetrics};
use crate::protocol::SearchMatch;

/// Batching and worker-pool parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum jobs fused into one batch call.
    pub max_batch: usize,
    /// Maximum time the first job of a batch waits for company.
    pub max_wait: Duration,
    /// Worker threads popping batches.
    pub workers: usize,
    /// Per-connection in-flight window: how many pipelined classify
    /// requests one connection may have queued before new ones are
    /// answered with a structured overload error (back-pressure; see
    /// [`protocol::overload_response`](crate::protocol::overload_response)).
    /// Serial request/response clients never feel this — they have at
    /// most one request in flight.
    pub pipeline_window: usize,
    /// Coarse-probe tuning for top-k search requests against binary
    /// models: `Some` switches the workers to the pruned scan (subsample
    /// first, rescore survivors exactly), `None` scans exactly. Non-
    /// binary models always scan exactly.
    pub search_probe: Option<ProbeConfig>,
    /// Concurrent-connection ceiling of the event-loop core. Accepts
    /// past the ceiling are answered with a structured `"overloaded"`
    /// error and closed instead of being silently dropped. The threaded
    /// core ignores this (its ceiling is thread exhaustion).
    pub max_connections: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            workers: 2,
            pipeline_window: 128,
            search_probe: None,
            max_connections: 16_384,
        }
    }
}

/// One classified row of a bulk frame's response.
#[derive(Debug, Clone, PartialEq)]
pub enum BulkItem {
    /// Top-1 class for this row.
    Class(usize),
    /// Top-1 class plus the full per-class score vector.
    ClassWithScores(usize, Vec<f64>),
    /// This row was rejected (validation, admission, or a mid-flight
    /// swap); the message mirrors the single-request error text.
    Rejected(String),
}

/// One row of an enqueued bulk job: either a validated, admitted row
/// awaiting the kernel, or a pre-rejected slot whose error is echoed
/// back in position.
#[derive(Debug, Clone)]
pub enum BulkSlot {
    /// A quantized feature row to classify.
    Row(Vec<u16>),
    /// Rejected before enqueue; carried so the response keeps one item
    /// per request row, in order.
    Rejected(String),
}

/// Outcome of one job, sent back to its connection handler.
#[derive(Debug, Clone)]
pub enum JobResult {
    /// Top-1 class.
    Class(usize),
    /// Top-1 class plus the full per-class score vector.
    ClassWithScores(usize, Vec<f64>),
    /// Top-k search hits, best-first.
    Matches(Vec<SearchMatch>),
    /// Per-row outcomes of a bulk frame, in request order.
    Bulk(Vec<BulkItem>),
    /// The job could not run against the generation that served its
    /// batch (e.g. a hot swap changed the model shape mid-flight).
    Rejected(String),
}

/// A completed job, tagged with the request id it answers so the
/// connection's writer can interleave out-of-order completions.
/// Whether scores were requested is carried by the [`JobResult`]
/// variant itself.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Request id, echoed into the response frame/line.
    pub id: u64,
    /// The classify outcome.
    pub result: JobResult,
}

/// One message to a connection's write side.
#[derive(Debug)]
pub enum Delivery {
    /// A batch-worker completion: the writer renders it in the
    /// connection's negotiated wire format.
    Done(Completion),
    /// A pre-rendered response produced on the connection's read side
    /// or by the admin executor (protocol errors, info, admin,
    /// throttles) — sent verbatim, interleaved in arrival order with
    /// completions.
    Raw(Vec<u8>),
}

/// Where a finished job's [`Delivery`] goes.
///
/// The threaded core gives every connection its own channel (drained by
/// that connection's writer thread). The event-loop core shares one
/// channel across all connections, tags each delivery with the
/// connection's token, and wakes the loop through the self-pipe.
#[derive(Debug, Clone)]
pub enum CompletionSink {
    /// Per-connection channel to a dedicated writer thread.
    Channel(mpsc::Sender<Delivery>),
    /// Shared event-loop channel plus the wakeup pipe.
    EventLoop {
        /// The loop's completion channel; deliveries are tagged with
        /// the connection token.
        tx: mpsc::Sender<(u64, Delivery)>,
        /// Token of the connection this job belongs to.
        token: u64,
        /// The loop's wakeup pipe.
        waker: Arc<Waker>,
    },
}

impl CompletionSink {
    /// Delivers one message. A receiver that hung up already is not an
    /// error — the connection is tearing down and the delivery is moot.
    pub fn send(&self, delivery: Delivery) {
        match self {
            CompletionSink::Channel(tx) => {
                let _ = tx.send(delivery);
            }
            CompletionSink::EventLoop { tx, token, waker } => {
                let _ = tx.send((*token, delivery));
                waker.wake();
            }
        }
    }
}

/// What an enqueued job asks of the worker pool.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// One row: classify (optionally with scores) or top-k search.
    Single {
        /// Quantized feature row (validated by the handler before
        /// enqueue).
        levels: Vec<u16>,
        /// Whether the full score vector was requested.
        want_scores: bool,
        /// `Some(k)` makes this a top-k search job instead of a
        /// classify.
        search_k: Option<usize>,
    },
    /// Many rows from one BULK_CLASSIFY frame, answered as one
    /// multi-result response.
    Bulk {
        /// Per-row slots, in request order; pre-rejected rows ride
        /// along so the response stays positional.
        slots: Vec<BulkSlot>,
        /// Whether every row's score vector was requested.
        want_scores: bool,
    },
}

/// One enqueued request.
#[derive(Debug)]
pub struct Job {
    /// Request id (echoed into the completion).
    pub id: u64,
    /// The work: one row or a packed bulk frame.
    pub kind: JobKind,
    /// Where the completion goes.
    pub tx: CompletionSink,
    /// When telemetry is on, the instant this job entered the queue
    /// (drives the queue-wait stage histogram); `None` with telemetry
    /// off, so the off path never reads a clock.
    pub enqueued_at: Option<Instant>,
}

impl Job {
    /// Wraps a result into this job's tagged completion.
    #[must_use]
    pub fn complete(&self, result: JobResult) -> Delivery {
        Delivery::Done(Completion {
            id: self.id,
            result,
        })
    }

    /// True for top-k search jobs.
    #[must_use]
    pub fn is_search(&self) -> bool {
        matches!(
            self.kind,
            JobKind::Single {
                search_k: Some(_),
                ..
            }
        )
    }

    /// True when any row of this job asked for the score vector.
    #[must_use]
    pub fn wants_scores(&self) -> bool {
        match &self.kind {
            JobKind::Single { want_scores, .. } | JobKind::Bulk { want_scores, .. } => *want_scores,
        }
    }
}

/// Shared FIFO with batch-aware popping and shutdown draining.
#[derive(Debug, Default)]
pub(crate) struct BatchQueue {
    inner: Mutex<VecDeque<Job>>,
    cv: Condvar,
    closed: AtomicBool,
}

impl BatchQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a job and wakes one worker.
    pub fn push(&self, job: Job) {
        self.inner
            .lock()
            .expect("batch queue lock never poisoned")
            .push_back(job);
        self.cv.notify_one();
    }

    /// Closes the queue: workers drain what is left, then exit.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Pops the next batch: blocks until at least one job is present,
    /// then waits up to `max_wait` (or until `max_batch` jobs are
    /// queued) before draining. Returns `None` once the queue is closed
    /// *and* empty.
    pub fn next_batch(&self, config: &BatchConfig) -> Option<Vec<Job>> {
        let mut queue = self.inner.lock().expect("batch queue lock never poisoned");
        loop {
            if !queue.is_empty() {
                break;
            }
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            queue = self
                .cv
                .wait_timeout(queue, Duration::from_millis(20))
                .expect("batch queue lock never poisoned")
                .0;
        }
        // First job is in; give stragglers up to `max_wait` to join
        // (skip the wait entirely when draining after close).
        let deadline = Instant::now() + config.max_wait;
        while queue.len() < config.max_batch && !self.closed.load(Ordering::SeqCst) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = self
                .cv
                .wait_timeout(queue, deadline - now)
                .expect("batch queue lock never poisoned");
            queue = guard;
            if timeout.timed_out() {
                break;
            }
        }
        let take = queue.len().min(config.max_batch);
        Some(queue.drain(..take).collect())
    }
}

/// Executes one popped batch against registry generation
/// `generation`: search jobs run as fused `search_topk_batch` calls,
/// classify rows (single and bulk, fused together) as one
/// `scores_batch`/`classify_batch` call.
///
/// Every row is re-validated against the session this batch actually
/// runs on: rows that no longer fit (a shape-changing hot swap raced
/// the queue) are answered with a per-request error instead of being
/// dropped.
pub(crate) fn run_batch(
    generation: &Generation,
    config: &BatchConfig,
    batch: Vec<Job>,
    served: &AtomicU64,
    metrics: Option<&ServeMetrics>,
) {
    let session = generation.session();
    if let Some(m) = metrics {
        m.batch_size.record(batch.len() as u64);
        let popped = Instant::now();
        for job in &batch {
            if let Some(enqueued) = job.enqueued_at {
                let waited = popped.saturating_duration_since(enqueued);
                m.queue_wait_us
                    .record(u64::try_from(waited.as_micros()).unwrap_or(u64::MAX));
            }
        }
    }
    let (search, mut classify): (Vec<Job>, Vec<Job>) = batch.into_iter().partition(Job::is_search);
    // Search jobs re-validate against the serving session inside
    // `run_search_jobs` — same mid-flight-swap guarantee as below.
    run_search_jobs(session, config, search, served, metrics);
    if classify.is_empty() {
        return;
    }

    let n_features = session.n_features();
    let m_levels = session.m_levels();
    let fits =
        |row: &[u16]| row.len() == n_features && row.iter().all(|&lv| usize::from(lv) < m_levels);

    // Pre-rejections, aligned with `classify`: only `Single` jobs land
    // here — misfit bulk rows are rejected slot-by-slot in place so the
    // response stays positional.
    let mut results: Vec<Option<JobResult>> = vec![None; classify.len()];
    let misfit = || {
        format!(
            "model swapped mid-flight: row no longer fits generation {} \
             (N = {}, M = {})",
            generation.id(),
            n_features,
            m_levels
        )
    };
    for (i, job) in classify.iter_mut().enumerate() {
        match &mut job.kind {
            JobKind::Single { levels, .. } => {
                if !fits(levels) {
                    results[i] = Some(JobResult::Rejected(misfit()));
                }
            }
            JobKind::Bulk { slots, .. } => {
                for slot in slots.iter_mut() {
                    if let BulkSlot::Row(row) = slot {
                        if !fits(row) {
                            *slot = BulkSlot::Rejected(misfit());
                        }
                    }
                }
            }
        }
    }

    // Fuse every surviving row — singles and bulk rows alike — into one
    // kernel call.
    let mut rows: Vec<&[u16]> = Vec::new();
    for (i, job) in classify.iter().enumerate() {
        if results[i].is_some() {
            continue;
        }
        match &job.kind {
            JobKind::Single { levels, .. } => rows.push(levels.as_slice()),
            JobKind::Bulk { slots, .. } => rows.extend(slots.iter().filter_map(|s| match s {
                BulkSlot::Row(row) => Some(row.as_slice()),
                BulkSlot::Rejected(_) => None,
            })),
        }
    }
    let any_scores = classify.iter().any(Job::wants_scores);
    let mut score_hits = None;
    let mut classes = None;
    if !rows.is_empty() {
        let start = metrics.map(|_| Instant::now());
        if any_scores {
            score_hits = Some(session.scores_batch(&rows));
        } else {
            classes = Some(session.classify_batch(&rows));
        }
        if let (Some(m), Some(start)) = (metrics, start) {
            m.execute_classify_us.record(elapsed_us(start));
        }
    }

    let mut slot = 0usize;
    for (job, pre) in classify.iter().zip(results) {
        let result = match pre {
            Some(rejection) => rejection,
            None => match &job.kind {
                JobKind::Single { want_scores, .. } => {
                    let result = if let Some(hits) = &score_hits {
                        if *want_scores {
                            JobResult::ClassWithScores(hits.best(slot), hits.scores(slot).to_vec())
                        } else {
                            JobResult::Class(hits.best(slot))
                        }
                    } else {
                        let classes = classes.as_ref().expect("kernel ran: rows were nonempty");
                        JobResult::Class(classes[slot])
                    };
                    slot += 1;
                    result
                }
                JobKind::Bulk { slots, want_scores } => {
                    let mut items = Vec::with_capacity(slots.len());
                    for s in slots {
                        match s {
                            BulkSlot::Rejected(msg) => items.push(BulkItem::Rejected(msg.clone())),
                            BulkSlot::Row(_) => {
                                let item = if let Some(hits) = &score_hits {
                                    if *want_scores {
                                        BulkItem::ClassWithScores(
                                            hits.best(slot),
                                            hits.scores(slot).to_vec(),
                                        )
                                    } else {
                                        BulkItem::Class(hits.best(slot))
                                    }
                                } else {
                                    let classes =
                                        classes.as_ref().expect("kernel ran: rows were nonempty");
                                    BulkItem::Class(classes[slot])
                                };
                                slot += 1;
                                items.push(item);
                            }
                        }
                    }
                    JobResult::Bulk(items)
                }
            },
        };
        // `classified` counts answered classifications only — swap-
        // rejected jobs and rejected bulk rows are protocol rejections,
        // not results.
        match &result {
            JobResult::Rejected(_) => {}
            JobResult::Bulk(items) => {
                let answered = items
                    .iter()
                    .filter(|item| !matches!(item, BulkItem::Rejected(_)))
                    .count() as u64;
                if answered > 0 {
                    served.fetch_add(answered, Ordering::Relaxed);
                }
            }
            _ => {
                served.fetch_add(1, Ordering::Relaxed);
            }
        }
        // A handler that hung up already is not an error.
        job.tx.send(job.complete(result));
    }
}

/// Runs one batch's search jobs: rows that no longer fit the session
/// (a registry hot swap raced them) are rejected per-request, the rest
/// run as one fused `search_topk_batch` per distinct `k` (in practice a
/// batch almost always carries one `k`, so this is one call).
fn run_search_jobs(
    session: &ServingSession,
    config: &BatchConfig,
    jobs: Vec<Job>,
    served: &AtomicU64,
    metrics: Option<&ServeMetrics>,
) {
    if jobs.is_empty() {
        return;
    }
    let mut by_k: BTreeMap<usize, Vec<(Vec<u16>, Job)>> = BTreeMap::new();
    for mut job in jobs {
        let JobKind::Single {
            levels, search_k, ..
        } = &mut job.kind
        else {
            unreachable!("search jobs are Single");
        };
        let fits = levels.len() == session.n_features()
            && levels
                .iter()
                .all(|&lv| usize::from(lv) < session.m_levels());
        if fits {
            let k = search_k.expect("search jobs carry k");
            let row = std::mem::take(levels);
            by_k.entry(k).or_default().push((row, job));
        } else {
            let result = JobResult::Rejected(format!(
                "model swapped mid-flight: row no longer fits serving model \
                 (N = {}, M = {})",
                session.n_features(),
                session.m_levels()
            ));
            job.tx.send(job.complete(result));
        }
    }
    for (k, group) in by_k {
        let rows: Vec<&[u16]> = group.iter().map(|(row, _)| row.as_slice()).collect();
        let start = metrics.map(|_| Instant::now());
        let hits = session.search_topk_batch(&rows, k, config.search_probe.as_ref());
        if let (Some(m), Some(start)) = (metrics, start) {
            m.execute_search_us.record(elapsed_us(start));
        }
        for (i, (_, job)) in group.into_iter().enumerate() {
            let matches: Vec<SearchMatch> = hits
                .matches(i)
                .iter()
                .map(|m| SearchMatch {
                    row: m.row as u32,
                    score: m.score,
                })
                .collect();
            served.fetch_add(1, Ordering::Relaxed);
            job.tx.send(job.complete(JobResult::Matches(matches)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(level: u16) -> (Job, mpsc::Receiver<Delivery>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                id: u64::from(level),
                kind: JobKind::Single {
                    levels: vec![level],
                    want_scores: false,
                    search_k: None,
                },
                tx: CompletionSink::Channel(tx),
                enqueued_at: None,
            },
            rx,
        )
    }

    fn levels_of(job: &Job) -> &[u16] {
        match &job.kind {
            JobKind::Single { levels, .. } => levels,
            JobKind::Bulk { .. } => panic!("test jobs are Single"),
        }
    }

    #[test]
    fn batches_cap_at_max_batch() {
        let queue = BatchQueue::new();
        let mut rxs = Vec::new();
        for i in 0..5 {
            let (j, rx) = job(i);
            queue.push(j);
            rxs.push(rx);
        }
        let config = BatchConfig {
            max_batch: 3,
            max_wait: Duration::from_micros(1),
            workers: 1,
            ..BatchConfig::default()
        };
        let first = queue.next_batch(&config).unwrap();
        assert_eq!(first.len(), 3);
        assert_eq!(levels_of(&first[0]), &[0]);
        let second = queue.next_batch(&config).unwrap();
        assert_eq!(second.len(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let queue = BatchQueue::new();
        let (j, _rx) = job(1);
        queue.push(j);
        queue.close();
        let config = BatchConfig::default();
        assert_eq!(queue.next_batch(&config).unwrap().len(), 1);
        assert!(queue.next_batch(&config).is_none());
    }

    #[test]
    fn next_batch_wakes_on_late_push() {
        let queue = BatchQueue::new();
        let config = BatchConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(50),
            workers: 1,
            ..BatchConfig::default()
        };
        std::thread::scope(|s| {
            let popper = s.spawn(|| queue.next_batch(&config));
            std::thread::sleep(Duration::from_millis(5));
            let (j, _rx) = job(7);
            queue.push(j);
            let batch = popper.join().unwrap().unwrap();
            assert_eq!(batch.len(), 1);
            assert_eq!(levels_of(&batch[0]), &[7]);
        });
    }
}
