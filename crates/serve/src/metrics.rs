//! Server-side telemetry: every series the serving stack records,
//! wired once into an [`hdc_obs::Registry`], plus the three exposition
//! planes — the `{"metrics":true}` admin request (structured JSON),
//! the plaintext scrape listener (`hdc_serve --metrics-addr`,
//! Prometheus text format), and structured log lines on swap events.
//!
//! Telemetry is strictly opt-in: every recording site in the serving
//! stack is guarded by an `Option<&ServeMetrics>`, and with `None` no
//! clock is read and no atomic beyond the always-on request/connection
//! counters is touched — so responses are byte-identical with
//! telemetry on or off (pinned by a differential test) and the
//! throughput cost stays within the `ci/bench_gates.json` overhead
//! gate.
//!
//! Stage histograms record **microseconds** and cover the whole
//! request path: first-byte sniff → parse/validate/dispatch →
//! batch-queue wait → kernel execute (classify vs search) →
//! write-backlog drain, plus the event loop's own internals (epoll
//! wait, wakeup batching, backlog high-watermark hits, overload
//! rejections, connection churn).

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdc_obs::{Counter, Gauge, Histogram, Registry};
use hdc_store::ModelRegistry;

use crate::admission::ThrottleReason;

/// Elapsed time since `start` in whole microseconds, saturating — the
/// unit every stage histogram records.
pub(crate) fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Which swap landed, for [`ServeMetrics::record_swap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapKind {
    /// A snapshot `reload`.
    Reload,
    /// A live `rekey`.
    Rekey,
    /// A `rollback` to a retired generation.
    Rollback,
}

impl SwapKind {
    fn name(self) -> &'static str {
        match self {
            SwapKind::Reload => "reload",
            SwapKind::Rekey => "rekey",
            SwapKind::Rollback => "rollback",
        }
    }
}

/// All serving telemetry series, pre-registered so hot paths record
/// through `Arc` handles without touching the registry mutex.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Registry,
    started: Instant,
    /// Requests per wire format.
    pub(crate) requests_json: Arc<Counter>,
    /// Requests per wire format.
    pub(crate) requests_binary: Arc<Counter>,
    /// First byte seen → wire mode negotiated.
    pub(crate) sniff_us: Arc<Histogram>,
    /// Parse/validate/admit/enqueue, the policy seam's whole turn.
    pub(crate) dispatch_us: Arc<Histogram>,
    /// Job enqueue → batch worker pop.
    pub(crate) queue_wait_us: Arc<Histogram>,
    /// Fused encode+search kernel time per classify batch.
    pub(crate) execute_classify_us: Arc<Histogram>,
    /// Fused top-k kernel time per search group.
    pub(crate) execute_search_us: Arc<Histogram>,
    /// Write-backlog drain (nonblocking flush / writer-thread write).
    pub(crate) drain_us: Arc<Histogram>,
    /// Jobs per popped batch.
    pub(crate) batch_size: Arc<Histogram>,
    /// Admission refusals by reason.
    pub(crate) throttled_budget: Arc<Counter>,
    /// Admission refusals by reason.
    pub(crate) throttled_rate: Arc<Counter>,
    /// Admission refusals by reason.
    pub(crate) throttled_sweep: Arc<Counter>,
    /// Time blocked in `epoll_wait`.
    pub(crate) epoll_wait_us: Arc<Histogram>,
    /// Completions drained per waker event.
    pub(crate) wakeup_batch: Arc<Histogram>,
    /// Reads paused because a connection's write backlog crossed the
    /// high watermark.
    pub(crate) backlog_high_watermark: Arc<Counter>,
    /// Connections answered with a structured overload error at accept.
    pub(crate) overload_rejects: Arc<Counter>,
    /// Connection churn.
    pub(crate) conns_opened: Arc<Counter>,
    /// Connection churn.
    pub(crate) conns_closed: Arc<Counter>,
    /// Currently open connections.
    pub(crate) active_connections: Arc<Gauge>,
    /// Completed swaps by kind.
    pub(crate) swap_reload: Arc<Counter>,
    /// Completed swaps by kind.
    pub(crate) swap_rekey: Arc<Counter>,
    /// Completed swaps by kind.
    pub(crate) swap_rollback: Arc<Counter>,
    /// Age (seconds) of the generation each swap retired.
    pub(crate) swapped_generation_age_secs: Arc<Histogram>,
    // Gauges refreshed from their sources at render time.
    uptime_secs: Arc<Gauge>,
    vault_reads: Arc<Gauge>,
    vault_denied: Arc<Gauge>,
    generation: Arc<Gauge>,
    generation_age_secs: Arc<Gauge>,
    hardened: Arc<Gauge>,
    kernel_hamming_rows: Arc<Gauge>,
    kernel_dot_rows: Arc<Gauge>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Registers the full serving series catalog (see the `hdc_serve`
    /// crate docs for the list).
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn new() -> Self {
        let r = Registry::new();
        let stage = |name: &str, help: &str| r.histogram(name, help);
        ServeMetrics {
            started: Instant::now(),
            requests_json: r.counter_with(
                "hdc_requests_total",
                "Requests received, by wire format.",
                &[("wire", "json")],
            ),
            requests_binary: r.counter_with(
                "hdc_requests_total",
                "Requests received, by wire format.",
                &[("wire", "binary")],
            ),
            sniff_us: stage(
                "hdc_stage_sniff_us",
                "First byte seen to wire mode negotiated, microseconds.",
            ),
            dispatch_us: stage(
                "hdc_stage_dispatch_us",
                "Parse/validate/admit/enqueue per request, microseconds.",
            ),
            queue_wait_us: stage(
                "hdc_stage_queue_wait_us",
                "Enqueue to batch-worker pop per job, microseconds.",
            ),
            execute_classify_us: stage(
                "hdc_stage_execute_classify_us",
                "Fused encode+search kernel time per classify batch, microseconds.",
            ),
            execute_search_us: stage(
                "hdc_stage_execute_search_us",
                "Fused top-k kernel time per search group, microseconds.",
            ),
            drain_us: stage(
                "hdc_stage_drain_us",
                "Write-backlog drain per flush, microseconds.",
            ),
            batch_size: r.histogram("hdc_batch_size", "Jobs per popped batch."),
            throttled_budget: r.counter_with(
                "hdc_throttled_total",
                "Admission refusals, by reason.",
                &[("reason", "budget")],
            ),
            throttled_rate: r.counter_with(
                "hdc_throttled_total",
                "Admission refusals, by reason.",
                &[("reason", "rate")],
            ),
            throttled_sweep: r.counter_with(
                "hdc_throttled_total",
                "Admission refusals, by reason.",
                &[("reason", "sweep")],
            ),
            epoll_wait_us: r.histogram(
                "hdc_epoll_wait_us",
                "Time blocked in epoll_wait per loop turn, microseconds.",
            ),
            wakeup_batch: r.histogram("hdc_wakeup_batch", "Completions drained per waker event."),
            backlog_high_watermark: r.counter(
                "hdc_backlog_high_watermark_total",
                "Reads paused at the write-backlog high watermark.",
            ),
            overload_rejects: r.counter(
                "hdc_overload_rejects_total",
                "Connections refused with a structured overload error.",
            ),
            conns_opened: r.counter("hdc_connections_opened_total", "Connections accepted."),
            conns_closed: r.counter("hdc_connections_closed_total", "Connections closed."),
            active_connections: r.gauge("hdc_active_connections", "Currently open connections."),
            swap_reload: r.counter_with(
                "hdc_swaps_total",
                "Completed generation swaps, by kind.",
                &[("kind", "reload")],
            ),
            swap_rekey: r.counter_with(
                "hdc_swaps_total",
                "Completed generation swaps, by kind.",
                &[("kind", "rekey")],
            ),
            swap_rollback: r.counter_with(
                "hdc_swaps_total",
                "Completed generation swaps, by kind.",
                &[("kind", "rollback")],
            ),
            swapped_generation_age_secs: r.histogram(
                "hdc_swapped_generation_age_secs",
                "Age of the generation each swap retired, seconds.",
            ),
            uptime_secs: r.gauge(
                "hdc_uptime_secs",
                "Seconds since the metrics plane started.",
            ),
            vault_reads: r.gauge(
                "hdc_vault_reads",
                "Privileged key-vault reads by the serving generation (HDLock audit trail).",
            ),
            vault_denied: r.gauge(
                "hdc_vault_denied_reads",
                "Key-vault reads refused because the vault was destroyed.",
            ),
            generation: r.gauge("hdc_generation", "Currently serving generation id."),
            generation_age_secs: r.gauge(
                "hdc_generation_age_secs",
                "Seconds the current generation has been serving.",
            ),
            hardened: r.gauge(
                "hdc_hardened",
                "1 when the serving generation encodes in constant-time hardened mode.",
            ),
            kernel_hamming_rows: r.gauge(
                "hdc_kernel_hamming_rows",
                "Class-memory rows scanned by binary Hamming kernels (process-wide).",
            ),
            kernel_dot_rows: r.gauge(
                "hdc_kernel_dot_rows",
                "Class-memory rows scanned by integer dot kernels (process-wide).",
            ),
            registry: r,
        }
    }

    /// Seconds since this metrics plane was created.
    #[must_use]
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Records one admission refusal under its typed reason.
    pub fn record_throttle_reason(&self, reason: &ThrottleReason) {
        match reason {
            ThrottleReason::BudgetExhausted { .. } => self.throttled_budget.inc(),
            ThrottleReason::RateExceeded => self.throttled_rate.inc(),
            ThrottleReason::SweepDetected { .. } => self.throttled_sweep.inc(),
        }
    }

    /// Records a completed swap: per-kind counter, retired-generation
    /// age, and one structured log line (the drain/swap event stream).
    pub fn record_swap(&self, kind: SwapKind, new_generation: u64, retired_age: Duration) {
        match kind {
            SwapKind::Reload => self.swap_reload.inc(),
            SwapKind::Rekey => self.swap_rekey.inc(),
            SwapKind::Rollback => self.swap_rollback.inc(),
        }
        self.swapped_generation_age_secs
            .record(retired_age.as_secs());
        eprintln!(
            "event=swap kind={} generation={} retired_age_secs={} uptime_secs={}",
            kind.name(),
            new_generation,
            retired_age.as_secs(),
            self.uptime_secs()
        );
    }

    /// Refreshes the render-time gauges from their sources: uptime,
    /// process-wide kernel row counters, and (when serving a registry)
    /// generation identity, age and vault audit counters.
    fn refresh(&self, registry: Option<&ModelRegistry>) {
        #[allow(clippy::cast_possible_wrap)]
        fn as_i64(v: u64) -> i64 {
            i64::try_from(v).unwrap_or(i64::MAX)
        }
        self.uptime_secs.set(as_i64(self.uptime_secs()));
        self.kernel_hamming_rows
            .set(as_i64(hypervec::stats::hamming_rows()));
        self.kernel_dot_rows
            .set(as_i64(hypervec::stats::dot_rows()));
        if let Some(registry) = registry {
            let current = registry.current();
            self.generation.set(as_i64(current.id()));
            self.generation_age_secs
                .set(as_i64(current.age().as_secs()));
            self.hardened.set(i64::from(current.is_hardened()));
            let (reads, denied) = match current.session().encoder().vault() {
                Some(vault) => (vault.reads(), vault.denied_reads()),
                None => (0, 0),
            };
            self.vault_reads.set(as_i64(reads));
            self.vault_denied.set(as_i64(denied));
        }
    }

    /// The full catalog in the Prometheus text exposition format — the
    /// scrape listener's payload.
    #[must_use]
    pub fn render_prometheus(&self, registry: Option<&ModelRegistry>) -> String {
        self.refresh(registry);
        self.registry.render_prometheus()
    }

    /// The `{"metrics":true}` admin response: one JSON line with the
    /// per-wire request counts, stage percentile summaries, admission
    /// and swap counters, and (when `registry` is given) generation/vault
    /// identity.
    #[must_use]
    pub fn render_json(&self, id: u64, registry: Option<&ModelRegistry>) -> String {
        self.refresh(registry);
        fn hist(out: &mut String, key: &str, h: &Histogram) {
            let snap = h.snapshot();
            let (p50, p90, p99, p999) = snap.percentiles();
            out.push_str(&format!(
                "\"{key}\":{{\"count\":{},\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"p999\":{p999}}}",
                snap.count()
            ));
        }
        let mut out = format!(
            "{{\"id\":{id},\"metrics\":{{\"uptime_secs\":{},\"requests\":{{\"json\":{},\"binary\":{}}},\
             \"active_connections\":{},\"connections\":{{\"opened\":{},\"closed\":{},\"overload_rejects\":{}}},\
             \"throttled\":{{\"budget\":{},\"rate\":{},\"sweep\":{}}},\"stages_us\":{{",
            self.uptime_secs(),
            self.requests_json.get(),
            self.requests_binary.get(),
            self.active_connections.get(),
            self.conns_opened.get(),
            self.conns_closed.get(),
            self.overload_rejects.get(),
            self.throttled_budget.get(),
            self.throttled_rate.get(),
            self.throttled_sweep.get(),
        );
        let stages: [(&str, &Histogram); 6] = [
            ("sniff", &self.sniff_us),
            ("dispatch", &self.dispatch_us),
            ("queue_wait", &self.queue_wait_us),
            ("execute_classify", &self.execute_classify_us),
            ("execute_search", &self.execute_search_us),
            ("drain", &self.drain_us),
        ];
        for (i, (key, h)) in stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            hist(&mut out, key, h);
        }
        out.push_str("},");
        hist(&mut out, "batch_size", &self.batch_size);
        out.push(',');
        hist(&mut out, "epoll_wait_us", &self.epoll_wait_us);
        out.push_str(&format!(
            ",\"backlog_high_watermark\":{},\"swaps\":{{\"reload\":{},\"rekey\":{},\"rollback\":{}}},\
             \"generation\":{},\"generation_age_secs\":{},\"hardened\":{},\
             \"vault\":{{\"reads\":{},\"denied\":{}}},\
             \"kernel_rows\":{{\"hamming\":{},\"dot\":{}}}}}}}\n",
            self.backlog_high_watermark.get(),
            self.swap_reload.get(),
            self.swap_rekey.get(),
            self.swap_rollback.get(),
            self.generation.get(),
            self.generation_age_secs.get(),
            self.hardened.get(),
            self.vault_reads.get(),
            self.vault_denied.get(),
            self.kernel_hamming_rows.get(),
            self.kernel_dot_rows.get(),
        ));
        out
    }
}

/// Serves Prometheus scrapes on `listener` until `shutdown`: a
/// minimal HTTP/1.1 responder (read the request head, answer one
/// `200 text/plain` with the rendered catalog, close). Runs on its own
/// thread, off the serving cores' hot paths.
///
/// # Errors
///
/// Socket configuration errors on the listener itself; per-connection
/// errors are swallowed (a dead scraper must not kill the exporter).
pub fn serve_scrapes(
    listener: &TcpListener,
    metrics: &ServeMetrics,
    registry: Option<&ModelRegistry>,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                // Read (and discard) the request head; scrapers send a
                // plain GET and we answer the same payload regardless.
                let mut head = [0u8; 1024];
                let _ = stream.read(&mut head);
                let body = metrics.render_prometheus(registry);
                let response = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(response.as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttle_reasons_land_on_their_counters() {
        let m = ServeMetrics::new();
        m.record_throttle_reason(&ThrottleReason::BudgetExhausted { budget: 5 });
        m.record_throttle_reason(&ThrottleReason::RateExceeded);
        m.record_throttle_reason(&ThrottleReason::RateExceeded);
        m.record_throttle_reason(&ThrottleReason::SweepDetected { budget: 2 });
        assert_eq!(m.throttled_budget.get(), 1);
        assert_eq!(m.throttled_rate.get(), 2);
        assert_eq!(m.throttled_sweep.get(), 1);
    }

    #[test]
    fn prometheus_render_lists_the_core_series() {
        let m = ServeMetrics::new();
        m.requests_json.add(3);
        m.dispatch_us.record(12);
        let text = m.render_prometheus(None);
        for series in [
            "hdc_requests_total{wire=\"json\"} 3",
            "# TYPE hdc_stage_dispatch_us histogram",
            "hdc_stage_queue_wait_us_count 0",
            "hdc_active_connections 0",
            "hdc_throttled_total{reason=\"budget\"} 0",
            "hdc_swaps_total{kind=\"rekey\"} 0",
            "hdc_uptime_secs",
            "hdc_kernel_hamming_rows",
            "hdc_hardened 0",
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }
    }

    #[test]
    fn json_render_is_one_line_and_carries_the_id() {
        let m = ServeMetrics::new();
        m.requests_binary.add(7);
        m.queue_wait_us.record(40);
        let line = m.render_json(42, None);
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1);
        assert!(line.starts_with("{\"id\":42,\"metrics\":{"));
        assert!(line.contains("\"binary\":7"));
        assert!(line.contains("\"queue_wait\":{\"count\":1"));
    }

    #[test]
    fn record_swap_ticks_kind_and_age() {
        let m = ServeMetrics::new();
        m.record_swap(SwapKind::Rekey, 2, Duration::from_secs(90));
        assert_eq!(m.swap_rekey.get(), 1);
        assert_eq!(m.swapped_generation_age_secs.count(), 1);
        let (p50, _, _, _) = m.swapped_generation_age_secs.snapshot().percentiles();
        assert!((90..=93).contains(&p50));
    }
}
