//! # hdc-obs — zero-dependency telemetry primitives
//!
//! The observability layer the serving stack records into: lock-free
//! [`Counter`]s and [`Gauge`]s, log-linear fixed-bucket latency
//! [`Histogram`]s (concurrent, mergeable, constant memory), a
//! [`Registry`] of named series with label support, and
//! Prometheus-text-format rendering — all on `std` atomics, no
//! external crates (the build environment has no registry access, so
//! `prometheus`/`tracing` are out by construction).
//!
//! ## Histograms
//!
//! [`Histogram`] is the one latency instrument of the serving stack:
//! the server's stage spans and the load generator's client-observed
//! round trips both record into it, so their quantiles share buckets.
//! Writers do one relaxed `fetch_add` into a log-linear bucket table
//! ([`NUM_BUCKETS`] × `AtomicU64`, ~15 KiB, allocated once), so
//! recording from the event loop or a batch worker never locks, never
//! allocates, and never sorts. The bucket layout is the
//! HdrHistogram scheme: values below 32 get exact unit buckets; above
//! that, each power-of-two octave is split into 32 linear sub-buckets,
//! so any reported quantile `est` of a true value `v` satisfies
//! `v <= est <= v + v/32 + 1` (≤ 3.125 % relative error, pinned by a
//! property test). Histograms merge by bucket-wise addition —
//! associative and commutative, so per-shard recorders can be summed
//! in any order.
//!
//! ## Registry and rendering
//!
//! A [`Registry`] hands out `Arc`-shared series keyed by
//! `(name, labels)` — get-or-create, so independently wired components
//! land on the same series — and renders them all in the Prometheus
//! text exposition format ([`Registry::render_prometheus`]), the
//! payload `hdc_serve --metrics-addr` serves to scrapes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Values below this are recorded in exact unit-width buckets.
const LINEAR_MAX: u64 = 32;
/// Sub-buckets per power-of-two octave (`2^PRECISION_BITS`).
const PRECISION_BITS: u32 = 5;
/// Number of sub-buckets per octave (32 ⇒ ≤ 3.125 % relative error).
const SUB_BUCKETS: u64 = 1 << PRECISION_BITS;
/// Total bucket count: 32 exact buckets + 59 octaves × 32 sub-buckets
/// covers the full `u64` range.
pub const NUM_BUCKETS: usize = (LINEAR_MAX + (63 - PRECISION_BITS as u64) * SUB_BUCKETS) as usize;

/// A monotonically increasing event count (relaxed atomics — readers
/// see a consistent-enough value for telemetry, writers never stall).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (connection counts, queue depths).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket index for a recorded value (see the module docs for the
/// log-linear layout).
#[inline]
#[must_use]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = (msb - PRECISION_BITS) as u64;
        let offset = (v >> (msb - PRECISION_BITS)) & (SUB_BUCKETS - 1);
        (LINEAR_MAX + octave * SUB_BUCKETS + offset) as usize
    }
}

/// Inclusive upper bound of bucket `b` — what quantile extraction
/// reports for any sample that landed in it.
#[inline]
#[must_use]
fn bucket_upper(b: usize) -> u64 {
    let b = b as u64;
    if b < LINEAR_MAX {
        b
    } else {
        let octave = (b - LINEAR_MAX) / SUB_BUCKETS;
        let offset = (b - LINEAR_MAX) % SUB_BUCKETS;
        let low = (LINEAR_MAX + offset) << octave;
        low + ((1u64 << octave) - 1)
    }
}

/// A concurrent log-linear latency histogram (see the module docs).
///
/// Units are the caller's (the serving stack records microseconds).
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates its bucket table once).
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one sample. Lock-free: three relaxed `fetch_add`s.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the same value.
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Adds every bucket of `other` into `self` (bucket-wise sum —
    /// associative and commutative, so shard merges order-freely).
    pub fn merge_from(&self, other: &Histogram) {
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        for (b, ob) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = ob.load(Ordering::Relaxed);
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy for quantile extraction and rendering.
    ///
    /// Concurrent recording during the copy may split a sample between
    /// `count` and its bucket; the snapshot clamps ranks into the
    /// observed bucket mass so quantiles stay well-defined.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    count: u64,
    sum: u64,
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Samples in the snapshot.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), reported as the upper
    /// bound of the bucket holding the rank — so for a true sample `v`,
    /// `v <= quantile <= v + v/32 + 1`. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b);
            }
        }
        bucket_upper(NUM_BUCKETS - 1)
    }

    /// The standard serving percentile set: `(p50, p90, p99, p999)`.
    #[must_use]
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.quantile(0.999),
        )
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs, in
    /// ascending bound order — the Prometheus `_bucket` boundaries.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (bucket_upper(b), n))
            .collect()
    }
}

/// One registered series.
#[derive(Debug, Clone)]
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    series: Series,
}

/// A get-or-create registry of named, optionally labeled series,
/// renderable in the Prometheus text exposition format.
///
/// Registration takes a `Mutex` (series are created at wiring time,
/// not on hot paths); the handed-out `Arc`s record lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut entries = self.entries.lock().expect("obs registry poisoned");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && kv_eq(&e.labels, labels))
        {
            return e.series.clone();
        }
        let series = make();
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            series: series.clone(),
        });
        series
    }

    /// Gets or creates an unlabeled counter.
    ///
    /// # Panics
    ///
    /// Panics if the `(name, labels)` key is already registered as a
    /// different series kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Gets or creates a labeled counter.
    ///
    /// # Panics
    ///
    /// Panics on a series-kind mismatch for the same key.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, || {
            Series::Counter(Arc::new(Counter::new()))
        }) {
            Series::Counter(c) => c,
            _ => panic!("series '{name}' already registered with a different kind"),
        }
    }

    /// Gets or creates an unlabeled gauge.
    ///
    /// # Panics
    ///
    /// Panics on a series-kind mismatch for the same key.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Gets or creates a labeled gauge.
    ///
    /// # Panics
    ///
    /// Panics on a series-kind mismatch for the same key.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, || Series::Gauge(Arc::new(Gauge::new()))) {
            Series::Gauge(g) => g,
            _ => panic!("series '{name}' already registered with a different kind"),
        }
    }

    /// Gets or creates an unlabeled histogram.
    ///
    /// # Panics
    ///
    /// Panics on a series-kind mismatch for the same key.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Gets or creates a labeled histogram.
    ///
    /// # Panics
    ///
    /// Panics on a series-kind mismatch for the same key.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, help, labels, || {
            Series::Histogram(Arc::new(Histogram::new()))
        }) {
            Series::Histogram(h) => h,
            _ => panic!("series '{name}' already registered with a different kind"),
        }
    }

    /// Renders every series in the Prometheus text exposition format
    /// (sorted by name, `# HELP`/`# TYPE` once per family, histogram
    /// `_bucket`/`_sum`/`_count` with cumulative `le` bounds).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("obs registry poisoned");
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            entries[a]
                .name
                .cmp(&entries[b].name)
                .then_with(|| entries[a].labels.cmp(&entries[b].labels))
        });
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for &i in &order {
            let e = &entries[i];
            if last_name != Some(e.name.as_str()) {
                let kind = match e.series {
                    Series::Counter(_) => "counter",
                    Series::Gauge(_) => "gauge",
                    Series::Histogram(_) => "histogram",
                };
                out.push_str(&format!(
                    "# HELP {} {}\n# TYPE {} {}\n",
                    e.name, e.help, e.name, kind
                ));
                last_name = Some(e.name.as_str());
            }
            match &e.series {
                Series::Counter(c) => {
                    out.push_str(&e.name);
                    render_labels(&mut out, &e.labels, None);
                    out.push_str(&format!(" {}\n", c.get()));
                }
                Series::Gauge(g) => {
                    out.push_str(&e.name);
                    render_labels(&mut out, &e.labels, None);
                    out.push_str(&format!(" {}\n", g.get()));
                }
                Series::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (bound, n) in snap.nonzero_buckets() {
                        cumulative += n;
                        out.push_str(&format!("{}_bucket", e.name));
                        render_labels(&mut out, &e.labels, Some(&bound.to_string()));
                        out.push_str(&format!(" {cumulative}\n"));
                    }
                    out.push_str(&format!("{}_bucket", e.name));
                    render_labels(&mut out, &e.labels, Some("+Inf"));
                    out.push_str(&format!(" {cumulative}\n"));
                    out.push_str(&format!("{}_sum", e.name));
                    render_labels(&mut out, &e.labels, None);
                    out.push_str(&format!(" {}\n", snap.sum()));
                    out.push_str(&format!("{}_count", e.name));
                    render_labels(&mut out, &e.labels, None);
                    out.push_str(&format!(" {}\n", snap.count()));
                }
            }
        }
        out
    }
}

fn kv_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// Appends `{k="v",…,le="…"}` (omitted entirely when empty).
fn render_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label(out, v);
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

/// Prometheus label-value escaping: backslash, quote, newline.
fn escape_label(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), LINEAR_MAX);
        for (i, (bound, n)) in snap.nonzero_buckets().into_iter().enumerate() {
            assert_eq!(bound, i as u64);
            assert_eq!(n, 1);
        }
        // Exact quantiles below the linear cutoff.
        assert_eq!(snap.quantile(0.5), 15);
        assert_eq!(snap.quantile(1.0), 31);
    }

    #[test]
    fn bucket_bounds_are_monotonic_and_contain_their_values() {
        let mut prev = None;
        for b in 0..NUM_BUCKETS {
            let hi = bucket_upper(b);
            if let Some(p) = prev {
                assert!(hi > p, "bucket {b} bound {hi} <= {p}");
            }
            prev = Some(hi);
            assert_eq!(bucket_index(hi), b, "upper bound maps back to its bucket");
        }
        // Spot checks across octaves, including the extremes.
        for v in [0, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, u64::MAX] {
            let b = bucket_index(v);
            assert!(bucket_upper(b) >= v);
            let err = bucket_upper(b) - v;
            assert!(err <= v / 32 + 1, "value {v}: bound error {err}");
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(3);
        g.sub(12);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(100_000);
        b.record(10);
        b.record_n(77, 3);
        a.merge_from(&b);
        let snap = a.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.sum(), 10 + 100_000 + 10 + 3 * 77);
        let buckets = snap.nonzero_buckets();
        assert_eq!(buckets.iter().map(|&(_, n)| n).sum::<u64>(), 6);
        assert_eq!(buckets.iter().find(|&&(b, _)| b == 10).unwrap().1, 2);
    }

    #[test]
    fn registry_is_get_or_create_by_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("hdc_requests_total", "Requests.");
        let b = r.counter("hdc_requests_total", "Requests.");
        assert!(Arc::ptr_eq(&a, &b));
        let j = r.counter_with("hdc_wire_total", "Per wire.", &[("wire", "json")]);
        let k = r.counter_with("hdc_wire_total", "Per wire.", &[("wire", "binary")]);
        assert!(!Arc::ptr_eq(&j, &k));
        let j2 = r.counter_with("hdc_wire_total", "Per wire.", &[("wire", "json")]);
        assert!(Arc::ptr_eq(&j, &j2));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        let _ = r.counter("hdc_thing", "A counter.");
        let _ = r.gauge("hdc_thing", "Now a gauge?");
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let r = Registry::new();
        r.counter_with("hdc_wire_total", "Per-wire requests.", &[("wire", "json")])
            .add(3);
        r.counter_with(
            "hdc_wire_total",
            "Per-wire requests.",
            &[("wire", "binary")],
        )
        .add(9);
        r.gauge("hdc_active_connections", "Open connections.")
            .set(2);
        let h = r.histogram("hdc_latency_us", "Latency.");
        h.record(5);
        h.record(70);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE hdc_wire_total counter"));
        assert!(text.contains("hdc_wire_total{wire=\"json\"} 3"));
        assert!(text.contains("hdc_wire_total{wire=\"binary\"} 9"));
        assert!(text.contains("# TYPE hdc_active_connections gauge"));
        assert!(text.contains("hdc_active_connections 2"));
        assert!(text.contains("# TYPE hdc_latency_us histogram"));
        assert!(text.contains("hdc_latency_us_bucket{le=\"5\"} 1"));
        assert!(text.contains("hdc_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("hdc_latency_us_sum 75"));
        assert!(text.contains("hdc_latency_us_count 2"));
        // HELP/TYPE emitted once per family even with two series.
        assert_eq!(text.matches("# TYPE hdc_wire_total").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("hdc_x", "X.", &[("path", "a\"b\\c\nd")])
            .inc();
        let text = r.render_prometheus();
        assert!(text.contains("path=\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn quantiles_clamp_and_handle_empty() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.99), 0);
        h.record_n(1000, 10);
        let snap = h.snapshot();
        let (p50, p90, p99, p999) = snap.percentiles();
        // All mass in one bucket: every percentile reports its bound.
        assert_eq!(p50, p90);
        assert_eq!(p99, p999);
        assert!((1000..=1000 + 1000 / 32 + 1).contains(&p50));
    }
}
