//! Load generator CLI: drives a running `hdc_serve` instance and prints
//! throughput and latency percentiles.
//!
//! Usage: `hdc_loadgen [--addr HOST:PORT] [--features N] [--levels M]
//! [--connections C] [--requests R] [--seed S] [--wire json|binary]
//! [--pipeline P] [--search-k K] [--min-rps X] [--churn N]
//! [--min-connections C] [--metrics-delta]`
//!
//! `--features` / `--levels` must match the served model. `--wire`
//! picks the protocol (line-JSON by default, length-prefixed binary
//! frames with `binary`); `--pipeline P` keeps `P` requests in flight
//! per connection (1 = serial round trips). `--search-k K` switches
//! every request from top-1 classification to top-`K` similarity
//! search (a response without a match list counts as an error).
//! `--min-rps X` exits non-zero when throughput lands below `X` or any
//! request errors (a run where no request succeeds included) — the CI
//! serving smoke test's assertion.
//!
//! Every connection is a nonblocking socket multiplexed from one epoll
//! thread (Linux only), so `--connections 10000` is practical.
//! `--churn N` makes each connection disconnect and reconnect every
//! `N` responses, exercising the server's accept path under load.
//! `--min-connections C` exits non-zero unless at least `C`
//! connections were driven — the 10k concurrency smoke assertion.
//!
//! Client latency is printed as p50/p90/p99/p999 from an
//! `hdc_obs::Histogram`, the server's own instrument.
//! `--metrics-delta` queries the server's telemetry plane (the
//! `{"metrics":true}` admin request) before and after the run and
//! prints server-side request-count deltas and stage latency
//! percentiles, the same quantiles over the same buckets, next to the
//! client line. Needs a server started with `--metrics-addr`; degrades
//! to a notice otherwise.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::process::ExitCode;

use hdc_serve::{loadgen, protocol, LoadgenConfig, WireMode};

struct Options {
    addr: String,
    n_features: usize,
    m_levels: usize,
    config: LoadgenConfig,
    min_rps: f64,
    min_connections: usize,
    metrics_delta: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:7878".to_owned(),
            n_features: 16,
            m_levels: 8,
            config: LoadgenConfig::default(),
            min_rps: 0.0,
            min_connections: 0,
            metrics_delta: false,
        }
    }
}

/// One `{"metrics":true}` round trip on a throwaway JSON connection.
/// `None` when the server has telemetry off (or is unreachable).
fn fetch_metrics(addr: SocketAddr) -> Option<String> {
    let stream = TcpStream::connect(addr).ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = stream;
    writer
        .write_all(protocol::metrics_request_line(0).as_bytes())
        .ok()?;
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    line.contains("\"metrics\":{").then_some(line)
}

/// The integer following `"key":` in a metrics JSON line.
fn field_u64(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &s[s.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One stage's `{"count":…,"p50":…,…}` summary from a metrics line.
fn stage(s: &str, key: &str) -> Option<[u64; 5]> {
    let obj = &s[s.find(&format!("\"{key}\":{{"))?..];
    Some([
        field_u64(obj, "count")?,
        field_u64(obj, "p50")?,
        field_u64(obj, "p90")?,
        field_u64(obj, "p99")?,
        field_u64(obj, "p999")?,
    ])
}

/// Prints the server-side view of the run: request-count deltas
/// against the pre-run snapshot, then the (cumulative) stage latency
/// percentiles.
fn print_metrics_delta(before: Option<&str>, after: &str) {
    let delta = |key: &str| -> u64 {
        let b = before.and_then(|b| field_u64(b, key)).unwrap_or(0);
        field_u64(after, key).unwrap_or(0).saturating_sub(b)
    };
    println!(
        "  server metrics: +{} json / +{} binary requests, +{} throttled (budget)",
        delta("json"),
        delta("binary"),
        delta("budget"),
    );
    println!("  server stages µs (cumulative since server start):");
    for key in [
        "sniff",
        "dispatch",
        "queue_wait",
        "execute_classify",
        "execute_search",
        "drain",
    ] {
        if let Some([count, p50, p90, p99, p999]) = stage(after, key) {
            println!("    {key:16} count {count}  p50 {p50}  p90 {p90}  p99 {p99}  p999 {p999}");
        }
    }
}

fn parse_options() -> Options {
    let mut opts = Options::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
                .clone()
        };
        match args[i].as_str() {
            "--addr" => opts.addr = value(i),
            "--features" => {
                opts.n_features = value(i).parse().expect("--features needs an integer")
            }
            "--levels" => opts.m_levels = value(i).parse().expect("--levels needs an integer"),
            "--connections" => {
                opts.config.connections = value(i).parse().expect("--connections needs an integer")
            }
            "--requests" => {
                opts.config.requests_per_connection =
                    value(i).parse().expect("--requests needs an integer")
            }
            "--seed" => opts.config.seed = value(i).parse().expect("--seed needs an integer"),
            "--wire" => {
                opts.config.wire =
                    WireMode::from_flag(&value(i)).expect("--wire needs `json` or `binary`")
            }
            "--pipeline" => {
                opts.config.pipeline = value(i).parse().expect("--pipeline needs an integer")
            }
            "--search-k" => {
                let k: usize = value(i).parse().expect("--search-k needs an integer");
                assert!(
                    (1..=usize::from(u16::MAX)).contains(&k),
                    "--search-k must be in 1..=65535"
                );
                opts.config.search_k = Some(k);
            }
            "--min-rps" => opts.min_rps = value(i).parse().expect("--min-rps needs a number"),
            "--churn" => {
                opts.config.churn_every = Some(value(i).parse().expect("--churn needs an integer"))
            }
            "--min-connections" => {
                opts.min_connections = value(i)
                    .parse()
                    .expect("--min-connections needs an integer")
            }
            "--metrics-delta" => {
                opts.metrics_delta = true;
                i += 1;
                continue;
            }
            other => panic!(
                "unknown argument '{other}'; supported: --addr --features --levels \
                 --connections --requests --seed --wire --pipeline --search-k --min-rps \
                 --churn --min-connections --metrics-delta"
            ),
        }
        i += 2;
    }
    opts
}

fn main() -> std::io::Result<ExitCode> {
    let opts = parse_options();
    let addr = opts
        .addr
        .to_socket_addrs()?
        .next()
        .expect("address resolves");
    let mode = match opts.config.search_k {
        Some(k) => format!("search k={k}"),
        None => "classify".to_owned(),
    };
    println!(
        "driving {} with {} connections × {} {} requests ({} wire, pipeline {}{}) …",
        addr,
        opts.config.connections,
        opts.config.requests_per_connection,
        mode,
        opts.config.wire.name(),
        opts.config.pipeline,
        match opts.config.churn_every {
            Some(n) => format!(", churn every {n}"),
            None => String::new(),
        }
    );
    let before = if opts.metrics_delta {
        fetch_metrics(addr)
    } else {
        None
    };
    let report = loadgen::run(addr, opts.n_features, opts.m_levels, &opts.config)?;
    println!(
        "  {:.0} requests/s  ({} ok, {} errors, {:.2} s)",
        report.requests_per_sec, report.total_requests, report.errors, report.elapsed_secs
    );
    let (p50, p90, p99, p999) = report.latency.percentiles();
    println!(
        "  client latency µs: count {}  p50 {p50}  p90 {p90}  p99 {p99}  p999 {p999}",
        report.latency.count()
    );
    if opts.metrics_delta {
        match fetch_metrics(addr) {
            Some(after) => print_metrics_delta(before.as_deref(), &after),
            None => println!("  server metrics: unavailable (start hdc_serve with --metrics-addr)"),
        }
    }
    if opts.min_rps > 0.0 && (report.errors > 0 || report.requests_per_sec < opts.min_rps) {
        eprintln!(
            "FAIL: {} errors, {:.0} requests/s (floor {:.0})",
            report.errors, report.requests_per_sec, opts.min_rps
        );
        return Ok(ExitCode::FAILURE);
    }
    if opts.min_connections > 0 && opts.config.connections < opts.min_connections {
        eprintln!(
            "FAIL: drove {} connections (floor {})",
            opts.config.connections, opts.min_connections
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
