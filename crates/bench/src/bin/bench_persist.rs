//! Model persistence benchmark with machine-readable output.
//!
//! Measures save/load wall time and on-disk size of the binary
//! snapshot format (`hdc_store`, the one model format) at paper scale
//! (`D = 10 000`), for the standard model and the locked model
//! (snapshot + sealed key segment). At the default shape it also
//! reports the locked load against `FROZEN_JSON_LOAD_SECS`, the load
//! time of the JSON model format the snapshots replaced. Then boots
//! the registry-backed server and drives a closed-loop load while a
//! live `rekey` swap lands, reporting the p99 latency and the error
//! count across the swap. Writes `BENCH_persist.json` next to
//! `BENCH_encoding.json` / `BENCH_search.json` in the CI bench
//! artifact.
//!
//! Usage: `bench_persist [--dim D] [--features N] [--classes C]
//! [--connections K] [--requests R] [--out PATH]` — defaults reproduce
//! the acceptance configuration (`D = 10 000`, `N = 16`, `C = 8`:
//! locked snapshot load ≥ 3× faster than the frozen JSON load).

use std::fmt::Write as _;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use hdc_serve::demo::{self, DemoSpec};
use hdc_serve::{loadgen, protocol, server, CoreKind, LoadgenConfig, RegistryServeConfig};
use hdc_store::{KeySegment, ModelRegistry, ModelSnapshot, RekeySource};

/// Load time of the JSON model format at the default shape (D = 10 000,
/// N = 16, C = 8), frozen when that format was deleted: the median of
/// five release runs of this bench before the deletion, on a 2-vCPU
/// Xeon VM (8.723, 9.113, 10.790, 10.390 and 9.401 ms). The
/// `locked_binary_load_speedup_vs_json` gate divides by it.
const FROZEN_JSON_LOAD_SECS: f64 = 9.401e-3;

struct Options {
    dim: usize,
    n_features: usize,
    n_classes: usize,
    connections: usize,
    requests: usize,
    out: String,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            dim: 10_000,
            n_features: 16,
            n_classes: 8,
            connections: 16,
            requests: 400,
            out: "BENCH_persist.json".to_owned(),
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
            "--dim" => opts.dim = value(i).parse().expect("--dim needs an integer"),
            "--features" => {
                opts.n_features = value(i).parse().expect("--features needs an integer")
            }
            "--classes" => opts.n_classes = value(i).parse().expect("--classes needs an integer"),
            "--connections" => {
                opts.connections = value(i).parse().expect("--connections needs an integer")
            }
            "--requests" => opts.requests = value(i).parse().expect("--requests needs an integer"),
            "--out" => opts.out = value(i),
            other => panic!(
                "unknown argument '{other}'; supported: --dim --features --classes \
                 --connections --requests --out"
            ),
        }
        i += 2;
    }
    opts
}

/// Runs `work` repeatedly until ≥ `min_secs` of wall clock is spent,
/// returning seconds per call.
fn time_per_call(min_secs: f64, mut work: impl FnMut()) -> f64 {
    work(); // warm-up
    let mut calls = 0usize;
    let start = Instant::now();
    loop {
        work();
        calls += 1;
        if start.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    start.elapsed().as_secs_f64() / calls as f64
}

fn main() {
    let opts = parse_options();
    let spec = DemoSpec {
        dim: opts.dim,
        n_features: opts.n_features,
        n_classes: opts.n_classes,
        m_levels: 8,
        train_size: 256,
        seed: 2022,
    };
    let min_secs = 0.3;

    println!(
        "training standard + locked models (D = {}, N = {}, C = {}) …",
        opts.dim, opts.n_features, opts.n_classes
    );
    let standard = demo::demo_model(&spec);
    let (locked, train) = demo::demo_locked_model(&spec, 2);

    // --- Binary snapshot, standard model ----------------------------
    let std_snapshot = ModelSnapshot::from_standard_model(&standard);
    let std_bin = std_snapshot.to_bytes();
    let std_bin_bytes = std_bin.len();
    let std_bin_save = time_per_call(min_secs, || {
        std::hint::black_box(ModelSnapshot::from_standard_model(&standard).to_bytes());
    });
    let std_bin_load = time_per_call(min_secs, || {
        let (snap, _) = ModelSnapshot::from_bytes(&std_bin).expect("decode");
        std::hint::black_box(snap.into_session(None).expect("assemble"));
    });

    // --- Binary snapshot + sealed key segment, locked model ---------
    let locked_snapshot = ModelSnapshot::from_locked_model(&locked);
    let key = KeySegment::from_locked_encoder(locked.encoder()).expect("vault sealed");
    let locked_bin = locked_snapshot.to_bytes();
    let key_bin = key.to_bytes();
    let locked_bin_bytes = locked_bin.len() + key_bin.len();
    let locked_bin_save = time_per_call(min_secs, || {
        std::hint::black_box(ModelSnapshot::from_locked_model(&locked).to_bytes());
    });
    let locked_bin_load = time_per_call(min_secs, || {
        let (snap, _) = ModelSnapshot::from_bytes(&locked_bin).expect("decode");
        let seg = KeySegment::from_bytes(&key_bin).expect("decode key");
        std::hint::black_box(snap.into_session(Some(&seg)).expect("assemble"));
    });

    // The frozen baseline holds only at the shape it was measured at.
    let defaults = Options::default();
    let load_speedup = ((opts.dim, opts.n_features, opts.n_classes)
        == (defaults.dim, defaults.n_features, defaults.n_classes))
        .then(|| FROZEN_JSON_LOAD_SECS / locked_bin_load);

    println!("persistence (D = {}):", opts.dim);
    println!(
        "  binary_standard  save {:>8.3} ms  load {:>8.3} ms  {:>9} bytes",
        std_bin_save * 1e3,
        std_bin_load * 1e3,
        std_bin_bytes
    );
    println!(
        "  binary_locked    save {:>8.3} ms  load {:>8.3} ms  {:>9} bytes (incl. key segment)",
        locked_bin_save * 1e3,
        locked_bin_load * 1e3,
        locked_bin_bytes
    );
    if let Some(speedup) = load_speedup {
        println!("  locked binary load vs frozen JSON load: {speedup:.1}x faster");
    }

    // --- Reload (rekey) under closed-loop load ----------------------
    let registry = ModelRegistry::from_snapshot(locked_snapshot, Some(&key))
        .expect("snapshot is self-consistent")
        .with_rekey_source(RekeySource {
            config: demo::demo_config(&spec),
            train,
        });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = AtomicBool::new(false);
    let serve_config = RegistryServeConfig::default();
    let load_config = LoadgenConfig {
        connections: opts.connections,
        requests_per_connection: opts.requests,
        seed: 2022,
        ..Default::default()
    };
    let (report, swaps) = std::thread::scope(|s| {
        let server_thread = s.spawn(|| {
            server::serve_registry_with_core_metrics(
                CoreKind::default(),
                listener,
                &registry,
                &serve_config,
                &shutdown,
                None,
            )
        });
        let load = s.spawn(|| {
            loadgen::run(addr, spec.n_features, spec.m_levels, &load_config).expect("loadgen")
        });
        // Land two live rekeys while the load runs.
        let mut swaps = 0u64;
        for seed in [31_337u64, 31_338] {
            std::thread::sleep(std::time::Duration::from_millis(30));
            use std::io::{BufRead, BufReader, Write};
            let stream = std::net::TcpStream::connect(addr).expect("admin connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            writer
                .write_all(protocol::rekey_request_line(seed, seed).as_bytes())
                .expect("send rekey");
            let mut line = String::new();
            reader.read_line(&mut line).expect("rekey response");
            let resp = protocol::parse_response(&line).expect("parse");
            assert!(resp.swapped.is_some(), "rekey failed: {resp:?}");
            swaps += 1;
        }
        let report = load.join().expect("loadgen thread");
        shutdown.store(true, Ordering::SeqCst);
        server_thread
            .join()
            .expect("server thread")
            .expect("server ran");
        (report, swaps)
    });
    assert_eq!(
        report.errors, 0,
        "requests failed across {swaps} live rekeys"
    );
    println!(
        "reload-under-load (D = {}, {} rekeys mid-run): {:.0} req/s, p50 {} µs, p99 {} µs, \
         {} errors over {} requests",
        opts.dim,
        swaps,
        report.requests_per_sec,
        report.latency.quantile(0.50),
        report.latency.quantile(0.99),
        report.errors,
        report.total_requests
    );

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"config\": {{ \"dim\": {}, \"n_features\": {}, \"n_classes\": {}, \
         \"m_levels\": {}, \"train_size\": {} }},",
        opts.dim, opts.n_features, opts.n_classes, spec.m_levels, spec.train_size
    );
    let fmt = |name: &str, save: f64, load: f64, bytes: usize, comma: &str| {
        format!(
            "    {{ \"name\": \"{name}\", \"save_ms\": {:.3}, \"load_ms\": {:.3}, \
             \"bytes\": {bytes} }}{comma}",
            save * 1e3,
            load * 1e3
        )
    };
    let _ = writeln!(out, "  \"formats\": [");
    let _ = writeln!(
        out,
        "{}",
        fmt(
            "binary_standard",
            std_bin_save,
            std_bin_load,
            std_bin_bytes,
            ","
        )
    );
    let _ = writeln!(
        out,
        "{}",
        fmt(
            "binary_locked",
            locked_bin_save,
            locked_bin_load,
            locked_bin_bytes,
            ""
        )
    );
    let _ = writeln!(out, "  ],");
    if let Some(speedup) = load_speedup {
        let _ = writeln!(
            out,
            "  \"locked_binary_load_speedup_vs_json\": {speedup:.2},"
        );
    }
    let _ = writeln!(out, "  \"reload_under_load\": {{");
    let _ = writeln!(
        out,
        "    \"config\": {{ \"connections\": {}, \"requests_per_connection\": {}, \
         \"rekeys_mid_run\": {swaps} }},",
        load_config.connections, load_config.requests_per_connection
    );
    let _ = writeln!(
        out,
        "    \"requests_per_sec\": {:.1},",
        report.requests_per_sec
    );
    let _ = writeln!(out, "    \"errors\": {},", report.errors);
    let _ = writeln!(
        out,
        "    \"latency_us\": {{ \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \
         \"mean\": {:.1} }}",
        report.latency.quantile(0.50),
        report.latency.quantile(0.95),
        report.latency.quantile(0.99),
        report.latency.quantile(1.0),
        report.latency.mean()
    );
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    std::fs::write(&opts.out, out).expect("write benchmark JSON");
    println!("(json written to {})", opts.out);
}
