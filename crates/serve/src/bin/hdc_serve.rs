//! Standalone classify server over a synthetic demo model, served from
//! a hot-swappable model registry.
//!
//! Usage: `hdc_serve [--addr HOST:PORT] [--dim D] [--features N]
//! [--levels M] [--classes C] [--batch B] [--wait-us T] [--workers W]
//! [--pipeline P] [--duration SECS] [--locked L] [--hardened]
//! [--budget Q] [--rate R] [--burst B] [--sweep S]
//! [--max-connections C] [--metrics-addr HOST:PORT]`
//!
//! `--locked L` serves an HDLock-locked demo model with key depth `L`
//! (enabling the `{"rekey":…}` admin request); the default is the
//! standard demo model. `--hardened` (requires `--locked`) serves the
//! locked model in constant-time hardened mode: every encode performs
//! the same vault and bound-pair work regardless of input, and pruned
//! top-k search falls back to the exact scan — the timing-oracle
//! defense described in `SECURITY.md`. The flag is surfaced in
//! `{"info":true}` / `{"stats":true}` responses and the `hdc_hardened`
//! metrics gauge. `--budget`/`--rate`/`--burst`/`--sweep` arm the
//! per-connection admission controller. `--pipeline P` caps the
//! per-connection in-flight window (pipelined requests beyond it get a
//! structured overload error). Both wire formats (line-JSON and binary
//! frames) are always served — each connection picks its own by what
//! it sends first. `--duration 0` (the default) serves until the
//! process is killed.
//!
//! Connections are served by one epoll event loop (10k+ concurrent
//! connections), so the server runs on Linux only.
//! `--max-connections C` caps concurrent connections — accepts beyond
//! it are answered with a structured `"overloaded"` error instead of a
//! silent close. The process file descriptor limit is raised (best
//! effort) to fit the cap at startup.
//!
//! `--metrics-addr HOST:PORT` turns on the telemetry plane: every
//! request stage records into the `hdc_serve::metrics` catalog, swap
//! events log structured lines, a Prometheus text-format scrape
//! listener answers on the given address, and the `{"metrics":true}`
//! admin request answers in-band. Without the flag telemetry is fully
//! off (no clocks are read; responses are byte-identical either way).

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hdc_model::ClassifySession;
use hdc_serve::demo::{self, DemoSpec};
use hdc_serve::{
    server, AdmissionConfig, BatchConfig, CoreKind, RegistryServeConfig, ServeMetrics,
};
use hdc_store::{ModelRegistry, ModelSnapshot};

struct Options {
    addr: String,
    spec: DemoSpec,
    batch: BatchConfig,
    admission: AdmissionConfig,
    locked_layers: usize,
    hardened: bool,
    duration_secs: u64,
    metrics_addr: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:7878".to_owned(),
            spec: DemoSpec::default(),
            batch: BatchConfig::default(),
            admission: AdmissionConfig::default(),
            locked_layers: 0,
            hardened: false,
            duration_secs: 0,
            metrics_addr: None,
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
            "--dim" => opts.spec.dim = value(i).parse().expect("--dim needs an integer"),
            "--features" => {
                opts.spec.n_features = value(i).parse().expect("--features needs an integer")
            }
            "--levels" => opts.spec.m_levels = value(i).parse().expect("--levels needs an integer"),
            "--classes" => {
                opts.spec.n_classes = value(i).parse().expect("--classes needs an integer")
            }
            "--batch" => opts.batch.max_batch = value(i).parse().expect("--batch needs an integer"),
            "--wait-us" => {
                opts.batch.max_wait =
                    Duration::from_micros(value(i).parse().expect("--wait-us needs an integer"))
            }
            "--workers" => {
                opts.batch.workers = value(i).parse().expect("--workers needs an integer")
            }
            "--pipeline" => {
                opts.batch.pipeline_window = value(i).parse().expect("--pipeline needs an integer")
            }
            "--duration" => {
                opts.duration_secs = value(i).parse().expect("--duration needs an integer")
            }
            "--locked" => {
                opts.locked_layers = value(i).parse().expect("--locked needs a layer count")
            }
            // Boolean flag: consumes one argument, not two.
            "--hardened" => {
                opts.hardened = true;
                i += 1;
                continue;
            }
            "--budget" => {
                opts.admission.query_budget = value(i).parse().expect("--budget needs an integer")
            }
            "--rate" => {
                opts.admission.rate_per_sec = value(i).parse().expect("--rate needs a number")
            }
            "--burst" => opts.admission.burst = value(i).parse().expect("--burst needs an integer"),
            "--sweep" => {
                opts.admission.sweep_budget = value(i).parse().expect("--sweep needs an integer")
            }
            "--max-connections" => {
                opts.batch.max_connections = value(i)
                    .parse()
                    .expect("--max-connections needs an integer")
            }
            "--metrics-addr" => opts.metrics_addr = Some(value(i)),
            other => panic!(
                "unknown argument '{other}'; supported: --addr --dim --features --levels \
                 --classes --batch --wait-us --workers --pipeline --duration --locked \
                 --hardened --budget --rate --burst --sweep --max-connections \
                 --metrics-addr"
            ),
        }
        i += 2;
    }
    opts
}

fn main() -> std::io::Result<()> {
    let opts = parse_options();
    assert!(
        !opts.hardened || opts.locked_layers > 0,
        "--hardened needs --locked L: hardening is a property of the HDLock locked encoder"
    );
    println!(
        "training demo model (N = {}, C = {}, D = {}, M = {}, {}) …",
        opts.spec.n_features,
        opts.spec.n_classes,
        opts.spec.dim,
        opts.spec.m_levels,
        if opts.hardened {
            format!("hardened locked L = {}", opts.locked_layers)
        } else if opts.locked_layers > 0 {
            format!("locked L = {}", opts.locked_layers)
        } else {
            "standard".to_owned()
        }
    );
    let registry: ModelRegistry = if opts.hardened {
        demo::demo_hardened_registry(&opts.spec, opts.locked_layers)
    } else if opts.locked_layers > 0 {
        demo::demo_locked_registry(&opts.spec, opts.locked_layers)
    } else {
        let model = demo::demo_model(&opts.spec);
        ModelRegistry::from_snapshot(ModelSnapshot::from_standard_model(&model), None)
            .expect("demo snapshot is self-consistent")
    };
    let boot = registry.current();
    let listener = TcpListener::bind(&opts.addr)?;
    match hdc_serve::epoll::raise_nofile_limit(opts.batch.max_connections as u64 * 2 + 64) {
        Some((soft, hard)) => println!(
            "file descriptor limit: soft {soft} / hard {hard} \
             (fits {} connections)",
            opts.batch.max_connections
        ),
        None => println!("file descriptor limit: left unchanged (raise unsupported or denied)"),
    }
    println!(
        "serving on {} (epoll event loop, batch ≤ {}, wait ≤ {:?}, {} workers, pipeline window {}, \
         ≤ {} connections, kernel backend: {}, generation {}, checksum {:016x}); \
         protocols: line-JSON \
         (one {{\"id\":…,\"levels\":[…]}} per line; {{\"id\":…,\"info\":true}}, \
         {{\"id\":…,\"stats\":true}}, {{\"id\":…,\"reload\":{{…}}}}, \
         {{\"id\":…,\"rekey\":SEED}}) and binary frames (first byte 0xB1; see \
         hdc_serve::wire), sniffed per connection",
        listener.local_addr()?,
        opts.batch.max_batch,
        opts.batch.max_wait,
        opts.batch.workers,
        opts.batch.pipeline_window,
        opts.batch.max_connections,
        boot.session().kernel_backend(),
        boot.id(),
        boot.checksum()
    );
    drop(boot);

    let config = RegistryServeConfig {
        batch: opts.batch,
        admission: opts.admission,
    };
    let metrics = opts.metrics_addr.as_ref().map(|_| ServeMetrics::new());
    let scrape_listener = match &opts.metrics_addr {
        Some(addr) => {
            let scrape = TcpListener::bind(addr)?;
            println!(
                "metrics: Prometheus scrapes on http://{}/metrics, \
                 {{\"metrics\":true}} admin enabled",
                scrape.local_addr()?
            );
            Some(scrape)
        }
        None => None,
    };
    let shutdown = AtomicBool::new(false);
    let stats = std::thread::scope(|s| {
        let server = s.spawn(|| {
            server::serve_registry_with_core_metrics(
                CoreKind::Event,
                listener,
                &registry,
                &config,
                &shutdown,
                metrics.as_ref(),
            )
        });
        if let (Some(scrape), Some(metrics)) = (&scrape_listener, &metrics) {
            s.spawn(|| {
                if let Err(e) =
                    hdc_serve::serve_scrapes(scrape, metrics, Some(&registry), &shutdown)
                {
                    eprintln!("metrics listener failed: {e}");
                }
            });
        }
        if opts.duration_secs > 0 {
            std::thread::sleep(Duration::from_secs(opts.duration_secs));
            shutdown.store(true, Ordering::SeqCst);
        }
        server.join().expect("server thread")
    })?;
    println!(
        "served {} requests over {} connections ({} throttled); final generation {}",
        stats.requests,
        stats.connections,
        stats.throttled,
        registry.current().id()
    );
    Ok(())
}
