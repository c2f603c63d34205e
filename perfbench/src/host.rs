//! The server host: a child process pinned to its own CPU that boots
//! the workload's model and serves it with
//! `serve_registry_with_core_metrics` on the event core. The generator
//! drives it over stdin, one command per line:
//!
//! * `boot` — drop any previous model and build it again (from the
//!   snapshot + key files, or by corpus ingest for search-topk);
//!   `boot rekey` also attaches the retraining source (once);
//! * `serve 0|1` — listen on a fresh loopback port, telemetry off or
//!   on; answers `port <p>`;
//! * `stop` — shut the server down; answers `stopped <requests>` and,
//!   with telemetry on, `metrics <json>` and `means <k>=<v>…`;
//! * `quit`.

use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};

use hdc_serve::{server, CoreKind, ServeMetrics};
use hdc_store::{ModelRegistry, RekeySource};

use crate::workload::{self, Kind};

/// Entry point of `perfbench host <workload> <seed> <dir> <cpu>`.
pub fn main(args: &[String]) -> Result<(), String> {
    let [name, seed, dir, cpu] = args else {
        return Err("usage: perfbench host <workload> <seed> <dir> <cpu>".into());
    };
    let kind = Kind::parse(name).ok_or("unknown workload")?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let cpu: usize = cpu.parse().map_err(|_| "bad cpu")?;
    crate::sys::pin_to(&[cpu]);
    let spec = kind.spec();
    let files = workload::model_files(std::path::Path::new(dir), &spec, seed);

    // Inputs the boots consume, generated before `ready` so that set-up
    // time covers only the model build.
    let corpus = (kind == Kind::SearchTopk).then(|| workload::search_rows(seed).0);
    let mut rekey_source = (spec.rekeys > 0).then(|| RekeySource {
        config: workload::train_config(kind, seed),
        train: workload::isolet_data(seed).0,
    });

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready").map_err(|e| e.to_string())?;
    let mut registry: Option<ModelRegistry> = None;
    while let Some(Ok(line)) = lines.next() {
        match line.trim() {
            "boot" | "boot rekey" => {
                // Free the previous model before building the next.
                drop(registry.take());
                let rekey = if line.trim() == "boot rekey" {
                    rekey_source.take()
                } else {
                    None
                };
                registry = Some(workload::boot(kind, &files, rekey, corpus.as_deref()));
            }
            "serve 0" | "serve 1" => {
                let registry = registry.as_ref().ok_or("serve before boot")?;
                let metrics = line.trim().ends_with('1').then(ServeMetrics::new);
                let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
                let port = listener.local_addr().map_err(|e| e.to_string())?.port();
                let shutdown = AtomicBool::new(false);
                let config = spec.serve_config();
                std::thread::scope(|s| -> Result<(), String> {
                    let server = s.spawn(|| {
                        server::serve_registry_with_core_metrics(
                            CoreKind::Event,
                            listener,
                            registry,
                            &config,
                            &shutdown,
                            metrics.as_ref(),
                        )
                    });
                    writeln!(out, "port {port}").map_err(|e| e.to_string())?;
                    out.flush().map_err(|e| e.to_string())?;
                    // Serve until the generator says stop (or goes away).
                    while let Some(Ok(cmd)) = lines.next() {
                        if cmd.trim() == "stop" {
                            break;
                        }
                    }
                    shutdown.store(true, Ordering::SeqCst);
                    let stats = server
                        .join()
                        .map_err(|_| "server thread panicked")?
                        .map_err(|e| e.to_string())?;
                    writeln!(out, "stopped {}", stats.requests).map_err(|e| e.to_string())?;
                    if let Some(m) = &metrics {
                        write!(out, "metrics {}", m.render_json(0, Some(registry)))
                            .map_err(|e| e.to_string())?;
                        let prom = m.render_prometheus(Some(registry));
                        writeln!(
                            out,
                            "means wakeup_batch={} batch_size={}",
                            prom_mean(&prom, "hdc_wakeup_batch"),
                            prom_mean(&prom, "hdc_batch_size")
                        )
                        .map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })?;
            }
            "quit" => break,
            other => return Err(format!("unknown host command `{other}`")),
        }
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `sum / count` of a histogram in Prometheus text, or 0 when empty.
fn prom_mean(text: &str, name: &str) -> f64 {
    let value = |suffix: &str| -> f64 {
        let key = format!("{name}{suffix} ");
        text.lines()
            .find_map(|l| l.strip_prefix(&key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    let count = value("_count");
    if count > 0.0 {
        value("_sum") / count
    } else {
        0.0
    }
}
