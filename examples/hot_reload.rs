//! Hot-reload quickstart: snapshot a locked model to disk, serve it
//! from a model registry, then — without dropping a request — reload a
//! replacement snapshot and rotate the key live, watching the
//! generation id and checksum change from the client side.
//!
//! Run with: `cargo run --release --example hot_reload`

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use hdlock_repro::hdc_serve::demo::{self, DemoSpec};
use hdlock_repro::hdc_serve::{
    loadgen, protocol, server, AdmissionConfig, CoreKind, LoadgenConfig, RegistryServeConfig,
};
use hdlock_repro::hdc_store::{KeySegment, ModelRegistry, ModelSnapshot, RekeySource};

fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &str,
) -> protocol::ClassifyResponse {
    writer
        .write_all(request.as_bytes())
        .expect("request written");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response read");
    protocol::parse_response(&line).expect("well-formed response")
}

fn main() -> std::io::Result<()> {
    // 1. Train a locked model and persist it: the binary snapshot holds
    //    only public material; the key ships as a separate sealed
    //    segment (a snapshot without its segment cannot serve).
    let spec = DemoSpec {
        dim: 4096,
        ..DemoSpec::default()
    };
    println!(
        "training locked demo model (N = {}, C = {}, D = {}, L = 2) …",
        spec.n_features, spec.n_classes, spec.dim
    );
    let (model, train) = demo::demo_locked_model(&spec, 2);
    let dir = std::env::temp_dir().join("hdlock_hot_reload_example");
    std::fs::create_dir_all(&dir)?;
    let snap_path = dir.join("model-v1.hdsn");
    let key_path = dir.join("model-v1.hdky");
    let snapshot = ModelSnapshot::from_locked_model(&model);
    let checksum = snapshot.save(&snap_path).expect("snapshot saved");
    KeySegment::from_locked_encoder(model.encoder())
        .expect("vault sealed")
        .save(&key_path)
        .expect("key segment saved");
    println!(
        "snapshot {} ({} bytes, checksum {checksum:016x}) + sealed key {}",
        snap_path.display(),
        std::fs::metadata(&snap_path)?.len(),
        key_path.display()
    );

    // 2. Boot the registry from the files — exactly what a fresh
    //    replica would do — and serve it with a query budget per
    //    connection.
    let registry = ModelRegistry::from_snapshot(
        ModelSnapshot::load(&snap_path).expect("snapshot loads").0,
        Some(&KeySegment::load(&key_path).expect("key loads")),
    )
    .expect("snapshot + key are consistent")
    .with_rekey_source(RekeySource {
        config: demo::demo_config(&spec),
        train,
    });
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let shutdown = AtomicBool::new(false);
    let config = RegistryServeConfig {
        admission: AdmissionConfig {
            query_budget: 100_000,
            ..AdmissionConfig::default()
        },
        ..RegistryServeConfig::default()
    };
    println!("serving on {addr}");

    std::thread::scope(|s| -> std::io::Result<()> {
        let server_thread = s.spawn(|| {
            server::serve_registry_with_core_metrics(
                CoreKind::default(),
                listener,
                &registry,
                &config,
                &shutdown,
                None,
            )
        });

        let stream = TcpStream::connect(addr)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;

        // 3. The info response names the serving generation, so clients
        //    can detect swaps.
        let info = roundtrip(&mut reader, &mut writer, &protocol::info_request_line(1))
            .info
            .expect("info");
        println!(
            "generation {} (checksum {}) on backend {}",
            info.generation, info.checksum, info.backend
        );

        // 4. Put closed-loop load on the server and rotate the key
        //    right through it: the swap is atomic, in-flight batches
        //    finish on the old generation, nothing is dropped — and the
        //    old vault is destroyed the moment the swap lands.
        let load = s.spawn(|| {
            loadgen::run(
                addr,
                spec.n_features,
                spec.m_levels,
                &LoadgenConfig {
                    connections: 8,
                    requests_per_connection: 300,
                    seed: 1,
                    ..Default::default()
                },
            )
            .expect("load generation")
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let swapped = roundtrip(
            &mut reader,
            &mut writer,
            &protocol::rekey_request_line(2, 20_220_711),
        )
        .swapped
        .expect("rekey swaps");
        println!(
            "rekeyed live → generation {} (checksum {})",
            swapped.generation, swapped.checksum
        );
        let report = load.join().expect("load thread");
        println!(
            "load across the swap: {:.0} requests/s, {} ok, {} errors, p99 {} µs",
            report.requests_per_sec,
            report.total_requests,
            report.errors,
            report.latency.quantile(0.99)
        );
        assert_eq!(report.errors, 0, "a live rekey must not fail requests");

        // 5. Hot-reload the original snapshot file back in (rollback by
        //    reload), then read the stats counters.
        let swapped = roundtrip(
            &mut reader,
            &mut writer,
            &protocol::reload_request_line(
                3,
                snap_path.to_str().expect("utf-8 path"),
                Some(key_path.to_str().expect("utf-8 path")),
            ),
        )
        .swapped
        .expect("reload swaps");
        println!(
            "reloaded v1 from disk → generation {} (checksum {})",
            swapped.generation, swapped.checksum
        );
        let stats = roundtrip(&mut reader, &mut writer, &protocol::stats_request_line(4))
            .stats
            .expect("stats");
        println!(
            "stats: generation {}, locked {}, reloads {}, rekeys {}, {} requests ({} throttled)",
            stats.generation,
            stats.locked,
            stats.reloads,
            stats.rekeys,
            stats.requests,
            stats.throttled
        );

        drop(writer);
        drop(reader);
        shutdown.store(true, Ordering::SeqCst);
        let stats = server_thread.join().expect("server thread")?;
        println!(
            "server drained: {} requests over {} connections",
            stats.requests, stats.connections
        );
        Ok(())
    })?;
    let _ = std::fs::remove_file(&snap_path);
    let _ = std::fs::remove_file(&key_path);
    Ok(())
}
