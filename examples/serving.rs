//! Serving quickstart: boot the request-batching classify server over a
//! trained model, talk to it over TCP — first in line-JSON, then as a
//! pipelined binary-frame client — and drive it with the load
//! generator in both wire formats.
//!
//! Run with: `cargo run --release --example serving`

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use hdlock_repro::hdc_serve::demo::{demo_model, DemoSpec};
use hdlock_repro::hdc_serve::{
    loadgen, protocol, server, wire, CoreKind, LoadgenConfig, RegistryServeConfig, WireMode,
};
use hdlock_repro::hdc_store::{ModelRegistry, ModelSnapshot};

fn main() -> std::io::Result<()> {
    // 1. Train a model and snapshot it into a one-generation model
    //    registry, which every server serves from (a locked model plus
    //    its key segment serves an HDLock-protected model the same
    //    way; see `hot_reload`).
    let spec = DemoSpec::default();
    println!(
        "training demo model (N = {}, C = {}, D = {}) …",
        spec.n_features, spec.n_classes, spec.dim
    );
    let model = demo_model(&spec);
    let registry = ModelRegistry::from_snapshot(ModelSnapshot::from_standard_model(&model), None)
        .expect("demo snapshot is self-consistent");

    // 2. Serve it. The server borrows the registry, so it runs inside a
    //    thread scope; `shutdown` drains it gracefully.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let shutdown = AtomicBool::new(false);
    println!("serving on {addr}");

    std::thread::scope(|s| -> std::io::Result<()> {
        let server_thread = s.spawn(|| {
            server::serve_registry_with_core_metrics(
                CoreKind::default(),
                listener,
                &registry,
                &RegistryServeConfig::default(),
                &shutdown,
                None,
            )
        });

        // 3. Speak the line protocol by hand: one JSON object per line.
        let stream = TcpStream::connect(addr)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let levels: Vec<u16> = (0..spec.n_features)
            .map(|i| (i % spec.m_levels) as u16)
            .collect();
        writer.write_all(protocol::request_line(1, &levels, true).as_bytes())?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let response = protocol::parse_response(&line).expect("well-formed response");
        println!(
            "classified sample → class {} (scores for {} classes)",
            response.class.expect("successful classify"),
            response.scores.map_or(0, |s| s.len())
        );
        drop(writer);
        drop(reader);

        // 4. Speak the binary wire format, pipelined: the same server
        //    sniffs the first byte (0xB1) and switches this connection
        //    to length-prefixed frames. Eight classify requests go out
        //    back to back; completions come back in whatever order the
        //    batch workers finish, matched by the echoed request id.
        let stream = TcpStream::connect(addr)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let rows: Vec<Vec<u16>> = (0..8u16)
            .map(|i| {
                (0..spec.n_features)
                    .map(|f| ((usize::from(i) + f) % spec.m_levels) as u16)
                    .collect()
            })
            .collect();
        let mut burst = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            burst.extend(wire::classify_frame(100 + i as u64, row, false));
        }
        writer.write_all(&burst)?;
        let mut classes = vec![None; rows.len()];
        for _ in 0..rows.len() {
            let (header, payload) = wire::read_frame(&mut reader)?;
            let response = wire::decode_response(&header, &payload).expect("well-formed frame");
            classes[(response.id - 100) as usize] = response.class;
        }
        println!(
            "binary pipelined burst → classes {:?} (matched by request id)",
            classes.iter().map(|c| c.unwrap()).collect::<Vec<_>>()
        );
        drop(writer);
        drop(reader);

        // 5. Load-test it in both wire formats: concurrent closed-loop
        //    connections, fused into batch calls by the server's queue.
        //    The pipelined binary clients keep the queue full without
        //    needing more connections.
        for (label, wire_mode, pipeline) in [
            ("json serial      ", WireMode::Json, 1),
            ("binary pipelined ", WireMode::Binary, 16),
        ] {
            let report = loadgen::run(
                addr,
                spec.n_features,
                spec.m_levels,
                &LoadgenConfig {
                    connections: 16,
                    requests_per_connection: 250,
                    seed: 1,
                    wire: wire_mode,
                    pipeline,
                    ..Default::default()
                },
            )?;
            println!(
                "load test ({label}): {:.0} requests/s ({} ok, {} errors), \
                 latency µs p50 {} p99 {}",
                report.requests_per_sec,
                report.total_requests,
                report.errors,
                report.latency.quantile(0.50),
                report.latency.quantile(0.99)
            );
        }

        shutdown.store(true, Ordering::SeqCst);
        let stats = server_thread.join().expect("server thread")?;
        println!(
            "server drained: {} requests over {} connections",
            stats.requests, stats.connections
        );
        Ok(())
    })
}
