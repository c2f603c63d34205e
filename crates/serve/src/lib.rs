//! # hdc-serve — a request-batching inference server for HDC models
//!
//! The serving layer the ROADMAP calls for: a dependency-free
//! `std::net` TCP front end over the fused
//! [`ClassifySession`](hdc_model::ClassifySession) pipeline, with hot
//! model swaps and admission control layered on top.
//!
//! * **Protocol** ([`protocol`]) — one JSON object per line in, one per
//!   line out; scriptable with `nc` and parseable by the vendored
//!   `serde_json` stand-in. Carries classify, `info`, admin
//!   (`reload` / `rekey` / `stats`) and structured throttle responses.
//! * **Binary wire format** ([`wire`]) — length-prefixed frames
//!   (magic + version + request id + opcode + payload) for high-volume
//!   clients: classify payloads are packed `u16` level rows, score
//!   vectors are raw `f64` bits — no float/text round trip anywhere.
//!   Negotiated per connection by first-byte sniffing (JSON stays the
//!   default), so every existing client keeps working. See the module
//!   docs for the frame-layout and opcode tables, or the standalone
//!   spec at `docs/wire.md` in the repository.
//! * **Batching** ([`batcher`]) — requests from all connections funnel
//!   into one queue; workers pop up to `max_batch` jobs (or whatever
//!   arrived within `max_wait`) and answer them with a *single* fused
//!   `encode_batch → search_batch` call, so heavy concurrent traffic
//!   runs at batch-kernel throughput.
//! * **Server** ([`server`]) — one epoll event loop behind one
//!   request-policy layer (see *Serving architecture* below); serving
//!   is Linux only. No async runtime, no external crates. Every
//!   connection is a pipeline: up to `pipeline_window` in-flight
//!   requests, answered out of order as batch workers finish (clients
//!   match responses by id); a full window is answered with a
//!   structured *overload* error. [`serve_registry_with_core_metrics`]
//!   is the one entry point: it serves a
//!   [`ModelRegistry`](hdc_store::ModelRegistry)
//!   (a fixed model is a one-generation registry), so snapshots can be
//!   hot-reloaded (including streamed over the wire in chunks),
//!   locked models re-keyed *behind* the running server — in-flight
//!   traffic finishes on the generation its batch grabbed, and the
//!   `info` response carries the generation id + snapshot checksum so
//!   clients can detect the swap. Admission control meters JSON and
//!   binary clients identically.
//! * **Admission** ([`admission`]) — per-connection query budgets
//!   (the attack crate's [`QueryBudget`](hdc_attack::QueryBudget)
//!   semantics), token-bucket rate limits and lock-probe
//!   feature-sweep detection, answered with structured
//!   `"throttled":true` errors.
//! * **Load generator** ([`loadgen`]) — closed-loop clients reporting
//!   requests/sec and latency percentiles
//!   ([`hdc_model::LatencyStats`]), in either wire format and at any
//!   pipeline depth — plus an open-loop fan-in mode
//!   ([`loadgen::run_fan_in`]) that multiplexes thousands of
//!   concurrent pipelined connections from one thread; the numbers
//!   behind `BENCH_search.json`'s serving, wire and concurrency
//!   sections.
//!
//! ## Serving architecture
//!
//! Request *policy* — wire negotiation, frame/line parsing decisions,
//! validation, admission metering, the pipeline window, bulk
//! preparation, admin routing — lives in [`server`], behind one
//! concrete seam (`server::Outbox`, where a request's effects *land*).
//! The epoll event loop drives the sockets and plugs into that seam:
//!
//! ```text
//!   ┌──────────────────── policy (server.rs) ───────────────────┐
//!   │ sniff · parse · validate · admit · window · admin routing │
//!   └─────────────────────────────┬─────────────────────────────┘
//!                                 ▼
//!   ┌───────────────── event loop (event_loop.rs) ──────────────┐
//!   │ one epoll thread · nonblocking sockets · per-connection   │
//!   │ state machines · bounded write backlogs · waker pipe      │
//!   └──────────┬────────────────────────────────────▲───────────┘
//!              │ jobs                               │ completions
//!              ▼                                    │
//!   ┌───────────────────────────────────────────────┴───────────┐
//!   │ shared batch queue → worker pool (fused classify/search)  │
//!   │ + admin executor (reload / rekey / snapshot-xfer commit)  │
//!   └───────────────────────────────────────────────────────────┘
//! ```
//!
//! The event loop ([`event_loop`]) multiplexes 10k+ concurrent
//! connections on one thread. It runs on epoll, so serving is Linux
//! only: elsewhere [`serve_registry_with_core_metrics`] returns
//! [`std::io::ErrorKind::Unsupported`]. Golden transcripts pin every
//! response byte of both wires (`tests/event_core.rs`).
//!
//! ## Observability
//!
//! The telemetry plane ([`metrics`]) is strictly opt-in: pass
//! `Some(&ServeMetrics)` to [`serve_registry_with_core_metrics`] and
//! every stage of every request records into lock-free counters,
//! gauges and log-scaled histograms (the zero-dependency `hdc_obs`
//! crate); pass `None` and no clock is read anywhere — responses are
//! byte-identical either way (pinned by a differential test).
//!
//! What turning telemetry on costs is measured, not bounded. The
//! served benchmark's interleaved `obs.overhead_frac` (server CPU per
//! request with telemetry on over off, minus 1, on its json-small
//! workload) read −0.076, −0.004, +0.013, +0.181 and +0.255 in five
//! traced runs on a 2-vCPU AVX2 Xeon VM: a cost of a few percent
//! cannot be told from that spread. The `serving.telemetry.on_vs_off ≥
//! 0.97` gate in `ci/bench_gates.json` is one best-of-3 throughput
//! reading on binary pipelined classify; the committed
//! `BENCH_search.json` reads 0.878.
//!
//! The series catalog, by plane:
//!
//! * **Requests** — `hdc_requests_total{wire=json|binary}`; stage
//!   histograms (µs) `hdc_stage_sniff_us` (first byte → wire mode),
//!   `hdc_stage_dispatch_us` (parse/validate/admit/enqueue),
//!   `hdc_stage_queue_wait_us` (enqueue → worker pop),
//!   `hdc_stage_execute_classify_us` / `hdc_stage_execute_search_us`
//!   (fused kernel calls), `hdc_stage_drain_us` (write-backlog drain);
//!   `hdc_batch_size` (jobs per popped batch).
//! * **Admission** — `hdc_throttled_total{reason=budget|rate|sweep}`,
//!   recorded from the typed [`ThrottleReason`] before stringification.
//! * **Event-loop internals** — `hdc_epoll_wait_us`,
//!   `hdc_wakeup_batch` (completions per waker event),
//!   `hdc_backlog_high_watermark_total`, `hdc_overload_rejects_total`,
//!   `hdc_connections_opened_total` / `hdc_connections_closed_total`,
//!   `hdc_active_connections`.
//! * **Registry lifecycle** — `hdc_swaps_total{kind=reload|rekey|rollback}`,
//!   `hdc_swapped_generation_age_secs`, `hdc_generation`,
//!   `hdc_generation_age_secs`, and `hdc_hardened` (1 when the serving
//!   generation encodes in constant-time hardened mode); each swap
//!   also emits one structured `event=swap …` log line.
//! * **HDLock audit** — `hdc_vault_reads` / `hdc_vault_denied_reads`
//!   (privileged key-vault accesses of the serving generation) and the
//!   process-wide kernel row counters `hdc_kernel_hamming_rows` /
//!   `hdc_kernel_dot_rows`.
//!
//! Three exposition paths: the `{"metrics":true}` admin request
//! returns a structured one-line JSON summary (counts + p50/p90/p99/
//! p999 per stage); [`serve_scrapes`] (wired to `hdc_serve
//! --metrics-addr`) answers Prometheus text-format scrapes on a
//! separate listener; and swap events log structured lines to stderr.
//! `hdc_loadgen --metrics-delta` diffs two scrapes of the admin
//! request around a run to print server-side stage percentiles next to
//! the client-observed latency histogram. The full series catalog with
//! per-series semantics lives at `docs/metrics.md` in the repository.
//!
//! ## Hardened serving mode
//!
//! `hdc_serve --locked L --hardened` serves a locked generation whose
//! encoder runs in `hdlock::DeriveMode::Hardened`: every encode does
//! fixed, input-independent work (full bound-pair table stride with a
//! branchless select, oblivious key-vault reads, pruned top-k replaced
//! by the fixed-shape exact scan). The default cached mode builds no
//! bound-pair table, so `hdc_attack::warmth_distinguisher`, the
//! cache-warmth timing probe, fails against both modes.
//! Responses stay bit-identical to the unhardened server (pinned by an
//! integration test); the mode is reported by the `info`/`stats` admin
//! responses and the `hdc_hardened` gauge, and survives live rekeys.
//! Threat model and residual risks: `SECURITY.md` in the repository.
//!
//! ## Quickstart
//!
//! ```
//! use hdc_serve::{demo, loadgen, server, CoreKind, LoadgenConfig, RegistryServeConfig};
//! use hdc_store::{ModelRegistry, ModelSnapshot};
//! use std::net::TcpListener;
//! use std::sync::atomic::{AtomicBool, Ordering};
//!
//! let model = demo::demo_model(&demo::DemoSpec {
//!     dim: 512,
//!     train_size: 64,
//!     ..Default::default()
//! });
//! // A fixed model is served as a one-generation registry.
//! let registry = ModelRegistry::from_snapshot(ModelSnapshot::from_standard_model(&model), None)
//!     .expect("snapshot is self-consistent");
//! let listener = TcpListener::bind("127.0.0.1:0")?;
//! let addr = listener.local_addr()?;
//! let shutdown = AtomicBool::new(false);
//!
//! std::thread::scope(|s| -> std::io::Result<()> {
//!     let server = s.spawn(|| {
//!         server::serve_registry_with_core_metrics(
//!             CoreKind::default(),
//!             listener,
//!             &registry,
//!             &RegistryServeConfig::default(),
//!             &shutdown,
//!             None,
//!         )
//!     });
//!     let report = loadgen::run(addr, 16, 8, &LoadgenConfig {
//!         connections: 2,
//!         requests_per_connection: 5,
//!         seed: 1,
//!         ..Default::default()
//!     })?;
//!     assert_eq!(report.total_requests, 10);
//!     shutdown.store(true, Ordering::SeqCst);
//!     server.join().expect("server thread")?;
//!     Ok(())
//! })?;
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! See `examples/hot_reload.rs` for snapshot reload, live rekey and
//! admission budgets.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod batcher;
pub mod demo;
pub mod epoll;
#[cfg(target_os = "linux")]
pub mod event_loop;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod wire;

pub use admission::{AdmissionConfig, ConnectionAdmission, ThrottleReason};
pub use batcher::BatchConfig;
pub use loadgen::{FanInConfig, LoadReport, LoadgenConfig};
pub use metrics::{serve_scrapes, ServeMetrics, SwapKind};
pub use protocol::{
    AdminRequest, ClassifyRequest, ClassifyResponse, SearchMatch, ServerInfo, StatsReport, SwapInfo,
};
pub use server::{serve_registry_with_core_metrics, CoreKind, RegistryServeConfig, ServeStats};
pub use wire::WireMode;

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_model::{ClassifySession, HdcModel, RecordEncoder};
    use hdc_store::{KeySegment, ModelRegistry, ModelSnapshot, RekeySource};
    use hdlock::{EncodingKey, LockedEncoder};
    use hypervec::HvRng;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Boots `model` as a one-generation registry: how a fixed model is
    /// served.
    fn fixed_registry(model: &HdcModel<RecordEncoder>) -> ModelRegistry {
        ModelRegistry::from_snapshot(ModelSnapshot::from_standard_model(model), None).unwrap()
    }

    /// Serves `registry` on the platform-default core, telemetry off.
    fn serve_default_core(
        listener: TcpListener,
        registry: &ModelRegistry,
        config: &RegistryServeConfig,
        shutdown: &AtomicBool,
    ) -> std::io::Result<ServeStats> {
        serve_registry_with_core_metrics(
            CoreKind::default(),
            listener,
            registry,
            config,
            shutdown,
            None,
        )
    }

    /// Blocking line-oriented test client.
    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        line: String,
    }

    impl Client {
        fn connect(addr: std::net::SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            Client {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: stream,
                line: String::new(),
            }
        }

        fn roundtrip(&mut self, request: &str) -> ClassifyResponse {
            self.writer.write_all(request.as_bytes()).unwrap();
            self.line.clear();
            self.reader.read_line(&mut self.line).unwrap();
            protocol::parse_response(&self.line).unwrap()
        }
    }

    /// Full wire round trip: responses match direct session calls,
    /// protocol errors are reported per request, shutdown is graceful.
    #[test]
    fn served_answers_match_direct_session() {
        let model = demo::demo_model(&demo::DemoSpec {
            dim: 512,
            train_size: 128,
            ..Default::default()
        });
        let session = model.session();
        let registry = fixed_registry(&model);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|s| {
            let server = s.spawn(|| {
                serve_default_core(
                    listener,
                    &registry,
                    &RegistryServeConfig::default(),
                    &shutdown,
                )
            });

            let mut client = Client::connect(addr);

            // A valid classify request answers with the session's class.
            let levels: Vec<u16> = (0..16).map(|i| (i % 8) as u16).collect();
            let resp = client.roundtrip(&protocol::request_line(1, &levels, false));
            assert_eq!(resp.id, 1);
            assert_eq!(resp.class, Some(session.classify(&levels)));

            // Scores on demand, bit-equal to the session's.
            let resp = client.roundtrip(&protocol::request_line(2, &levels, true));
            let refs: Vec<&[u16]> = vec![&levels];
            let want = session.scores_batch(&refs);
            let got = resp.scores.unwrap();
            assert_eq!(got.len(), session.n_classes());
            for (g, w) in got.iter().zip(want.scores(0)) {
                assert_eq!(g.to_bits(), w.to_bits());
            }

            // Wrong width and out-of-range levels are per-request errors.
            let resp = client.roundtrip(&protocol::request_line(3, &[1, 2], false));
            assert_eq!(resp.id, 3);
            assert!(resp.error.unwrap().contains("model expects 16"));
            assert!(!resp.throttled);

            let resp = client.roundtrip(&protocol::request_line(4, &[200u16; 16], false));
            assert!(resp.error.unwrap().contains("out of range"));

            // Info reports the model shape and the active kernel backend;
            // a fixed model is served as generation 1 of its snapshot.
            let resp = client.roundtrip(&protocol::info_request_line(9));
            assert_eq!(resp.id, 9);
            let info = resp.info.unwrap();
            assert_eq!(info.backend, session.kernel_backend());
            assert_eq!(info.dim, session.dim());
            assert_eq!(info.features, session.n_features());
            assert_eq!(info.levels, session.m_levels());
            assert_eq!(info.classes, session.n_classes());
            assert_eq!(info.generation, 1);
            let checksum = ModelSnapshot::from_standard_model(&model).checksum();
            assert_eq!(info.checksum, protocol::checksum_hex(checksum));

            // Admin requests are answered.
            let resp = client.roundtrip(&protocol::stats_request_line(10));
            assert_eq!(resp.stats.unwrap().generation, 1);

            // Malformed JSON does not kill the connection.
            let resp = client.roundtrip("{oops\n");
            assert!(resp.error.is_some());

            // The connection still works afterwards.
            let resp = client.roundtrip(&protocol::request_line(5, &levels, false));
            assert_eq!(resp.id, 5);

            drop(client);
            shutdown.store(true, Ordering::SeqCst);
            let stats = server.join().unwrap().unwrap();
            assert_eq!(stats.connections, 1);
            assert_eq!(stats.requests, 8);
            // Requests 3, 4, the info request, the stats request and the
            // malformed line were all answered without reaching the
            // batch workers.
            assert_eq!(stats.classified, 3);
            assert_eq!(stats.throttled, 0);
        });
    }

    /// One line nested far past the JSON parser's recursion limit is a
    /// structured malformed-JSON error carrying the line's id, and the
    /// same connection answers the next request.
    #[test]
    fn deeply_nested_json_line_is_a_structured_error() {
        let model = demo::demo_model(&demo::DemoSpec {
            dim: 512,
            train_size: 128,
            ..Default::default()
        });
        let registry = fixed_registry(&model);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|s| {
            let server = s.spawn(|| {
                serve_default_core(
                    listener,
                    &registry,
                    &RegistryServeConfig::default(),
                    &shutdown,
                )
            });

            let mut client = Client::connect(addr);
            let depth = 50_000;
            let line = format!(
                "{{\"id\":7,\"levels\":{}{}}}\n",
                "[".repeat(depth),
                "]".repeat(depth)
            );
            let resp = client.roundtrip(&line);
            assert_eq!(resp.id, 7);
            let err = resp.error.unwrap();
            assert!(err.contains("malformed JSON"), "{err}");

            let resp = client.roundtrip(&protocol::info_request_line(8));
            assert_eq!(resp.id, 8);
            assert!(resp.info.is_some());

            drop(client);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
        });
    }

    /// Concurrent loadgen traffic is batched and every response checks
    /// out against the direct session path.
    #[test]
    fn loadgen_roundtrip_with_batching() {
        let model = demo::demo_model(&demo::DemoSpec {
            dim: 512,
            train_size: 128,
            ..Default::default()
        });
        let session = model.session();
        let registry = fixed_registry(&model);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let config = RegistryServeConfig {
            batch: BatchConfig {
                max_batch: 8,
                max_wait: std::time::Duration::from_micros(200),
                workers: 2,
                ..BatchConfig::default()
            },
            ..RegistryServeConfig::default()
        };

        std::thread::scope(|s| {
            let server = s.spawn(|| serve_default_core(listener, &registry, &config, &shutdown));
            let report = loadgen::run(
                addr,
                session.n_features(),
                session.m_levels(),
                &LoadgenConfig {
                    connections: 8,
                    requests_per_connection: 50,
                    seed: 7,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(report.total_requests, 400);
            assert_eq!(report.errors, 0);
            assert!(report.requests_per_sec > 0.0);
            assert_eq!(report.latency.count, 400);
            shutdown.store(true, Ordering::SeqCst);
            let stats = server.join().unwrap().unwrap();
            assert_eq!(stats.requests, 400);
            assert_eq!(stats.classified, 400);
            assert_eq!(stats.connections, 8);
        });
    }

    /// Admission: a client exceeding its query budget gets structured
    /// throttle errors while a neighbor connection is untouched.
    #[test]
    fn admission_throttles_one_client_not_the_other() {
        let spec = demo::DemoSpec {
            dim: 256,
            train_size: 64,
            ..Default::default()
        };
        let registry = demo::demo_locked_registry(&spec, 2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let config = RegistryServeConfig {
            batch: BatchConfig::default(),
            admission: AdmissionConfig {
                query_budget: 5,
                ..AdmissionConfig::default()
            },
        };

        std::thread::scope(|s| {
            let server = s.spawn(|| serve_default_core(listener, &registry, &config, &shutdown));

            let mut greedy = Client::connect(addr);
            let mut honest = Client::connect(addr);
            let row = |i: u16| -> Vec<u16> {
                (0..spec.n_features)
                    .map(|f| ((usize::from(i) + f) % spec.m_levels) as u16)
                    .collect()
            };

            // The greedy client gets its 5 budgeted answers…
            for i in 0..5u16 {
                let resp = greedy.roundtrip(&protocol::request_line(u64::from(i), &row(i), false));
                assert!(resp.class.is_some(), "within budget: {resp:?}");
            }
            // …then structured throttles, not hard failures.
            for i in 5..8u16 {
                let resp = greedy.roundtrip(&protocol::request_line(u64::from(i), &row(i), false));
                assert!(resp.throttled, "over budget: {resp:?}");
                assert!(resp.error.unwrap().contains("budget"));
            }

            // The honest neighbor is unaffected — budgets are per
            // connection, so its own (within-budget) requests all land
            // even though the greedy client just burned through its
            // allowance.
            for i in 0..5u16 {
                let resp =
                    honest.roundtrip(&protocol::request_line(u64::from(100 + i), &row(i), false));
                assert!(resp.class.is_some(), "neighbor request {i}: {resp:?}");
            }

            // Stats surface the throttle count.
            let resp = honest.roundtrip(&protocol::stats_request_line(999));
            let stats = resp.stats.unwrap();
            assert_eq!(stats.throttled, 3);
            assert!(stats.locked);
            assert_eq!(stats.generation, 1);

            drop(greedy);
            drop(honest);
            shutdown.store(true, Ordering::SeqCst);
            let stats = server.join().unwrap().unwrap();
            assert_eq!(stats.throttled, 3);
            assert_eq!(stats.connections, 2);
        });
    }

    /// The rekey acceptance run: a live rekey lands under closed-loop
    /// load with zero failed requests, post-swap responses are
    /// bit-identical to a cold-started server on the new key, and the
    /// old generation's vault is destroyed.
    #[test]
    fn live_rekey_under_load_is_lossless_and_bit_identical() {
        let spec = demo::DemoSpec {
            dim: 256,
            train_size: 64,
            ..Default::default()
        };
        let (model, train) = demo::demo_locked_model(&spec, 2);
        let snapshot = ModelSnapshot::from_locked_model(&model);
        let key = KeySegment::from_locked_encoder(model.encoder()).unwrap();
        let registry = ModelRegistry::from_snapshot(snapshot, Some(&key))
            .unwrap()
            .with_rekey_source(RekeySource {
                config: demo::demo_config(&spec),
                train: train.clone(),
            });

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let config = RegistryServeConfig::default();
        const REKEY_SEED: u64 = 20_220_711;

        let old_generation = registry.current();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_default_core(listener, &registry, &config, &shutdown));

            // Closed-loop load in the background…
            let load = s.spawn(|| {
                loadgen::run(
                    addr,
                    spec.n_features,
                    spec.m_levels,
                    &LoadgenConfig {
                        connections: 4,
                        requests_per_connection: 120,
                        seed: 11,
                        ..Default::default()
                    },
                )
                .unwrap()
            });

            // …and a rekey right through the middle of it.
            let mut admin = Client::connect(addr);
            let resp = admin.roundtrip(&protocol::rekey_request_line(1, REKEY_SEED));
            let swapped = resp.swapped.expect("rekey swaps");
            assert_eq!(swapped.generation, 2);

            // Zero failed/dropped requests across the swap.
            let report = load.join().unwrap();
            assert_eq!(report.total_requests, 480);
            assert_eq!(report.errors, 0, "requests failed across the rekey");

            // The info response reflects the swap.
            let resp = admin.roundtrip(&protocol::info_request_line(2));
            let info = resp.info.unwrap();
            assert_eq!(info.generation, 2);
            assert_eq!(info.checksum, swapped.checksum);

            // Post-swap responses are bit-identical to a cold-started
            // model under the same key seed.
            let mut rng = HvRng::from_seed(REKEY_SEED);
            let cold_key = EncodingKey::random(
                &mut rng,
                spec.n_features,
                2,
                model.encoder().pool().len(),
                spec.dim,
            )
            .unwrap();
            let cold_enc = LockedEncoder::from_parts(
                model.encoder().pool().clone(),
                model.encoder().values().clone(),
                cold_key,
            )
            .unwrap();
            let cold =
                hdc_model::HdcModel::fit_with_encoder(&demo::demo_config(&spec), cold_enc, &train)
                    .unwrap();
            let cold_session = cold.session();
            for i in 0..12u16 {
                let row: Vec<u16> = (0..spec.n_features)
                    .map(|f| ((usize::from(i) * 3 + f) % spec.m_levels) as u16)
                    .collect();
                let resp = admin.roundtrip(&protocol::request_line(u64::from(10 + i), &row, true));
                assert_eq!(resp.class, Some(cold_session.classify(&row)), "row {i}");
                let refs: Vec<&[u16]> = vec![&row];
                let want = cold_session.scores_batch(&refs);
                for (g, w) in resp.scores.unwrap().iter().zip(want.scores(0)) {
                    assert_eq!(g.to_bits(), w.to_bits(), "row {i}");
                }
            }

            // The old generation's vault is destroyed: reads frozen.
            let old_vault = old_generation.session().encoder().vault().unwrap();
            assert!(!old_vault.is_sealed());
            assert!(old_vault.with_key(|_| ()).is_err());

            drop(admin);
            shutdown.store(true, Ordering::SeqCst);
            let stats = server.join().unwrap().unwrap();
            assert_eq!(stats.throttled, 0);
            assert!(stats.requests >= 480);
        });
    }

    /// Hot reload through the wire: save a snapshot, `reload` it, and
    /// watch the generation + checksum change in `info`.
    #[test]
    fn wire_reload_swaps_generations() {
        let spec = demo::DemoSpec {
            dim: 256,
            train_size: 64,
            ..Default::default()
        };
        let registry = demo::demo_locked_registry(&spec, 2);
        let boot_checksum = registry.current().checksum();

        // A replacement *standard* model, snapshotted to disk.
        let dir = std::env::temp_dir().join("hdc_serve_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap_path = dir.join("replacement.hdsn");
        let replacement = demo::demo_model(&demo::DemoSpec { seed: 999, ..spec });
        ModelSnapshot::from_standard_model(&replacement)
            .save(&snap_path)
            .unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let config = RegistryServeConfig::default();

        std::thread::scope(|s| {
            let server = s.spawn(|| serve_default_core(listener, &registry, &config, &shutdown));
            let mut client = Client::connect(addr);

            let info = client
                .roundtrip(&protocol::info_request_line(1))
                .info
                .unwrap();
            assert_eq!(info.generation, 1);
            assert_eq!(info.checksum, protocol::checksum_hex(boot_checksum));

            // Reload from the file; no key segment (standard model).
            let resp = client.roundtrip(&protocol::reload_request_line(
                2,
                snap_path.to_str().unwrap(),
                None,
            ));
            let swapped = resp.swapped.expect("reload swaps");
            assert_eq!(swapped.generation, 2);
            assert_ne!(swapped.checksum, info.checksum);

            let info = client
                .roundtrip(&protocol::info_request_line(3))
                .info
                .unwrap();
            assert_eq!(info.generation, 2);
            assert_eq!(info.checksum, swapped.checksum);

            // Served answers now come from the replacement model.
            let row: Vec<u16> = (0..spec.n_features)
                .map(|f| (f % spec.m_levels) as u16)
                .collect();
            let resp = client.roundtrip(&protocol::request_line(4, &row, false));
            assert_eq!(resp.class, Some(replacement.session().classify(&row)));

            // Reloading a missing file fails cleanly, serving continues.
            let resp = client.roundtrip(&protocol::reload_request_line(
                5,
                dir.join("nope.hdsn").to_str().unwrap(),
                None,
            ));
            assert!(resp.error.unwrap().contains("reload failed"));
            let resp = client.roundtrip(&protocol::request_line(6, &row, false));
            assert!(resp.class.is_some());

            drop(client);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
        });
        let _ = std::fs::remove_file(&snap_path);
    }

    /// Blocking binary-frame test client.
    struct BinClient {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl BinClient {
        fn connect(addr: std::net::SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            BinClient {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: stream,
            }
        }

        fn send(&mut self, bytes: &[u8]) {
            self.writer.write_all(bytes).unwrap();
        }

        fn recv(&mut self) -> ClassifyResponse {
            let (header, payload) = wire::read_frame(&mut self.reader).unwrap();
            wire::decode_response(&header, &payload).unwrap()
        }

        fn roundtrip(&mut self, bytes: &[u8]) -> ClassifyResponse {
            self.send(bytes);
            self.recv()
        }

        /// Collects `n` responses into an id-keyed map (pipelined
        /// completions arrive in any order).
        fn recv_n(&mut self, n: usize) -> std::collections::HashMap<u64, ClassifyResponse> {
            let mut out = std::collections::HashMap::new();
            for _ in 0..n {
                let resp = self.recv();
                assert!(out.insert(resp.id, resp).is_none(), "duplicate response id");
            }
            out
        }
    }

    /// The binary wire answers bit-identically to the JSON wire and the
    /// direct session, on the same server, sniffed per connection.
    #[test]
    fn binary_wire_matches_json_and_session() {
        let model = demo::demo_model(&demo::DemoSpec {
            dim: 512,
            train_size: 128,
            ..Default::default()
        });
        let session = model.session();
        let registry = fixed_registry(&model);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|s| {
            let server = s.spawn(|| {
                serve_default_core(
                    listener,
                    &registry,
                    &RegistryServeConfig::default(),
                    &shutdown,
                )
            });

            let mut json = Client::connect(addr);
            let mut bin = BinClient::connect(addr);

            for i in 0..8u16 {
                let levels: Vec<u16> = (0..16).map(|f| ((usize::from(i) + f) % 8) as u16).collect();
                let id = u64::from(i) + 1;
                let jr = json.roundtrip(&protocol::request_line(id, &levels, true));
                let br = bin.roundtrip(&wire::classify_frame(id, &levels, true));
                assert_eq!(br.id, id);
                assert_eq!(br.class, jr.class);
                assert_eq!(br.class, Some(session.classify(&levels)));
                // Scores bit-identical across wire formats (the binary
                // wire ships raw f64 bits; JSON round-trips via `{:?}`).
                let js = jr.scores.unwrap();
                let bs = br.scores.unwrap();
                assert_eq!(js.len(), bs.len());
                for (a, b) in js.iter().zip(&bs) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
                }
            }

            // Binary info matches the JSON info.
            let ji = json
                .roundtrip(&protocol::info_request_line(100))
                .info
                .unwrap();
            let bi = bin.roundtrip(&wire::info_frame(100)).info.unwrap();
            assert_eq!(ji, bi);

            // Validation errors are structured on the binary wire too.
            let resp = bin.roundtrip(&wire::classify_frame(101, &[1, 2], false));
            assert!(resp.error.unwrap().contains("model expects 16"));

            drop(json);
            drop(bin);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
        });
    }

    /// The `search` request answers top-k hits bit-identical to a
    /// direct [`hdc_model::ClassifySession::search_topk_batch`] call,
    /// on both wire formats, through the same batcher — and the
    /// loadgen's search mode drives it with zero errors.
    #[test]
    fn search_requests_match_topk_session_on_both_wires() {
        let model = demo::demo_model(&demo::DemoSpec {
            dim: 512,
            train_size: 128,
            ..Default::default()
        });
        let session = model.session();
        let registry = fixed_registry(&model);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|s| {
            let server = s.spawn(|| {
                serve_default_core(
                    listener,
                    &registry,
                    &RegistryServeConfig::default(),
                    &shutdown,
                )
            });

            let mut json = Client::connect(addr);
            let mut bin = BinClient::connect(addr);
            let k = 3;

            for i in 0..6u16 {
                let levels: Vec<u16> = (0..16).map(|f| ((usize::from(i) + f) % 8) as u16).collect();
                let id = u64::from(i) + 1;
                let want = session.search_topk_batch(&[levels.as_slice()], k, None);
                let want = want.matches(0);

                let jr = json.roundtrip(&protocol::search_request_line(id, &levels, k));
                let br = bin.roundtrip(&wire::search_frame(id, &levels, k));
                assert_eq!((jr.id, br.id), (id, id));
                let jm = jr.matches.unwrap();
                let bm = br.matches.unwrap();
                assert_eq!(jm.len(), want.len());
                assert_eq!(bm.len(), want.len());
                for ((j, b), w) in jm.iter().zip(&bm).zip(want) {
                    assert_eq!(usize::try_from(j.row).unwrap(), w.row, "row {i}");
                    assert_eq!(usize::try_from(b.row).unwrap(), w.row, "row {i}");
                    // Scores bit-identical across wire formats and
                    // against the direct session call.
                    assert_eq!(j.score.to_bits(), w.score.to_bits(), "row {i}");
                    assert_eq!(b.score.to_bits(), w.score.to_bits(), "row {i}");
                }
            }

            // k larger than the row count returns every row, and a
            // malformed search (wrong row shape) answers a structured
            // error without killing the connection.
            let levels: Vec<u16> = (0..16).map(|f| (f % 8) as u16).collect();
            let resp = json.roundtrip(&protocol::search_request_line(50, &levels, 100));
            assert_eq!(resp.matches.unwrap().len(), session.n_classes());
            let resp = bin.roundtrip(&wire::search_frame(51, &[1, 2], 3));
            assert!(resp.error.unwrap().contains("model expects 16"));
            let resp = bin.roundtrip(&wire::search_frame(52, &levels, 2));
            assert_eq!(resp.matches.unwrap().len(), 2);

            // Loadgen search mode, both wires: every response carried a
            // match list (anything else counts as an error).
            for wire_mode in [WireMode::Json, WireMode::Binary] {
                let report = loadgen::run(
                    addr,
                    session.n_features(),
                    session.m_levels(),
                    &LoadgenConfig {
                        connections: 2,
                        requests_per_connection: 50,
                        seed: 29,
                        wire: wire_mode,
                        pipeline: 4,
                        search_k: Some(k),
                    },
                )
                .unwrap();
                assert_eq!(report.total_requests, 100, "{wire_mode:?}");
                assert_eq!(report.errors, 0, "{wire_mode:?}");
            }

            drop(json);
            drop(bin);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
        });
    }

    /// Pipelined requests complete out of order and are matched by id;
    /// the loadgen's pipelined binary client sees zero errors.
    #[test]
    fn pipelined_requests_match_by_id_in_both_wire_formats() {
        let model = demo::demo_model(&demo::DemoSpec {
            dim: 512,
            train_size: 128,
            ..Default::default()
        });
        let session = model.session();
        let registry = fixed_registry(&model);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);

        std::thread::scope(|s| {
            let server = s.spawn(|| {
                serve_default_core(
                    listener,
                    &registry,
                    &RegistryServeConfig::default(),
                    &shutdown,
                )
            });

            // Hand-rolled pipelined burst: 16 frames written back to
            // back, then 16 completions collected in whatever order
            // the batch workers finished them.
            let mut bin = BinClient::connect(addr);
            let rows: Vec<Vec<u16>> = (0..16u64)
                .map(|i| (0..16).map(|f| ((i as usize + f) % 8) as u16).collect())
                .collect();
            let mut burst = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                burst.extend(wire::classify_frame(1000 + i as u64, row, false));
            }
            bin.send(&burst);
            let responses = bin.recv_n(rows.len());
            for (i, row) in rows.iter().enumerate() {
                let resp = &responses[&(1000 + i as u64)];
                assert_eq!(resp.class, Some(session.classify(row)), "row {i}");
            }

            // The loadgen's pipelined clients in both formats: every
            // response matched an outstanding id (errors would count).
            for wire_mode in [WireMode::Json, WireMode::Binary] {
                let report = loadgen::run(
                    addr,
                    session.n_features(),
                    session.m_levels(),
                    &LoadgenConfig {
                        connections: 4,
                        requests_per_connection: 100,
                        seed: 13,
                        wire: wire_mode,
                        pipeline: 8,
                        search_k: None,
                    },
                )
                .unwrap();
                assert_eq!(report.total_requests, 400, "{wire_mode:?}");
                assert_eq!(report.errors, 0, "{wire_mode:?}");
            }

            drop(bin);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
        });
    }

    /// Malformed binary frames: unknown opcode, wrong version, and
    /// request-id reuse answer structured errors without killing the
    /// sibling in-flight requests on the same connection; oversized
    /// length prefixes answer then close; truncated headers and bad
    /// magic close cleanly — and none of it disturbs a neighbor
    /// connection.
    #[test]
    fn malformed_binary_frames_spare_siblings() {
        let model = demo::demo_model(&demo::DemoSpec {
            dim: 512,
            train_size: 128,
            ..Default::default()
        });
        let session = model.session();
        let registry = fixed_registry(&model);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        // A slow batch window keeps enqueued jobs in flight long
        // enough for the sibling/reuse assertions to be deterministic.
        let config = RegistryServeConfig {
            batch: BatchConfig {
                max_batch: 64,
                max_wait: std::time::Duration::from_millis(30),
                workers: 1,
                ..BatchConfig::default()
            },
            ..RegistryServeConfig::default()
        };
        let levels: Vec<u16> = (0..16).map(|f| (f % 8) as u16).collect();

        std::thread::scope(|s| {
            let server = s.spawn(|| serve_default_core(listener, &registry, &config, &shutdown));
            let mut neighbor = Client::connect(addr);

            // One burst: valid (id 1) · unknown opcode (id 2) · wrong
            // version (id 3) · id-reuse of 1 · valid (id 4). The two
            // valid classifies sit in the batch window while the three
            // malformed ones answer immediately — five responses, no
            // casualties.
            let mut bin = BinClient::connect(addr);
            let mut burst = wire::classify_frame(1, &levels, false);
            let mut bad_op = wire::classify_frame(2, &levels, false);
            bad_op[3] = 0x7E;
            burst.extend(&bad_op);
            let mut bad_ver = wire::classify_frame(3, &levels, false);
            bad_ver[2] = wire::WIRE_VERSION + 1;
            burst.extend(&bad_ver);
            burst.extend(wire::classify_frame(1, &levels, false)); // reuse
            burst.extend(wire::classify_frame(4, &levels, false));
            bin.send(&burst);

            // Five responses, any order; two share id 1 (the classify
            // result and the reuse error).
            let responses: Vec<ClassifyResponse> = (0..5).map(|_| bin.recv()).collect();
            let by_id = |id: u64| responses.iter().filter(move |r| r.id == id);
            assert!(by_id(1).any(|r| r.class == Some(session.classify(&levels))));
            assert!(by_id(1).any(|r| r
                .error
                .as_deref()
                .is_some_and(|e| e.contains("already in flight"))));
            assert!(by_id(2).all(|r| r.error.as_ref().unwrap().contains("opcode")));
            assert!(by_id(3).all(|r| r.error.as_ref().unwrap().contains("version")));
            assert!(by_id(4).all(|r| r.class == Some(session.classify(&levels))));
            assert_eq!(by_id(1).count(), 2);
            for id in 2..=4 {
                assert_eq!(by_id(id).count(), 1, "id {id}");
            }

            // The connection still serves after all that.
            let resp = bin.roundtrip(&wire::classify_frame(9, &levels, false));
            assert_eq!(resp.class, Some(session.classify(&levels)));

            // Oversized length prefix: answered with the echoed id,
            // then the connection closes.
            let mut oversized = wire::classify_frame(77, &levels, false);
            oversized[12..16].copy_from_slice(&(wire::MAX_PAYLOAD as u32 + 1).to_le_bytes());
            bin.send(&oversized);
            let resp = bin.recv();
            assert_eq!(resp.id, 77);
            assert!(resp.error.unwrap().contains("exceeds"));
            let mut probe = [0u8; 1];
            assert_eq!(bin.reader.read(&mut probe).unwrap(), 0, "clean close");

            // Truncated header (EOF mid-frame): clean close, no crash.
            // (`shutdown(Write)` sends the FIN; dropping one clone of
            // the stream would not, since the reader half keeps the
            // socket open.)
            let mut trunc = BinClient::connect(addr);
            trunc.send(&wire::classify_frame(5, &levels, false)[..7]);
            trunc.writer.shutdown(std::net::Shutdown::Write).unwrap();
            assert_eq!(trunc.reader.read(&mut probe).unwrap(), 0);

            // Bad magic mid-stream: the in-flight sibling is answered,
            // then the stream closes without an error frame.
            let mut desync = BinClient::connect(addr);
            let mut burst = wire::classify_frame(6, &levels, false);
            // A full header's worth of garbage: fewer bytes would just
            // look like a frame still in flight.
            burst.extend([0xFFu8; wire::HEADER_LEN]);
            desync.send(&burst);
            let resp = desync.recv();
            assert_eq!(resp.id, 6);
            assert!(resp.class.is_some());
            assert_eq!(desync.reader.read(&mut probe).unwrap(), 0);

            // The neighbor JSON connection never noticed any of it.
            let resp = neighbor.roundtrip(&protocol::request_line(500, &levels, false));
            assert_eq!(resp.class, Some(session.classify(&levels)));

            drop(neighbor);
            drop(bin);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
        });
    }

    /// Back-pressure: a client that overruns the pipeline window gets
    /// structured overload errors (JSON `"overloaded":true`, binary
    /// flag bit 1) while the windowed requests all complete.
    #[test]
    fn pipeline_window_overload_is_structured() {
        let model = demo::demo_model(&demo::DemoSpec {
            dim: 512,
            train_size: 128,
            ..Default::default()
        });
        let registry = fixed_registry(&model);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let config = RegistryServeConfig {
            batch: BatchConfig {
                max_batch: 64,
                max_wait: std::time::Duration::from_millis(40),
                workers: 1,
                pipeline_window: 2,
                ..BatchConfig::default()
            },
            ..RegistryServeConfig::default()
        };
        let levels: Vec<u16> = (0..16).map(|f| (f % 8) as u16).collect();

        std::thread::scope(|s| {
            let server = s.spawn(|| serve_default_core(listener, &registry, &config, &shutdown));

            // Binary: 4 pipelined sends into a window of 2 — two
            // overload errors, two eventual completions.
            let mut bin = BinClient::connect(addr);
            let mut burst = Vec::new();
            for id in 1..=4u64 {
                burst.extend(wire::classify_frame(id, &levels, false));
            }
            bin.send(&burst);
            let responses = bin.recv_n(4);
            let overloaded = responses.values().filter(|r| r.overloaded).count();
            let classified = responses.values().filter(|r| r.class.is_some()).count();
            assert_eq!((overloaded, classified), (2, 2), "window 2: {responses:?}");

            // JSON: same thing, `"overloaded":true` on the line.
            let json_stream = TcpStream::connect(addr).unwrap();
            let mut json_reader = BufReader::new(json_stream.try_clone().unwrap());
            let mut json_writer = json_stream;
            let mut burst = String::new();
            for id in 11..=14u64 {
                burst.push_str(&protocol::request_line(id, &levels, false));
            }
            json_writer.write_all(burst.as_bytes()).unwrap();
            let mut overloaded = 0;
            let mut classified = 0;
            for _ in 0..4 {
                let mut line = String::new();
                json_reader.read_line(&mut line).unwrap();
                let resp = protocol::parse_response(&line).unwrap();
                if resp.overloaded {
                    overloaded += 1;
                    assert!(resp.error.unwrap().contains("window full"));
                } else {
                    classified += 1;
                }
            }
            assert_eq!((overloaded, classified), (2, 2));

            drop(bin);
            drop(json_reader);
            drop(json_writer);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
        });
    }

    /// A client that floods requests without reading responses hits
    /// the writer-backlog cap: the reader pauses (bounding server-side
    /// memory) and resumes as the client drains — every request still
    /// gets exactly one response.
    #[test]
    fn flooding_client_is_backpressured_not_buffered() {
        let model = demo::demo_model(&demo::DemoSpec {
            dim: 256,
            train_size: 64,
            ..Default::default()
        });
        let session = model.session();
        let registry = fixed_registry(&model);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        // A tiny window keeps the backlog cap (window + slack) small
        // relative to the flood, so the pause path actually engages.
        let config = RegistryServeConfig {
            batch: BatchConfig {
                pipeline_window: 4,
                ..BatchConfig::default()
            },
            ..RegistryServeConfig::default()
        };

        std::thread::scope(|s| {
            let server = s.spawn(|| serve_default_core(listener, &registry, &config, &shutdown));

            // 2000 malformed lines, written without reading anything:
            // each produces an inline error response the pipeline
            // window does not meter.
            const FLOOD: usize = 2000;
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let flood: String = (0..FLOOD).map(|i| format!("{{\"id\":{i},oops\n")).collect();
            writer.write_all(flood.as_bytes()).unwrap();

            // Now drain: all FLOOD error responses arrive, ids intact.
            let mut seen = 0usize;
            let mut line = String::new();
            for _ in 0..FLOOD {
                line.clear();
                reader.read_line(&mut line).unwrap();
                let resp = protocol::parse_response(&line).unwrap();
                assert_eq!(resp.id, seen as u64, "responses arrive in send order");
                assert!(resp.error.is_some());
                seen += 1;
            }
            assert_eq!(seen, FLOOD);

            // The connection still classifies.
            let levels: Vec<u16> = (0..16).map(|f| (f % 8) as u16).collect();
            writer
                .write_all(protocol::request_line(99_999, &levels, false).as_bytes())
                .unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            let resp = protocol::parse_response(&line).unwrap();
            assert_eq!(resp.class, Some(session.classify(&levels)));

            drop(reader);
            drop(writer);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
        });
    }

    /// Admission meters binary clients identically to JSON ones:
    /// budgets land as structured throttles on the binary wire.
    #[test]
    fn admission_meters_binary_clients_identically() {
        let spec = demo::DemoSpec {
            dim: 256,
            train_size: 64,
            ..Default::default()
        };
        let registry = demo::demo_locked_registry(&spec, 2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let config = RegistryServeConfig {
            batch: BatchConfig::default(),
            admission: AdmissionConfig {
                query_budget: 5,
                ..AdmissionConfig::default()
            },
        };
        let row = |i: u16| -> Vec<u16> {
            (0..spec.n_features)
                .map(|f| ((usize::from(i) + f) % spec.m_levels) as u16)
                .collect()
        };

        std::thread::scope(|s| {
            let server = s.spawn(|| serve_default_core(listener, &registry, &config, &shutdown));

            let mut bin = BinClient::connect(addr);
            // Admission is applied on the read side in request order:
            // the first 5 pipelined requests are admitted, the rest
            // are throttled — exactly the serial JSON behavior.
            let mut burst = Vec::new();
            for i in 0..8u16 {
                burst.extend(wire::classify_frame(u64::from(i), &row(i), false));
            }
            bin.send(&burst);
            let responses = bin.recv_n(8);
            let admitted = responses.values().filter(|r| r.class.is_some()).count();
            let throttles: Vec<_> = responses.values().filter(|r| r.throttled).collect();
            assert_eq!(admitted, 5);
            assert_eq!(throttles.len(), 3);
            for t in throttles {
                assert!(t.error.as_ref().unwrap().contains("budget"));
            }

            drop(bin);
            shutdown.store(true, Ordering::SeqCst);
            let stats = server.join().unwrap().unwrap();
            assert_eq!(stats.throttled, 3);
        });
    }

    /// A stream reader that records every byte it hands out — the raw
    /// wire capture the telemetry differential test compares.
    struct Recorder {
        inner: TcpStream,
        captured: Vec<u8>,
    }

    impl Read for Recorder {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.captured.extend_from_slice(&buf[..n]);
            Ok(n)
        }
    }

    /// Runs a fixed traffic script (classify with scores, search, a
    /// shape error, a malformed line, info — strictly serial so the
    /// response byte order is deterministic) against one server and
    /// returns the raw response bytes per wire.
    fn telemetry_traffic(metrics: Option<&ServeMetrics>) -> (Vec<u8>, Vec<u8>) {
        let model = demo::demo_model(&demo::DemoSpec {
            dim: 512,
            train_size: 128,
            ..Default::default()
        });
        let registry = fixed_registry(&model);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let levels =
            |i: u16| -> Vec<u16> { (0..16).map(|f| ((usize::from(i) + f) % 8) as u16).collect() };

        std::thread::scope(|s| {
            let server = s.spawn(|| {
                serve_registry_with_core_metrics(
                    CoreKind::default(),
                    listener,
                    &registry,
                    &RegistryServeConfig::default(),
                    &shutdown,
                    metrics,
                )
            });

            // JSON wire.
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(Recorder {
                inner: stream.try_clone().unwrap(),
                captured: Vec::new(),
            });
            let mut writer = stream;
            let mut script = Vec::new();
            for i in 0..4u16 {
                script.push(protocol::request_line(u64::from(i) + 1, &levels(i), true));
            }
            for i in 0..2u16 {
                script.push(protocol::search_request_line(
                    u64::from(i) + 10,
                    &levels(i),
                    3,
                ));
            }
            script.push(protocol::request_line(20, &[1, 2], false));
            script.push("{oops\n".to_string());
            script.push(protocol::info_request_line(21));
            let mut line = String::new();
            for req in &script {
                writer.write_all(req.as_bytes()).unwrap();
                line.clear();
                reader.read_line(&mut line).unwrap();
            }
            drop(writer);
            let json_bytes = reader.into_inner().captured;

            // Binary wire.
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(Recorder {
                inner: stream.try_clone().unwrap(),
                captured: Vec::new(),
            });
            let mut writer = stream;
            let mut frames = Vec::new();
            for i in 0..4u16 {
                frames.push(wire::classify_frame(u64::from(i) + 1, &levels(i), true));
            }
            for i in 0..2u16 {
                frames.push(wire::search_frame(u64::from(i) + 10, &levels(i), 3));
            }
            frames.push(wire::info_frame(21));
            for frame in &frames {
                writer.write_all(frame).unwrap();
                let _ = wire::read_frame(&mut reader).unwrap();
            }
            drop(writer);
            let bin_bytes = reader.into_inner().captured;

            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
            (json_bytes, bin_bytes)
        })
    }

    /// Telemetry is observational only: with metrics on, every response
    /// byte on both wires is identical to a metrics-off server — and the
    /// plane actually observed the run.
    #[test]
    fn telemetry_on_responses_are_byte_identical_to_off() {
        let off = telemetry_traffic(None);
        let metrics = ServeMetrics::new();
        let on = telemetry_traffic(Some(&metrics));
        assert_eq!(off.0, on.0, "JSON wire bytes differ");
        assert_eq!(off.1, on.1, "binary wire bytes differ");
        // 4 classify + 2 search + shape error + malformed + info per
        // wire; every dispatch and kernel call timed.
        assert_eq!(metrics.requests_json.get(), 9);
        assert_eq!(metrics.requests_binary.get(), 7);
        assert!(metrics.dispatch_us.snapshot().count() >= 16);
        assert!(metrics.execute_classify_us.snapshot().count() >= 1);
        assert!(metrics.execute_search_us.snapshot().count() >= 1);
        assert!(metrics.queue_wait_us.snapshot().count() >= 12);
        assert_eq!(metrics.conns_opened.get(), 2);
        assert_eq!(metrics.conns_closed.get(), 2);
        assert_eq!(metrics.active_connections.get(), 0);
    }

    /// The server exposes the metrics plane three ways: the
    /// `{"metrics":true}` admin request (one JSON line), the Prometheus
    /// scrape listener, and the extended stats report — and a
    /// metrics-off server answers the admin request with a structured
    /// error instead.
    #[test]
    fn metrics_admin_and_scrape_expose_the_catalog() {
        let spec = demo::DemoSpec {
            dim: 256,
            train_size: 64,
            ..Default::default()
        };
        let registry = demo::demo_locked_registry(&spec, 2);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let scrape_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let scrape_addr = scrape_listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let config = RegistryServeConfig::default();
        let metrics = ServeMetrics::new();
        let row = |i: u16| -> Vec<u16> {
            (0..spec.n_features)
                .map(|f| ((usize::from(i) + f) % spec.m_levels) as u16)
                .collect()
        };

        std::thread::scope(|s| {
            let server = s.spawn(|| {
                serve_registry_with_core_metrics(
                    CoreKind::default(),
                    listener,
                    &registry,
                    &config,
                    &shutdown,
                    Some(&metrics),
                )
            });
            let scraper =
                s.spawn(|| serve_scrapes(&scrape_listener, &metrics, Some(&registry), &shutdown));

            let mut client = Client::connect(addr);
            for i in 0..4u16 {
                let resp = client.roundtrip(&protocol::request_line(u64::from(i), &row(i), false));
                assert!(resp.class.is_some());
            }

            // The stats report carries the new uptime / per-wire /
            // connection fields (the stats request itself is counted
            // before it is answered).
            let resp = client.roundtrip(&protocol::stats_request_line(50));
            let stats = resp.stats.unwrap();
            assert_eq!(stats.requests_json, 5);
            assert_eq!(stats.requests_binary, 0);
            assert_eq!(stats.active_connections, 1);
            assert!(stats.uptime_secs < 3600);

            // `{"metrics":true}` answers the full JSON summary in one
            // line (not a ClassifyResponse — read it raw).
            client
                .writer
                .write_all(protocol::metrics_request_line(60).as_bytes())
                .unwrap();
            client.line.clear();
            client.reader.read_line(&mut client.line).unwrap();
            let line = client.line.clone();
            assert!(
                line.starts_with("{\"id\":60,\"metrics\":{\"uptime_secs\":"),
                "{line}"
            );
            for key in [
                "\"requests\":{\"json\":6,\"binary\":0}",
                "\"active_connections\":1",
                "\"stages_us\":{",
                "\"queue_wait\":{\"count\":",
                "\"throttled\":{\"budget\":0",
                "\"swaps\":{\"reload\":0,\"rekey\":0,\"rollback\":0}",
                "\"generation\":1",
                "\"vault\":{\"reads\":",
            ] {
                assert!(line.contains(key), "missing `{key}` in:\n{line}");
            }

            // The scrape listener answers Prometheus text format with
            // the same counters.
            let mut scrape = TcpStream::connect(scrape_addr).unwrap();
            scrape
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
                .unwrap();
            let mut payload = String::new();
            scrape.read_to_string(&mut payload).unwrap();
            assert!(payload.starts_with("HTTP/1.1 200 OK"), "{payload}");
            for series in [
                "hdc_requests_total{wire=\"json\"} 6",
                "hdc_stage_dispatch_us_count 6",
                "hdc_active_connections 1",
                "hdc_generation 1",
                "hdc_vault_reads",
                "hdc_hardened 0",
                "hdc_throttled_total{reason=\"budget\"} 0",
            ] {
                assert!(
                    payload.contains(series),
                    "missing `{series}` in:\n{payload}"
                );
            }

            drop(client);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
            scraper.join().unwrap().unwrap();
        });

        // Metrics off: the admin request degrades to a structured error.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_default_core(listener, &registry, &config, &shutdown));
            let mut client = Client::connect(addr);
            let resp = client.roundtrip(&protocol::metrics_request_line(1));
            assert!(resp.error.unwrap().contains("not enabled"));
            drop(client);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
        });
    }

    /// Serves the same locked demo model hardened and unhardened:
    /// classify response bytes are identical (constant-time encoding
    /// changes *when* work happens, never *what* comes out), and only
    /// the hardened server reports the flag through `info`, `stats` and
    /// the `hdc_hardened` gauge.
    #[test]
    fn hardened_server_answers_match_unhardened_and_report_the_flag() {
        let spec = demo::DemoSpec {
            dim: 256,
            train_size: 64,
            ..Default::default()
        };
        let config = RegistryServeConfig::default();
        let row = |i: u16| -> Vec<u16> {
            (0..spec.n_features)
                .map(|f| ((usize::from(i) + f) % spec.m_levels) as u16)
                .collect()
        };

        let mut transcripts: Vec<Vec<String>> = Vec::new();
        for hardened in [false, true] {
            let registry = if hardened {
                demo::demo_hardened_registry(&spec, 2)
            } else {
                demo::demo_locked_registry(&spec, 2)
            };
            let metrics = ServeMetrics::new();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let shutdown = AtomicBool::new(false);
            std::thread::scope(|s| {
                let server = s.spawn(|| {
                    serve_registry_with_core_metrics(
                        CoreKind::default(),
                        listener,
                        &registry,
                        &config,
                        &shutdown,
                        Some(&metrics),
                    )
                });
                let mut client = Client::connect(addr);

                // Same traffic against both servers; keep the raw lines.
                let mut lines = Vec::new();
                for i in 0..6u16 {
                    let request = protocol::request_line(u64::from(i), &row(i), i % 2 == 0);
                    client.writer.write_all(request.as_bytes()).unwrap();
                    client.line.clear();
                    client.reader.read_line(&mut client.line).unwrap();
                    lines.push(client.line.clone());
                }
                transcripts.push(lines);

                // The flag is visible on every admin surface.
                let info = client
                    .roundtrip(&protocol::info_request_line(90))
                    .info
                    .unwrap();
                assert_eq!(info.hardened, hardened, "info.hardened");
                let stats = client
                    .roundtrip(&protocol::stats_request_line(91))
                    .stats
                    .unwrap();
                assert_eq!(stats.hardened, hardened, "stats.hardened");
                assert!(stats.locked);
                let scrape = metrics.render_prometheus(Some(&registry));
                let want = format!("hdc_hardened {}", i32::from(hardened));
                assert!(scrape.contains(&want), "missing `{want}` in:\n{scrape}");

                drop(client);
                shutdown.store(true, Ordering::SeqCst);
                server.join().unwrap().unwrap();
            });
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "hardened classify responses must be byte-identical to unhardened"
        );
    }
}
