//! The traced replay: the benchmark calls each layer's public functions
//! in-process, at the workload's exact shapes, and records a span
//! around each call. Each replayed request is a `request` span with
//! children decode → encode → search → render on the workload's wire;
//! the other wire's decode and render are replayed beside it as root
//! spans of the same request. Batched and lifecycle calls are timed
//! directly.

use std::time::Instant;

use hdc_datasets::Dataset;
use hdc_model::{ClassifySession, Encoder, HdcConfig, HdcModel, OwnedSession};
use hdc_serve::{protocol, wire, SearchMatch};
use hdc_store::{AnyEncoder, KeySegment, ModelSnapshot, ServingSession};
use hdlock::{DeriveMode, EncodingKey, LockedEncoder};
use hypervec::{BinaryHv, HvRng, ShardedClassMemory};

use crate::client::request_bytes;
use crate::trace::Trace;
use crate::workload::{self, Spec, INGEST_CHUNK};

/// Replayed requests per traced run.
const REPLAY_REQUESTS: usize = 200;

/// Median per-call microseconds of `f`, over at least `min_calls` calls
/// and at least `min_secs` seconds.
fn per_call_us(min_calls: usize, min_secs: f64, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min_calls || start.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::stats::median(&times).unwrap_or(0.0)
}

/// What the replay needs from the prepared workload.
pub struct Inputs<'a> {
    pub spec: &'a Spec,
    pub session: &'a ServingSession,
    pub rows: &'a [Vec<u16>],
    /// Rows for the ingest replay (the corpus, for search-topk).
    pub ingest_rows: &'a [Vec<u16>],
    pub snapshot_bytes: &'a [u8],
    pub key_bytes: &'a [u8],
    pub config: HdcConfig,
    pub train: &'a Dataset,
}

/// Replays the workload's requests under spans and times the batched
/// and lifecycle calls; returns `(metric, value, unit)` triples.
pub fn replay(inp: &Inputs<'_>, trace: &mut Trace) -> Vec<(String, f64, &'static str)> {
    let spec = inp.spec;
    let encoder: &AnyEncoder = inp.session.encoder();
    let memory: &ShardedClassMemory = inp.session.memory();
    let probe = spec.probe().unwrap_or_default();
    let k = spec.search_k.unwrap_or(workload::SEARCH_K);
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();

    for (q, row) in inp.rows.iter().cycle().take(REPLAY_REQUESTS).enumerate() {
        let id = q as u64;
        let json = request_bytes(true, id, row, spec.search_k);
        let bin = request_bytes(false, id, row, spec.search_k);
        let req = trace.open("request", id);
        let decode_json = |t: &mut Trace, parent| {
            let line = std::str::from_utf8(&json).expect("request lines are UTF-8");
            t.span("protocol.parse", id, parent, || {
                protocol::parse_request(line)
            })
            .0
            .map(|r| r.levels)
            .expect("replayed request parses")
        };
        let decode_bin = |t: &mut Trace, parent| {
            t.span("wire.decode", id, parent, || {
                let mut frames = wire::FrameBuffer::new();
                frames.extend(&bin);
                let (header, payload) = frames
                    .next_frame()
                    .expect("well-formed frame")
                    .expect("complete frame");
                wire::decode_request(&header, &payload)
            })
            .0
            .expect("replayed frame decodes");
        };
        let levels = if spec.json {
            decode_json(trace, Some(req))
        } else {
            decode_bin(trace, Some(req));
            row.clone()
        };
        let (hvs, _) = trace.span("core.encode", id, Some(req), || {
            encoder.encode_batch_binary(&[levels.as_slice()])
        });
        let query: Vec<&BinaryHv> = hvs.iter().collect();
        let (class, matches) = if spec.search_k.is_some() {
            let (hits, _) = trace.span("hv.topk", id, Some(req), || {
                memory
                    .search_topk_binary_pruned(&query, k, &probe)
                    .expect("query matches memory")
            });
            let matches: Vec<SearchMatch> = hits
                .matches(0)
                .iter()
                .map(|m| SearchMatch {
                    row: m.row as u32,
                    score: m.score,
                })
                .collect();
            (0, Some(matches))
        } else {
            let (best, _) = trace.span("hv.search", id, Some(req), || {
                memory
                    .search_batch_binary(&query)
                    .expect("query matches memory")
            });
            (best.best(0), None)
        };
        let render_json = |t: &mut Trace, parent| {
            t.span("protocol.render", id, parent, || match &matches {
                Some(m) => protocol::matches_response(id, m),
                None => protocol::ok_response(id, class, None),
            });
        };
        let render_bin = |t: &mut Trace, parent| {
            t.span("wire.encode", id, parent, || match &matches {
                Some(m) => wire::matches_frame(id, m),
                None => wire::class_frame(id, class),
            });
        };
        if spec.json {
            render_json(trace, Some(req));
            trace.close(req);
            decode_bin(trace, None);
            render_bin(trace, None);
        } else {
            render_bin(trace, Some(req));
            trace.close(req);
            decode_json(trace, None);
            render_json(trace, None);
        }
    }
    let selfs = trace.self_times_us();
    let span_median = |name: &str| selfs.get(name).and_then(|v| crate::stats::median(v));
    for (name, metric) in [
        ("protocol.parse", "protocol.parse_us"),
        ("protocol.render", "protocol.render_us"),
        ("wire.decode", "wire.decode_us"),
        ("wire.encode", "wire.encode_us"),
        ("core.encode", "core.encode_us_per_row.b1"),
        ("request", "replay.request_self_us"),
    ] {
        out.push((metric.into(), span_median(name).unwrap_or(0.0), "us"));
    }

    // Search layer: the chained span where the workload uses it, a
    // direct timing where it does not.
    let q1: Vec<BinaryHv> = encoder.encode_batch_binary(&[inp.rows[0].as_slice()]);
    let q1: Vec<&BinaryHv> = q1.iter().collect();
    let search_row = span_median("hv.search").unwrap_or_else(|| {
        per_call_us(5, 0.1, || {
            std::hint::black_box(memory.search_batch_binary(&q1).expect("query fits"));
        })
    });
    out.push(("hv.search_us_per_row".into(), search_row, "us"));
    let pruned_b1 = span_median("hv.topk").unwrap_or_else(|| {
        per_call_us(5, 0.1, || {
            std::hint::black_box(
                memory
                    .search_topk_binary_pruned(&q1, k, &probe)
                    .expect("fits"),
            );
        })
    });
    out.push(("hv.topk_us_per_query.pruned.b1".into(), pruned_b1, "us"));
    let rows16: Vec<&[u16]> = inp
        .rows
        .iter()
        .cycle()
        .take(16)
        .map(Vec::as_slice)
        .collect();
    let q16 = encoder.encode_batch_binary(&rows16);
    let q16: Vec<&BinaryHv> = q16.iter().collect();
    let pruned_b16 = per_call_us(3, 0.2, || {
        std::hint::black_box(
            memory
                .search_topk_binary_pruned(&q16, k, &probe)
                .expect("fits"),
        );
    }) / 16.0;
    out.push(("hv.topk_us_per_query.pruned.b16".into(), pruned_b16, "us"));
    let exact = per_call_us(3, 0.2, || {
        std::hint::black_box(memory.search_topk_binary(&q1, k).expect("fits"));
    });
    out.push(("hv.topk_us_per_query.exact".into(), exact, "us"));
    // Rows the kernels' Hamming counter sees for one query on the
    // workload's own path (the top-k scans do not tick it).
    let before = hypervec::stats::hamming_rows();
    if spec.search_k.is_some() {
        std::hint::black_box(
            memory
                .search_topk_binary_pruned(&q1, k, &probe)
                .expect("fits"),
        );
    } else {
        std::hint::black_box(memory.search_batch_binary(&q1).expect("fits"));
    }
    out.push((
        "hv.hamming_rows_per_query".into(),
        (hypervec::stats::hamming_rows() - before) as f64,
        "count",
    ));

    // Encode at the capacity batch size.
    let rows64: Vec<&[u16]> = inp
        .rows
        .iter()
        .cycle()
        .take(64)
        .map(Vec::as_slice)
        .collect();
    let b64 = per_call_us(3, 0.2, || {
        std::hint::black_box(encoder.encode_batch_binary(&rows64));
    }) / 64.0;
    out.push(("core.encode_us_per_row.b64".into(), b64, "us"));

    out.extend(key_ladder(inp));
    out.extend(store_and_ingest(inp, encoder));
    out.extend(rekey_layer(inp));
    out
}

/// Paper Fig. 9 in software: per-row encode time of the workload's
/// encoder shape with cached, on-the-fly (L = 1, 2, 3) and hardened
/// derivation, printed beside the FPGA cycle model's relative times.
fn key_ladder(inp: &Inputs<'_>) -> Vec<(String, f64, &'static str)> {
    let locked = inp
        .session
        .encoder()
        .as_locked()
        .expect("workloads serve locked models");
    let rows: Vec<&[u16]> = inp
        .rows
        .iter()
        .cycle()
        .take(16)
        .map(Vec::as_slice)
        .collect();
    let mut rng = HvRng::from_seed(0x1AD_DE4);
    let with = |layers: usize, mode: DeriveMode, rng: &mut HvRng| -> f64 {
        let key = EncodingKey::random(
            rng,
            locked.n_features(),
            layers,
            locked.pool().len(),
            locked.dim(),
        )
        .expect("valid key shape");
        let mut enc =
            LockedEncoder::from_parts(locked.pool().clone(), locked.values().clone(), key)
                .expect("key fits pool");
        enc.set_mode(mode);
        // One untimed call fills lazy state (the bound-pair cache).
        std::hint::black_box(enc.encode_batch_binary(&rows));
        per_call_us(3, 0.2, || {
            std::hint::black_box(enc.encode_batch_binary(&rows));
        }) / rows.len() as f64
    };
    let mut out = vec![(
        "core.encode_us.cached".to_owned(),
        with(2, DeriveMode::Cached, &mut rng),
        "us",
    )];
    let mut fly = Vec::new();
    for layers in 1..=3 {
        let t = with(layers, DeriveMode::OnTheFly, &mut rng);
        fly.push(t);
        out.push((format!("core.encode_us.onthefly.L{layers}"), t, "us"));
    }
    out.push((
        "core.encode_us.hardened".to_owned(),
        with(2, DeriveMode::Hardened, &mut rng),
        "us",
    ));
    let fpga = hdc_hwsim::relative_encoding_times(
        &hdc_hwsim::HwConfig::default(),
        inp.spec.name,
        locked.n_features(),
        &[1, 2, 3],
    );
    for ((layers, rel), sw) in fpga.points.iter().zip(&fly) {
        println!(
            "ladder N={} L={layers}: software on-the-fly {:.1} us/row ({:.2}x L1), FPGA model {rel:.2}x L1",
            locked.n_features(),
            sw,
            sw / fly[0]
        );
    }
    out
}

/// Set-up layers: snapshot and key decode, session build, and ingest
/// (encode at the ingest chunk size, then push).
fn store_and_ingest(inp: &Inputs<'_>, encoder: &AnyEncoder) -> Vec<(String, f64, &'static str)> {
    let decode = per_call_us(3, 0.2, || {
        let snap = ModelSnapshot::from_bytes(inp.snapshot_bytes).expect("snapshot decodes");
        let key = KeySegment::from_bytes(inp.key_bytes).expect("key decodes");
        std::hint::black_box((snap, key));
    }) / 1e6;
    let (snapshot, _) = ModelSnapshot::from_bytes(inp.snapshot_bytes).expect("snapshot decodes");
    let key = KeySegment::from_bytes(inp.key_bytes).expect("key decodes");
    let mut times = Vec::new();
    for _ in 0..5 {
        let copy = snapshot.clone();
        let t = Instant::now();
        std::hint::black_box(copy.into_session(Some(&key)).expect("session builds"));
        times.push(t.elapsed().as_secs_f64());
    }
    let into_session = crate::stats::median(&times).unwrap_or(0.0);

    let chunk: Vec<&[u16]> = inp
        .ingest_rows
        .iter()
        .cycle()
        .take(INGEST_CHUNK)
        .map(Vec::as_slice)
        .collect();
    let hvs = encoder.encode_batch_binary(&chunk);
    let encode = per_call_us(3, 0.2, || {
        std::hint::black_box(encoder.encode_batch_binary(&chunk));
    }) / INGEST_CHUNK as f64;
    let push = per_call_us(3, 0.1, || {
        let mut memory = ShardedClassMemory::new(encoder.dim());
        memory.reserve(hvs.len());
        for hv in &hvs {
            memory.push(hv).expect("same D");
        }
        std::hint::black_box(memory);
    }) / INGEST_CHUNK as f64;
    vec![
        ("store.decode_s".into(), decode, "s"),
        ("store.into_session_s".into(), into_session, "s"),
        ("ingest.encode_us_per_row".into(), encode, "us"),
        ("ingest.push_us_per_row".into(), push, "us"),
    ]
}

/// The rekey write path on the workload's snapshot model: fresh key,
/// retrain, repack.
fn rekey_layer(inp: &Inputs<'_>) -> Vec<(String, f64, &'static str)> {
    let locked = inp
        .session
        .encoder()
        .as_locked()
        .expect("workloads serve locked models");
    let mut rng = HvRng::from_seed(0x2E_4E7);
    let t = Instant::now();
    let fresh = locked.rekeyed(&mut rng).expect("rekey keeps the shape");
    let rekeyed = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = HdcModel::fit_with_encoder(&inp.config, fresh, inp.train).expect("retrains");
    let train = t.elapsed().as_secs_f64();
    let (_, encoder, _, memory) = model.into_parts();
    let t = Instant::now();
    std::hint::black_box(OwnedSession::new(AnyEncoder::Locked(encoder), &memory));
    let pack = t.elapsed().as_secs_f64();
    vec![
        ("core.rekeyed_s".into(), rekeyed, "s"),
        ("model.train_s".into(), train, "s"),
        ("store.pack_s".into(), pack, "s"),
    ]
}
