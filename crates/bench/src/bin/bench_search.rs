//! Associative-search and serving throughput benchmark with
//! machine-readable output.
//!
//! Measures queries/second of class-memory search at three rungs —
//! the naive per-dimension *scalar* scan (the baseline, defined exactly
//! like `BENCH_encoding.json`'s `record_scalar_per_sample`: one scalar
//! comparison per dimension), the word-parallel one-row-at-a-time
//! popcount scan (`classify_binary_hv`, the pre-refactor inference
//! path), and the sharded batch kernels (single- and multi-threaded,
//! both metrics) — then boots the batching TCP server on a loopback
//! port and drives it with the load generator across the wire-format ×
//! pipelining grid (JSON/binary, serial/pipelined), asserting the
//! answers bit-identical across wire formats. Writes
//! `BENCH_search.json` so the perf trajectory is tracked across PRs
//! next to `BENCH_encoding.json`; `bench_gate` enforces the recorded
//! speedups against `ci/bench_gates.json`.
//!
//! A second, million-row section measures *top-k* similarity search —
//! the exact heap scan
//! ([`hypervec::ShardedClassMemory::search_topk_binary`]) against the
//! coarse-probe pruned scan — over a corpus with planted near-duplicate
//! families, recording q/s, the pruned-vs-exact speedup, and recall@k,
//! and asserting in-bench that the pruned scan at full probe width is
//! bit-identical to the exact one. The same corpus shape is then
//! rebuilt at `--int-dim` with `to_int` bipolar rows and run through
//! the *int* (cosine) twins `search_topk_int` /
//! `search_topk_int_pruned`, so the quantized-coarse-pass recall
//! contract is measured on both metrics; the `int` JSON section also
//! rolls up the blocked int batch kernel against the per-row cosine
//! scan and against the PR 7 recorded baseline.
//!
//! A third section measures *connection-count scalability*: the epoll
//! event loop under a fan-in of thousands of concurrent pipelined
//! sockets (the same [`loadgen::run`] at 10k connections), recording
//! sustained connections, requests/s and tail latency; the connection
//! count and error-freedom are gated in `ci/bench_gates.json`.
//!
//! Usage: `bench_search [--dim D] [--classes C] [--queries Q]
//! [--connections K] [--requests R] [--topk-rows N] [--topk-k K]
//! [--topk-queries Q] [--int-dim D] [--fan-connections F]
//! [--fan-requests R] [--out PATH]` — defaults reproduce the
//! acceptance configuration `D = 10 000, C ≥ 8, N = 1 000 000,
//! F = 10 000`.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use hdc_model::{infer, ClassMemory, ClassifySession as _, Encoder as _, ModelKind};
use hdc_serve::demo::{demo_model, DemoSpec};
use hdc_serve::{
    loadgen, protocol, server, wire, BatchConfig, CoreKind, LoadgenConfig, RegistryServeConfig,
    WireMode,
};
use hdc_store::{ModelRegistry, ModelSnapshot};
use hypervec::{kernel, BinaryHv, HvRng, IntHv, ProbeConfig, ShardedClassMemory};

struct Options {
    dim: usize,
    n_classes: usize,
    n_queries: usize,
    connections: usize,
    requests: usize,
    topk_rows: usize,
    topk_k: usize,
    topk_queries: usize,
    int_dim: usize,
    fan_connections: usize,
    fan_requests: usize,
    out: String,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            dim: 10_000,
            n_classes: 16,
            n_queries: 256,
            connections: 32,
            requests: 1500,
            topk_rows: 1_000_000,
            topk_k: 10,
            topk_queries: 8,
            int_dim: 2048,
            fan_connections: 10_000,
            fan_requests: 100,
            out: "BENCH_search.json".to_owned(),
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
            "--classes" => opts.n_classes = value(i).parse().expect("--classes needs an integer"),
            "--queries" => opts.n_queries = value(i).parse().expect("--queries needs an integer"),
            "--connections" => {
                opts.connections = value(i).parse().expect("--connections needs an integer")
            }
            "--requests" => opts.requests = value(i).parse().expect("--requests needs an integer"),
            "--topk-rows" => {
                opts.topk_rows = value(i).parse().expect("--topk-rows needs an integer")
            }
            "--topk-k" => opts.topk_k = value(i).parse().expect("--topk-k needs an integer"),
            "--topk-queries" => {
                opts.topk_queries = value(i).parse().expect("--topk-queries needs an integer")
            }
            "--int-dim" => opts.int_dim = value(i).parse().expect("--int-dim needs an integer"),
            "--fan-connections" => {
                opts.fan_connections = value(i)
                    .parse()
                    .expect("--fan-connections needs an integer")
            }
            "--fan-requests" => {
                opts.fan_requests = value(i).parse().expect("--fan-requests needs an integer")
            }
            "--out" => opts.out = value(i),
            other => panic!(
                "unknown argument '{other}'; supported: --dim --classes --queries \
                 --connections --requests --topk-rows --topk-k --topk-queries \
                 --int-dim --fan-connections --fan-requests --out"
            ),
        }
        i += 2;
    }
    opts
}

/// One measured configuration.
struct Measurement {
    name: String,
    queries_per_sec: f64,
}

impl Measurement {
    fn new(name: impl Into<String>, queries_per_sec: f64) -> Self {
        Measurement {
            name: name.into(),
            queries_per_sec,
        }
    }
}

/// Naive scalar reference: nearest class row by Hamming distance
/// computed one *dimension* at a time (the pre-engine way to compare
/// hypervectors) — bit-exact with the popcount paths.
fn scalar_per_dim_nearest(rows: &[BinaryHv], query: &BinaryHv) -> usize {
    let mut best = (0usize, usize::MAX);
    for (j, row) in rows.iter().enumerate() {
        let mut d = 0usize;
        for i in 0..row.dim() {
            d += usize::from(row.polarity(i) != query.polarity(i));
        }
        if d < best.1 {
            best = (j, d);
        }
    }
    best.0
}

/// Runs `search_all` repeatedly until ≥ `min_secs` of wall clock is
/// spent, returning queries/second.
fn throughput(queries_per_call: usize, min_secs: f64, mut search_all: impl FnMut()) -> f64 {
    search_all(); // warm-up
    let mut calls = 0usize;
    let start = Instant::now();
    loop {
        search_all();
        calls += 1;
        if start.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    (calls * queries_per_call) as f64 / start.elapsed().as_secs_f64()
}

/// Near-duplicate family size planted around each top-k query's
/// prototype. Kept below `probe_factor · k` (320 by default) so the
/// coarse pass's candidate set can hold a query's whole true
/// neighborhood — the regime the pruned scan is designed for.
const TOPK_FAMILY: usize = 32;

/// Bit-flip rate separating family members (and the query) from their
/// shared prototype: ~10 % noise keeps intra-family Hamming distance
/// ≈ 0.18·D against ≈ 0.5·D for the random background.
const TOPK_NOISE: f64 = 0.10;

/// Copy of `base` with roughly `rate · D` random bit flips.
fn noisy(base: &BinaryHv, rng: &mut HvRng, rate: f64) -> BinaryHv {
    let mut v = base.clone();
    let flips = (base.dim() as f64 * rate) as usize;
    for _ in 0..flips {
        v.flip(rng.index(base.dim()));
    }
    v
}

/// Results of the million-row top-k section.
struct TopKSection {
    exact_qps: f64,
    pruned_qps: f64,
    recall_at_k: f64,
    full_width_bit_identical: bool,
    probe: ProbeConfig,
}

/// Builds the planted-family corpus and measures exact vs pruned top-k
/// throughput and recall@k. The corpus is `topk_rows` random
/// hypervectors except for one [`TOPK_FAMILY`]-sized near-duplicate
/// family per query, scattered through the row range — each query then
/// has a true neighborhood larger than `k`, so recall@k measures
/// something (an all-random corpus has no neighbors to miss).
///
/// Also re-asserts, on the real corpus, the property test's claim that
/// the pruned scan at full probe width is bit-identical to the exact
/// scan — rows *and* score bits.
fn run_topk_section(opts: &Options, rng: &mut HvRng, min_secs: f64) -> TopKSection {
    assert!(
        opts.topk_rows >= opts.topk_queries * TOPK_FAMILY,
        "--topk-rows must fit {} planted families of {TOPK_FAMILY}",
        opts.topk_queries
    );
    let probe = ProbeConfig::default();

    // Plant the families at a fixed stride so positions never collide
    // and every shard of the row range carries some of them.
    let stride = (opts.topk_rows / (opts.topk_queries * TOPK_FAMILY)).max(1);
    let mut planted: HashMap<usize, BinaryHv> = HashMap::new();
    let mut queries: Vec<BinaryHv> = Vec::with_capacity(opts.topk_queries);
    for qi in 0..opts.topk_queries {
        let proto = rng.binary_hv(opts.dim);
        for f in 0..TOPK_FAMILY {
            planted.insert(
                (qi * TOPK_FAMILY + f) * stride,
                noisy(&proto, rng, TOPK_NOISE),
            );
        }
        queries.push(noisy(&proto, rng, TOPK_NOISE));
    }
    let mut corpus = ShardedClassMemory::new(opts.dim);
    corpus.reserve(opts.topk_rows);
    for r in 0..opts.topk_rows {
        let row = planted
            .remove(&r)
            .unwrap_or_else(|| rng.binary_hv(opts.dim));
        corpus.push(&row).expect("corpus rows share the dimension");
    }
    let query_refs: Vec<&BinaryHv> = queries.iter().collect();

    // Ground truth once, then the two correctness checks.
    let exact = corpus
        .search_topk_binary(&query_refs, opts.topk_k)
        .expect("exact top-k over the corpus");
    let full_width = ProbeConfig {
        probe_words: usize::MAX, // clamped to ⌈D/64⌉: coarse pass = exact scan
        exact_threshold: 0,      // force the pruned code path
        ..probe
    };
    let full = corpus
        .search_topk_binary_pruned(&query_refs, opts.topk_k, &full_width)
        .expect("full-width pruned top-k over the corpus");
    let full_width_bit_identical = (0..query_refs.len()).all(|q| {
        let (e, f) = (exact.matches(q), full.matches(q));
        e.len() == f.len()
            && e.iter()
                .zip(f)
                .all(|(a, b)| a.row == b.row && a.score.to_bits() == b.score.to_bits())
    });
    assert!(
        full_width_bit_identical,
        "pruned top-k at full probe width diverged from the exact scan"
    );
    let pruned = corpus
        .search_topk_binary_pruned(&query_refs, opts.topk_k, &probe)
        .expect("pruned top-k over the corpus");
    let recall_at_k = (0..query_refs.len())
        .map(|q| {
            let truth: HashSet<usize> = exact.matches(q).iter().map(|m| m.row).collect();
            let hit = pruned
                .matches(q)
                .iter()
                .filter(|m| truth.contains(&m.row))
                .count();
            hit as f64 / truth.len() as f64
        })
        .sum::<f64>()
        / query_refs.len() as f64;

    let exact_qps = throughput(query_refs.len(), min_secs, || {
        std::hint::black_box(corpus.search_topk_binary(&query_refs, opts.topk_k).unwrap());
    });
    let pruned_qps = throughput(query_refs.len(), min_secs, || {
        std::hint::black_box(
            corpus
                .search_topk_binary_pruned(&query_refs, opts.topk_k, &probe)
                .unwrap(),
        );
    });

    TopKSection {
        exact_qps,
        pruned_qps,
        recall_at_k,
        full_width_bit_identical,
        probe,
    }
}

/// Coarse probe width of the pruned *int* top-k rung: 4 × 64 = 256
/// leading dimensions of the first 1024-dim int plane block — an 8×
/// reduction at the default `--int-dim 2048`, sharing `probe_words`
/// semantics with the binary probe. (`ProbeConfig::default()`'s 16
/// words would cover half of a 2048-dim row: real work, no pruning.)
const INT_TOPK_PROBE_WORDS: usize = 4;

/// `int_batch_backend_avx2` as recorded by PR 7's `BENCH_search.json` —
/// the per-row `dot_i32` int batch path that the blocked planes +
/// strided kernels replace. Kept as a constant so the recorded speedup
/// is against the figure the optimization targeted, not a moving
/// re-measurement of code that no longer exists.
const INT_PR7_BASELINE_QPS: f64 = 41_835.6;

/// Int (cosine) twin of [`run_topk_section`]: the same planted-family
/// corpus shape at `--int-dim`, searched through `search_topk_int` /
/// `search_topk_int_pruned`. Rows are `to_int` bipolar images of the
/// binary corpus rows — the i16 sidecar planes engage (values ±1) and
/// cosine similarity orders families the way Hamming distance does, so
/// recall@k measures the same planted neighborhoods.
fn run_int_topk_section(opts: &Options, rng: &mut HvRng, min_secs: f64) -> TopKSection {
    assert!(
        opts.topk_rows >= opts.topk_queries * TOPK_FAMILY,
        "--topk-rows must fit {} planted families of {TOPK_FAMILY}",
        opts.topk_queries
    );
    let probe = ProbeConfig {
        probe_words: INT_TOPK_PROBE_WORDS,
        ..ProbeConfig::default()
    };

    let stride = (opts.topk_rows / (opts.topk_queries * TOPK_FAMILY)).max(1);
    let mut planted: HashMap<usize, BinaryHv> = HashMap::new();
    let mut queries: Vec<IntHv> = Vec::with_capacity(opts.topk_queries);
    for qi in 0..opts.topk_queries {
        let proto = rng.binary_hv(opts.int_dim);
        for f in 0..TOPK_FAMILY {
            planted.insert(
                (qi * TOPK_FAMILY + f) * stride,
                noisy(&proto, rng, TOPK_NOISE),
            );
        }
        queries.push(noisy(&proto, rng, TOPK_NOISE).to_int());
    }
    let mut corpus = ShardedClassMemory::new(opts.int_dim);
    corpus.reserve(opts.topk_rows);
    let mut int_rows: Vec<IntHv> = Vec::with_capacity(opts.topk_rows);
    for r in 0..opts.topk_rows {
        let row = planted
            .remove(&r)
            .unwrap_or_else(|| rng.binary_hv(opts.int_dim));
        corpus.push(&row).expect("corpus rows share the dimension");
        int_rows.push(row.to_int());
    }
    corpus
        .set_int_rows(&int_rows)
        .expect("int rows mirror the binary corpus");
    drop(int_rows);
    let query_refs: Vec<&IntHv> = queries.iter().collect();

    // Ground truth once, then the two correctness checks.
    let exact = corpus
        .search_topk_int(&query_refs, opts.topk_k)
        .expect("exact int top-k over the corpus");
    let full_width = ProbeConfig {
        probe_words: usize::MAX, // clamped to ⌈D/64⌉: coarse pass = exact scan
        exact_threshold: 0,      // force the pruned code path
        ..probe
    };
    let full = corpus
        .search_topk_int_pruned(&query_refs, opts.topk_k, &full_width)
        .expect("full-width pruned int top-k over the corpus");
    let full_width_bit_identical = (0..query_refs.len()).all(|q| {
        let (e, f) = (exact.matches(q), full.matches(q));
        e.len() == f.len()
            && e.iter()
                .zip(f)
                .all(|(a, b)| a.row == b.row && a.score.to_bits() == b.score.to_bits())
    });
    assert!(
        full_width_bit_identical,
        "pruned int top-k at full probe width diverged from the exact scan"
    );
    let pruned = corpus
        .search_topk_int_pruned(&query_refs, opts.topk_k, &probe)
        .expect("pruned int top-k over the corpus");
    let recall_at_k = (0..query_refs.len())
        .map(|q| {
            let truth: HashSet<usize> = exact.matches(q).iter().map(|m| m.row).collect();
            let hit = pruned
                .matches(q)
                .iter()
                .filter(|m| truth.contains(&m.row))
                .count();
            hit as f64 / truth.len() as f64
        })
        .sum::<f64>()
        / query_refs.len() as f64;

    let exact_qps = throughput(query_refs.len(), min_secs, || {
        std::hint::black_box(corpus.search_topk_int(&query_refs, opts.topk_k).unwrap());
    });
    let pruned_qps = throughput(query_refs.len(), min_secs, || {
        std::hint::black_box(
            corpus
                .search_topk_int_pruned(&query_refs, opts.topk_k, &probe)
                .unwrap(),
        );
    });

    TopKSection {
        exact_qps,
        pruned_qps,
        recall_at_k,
        full_width_bit_identical,
        probe,
    }
}

/// Sends the same deterministic rows (scores requested) through a JSON
/// and a binary connection of the same server and verifies the answers
/// — class indices *and* score bits — are identical across wire
/// formats.
fn wire_results_bit_identical<S: hdc_model::ClassifySession>(
    addr: std::net::SocketAddr,
    session: &S,
) -> bool {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let rows: Vec<Vec<u16>> = (0..64usize)
        .map(|i| {
            (0..session.n_features())
                .map(|f| ((i * 7 + f * 3) % session.m_levels()) as u16)
                .collect()
        })
        .collect();

    let json_stream = TcpStream::connect(addr).expect("connect json");
    let mut json_reader = BufReader::new(json_stream.try_clone().expect("clone"));
    let mut json_writer = json_stream;
    let bin_stream = TcpStream::connect(addr).expect("connect binary");
    let mut bin_reader = BufReader::new(bin_stream.try_clone().expect("clone"));
    let mut bin_writer = bin_stream;

    for (i, row) in rows.iter().enumerate() {
        let id = 1 + i as u64;
        json_writer
            .write_all(protocol::request_line(id, row, true).as_bytes())
            .expect("json send");
        let mut line = String::new();
        json_reader.read_line(&mut line).expect("json recv");
        let jr = protocol::parse_response(&line).expect("json response");

        bin_writer
            .write_all(&wire::classify_frame(id, row, true))
            .expect("binary send");
        let (header, payload) = wire::read_frame(&mut bin_reader).expect("binary recv");
        let br = wire::decode_response(&header, &payload).expect("binary response");

        if jr.id != id || br.id != id || jr.class != br.class || jr.class.is_none() {
            return false;
        }
        let (Some(js), Some(bs)) = (jr.scores, br.scores) else {
            return false;
        };
        if js.len() != bs.len() || js.iter().zip(&bs).any(|(a, b)| a.to_bits() != b.to_bits()) {
            return false;
        }
    }
    true
}

fn main() {
    let opts = parse_options();
    let mut rng = HvRng::from_seed(2022);

    // Class memory with C random prototypes. A non-binary memory packs
    // both planes, so the popcount and cosine kernels run off the same
    // rows; the scalar rungs scan the sign rows built here, once, and the
    // accumulators.
    let mut memory = ClassMemory::new(ModelKind::NonBinary, opts.n_classes, opts.dim);
    for j in 0..opts.n_classes {
        let proto = rng.binary_hv(opts.dim);
        memory.acc_mut(j).add(&proto);
        memory.acc_mut(j).add(&rng.binary_hv(opts.dim));
        memory.acc_mut(j).add(&rng.binary_hv(opts.dim));
    }
    memory.rebinarize();
    let sharded = memory.packed();
    let class_rows = memory.binary_rows();

    let bin_queries: Vec<BinaryHv> = (0..opts.n_queries)
        .map(|_| rng.binary_hv(opts.dim))
        .collect();
    let bin_refs: Vec<&BinaryHv> = bin_queries.iter().collect();
    let int_queries: Vec<IntHv> = bin_queries.iter().map(BinaryHv::to_int).collect();
    let int_refs: Vec<&IntHv> = int_queries.iter().collect();
    let min_secs = 0.5;

    let mut results: Vec<Measurement> = Vec::new();

    // Naive per-dimension scalar scan — the baseline, same "scalar"
    // definition as BENCH_encoding.json (bit-exact with every other
    // rung; verified below).
    results.push(Measurement {
        name: "binary_scalar_per_dim_per_query".to_owned(),
        queries_per_sec: throughput(opts.n_queries, min_secs, || {
            for q in &bin_queries {
                std::hint::black_box(scalar_per_dim_nearest(&class_rows, q));
            }
        }),
    });

    // Word-parallel one-row-at-a-time popcount scan — the pre-refactor
    // inference path (`classify_binary_hv`).
    results.push(Measurement {
        name: "binary_wordparallel_per_query".to_owned(),
        queries_per_sec: throughput(opts.n_queries, min_secs, || {
            for q in &bin_queries {
                std::hint::black_box(infer::classify_binary_hv(&class_rows, q));
            }
        }),
    });

    // Batch kernel pinned to one worker, then with all workers.
    std::env::set_var("HYPERVEC_THREADS", "1");
    results.push(Measurement {
        name: "binary_batch_1_thread".to_owned(),
        queries_per_sec: throughput(opts.n_queries, min_secs, || {
            std::hint::black_box(sharded.search_batch_binary(&bin_refs).unwrap());
        }),
    });
    std::env::remove_var("HYPERVEC_THREADS");
    results.push(Measurement {
        name: "binary_batch_all_threads".to_owned(),
        queries_per_sec: throughput(opts.n_queries, min_secs, || {
            std::hint::black_box(sharded.search_batch_binary(&bin_refs).unwrap());
        }),
    });

    // Integer (cosine) metric: per-row scan vs batch kernel (the
    // kernel hoists the query norm and precomputes row norms).
    results.push(Measurement {
        name: "int_per_row_per_query".to_owned(),
        queries_per_sec: throughput(opts.n_queries, min_secs, || {
            for q in &int_queries {
                std::hint::black_box(infer::classify_int_hv(&memory, q));
            }
        }),
    });
    results.push(Measurement {
        name: "int_batch_all_threads".to_owned(),
        queries_per_sec: throughput(opts.n_queries, min_secs, || {
            std::hint::black_box(sharded.search_batch_int(&int_refs).unwrap());
        }),
    });

    // Per-kernel-backend timings of the popcount-dominated batch-search
    // kernel, one worker so the backend (not thread count) is what is
    // measured. The dispatch layer picks the best of these at startup;
    // recording each one tracks the SIMD speedup across PRs.
    let backends = kernel::available();
    std::env::set_var("HYPERVEC_THREADS", "1");
    for k in &backends {
        results.push(Measurement::new(
            format!("binary_batch_backend_{}", k.name),
            throughput(opts.n_queries, min_secs, || {
                std::hint::black_box(sharded.search_batch_binary_with(k, &bin_refs).unwrap());
            }),
        ));
        results.push(Measurement::new(
            format!("int_batch_backend_{}", k.name),
            throughput(opts.n_queries, min_secs, || {
                std::hint::black_box(sharded.search_batch_int_with(k, &int_refs).unwrap());
            }),
        ));
    }
    std::env::remove_var("HYPERVEC_THREADS");
    let backend_qps = |name: &str| {
        results
            .iter()
            .find(|m| m.name == format!("binary_batch_backend_{name}"))
            .map(|m| m.queries_per_sec)
    };
    let scalar_backend_qps = backend_qps("scalar").expect("scalar backend always measured");
    let kernel_speedup_vs_scalar =
        backend_qps(kernel::name()).unwrap_or(scalar_backend_qps) / scalar_backend_qps;

    // Cross-check once: every rung must agree bit-for-bit on top-1.
    let hits = sharded.search_batch_binary(&bin_refs).unwrap();
    for (q, query) in bin_queries.iter().enumerate() {
        let batch = hits.best(q);
        assert_eq!(
            batch,
            infer::classify_binary_hv(&class_rows, query),
            "batch/word-parallel divergence at query {q}"
        );
        assert_eq!(
            batch,
            scalar_per_dim_nearest(&class_rows, query),
            "batch/scalar divergence at query {q}"
        );
    }

    let scalar = results[0].queries_per_sec;
    let wordparallel = results[1].queries_per_sec;
    // Exclude the per-backend probes (single-threaded, different
    // purpose) so this metric keeps meaning what it meant in PR 2:
    // the production batch path vs the scalar baseline.
    let batch_best = results
        .iter()
        .filter(|m| m.name.starts_with("binary_batch") && !m.name.contains("backend"))
        .map(|m| m.queries_per_sec)
        .fold(0.0f64, f64::max);
    let speedup = batch_best / scalar;
    let speedup_vs_wordparallel = batch_best / wordparallel;

    println!(
        "associative search throughput  (D = {}, C = {}, batch = {}, kernel backend = {})",
        opts.dim,
        opts.n_classes,
        opts.n_queries,
        kernel::name()
    );
    for m in &results {
        println!("  {:<32} {:>14.0} queries/s", m.name, m.queries_per_sec);
    }
    println!("  batch vs scalar speedup: {speedup:.1}x");
    println!("  batch vs word-parallel per-query: {speedup_vs_wordparallel:.2}x");
    println!(
        "  active kernel ({}) vs scalar backend on batch search: {kernel_speedup_vs_scalar:.2}x",
        kernel::name()
    );

    // Million-row top-k: exact heap scan vs coarse-probe pruning.
    println!(
        "building top-k corpus ({} rows × D = {}, {} planted families of {TOPK_FAMILY}) …",
        opts.topk_rows, opts.dim, opts.topk_queries
    );
    let topk = run_topk_section(&opts, &mut rng, min_secs);
    let speedup_pruned_vs_exact = topk.pruned_qps / topk.exact_qps;
    println!(
        "top-k search (rows = {}, k = {}, batch = {}, probe {} words × factor {})",
        opts.topk_rows,
        opts.topk_k,
        opts.topk_queries,
        topk.probe.probe_words,
        topk.probe.probe_factor
    );
    println!("  {:<32} {:>14.1} queries/s", "topk_exact", topk.exact_qps);
    println!(
        "  {:<32} {:>14.1} queries/s",
        "topk_pruned", topk.pruned_qps
    );
    println!(
        "  pruned vs exact: {speedup_pruned_vs_exact:.2}x at recall@{} = {:.4} \
         (full-width probe bit-identical to exact: {})",
        opts.topk_k, topk.recall_at_k, topk.full_width_bit_identical
    );

    // Int metric rollups: the blocked batch kernel vs the per-row
    // cosine scan measured in the same run (the int twin of
    // `speedup_batch_vs_scalar`), plus the single-thread active-backend
    // number against the PR 7 recorded baseline. The absolute-baseline
    // ratio is informational-floor-gated only — it compares across
    // machine states — while the in-run per-row ratio is what the
    // acceptance gate enforces.
    let rung = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.queries_per_sec)
            .expect("rung measured above")
    };
    let int_batch_qps = rung("int_batch_all_threads");
    let int_per_row_qps = rung("int_per_row_per_query");
    let speedup_int_batch_vs_per_row = int_batch_qps / int_per_row_qps;
    let int_backend_qps = results
        .iter()
        .find(|m| m.name == format!("int_batch_backend_{}", kernel::name()))
        .map_or(int_batch_qps, |m| m.queries_per_sec);
    let speedup_int_batch_vs_pr7_baseline = int_backend_qps / INT_PR7_BASELINE_QPS;
    println!(
        "  int batch vs per-row cosine scan: {speedup_int_batch_vs_per_row:.2}x \
         (vs PR 7 baseline {INT_PR7_BASELINE_QPS:.0} q/s: \
         {speedup_int_batch_vs_pr7_baseline:.2}x)"
    );

    // Million-row *int* top-k: exact strided scan vs quantized coarse
    // probe with exact rescore.
    println!(
        "building int top-k corpus ({} rows × D = {}, {} planted families of {TOPK_FAMILY}) …",
        opts.topk_rows, opts.int_dim, opts.topk_queries
    );
    let int_topk = run_int_topk_section(&opts, &mut rng, min_secs);
    let speedup_int_pruned_vs_exact = int_topk.pruned_qps / int_topk.exact_qps;
    println!(
        "int top-k search (rows = {}, k = {}, batch = {}, probe {} words × factor {})",
        opts.topk_rows,
        opts.topk_k,
        opts.topk_queries,
        int_topk.probe.probe_words,
        int_topk.probe.probe_factor
    );
    println!(
        "  {:<32} {:>14.1} queries/s",
        "int_topk_exact", int_topk.exact_qps
    );
    println!(
        "  {:<32} {:>14.1} queries/s",
        "int_topk_pruned", int_topk.pruned_qps
    );
    println!(
        "  pruned vs exact: {speedup_int_pruned_vs_exact:.2}x at recall@{} = {:.4} \
         (full-width probe bit-identical to exact: {})",
        opts.topk_k, int_topk.recall_at_k, int_topk.full_width_bit_identical
    );

    // Serving: boot the batching server on a loopback port and measure
    // sustained classify requests/sec end to end.
    let spec = DemoSpec::default();
    let model = demo_model(&spec);
    let session = model.session();
    // A fixed model is served as a one-generation registry.
    let registry = ModelRegistry::from_snapshot(ModelSnapshot::from_standard_model(&model), None)
        .expect("demo snapshot is self-consistent");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = AtomicBool::new(false);
    let batch_config = BatchConfig::default();
    let serve = |listener: TcpListener,
                 batch: BatchConfig,
                 shutdown: &AtomicBool,
                 metrics: Option<&hdc_serve::ServeMetrics>| {
        let config = RegistryServeConfig {
            batch,
            ..RegistryServeConfig::default()
        };
        server::serve_registry_with_core_metrics(
            CoreKind::Event,
            listener,
            &registry,
            &config,
            shutdown,
            metrics,
        )
    };
    let load_config = LoadgenConfig {
        connections: opts.connections,
        requests_per_connection: opts.requests,
        seed: 2022,
        ..Default::default()
    };
    // Wire-format × pipelining grid on the same server: the JSON
    // serial run doubles as the classic "serving" section, and
    // binary+pipelined vs JSON serial is the acceptance metric
    // (`ci/bench_gates.json` requires ≥ 2×).
    const WIRE_PIPELINE: usize = 32;
    let wire_modes = [
        ("json_serial", WireMode::Json, 1usize),
        ("json_pipelined", WireMode::Json, WIRE_PIPELINE),
        ("binary_serial", WireMode::Binary, 1),
        ("binary_pipelined", WireMode::Binary, WIRE_PIPELINE),
    ];
    let (wire_reports, wire_bit_identical) = std::thread::scope(|s| {
        let server_thread = s.spawn(|| serve(listener, batch_config, &shutdown, None));
        let reports: Vec<(&str, hdc_serve::LoadReport)> = wire_modes
            .iter()
            .map(|&(name, wire_mode, pipeline)| {
                let report = loadgen::run(
                    addr,
                    session.n_features(),
                    session.m_levels(),
                    &LoadgenConfig {
                        wire: wire_mode,
                        pipeline,
                        ..load_config
                    },
                )
                .expect("load generation");
                (name, report)
            })
            .collect();
        let identical = wire_results_bit_identical(addr, &session);
        shutdown.store(true, Ordering::SeqCst);
        server_thread
            .join()
            .expect("server thread")
            .expect("server ran");
        (reports, identical)
    });
    assert!(
        wire_bit_identical,
        "JSON and binary wire answers diverged on the same rows"
    );
    let report = &wire_reports[0].1; // json_serial — the classic serving section
    let wire_rps = |name: &str| {
        wire_reports
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| r.requests_per_sec)
            .expect("measured wire mode")
    };
    let speedup_binary_pipelined_vs_json_serial =
        wire_rps("binary_pipelined") / wire_rps("json_serial");
    let speedup_pipelined_vs_serial_binary =
        wire_rps("binary_pipelined") / wire_rps("binary_serial");
    let speedup_pipelined_vs_serial_json = wire_rps("json_pipelined") / wire_rps("json_serial");
    println!(
        "serving (D = {}, N = {}, C = {}): {:.0} requests/s, p50 {} µs, p99 {} µs ({} errors)",
        spec.dim,
        spec.n_features,
        spec.n_classes,
        report.requests_per_sec,
        report.latency.quantile(0.50),
        report.latency.quantile(0.99),
        report.errors
    );
    for (name, r) in &wire_reports {
        println!(
            "  wire {name:<18} {:>9.0} requests/s  p50 {} µs  p99 {} µs  ({} errors)",
            r.requests_per_sec,
            r.latency.quantile(0.50),
            r.latency.quantile(0.99),
            r.errors
        );
    }
    println!(
        "  binary+pipelined vs JSON serial: {speedup_binary_pipelined_vs_json_serial:.2}x \
         (batch results bit-identical across wires: {wire_bit_identical})"
    );

    // Concurrency: the event loop's reason to exist — a fan-in of
    // thousands of concurrent pipelined sockets. The bench holds BOTH
    // ends of every fan-in socket in one process, so the fd budget is
    // two descriptors per connection; clamp loudly rather than die on
    // EMFILE where the hard limit is low.
    let fan_target = opts.fan_connections;
    let fd_limits = hdc_serve::epoll::raise_nofile_limit(fan_target as u64 * 2 + 128);
    let fan_connections = match fd_limits {
        Some((soft, _)) => fan_target.min((soft.saturating_sub(128) / 2) as usize),
        None => fan_target,
    };
    if fan_connections < fan_target {
        println!(
            "  (fd soft limit {} clamps fan-in from {fan_target} to {fan_connections} \
             connections)",
            fd_limits.map_or(0, |(soft, _)| soft),
        );
    }
    // Deep pipelines and big batches are the event core's levers at
    // 10k-connection fan-in: per-connection windows keep the loop fed
    // between readiness events, and wide batches amortize the
    // per-batch queue/wakeup overhead across thousands of sockets.
    const FAN_PIPELINE: usize = 64;
    const FAN_MAX_BATCH: usize = 512;
    let fan_config = LoadgenConfig {
        connections: fan_connections,
        requests_per_connection: opts.fan_requests,
        pipeline: FAN_PIPELINE,
        wire: WireMode::Binary,
        ..load_config
    };
    let fan_report = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let shutdown = AtomicBool::new(false);
        let fan_batch = BatchConfig {
            max_batch: FAN_MAX_BATCH,
            max_connections: fan_connections + 16,
            ..batch_config
        };
        std::thread::scope(|s| {
            let server_thread = s.spawn(|| serve(listener, fan_batch, &shutdown, None));
            let report = loadgen::run(addr, session.n_features(), session.m_levels(), &fan_config)
                .expect("fan-in load generation");
            shutdown.store(true, Ordering::SeqCst);
            server_thread
                .join()
                .expect("server thread")
                .expect("server ran");
            report
        })
    };
    println!(
        "serving concurrency: {fan_connections} connections (pipeline {}): \
         {:.0} requests/s, p50 {} µs, p99 {} µs ({} errors)",
        fan_config.pipeline,
        fan_report.requests_per_sec,
        fan_report.latency.quantile(0.50),
        fan_report.latency.quantile(0.99),
        fan_report.errors
    );

    // Telemetry overhead: identical binary+pipelined runs against a
    // metrics-off and a metrics-on server, best of 3 each. The gate
    // (`serving.telemetry.on_vs_off`) requires the metrics-on
    // throughput to stay within 3% of off.
    let telemetry_run = |metrics: Option<&hdc_serve::ServeMetrics>| -> f64 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|s| {
            let server_thread = s.spawn(|| serve(listener, batch_config, &shutdown, metrics));
            let best = (0..3)
                .map(|_| {
                    loadgen::run(
                        addr,
                        session.n_features(),
                        session.m_levels(),
                        &LoadgenConfig {
                            wire: WireMode::Binary,
                            pipeline: WIRE_PIPELINE,
                            ..load_config
                        },
                    )
                    .expect("telemetry load generation")
                    .requests_per_sec
                })
                .fold(0.0f64, f64::max);
            shutdown.store(true, Ordering::SeqCst);
            server_thread
                .join()
                .expect("server thread")
                .expect("server ran");
            best
        })
    };
    let telemetry_metrics = hdc_serve::ServeMetrics::new();
    let telemetry_off_rps = telemetry_run(None);
    let telemetry_on_rps = telemetry_run(Some(&telemetry_metrics));
    let telemetry_on_vs_off = telemetry_on_rps / telemetry_off_rps;
    println!(
        "serving telemetry overhead (binary+pipelined, best of 3): \
         off {telemetry_off_rps:.0} requests/s, on {telemetry_on_rps:.0} requests/s \
         ({telemetry_on_vs_off:.3}x)"
    );

    // The hardening tax: encode throughput of one locked encoder in the
    // default cached mode (the column pass) vs the constant-time
    // hardened mode (all M values read per feature), single-row and
    // batch, with the same encoder switched between modes so the
    // recorded `bit_identical` covers the exact keys being timed. The
    // gates pin bit_identical = 1 and a floor on the throughput ratio.
    let lock_config = hdlock::LockConfig {
        n_features: 16,
        m_levels: 8,
        dim: opts.int_dim,
        pool_size: 16,
        n_layers: 2,
    };
    let mut lock_rng = HvRng::from_seed(0xD0C5);
    let mut hardened_victim =
        hdlock::LockedEncoder::generate(&mut lock_rng, &lock_config).expect("valid lock config");
    let lock_rows: Vec<Vec<u16>> = (0..64)
        .map(|r| {
            (0..lock_config.n_features)
                .map(|f| ((r + f) % lock_config.m_levels) as u16)
                .collect()
        })
        .collect();
    let lock_refs: Vec<&[u16]> = lock_rows.iter().map(Vec::as_slice).collect();
    let cached_encodes = hardened_victim.encode_batch_binary(&lock_refs);
    let cached_eps = throughput(lock_refs.len(), min_secs, || {
        for r in &lock_refs {
            std::hint::black_box(hardened_victim.encode_binary(r));
        }
    });
    let cached_batch_rps = throughput(lock_refs.len(), min_secs, || {
        std::hint::black_box(hardened_victim.encode_batch_binary(&lock_refs));
    });
    hardened_victim.set_mode(hdlock::DeriveMode::Hardened);
    let hardened_bit_identical = u64::from(
        hardened_victim.encode_batch_binary(&lock_refs) == cached_encodes
            && lock_refs
                .iter()
                .map(|r| hardened_victim.encode_binary(r))
                .collect::<Vec<_>>()
                == cached_encodes,
    );
    let hardened_eps = throughput(lock_refs.len(), min_secs, || {
        for r in &lock_refs {
            std::hint::black_box(hardened_victim.encode_binary(r));
        }
    });
    let hardened_batch_rps = throughput(lock_refs.len(), min_secs, || {
        std::hint::black_box(hardened_victim.encode_batch_binary(&lock_refs));
    });
    let hardened_vs_cached_encode = hardened_eps / cached_eps;
    let hardened_vs_cached_batch = hardened_batch_rps / cached_batch_rps;
    println!(
        "hardened-mode tax (N = {}, M = {}, D = {}): single-row {cached_eps:.0} -> \
         {hardened_eps:.0} encodes/s ({hardened_vs_cached_encode:.3}x), batch \
         {cached_batch_rps:.0} -> {hardened_batch_rps:.0} rows/s \
         ({hardened_vs_cached_batch:.3}x), bit_identical = {hardened_bit_identical}",
        lock_config.n_features, lock_config.m_levels, lock_config.dim
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"dim\": {}, \"n_classes\": {}, \"batch\": {}, \"threads\": {} }},",
        opts.dim,
        opts.n_classes,
        opts.n_queries,
        hypervec::par::max_threads()
    );
    let backend_names: Vec<String> = backends.iter().map(|k| format!("\"{}\"", k.name)).collect();
    let _ = writeln!(
        json,
        "  \"kernel\": {{ \"backend\": \"{}\", \"available\": [{}], \
         \"batch_search_speedup_vs_scalar\": {kernel_speedup_vs_scalar:.2} }},",
        kernel::name(),
        backend_names.join(", ")
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"queries_per_sec\": {:.1} }}{comma}",
            m.name, m.queries_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedup_batch_vs_scalar\": {speedup:.2},");
    let _ = writeln!(
        json,
        "  \"speedup_batch_vs_wordparallel_per_query\": {speedup_vs_wordparallel:.2},"
    );
    let _ = writeln!(json, "  \"topk\": {{");
    let _ = writeln!(
        json,
        "    \"config\": {{ \"rows\": {}, \"k\": {}, \"queries\": {}, \"family\": {TOPK_FAMILY}, \
         \"noise\": {TOPK_NOISE}, \"probe_words\": {}, \"probe_factor\": {}, \
         \"exact_threshold\": {} }},",
        opts.topk_rows,
        opts.topk_k,
        opts.topk_queries,
        topk.probe.probe_words,
        topk.probe.probe_factor,
        topk.probe.exact_threshold
    );
    let _ = writeln!(
        json,
        "    \"exact_queries_per_sec\": {:.1},",
        topk.exact_qps
    );
    let _ = writeln!(
        json,
        "    \"pruned_queries_per_sec\": {:.1},",
        topk.pruned_qps
    );
    let _ = writeln!(
        json,
        "    \"speedup_pruned_vs_exact\": {speedup_pruned_vs_exact:.2},"
    );
    let _ = writeln!(json, "    \"recall_at_k\": {:.4},", topk.recall_at_k);
    let _ = writeln!(
        json,
        "    \"pruned_full_width_bit_identical\": {}",
        topk.full_width_bit_identical
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"int\": {{");
    let _ = writeln!(json, "    \"batch_queries_per_sec\": {int_batch_qps:.1},");
    let _ = writeln!(
        json,
        "    \"per_row_queries_per_sec\": {int_per_row_qps:.1},"
    );
    let _ = writeln!(
        json,
        "    \"speedup_int_batch_vs_per_row\": {speedup_int_batch_vs_per_row:.2},"
    );
    let _ = writeln!(
        json,
        "    \"speedup_int_batch_vs_pr7_baseline\": {speedup_int_batch_vs_pr7_baseline:.2},"
    );
    let _ = writeln!(json, "    \"topk\": {{");
    let _ = writeln!(
        json,
        "      \"config\": {{ \"rows\": {}, \"dim\": {}, \"k\": {}, \"queries\": {}, \
         \"family\": {TOPK_FAMILY}, \"noise\": {TOPK_NOISE}, \"probe_words\": {}, \
         \"probe_factor\": {}, \"exact_threshold\": {} }},",
        opts.topk_rows,
        opts.int_dim,
        opts.topk_k,
        opts.topk_queries,
        int_topk.probe.probe_words,
        int_topk.probe.probe_factor,
        int_topk.probe.exact_threshold
    );
    let _ = writeln!(
        json,
        "      \"exact_queries_per_sec\": {:.1},",
        int_topk.exact_qps
    );
    let _ = writeln!(
        json,
        "      \"pruned_queries_per_sec\": {:.1},",
        int_topk.pruned_qps
    );
    let _ = writeln!(
        json,
        "      \"speedup_pruned_vs_exact\": {speedup_int_pruned_vs_exact:.2},"
    );
    let _ = writeln!(json, "      \"recall_at_k\": {:.4},", int_topk.recall_at_k);
    let _ = writeln!(
        json,
        "      \"pruned_full_width_bit_identical\": {}",
        int_topk.full_width_bit_identical
    );
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"serving\": {{");
    let _ = writeln!(
        json,
        "    \"config\": {{ \"dim\": {}, \"n_features\": {}, \"n_classes\": {}, \
         \"connections\": {}, \"requests_per_connection\": {}, \"max_batch\": {}, \
         \"max_wait_us\": {} }},",
        spec.dim,
        spec.n_features,
        spec.n_classes,
        load_config.connections,
        load_config.requests_per_connection,
        batch_config.max_batch,
        batch_config.max_wait.as_micros()
    );
    let _ = writeln!(
        json,
        "    \"requests_per_sec\": {:.1},",
        report.requests_per_sec
    );
    let _ = writeln!(json, "    \"errors\": {},", report.errors);
    let _ = writeln!(
        json,
        "    \"latency_us\": {{ \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \
         \"mean\": {:.1} }},",
        report.latency.quantile(0.50),
        report.latency.quantile(0.95),
        report.latency.quantile(0.99),
        report.latency.quantile(1.0),
        report.latency.mean()
    );
    let _ = writeln!(json, "    \"wire\": {{");
    let _ = writeln!(
        json,
        "      \"config\": {{ \"connections\": {}, \"requests_per_connection\": {}, \
         \"pipeline\": {WIRE_PIPELINE} }},",
        load_config.connections, load_config.requests_per_connection
    );
    let _ = writeln!(json, "      \"modes\": [");
    for (i, (name, r)) in wire_reports.iter().enumerate() {
        let comma = if i + 1 == wire_reports.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "        {{ \"name\": \"{name}\", \"requests_per_sec\": {:.1}, \
             \"errors\": {}, \"p50_us\": {}, \"p99_us\": {} }}{comma}",
            r.requests_per_sec,
            r.errors,
            r.latency.quantile(0.50),
            r.latency.quantile(0.99)
        );
    }
    let _ = writeln!(json, "      ],");
    let _ = writeln!(
        json,
        "      \"speedup_binary_pipelined_vs_json_serial\": \
         {speedup_binary_pipelined_vs_json_serial:.2},"
    );
    let _ = writeln!(
        json,
        "      \"speedup_pipelined_vs_serial_binary\": {speedup_pipelined_vs_serial_binary:.2},"
    );
    let _ = writeln!(
        json,
        "      \"speedup_pipelined_vs_serial_json\": {speedup_pipelined_vs_serial_json:.2},"
    );
    let _ = writeln!(
        json,
        "      \"batch_bit_identical_across_wires\": {wire_bit_identical}"
    );
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"telemetry\": {{");
    let _ = writeln!(
        json,
        "      \"off_requests_per_sec\": {telemetry_off_rps:.1},"
    );
    let _ = writeln!(
        json,
        "      \"on_requests_per_sec\": {telemetry_on_rps:.1},"
    );
    let _ = writeln!(json, "      \"on_vs_off\": {telemetry_on_vs_off:.3}");
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"concurrency\": {{");
    let _ = writeln!(
        json,
        "      \"config\": {{ \"connections_target\": {fan_target}, \
         \"requests_per_connection\": {}, \"pipeline\": {}, \"wire\": \"binary\", \
         \"max_batch\": {FAN_MAX_BATCH}, \"fd_soft_limit\": {} }},",
        fan_config.requests_per_connection,
        fan_config.pipeline,
        fd_limits.map_or(0, |(soft, _)| soft)
    );
    let _ = writeln!(json, "      \"connections\": {fan_connections},");
    let _ = writeln!(
        json,
        "      \"requests_per_sec\": {:.1},",
        fan_report.requests_per_sec
    );
    let _ = writeln!(json, "      \"errors\": {},", fan_report.errors);
    let _ = writeln!(
        json,
        "      \"error_free\": {},",
        u64::from(fan_report.errors == 0)
    );
    let _ = writeln!(
        json,
        "      \"latency_us\": {{ \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {} }}",
        fan_report.latency.quantile(0.50),
        fan_report.latency.quantile(0.95),
        fan_report.latency.quantile(0.99),
        fan_report.latency.quantile(1.0)
    );
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"security\": {{");
    let _ = writeln!(json, "    \"hardened\": {{");
    let _ = writeln!(
        json,
        "      \"config\": {{ \"n_features\": {}, \"m_levels\": {}, \"dim\": {}, \
         \"pool_size\": {}, \"n_layers\": {} }},",
        lock_config.n_features,
        lock_config.m_levels,
        lock_config.dim,
        lock_config.pool_size,
        lock_config.n_layers
    );
    let _ = writeln!(json, "      \"cached_encodes_per_sec\": {cached_eps:.1},");
    let _ = writeln!(
        json,
        "      \"hardened_encodes_per_sec\": {hardened_eps:.1},"
    );
    let _ = writeln!(
        json,
        "      \"hardened_vs_cached_encode\": {hardened_vs_cached_encode:.4},"
    );
    let _ = writeln!(
        json,
        "      \"cached_batch_rows_per_sec\": {cached_batch_rps:.1},"
    );
    let _ = writeln!(
        json,
        "      \"hardened_batch_rows_per_sec\": {hardened_batch_rps:.1},"
    );
    let _ = writeln!(
        json,
        "      \"hardened_vs_cached_batch\": {hardened_vs_cached_batch:.4},"
    );
    let _ = writeln!(json, "      \"bit_identical\": {hardened_bit_identical}");
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&opts.out, json).expect("write benchmark JSON");
    println!("(json written to {})", opts.out);
}
