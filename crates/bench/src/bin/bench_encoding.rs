//! Encoding-throughput benchmark with machine-readable output.
//!
//! Measures samples/second of the naive per-sample scalar path against
//! the word-parallel engine (single-sample and batch, single- and
//! multi-threaded) for the standard and the locked encoder, then writes
//! `BENCH_encoding.json` so the perf trajectory is tracked across PRs.
//! Beside them: the bundling core on every kernel backend, and the
//! carry-save bulk add against the per-add ripple loop it replaced at
//! the paper's ISOLET shape (`D = 10 000, N = 617`), as interleaved
//! trials in one process (`speedup_carry_save_vs_ripple`).
//!
//! Usage: `bench_encoding [--dim D] [--features N] [--levels M]
//! [--batch B] [--out PATH]` — defaults reproduce the acceptance
//! configuration `D = 10 000, N = 64`.

use std::fmt::Write as _;
use std::time::Instant;

use hdc_model::{Encoder, RecordEncoder};
use hdlock::{DeriveMode, LockConfig, LockedEncoder};
use hdlock_bench::summarize;
use hypervec::{kernel, BitSliceAccumulator, HvRng};

/// The paper's ISOLET shape for the carry-save vs ripple ratio.
const ISOLET_DIM: usize = 10_000;
const ISOLET_FEATURES: usize = 617;
/// Interleaved carry-save / ripple trial pairs behind the ratio (odd,
/// so the median is one of them).
const RATIO_TRIALS: usize = 7;

struct Options {
    dim: usize,
    n_features: usize,
    m_levels: usize,
    batch: usize,
    out: String,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            dim: 10_000,
            n_features: 64,
            m_levels: 16,
            batch: 256,
            out: "BENCH_encoding.json".to_owned(),
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
            "--levels" => opts.m_levels = value(i).parse().expect("--levels needs an integer"),
            "--batch" => opts.batch = value(i).parse().expect("--batch needs an integer"),
            "--out" => opts.out = value(i),
            other => panic!(
                "unknown argument '{other}'; supported: --dim --features --levels --batch --out"
            ),
        }
        i += 2;
    }
    opts
}

/// One measured configuration.
struct Measurement {
    name: String,
    samples_per_sec: f64,
}

/// Random packed feature words and one value's words: the inputs of a
/// fused-bind bundle of `n_features` pairs.
fn bundle_inputs(dim: usize, n_features: usize) -> (Vec<Vec<u64>>, Vec<u64>) {
    let n_words = dim.div_ceil(64);
    let mut rng = HvRng::from_seed(7);
    let feature_words = (0..n_features)
        .map(|_| (0..n_words).map(|_| rng.next_u64()).collect())
        .collect();
    let value_words = (0..n_words).map(|_| rng.next_u64()).collect();
    (feature_words, value_words)
}

/// Samples/second of the bit-sliced bundling core on one explicit
/// kernel backend: the cold fused-bind bulk add
/// (`BitSliceAccumulator::add_staged`) the encoders run per sample,
/// isolated from encoder bookkeeping so the per-backend numbers track
/// the raw SIMD speedup.
fn kernel_bundle_throughput(
    k: &'static kernel::Kernel,
    dim: usize,
    n_features: usize,
    min_secs: f64,
) -> f64 {
    let (feature_words, value_words) = bundle_inputs(dim, n_features);
    let mut acc = BitSliceAccumulator::with_kernel(dim, k);
    throughput(1, min_secs, || {
        acc.clear();
        acc.add_staged(n_features, |i, slot| {
            (k.xor_into)(&feature_words[i], &value_words, slot);
        });
        std::hint::black_box(&acc);
    })
}

/// Samples/second of the per-add ripple loop the accumulator ran before
/// carry-save bundling (one fused XOR, then ripple steps until no word
/// carries, per feature) — the baseline of
/// `speedup_carry_save_vs_ripple`. It keeps enough planes for a count
/// of `n_features`, so no carry is dropped.
fn ripple_bundle_throughput(
    k: &'static kernel::Kernel,
    dim: usize,
    n_features: usize,
    min_secs: f64,
) -> f64 {
    let (feature_words, value_words) = bundle_inputs(dim, n_features);
    let n_planes = (usize::BITS - n_features.leading_zeros()) as usize;
    let n_words = dim.div_ceil(64);
    let mut planes = vec![vec![0u64; n_words]; n_planes];
    let mut scratch = vec![0u64; n_words];
    throughput(1, min_secs, || {
        for plane in &mut planes {
            plane.iter_mut().for_each(|w| *w = 0);
        }
        for fea in &feature_words {
            (k.xor_into)(fea, &value_words, &mut scratch);
            for plane in &mut planes {
                if !(k.ripple_step)(plane, &mut scratch) {
                    break;
                }
            }
        }
        std::hint::black_box(&planes);
    })
}

/// Middle value of an odd-length sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Runs `encode_all` repeatedly until ≥ `min_secs` of wall clock is
/// spent, returning samples/second.
fn throughput(samples_per_call: usize, min_secs: f64, mut encode_all: impl FnMut()) -> f64 {
    // Warm-up (also builds lazy caches outside the timed region).
    encode_all();
    let mut calls = 0usize;
    let start = Instant::now();
    loop {
        encode_all();
        calls += 1;
        if start.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    (calls * samples_per_call) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let opts = parse_options();
    let mut rng = HvRng::from_seed(2022);
    let record = RecordEncoder::generate(&mut rng, opts.n_features, opts.m_levels, opts.dim)
        .expect("encoder generation");
    let lock_cfg = LockConfig {
        n_features: opts.n_features,
        m_levels: opts.m_levels,
        dim: opts.dim,
        pool_size: opts.n_features,
        n_layers: 2,
    };
    let mut locked = LockedEncoder::generate(&mut rng, &lock_cfg).expect("locked encoder");

    let rows: Vec<Vec<u16>> = (0..opts.batch)
        .map(|_| {
            (0..opts.n_features)
                .map(|_| rng.index(opts.m_levels) as u16)
                .collect()
        })
        .collect();
    let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
    let min_secs = 0.5;

    let mut results: Vec<Measurement> = Vec::new();

    // Naive per-sample scalar baseline (one i32 add per dimension per
    // feature) — the path every consumer used before the engine.
    results.push(Measurement {
        name: "record_scalar_per_sample".to_owned(),
        samples_per_sec: throughput(opts.batch, min_secs, || {
            for row in &refs {
                std::hint::black_box(record.encode_int_scalar(row).sign_ties_positive());
            }
        }),
    });

    // Word-parallel engine, still one sample per call.
    results.push(Measurement {
        name: "record_engine_per_sample".to_owned(),
        samples_per_sec: throughput(opts.batch, min_secs, || {
            for row in &refs {
                std::hint::black_box(record.encode_binary(row));
            }
        }),
    });

    // Batch path pinned to one worker, then with all available workers.
    std::env::set_var("HYPERVEC_THREADS", "1");
    results.push(Measurement {
        name: "record_batch_1_thread".to_owned(),
        samples_per_sec: throughput(opts.batch, min_secs, || {
            std::hint::black_box(record.encode_batch_binary(&refs));
        }),
    });
    std::env::remove_var("HYPERVEC_THREADS");
    results.push(Measurement {
        name: "record_batch_all_threads".to_owned(),
        samples_per_sec: throughput(opts.batch, min_secs, || {
            std::hint::black_box(record.encode_batch_binary(&refs));
        }),
    });

    // Locked encoder: batch in both derivation modes.
    results.push(Measurement {
        name: "locked_cached_batch".to_owned(),
        samples_per_sec: throughput(opts.batch, min_secs, || {
            std::hint::black_box(locked.encode_batch_binary(&refs));
        }),
    });
    locked.set_mode(DeriveMode::OnTheFly);
    results.push(Measurement {
        name: "locked_on_the_fly_batch".to_owned(),
        samples_per_sec: throughput(opts.batch, min_secs, || {
            std::hint::black_box(locked.encode_batch_binary(&refs));
        }),
    });

    // Per-kernel-backend timings of the bundling core the encoders run
    // on, so BENCH_encoding.json tracks the raw SIMD speedup next to
    // the end-to-end encoder numbers.
    let backends = kernel::available();
    for k in &backends {
        results.push(Measurement {
            name: format!("kernel_bundle_{}", k.name),
            samples_per_sec: kernel_bundle_throughput(k, opts.dim, opts.n_features, min_secs),
        });
    }

    // Carry-save vs per-add ripple at the ISOLET shape on the active
    // backend: alternate the two so drift hits both alike, and gate on
    // the median of the per-pair ratios.
    let (mut carry_save, mut ripple, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..RATIO_TRIALS {
        let c = kernel_bundle_throughput(kernel::active(), ISOLET_DIM, ISOLET_FEATURES, 0.2);
        let r = ripple_bundle_throughput(kernel::active(), ISOLET_DIM, ISOLET_FEATURES, 0.2);
        carry_save.push(c);
        ripple.push(r);
        ratios.push(c / r);
    }
    results.push(Measurement {
        name: "isolet_bundle_carry_save".to_owned(),
        samples_per_sec: median(carry_save),
    });
    results.push(Measurement {
        name: "isolet_bundle_ripple".to_owned(),
        samples_per_sec: median(ripple),
    });
    let spread = summarize(&ratios);
    let (ratio_min, ratio_max) = (spread.min, spread.max);
    let carry_save_speedup = median(ratios);

    let scalar = results[0].samples_per_sec;
    let batch_best = results
        .iter()
        .filter(|m| m.name.starts_with("record_batch"))
        .map(|m| m.samples_per_sec)
        .fold(0.0f64, f64::max);
    let speedup = batch_best / scalar;

    println!(
        "encoding throughput  (D = {}, N = {}, M = {}, batch = {}, kernel backend = {})",
        opts.dim,
        opts.n_features,
        opts.m_levels,
        opts.batch,
        kernel::name()
    );
    for m in &results {
        println!("  {:<28} {:>12.0} samples/s", m.name, m.samples_per_sec);
    }
    println!("  batch vs scalar speedup: {speedup:.1}x");
    println!(
        "  carry-save vs ripple bundling (D = {ISOLET_DIM}, N = {ISOLET_FEATURES}): \
         {carry_save_speedup:.2}x median over {RATIO_TRIALS} pairs ({ratio_min:.2}–{ratio_max:.2})"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"dim\": {}, \"n_features\": {}, \"m_levels\": {}, \"batch\": {}, \"threads\": {} }},",
        opts.dim,
        opts.n_features,
        opts.m_levels,
        opts.batch,
        hypervec::par::max_threads()
    );
    let backend_names: Vec<String> = backends.iter().map(|k| format!("\"{}\"", k.name)).collect();
    let _ = writeln!(
        json,
        "  \"kernel\": {{ \"backend\": \"{}\", \"available\": [{}] }},",
        kernel::name(),
        backend_names.join(", ")
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"samples_per_sec\": {:.1} }}{comma}",
            m.name, m.samples_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedup_batch_vs_scalar\": {speedup:.2},");
    let _ = writeln!(
        json,
        "  \"carry_save_vs_ripple\": {{ \"dim\": {ISOLET_DIM}, \"n_features\": {ISOLET_FEATURES}, \"pairs\": {RATIO_TRIALS}, \"min\": {ratio_min:.2}, \"max\": {ratio_max:.2} }},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_carry_save_vs_ripple\": {carry_save_speedup:.2}"
    );
    let _ = writeln!(json, "}}");
    std::fs::write(&opts.out, json).expect("write benchmark JSON");
    println!("(json written to {})", opts.out);
}
