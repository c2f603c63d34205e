//! Encoding-throughput benchmark with machine-readable output.
//!
//! Measures samples/second of the naive per-sample scalar path against
//! the word-parallel engine (single-sample and batch, single- and
//! multi-threaded) for the standard and the locked encoder, then writes
//! `BENCH_encoding.json` so the perf trajectory is tracked across PRs.
//! Beside them: the bundling core (the column bind-and-count every
//! cached encode runs) on every kernel backend, and two ratios at the
//! paper's ISOLET shape (`D = 10 000, N = 617, M = 16`), each the
//! median of interleaved trial pairs in one process: the column pass
//! against the per-add ripple loop the accumulator ran before carry-save
//! bundling (`speedup_carry_save_vs_ripple`), and the column pass
//! against the staged plane loop the on-the-fly and hardened encoders
//! keep, fed the same bound pairs (`speedup_columns_vs_staged`).
//!
//! Usage: `bench_encoding [--dim D] [--features N] [--levels M]
//! [--batch B] [--out PATH]` — defaults reproduce the acceptance
//! configuration `D = 10 000, N = 64`.

use std::fmt::Write as _;
use std::time::Instant;

use hdc_model::{Encoder, RecordEncoder};
use hdlock::{DeriveMode, LockConfig, LockedEncoder};
use hdlock_bench::summarize;
use hypervec::{kernel, BinaryHv, BitSliceAccumulator, HvRng, TileBlock};

/// The paper's ISOLET shape for the two same-process ratios.
const ISOLET_DIM: usize = 10_000;
const ISOLET_FEATURES: usize = 617;
const ISOLET_LEVELS: usize = 16;
/// Distinct rows behind the columns vs staged ratio, so value reads
/// vary as in served traffic.
const ISOLET_ROWS: usize = 64;
/// Interleaved trial pairs behind each ratio (odd, so the median is
/// one of them).
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

/// Random features, values and rows of levels: the inputs of the
/// bundling rungs, row-major as the staged and ripple loops read them.
struct BundleInputs {
    features: Vec<BinaryHv>,
    values: Vec<BinaryHv>,
    rows: Vec<Vec<u16>>,
}

impl BundleInputs {
    fn new(dim: usize, n_features: usize, m_levels: usize, n_rows: usize, seed: u64) -> Self {
        let mut rng = HvRng::from_seed(seed);
        BundleInputs {
            features: (0..n_features).map(|_| rng.binary_hv(dim)).collect(),
            values: (0..m_levels).map(|_| rng.binary_hv(dim)).collect(),
            rows: (0..n_rows)
                .map(|_| {
                    (0..n_features)
                        .map(|_| rng.index(m_levels) as u16)
                        .collect()
                })
                .collect(),
        }
    }

    fn dim(&self) -> usize {
        self.values[0].dim()
    }

    /// Features and values tile-major, as the encoders hold them.
    fn tiles(&self) -> (TileBlock, TileBlock) {
        (
            TileBlock::from_hvs(self.dim(), &self.features),
            TileBlock::from_hvs(self.dim(), &self.values),
        )
    }
}

/// Rows/second of the column bind-and-count
/// (`BitSliceAccumulator::bundle_row`, the path of every cached encode)
/// over `inputs.rows` on one explicit kernel backend, one thread,
/// isolated from encoder bookkeeping so the per-backend numbers track
/// the raw SIMD speedup.
fn column_throughput(k: &'static kernel::Kernel, inputs: &BundleInputs, min_secs: f64) -> f64 {
    let (features, values) = inputs.tiles();
    let mut acc = BitSliceAccumulator::with_kernel(inputs.dim(), k);
    throughput(inputs.rows.len(), min_secs, || {
        for row in &inputs.rows {
            acc.bundle_row(&features, &values, row);
            std::hint::black_box(&acc);
        }
    })
}

/// Rows/second of the staged plane loop
/// (`BitSliceAccumulator::add_staged`) fed each row's bound pairs, one
/// `xor_into` per slot, as the on-the-fly and hardened encoders fill it:
/// the baseline of `speedup_columns_vs_staged`, on the active backend.
fn staged_throughput(inputs: &BundleInputs, min_secs: f64) -> f64 {
    let xor_into = kernel::active().xor_into;
    let mut acc = BitSliceAccumulator::new(inputs.dim());
    throughput(inputs.rows.len(), min_secs, || {
        for row in &inputs.rows {
            acc.clear();
            acc.add_staged(row.len(), |i, slot| {
                let value = &inputs.values[usize::from(row[i])];
                xor_into(
                    value.bits().words(),
                    inputs.features[i].bits().words(),
                    slot,
                );
            });
            std::hint::black_box(&acc);
        }
    })
}

/// Rows/second of the per-add ripple loop the accumulator ran before
/// carry-save bundling (one fused XOR, then ripple steps until no word
/// carries, per feature) — the baseline of
/// `speedup_carry_save_vs_ripple`. It keeps enough planes for a count
/// of `N`, so no carry is dropped.
fn ripple_throughput(k: &'static kernel::Kernel, inputs: &BundleInputs, min_secs: f64) -> f64 {
    let n_features = inputs.features.len();
    let n_planes = (usize::BITS - n_features.leading_zeros()) as usize;
    let n_words = inputs.dim().div_ceil(64);
    let mut planes = vec![vec![0u64; n_words]; n_planes];
    let mut scratch = vec![0u64; n_words];
    throughput(inputs.rows.len(), min_secs, || {
        for row in &inputs.rows {
            for plane in &mut planes {
                plane.iter_mut().for_each(|w| *w = 0);
            }
            for (fea, &lv) in inputs.features.iter().zip(row) {
                let value = &inputs.values[usize::from(lv)];
                (k.xor_into)(fea.bits().words(), value.bits().words(), &mut scratch);
                for plane in &mut planes {
                    if !(k.ripple_step)(plane, &mut scratch) {
                        break;
                    }
                }
            }
            std::hint::black_box(&planes);
        }
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
    let bundle = BundleInputs::new(opts.dim, opts.n_features, opts.m_levels, 1, 7);
    for k in &backends {
        results.push(Measurement {
            name: format!("kernel_bundle_{}", k.name),
            samples_per_sec: column_throughput(k, &bundle, min_secs),
        });
    }

    // Two ratios at the ISOLET shape on the active backend, each over
    // interleaved pairs so drift hits both sides alike, gated on the
    // median of the per-pair ratios: the column pass against the
    // per-add ripple loop, then against the staged plane loop.
    let isolet = BundleInputs::new(ISOLET_DIM, ISOLET_FEATURES, ISOLET_LEVELS, ISOLET_ROWS, 617);
    let one_row = BundleInputs {
        rows: isolet.rows[..1].to_vec(),
        features: isolet.features.clone(),
        values: isolet.values.clone(),
    };
    let (mut carry_save, mut ripple, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..RATIO_TRIALS {
        let c = column_throughput(kernel::active(), &one_row, 0.2);
        let r = ripple_throughput(kernel::active(), &one_row, 0.2);
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

    let (mut columns, mut staged, mut column_ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..RATIO_TRIALS {
        let c = column_throughput(kernel::active(), &isolet, 0.2);
        let s = staged_throughput(&isolet, 0.2);
        columns.push(c);
        staged.push(s);
        column_ratios.push(c / s);
    }
    results.push(Measurement {
        name: "isolet_row_columns".to_owned(),
        samples_per_sec: median(columns),
    });
    results.push(Measurement {
        name: "isolet_row_staged".to_owned(),
        samples_per_sec: median(staged),
    });
    let column_spread = summarize(&column_ratios);
    let (columns_min, columns_max) = (column_spread.min, column_spread.max);
    let columns_speedup = median(column_ratios);

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
    println!(
        "  column pass vs staged plane loop (D = {ISOLET_DIM}, N = {ISOLET_FEATURES}, \
         M = {ISOLET_LEVELS}, {ISOLET_ROWS} rows): {columns_speedup:.2}x median over \
         {RATIO_TRIALS} pairs ({columns_min:.2}–{columns_max:.2})"
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
        "  \"speedup_carry_save_vs_ripple\": {carry_save_speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"columns_vs_staged\": {{ \"dim\": {ISOLET_DIM}, \"n_features\": {ISOLET_FEATURES}, \"m_levels\": {ISOLET_LEVELS}, \"rows\": {ISOLET_ROWS}, \"pairs\": {RATIO_TRIALS}, \"min\": {columns_min:.2}, \"max\": {columns_max:.2} }},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_columns_vs_staged\": {columns_speedup:.2}"
    );
    let _ = writeln!(json, "}}");
    std::fs::write(&opts.out, json).expect("write benchmark JSON");
    println!("(json written to {})", opts.out);
}
