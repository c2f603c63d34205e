//! Table 1 — reasoning attack on all five benchmarks: original vs
//! recovered model accuracy and reasoning time, for non-binary and
//! binary HDC models.
//!
//! Shape expectations from the paper: recovered accuracy ≈ original
//! accuracy on every benchmark (the mapping leaks completely), and
//! reasoning time ordered PAMAP ≪ UCIHAR < ISOLET < MNIST < FACE
//! (it scales with the feature count). Absolute times differ from the
//! paper's Python-on-i7 numbers, because this is compiled Rust on other
//! hardware: compare the ordering and the accuracies, not the seconds.

use std::time::Instant;

use hdc_attack::{
    duplicate_model, mapping_accuracy, reason_encoding, CountingOracle, FeatureExtractOptions,
    StandardDump,
};
use hdc_datasets::Benchmark;
use hdc_model::{HdcConfig, HdcModel, ModelKind};
use hdlock_bench::{fmt_f, RunOptions, TextTable};
use hypervec::HvRng;

fn main() {
    let opts = RunOptions::from_args(RunOptions {
        scale: 0.2,
        ..RunOptions::default()
    });
    println!("Table 1 reproduction: reasoning attack on standard HDC models");
    println!(
        "D = {}, M = 16, dataset scale = {} (use --full for paper-like sizes)\n",
        opts.dim, opts.scale
    );

    for kind in [ModelKind::NonBinary, ModelKind::Binary] {
        println!("== {kind} HDC model ==");
        let mut t = TextTable::new(vec![
            "benchmark",
            "N",
            "original acc",
            "recovered acc",
            "mapping acc",
            "reasoning time (s)",
            "guesses",
            "oracle queries",
        ]);
        for bench in Benchmark::ALL {
            let (train_ds, test_ds) = bench
                .generate(opts.scale, opts.seed)
                .expect("benchmark generation");
            let config = HdcConfig {
                dim: opts.dim,
                m_levels: 16,
                kind,
                epochs: 2,
                learning_rate: 1,
                seed: opts.seed,
            };
            let victim = HdcModel::fit_standard(&config, &train_ds).expect("training");
            let original_acc = victim.evaluate(&test_ds).expect("evaluation").accuracy;

            let mut rng = HvRng::from_seed(opts.seed ^ 0xA77AC4);
            let (dump, truth) = StandardDump::from_encoder(victim.encoder(), &mut rng);
            let oracle = CountingOracle::new(victim.encoder());

            let wall = Instant::now();
            let recovered = reason_encoding(&oracle, &dump, kind, FeatureExtractOptions::default())
                .expect("attack");
            let reasoning_time = wall.elapsed();

            let stolen = duplicate_model(&victim, &dump, &recovered).expect("reconstruction");
            let recovered_acc = stolen.evaluate(&test_ds).expect("evaluation").accuracy;
            let map_acc = mapping_accuracy(&recovered, &truth);

            t.row(vec![
                bench.to_string(),
                bench.n_features().to_string(),
                fmt_f(original_acc, 4),
                fmt_f(recovered_acc, 4),
                fmt_f(map_acc, 4),
                fmt_f(reasoning_time.as_secs_f64(), 2),
                recovered.stats.guesses.to_string(),
                recovered.stats.oracle_queries.to_string(),
            ]);
        }
        t.emit(opts.csv.as_deref());
    }
    println!("paper shape check: recovered acc == original acc on every row;");
    println!("reasoning time grows with N (PAMAP fastest, MNIST/FACE slowest).");
}
