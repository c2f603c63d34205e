//! Fig. 9 — relative encoding time (clock cycles) of HDLock vs the
//! baseline HDC encoder, for `L ∈ 1..=5` on all five benchmarks,
//! measured on the cycle-level datapath simulator.
//!
//! Paper claims reproduced: `L = 1` is free (permutation = shifted
//! memory access), from `L = 2` the time grows linearly (+≈ 21 % per
//! layer), and the curves of all benchmarks coincide because the
//! relative growth is dataset-independent.

use hdc_datasets::Benchmark;
use hdc_hwsim::{relative_encoding_times, simulate_encode, HwConfig};
use hdlock_bench::{fmt_f, RunOptions, TextTable};

fn main() {
    let opts = RunOptions::from_args(RunOptions::default());
    let cfg = HwConfig::zynq_default().with_dim(opts.dim);
    println!("Fig. 9 reproduction: relative encoding time vs key layers (cycle-level sim)");
    println!(
        "D = {}, acc path {} b/cycle, bind path {} b/cycle, {} memory ports\n",
        cfg.dim, cfg.acc_width, cfg.bind_width, cfg.mem_ports
    );

    let layers: Vec<usize> = (1..=5).collect();
    let mut t = TextTable::new(
        std::iter::once("benchmark".to_owned())
            .chain(layers.iter().map(|l| format!("L = {l}")))
            .collect::<Vec<_>>(),
    );
    for bench in Benchmark::ALL {
        let series = relative_encoding_times(&cfg, bench.name(), bench.n_features(), &layers);
        let mut row = vec![bench.to_string()];
        row.extend(series.points.iter().map(|&(_, r)| fmt_f(r, 3)));
        t.row(row);
    }
    t.emit(opts.csv.as_deref());

    // Absolute cycle counts for one benchmark, for the curious.
    println!("absolute cycles per encoded MNIST sample:");
    for &l in &layers {
        let rep = simulate_encode(&cfg, 784, l);
        println!(
            "  L = {l}: {} cycles (bind busy {}, acc busy {}, acc utilization {})",
            rep.total_cycles,
            rep.bind_busy,
            rep.acc_busy,
            fmt_f(rep.acc_utilization(), 3)
        );
    }

    // Ablation: overlapping derive with
    // accumulate would hide the overhead entirely at these widths.
    let overlap_cfg = cfg.with_overlap(true);
    let base = simulate_encode(&cfg, 784, 1).total_cycles as f64;
    let l2_serial = simulate_encode(&cfg, 784, 2).total_cycles as f64 / base;
    let l2_overlap = simulate_encode(&overlap_cfg, 784, 2).total_cycles as f64 / base;
    println!(
        "\nablation — derive/accumulate overlap: L = 2 relative time {} (serial, paper's \n\
         design point ≈ 1.21) vs {} (overlapped pipeline)",
        fmt_f(l2_serial, 3),
        fmt_f(l2_overlap, 3)
    );
    println!("\npaper shape check: 1.0 at L = 1; ≈ +0.21 per additional layer; curves coincide.");
}
