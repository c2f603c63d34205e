//! Substrate microbenchmarks: the MAP operations the whole system is
//! built on, including the packed-vs-naive ablation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hypervec::{HvRng, IntHv};

/// Naive `Vec<i8>` bipolar multiply — the representation the bit-packed
/// `BinaryHv` replaces; kept here as the ablation baseline.
fn naive_bind(a: &[i8], b: &[i8]) -> Vec<i8> {
    a.iter().zip(b).map(|(&x, &y)| x * y).collect()
}

fn bench_bind(c: &mut Criterion) {
    let mut rng = HvRng::from_seed(1);
    let d = 10_000;
    let a = rng.binary_hv(d);
    let b = rng.binary_hv(d);
    let na: Vec<i8> = a.iter().collect();
    let nb: Vec<i8> = b.iter().collect();

    let mut group = c.benchmark_group("bind_d10000");
    group.bench_function("packed_xor", |bench| {
        bench.iter(|| black_box(a.bind(black_box(&b))));
    });
    group.bench_function("naive_vec_i8", |bench| {
        bench.iter(|| black_box(naive_bind(black_box(&na), black_box(&nb))));
    });
    group.finish();
}

fn bench_hamming(c: &mut Criterion) {
    let mut rng = HvRng::from_seed(2);
    for d in [1_000usize, 10_000, 100_000] {
        let a = rng.binary_hv(d);
        let b = rng.binary_hv(d);
        c.bench_with_input(BenchmarkId::new("hamming", d), &d, |bench, _| {
            bench.iter(|| black_box(a.hamming(black_box(&b))));
        });
    }
}

fn bench_rotate(c: &mut Criterion) {
    let mut rng = HvRng::from_seed(3);
    let a = rng.binary_hv(10_000);
    c.bench_function("rotate_d10000", |bench| {
        bench.iter(|| black_box(a.rotated(black_box(4097))));
    });
}

fn bench_accumulate(c: &mut Criterion) {
    let mut rng = HvRng::from_seed(4);
    let d = 10_000;
    let a = rng.binary_hv(d);
    let b = rng.binary_hv(d);
    c.bench_function("fused_bind_accumulate_d10000", |bench| {
        bench.iter(|| {
            let mut acc = IntHv::zeros(d);
            acc.add_bound_pair(black_box(&a), black_box(&b));
            black_box(acc)
        });
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(20)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_bind, bench_hamming, bench_rotate, bench_accumulate
}
criterion_main!(benches);
