//! Histogram correctness under concurrency and against an exact
//! sorted reference.
//!
//! * concurrent recording from `hypervec::par` worker threads loses no
//!   samples and lands every one in the right bucket;
//! * merge is associative (and commutative) bucket-wise;
//! * every quantile is within the documented log-linear error bound of
//!   the exact nearest-rank percentile of a sorted reference
//!   (property-tested over random sample sets).

use hdc_obs::Histogram;
use proptest::prelude::*;

/// Deterministic pseudo-random sample stream (splitmix64).
fn samples(seed: u64, n: usize, max_exp: u32) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // Log-uniform-ish spread: pick an exponent, then bits.
            let exp = (z % u64::from(max_exp)) as u32;
            (z >> 8) & ((1u64 << exp) | ((1u64 << exp) - 1))
        })
        .collect()
}

/// Exact nearest-rank percentile of an ascending-sorted slice.
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Concurrent recording from `hypervec::par` scoped worker threads:
/// no sample is lost and totals match a serial reference.
#[test]
fn concurrent_recording_loses_nothing() {
    let rows = samples(42, 40_000, 30);
    let h = Histogram::new();
    // Each par worker records its contiguous chunk concurrently.
    let _: Vec<()> = hypervec::par::par_chunk_map(rows.len(), 256, |range| {
        for &v in &rows[range] {
            h.record(v);
        }
        vec![()]
    });
    let serial = Histogram::new();
    for &v in &rows {
        serial.record(v);
    }
    let got = h.snapshot();
    let want = serial.snapshot();
    assert_eq!(got.count(), rows.len() as u64);
    assert_eq!(got.sum(), want.sum());
    assert_eq!(got.nonzero_buckets(), want.nonzero_buckets());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), bucket-for-bucket — so per-shard
    /// recorders can be folded in any grouping.
    #[test]
    fn merge_is_associative(seed in any::<u64>()) {
        let xs = samples(seed, 300, 40);
        let thirds: Vec<&[u64]> = xs.chunks(100).collect();
        let record = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        // (a ⊕ b) ⊕ c
        let left = record(thirds[0]);
        left.merge_from(&record(thirds[1]));
        left.merge_from(&record(thirds[2]));
        // a ⊕ (b ⊕ c)
        let bc = record(thirds[1]);
        bc.merge_from(&record(thirds[2]));
        let right = record(thirds[0]);
        right.merge_from(&bc);
        // b ⊕ (a ⊕ c): commutativity rides along.
        let ac = record(thirds[0]);
        ac.merge_from(&record(thirds[2]));
        let swapped = record(thirds[1]);
        swapped.merge_from(&ac);

        let want = left.snapshot();
        for other in [right.snapshot(), swapped.snapshot()] {
            prop_assert_eq!(want.count(), other.count());
            prop_assert_eq!(want.sum(), other.sum());
            prop_assert_eq!(want.nonzero_buckets(), other.nonzero_buckets());
        }
    }

    /// Histogram quantiles vs the exact sorted nearest-rank reference:
    /// `exact <= est <= exact + exact/32 + 1` for every percentile the
    /// serving stack reports.
    #[test]
    fn quantiles_match_sorted_reference_within_bound(
        seed in any::<u64>(),
        n in 1usize..2000,
    ) {
        let xs = samples(seed, n, 44);
        let h = Histogram::new();
        for &v in &xs {
            h.record(v);
        }
        let mut sorted = xs;
        sorted.sort_unstable();
        let snap = h.snapshot();
        for q in [0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0] {
            let exact = exact_percentile(&sorted, q);
            let est = snap.quantile(q);
            prop_assert!(est >= exact, "q={q}: est {est} < exact {exact}");
            prop_assert!(
                est <= exact + exact / 32 + 1,
                "q={q}: est {est} exceeds bound for exact {exact}"
            );
        }
    }
}
