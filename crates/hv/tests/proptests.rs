//! Property-based tests for the hypervector substrate invariants.

use hypervec::bitvec::BitWords;
use hypervec::{BinaryHv, BundleAccumulator, HvRng, IntHv, LevelHvs};
use proptest::prelude::*;

/// Strategy: a dimension that exercises word boundaries.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=4,
        60usize..=70,
        120usize..=132,
        Just(1000),
        Just(10_000)
    ]
}

fn hv_pair() -> impl Strategy<Value = (BinaryHv, BinaryHv, u64)> {
    (dims(), any::<u64>()).prop_map(|(d, seed)| {
        let mut rng = HvRng::from_seed(seed);
        (rng.binary_hv(d), rng.binary_hv(d), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bind_is_self_inverse((a, b, _) in hv_pair()) {
        prop_assert_eq!(a.bind(&b).bind(&b), a);
    }

    #[test]
    fn bind_is_commutative((a, b, _) in hv_pair()) {
        prop_assert_eq!(a.bind(&b), b.bind(&a));
    }

    #[test]
    fn bind_preserves_distance((a, b, seed) in hv_pair()) {
        let mut rng = HvRng::from_seed(seed.wrapping_add(1));
        let c = rng.binary_hv(a.dim());
        prop_assert_eq!(a.hamming(&b), a.bind(&c).hamming(&b.bind(&c)));
    }

    #[test]
    fn hamming_metric_axioms((a, b, seed) in hv_pair()) {
        let mut rng = HvRng::from_seed(seed.wrapping_add(2));
        let c = rng.binary_hv(a.dim());
        prop_assert_eq!(a.hamming(&a), 0);
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
        prop_assert!(a.hamming(&b) <= a.dim());
    }

    #[test]
    fn rotation_is_distance_preserving((a, b, seed) in hv_pair()) {
        let k = (seed % a.dim() as u64) as usize;
        prop_assert_eq!(a.rotated(k).hamming(&b.rotated(k)), a.hamming(&b));
    }

    #[test]
    fn rotation_composes_mod_dim((a, _, seed) in hv_pair()) {
        let d = a.dim();
        let k1 = (seed % d as u64) as usize;
        let k2 = ((seed >> 16) % d as u64) as usize;
        prop_assert_eq!(a.rotated(k1).rotated(k2), a.rotated((k1 + k2) % d));
    }

    #[test]
    fn rotation_inverse_restores((a, _, seed) in hv_pair()) {
        let d = a.dim();
        let k = (seed % d as u64) as usize;
        prop_assert_eq!(a.rotated(k).rotated((d - k) % d), a);
    }

    #[test]
    fn dot_agrees_with_hamming((a, b, _) in hv_pair()) {
        prop_assert_eq!(a.dot(&b), a.dim() as i64 - 2 * a.hamming(&b) as i64);
    }

    #[test]
    fn extract64_is_circular(seed in any::<u64>(), d in 65usize..=200, start_frac in 0.0f64..1.0) {
        let mut rng = HvRng::from_seed(seed);
        let hv = rng.binary_hv(d);
        let start = ((d as f64) * start_frac) as usize % d;
        let w = hv.bits().extract64(start);
        for j in 0..64usize {
            let expected = hv.bits().get((start + j) % d);
            prop_assert_eq!((w >> j) & 1 == 1, expected);
        }
    }

    #[test]
    fn accumulator_add_remove_is_identity(seed in any::<u64>(), d in 1usize..=256, n in 1usize..=8) {
        let mut rng = HvRng::from_seed(seed);
        let keep = rng.binary_hv(d);
        let mut acc = BundleAccumulator::new(d);
        acc.add(&keep);
        let extras: Vec<BinaryHv> = (0..n).map(|_| rng.binary_hv(d)).collect();
        for e in &extras { acc.add(e); }
        for e in &extras { acc.remove(e); }
        prop_assert_eq!(acc.count(), 1);
        prop_assert_eq!(acc.majority_ties_positive(), keep);
    }

    #[test]
    fn sign_never_contradicts_nonzero(seed in any::<u64>(), d in 1usize..=128) {
        let mut rng = HvRng::from_seed(seed);
        let v = IntHv::from_fn(d, |i| ((seed >> (i % 48)) as i32 % 5) - 2);
        let s = v.sign_with(&mut rng);
        for i in 0..d {
            match v.get(i).signum() {
                1 => prop_assert_eq!(s.polarity(i), 1),
                -1 => prop_assert_eq!(s.polarity(i), -1),
                _ => {}
            }
        }
    }

    #[test]
    fn level_family_is_monotone_linear(seed in any::<u64>(), m in 2usize..=12) {
        let d = 2000;
        let mut rng = HvRng::from_seed(seed);
        let fam = LevelHvs::generate(&mut rng, d, m).unwrap();
        prop_assert_eq!(fam.level(0).hamming(fam.level(m - 1)), d / 2);
        for a in 0..m {
            for b in 0..m {
                prop_assert_eq!(fam.level(a).hamming(fam.level(b)), fam.expected_hamming(a, b));
            }
        }
    }

    #[test]
    fn bitwords_roundtrip_through_words(seed in any::<u64>(), d in 1usize..=300) {
        let mut rng = HvRng::from_seed(seed);
        let hv = rng.binary_hv(d);
        let rebuilt = BinaryHv::from_bits(BitWords::from_words(hv.bits().words().to_vec(), d));
        prop_assert_eq!(rebuilt, hv);
    }
}
