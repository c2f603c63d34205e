//! Property tests: every compiled-in kernel backend is bit-identical to
//! the scalar reference — primitive by primitive on random word/value
//! slices, and end-to-end through the sharded batch search at
//! non-word-aligned dimensions (130, 10 000) for both model kinds
//! (binary → Hamming popcount, non-binary → integer-dot cosine),
//! including float score sequences, argmax winners and lowest-index tie
//! order.

use hypervec::kernel::{self, CarrySaveGroup, Kernel, CARRY_SAVE_INPUTS};
use hypervec::{BinaryHv, BitSliceAccumulator, HvRng, IntHv, ShardedClassMemory};
use proptest::prelude::*;

/// Word-slice lengths that exercise the SIMD blocks and scalar tails.
fn word_lens() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..=9, Just(63), Just(64), Just(157), 120usize..=130]
}

/// Dimensions the acceptance criteria name: non-word-aligned small and
/// paper scale.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![Just(130), 60usize..=70, Just(1000), Just(10_000)]
}

fn words(rng: &mut HvRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

fn ints(rng: &mut HvRng, n: usize) -> Vec<i32> {
    (0..n).map(|_| rng.next_u64() as i32).collect()
}

/// The slices of `inputs` as one carry-save group.
fn group(inputs: &[Vec<u64>]) -> CarrySaveGroup<'_> {
    std::array::from_fn(|j| inputs[j].as_slice())
}

/// Runs one carry-save step — `carry_save_16` on `a`, or with `b` the
/// fused `bind_carry_save_16` on `a[j] ^ b[j]` — on copies of `low`
/// (with a carry buffer full of garbage it must overwrite): the planes,
/// the carry and the live flag.
fn carry_save_once(
    k: &Kernel,
    a: &[Vec<u64>],
    b: Option<&[Vec<u64>]>,
    low: &[Vec<u64>],
    stale_carry: &[u64],
) -> (Vec<Vec<u64>>, Vec<u64>, bool) {
    let mut low = low.to_vec();
    let mut carry = stale_carry.to_vec();
    let [ones, twos, fours, eights] = &mut low[..] else {
        unreachable!("four low planes")
    };
    let planes = [ones, twos, fours, eights].map(|plane| plane.as_mut_slice());
    let live = match b {
        None => (k.carry_save_16)(&group(a), planes, &mut carry),
        Some(b) => (k.bind_carry_save_16)(&group(a), &group(b), planes, &mut carry),
    };
    (low, carry, live)
}

/// Every backend that is *not* the scalar reference, paired with it.
fn non_scalar_backends() -> Vec<&'static Kernel> {
    kernel::available()
        .into_iter()
        .filter(|k| k.name != "scalar")
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn xor_primitives_match_scalar(n in word_lens(), seed in any::<u64>()) {
        let scalar = kernel::scalar();
        let mut rng = HvRng::from_seed(seed);
        let a = words(&mut rng, n);
        let b = words(&mut rng, n);
        let mut want = vec![0u64; n];
        (scalar.xor_into)(&a, &b, &mut want);
        for k in non_scalar_backends() {
            let mut got = vec![0u64; n];
            (k.xor_into)(&a, &b, &mut got);
            prop_assert_eq!(&got, &want, "xor_into: {}", k.name);
            let mut got_assign = a.clone();
            (k.xor_assign)(&mut got_assign, &b);
            prop_assert_eq!(&got_assign, &want, "xor_assign: {}", k.name);
        }
    }

    #[test]
    fn popcount_and_hamming_match_scalar(n in word_lens(), seed in any::<u64>()) {
        let scalar = kernel::scalar();
        let mut rng = HvRng::from_seed(seed);
        let a = words(&mut rng, n);
        let b = words(&mut rng, n);
        for k in non_scalar_backends() {
            prop_assert_eq!((k.popcount)(&a), (scalar.popcount)(&a), "popcount: {}", k.name);
            prop_assert_eq!((k.hamming)(&a, &b), (scalar.hamming)(&a, &b), "hamming: {}", k.name);
        }
    }

    #[test]
    fn ripple_step_matches_scalar(n in word_lens(), seed in any::<u64>()) {
        let scalar = kernel::scalar();
        let mut rng = HvRng::from_seed(seed);
        let plane = words(&mut rng, n);
        let carry = words(&mut rng, n);
        let mut want_plane = plane.clone();
        let mut want_carry = carry.clone();
        let want_live = (scalar.ripple_step)(&mut want_plane, &mut want_carry);
        for k in non_scalar_backends() {
            let mut got_plane = plane.clone();
            let mut got_carry = carry.clone();
            let got_live = (k.ripple_step)(&mut got_plane, &mut got_carry);
            prop_assert_eq!(&got_plane, &want_plane, "ripple plane: {}", k.name);
            prop_assert_eq!(&got_carry, &want_carry, "ripple carry: {}", k.name);
            prop_assert_eq!(got_live, want_live, "ripple live flag: {}", k.name);
        }
    }

    #[test]
    fn carry_save_16_matches_scalar(n in word_lens(), seed in any::<u64>()) {
        // `word_lens` includes lengths that are not multiples of the
        // 4-word vector block, so every backend's scalar tail runs too.
        let mut rng = HvRng::from_seed(seed);
        let inputs: Vec<Vec<u64>> = (0..CARRY_SAVE_INPUTS).map(|_| words(&mut rng, n)).collect();
        let low: Vec<Vec<u64>> = (0..4).map(|_| words(&mut rng, n)).collect();
        let stale = words(&mut rng, n);
        let want = carry_save_once(kernel::scalar(), &inputs, None, &low, &stale);
        for k in non_scalar_backends() {
            prop_assert_eq!(
                carry_save_once(k, &inputs, None, &low, &stale),
                want.clone(),
                "carry_save_16: {}", k.name
            );
        }
    }

    #[test]
    fn carry_save_16_scalar_adds_exactly(n in 0usize..=6, seed in any::<u64>()) {
        // The reference itself, bit by bit: the new low bits plus 16 ×
        // the carry equal the old low bits plus the 16 input bits.
        let mut rng = HvRng::from_seed(seed);
        let inputs: Vec<Vec<u64>> = (0..CARRY_SAVE_INPUTS).map(|_| words(&mut rng, n)).collect();
        let low: Vec<Vec<u64>> = (0..4).map(|_| words(&mut rng, n)).collect();
        let (new_low, carry, live) =
            carry_save_once(kernel::scalar(), &inputs, None, &low, &words(&mut rng, n));
        let value = |planes: &[Vec<u64>], w: usize, b: usize| -> u64 {
            planes
                .iter()
                .enumerate()
                .map(|(p, plane)| ((plane[w] >> b) & 1) << p)
                .sum()
        };
        for w in 0..n {
            for b in 0..64 {
                let added: u64 = inputs.iter().map(|x| (x[w] >> b) & 1).sum();
                prop_assert_eq!(
                    value(&new_low, w, b) + 16 * ((carry[w] >> b) & 1),
                    value(&low, w, b) + added,
                    "word {} bit {}", w, b
                );
            }
        }
        prop_assert_eq!(live, carry.iter().any(|&c| c != 0));
    }

    #[test]
    fn bind_carry_save_16_matches_scalar(
        n in word_lens(),
        ragged in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Lengths off the 4-word vector block run every backend's scalar
        // tail. When `ragged`, each of the 37 slices (16 + 16 inputs, 4
        // planes, carry) gets its own length `n + 0..=5`: every backend
        // must then process the same shortest prefix and never touch a
        // word past it.
        let mut rng = HvRng::from_seed(seed);
        let extra: Vec<usize> = (0..37)
            .map(|_| if ragged { rng.index(6) } else { 0 })
            .collect();
        let mut slice = |i: usize| words(&mut rng, n + extra[i]);
        let a: Vec<Vec<u64>> = (0..CARRY_SAVE_INPUTS).map(&mut slice).collect();
        let b: Vec<Vec<u64>> = (16..16 + CARRY_SAVE_INPUTS).map(&mut slice).collect();
        let low: Vec<Vec<u64>> = (32..36).map(&mut slice).collect();
        let stale = slice(36);
        let want = carry_save_once(kernel::scalar(), &a, Some(&b), &low, &stale);
        let common = extra.iter().min().map_or(n, |e| n + e);
        for (before, after) in low.iter().zip(&want.0).chain([(&stale, &want.1)]) {
            prop_assert_eq!(&before[common..], &after[common..], "words past the shortest slice");
        }
        for k in non_scalar_backends() {
            prop_assert_eq!(
                carry_save_once(k, &a, Some(&b), &low, &stale),
                want.clone(),
                "bind_carry_save_16: {}", k.name
            );
        }
    }

    #[test]
    fn bind_carry_save_16_scalar_adds_exactly(n in 0usize..=6, seed in any::<u64>()) {
        // The fused reference is the plain step over the bound pairs:
        // identical planes, carry and live flag to `carry_save_16` on
        // `a[j] ^ b[j]`, which `carry_save_16_scalar_adds_exactly`
        // checks bit by bit.
        let mut rng = HvRng::from_seed(seed);
        let a: Vec<Vec<u64>> = (0..CARRY_SAVE_INPUTS).map(|_| words(&mut rng, n)).collect();
        let b: Vec<Vec<u64>> = (0..CARRY_SAVE_INPUTS).map(|_| words(&mut rng, n)).collect();
        let bound: Vec<Vec<u64>> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.iter().zip(y).map(|(p, q)| p ^ q).collect())
            .collect();
        let low: Vec<Vec<u64>> = (0..4).map(|_| words(&mut rng, n)).collect();
        let stale = words(&mut rng, n);
        prop_assert_eq!(
            carry_save_once(kernel::scalar(), &a, Some(&b), &low, &stale),
            carry_save_once(kernel::scalar(), &bound, None, &low, &stale)
        );
    }

    #[test]
    fn bulk_bundling_is_bit_identical_across_backends(
        dim in dims(),
        n in prop_oneof![0usize..=70, 255usize..=273],
        seed in any::<u64>(),
    ) {
        // The accumulator's carry-save bulk adds (plain and fused-bind)
        // driven through each backend explicitly, against the scalar
        // reference's planes.
        let mut rng = HvRng::from_seed(seed);
        let hvs: Vec<BinaryHv> = (0..n).map(|_| rng.binary_hv(dim)).collect();
        let keys: Vec<BinaryHv> = (0..n).map(|_| rng.binary_hv(dim)).collect();
        let bundle = |k: &'static Kernel| {
            let mut acc = BitSliceAccumulator::with_kernel(dim, k);
            acc.add_slices(hvs.iter().map(|hv| hv.bits().words()));
            let mut bound = BitSliceAccumulator::with_kernel(dim, k);
            bound.add_bound_pairs(
                hvs.iter().zip(&keys).map(|(hv, key)| (hv.bits().words(), key.bits().words())),
            );
            (
                acc.counts(),
                acc.majority_ties_positive(),
                bound.counts(),
                bound.majority_ties_positive(),
            )
        };
        let want = bundle(kernel::scalar());
        for k in non_scalar_backends() {
            prop_assert_eq!(bundle(k), want.clone(), "bulk add: {}", k.name);
        }
    }

    #[test]
    fn threshold_step_matches_scalar(n in word_lens(), t_bit in any::<bool>(), seed in any::<u64>()) {
        let scalar = kernel::scalar();
        let mut rng = HvRng::from_seed(seed);
        let plane = words(&mut rng, n);
        let gt0 = words(&mut rng, n);
        let eq0 = words(&mut rng, n);
        let mut want_gt = gt0.clone();
        let mut want_eq = eq0.clone();
        (scalar.threshold_step)(&plane, t_bit, &mut want_gt, &mut want_eq);
        for k in non_scalar_backends() {
            let mut got_gt = gt0.clone();
            let mut got_eq = eq0.clone();
            (k.threshold_step)(&plane, t_bit, &mut got_gt, &mut got_eq);
            prop_assert_eq!(&got_gt, &want_gt, "threshold gt: {}", k.name);
            prop_assert_eq!(&got_eq, &want_eq, "threshold eq: {}", k.name);
        }
    }

    #[test]
    fn hamming_rows_matches_scalar(
        len in 1usize..=64,
        n_rows in 1usize..=12,
        seed in any::<u64>(),
    ) {
        // Contiguous rows: the strided scan at `stride == len`, which
        // every whole-block scan of the search planes runs.
        let scalar = kernel::scalar();
        let mut rng = HvRng::from_seed(seed);
        let q = words(&mut rng, len);
        let rows = words(&mut rng, len * n_rows);
        // Non-zero starting distances check the += accumulation contract.
        let dist0: Vec<u32> = (0..n_rows).map(|r| r as u32 * 3).collect();
        let mut want = dist0.clone();
        (scalar.hamming_rows_stride)(&q, &rows, len, &mut want);
        for k in non_scalar_backends() {
            let mut got = dist0.clone();
            (k.hamming_rows_stride)(&q, &rows, len, &mut got);
            prop_assert_eq!(&got, &want, "hamming_rows_stride at stride == len: {}", k.name);
        }
    }

    #[test]
    fn hamming_rows_stride_matches_scalar(
        len in 1usize..=48,
        extra in 0usize..=16,
        n_rows in 1usize..=12,
        seed in any::<u64>(),
    ) {
        // The strided scan reads a `len`-word prefix of each
        // `stride`-word row — the pruned top-k coarse pass.
        let scalar = kernel::scalar();
        let mut rng = HvRng::from_seed(seed);
        let stride = len + extra;
        let q = words(&mut rng, len);
        let rows = words(&mut rng, stride * n_rows);
        let dist0: Vec<u32> = (0..n_rows).map(|r| r as u32 * 5).collect();
        let mut want = dist0.clone();
        (scalar.hamming_rows_stride)(&q, &rows, stride, &mut want);
        for k in non_scalar_backends() {
            let mut got = dist0.clone();
            (k.hamming_rows_stride)(&q, &rows, stride, &mut got);
            prop_assert_eq!(&got, &want, "hamming_rows_stride: {}", k.name);
        }
        // Full-width stride degenerates to the contiguous row scan: one
        // `hamming` per row.
        let contiguous = &rows[..len * n_rows];
        let per_row: Vec<u32> = dist0
            .iter()
            .zip(contiguous.chunks_exact(len))
            .map(|(&d, row)| d + (scalar.hamming)(&q, row) as u32)
            .collect();
        let mut strided = dist0.clone();
        (scalar.hamming_rows_stride)(&q, contiguous, len, &mut strided);
        prop_assert_eq!(&strided, &per_row);
    }

    #[test]
    fn dot_i32_matches_scalar(n in 0usize..=80, seed in any::<u64>()) {
        // Full-range i32 values: lane reassociation must agree even when
        // partial sums sit near the extremes. The range covers the
        // unrolled AVX2 accumulators (32 values per block), the single
        // vector tail, and the scalar tail.
        let scalar = kernel::scalar();
        let mut rng = HvRng::from_seed(seed);
        let a = ints(&mut rng, n);
        let b = ints(&mut rng, n);
        for k in non_scalar_backends() {
            prop_assert_eq!((k.dot_i32)(&a, &b), (scalar.dot_i32)(&a, &b), "dot_i32: {}", k.name);
        }
    }

    #[test]
    fn dot_rows_stride_matches_scalar(
        len in 1usize..=70,
        extra in 0usize..=16,
        n_rows in 1usize..=12,
        seed in any::<u64>(),
    ) {
        // The strided multi-row dot reads a `len`-value prefix of each
        // `stride`-value row — the blocked int batch/coarse scan. Full-
        // range i32 values exercise the widening accumulation; non-zero
        // starting dots check the += contract.
        let scalar = kernel::scalar();
        let mut rng = HvRng::from_seed(seed);
        let stride = len + extra;
        let q = ints(&mut rng, len);
        let rows = ints(&mut rng, stride * n_rows);
        let dots0: Vec<i64> = (0..n_rows).map(|r| r as i64 * 7 - 3).collect();
        let mut want = dots0.clone();
        (scalar.dot_rows_stride)(&q, &rows, stride, &mut want);
        for k in non_scalar_backends() {
            let mut got = dots0.clone();
            (k.dot_rows_stride)(&q, &rows, stride, &mut got);
            prop_assert_eq!(&got, &want, "dot_rows_stride: {}", k.name);
        }
        // Full-width stride agrees with the single-row dot kernel.
        let mut strided = vec![0i64; n_rows];
        (scalar.dot_rows_stride)(&q, &rows, stride, &mut strided);
        for r in 0..n_rows {
            let row = &rows[r * stride..r * stride + len];
            prop_assert_eq!(strided[r], (scalar.dot_i32)(&q, row), "row {}", r);
        }
    }

    #[test]
    fn dot_i16_rows_stride_matches_scalar(
        len in 1usize..=70,
        extra in 0usize..=16,
        n_rows in 1usize..=12,
        seed in any::<u64>(),
    ) {
        // The i16 kernel contract bounds inputs to [-32767, 32767]
        // (the vpmaddwd pairwise i32 sums must not overflow), so the
        // generator stays in that range — including both extremes.
        let scalar = kernel::scalar();
        let mut rng = HvRng::from_seed(seed);
        let stride = len + extra;
        let shorts = |rng: &mut HvRng, n: usize| -> Vec<i16> {
            (0..n)
                .map(|_| ((rng.next_u64() % 65535) as i64 - 32767) as i16)
                .collect()
        };
        let q = shorts(&mut rng, len);
        let rows = shorts(&mut rng, stride * n_rows);
        let dots0: Vec<i64> = (0..n_rows).map(|r| r as i64 * 11 - 5).collect();
        let mut want = dots0.clone();
        (scalar.dot_i16_rows_stride)(&q, &rows, stride, &mut want);
        for k in non_scalar_backends() {
            let mut got = dots0.clone();
            (k.dot_i16_rows_stride)(&q, &rows, stride, &mut got);
            prop_assert_eq!(&got, &want, "dot_i16_rows_stride: {}", k.name);
        }
        // The i16 dot equals the widened i32 dot of the same values —
        // the lossless-sidecar property the int batch path relies on.
        let qi: Vec<i32> = q.iter().map(|&v| i32::from(v)).collect();
        for r in 0..n_rows {
            let row: Vec<i32> = rows[r * stride..r * stride + len]
                .iter()
                .map(|&v| i32::from(v))
                .collect();
            prop_assert_eq!(
                want[r] - dots0[r],
                (scalar.dot_i32)(&qi, &row),
                "i16 vs widened i32, row {}", r
            );
        }
    }

    #[test]
    fn batch_binary_search_is_bit_identical_across_backends(
        dim in dims(),
        n_rows in 1usize..=9,
        n_queries in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let mut rng = HvRng::from_seed(seed);
        let rows: Vec<BinaryHv> = (0..n_rows).map(|_| rng.binary_hv(dim)).collect();
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let queries: Vec<BinaryHv> = (0..n_queries).map(|_| rng.binary_hv(dim)).collect();
        let refs: Vec<&BinaryHv> = queries.iter().collect();
        let want = mem.search_batch_binary_with(kernel::scalar(), &refs).unwrap();
        for k in non_scalar_backends() {
            let got = mem.search_batch_binary_with(k, &refs).unwrap();
            prop_assert_eq!(got.best_rows(), want.best_rows(), "argmax: {}", k.name);
            for q in 0..n_queries {
                for (r, (g, w)) in got.scores(q).iter().zip(want.scores(q)).enumerate() {
                    prop_assert_eq!(
                        g.to_bits(), w.to_bits(),
                        "binary score bits: {} q {} row {}", k.name, q, r
                    );
                }
            }
        }
    }

    #[test]
    fn batch_int_search_is_bit_identical_across_backends(
        dim in dims(),
        n_rows in 1usize..=7,
        n_queries in 1usize..=6,
        seed in any::<u64>(),
    ) {
        let mut rng = HvRng::from_seed(seed);
        let bins: Vec<BinaryHv> = (0..n_rows).map(|_| rng.binary_hv(dim)).collect();
        let ints_rows: Vec<IntHv> = bins
            .iter()
            .map(|b| {
                let mut acc = b.to_int();
                acc.add_binary(&rng.binary_hv(dim));
                acc
            })
            .collect();
        let mut mem = ShardedClassMemory::from_rows(&bins).unwrap();
        mem.set_int_rows(&ints_rows).unwrap();
        let queries: Vec<IntHv> = (0..n_queries)
            .map(|_| rng.binary_hv(dim).to_int())
            .collect();
        let refs: Vec<&IntHv> = queries.iter().collect();
        let want = mem.search_batch_int_with(kernel::scalar(), &refs).unwrap();
        for k in non_scalar_backends() {
            let got = mem.search_batch_int_with(k, &refs).unwrap();
            prop_assert_eq!(got.best_rows(), want.best_rows(), "int argmax: {}", k.name);
            for q in 0..n_queries {
                for (r, (g, w)) in got.scores(q).iter().zip(want.scores(q)).enumerate() {
                    prop_assert_eq!(
                        g.to_bits(), w.to_bits(),
                        "int score bits: {} q {} row {}", k.name, q, r
                    );
                }
            }
        }
    }

    #[test]
    fn ties_resolve_to_lowest_index_on_every_backend(
        dim in dims(),
        n_queries in 1usize..=5,
        seed in any::<u64>(),
    ) {
        // Duplicated rows tie on every query; all backends must keep the
        // scalar scan's lowest-index winner.
        let mut rng = HvRng::from_seed(seed);
        let base = rng.binary_hv(dim);
        let rows = vec![base.clone(), base.clone(), base];
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let queries: Vec<BinaryHv> = (0..n_queries).map(|_| rng.binary_hv(dim)).collect();
        let refs: Vec<&BinaryHv> = queries.iter().collect();
        for k in kernel::available() {
            let got = mem.search_batch_binary_with(k, &refs).unwrap();
            for q in 0..n_queries {
                prop_assert_eq!(got.best(q), 0, "tie order: {} q {}", k.name, q);
            }
        }
    }
}

/// The strided row scans read row `r` of `n` at `rows[r·stride ..
/// r·stride + len]`: a `rows` slice one element short of that must
/// panic on every backend instead of being read past its end. `n = 4`
/// is one whole four-row group and `len = 32` is whole vectors of
/// `u64`, `i32` and `i16` lanes, so the short element would fall to a
/// vector load rather than a bounds-checked scalar tail.
#[test]
fn strided_row_scans_panic_on_short_rows() {
    use std::panic::catch_unwind;
    let (n, len) = (4usize, 32usize);
    for stride in [len, len + 5] {
        let short = (n - 1) * stride + len - 1;
        for k in kernel::available() {
            let scans = [
                (
                    "hamming_rows_stride",
                    catch_unwind(|| {
                        let (q, rows) = (vec![1u64; len], vec![2u64; short]);
                        (k.hamming_rows_stride)(&q, &rows, stride, &mut vec![0; n]);
                    }),
                ),
                (
                    "dot_rows_stride",
                    catch_unwind(|| {
                        let (q, rows) = (vec![1i32; len], vec![2i32; short]);
                        (k.dot_rows_stride)(&q, &rows, stride, &mut vec![0; n]);
                    }),
                ),
                (
                    "dot_i16_rows_stride",
                    catch_unwind(|| {
                        let (q, rows) = (vec![1i16; len], vec![2i16; short]);
                        (k.dot_i16_rows_stride)(&q, &rows, stride, &mut vec![0; n]);
                    }),
                ),
            ];
            for (name, scan) in scans {
                assert!(
                    scan.is_err(),
                    "{name} read past `rows`: {} stride {stride}",
                    k.name
                );
            }
        }
    }
}

/// The paper-scale dimension from the acceptance criteria, pinned
/// explicitly (proptest only samples it).
#[test]
fn paper_scale_batch_search_matches_scalar_exactly() {
    for dim in [130usize, 10_000] {
        let mut rng = HvRng::from_seed(2022);
        let rows: Vec<BinaryHv> = (0..16).map(|_| rng.binary_hv(dim)).collect();
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let queries: Vec<BinaryHv> = (0..32).map(|_| rng.binary_hv(dim)).collect();
        let refs: Vec<&BinaryHv> = queries.iter().collect();
        let want = mem
            .search_batch_binary_with(kernel::scalar(), &refs)
            .unwrap();
        for k in kernel::available() {
            let got = mem.search_batch_binary_with(k, &refs).unwrap();
            assert_eq!(got, want, "backend {} diverged at D = {dim}", k.name);
        }
    }
}

/// The active (default-dispatched) backend is one of the available set
/// and drives the public search entry points to the same answers as the
/// scalar reference.
#[test]
fn active_backend_matches_scalar_through_public_api() {
    let dim = 1030;
    let mut rng = HvRng::from_seed(7);
    let rows: Vec<BinaryHv> = (0..8).map(|_| rng.binary_hv(dim)).collect();
    let mem = ShardedClassMemory::from_rows(&rows).unwrap();
    let queries: Vec<BinaryHv> = (0..16).map(|_| rng.binary_hv(dim)).collect();
    let refs: Vec<&BinaryHv> = queries.iter().collect();
    let via_active = mem.search_batch_binary(&refs).unwrap();
    let via_scalar = mem
        .search_batch_binary_with(kernel::scalar(), &refs)
        .unwrap();
    assert_eq!(via_active, via_scalar);
    assert!(kernel::available().iter().any(|k| k.name == kernel::name()));
}
