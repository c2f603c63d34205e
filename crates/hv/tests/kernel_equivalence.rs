//! Property tests: every compiled-in kernel backend is bit-identical to
//! the scalar reference — primitive by primitive on random word/value
//! slices, the column bind-and-count over a grid of dimensions, feature
//! and level counts, and end-to-end through the sharded batch search at
//! non-word-aligned dimensions (130, 10 000) for both model kinds
//! (binary → Hamming popcount, non-binary → integer-dot cosine),
//! including float score sequences, argmax winners and lowest-index tie
//! order.

use hypervec::kernel::{self, BoundRow, CarrySaveGroup, Kernel, CARRY_SAVE_INPUTS, TILE_WORDS};
use hypervec::{BinaryHv, BitSliceAccumulator, HvRng, IntHv, ShardedClassMemory, TileBlock};
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

/// Runs one `carry_save_16` step on copies of `low` (with a carry
/// buffer full of garbage it must overwrite): the planes, the carry and
/// the live flag.
fn carry_save_once(
    k: &Kernel,
    inputs: &[Vec<u64>],
    low: &[Vec<u64>],
    stale_carry: &[u64],
) -> (Vec<Vec<u64>>, Vec<u64>, bool) {
    let mut low = low.to_vec();
    let mut carry = stale_carry.to_vec();
    let [ones, twos, fours, eights] = &mut low[..] else {
        unreachable!("four low planes")
    };
    let planes = [ones, twos, fours, eights].map(|plane| plane.as_mut_slice());
    let live = (k.carry_save_16)(&group(inputs), planes, &mut carry);
    (low, carry, live)
}

/// `vectors` (each `⌈dim/64⌉` words) laid out tile-major, the layout
/// `bind_bundle_columns` reads, with random garbage in every padding
/// word of the last tile.
fn tile_major(rng: &mut HvRng, vectors: &[Vec<u64>], dim: usize) -> Vec<u64> {
    let n_words = dim.div_ceil(64);
    let tiles = n_words.div_ceil(TILE_WORDS);
    let n = vectors.len();
    let mut block = vec![0u64; n * tiles * TILE_WORDS];
    for (at, word) in block.iter_mut().enumerate() {
        let (t, i, c) = (at / (n * TILE_WORDS), at / TILE_WORDS % n, at % TILE_WORDS);
        let w = t * TILE_WORDS + c;
        *word = vectors[i].get(w).copied().unwrap_or_else(|| rng.next_u64());
    }
    block
}

/// `n` random `dim`-bit vectors with random garbage past `dim` in the
/// last word.
fn dirty_vectors(rng: &mut HvRng, n: usize, dim: usize) -> Vec<Vec<u64>> {
    (0..n).map(|_| words(rng, dim.div_ceil(64))).collect()
}

/// A random row for `bind_bundle_columns`: `n` features and `m` values
/// of dimension `dim` (garbage past `dim` and in the padding), tile-major,
/// and `n` levels; plus the features, values and levels themselves.
struct ColumnCase {
    dim: usize,
    features: Vec<Vec<u64>>,
    values: Vec<Vec<u64>>,
    levels: Vec<u16>,
    feature_block: Vec<u64>,
    value_block: Vec<u64>,
}

impl ColumnCase {
    fn new(dim: usize, n: usize, m: usize, seed: u64) -> Self {
        let mut rng = HvRng::from_seed(seed);
        let features = dirty_vectors(&mut rng, n, dim);
        let values = dirty_vectors(&mut rng, m, dim);
        let levels = (0..n).map(|_| rng.index(m) as u16).collect();
        let feature_block = tile_major(&mut rng, &features, dim);
        let value_block = tile_major(&mut rng, &values, dim);
        ColumnCase {
            dim,
            features,
            values,
            levels,
            feature_block,
            value_block,
        }
    }

    fn row(&self) -> BoundRow<'_> {
        BoundRow {
            features: &self.feature_block,
            values: &self.value_block,
            levels: &self.levels,
            dim: self.dim,
        }
    }

    /// `bind_bundle_columns` on `k`, into `n_planes` planes full of
    /// garbage it must overwrite where the count needs them and leave
    /// alone above.
    fn planes(&self, k: &Kernel, n_planes: usize) -> Vec<Vec<u64>> {
        let mut rng = HvRng::from_seed(n_planes as u64);
        let mut planes: Vec<Vec<u64>> = (0..n_planes)
            .map(|_| words(&mut rng, self.dim.div_ceil(64)))
            .collect();
        let mut offsets = vec![u32::MAX; 3];
        (k.bind_bundle_columns)(&self.row(), &mut offsets, &mut planes);
        planes
    }
}

/// Planes a count of `n` needs.
fn planes_for(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
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
    fn carry_save_16_matches_scalar(
        n in word_lens(),
        ragged in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // `word_lens` includes lengths that are not multiples of the
        // 4-word vector block, so every backend's scalar tail runs too.
        // When `ragged`, each of the 21 slices (16 inputs, 4 planes,
        // carry) gets its own length `n + 0..=5`: every backend must
        // then process the same shortest prefix and never touch a word
        // past it.
        let mut rng = HvRng::from_seed(seed);
        let extra: Vec<usize> = (0..CARRY_SAVE_INPUTS + 5)
            .map(|_| if ragged { rng.index(6) } else { 0 })
            .collect();
        let mut slice = |i: usize| words(&mut rng, n + extra[i]);
        let inputs: Vec<Vec<u64>> = (0..CARRY_SAVE_INPUTS).map(&mut slice).collect();
        let low: Vec<Vec<u64>> = (CARRY_SAVE_INPUTS..CARRY_SAVE_INPUTS + 4).map(&mut slice).collect();
        let stale = slice(CARRY_SAVE_INPUTS + 4);
        let want = carry_save_once(kernel::scalar(), &inputs, &low, &stale);
        let common = n + extra.iter().min().copied().unwrap_or(0);
        for (before, after) in low.iter().zip(&want.0).chain([(&stale, &want.1)]) {
            prop_assert_eq!(&before[common..], &after[common..], "words past the shortest slice");
        }
        for k in non_scalar_backends() {
            prop_assert_eq!(
                carry_save_once(k, &inputs, &low, &stale),
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
            carry_save_once(kernel::scalar(), &inputs, &low, &words(&mut rng, n));
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
    fn bind_bundle_columns_scalar_counts_exactly(
        dim in prop_oneof![1usize..=70, 500usize..=520, Just(1030)],
        n in prop_oneof![0usize..=40, 250usize..=270, 760usize..=780],
        m in 1usize..=5,
        seed in any::<u64>(),
    ) {
        // The reference itself, bit by bit: plane `p` of dimension `d`
        // is bit `p` of how many bound pairs `features[i] ^
        // values[levels[i]]` set bit `d`, below `dim`; every bit at or
        // past `dim` is zero, and planes above the count's are left as
        // they were. Past 256 inputs the ninth plane lives in memory,
        // and past 512 it takes more than one 256s carry.
        let case = ColumnCase::new(dim, n, m, seed);
        let n_planes = planes_for(n);
        let planes = case.planes(kernel::scalar(), n_planes + 2);
        let stale = ColumnCase::planes(&ColumnCase::new(dim, 0, m, seed), kernel::scalar(), n_planes + 2);
        prop_assert_eq!(&planes[n_planes..], &stale[n_planes..], "planes above the count");
        for d in 0..dim.div_ceil(64) * 64 {
            let (w, b) = (d / 64, d % 64);
            let want: u64 = if d < dim {
                case.features
                    .iter()
                    .zip(&case.levels)
                    .map(|(fea, &lv)| ((fea[w] ^ case.values[usize::from(lv)][w]) >> b) & 1)
                    .sum()
            } else {
                0
            };
            let got: u64 = planes[..n_planes]
                .iter()
                .enumerate()
                .map(|(p, plane)| ((plane[w] >> b) & 1) << p)
                .sum();
            prop_assert_eq!(got, want, "dimension {}", d);
        }
    }

    #[test]
    fn bulk_bundling_is_bit_identical_across_backends(
        dim in dims(),
        n in prop_oneof![0usize..=70, 255usize..=273],
        seed in any::<u64>(),
    ) {
        // The accumulator's two bulk paths — the staged carry-save add
        // and the column bind-and-count — driven through each backend
        // explicitly, against the scalar reference's planes.
        let mut rng = HvRng::from_seed(seed);
        let hvs: Vec<BinaryHv> = (0..n).map(|_| rng.binary_hv(dim)).collect();
        let values: Vec<BinaryHv> = (0..4).map(|_| rng.binary_hv(dim)).collect();
        let levels: Vec<u16> = (0..n).map(|_| rng.index(4) as u16).collect();
        let (feature_tiles, value_tiles) =
            (TileBlock::from_hvs(dim, &hvs), TileBlock::from_hvs(dim, &values));
        let bundle = |k: &'static Kernel| {
            let mut staged = BitSliceAccumulator::with_kernel(dim, k);
            staged.add_staged(n, |i, slot| slot.copy_from_slice(hvs[i].bits().words()));
            let mut columns = BitSliceAccumulator::with_kernel(dim, k);
            columns.bundle_row(&feature_tiles, &value_tiles, &levels);
            (
                staged.counts(),
                staged.majority_ties_positive(),
                columns.counts(),
                columns.majority_ties_positive(),
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

/// The column bind-and-count on every backend against the scalar
/// reference over the whole grid: dimensions with and without a
/// partial last tile and a partial last word, feature counts around
/// the 16-input group and the 256-input fold up to the ISOLET shape's
/// 617 and 4100, whose 13 planes take the 256s carry of 16 second-level
/// folds, and M = 2 and 16, with garbage past `dim` in every
/// feature and value word and in the tile padding.
#[test]
fn bind_bundle_columns_matches_scalar_on_the_grid() {
    let dims = [64, 130, 511, 512, 513, 1030, 2112, 10_000];
    let feature_counts = [1, 15, 16, 17, 31, 617, 4100];
    for (case_no, (&dim, &n, m)) in dims
        .iter()
        .flat_map(|d| feature_counts.iter().map(move |n| (d, n)))
        .flat_map(|(d, n)| [2, 16].map(|m| (d, n, m)))
        .enumerate()
    {
        let case = ColumnCase::new(dim, n, m, case_no as u64);
        let want = case.planes(kernel::scalar(), planes_for(n) + 1);
        for k in non_scalar_backends() {
            assert_eq!(
                case.planes(k, planes_for(n) + 1),
                want,
                "bind_bundle_columns: {} at D = {dim}, N = {n}, M = {m}",
                k.name
            );
        }
    }
}

/// Every backend checks a column call before reading through a raw
/// pointer: a level not below `M`, a feature block a word short of `N`
/// tile-major vectors, a value block that is not whole vectors, and a
/// missing or short plane each panic.
#[test]
fn bind_bundle_columns_panic_on_bad_shapes() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let case = ColumnCase::new(1030, 40, 4, 1);
    let n_planes = planes_for(40);
    for k in kernel::available() {
        let run = |features: &[u64], values: &[u64], levels: &[u16], planes: &mut Vec<Vec<u64>>| {
            let row = BoundRow {
                features,
                values,
                levels,
                dim: 1030,
            };
            catch_unwind(AssertUnwindSafe(|| {
                (k.bind_bundle_columns)(&row, &mut Vec::new(), planes)
            }))
        };
        let planes = vec![vec![0u64; 17]; n_planes];
        assert!(
            run(
                &case.feature_block,
                &case.value_block,
                &case.levels,
                &mut planes.clone()
            )
            .is_ok(),
            "{}: a well-formed call",
            k.name
        );
        let mut bad_level = case.levels.clone();
        bad_level[39] = 4;
        let short_features = &case.feature_block[..case.feature_block.len() - 1];
        let ragged_values = &case.value_block[..case.value_block.len() - 1];
        let bad = [
            (
                "level = M",
                run(
                    &case.feature_block,
                    &case.value_block,
                    &bad_level,
                    &mut planes.clone(),
                ),
            ),
            (
                "short feature block",
                run(
                    short_features,
                    &case.value_block,
                    &case.levels,
                    &mut planes.clone(),
                ),
            ),
            (
                "ragged value block",
                run(
                    &case.feature_block,
                    ragged_values,
                    &case.levels,
                    &mut planes.clone(),
                ),
            ),
            (
                "missing plane",
                run(
                    &case.feature_block,
                    &case.value_block,
                    &case.levels,
                    &mut planes[1..].to_vec(),
                ),
            ),
            (
                "short plane",
                run(
                    &case.feature_block,
                    &case.value_block,
                    &case.levels,
                    &mut vec![vec![0u64; 16]; n_planes],
                ),
            ),
        ];
        for (what, result) in bad {
            assert!(result.is_err(), "{}: {what} must panic", k.name);
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
