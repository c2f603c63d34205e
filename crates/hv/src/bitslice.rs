//! Word-parallel bundling via bit-sliced (carry-save) counters.
//!
//! [`BundleAccumulator`](crate::BundleAccumulator) keeps one `i32` per
//! dimension, so adding a hypervector costs `D` scalar adds. A
//! [`BitSliceAccumulator`] instead keeps the per-dimension counter
//! *transposed*: counter bit `p` of all `D` dimensions lives in one
//! packed `u64` plane, so every counter update is `AND`/`XOR`/`OR` on
//! whole 64-dimension words.
//!
//! ## Cost
//!
//! A single [`BitSliceAccumulator::add`] is a ripple-carry increment:
//! it walks up the planes while *any* of the `⌈D/64⌉` words still
//! carries. At `D = 10 000` some dimension almost always does, so one
//! add costs about one ripple step per allocated plane — ~`log2(count)`
//! plane passes, ten at the paper's `N = 617` features, not a small
//! constant. The bulk adds remove that factor with Harley–Seal carry-
//! save steps (Muła/Kurz/Lemire, arXiv:1611.07612). Each group of 16
//! inputs goes through one step — 15 full adders per word that fold
//! the group into the four low planes (ones/twos/fours/eights) and
//! leave a sixteens carry. All three bulk adds share one loop that goes
//! further:
//!
//! * a last, shorter group is padded with zero inputs rather than added
//!   one by one;
//! * every 16 nonzero sixteens carries go through a second carry-save
//!   step into planes 4–7, and only its 256s carry ripples over the
//!   planes above; fewer than 16 left over at the end ripple from
//!   plane 4.
//!
//! Per input that is about one full adder (five word operations), a
//! sixteenth of one more and a 256th of a ripple, against one ripple
//! step per plane for a single add (`speedup_carry_save_vs_ripple` in
//! `bench_encoding` measures both at the ISOLET shape). The front
//! doors differ in where the inputs come from: `add_bound_pairs` XORs
//! zero-copy `(feature, value)` slices as the fused-bind step loads
//! them (paper Eq. 2 without a table or a staging copy),
//! [`BitSliceAccumulator::add_staged`] has the caller write each input
//! into a staging slot, and [`BitSliceAccumulator::add_slices`] reads
//! caller slices zero-copy (a bound-pair table). Either way the planes
//! end up holding the same binary counts, so every result below is
//! identical whichever path filled them.
//!
//! ## Layout
//!
//! `planes[p][w]` holds bit `p` of the bundle counters for dimensions
//! `64·w .. 64·w+63`. The counter value for dimension `d` is
//! `c_d = Σ_p bit(planes[p][d/64], d%64) << p` — the number of added
//! vectors whose dimension `d` was −1 (set bit ⇔ −1, as everywhere in
//! this crate). The bipolar sum is then `count − 2·c_d`, recovered by
//! [`BitSliceAccumulator::to_int`] or thresholded directly by the
//! majority methods without ever materializing integers.
//!
//! ## Tie policy
//!
//! Exactly mirrors [`IntHv`] binarization:
//! [`BitSliceAccumulator::majority_ties_positive`] maps a zero sum to
//! +1, and [`BitSliceAccumulator::majority_with`] consumes one
//! `rng.coin()` per tied dimension **in ascending dimension order**, so
//! both are bit-exact drop-ins for the scalar path (property-tested in
//! `tests/bitslice_equivalence.rs`).

use crate::binary::BinaryHv;
use crate::bitvec::BitWords;
use crate::dense::IntHv;
use crate::kernel::{self, CarrySaveGroup, CarrySavePlanes, Kernel, CARRY_SAVE_INPUTS};
use crate::rng::HvRng;

/// Word-parallel bundling accumulator over bit-sliced counter planes.
///
/// # Examples
///
/// ```
/// use hypervec::{BitSliceAccumulator, BundleAccumulator, HvRng};
///
/// let mut rng = HvRng::from_seed(3);
/// let hvs: Vec<_> = (0..9).map(|_| rng.binary_hv(1000)).collect();
///
/// let mut fast = BitSliceAccumulator::new(1000);
/// let mut reference = BundleAccumulator::new(1000);
/// for hv in &hvs {
///     fast.add(hv);
///     reference.add(hv);
/// }
/// assert_eq!(fast.majority_ties_positive(), reference.majority_ties_positive());
/// assert_eq!(fast.to_int(), *reference.sums());
/// ```
#[derive(Debug, Clone)]
pub struct BitSliceAccumulator {
    dim: usize,
    n_words: usize,
    /// Counter bit-planes, least-significant first.
    planes: Vec<Vec<u64>>,
    /// Carry scratch buffer reused across adds (zero-alloc hot path).
    scratch: Vec<u64>,
    /// Input slots for [`Self::add_staged`], `n_words` each, allocated
    /// on first use and kept across [`Self::clear`].
    staging: Vec<u64>,
    /// The bulk adds' pending sixteens carries, up to 16 slots of
    /// `n_words`.
    sixteens: Vec<u64>,
    /// `n_words` zero words that pad a bulk add's last, short group.
    zeros: Vec<u64>,
    /// Number of vectors added.
    count: usize,
    /// Backend every plane update runs on.
    kernel: &'static Kernel,
}

impl BitSliceAccumulator {
    /// Creates an empty accumulator of dimension `dim` on the process's
    /// active kernel backend ([`kernel::active`]).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self::with_kernel(dim, kernel::active())
    }

    /// Creates an empty accumulator running on an explicit kernel
    /// backend — how the benchmarks time each backend's bundling in one
    /// process. Results are identical on every backend.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn with_kernel(dim: usize, kernel: &'static Kernel) -> Self {
        assert!(dim > 0, "accumulator dimension must be positive");
        let n_words = dim.div_ceil(64);
        BitSliceAccumulator {
            dim,
            n_words,
            planes: Vec::new(),
            scratch: vec![0; n_words],
            staging: Vec::new(),
            sixteens: Vec::new(),
            zeros: Vec::new(),
            count: 0,
            kernel,
        }
    }

    /// Dimensionality `D`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors added since creation or [`Self::clear`].
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of counter bit-planes currently allocated. Per-vector adds
    /// grow the stack only when a carry runs past the top plane, so it
    /// never exceeds `⌊log2(count)⌋ + 1`; a bulk add also allocates the
    /// four low planes its carry-save step writes, and the eight of the
    /// second carry-save level once a bulk add runs one, even when the
    /// counts would fit in fewer. [`Self::clear`] keeps them all.
    #[must_use]
    pub fn n_planes(&self) -> usize {
        self.planes.len()
    }

    /// Resets to the empty bundle, keeping allocations for reuse.
    ///
    /// This is the scratch-buffer contract of the batch encoders: one
    /// accumulator per worker thread, `clear()` between samples, no
    /// per-sample allocation once the plane stack has grown.
    pub fn clear(&mut self) {
        for plane in &mut self.planes {
            plane.iter_mut().for_each(|w| *w = 0);
        }
        self.count = 0;
    }

    /// Adds a hypervector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add(&mut self, hv: &BinaryHv) {
        assert_eq!(self.dim, hv.dim(), "dimension mismatch in bit-sliced add");
        self.scratch.copy_from_slice(hv.bits().words());
        self.add_scratch();
    }

    /// Adds a hypervector given as raw packed words — the entry point
    /// for callers that assembled the vector word-by-word. Bits at
    /// positions ≥ `dim` in the last word are ignored.
    ///
    /// Bit-exact with [`BitSliceAccumulator::add`] of the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from `⌈dim/64⌉`.
    pub fn add_words(&mut self, words: &[u64]) {
        check_words(self.n_words, words);
        self.scratch.copy_from_slice(words);
        self.add_scratch();
    }

    /// Bulk add of packed vectors the caller already holds (a
    /// precomputed bound-pair table), read straight from the caller's
    /// slices by the shared carry-save loop. Bits at positions ≥ `dim`
    /// are ignored.
    ///
    /// Bit-exact with calling [`Self::add_words`] on each input in turn.
    ///
    /// # Panics
    ///
    /// Panics if an input's length differs from `⌈dim/64⌉`.
    pub fn add_slices<'a>(&mut self, inputs: impl IntoIterator<Item = &'a [u64]>) {
        let n_words = self.n_words;
        let mut inputs = inputs.into_iter();
        self.bulk_add(|k, zeros, low, carry| {
            let mut group: CarrySaveGroup<'_> = [zeros; CARRY_SAVE_INPUTS];
            let mut len = 0;
            for (slot, words) in group.iter_mut().zip(&mut inputs) {
                check_words(n_words, words);
                *slot = words;
                len += 1;
            }
            (len, len > 0 && (k.carry_save_16)(&group, low, carry))
        });
    }

    /// Bulk add of bound pairs `feature ^ value` (paper Eq. 2) given as
    /// zero-copy `(feature words, value words)` slices: the fused-bind
    /// carry-save step XORs each pair as it loads it, so no bound vector
    /// is ever written to memory. The encoders' cold row path. Bits at
    /// positions ≥ `dim` are ignored.
    ///
    /// Bit-exact with calling [`Self::add_words`] on each `feature ^
    /// value` in turn.
    ///
    /// # Panics
    ///
    /// Panics if a slice's length differs from `⌈dim/64⌉`.
    pub fn add_bound_pairs<'a>(&mut self, pairs: impl IntoIterator<Item = (&'a [u64], &'a [u64])>) {
        let n_words = self.n_words;
        let mut pairs = pairs.into_iter();
        self.bulk_add(|k, zeros, low, carry| {
            let mut a: CarrySaveGroup<'_> = [zeros; CARRY_SAVE_INPUTS];
            let mut b = a;
            let mut len = 0;
            for ((fea_slot, val_slot), (fea, val)) in a.iter_mut().zip(b.iter_mut()).zip(&mut pairs)
            {
                check_words(n_words, fea);
                check_words(n_words, val);
                (*fea_slot, *val_slot) = (fea, val);
                len += 1;
            }
            (len, len > 0 && (k.bind_carry_save_16)(&a, &b, low, carry))
        });
    }

    /// Bulk add of `n` vectors the caller computes on the fly (a masked
    /// table select, a freshly derived feature): `fill(i, slot)` writes
    /// input `i` into `slot`, a `⌈dim/64⌉`-word buffer owned by the
    /// accumulator whose previous contents it must overwrite. Each group
    /// of 16 is staged in a block the accumulator keeps across
    /// [`Self::clear`] and folded by the shared carry-save loop, so
    /// steady-state use allocates nothing; `fill` runs for `i = 0, 1,
    /// …, n − 1` in order. Bits at positions ≥ `dim` are ignored.
    ///
    /// Bit-exact with calling [`Self::add_words`] on each filled slot in
    /// turn.
    pub fn add_staged(&mut self, n: usize, mut fill: impl FnMut(usize, &mut [u64])) {
        let n_words = self.n_words;
        let mut staging = std::mem::take(&mut self.staging);
        staging.resize(CARRY_SAVE_INPUTS * n_words, 0);
        let mut next = 0;
        self.bulk_add(|k, zeros, low, carry| {
            let len = (n - next).min(CARRY_SAVE_INPUTS);
            for (j, slot) in staging.chunks_exact_mut(n_words).take(len).enumerate() {
                fill(next + j, slot);
            }
            let group = std::array::from_fn(|j| {
                if j < len {
                    &staging[j * n_words..(j + 1) * n_words]
                } else {
                    zeros
                }
            });
            next += len;
            (len, len > 0 && (k.carry_save_16)(&group, low, carry))
        });
        self.staging = staging;
    }

    /// Clears bits at positions ≥ `dim` in the last word of `words`.
    fn mask_tail(dim: usize, words: &mut [u64]) {
        let tail = dim % 64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Adds the vector held in `scratch`, consuming it as the carry.
    fn add_scratch(&mut self) {
        Self::mask_tail(self.dim, &mut self.scratch);
        self.count += 1;
        Self::ripple(&mut self.planes, self.kernel, 0, &mut self.scratch);
    }

    /// Allocates counter planes up to `n` (zeroed).
    fn grow_planes(&mut self, n: usize) {
        while self.planes.len() < n {
            self.planes.push(vec![0; self.n_words]);
        }
    }

    /// The loop the bulk adds share. `fold(kernel, zeros, low, carry)`
    /// runs one carry-save step over the next (at most 16) inputs into
    /// the four low planes `low`, padding a short group with the zero
    /// slice `zeros`, writes its sixteens carry into `carry` and returns
    /// how many inputs it added — 0 once they run out (then it must not
    /// have touched `low` or `carry`) — and whether the carry is
    /// nonzero. Every 16 nonzero sixteens carries go through a second
    /// carry-save step into planes 4–7, whose 256s carry ripples from
    /// plane 8; the fewer than 16 left at the end ripple from plane 4
    /// one by one. Slots for pending carries grow with use and are kept
    /// across [`Self::clear`].
    fn bulk_add(
        &mut self,
        mut fold: impl FnMut(&'static Kernel, &[u64], CarrySavePlanes<'_>, &mut [u64]) -> (usize, bool),
    ) {
        let n_words = self.n_words;
        self.grow_planes(4);
        self.zeros.resize(n_words, 0);
        let mut sixteens = std::mem::take(&mut self.sixteens);
        let mut pending = 0;
        loop {
            if sixteens.len() < (pending + 1) * n_words {
                sixteens.resize((pending + 1) * n_words, 0);
            }
            let carry = &mut sixteens[pending * n_words..(pending + 1) * n_words];
            let [ones, twos, fours, eights, ..] = &mut self.planes[..] else {
                unreachable!("the four low planes were allocated above");
            };
            let low = [ones, twos, fours, eights].map(|plane| plane.as_mut_slice());
            let (added, live) = fold(self.kernel, &self.zeros, low, carry);
            if added == 0 {
                break;
            }
            // Counters are independent per bit position, so garbage past
            // `dim` in an input reaches only the tail bits it was added
            // to; masking here keeps it out of every higher plane.
            for plane in &mut self.planes[..4] {
                Self::mask_tail(self.dim, plane);
            }
            Self::mask_tail(self.dim, carry);
            self.count += added;
            if !live {
                continue;
            }
            pending += 1;
            if pending == CARRY_SAVE_INPUTS {
                self.fold_sixteens(&sixteens);
                pending = 0;
            }
        }
        for carry in sixteens.chunks_exact_mut(n_words).take(pending) {
            Self::ripple(&mut self.planes, self.kernel, 4, carry);
        }
        self.sixteens = sixteens;
    }

    /// The second carry-save level: folds 16 sixteens carries into
    /// planes 4–7 (sixteens to 128s) and ripples their 256s carry from
    /// plane 8.
    fn fold_sixteens(&mut self, sixteens: &[u64]) {
        self.grow_planes(8);
        let n_words = self.n_words;
        let group = std::array::from_fn(|j| &sixteens[j * n_words..(j + 1) * n_words]);
        let [_, _, _, _, p4, p5, p6, p7, ..] = &mut self.planes[..] else {
            unreachable!("planes 4–7 were just allocated");
        };
        let low = [p4, p5, p6, p7].map(|plane| plane.as_mut_slice());
        if (self.kernel.carry_save_16)(&group, low, &mut self.scratch) {
            Self::ripple(&mut self.planes, self.kernel, 8, &mut self.scratch);
        }
    }

    /// Ripple-carry adds `carry` into the counters from plane `first` up
    /// (`first ≤ planes.len()`), consuming it.
    fn ripple(planes: &mut Vec<Vec<u64>>, kernel: &Kernel, first: usize, carry: &mut [u64]) {
        for plane in &mut planes[first..] {
            if !(kernel.ripple_step)(plane, carry) {
                return;
            }
        }
        // Remaining carries overflow into a fresh plane; adding a carry
        // to an all-zero plane can itself not carry again.
        if carry.iter().any(|&c| c != 0) {
            planes.push(carry.to_vec());
        }
    }

    /// Per-dimension counts of −1 contributions (`c_d`).
    #[must_use]
    pub fn counts(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.dim];
        for (p, plane) in self.planes.iter().enumerate() {
            let weight = 1u32 << p;
            for (w, &word) in plane.iter().enumerate() {
                let mut m = word;
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    out[w * 64 + b] += weight;
                    m &= m - 1;
                }
            }
        }
        out
    }

    /// Widens to the integer bundle sums, identical to accumulating the
    /// same vectors through [`crate::BundleAccumulator`].
    #[must_use]
    pub fn to_int(&self) -> IntHv {
        IntHv::from_bundle_counts(self.count, &self.counts())
    }

    /// Word-parallel comparison of every counter against `threshold`:
    /// per-dimension `(c_d > threshold, c_d == threshold)` masks.
    fn threshold_masks(&self, threshold: u64) -> (Vec<u64>, Vec<u64>) {
        let t_bits = (u64::BITS - threshold.leading_zeros()) as usize;
        let p_max = self.planes.len().max(t_bits);
        let k = self.kernel;
        let mut gt = vec![0u64; self.n_words];
        let mut eq = vec![u64::MAX; self.n_words];
        for p in (0..p_max).rev() {
            let t_bit = (threshold >> p) & 1 == 1;
            match self.planes.get(p) {
                Some(plane) => (k.threshold_step)(plane, t_bit, &mut gt, &mut eq),
                // Missing plane ⇒ counter bit is 0 everywhere: with the
                // threshold bit set no counter can still be equal; with
                // it clear the step is a no-op.
                None => {
                    if t_bit {
                        eq.iter_mut().for_each(|w| *w = 0);
                    }
                }
            }
        }
        // Dimensions beyond `dim` in the last word carry no meaning.
        let tail = self.dim % 64;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            gt[self.n_words - 1] &= mask;
            eq[self.n_words - 1] &= mask;
        }
        (gt, eq)
    }

    /// Majority vote mapping ties to +1, bit-exact with
    /// `self.to_int().sign_ties_positive()` but computed entirely on
    /// packed words: the sum `count − 2·c_d` is negative iff
    /// `c_d > ⌊count/2⌋`.
    #[must_use]
    pub fn majority_ties_positive(&self) -> BinaryHv {
        let (gt, _) = self.threshold_masks((self.count / 2) as u64);
        BinaryHv::from_bits(BitWords::from_words(gt, self.dim))
    }

    /// Majority vote with random `sign(0)` tie-break, bit-exact with
    /// `self.to_int().sign_with(rng)`: one `rng.coin()` is consumed per
    /// tied dimension, in ascending dimension order.
    #[must_use]
    pub fn majority_with(&self, rng: &mut HvRng) -> BinaryHv {
        let (mut gt, eq) = self.threshold_masks((self.count / 2) as u64);
        if self.count.is_multiple_of(2) {
            // Ties (sum exactly zero) are possible only for even counts.
            for (w, &ties) in eq.iter().enumerate() {
                let mut m = ties;
                while m != 0 {
                    let b = m.trailing_zeros();
                    if rng.coin() {
                        gt[w] |= 1u64 << b;
                    }
                    m &= m - 1;
                }
            }
        }
        BinaryHv::from_bits(BitWords::from_words(gt, self.dim))
    }
}

/// Panics unless `words` holds exactly `n_words` words.
fn check_words(n_words: usize, words: &[u64]) {
    assert_eq!(
        n_words,
        words.len(),
        "word-count mismatch in bit-sliced add"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BundleAccumulator;

    fn reference_pair(dim: usize, n: usize, seed: u64) -> (BitSliceAccumulator, BundleAccumulator) {
        let mut rng = HvRng::from_seed(seed);
        let mut fast = BitSliceAccumulator::new(dim);
        let mut slow = BundleAccumulator::new(dim);
        for _ in 0..n {
            let hv = rng.binary_hv(dim);
            fast.add(&hv);
            slow.add(&hv);
        }
        (fast, slow)
    }

    #[test]
    fn empty_matches_bundle_accumulator() {
        let acc = BitSliceAccumulator::new(70);
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.to_int(), IntHv::zeros(70));
        assert_eq!(acc.majority_ties_positive(), BinaryHv::ones(70));
    }

    #[test]
    fn sums_match_reference_across_counts() {
        for n in [1, 2, 3, 4, 7, 8, 15, 16, 17, 64, 100] {
            let (fast, slow) = reference_pair(130, n, n as u64);
            assert_eq!(fast.to_int(), *slow.sums(), "n = {n}");
            assert_eq!(fast.count(), slow.count());
        }
    }

    #[test]
    fn majority_matches_reference() {
        for n in [1, 2, 5, 6, 31, 32] {
            let (fast, slow) = reference_pair(1000, n, 100 + n as u64);
            assert_eq!(
                fast.majority_ties_positive(),
                slow.majority_ties_positive(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn random_tie_break_consumes_identical_coins() {
        // Even count ⇒ ties exist; both paths must draw the same coins.
        let (fast, slow) = reference_pair(4096, 6, 9);
        let mut rng_a = HvRng::from_seed(77);
        let mut rng_b = HvRng::from_seed(77);
        assert_eq!(
            fast.majority_with(&mut rng_a),
            slow.majority_with(&mut rng_b)
        );
        // Streams stay aligned after the call.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn bound_pair_add_matches_explicit_bind() {
        // The fused bind (paper Eq. 2) the encoders run, never a
        // materialized product: XORed in the carry-save step as it loads
        // each pair, or one XOR per word straight into a staging slot.
        let mut rng = HvRng::from_seed(4);
        let pairs: Vec<(BinaryHv, BinaryHv)> = (0..21)
            .map(|_| (rng.binary_hv(300), rng.binary_hv(300)))
            .collect();
        let mut fused = BitSliceAccumulator::new(300);
        fused.add_bound_pairs(
            pairs
                .iter()
                .map(|(a, b)| (a.bits().words(), b.bits().words())),
        );
        let mut staged = BitSliceAccumulator::new(300);
        staged.add_staged(pairs.len(), |i, slot| {
            let (a, b) = &pairs[i];
            (kernel::active().xor_into)(a.bits().words(), b.bits().words(), slot);
        });
        let mut explicit = BitSliceAccumulator::new(300);
        for (a, b) in &pairs {
            explicit.add(&a.bind(b));
        }
        assert_eq!(fused.to_int(), explicit.to_int());
        assert_eq!(staged.to_int(), explicit.to_int());
    }

    #[test]
    fn add_words_matches_add_and_masks_the_tail() {
        let mut rng = HvRng::from_seed(11);
        let mut via_hv = BitSliceAccumulator::new(130);
        let mut via_words = BitSliceAccumulator::new(130);
        for i in 0..5 {
            let hv = rng.binary_hv(130);
            via_hv.add(&hv);
            let mut words = hv.bits().words().to_vec();
            if i == 2 {
                // Garbage past `dim` must be ignored.
                *words.last_mut().unwrap() |= !((1u64 << (130 % 64)) - 1);
            }
            via_words.add_words(&words);
        }
        assert_eq!(via_hv.to_int(), via_words.to_int());
        assert_eq!(
            via_hv.majority_ties_positive(),
            via_words.majority_ties_positive()
        );
    }

    #[test]
    #[should_panic(expected = "word-count mismatch")]
    fn add_words_rejects_wrong_word_count() {
        let mut acc = BitSliceAccumulator::new(64);
        acc.add_words(&[0, 0]);
    }

    #[test]
    fn clear_resets_without_shrinking_planes() {
        let (mut fast, _) = reference_pair(256, 9, 5);
        let planes_before = fast.n_planes();
        fast.clear();
        assert_eq!(fast.count(), 0);
        assert_eq!(fast.n_planes(), planes_before, "allocations are kept");
        assert_eq!(fast.to_int(), IntHv::zeros(256));
        // Reuse after clear behaves like a fresh accumulator.
        let mut rng = HvRng::from_seed(6);
        let hv = rng.binary_hv(256);
        fast.add(&hv);
        assert_eq!(fast.majority_ties_positive(), hv);
    }

    #[test]
    fn plane_count_grows_logarithmically() {
        let (fast, _) = reference_pair(64, 100, 8);
        assert!(
            fast.n_planes() <= 7,
            "100 adds need ≤ 7 planes, got {}",
            fast.n_planes()
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_rejects_wrong_dimension() {
        let mut acc = BitSliceAccumulator::new(64);
        let hv = BinaryHv::ones(65);
        acc.add(&hv);
    }
}
