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
//! leave a sixteens carry. Both bulk paths go further:
//!
//! * a last, shorter group is padded with zero inputs rather than added
//!   one by one;
//! * every 16 sixteens carries (nonzero ones, on the staged path) go
//!   through a second carry-save step into planes 4–7, and only its
//!   256s carry ripples over the planes above.
//!
//! Per input that is about one full adder (five word operations, or
//! two `vpternlogq`), a sixteenth of one more and a 256th of a ripple,
//! against one ripple step per plane for a single add
//! (`speedup_carry_save_vs_ripple` in `bench_encoding` measures both at
//! the ISOLET shape). The two bulk paths differ in where inputs come
//! from and how often the planes move:
//!
//! * [`BitSliceAccumulator::add_staged`] has the caller write each
//!   input into a staging slot (a feature, freshly derived or gathered,
//!   bound to its value) and folds each group of 16 plane by
//!   plane, loading and storing the four low planes every group; fewer
//!   than 16 sixteens carries left at the end ripple from plane 4.
//! * [`BitSliceAccumulator::bundle_row`] encodes a whole row from a
//!   [`TileBlock`] of features and one of values, column by column: the
//!   kernel XORs each feature's column with its value's in registers
//!   (paper Eq. 2 without a table or a staging copy), counts all `N`
//!   bound pairs with the four low counter planes held in registers
//!   (the higher ones, touched once per 16 pairs, in a stack buffer),
//!   and writes each plane word once. A tile of every feature is one sequential
//!   stream, so the pass reads the features front to back once.
//!
//! Either way the planes end up holding the same binary counts, so
//! every result below is identical whichever path filled them.
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
use crate::kernel::{self, BoundRow, Kernel, CARRY_SAVE_INPUTS, TILE_WORDS};
use crate::rng::HvRng;

/// `len` packed hypervectors of one dimension stored **tile-major**, the
/// layout [`BitSliceAccumulator::bundle_row`] reads: with `T =
/// ⌈⌈dim/64⌉ / 8⌉` tiles of [`TILE_WORDS`] words per vector, tile `t`
/// of vector `i` holds words `8t .. 8t + 8` of the vector at word
/// `(t·len + i)·8`. One tile of every vector is therefore one
/// contiguous run, which a column pass reads as a single sequential
/// stream. Words past `⌈dim/64⌉` in the last tile are zero padding.
/// The block starts on a 64-byte boundary, so no 512-bit column load
/// splits a cache line.
///
/// Vector `i` comes back out by a plain gather ([`Self::get`]).
///
/// # Examples
///
/// ```
/// use hypervec::{HvRng, TileBlock};
///
/// let mut rng = HvRng::from_seed(5);
/// let hvs: Vec<_> = (0..3).map(|_| rng.binary_hv(700)).collect();
/// let block = TileBlock::from_hvs(700, &hvs);
/// assert_eq!(block.len(), 3);
/// assert_eq!(block.get(2), hvs[2]);
/// ```
pub struct TileBlock {
    /// The block at `buf[start..]`, where `start` is the first 64-byte
    /// boundary: `buf` holds `TILE_WORDS − 1` spare words for it. An
    /// ordinary 8-byte-aligned allocation, not an over-aligned one, so
    /// the allocator recycles a dropped block like any buffer of its
    /// size; over-aligned blocks of encoders rebuilt at every boot and
    /// rekey left holes a served host's peak RSS grew by.
    buf: Vec<u64>,
    start: usize,
    len: usize,
    dim: usize,
}

impl Clone for TileBlock {
    /// Copies into a fresh buffer, which has its own 64-byte boundary.
    fn clone(&self) -> Self {
        let mut out = Self::zeroed(self.len, self.dim);
        out.buf[out.start..][..self.buf.len() - (TILE_WORDS - 1)].copy_from_slice(self.words());
        out
    }
}

impl std::fmt::Debug for TileBlock {
    /// Shape only: the contents may be key-derived features.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileBlock")
            .field("len", &self.len)
            .field("dim", &self.dim)
            .finish_non_exhaustive()
    }
}

impl TileBlock {
    /// A block of `len` all-zero vectors of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn zeroed(len: usize, dim: usize) -> Self {
        assert!(dim > 0, "tile block dimension must be positive");
        let words = len * dim.div_ceil(64).div_ceil(TILE_WORDS) * TILE_WORDS;
        let buf = vec![0u64; words + TILE_WORDS - 1];
        let start = (TILE_WORDS - buf.as_ptr() as usize / 8 % TILE_WORDS) % TILE_WORDS;
        TileBlock {
            buf,
            start,
            len,
            dim,
        }
    }

    /// A block holding `hvs` in order.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or a vector's dimension differs from `dim`.
    #[must_use]
    pub fn from_hvs(dim: usize, hvs: &[BinaryHv]) -> Self {
        let mut block = Self::zeroed(hvs.len(), dim);
        for (i, hv) in hvs.iter().enumerate() {
            assert_eq!(hv.dim(), dim, "dimension mismatch in tile block");
            block.set(i, hv.bits().words());
        }
        block
    }

    /// Number of vectors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no vectors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality `D` of every vector.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The whole block as tile-major words, padding included.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.buf[self.start..][..self.buf.len() - (TILE_WORDS - 1)]
    }

    /// Where tile `t` of vector `i` starts in `buf`.
    fn at(&self, t: usize, i: usize) -> usize {
        self.start + (t * self.len + i) * TILE_WORDS
    }

    /// Panics unless vector `i` exists and `n_words` is its word count.
    fn check(&self, i: usize, n_words: usize) {
        assert!(
            i < self.len,
            "vector {i} out of range ({} vectors)",
            self.len
        );
        assert_eq!(
            n_words,
            self.dim.div_ceil(64),
            "word-count mismatch in tile block"
        );
    }

    /// Overwrites vector `i` with the `⌈dim/64⌉` packed words `words`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `words` has the wrong length.
    pub fn set(&mut self, i: usize, words: &[u64]) {
        self.check(i, words.len());
        for (t, chunk) in words.chunks(TILE_WORDS).enumerate() {
            let at = self.at(t, i);
            self.buf[at..at + chunk.len()].copy_from_slice(chunk);
        }
    }

    /// Gathers vector `i` into `out`, `⌈dim/64⌉` words.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `out` has the wrong length.
    pub fn get_into(&self, i: usize, out: &mut [u64]) {
        self.check(i, out.len());
        for (t, chunk) in out.chunks_mut(TILE_WORDS).enumerate() {
            let at = self.at(t, i);
            chunk.copy_from_slice(&self.buf[at..at + chunk.len()]);
        }
    }

    /// Vector `i`, gathered.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> BinaryHv {
        let mut words = vec![0; self.dim.div_ceil(64)];
        self.get_into(i, &mut words);
        BinaryHv::from_bits(BitWords::from_words(words, self.dim))
    }
}

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
    /// [`Self::add_staged`]'s pending sixteens carries, up to 16 slots
    /// of `n_words`.
    sixteens: Vec<u64>,
    /// `n_words` zero words that pad a staged add's last, short group.
    zeros: Vec<u64>,
    /// [`Self::bundle_row`]'s value offsets, one per feature of a row.
    offsets: Vec<u32>,
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
            offsets: Vec::new(),
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
    /// never exceeds `⌊log2(count)⌋ + 1`; a staged add also allocates
    /// the four low planes its carry-save step writes, and the eight of
    /// the second carry-save level once it runs one, even when the
    /// counts would fit in fewer, and [`Self::bundle_row`] allocates the
    /// `⌊log2 N⌋ + 1` its row needs. [`Self::clear`] keeps them all.
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

    /// Resets the accumulator to one encoded row: the bundle of the `N`
    /// bound pairs `features[i] ^ values[levels[i]]` (paper Eq. 2), with
    /// `N = levels.len()` — [`Kernel::bind_bundle_columns`] counts them
    /// column by column and writes the `⌊log2 N⌋ + 1` planes they need
    /// (higher planes left from earlier use are zeroed), and
    /// [`Self::count`] becomes `N`. The row's value offsets go through a
    /// scratch buffer the accumulator keeps, so steady-state use
    /// allocates nothing. Bits at positions ≥ `dim` are ignored.
    ///
    /// Bit-exact with clearing and calling [`Self::add_words`] on each
    /// `features[i] ^ values[levels[i]]` in turn.
    ///
    /// # Panics
    ///
    /// Panics if a level is not below `values.len()`, if `levels.len()`
    /// differs from `features.len()`, or if a block's dimension differs
    /// from the accumulator's.
    pub fn bundle_row(&mut self, features: &TileBlock, values: &TileBlock, levels: &[u16]) {
        assert_eq!(
            features.dim(),
            self.dim,
            "dimension mismatch in bit-sliced add"
        );
        assert_eq!(
            values.dim(),
            self.dim,
            "dimension mismatch in bit-sliced add"
        );
        assert_eq!(
            levels.len(),
            features.len(),
            "row has {} levels for {} features",
            levels.len(),
            features.len()
        );
        let n_planes = (usize::BITS - levels.len().leading_zeros()) as usize;
        self.grow_planes(n_planes);
        for plane in &mut self.planes[n_planes..] {
            plane.iter_mut().for_each(|w| *w = 0);
        }
        let row = BoundRow {
            features: features.words(),
            values: values.words(),
            levels,
            dim: self.dim,
        };
        (self.kernel.bind_bundle_columns)(&row, &mut self.offsets, &mut self.planes);
        self.count = levels.len();
    }

    /// Bulk add of `n` vectors the caller computes on the fly (a freshly
    /// derived feature bound to its value, a gathered feature with a
    /// masked value select XORed in): `fill(i, slot)` writes input `i`
    /// into `slot`, a `⌈dim/64⌉`-word buffer owned by the accumulator
    /// whose previous contents it must overwrite. Each group
    /// of 16 is staged in a block the accumulator keeps across
    /// [`Self::clear`] and folded by the shared carry-save loop, so
    /// steady-state use allocates nothing; `fill` runs for `i = 0, 1,
    /// …, n − 1` in order. Bits at positions ≥ `dim` are ignored.
    ///
    /// Bit-exact with calling [`Self::add_words`] on each filled slot in
    /// turn.
    pub fn add_staged(&mut self, n: usize, mut fill: impl FnMut(usize, &mut [u64])) {
        let n_words = self.n_words;
        self.grow_planes(4);
        self.zeros.resize(n_words, 0);
        let mut staging = std::mem::take(&mut self.staging);
        staging.resize(CARRY_SAVE_INPUTS * n_words, 0);
        let mut sixteens = std::mem::take(&mut self.sixteens);
        let mut pending = 0;
        for start in (0..n).step_by(CARRY_SAVE_INPUTS) {
            let len = (n - start).min(CARRY_SAVE_INPUTS);
            for (j, slot) in staging.chunks_exact_mut(n_words).take(len).enumerate() {
                fill(start + j, slot);
            }
            let group = std::array::from_fn(|j| {
                if j < len {
                    &staging[j * n_words..(j + 1) * n_words]
                } else {
                    self.zeros.as_slice()
                }
            });
            if sixteens.len() < (pending + 1) * n_words {
                sixteens.resize((pending + 1) * n_words, 0);
            }
            let carry = &mut sixteens[pending * n_words..(pending + 1) * n_words];
            let [ones, twos, fours, eights, ..] = &mut self.planes[..] else {
                unreachable!("the four low planes were allocated above");
            };
            let low = [ones, twos, fours, eights].map(|plane| plane.as_mut_slice());
            let live = (self.kernel.carry_save_16)(&group, low, carry);
            // Counters are independent per bit position, so garbage past
            // `dim` in an input reaches only the tail bits it was added
            // to; masking here keeps it out of every higher plane.
            for plane in &mut self.planes[..4] {
                Self::mask_tail(self.dim, plane);
            }
            Self::mask_tail(self.dim, carry);
            self.count += len;
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
        self.staging = staging;
        self.sixteens = sixteens;
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
