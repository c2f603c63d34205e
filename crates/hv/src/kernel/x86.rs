//! x86_64 backends (`std::arch` intrinsics): `avx2` and `avx512`.
//!
//! In the `avx2` table, 256-bit lanes carry four `u64` words (or eight
//! `i32` values) per operation: XOR/AND/OR on `__m256i`, popcount via
//! the vpshufb nibble-LUT + `vpsadbw` reduction, the widening
//! `vpmuldq` 32→64-bit multiply for integer dot products, and
//! bind-and-count columns of four words, two per tile. Tails shorter
//! than a full vector run the scalar code, so results are defined for
//! every slice length; the bind-and-count reads the padded last tile
//! whole and stores only its words inside the vector.
//!
//! The `avx512` table is the `avx2` table with its three
//! popcount-bound entries — `popcount`, `hamming` and
//! `hamming_rows_stride` — replaced by 512-bit `vpopcntq`
//! (AVX-512 VPOPCNTDQ) versions: eight words per vector, and masked
//! loads for the tail, so there is no scalar tail. It also carries its
//! own bundling body, `bind_bundle_columns` on one 512-bit column per
//! tile, whose full adder is two `vpternlogq` (majority and parity),
//! with masked loads and stores for the last tile. Its other entries
//! are the AVX2 functions themselves.
//!
//! # Safety
//!
//! [`super::available`] hands out the `avx2` table **only after**
//! `is_x86_feature_detected!("avx2")` has confirmed the CPU supports
//! AVX2, and the `avx512` table only after both `avx512f` and
//! `avx512vpopcntdq` are detected (a CPU with AVX-512F has AVX2).
//! Those features are the sole precondition of the
//! `#[target_feature]` functions below. All pointer accesses are
//! unaligned loads/stores within slice bounds (a masked load touches
//! only its enabled lanes); the strided row scans assert their row
//! bounds, and the bind-and-count its block, level and plane bounds,
//! before entering the unsafe body.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m256i, __m512i, __mmask8, _mm256_abs_epi16, _mm256_add_epi32, _mm256_add_epi64,
    _mm256_add_epi8, _mm256_and_si256, _mm256_extract_epi64, _mm256_loadu_si256, _mm256_madd_epi16,
    _mm256_max_epu16, _mm256_mul_epi32, _mm256_or_si256, _mm256_permute2x128_si256,
    _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
    _mm256_srai_epi32, _mm256_srli_epi16, _mm256_srli_epi64, _mm256_storeu_si256,
    _mm256_testz_si256, _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32,
    _mm256_unpacklo_epi64, _mm256_xor_si256, _mm512_add_epi64, _mm512_castsi512_si256,
    _mm512_extracti64x4_epi64, _mm512_loadu_si512, _mm512_mask_storeu_epi64,
    _mm512_maskz_loadu_epi64, _mm512_popcnt_epi64, _mm512_reduce_add_epi64, _mm512_setzero_si512,
    _mm512_ternarylogic_epi64, _mm512_xor_si512,
};

use super::{
    carry_save_len, scalar, BoundRow, CarrySaveGroup, CarrySavePlanes, ColumnShape, Kernel,
    MAX_UPPER_PLANES, TILE_WORDS,
};

/// `u64` words per 256-bit vector.
const WORDS: usize = 4;
/// `u64` words per 512-bit vector.
const ZMM_WORDS: usize = 8;
/// `i32` values per 256-bit vector.
const INTS: usize = 8;
/// `i16` values per 256-bit vector.
const SHORTS: usize = 16;

/// The AVX2 function set, shared by both tables below.
const AVX2_TABLE: Kernel = Kernel {
    name: "avx2",
    xor_into,
    xor_assign,
    popcount,
    hamming,
    ripple_step,
    carry_save_16,
    bind_bundle_columns,
    threshold_step,
    hamming_rows_stride,
    dot_i32,
    dot_rows_stride,
    dot_i16_rows_stride,
};

/// The AVX2 backend. Only reachable through [`super::available`], which
/// performs the CPU-feature check this table's functions require.
pub(super) static AVX2: Kernel = AVX2_TABLE;

/// The AVX-512 VPOPCNTDQ backend: the AVX2 table with its three
/// popcount-bound entries and its bind-and-count replaced. Only
/// reachable through [`super::available`], which checks `avx512f` and
/// `avx512vpopcntdq`.
pub(super) static AVX512: Kernel = Kernel {
    name: "avx512",
    popcount: popcount_vpopcnt,
    hamming: hamming_vpopcnt,
    hamming_rows_stride: hamming_rows_stride_vpopcnt,
    bind_bundle_columns: bind_bundle_columns_zmm,
    ..AVX2_TABLE
};

fn xor_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { xor_into_avx2(a, b, out) }
}

fn xor_assign(a: &mut [u64], b: &[u64]) {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { xor_assign_avx2(a, b) }
}

fn popcount(words: &[u64]) -> u64 {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { popcount_avx2(words) }
}

fn hamming(a: &[u64], b: &[u64]) -> u64 {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { hamming_avx2(a, b) }
}

fn ripple_step(plane: &mut [u64], carry: &mut [u64]) -> bool {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { ripple_step_avx2(plane, carry) }
}

fn threshold_step(plane: &[u64], t_bit: bool, gt: &mut [u64], eq: &mut [u64]) {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { threshold_step_avx2(plane, t_bit, gt, eq) }
}

/// Panics unless `rows` holds all `n` strided rows a four-row loop
/// reads through raw pointers: row `r` spans `r·stride .. r·stride +
/// len` (the precondition stated on [`Kernel`]).
fn assert_rows_fit(rows: usize, n: usize, stride: usize, len: usize) {
    if let Some(last) = n.checked_sub(1) {
        let end = last
            .checked_mul(stride)
            .and_then(|start| start.checked_add(len));
        assert!(
            end.is_some_and(|end| end <= rows),
            "strided row scan: {n} rows of stride {stride} and length {len} overrun {rows} elements"
        );
    }
}

fn hamming_rows_stride(q_block: &[u64], rows: &[u64], stride: usize, dist: &mut [u32]) {
    assert_rows_fit(rows.len(), dist.len(), stride, q_block.len());
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer, and
    // the assert keeps every row read inside `rows`.
    unsafe { hamming_rows_stride_avx2(q_block, rows, stride, dist) }
}

fn popcount_vpopcnt(words: &[u64]) -> u64 {
    // SAFETY: AVX-512F and VPOPCNTDQ availability is guaranteed by the
    // dispatch layer.
    unsafe { popcount_avx512(words) }
}

fn hamming_vpopcnt(a: &[u64], b: &[u64]) -> u64 {
    // SAFETY: AVX-512F and VPOPCNTDQ availability is guaranteed by the
    // dispatch layer.
    unsafe { hamming_avx512(a, b) }
}

fn hamming_rows_stride_vpopcnt(q_block: &[u64], rows: &[u64], stride: usize, dist: &mut [u32]) {
    assert_rows_fit(rows.len(), dist.len(), stride, q_block.len());
    // SAFETY: AVX-512F and VPOPCNTDQ availability is guaranteed by the
    // dispatch layer, and the assert keeps every row read inside `rows`.
    unsafe { hamming_rows_stride_avx512(q_block, rows, stride, dist) }
}

fn dot_i32(a: &[i32], b: &[i32]) -> i64 {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { dot_i32_avx2(a, b) }
}

fn dot_rows_stride(q_block: &[i32], rows: &[i32], stride: usize, dots: &mut [i64]) {
    assert_rows_fit(rows.len(), dots.len(), stride, q_block.len());
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer, and
    // the assert keeps every row read inside `rows`.
    unsafe { dot_rows_stride_avx2(q_block, rows, stride, dots) }
}

fn dot_i16_rows_stride(q_block: &[i16], rows: &[i16], stride: usize, dots: &mut [i64]) {
    assert_rows_fit(rows.len(), dots.len(), stride, q_block.len());
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer, and
    // the assert keeps every row read inside `rows`.
    unsafe { dot_i16_rows_stride_avx2(q_block, rows, stride, dots) }
}

fn carry_save_16(inputs: &CarrySaveGroup<'_>, low: CarrySavePlanes<'_>, carry: &mut [u64]) -> bool {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { carry_save_16_avx2(inputs, low, carry) }
}

fn bind_bundle_columns(row: &BoundRow<'_>, offsets: &mut Vec<u32>, planes: &mut [Vec<u64>]) {
    let shape = ColumnShape::check(row, offsets, planes);
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer, and
    // `check` bounds every block, offset and plane access.
    unsafe { bind_bundle_columns_avx2(row, &shape, offsets, planes) }
    shape.mask_tail(planes);
}

fn bind_bundle_columns_zmm(row: &BoundRow<'_>, offsets: &mut Vec<u32>, planes: &mut [Vec<u64>]) {
    let shape = ColumnShape::check(row, offsets, planes);
    // SAFETY: AVX-512F availability is guaranteed by the dispatch layer,
    // and `check` bounds every block, offset and plane access.
    unsafe { bind_bundle_columns_avx512(row, &shape, offsets, planes) }
    shape.mask_tail(planes);
}

/// Per-byte popcount of a 256-bit vector via the nibble lookup table,
/// reduced to four per-64-bit-lane sums by `vpsadbw`.
#[target_feature(enable = "avx2")]
unsafe fn popcnt256(v: __m256i) -> __m256i {
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_mask = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low_mask);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
    let counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    _mm256_sad_epu8(counts, _mm256_setzero_si256())
}

/// Horizontal sum of the four `u64` lanes.
#[target_feature(enable = "avx2")]
unsafe fn sum_lanes_u64(v: __m256i) -> u64 {
    (_mm256_extract_epi64::<0>(v) as u64)
        .wrapping_add(_mm256_extract_epi64::<1>(v) as u64)
        .wrapping_add(_mm256_extract_epi64::<2>(v) as u64)
        .wrapping_add(_mm256_extract_epi64::<3>(v) as u64)
}

#[target_feature(enable = "avx2")]
unsafe fn xor_into_avx2(a: &[u64], b: &[u64], out: &mut [u64]) {
    let n = out.len().min(a.len()).min(b.len());
    let blocks = n / WORDS;
    for i in 0..blocks {
        let x = _mm256_loadu_si256(a.as_ptr().add(i * WORDS).cast());
        let y = _mm256_loadu_si256(b.as_ptr().add(i * WORDS).cast());
        _mm256_storeu_si256(
            out.as_mut_ptr().add(i * WORDS).cast(),
            _mm256_xor_si256(x, y),
        );
    }
    for i in blocks * WORDS..n {
        out[i] = a[i] ^ b[i];
    }
}

#[target_feature(enable = "avx2")]
unsafe fn xor_assign_avx2(a: &mut [u64], b: &[u64]) {
    let n = a.len().min(b.len());
    let blocks = n / WORDS;
    for i in 0..blocks {
        let x = _mm256_loadu_si256(a.as_ptr().add(i * WORDS).cast());
        let y = _mm256_loadu_si256(b.as_ptr().add(i * WORDS).cast());
        _mm256_storeu_si256(a.as_mut_ptr().add(i * WORDS).cast(), _mm256_xor_si256(x, y));
    }
    for i in blocks * WORDS..n {
        a[i] ^= b[i];
    }
}

#[target_feature(enable = "avx2")]
unsafe fn popcount_avx2(words: &[u64]) -> u64 {
    let n = words.len();
    let blocks = n / WORDS;
    let mut acc = _mm256_setzero_si256();
    for i in 0..blocks {
        let v = _mm256_loadu_si256(words.as_ptr().add(i * WORDS).cast());
        acc = _mm256_add_epi64(acc, popcnt256(v));
    }
    let mut sum = sum_lanes_u64(acc);
    for w in &words[blocks * WORDS..] {
        sum += u64::from(w.count_ones());
    }
    sum
}

#[target_feature(enable = "avx2")]
unsafe fn hamming_avx2(a: &[u64], b: &[u64]) -> u64 {
    let n = a.len().min(b.len());
    let blocks = n / WORDS;
    let mut acc = _mm256_setzero_si256();
    for i in 0..blocks {
        let x = _mm256_loadu_si256(a.as_ptr().add(i * WORDS).cast());
        let y = _mm256_loadu_si256(b.as_ptr().add(i * WORDS).cast());
        acc = _mm256_add_epi64(acc, popcnt256(_mm256_xor_si256(x, y)));
    }
    let mut sum = sum_lanes_u64(acc);
    for i in blocks * WORDS..n {
        sum += u64::from((a[i] ^ b[i]).count_ones());
    }
    sum
}

#[target_feature(enable = "avx2")]
unsafe fn ripple_step_avx2(plane: &mut [u64], carry: &mut [u64]) -> bool {
    let n = plane.len().min(carry.len());
    let blocks = n / WORDS;
    let mut any = _mm256_setzero_si256();
    for i in 0..blocks {
        let p = _mm256_loadu_si256(plane.as_ptr().add(i * WORDS).cast());
        let c = _mm256_loadu_si256(carry.as_ptr().add(i * WORDS).cast());
        let carry_out = _mm256_and_si256(p, c);
        _mm256_storeu_si256(
            plane.as_mut_ptr().add(i * WORDS).cast(),
            _mm256_xor_si256(p, c),
        );
        _mm256_storeu_si256(carry.as_mut_ptr().add(i * WORDS).cast(), carry_out);
        any = _mm256_or_si256(any, carry_out);
    }
    let mut live = _mm256_testz_si256(any, any) == 0;
    for i in blocks * WORDS..n {
        let carry_out = plane[i] & carry[i];
        plane[i] ^= carry[i];
        carry[i] = carry_out;
        live |= carry_out != 0;
    }
    live
}

#[target_feature(enable = "avx2")]
unsafe fn threshold_step_avx2(plane: &[u64], t_bit: bool, gt: &mut [u64], eq: &mut [u64]) {
    let n = eq.len().min(gt.len()).min(plane.len());
    let blocks = n / WORDS;
    if t_bit {
        for i in 0..blocks {
            let e = _mm256_loadu_si256(eq.as_ptr().add(i * WORDS).cast());
            let b = _mm256_loadu_si256(plane.as_ptr().add(i * WORDS).cast());
            _mm256_storeu_si256(
                eq.as_mut_ptr().add(i * WORDS).cast(),
                _mm256_and_si256(e, b),
            );
        }
        for i in blocks * WORDS..n {
            eq[i] &= plane[i];
        }
    } else {
        for i in 0..blocks {
            let g = _mm256_loadu_si256(gt.as_ptr().add(i * WORDS).cast());
            let e = _mm256_loadu_si256(eq.as_ptr().add(i * WORDS).cast());
            let b = _mm256_loadu_si256(plane.as_ptr().add(i * WORDS).cast());
            let masked = _mm256_and_si256(e, b);
            _mm256_storeu_si256(
                gt.as_mut_ptr().add(i * WORDS).cast(),
                _mm256_or_si256(g, masked),
            );
            _mm256_storeu_si256(
                eq.as_mut_ptr().add(i * WORDS).cast(),
                _mm256_xor_si256(e, masked),
            );
        }
        for i in blocks * WORDS..n {
            gt[i] |= eq[i] & plane[i];
            eq[i] &= !plane[i];
        }
    }
}

/// # Safety
///
/// The CPU must support AVX2, and `rows` must hold all `dist.len()`
/// rows read at `stride` (what [`assert_rows_fit`] checks).
#[target_feature(enable = "avx2")]
unsafe fn hamming_rows_stride_avx2(q_block: &[u64], rows: &[u64], stride: usize, dist: &mut [u32]) {
    // Every row scan runs here: short rows (a 16-word plane block or a
    // narrower probe prefix) over many rows, so per-row overhead — not
    // the popcount itself — is what shows up. Rows go four at a time so
    // each query-word load is shared, the four popcount chains overlap
    // and one transposed reduction serves all four rows; the sums stay
    // plain wrapping adds of the same per-word popcounts, so the result
    // is bit-identical to the one-row path.
    let len = q_block.len();
    let blocks = len / WORDS;
    let n = dist.len();
    let mut r = 0usize;
    while r + 4 <= n {
        let bases = [
            r * stride,
            (r + 1) * stride,
            (r + 2) * stride,
            (r + 3) * stride,
        ];
        let mut acc = [_mm256_setzero_si256(); 4];
        for i in 0..blocks {
            let q = _mm256_loadu_si256(q_block.as_ptr().add(i * WORDS).cast());
            for (lane, &base) in acc.iter_mut().zip(&bases) {
                let x = _mm256_loadu_si256(rows.as_ptr().add(base + i * WORDS).cast());
                *lane = _mm256_add_epi64(*lane, popcnt256(_mm256_xor_si256(q, x)));
            }
        }
        let sums = hsum4_u64(acc[0], acc[1], acc[2], acc[3]);
        let mut s = [0u64; 4];
        _mm256_storeu_si256(s.as_mut_ptr().cast(), sums);
        for i in blocks * WORDS..len {
            let qw = q_block[i];
            for (sum, &base) in s.iter_mut().zip(&bases) {
                *sum += u64::from((qw ^ rows[base + i]).count_ones());
            }
        }
        for (d, &sum) in dist[r..r + 4].iter_mut().zip(&s) {
            *d += sum as u32;
        }
        r += 4;
    }
    while r < n {
        dist[r] += hamming_avx2(q_block, &rows[r * stride..r * stride + len]) as u32;
        r += 1;
    }
}

/// Per-row horizontal sums of four 4×`u64`-lane accumulators at once:
/// returns `[Σa, Σb, Σc, Σd]` — a 4×4 lane transpose-and-add, cheaper
/// than four independent extract-based reductions.
#[target_feature(enable = "avx2")]
unsafe fn hsum4_u64(a: __m256i, b: __m256i, c: __m256i, d: __m256i) -> __m256i {
    let t0 = _mm256_add_epi64(_mm256_unpacklo_epi64(a, b), _mm256_unpackhi_epi64(a, b));
    let t1 = _mm256_add_epi64(_mm256_unpacklo_epi64(c, d), _mm256_unpackhi_epi64(c, d));
    let lo = _mm256_permute2x128_si256(t0, t1, 0x20);
    let hi = _mm256_permute2x128_si256(t0, t1, 0x31);
    _mm256_add_epi64(lo, hi)
}

/// Lane mask of the `rem < ZMM_WORDS` words a masked tail load reads.
fn tail_mask(rem: usize) -> u8 {
    debug_assert!(rem < ZMM_WORDS);
    ((1u16 << rem) - 1) as u8
}

/// Adds the upper 256-bit half of `v` onto its lower half: four `u64`
/// lanes with the same total.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn fold_256(v: __m512i) -> __m256i {
    _mm256_add_epi64(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v))
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512 VPOPCNTDQ.
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn popcount_avx512(words: &[u64]) -> u64 {
    let n = words.len();
    let blocks = n / ZMM_WORDS;
    let mut acc = _mm512_setzero_si512();
    for i in 0..blocks {
        let v = _mm512_loadu_si512(words.as_ptr().add(i * ZMM_WORDS).cast());
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
    }
    let tail = tail_mask(n % ZMM_WORDS);
    if tail != 0 {
        let v = _mm512_maskz_loadu_epi64(tail, words.as_ptr().add(blocks * ZMM_WORDS).cast());
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
    }
    _mm512_reduce_add_epi64(acc) as u64
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512 VPOPCNTDQ.
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn hamming_avx512(a: &[u64], b: &[u64]) -> u64 {
    let n = a.len().min(b.len());
    let blocks = n / ZMM_WORDS;
    let mut acc = _mm512_setzero_si512();
    for i in 0..blocks {
        let x = _mm512_loadu_si512(a.as_ptr().add(i * ZMM_WORDS).cast());
        let y = _mm512_loadu_si512(b.as_ptr().add(i * ZMM_WORDS).cast());
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(x, y)));
    }
    let tail = tail_mask(n % ZMM_WORDS);
    if tail != 0 {
        let at = blocks * ZMM_WORDS;
        let x = _mm512_maskz_loadu_epi64(tail, a.as_ptr().add(at).cast());
        let y = _mm512_maskz_loadu_epi64(tail, b.as_ptr().add(at).cast());
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(x, y)));
    }
    _mm512_reduce_add_epi64(acc) as u64
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512 VPOPCNTDQ, and `rows` must
/// hold all `dist.len()` rows read at `stride` (what
/// [`assert_rows_fit`] checks).
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn hamming_rows_stride_avx512(
    q_block: &[u64],
    rows: &[u64],
    stride: usize,
    dist: &mut [u32],
) {
    // The shape of `hamming_rows_stride_avx2` at twice the width: four
    // rows share each query load, and the last `len % 8` words of each
    // row come in through one masked load instead of a scalar loop.
    // Each 512-bit accumulator folds to 256 bits for the shared
    // four-row reduction; the sums stay wrapping adds of the same
    // per-word popcounts, so the result is bit-identical to the scalar
    // reference.
    let len = q_block.len();
    let blocks = len / ZMM_WORDS;
    let tail = tail_mask(len % ZMM_WORDS);
    let n = dist.len();
    let mut r = 0usize;
    while r + 4 <= n {
        let bases = [
            r * stride,
            (r + 1) * stride,
            (r + 2) * stride,
            (r + 3) * stride,
        ];
        let mut acc = [_mm512_setzero_si512(); 4];
        for i in 0..blocks {
            let q = _mm512_loadu_si512(q_block.as_ptr().add(i * ZMM_WORDS).cast());
            for (lane, &base) in acc.iter_mut().zip(&bases) {
                let x = _mm512_loadu_si512(rows.as_ptr().add(base + i * ZMM_WORDS).cast());
                *lane = _mm512_add_epi64(*lane, _mm512_popcnt_epi64(_mm512_xor_si512(q, x)));
            }
        }
        if tail != 0 {
            let at = blocks * ZMM_WORDS;
            let q = _mm512_maskz_loadu_epi64(tail, q_block.as_ptr().add(at).cast());
            for (lane, &base) in acc.iter_mut().zip(&bases) {
                let x = _mm512_maskz_loadu_epi64(tail, rows.as_ptr().add(base + at).cast());
                *lane = _mm512_add_epi64(*lane, _mm512_popcnt_epi64(_mm512_xor_si512(q, x)));
            }
        }
        let sums = hsum4_u64(
            fold_256(acc[0]),
            fold_256(acc[1]),
            fold_256(acc[2]),
            fold_256(acc[3]),
        );
        let mut s = [0u64; 4];
        _mm256_storeu_si256(s.as_mut_ptr().cast(), sums);
        for (d, &sum) in dist[r..r + 4].iter_mut().zip(&s) {
            *d += sum as u32;
        }
        r += 4;
    }
    while r < n {
        dist[r] += hamming_avx512(q_block, &rows[r * stride..r * stride + len]) as u32;
        r += 1;
    }
}

/// Unroll factor of the widened dot accumulation: 4 vectors (32 `i32`
/// values) per iteration, each feeding its own accumulator register.
const DOT_UNROLL: usize = 4;

#[target_feature(enable = "avx2")]
unsafe fn dot_i32_avx2(a: &[i32], b: &[i32]) -> i64 {
    // vpmaddwd would halve the multiply count but silently truncates
    // inputs outside i16 — the exactness contract (wrapping i64 dot for
    // arbitrary i32 accumulators) rules it out. Instead the vpmuldq
    // even/odd widening multiplies are unrolled over DOT_UNROLL
    // independent accumulators so the epi64 adds pipeline instead of
    // serializing on one register; wrapping integer addition commutes,
    // so the reassociated sum is bit-identical to the scalar reference.
    let n = a.len().min(b.len());
    let step = INTS * DOT_UNROLL;
    let wide_blocks = n / step;
    let mut acc = [_mm256_setzero_si256(); DOT_UNROLL];
    for i in 0..wide_blocks {
        for (u, lane) in acc.iter_mut().enumerate() {
            let off = i * step + u * INTS;
            let x = _mm256_loadu_si256(a.as_ptr().add(off).cast());
            let y = _mm256_loadu_si256(b.as_ptr().add(off).cast());
            let even = _mm256_mul_epi32(x, y);
            let odd = _mm256_mul_epi32(_mm256_srli_epi64::<32>(x), _mm256_srli_epi64::<32>(y));
            *lane = _mm256_add_epi64(*lane, _mm256_add_epi64(even, odd));
        }
    }
    let mut tail_acc = _mm256_setzero_si256();
    let blocks = n / INTS;
    for i in wide_blocks * DOT_UNROLL..blocks {
        let x = _mm256_loadu_si256(a.as_ptr().add(i * INTS).cast());
        let y = _mm256_loadu_si256(b.as_ptr().add(i * INTS).cast());
        let even = _mm256_mul_epi32(x, y);
        let odd = _mm256_mul_epi32(_mm256_srli_epi64::<32>(x), _mm256_srli_epi64::<32>(y));
        tail_acc = _mm256_add_epi64(tail_acc, _mm256_add_epi64(even, odd));
    }
    for lane in acc {
        tail_acc = _mm256_add_epi64(tail_acc, lane);
    }
    let mut dot = sum_lanes_u64(tail_acc) as i64;
    for i in blocks * INTS..n {
        dot = dot.wrapping_add(i64::from(a[i]) * i64::from(b[i]));
    }
    dot
}

/// # Safety
///
/// The CPU must support AVX2, and `rows` must hold all `dots.len()`
/// rows read at `stride` (what [`assert_rows_fit`] checks).
#[target_feature(enable = "avx2")]
unsafe fn dot_rows_stride_avx2(q_block: &[i32], rows: &[i32], stride: usize, dots: &mut [i64]) {
    // The int twin of `hamming_rows_stride_avx2`: rows go four at a
    // time so each query-vector load (and its odd-lane shift) is shared
    // across the four vpmuldq even/odd widening multiply chains.
    // Wrapping i64 addition commutes, so the reassociated per-row sums
    // are bit-identical to the scalar reference.
    let len = q_block.len();
    let blocks = len / INTS;
    let n = dots.len();
    let mut r = 0usize;
    while r + 4 <= n {
        let bases = [
            r * stride,
            (r + 1) * stride,
            (r + 2) * stride,
            (r + 3) * stride,
        ];
        let mut acc = [_mm256_setzero_si256(); 4];
        for i in 0..blocks {
            let q = _mm256_loadu_si256(q_block.as_ptr().add(i * INTS).cast());
            let q_odd = _mm256_srli_epi64::<32>(q);
            for (lane, &base) in acc.iter_mut().zip(&bases) {
                let x = _mm256_loadu_si256(rows.as_ptr().add(base + i * INTS).cast());
                let even = _mm256_mul_epi32(q, x);
                let odd = _mm256_mul_epi32(q_odd, _mm256_srli_epi64::<32>(x));
                *lane = _mm256_add_epi64(*lane, _mm256_add_epi64(even, odd));
            }
        }
        let sums = hsum4_u64(acc[0], acc[1], acc[2], acc[3]);
        let mut s = [0u64; 4];
        _mm256_storeu_si256(s.as_mut_ptr().cast(), sums);
        for i in blocks * INTS..len {
            let qv = i64::from(q_block[i]);
            for (sum, &base) in s.iter_mut().zip(&bases) {
                *sum = sum.wrapping_add((qv * i64::from(rows[base + i])) as u64);
            }
        }
        for (d, &sum) in dots[r..r + 4].iter_mut().zip(&s) {
            *d = d.wrapping_add(sum as i64);
        }
        r += 4;
    }
    while r < n {
        let dot = dot_i32_avx2(q_block, &rows[r * stride..r * stride + len]);
        dots[r] = dots[r].wrapping_add(dot);
        r += 1;
    }
}

/// Sign-extends the eight `i32` lanes of a vpmaddwd result into two
/// 4×`i64` vectors and adds both into the accumulator. The unpack
/// interleaving permutes which lane each value lands in, but wrapping
/// addition commutes, so the total is unaffected.
#[target_feature(enable = "avx2")]
unsafe fn add_widened_i32x8(acc: __m256i, m: __m256i) -> __m256i {
    let sign = _mm256_srai_epi32::<31>(m);
    let lo = _mm256_unpacklo_epi32(m, sign);
    let hi = _mm256_unpackhi_epi32(m, sign);
    _mm256_add_epi64(acc, _mm256_add_epi64(lo, hi))
}

/// Dimensions (multiple of [`SHORTS`]) whose vpmaddwd results can
/// accumulate in i32 lanes before one widening into i64, given the
/// query side `q`: every madd lane is bounded by `2 · max|q| · 32767`
/// (the other operand honors the documented ±32767 kernel contract).
/// Bipolar and small-valued queries — the common HDC case — widen once
/// per row instead of once per madd. The group sums never overflow, so
/// the reassociated total stays bit-identical to the scalar reference.
#[target_feature(enable = "avx2")]
unsafe fn madd_group_dims(q: &[i16]) -> usize {
    let blocks = q.len() / SHORTS;
    let mut m = _mm256_setzero_si256();
    for i in 0..blocks {
        let x = _mm256_loadu_si256(q.as_ptr().add(i * SHORTS).cast());
        // abs_epi16(-32768) wraps to 0x8000, but max_epu16 reads that
        // bit pattern as 32768 — exactly the magnitude we want.
        m = _mm256_max_epu16(m, _mm256_abs_epi16(x));
    }
    let mut lanes = [0u16; SHORTS];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), m);
    let mut max_q = 1i64;
    for &v in &lanes {
        max_q = max_q.max(i64::from(v));
    }
    for &v in &q[blocks * SHORTS..] {
        max_q = max_q.max(i64::from(v).abs());
    }
    (i64::from(i32::MAX) / (2 * max_q * 32767)).max(1) as usize * SHORTS
}

#[target_feature(enable = "avx2")]
unsafe fn dot_i16_avx2(a: &[i16], b: &[i16]) -> i64 {
    let n = a.len().min(b.len());
    let len_simd = n - n % SHORTS;
    let group = madd_group_dims(&a[..len_simd]);
    let mut acc = _mm256_setzero_si256();
    let mut i = 0usize;
    while i < len_simd {
        let group_end = (i + group).min(len_simd);
        let mut acc32 = _mm256_setzero_si256();
        while i < group_end {
            let x = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let y = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            acc32 = _mm256_add_epi32(acc32, _mm256_madd_epi16(x, y));
            i += SHORTS;
        }
        acc = add_widened_i32x8(acc, acc32);
    }
    let mut dot = sum_lanes_u64(acc) as i64;
    for i in len_simd..n {
        dot = dot.wrapping_add(i64::from(a[i]) * i64::from(b[i]));
    }
    dot
}

/// # Safety
///
/// The CPU must support AVX2, and `rows` must hold all `dots.len()`
/// rows read at `stride` (what [`assert_rows_fit`] checks).
#[target_feature(enable = "avx2")]
unsafe fn dot_i16_rows_stride_avx2(q_block: &[i16], rows: &[i16], stride: usize, dots: &mut [i64]) {
    // vpmaddwd multiplies 16 i16 pairs and sums adjacent products into
    // eight i32 lanes per instruction — the reason the i16 sidecar path
    // exists. The kernel contract bounds inputs to [-32767, 32767], so
    // each pairwise sum is at most 2·32767² < 2³¹ and the i32 lanes
    // cannot overflow; [`madd_group_dims`] chooses how many of those
    // results accumulate in i32 before each sign-extension into the i64
    // accumulators. Four rows share each query load, as in the other
    // strided scans.
    let len = q_block.len();
    let len_simd = len - len % SHORTS;
    let group = madd_group_dims(q_block);
    let n = dots.len();
    let mut r = 0usize;
    while r + 4 <= n {
        let bases = [
            r * stride,
            (r + 1) * stride,
            (r + 2) * stride,
            (r + 3) * stride,
        ];
        let mut acc = [_mm256_setzero_si256(); 4];
        let mut i = 0usize;
        while i < len_simd {
            let group_end = (i + group).min(len_simd);
            let mut acc32 = [_mm256_setzero_si256(); 4];
            while i < group_end {
                let q = _mm256_loadu_si256(q_block.as_ptr().add(i).cast());
                for (lane, &base) in acc32.iter_mut().zip(&bases) {
                    let x = _mm256_loadu_si256(rows.as_ptr().add(base + i).cast());
                    *lane = _mm256_add_epi32(*lane, _mm256_madd_epi16(q, x));
                }
                i += SHORTS;
            }
            for (wide, narrow) in acc.iter_mut().zip(&acc32) {
                *wide = add_widened_i32x8(*wide, *narrow);
            }
        }
        let sums = hsum4_u64(acc[0], acc[1], acc[2], acc[3]);
        let mut s = [0u64; 4];
        _mm256_storeu_si256(s.as_mut_ptr().cast(), sums);
        for i in len_simd..len {
            let qv = i64::from(q_block[i]);
            for (sum, &base) in s.iter_mut().zip(&bases) {
                *sum = sum.wrapping_add((qv * i64::from(rows[base + i])) as u64);
            }
        }
        for (d, &sum) in dots[r..r + 4].iter_mut().zip(&s) {
            *d = d.wrapping_add(sum as i64);
        }
        r += 4;
    }
    while r < n {
        let dot = dot_i16_avx2(q_block, &rows[r * stride..r * stride + len]);
        dots[r] = dots[r].wrapping_add(dot);
        r += 1;
    }
}

/// Full adder over 256 independent bit positions: `(carry, sum)` of
/// `a + b + c`.
#[target_feature(enable = "avx2")]
unsafe fn csa256(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
    let u = _mm256_xor_si256(a, b);
    (
        _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c)),
        _mm256_xor_si256(u, c),
    )
}

/// The carry-save step on 256-bit blocks, with the scalar tail.
#[target_feature(enable = "avx2")]
unsafe fn carry_save_16_avx2(
    inputs: &CarrySaveGroup<'_>,
    low: CarrySavePlanes<'_>,
    carry: &mut [u64],
) -> bool {
    // `n` is the shortest of all input, plane and carry slices, so
    // every vector block below is in bounds for each of them.
    let n = carry_save_len(inputs, &low, carry);
    let [ones, twos, fours, eights] = low;
    let blocks = n / WORDS;
    let mut any = _mm256_setzero_si256();
    for i in 0..blocks {
        let at = i * WORDS;
        let x = |j: usize| _mm256_loadu_si256(inputs[j].as_ptr().add(at).cast());
        let low = [
            _mm256_loadu_si256(ones.as_ptr().add(at).cast()),
            _mm256_loadu_si256(twos.as_ptr().add(at).cast()),
            _mm256_loadu_si256(fours.as_ptr().add(at).cast()),
            _mm256_loadu_si256(eights.as_ptr().add(at).cast()),
        ];
        let ([o, t, f, e], sixteens) = harley_seal!(csa256, x, low);
        _mm256_storeu_si256(ones.as_mut_ptr().add(at).cast(), o);
        _mm256_storeu_si256(twos.as_mut_ptr().add(at).cast(), t);
        _mm256_storeu_si256(fours.as_mut_ptr().add(at).cast(), f);
        _mm256_storeu_si256(eights.as_mut_ptr().add(at).cast(), e);
        _mm256_storeu_si256(carry.as_mut_ptr().add(at).cast(), sixteens);
        any = _mm256_or_si256(any, sixteens);
    }
    let tail = scalar::carry_save_words(
        inputs,
        [ones, twos, fours, eights],
        carry,
        blocks * WORDS..n,
    );
    _mm256_testz_si256(any, any) == 0 || tail != 0
}

/// The bind-and-count on two 256-bit columns per tile.
///
/// # Safety
///
/// The CPU must support AVX2, and `shape` must be what
/// [`ColumnShape::check`] returned for `row`, `offsets` and `planes`.
#[target_feature(enable = "avx2")]
unsafe fn bind_bundle_columns_avx2(
    row: &BoundRow<'_>,
    shape: &ColumnShape,
    offsets: &[u32],
    planes: &mut [Vec<u64>],
) {
    // The padded last tile is read whole, which `check` keeps inside
    // both blocks; only its words inside the vector are stored.
    let ColumnShape {
        n,
        m,
        n_words,
        tiles,
        n_planes,
        ..
    } = *shape;
    let zero = _mm256_setzero_si256();
    let mut upper = [zero; MAX_UPPER_PLANES];
    let upper = &mut upper[..n_planes.max(8) - 4];
    let off = offsets.as_ptr();
    for t in 0..tiles {
        for half in 0..TILE_WORDS / WORDS {
            let at = t * TILE_WORDS + half * WORDS;
            if at >= n_words {
                break;
            }
            let features = row.features.as_ptr().add(t * n * TILE_WORDS + half * WORDS);
            let values = row.values.as_ptr().add(t * m * TILE_WORDS + half * WORDS);
            let x = |i: usize, j: usize| {
                let (features, off) = (features.add(i * TILE_WORDS), off.add(i));
                _mm256_xor_si256(
                    _mm256_loadu_si256(features.add(j * TILE_WORDS).cast()),
                    _mm256_loadu_si256(values.add(*off.add(j) as usize).cast()),
                )
            };
            upper.fill(zero);
            let low = bind_bundle_column!(csa256, zero, x, n, &mut *upper);
            let words = (n_words - at).min(WORDS);
            for (p, plane) in planes[..n_planes].iter_mut().enumerate() {
                let v = if p < 4 { low[p] } else { upper[p - 4] };
                if words == WORDS {
                    _mm256_storeu_si256(plane.as_mut_ptr().add(at).cast(), v);
                } else {
                    let mut lanes = [0u64; WORDS];
                    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
                    plane[at..at + words].copy_from_slice(&lanes[..words]);
                }
            }
        }
    }
}

/// Full adder over 512 independent bit positions: `(carry, sum)` of
/// `a + b + c`, one `vpternlogq` each — majority (`0xE8`) and parity
/// (`0x96`).
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn csa512(a: __m512i, b: __m512i, c: __m512i) -> (__m512i, __m512i) {
    (
        _mm512_ternarylogic_epi64::<0xE8>(a, b, c),
        _mm512_ternarylogic_epi64::<0x96>(a, b, c),
    )
}

/// The bind-and-count on one 512-bit column per tile.
///
/// # Safety
///
/// The CPU must support AVX-512F, and `shape` must be what
/// [`ColumnShape::check`] returned for `row`, `offsets` and `planes`.
#[target_feature(enable = "avx512f")]
unsafe fn bind_bundle_columns_avx512(
    row: &BoundRow<'_>,
    shape: &ColumnShape,
    offsets: &[u32],
    planes: &mut [Vec<u64>],
) {
    let ColumnShape {
        n,
        m,
        n_words,
        tiles,
        n_planes,
        ..
    } = *shape;
    let zero = _mm512_setzero_si512();
    let mut upper = [zero; MAX_UPPER_PLANES];
    let upper = &mut upper[..n_planes.max(8) - 4];
    for t in 0..tiles {
        let at = t * TILE_WORDS;
        let features = row.features.as_ptr().add(t * n * TILE_WORDS);
        let values = row.values.as_ptr().add(t * m * TILE_WORDS);
        upper.fill(zero);
        // The last tile is read with masked loads and written with
        // masked stores, so its padding is never touched.
        let lanes = match n_words - at {
            rem if rem >= ZMM_WORDS => !0,
            rem => tail_mask(rem),
        };
        let low = if lanes == !0 {
            column_avx512::<false>(features, values, offsets, lanes, upper)
        } else {
            column_avx512::<true>(features, values, offsets, lanes, upper)
        };
        for (p, plane) in planes[..n_planes].iter_mut().enumerate() {
            let v = if p < 4 { low[p] } else { upper[p - 4] };
            _mm512_mask_storeu_epi64(plane.as_mut_ptr().add(at).cast(), lanes, v);
        }
    }
}

/// One 512-bit column of [`bind_bundle_columns_avx512`]: every feature's
/// tile at `features + i·TILE_WORDS` XORed with its value's tile at
/// `values + offsets[i]`, read whole or, with `MASKED`, only in `lanes`.
///
/// # Safety
///
/// The CPU must support AVX-512F, and the `offsets.len()` feature tiles
/// and every value tile an offset names must be readable in `lanes`.
#[target_feature(enable = "avx512f")]
unsafe fn column_avx512<const MASKED: bool>(
    features: *const u64,
    values: *const u64,
    offsets: &[u32],
    lanes: __mmask8,
    upper: &mut [__m512i],
) -> [__m512i; 4] {
    let load = |at: *const u64| {
        if MASKED {
            _mm512_maskz_loadu_epi64(lanes, at.cast())
        } else {
            _mm512_loadu_si512(at.cast())
        }
    };
    let off = offsets.as_ptr();
    let x = |i: usize, j: usize| {
        let (features, off) = (features.add(i * TILE_WORDS), off.add(i));
        _mm512_xor_si512(
            load(features.add(j * TILE_WORDS)),
            load(values.add(*off.add(j) as usize)),
        )
    };
    bind_bundle_column!(csa512, _mm512_setzero_si512(), x, offsets.len(), upper)
}
