//! AVX2 backend (`std::arch` x86_64 intrinsics).
//!
//! 256-bit lanes carry four `u64` words (or eight `i32` values) per
//! operation: XOR/AND/OR on `__m256i`, popcount via the vpshufb
//! nibble-LUT + `vpsadbw` reduction, and the widening
//! `vpmuldq` 32→64-bit multiply for integer dot products. Tails
//! shorter than a full vector run the scalar code, so results are
//! defined for every slice length.
//!
//! # Safety
//!
//! This module's `KERNEL` table is handed out by [`super::available`]
//! **only after** `is_x86_feature_detected!("avx2")` has confirmed the
//! CPU supports AVX2, which is the sole precondition of the
//! `#[target_feature(enable = "avx2")]` functions below. All pointer
//! accesses are unaligned loads/stores within slice bounds.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m256i, _mm256_abs_epi16, _mm256_add_epi32, _mm256_add_epi64, _mm256_add_epi8,
    _mm256_and_si256, _mm256_extract_epi64, _mm256_loadu_si256, _mm256_madd_epi16,
    _mm256_max_epu16, _mm256_mul_epi32, _mm256_or_si256, _mm256_permute2x128_si256,
    _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
    _mm256_srai_epi32, _mm256_srli_epi16, _mm256_srli_epi64, _mm256_storeu_si256,
    _mm256_testz_si256, _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32,
    _mm256_unpacklo_epi64, _mm256_xor_si256,
};

use super::{carry_save_len, scalar, CarrySaveGroup, CarrySavePlanes, Kernel};

/// `u64` words per 256-bit vector.
const WORDS: usize = 4;
/// `i32` values per 256-bit vector.
const INTS: usize = 8;
/// `i16` values per 256-bit vector.
const SHORTS: usize = 16;

/// The AVX2 backend. Only reachable through [`super::available`], which
/// performs the CPU-feature check this table's functions require.
pub(super) static KERNEL: Kernel = Kernel {
    name: "avx2",
    xor_into,
    xor_assign,
    popcount,
    hamming,
    ripple_step,
    carry_save_16,
    bind_carry_save_16,
    threshold_step,
    hamming_rows,
    hamming_rows_stride,
    dot_i32,
    dot_rows_stride,
    dot_i16_rows_stride,
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

fn hamming_rows(q_block: &[u64], rows: &[u64], dist: &mut [u32]) {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { hamming_rows_avx2(q_block, rows, dist) }
}

fn hamming_rows_stride(q_block: &[u64], rows: &[u64], stride: usize, dist: &mut [u32]) {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { hamming_rows_stride_avx2(q_block, rows, stride, dist) }
}

fn dot_i32(a: &[i32], b: &[i32]) -> i64 {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { dot_i32_avx2(a, b) }
}

fn dot_rows_stride(q_block: &[i32], rows: &[i32], stride: usize, dots: &mut [i64]) {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { dot_rows_stride_avx2(q_block, rows, stride, dots) }
}

fn dot_i16_rows_stride(q_block: &[i16], rows: &[i16], stride: usize, dots: &mut [i64]) {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { dot_i16_rows_stride_avx2(q_block, rows, stride, dots) }
}

fn carry_save_16(inputs: &CarrySaveGroup<'_>, low: CarrySavePlanes<'_>, carry: &mut [u64]) -> bool {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { carry_save_16_avx2::<false>(inputs, inputs, low, carry) }
}

fn bind_carry_save_16(
    a: &CarrySaveGroup<'_>,
    b: &CarrySaveGroup<'_>,
    low: CarrySavePlanes<'_>,
    carry: &mut [u64],
) -> bool {
    // SAFETY: AVX2 availability is guaranteed by the dispatch layer.
    unsafe { carry_save_16_avx2::<true>(a, b, low, carry) }
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

#[target_feature(enable = "avx2")]
unsafe fn hamming_rows_avx2(q_block: &[u64], rows: &[u64], dist: &mut [u32]) {
    let len = q_block.len();
    for (r, d) in dist.iter_mut().enumerate() {
        *d += hamming_avx2(q_block, &rows[r * len..(r + 1) * len]) as u32;
    }
}

#[target_feature(enable = "avx2")]
unsafe fn hamming_rows_stride_avx2(q_block: &[u64], rows: &[u64], stride: usize, dist: &mut [u32]) {
    // The strided scan is the pruned top-k coarse pass: short prefixes
    // (tens of words) over many rows, so per-row overhead — not the
    // popcount itself — is what shows up. Rows go two at a time so each
    // query-word load is shared and the two popcount chains overlap;
    // the sums stay plain wrapping adds of the same per-word popcounts,
    // so the result is bit-identical to the one-row path.
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

/// Both carry-save steps: on the inputs `a`, or with `BIND` on the
/// bound pairs `a[j] ^ b[j]`, XORed in registers as they are loaded.
#[target_feature(enable = "avx2")]
unsafe fn carry_save_16_avx2<const BIND: bool>(
    a: &CarrySaveGroup<'_>,
    b: &CarrySaveGroup<'_>,
    low: CarrySavePlanes<'_>,
    carry: &mut [u64],
) -> bool {
    // `n` is the shortest of all input, plane and carry slices, so
    // every vector block below is in bounds for each of them.
    let n = carry_save_len(a, b, &low, carry);
    let [ones, twos, fours, eights] = low;
    let blocks = n / WORDS;
    let mut any = _mm256_setzero_si256();
    for i in 0..blocks {
        let at = i * WORDS;
        let x = |j: usize| {
            let v = _mm256_loadu_si256(a[j].as_ptr().add(at).cast());
            if BIND {
                _mm256_xor_si256(v, _mm256_loadu_si256(b[j].as_ptr().add(at).cast()))
            } else {
                v
            }
        };
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
    let tail = scalar::carry_save_words::<BIND>(
        a,
        b,
        [ones, twos, fours, eights],
        carry,
        blocks * WORDS..n,
    );
    _mm256_testz_si256(any, any) == 0 || tail != 0
}
