//! Scalar `u64` word-parallel backend — the reference implementation.
//!
//! These are the loops that used to live inline in `bitvec.rs`,
//! `bitslice.rs` and `search.rs`, extracted unchanged, plus the
//! word-at-a-time Harley–Seal steps (plain and fused-bind). Every other
//! backend must match them bit-for-bit.

use std::ops::Range;

use super::{carry_save_len, CarrySaveGroup, CarrySavePlanes, Kernel, CARRY_SAVE_INPUTS};

/// The scalar reference backend.
pub(super) static KERNEL: Kernel = Kernel {
    name: "scalar",
    xor_into,
    xor_assign,
    popcount,
    hamming,
    ripple_step,
    carry_save_16,
    bind_carry_save_16,
    threshold_step,
    hamming_rows_stride,
    dot_i32,
    dot_rows_stride,
    dot_i16_rows_stride,
};

fn xor_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = x ^ y;
    }
}

fn xor_assign(a: &mut [u64], b: &[u64]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x ^= y;
    }
}

fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

fn hamming(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum()
}

fn ripple_step(plane: &mut [u64], carry: &mut [u64]) -> bool {
    let mut live = false;
    for (pw, c) in plane.iter_mut().zip(carry.iter_mut()) {
        if *c == 0 {
            continue;
        }
        let carry_out = *pw & *c;
        *pw ^= *c;
        *c = carry_out;
        live |= carry_out != 0;
    }
    live
}

/// Full adder over 64 independent bit positions: `(carry, sum)` of
/// `a + b + c`.
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

pub(super) fn carry_save_16(
    inputs: &CarrySaveGroup<'_>,
    low: CarrySavePlanes<'_>,
    carry: &mut [u64],
) -> bool {
    let n = carry_save_len(inputs, inputs, &low, carry);
    carry_save_words::<false>(inputs, inputs, low, carry, 0..n) != 0
}

pub(super) fn bind_carry_save_16(
    a: &CarrySaveGroup<'_>,
    b: &CarrySaveGroup<'_>,
    low: CarrySavePlanes<'_>,
    carry: &mut [u64],
) -> bool {
    let n = carry_save_len(a, b, &low, carry);
    carry_save_words::<true>(a, b, low, carry, 0..n) != 0
}

/// The Harley–Seal network one word at a time over `words`, on the
/// inputs `a` — or, with `BIND`, on the bound pairs `a[j] ^ b[j]` —
/// returning the OR of the carries it wrote: the whole scalar steps,
/// and the tail of the AVX2 ones.
pub(super) fn carry_save_words<const BIND: bool>(
    a: &CarrySaveGroup<'_>,
    b: &CarrySaveGroup<'_>,
    low: CarrySavePlanes<'_>,
    carry: &mut [u64],
    words: Range<usize>,
) -> u64 {
    // Every slice cut to exactly `words.end` lets the compiler drop the
    // per-word bounds checks of the 16 (or 32) input loads.
    let end = words.end;
    let a: [&[u64]; CARRY_SAVE_INPUTS] = std::array::from_fn(|j| &a[j][..end]);
    let b: [&[u64]; CARRY_SAVE_INPUTS] = if BIND {
        std::array::from_fn(|j| &b[j][..end])
    } else {
        a
    };
    let [ones, twos, fours, eights] = low.map(|plane| &mut plane[..end]);
    let carry = &mut carry[..end];
    let mut any = 0u64;
    for w in words {
        let x = |j: usize| if BIND { a[j][w] ^ b[j][w] } else { a[j][w] };
        let ([o, t, f, e], sixteens) =
            harley_seal!(csa, x, [ones[w], twos[w], fours[w], eights[w]]);
        (ones[w], twos[w], fours[w], eights[w]) = (o, t, f, e);
        carry[w] = sixteens;
        any |= sixteens;
    }
    any
}

fn threshold_step(plane: &[u64], t_bit: bool, gt: &mut [u64], eq: &mut [u64]) {
    if t_bit {
        for (e, b) in eq.iter_mut().zip(plane) {
            *e &= b;
        }
    } else {
        for ((g, e), b) in gt.iter_mut().zip(eq.iter_mut()).zip(plane) {
            *g |= *e & b;
            *e &= !b;
        }
    }
}

pub(super) fn hamming_rows_stride(q_block: &[u64], rows: &[u64], stride: usize, dist: &mut [u32]) {
    let len = q_block.len();
    for (r, d) in dist.iter_mut().enumerate() {
        let row = &rows[r * stride..r * stride + len];
        let mut acc = 0u32;
        for (a, w) in q_block.iter().zip(row) {
            acc += (a ^ w).count_ones();
        }
        *d += acc;
    }
}

fn dot_i32(a: &[i32], b: &[i32]) -> i64 {
    let mut dot = 0i64;
    for (&x, &y) in a.iter().zip(b) {
        dot = dot.wrapping_add(i64::from(x) * i64::from(y));
    }
    dot
}

fn dot_rows_stride(q_block: &[i32], rows: &[i32], stride: usize, dots: &mut [i64]) {
    let len = q_block.len();
    for (r, d) in dots.iter_mut().enumerate() {
        let row = &rows[r * stride..r * stride + len];
        let mut acc = 0i64;
        for (&a, &w) in q_block.iter().zip(row) {
            acc = acc.wrapping_add(i64::from(a) * i64::from(w));
        }
        *d = d.wrapping_add(acc);
    }
}

fn dot_i16_rows_stride(q_block: &[i16], rows: &[i16], stride: usize, dots: &mut [i64]) {
    let len = q_block.len();
    for (r, d) in dots.iter_mut().enumerate() {
        let row = &rows[r * stride..r * stride + len];
        let mut acc = 0i64;
        for (&a, &w) in q_block.iter().zip(row) {
            acc = acc.wrapping_add(i64::from(a) * i64::from(w));
        }
        *d = d.wrapping_add(acc);
    }
}
