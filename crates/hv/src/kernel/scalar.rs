//! Scalar `u64` word-parallel backend — the reference implementation.
//!
//! These are the loops that used to live inline in `bitvec.rs`,
//! `bitslice.rs` and `search.rs`, extracted unchanged, plus the
//! word-at-a-time Harley–Seal step and the bind-and-count on one
//! eight-word tile per column. Every other backend must match them
//! bit-for-bit.

use std::ops::Range;

use super::{
    carry_save_len, BoundRow, CarrySaveGroup, CarrySavePlanes, ColumnShape, Kernel,
    CARRY_SAVE_INPUTS, MAX_UPPER_PLANES, TILE_WORDS,
};

/// The scalar reference backend.
pub(super) static KERNEL: Kernel = Kernel {
    name: "scalar",
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
    let n = carry_save_len(inputs, &low, carry);
    carry_save_words(inputs, low, carry, 0..n) != 0
}

/// The Harley–Seal network one word at a time over `words`, returning
/// the OR of the carries it wrote: the whole scalar step, and the tail
/// of the AVX2 one.
pub(super) fn carry_save_words(
    inputs: &CarrySaveGroup<'_>,
    low: CarrySavePlanes<'_>,
    carry: &mut [u64],
    words: Range<usize>,
) -> u64 {
    // Every slice cut to exactly `words.end` lets the compiler drop the
    // per-word bounds checks of the 16 input loads.
    let end = words.end;
    let inputs: [&[u64]; CARRY_SAVE_INPUTS] = std::array::from_fn(|j| &inputs[j][..end]);
    let [ones, twos, fours, eights] = low.map(|plane| &mut plane[..end]);
    let carry = &mut carry[..end];
    let mut any = 0u64;
    for w in words {
        let x = |j: usize| inputs[j][w];
        let ([o, t, f, e], sixteens) =
            harley_seal!(csa, x, [ones[w], twos[w], fours[w], eights[w]]);
        (ones[w], twos[w], fours[w], eights[w]) = (o, t, f, e);
        carry[w] = sixteens;
        any |= sixteens;
    }
    any
}

/// One column of the scalar bind-and-count: a whole tile, so each
/// feature and value load and its bounds check cover eight words.
type Column = [u64; TILE_WORDS];

/// [`csa`] over a [`Column`], word by word (a loop the compiler
/// vectorizes to the target's baseline vector width).
fn csa_column(a: Column, b: Column, c: Column) -> (Column, Column) {
    let mut carry = [0; TILE_WORDS];
    let mut sum = [0; TILE_WORDS];
    for k in 0..TILE_WORDS {
        (carry[k], sum[k]) = csa(a[k], b[k], c[k]);
    }
    (carry, sum)
}

/// The column bind-and-count one tile at a time: column `t` is words
/// `t·TILE_WORDS ..` of every vector, padding included; only the words
/// inside the vector are stored.
fn bind_bundle_columns(row: &BoundRow<'_>, offsets: &mut Vec<u32>, planes: &mut [Vec<u64>]) {
    let shape = ColumnShape::check(row, offsets, planes);
    let ColumnShape {
        n,
        m,
        n_words,
        tiles,
        n_planes,
        ..
    } = shape;
    let (features, _) = row.features.as_chunks::<TILE_WORDS>();
    let (values, _) = row.values.as_chunks::<TILE_WORDS>();
    let mut upper = [[0u64; TILE_WORDS]; MAX_UPPER_PLANES];
    let upper = &mut upper[..n_planes.max(8) - 4];
    for t in 0..tiles {
        let features = &features[t * n..(t + 1) * n];
        let values = &values[t * m..(t + 1) * m];
        let x = |i: usize, j: usize| {
            let (fea, val) = (
                features[i + j],
                values[offsets[i + j] as usize / TILE_WORDS],
            );
            std::array::from_fn(|k| fea[k] ^ val[k])
        };
        upper.fill([0; TILE_WORDS]);
        let low = bind_bundle_column!(csa_column, [0u64; TILE_WORDS], x, n, &mut *upper);
        let at = t * TILE_WORDS;
        let words = (n_words - at).min(TILE_WORDS);
        for (p, plane) in planes[..n_planes].iter_mut().enumerate() {
            let column = if p < 4 { &low[p] } else { &upper[p - 4] };
            plane[at..at + words].copy_from_slice(&column[..words]);
        }
    }
    shape.mask_tail(planes);
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
