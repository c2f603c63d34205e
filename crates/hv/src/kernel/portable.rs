//! Portable chunked backend (`std::simd`-style, in stable Rust).
//!
//! `std::simd` is still nightly-only, so this backend expresses the
//! same shape — fixed-width lanes, straight-line lane arithmetic, a
//! scalar tail — on plain `[u64; LANES]` arrays. The loops are written
//! so LLVM's autovectorizer can map each lane block onto whatever
//! vector ISA the target offers (SSE2, NEON, RVV, …), giving a fast
//! path on machines where the hand-written AVX2 backend does not apply.
//!
//! Bit-exactness with the scalar reference is structural: every
//! operation is integral and lane reassociation of wrapping integer
//! sums is exact (see the module docs in [`super`]).

use super::{scalar, Kernel};

/// Words processed per unrolled lane block.
const LANES: usize = 4;

/// The portable chunked backend.
pub(super) static KERNEL: Kernel = Kernel {
    name: "portable",
    xor_into,
    xor_assign,
    popcount,
    hamming,
    ripple_step,
    // No lane versions yet: one benchmarked no faster than the scalar
    // step, so this backend shares the scalar steps.
    carry_save_16: scalar::carry_save_16,
    bind_carry_save_16: scalar::bind_carry_save_16,
    threshold_step,
    // A lane version read slower than the scalar row loop on 16-word
    // plane blocks, so this backend shares the scalar scan.
    hamming_rows_stride: scalar::hamming_rows_stride,
    dot_i32,
    dot_rows_stride,
    dot_i16_rows_stride,
};

fn xor_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    let n = out.len();
    let (a_blocks, a_tail) = a[..n].split_at(n - n % LANES);
    let (b_blocks, b_tail) = b[..n].split_at(a_blocks.len());
    let (o_blocks, o_tail) = out.split_at_mut(a_blocks.len());
    for ((o, x), y) in o_blocks
        .chunks_exact_mut(LANES)
        .zip(a_blocks.chunks_exact(LANES))
        .zip(b_blocks.chunks_exact(LANES))
    {
        for l in 0..LANES {
            o[l] = x[l] ^ y[l];
        }
    }
    for ((o, x), y) in o_tail.iter_mut().zip(a_tail).zip(b_tail) {
        *o = x ^ y;
    }
}

fn xor_assign(a: &mut [u64], b: &[u64]) {
    let n = a.len();
    let (a_blocks, a_tail) = a.split_at_mut(n - n % LANES);
    let (b_blocks, b_tail) = b[..n].split_at(a_blocks.len());
    for (x, y) in a_blocks
        .chunks_exact_mut(LANES)
        .zip(b_blocks.chunks_exact(LANES))
    {
        for l in 0..LANES {
            x[l] ^= y[l];
        }
    }
    for (x, y) in a_tail.iter_mut().zip(b_tail) {
        *x ^= y;
    }
}

fn popcount(words: &[u64]) -> u64 {
    let mut lanes = [0u64; LANES];
    let blocks = words.chunks_exact(LANES);
    let tail = blocks.remainder();
    for block in blocks {
        for l in 0..LANES {
            lanes[l] += u64::from(block[l].count_ones());
        }
    }
    let mut sum: u64 = lanes.iter().sum();
    for w in tail {
        sum += u64::from(w.count_ones());
    }
    sum
}

fn hamming(a: &[u64], b: &[u64]) -> u64 {
    let n = a.len().min(b.len());
    let mut lanes = [0u64; LANES];
    let a_blocks = a[..n].chunks_exact(LANES);
    let b_blocks = b[..n].chunks_exact(LANES);
    let a_tail = a_blocks.remainder();
    let b_tail = b_blocks.remainder();
    for (x, y) in a_blocks.zip(b_blocks) {
        for l in 0..LANES {
            lanes[l] += u64::from((x[l] ^ y[l]).count_ones());
        }
    }
    let mut sum: u64 = lanes.iter().sum();
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += u64::from((x ^ y).count_ones());
    }
    sum
}

fn ripple_step(plane: &mut [u64], carry: &mut [u64]) -> bool {
    let n = plane.len();
    let (p_blocks, p_tail) = plane.split_at_mut(n - n % LANES);
    let (c_blocks, c_tail) = carry[..n].split_at_mut(p_blocks.len());
    let mut any = 0u64;
    for (p, c) in p_blocks
        .chunks_exact_mut(LANES)
        .zip(c_blocks.chunks_exact_mut(LANES))
    {
        for l in 0..LANES {
            let carry_out = p[l] & c[l];
            p[l] ^= c[l];
            c[l] = carry_out;
            any |= carry_out;
        }
    }
    for (p, c) in p_tail.iter_mut().zip(c_tail.iter_mut()) {
        let carry_out = *p & *c;
        *p ^= *c;
        *c = carry_out;
        any |= carry_out;
    }
    any != 0
}

fn threshold_step(plane: &[u64], t_bit: bool, gt: &mut [u64], eq: &mut [u64]) {
    let n = eq.len();
    if t_bit {
        let (e_blocks, e_tail) = eq.split_at_mut(n - n % LANES);
        let (b_blocks, b_tail) = plane[..n].split_at(e_blocks.len());
        for (e, b) in e_blocks
            .chunks_exact_mut(LANES)
            .zip(b_blocks.chunks_exact(LANES))
        {
            for l in 0..LANES {
                e[l] &= b[l];
            }
        }
        for (e, b) in e_tail.iter_mut().zip(b_tail) {
            *e &= b;
        }
    } else {
        let (g_blocks, g_tail) = gt.split_at_mut(n - n % LANES);
        let (e_blocks, e_tail) = eq.split_at_mut(g_blocks.len());
        let (b_blocks, b_tail) = plane[..n].split_at(g_blocks.len());
        for ((g, e), b) in g_blocks
            .chunks_exact_mut(LANES)
            .zip(e_blocks.chunks_exact_mut(LANES))
            .zip(b_blocks.chunks_exact(LANES))
        {
            for l in 0..LANES {
                g[l] |= e[l] & b[l];
                e[l] &= !b[l];
            }
        }
        for ((g, e), b) in g_tail.iter_mut().zip(e_tail.iter_mut()).zip(b_tail) {
            *g |= *e & b;
            *e &= !b;
        }
    }
}

fn dot_i32(a: &[i32], b: &[i32]) -> i64 {
    let n = a.len().min(b.len());
    let mut lanes = [0i64; LANES];
    let a_blocks = a[..n].chunks_exact(LANES);
    let b_blocks = b[..n].chunks_exact(LANES);
    let a_tail = a_blocks.remainder();
    let b_tail = b_blocks.remainder();
    for (x, y) in a_blocks.zip(b_blocks) {
        for l in 0..LANES {
            lanes[l] = lanes[l].wrapping_add(i64::from(x[l]) * i64::from(y[l]));
        }
    }
    let mut dot = lanes.iter().fold(0i64, |acc, &l| acc.wrapping_add(l));
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        dot = dot.wrapping_add(i64::from(x) * i64::from(y));
    }
    dot
}

fn dot_rows_stride(q_block: &[i32], rows: &[i32], stride: usize, dots: &mut [i64]) {
    let len = q_block.len();
    for (r, d) in dots.iter_mut().enumerate() {
        *d = d.wrapping_add(dot_i32(q_block, &rows[r * stride..r * stride + len]));
    }
}

fn dot_i16_row(a: &[i16], b: &[i16]) -> i64 {
    let n = a.len().min(b.len());
    let mut lanes = [0i64; LANES];
    let a_blocks = a[..n].chunks_exact(LANES);
    let b_blocks = b[..n].chunks_exact(LANES);
    let a_tail = a_blocks.remainder();
    let b_tail = b_blocks.remainder();
    for (x, y) in a_blocks.zip(b_blocks) {
        for l in 0..LANES {
            lanes[l] = lanes[l].wrapping_add(i64::from(x[l]) * i64::from(y[l]));
        }
    }
    let mut dot = lanes.iter().fold(0i64, |acc, &l| acc.wrapping_add(l));
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        dot = dot.wrapping_add(i64::from(x) * i64::from(y));
    }
    dot
}

fn dot_i16_rows_stride(q_block: &[i16], rows: &[i16], stride: usize, dots: &mut [i64]) {
    let len = q_block.len();
    for (r, d) in dots.iter_mut().enumerate() {
        *d = d.wrapping_add(dot_i16_row(q_block, &rows[r * stride..r * stride + len]));
    }
}
