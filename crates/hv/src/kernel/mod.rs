//! Unified SIMD kernel backend layer with runtime dispatch.
//!
//! Every hot bit-kernel in this crate — XOR-accumulate, popcount
//! reduction, the bit-sliced accumulator's Harley–Seal carry-save step
//! (plain, and fused with the bind of its inputs) and its ripple-carry
//! increment, the word-parallel majority/threshold
//! comparison, the Hamming-distance row scan of the sharded search
//! engine, and the integer dot product behind cosine search — funnels
//! through one [`Kernel`] dispatch table instead of hand-written `u64`
//! loops duplicated per call site. Three interchangeable backends
//! implement the table:
//!
//! * **`scalar`** — the original word-parallel `u64` code, extracted
//!   verbatim from the former per-file loops. This is the *reference*:
//!   every other backend must be bit-identical to it (enforced by
//!   `tests/kernel_equivalence.rs`).
//! * **`avx2`** — `std::arch` x86_64 intrinsics (256-bit XOR/AND, the
//!   vpshufb nibble-LUT popcount, widening 32→64-bit multiplies),
//!   compiled on every x86_64 build and installed only when
//!   `is_x86_feature_detected!("avx2")` says the CPU has it.
//! * **`portable`** — a `std::simd`-style chunked variant operating on
//!   `[u64; 4]` lanes in plain Rust, written so LLVM can autovectorize
//!   it for whatever vector ISA the target has. Always available.
//!
//! ## Dispatch rules
//!
//! The backend is selected **once**, at first use, into a process-wide
//! table ([`active`]): `avx2` when the CPU supports it, otherwise
//! `scalar`. The `HYPERVEC_KERNEL` environment variable overrides the
//! choice (`scalar`, `avx2`, or `portable`); naming a backend that is
//! unknown or not available on this machine **fails fast** with the
//! list of available backends rather than silently falling back, so a
//! CI matrix or an operator pinning a backend can trust what ran.
//!
//! ## Exactness contract
//!
//! All kernel arithmetic is integral (bit operations, popcounts, and
//! wrapping integer sums — integer addition commutes even modulo 2⁶⁴,
//! so lane-reassociated sums are *identical*, not merely close), and
//! every floating-point score downstream is derived from those integers
//! by the same expression. Backends are therefore interchangeable
//! bit-for-bit: scores, argmax winners and tie order never depend on
//! the backend.
//!
//! ## Adding a backend
//!
//! 1. Implement the function set as a new submodule and expose a
//!    `static KERNEL: Kernel`.
//! 2. Register it in [`available`] (with its detection guard) and in
//!    `by_name`.
//! 3. `tests/kernel_equivalence.rs` picks it up automatically via
//!    [`available`] — no new test code needed for bit-exactness.

/// The Harley–Seal carry-save network of [`Kernel::carry_save_16`] and
/// [`Kernel::bind_carry_save_16`] (Muła/Kurz/Lemire, arXiv:1611.07612),
/// written once and expanded by the scalar and AVX2 backends over their
/// own word types (the portable backend shares the scalar steps).
/// `$csa(a, b, c)` is the backend's full adder returning `(carry, sum)`
/// of `a + b + c` per bit; `$x(j)` yields input `j` (a load, or the XOR
/// of two loads for the fused bind), called where the network consumes
/// it so only a few inputs are live at once; `$low` holds the four low
/// counter planes `[ones, twos, fours, eights]`. Evaluates to the
/// updated low planes and the sixteens carry: 15 full adders per word
/// position.
macro_rules! harley_seal {
    ($csa:expr, $x:expr, $low:expr) => {{
        let x = $x;
        let [ones, twos, fours, eights] = $low;
        let (twos_a, ones) = $csa(ones, x(0), x(1));
        let (twos_b, ones) = $csa(ones, x(2), x(3));
        let (fours_a, twos) = $csa(twos, twos_a, twos_b);
        let (twos_a, ones) = $csa(ones, x(4), x(5));
        let (twos_b, ones) = $csa(ones, x(6), x(7));
        let (fours_b, twos) = $csa(twos, twos_a, twos_b);
        let (eights_a, fours) = $csa(fours, fours_a, fours_b);
        let (twos_a, ones) = $csa(ones, x(8), x(9));
        let (twos_b, ones) = $csa(ones, x(10), x(11));
        let (fours_a, twos) = $csa(twos, twos_a, twos_b);
        let (twos_a, ones) = $csa(ones, x(12), x(13));
        let (twos_b, ones) = $csa(ones, x(14), x(15));
        let (fours_b, twos) = $csa(twos, twos_a, twos_b);
        let (eights_b, fours) = $csa(fours, fours_a, fours_b);
        let (sixteens, eights) = $csa(eights, eights_a, eights_b);
        ([ones, twos, fours, eights], sixteens)
    }};
}

mod portable;
mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

/// Input vectors one [`Kernel::carry_save_16`] step folds.
pub const CARRY_SAVE_INPUTS: usize = 16;

/// The packed input vectors of one [`Kernel::carry_save_16`] step.
pub type CarrySaveGroup<'a> = [&'a [u64]; CARRY_SAVE_INPUTS];

/// The four counter planes a carry-save step updates in place,
/// least-significant first (`[ones, twos, fours, eights]` for the
/// accumulator's first level).
pub type CarrySavePlanes<'a> = [&'a mut [u64]; 4];

/// Dispatch table of the primitive word-level operations the engine
/// needs. One instance per backend; selected once via [`active`].
///
/// The contract is equal slice lengths (this crate's wrappers assert
/// dimensions before dispatching). Mismatched lengths are always
/// memory-safe — every backend bounds its loops by the shortest slice
/// involved (or panics on a safe slice index) — but which elements get
/// processed is then backend-defined, so results across backends are
/// only guaranteed identical for equal-length inputs.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// Backend name as reported by [`name`] and the serving layer.
    pub name: &'static str,
    /// `out[i] = a[i] ^ b[i]` (XOR-accumulate into a caller buffer).
    pub xor_into: fn(a: &[u64], b: &[u64], out: &mut [u64]),
    /// `a[i] ^= b[i]`.
    pub xor_assign: fn(a: &mut [u64], b: &[u64]),
    /// `Σ popcount(words[i])` — popcount reduction over packed planes.
    pub popcount: fn(words: &[u64]) -> u64,
    /// `Σ popcount(a[i] ^ b[i])` — fused XOR + popcount (Hamming).
    pub hamming: fn(a: &[u64], b: &[u64]) -> u64,
    /// One ripple-carry plane step of the bit-sliced accumulator:
    /// `carry_out = plane & carry; plane ^= carry; carry = carry_out`,
    /// returning whether any carry survives into the next plane.
    pub ripple_step: fn(plane: &mut [u64], carry: &mut [u64]) -> bool,
    /// Harley–Seal carry-save step of the bit-sliced accumulator: adds
    /// the [`CARRY_SAVE_INPUTS`] vectors `inputs` to the counters whose
    /// four low bit-planes are `low` (`[ones, twos, fours, eights]`),
    /// updating those planes in place and overwriting `carry` with the
    /// sixteens carry into plane 4; returns whether any carry is set.
    /// The four low counter bits plus 16 inputs stay below 32, so the
    /// carry is one bit per dimension, and the caller ripples it over
    /// the higher planes with `ripple_step`.
    pub carry_save_16:
        fn(inputs: &CarrySaveGroup<'_>, low: CarrySavePlanes<'_>, carry: &mut [u64]) -> bool,
    /// `carry_save_16` fused with the bind of its inputs: adds the 16
    /// bound pairs `a[k] ^ b[k]` (paper Eq. 2) without materializing
    /// them — `a` the feature words, `b` the value words of an encoded
    /// row. Planes, carry and return value are exactly those of
    /// `carry_save_16` over the XORed words.
    pub bind_carry_save_16: fn(
        a: &CarrySaveGroup<'_>,
        b: &CarrySaveGroup<'_>,
        low: CarrySavePlanes<'_>,
        carry: &mut [u64],
    ) -> bool,
    /// One plane step of the word-parallel threshold comparison
    /// (most-significant plane first): with `t_bit` the threshold's bit
    /// at this plane, `gt |= eq & plane; eq &= !plane` when `t_bit` is
    /// 0, `eq &= plane` when it is 1.
    pub threshold_step: fn(plane: &[u64], t_bit: bool, gt: &mut [u64], eq: &mut [u64]),
    /// Hamming-distance row scan: `rows` holds `dist.len()` rows of
    /// `q_block.len()` words back to back; `dist[r] +=
    /// Σ popcount(q_block ^ rows[r])`. The batch-search hot loop.
    pub hamming_rows: fn(q_block: &[u64], rows: &[u64], dist: &mut [u32]),
    /// Strided variant of `hamming_rows` for the pruned top-k coarse
    /// pass: row `r` occupies `rows[r * stride ..]` but only its first
    /// `q_block.len()` words are scanned — a free word-prefix subsample
    /// of each block-major plane block. `stride == q_block.len()`
    /// degenerates to `hamming_rows`. Requires `stride >=
    /// q_block.len()`.
    pub hamming_rows_stride: fn(q_block: &[u64], rows: &[u64], stride: usize, dist: &mut [u32]),
    /// Wrapping `i64` dot product of two `i32` slices (cosine search).
    pub dot_i32: fn(a: &[i32], b: &[i32]) -> i64,
    /// Dot-product row scan, the integer twin of `hamming_rows_stride`:
    /// row `r` occupies `rows[r * stride ..]` and its first
    /// `q_block.len()` values are multiplied against the query block,
    /// accumulating `dots[r] += Σ q_block[i] · rows[r*stride + i]` with
    /// wrapping `i64` arithmetic (so any lane reassociation is exact).
    /// `stride == q_block.len()` scans contiguous rows. Requires
    /// `stride >= q_block.len()`.
    pub dot_rows_stride: fn(q_block: &[i32], rows: &[i32], stride: usize, dots: &mut [i64]),
    /// `i16` narrow variant of `dot_rows_stride` for rows whose values
    /// fit `[-32767, 32767]` (note: **not** −32768 — the AVX2 vpmaddwd
    /// pairwise i32 sums must not overflow). Used both by the lossless
    /// i16 sidecar fast path (exact when every value fits the range)
    /// and by the saturating quantized coarse pass of pruned int top-k.
    pub dot_i16_rows_stride: fn(q_block: &[i16], rows: &[i16], stride: usize, dots: &mut [i64]),
}

/// The selected process-wide kernel (see module docs for the rules).
///
/// # Panics
///
/// Panics on first use if `HYPERVEC_KERNEL` names an unknown or
/// unavailable backend — deliberately fail-fast, never a silent
/// fallback.
#[must_use]
pub fn active() -> &'static Kernel {
    static ACTIVE: OnceLock<&'static Kernel> = OnceLock::new();
    ACTIVE.get_or_init(
        || match select(std::env::var("HYPERVEC_KERNEL").ok().as_deref()) {
            Ok(k) => k,
            Err(msg) => panic!("{msg}"),
        },
    )
}

/// Name of the active backend (`"scalar"`, `"avx2"`, or `"portable"`).
#[must_use]
pub fn name() -> &'static str {
    active().name
}

/// Every backend available on this machine. `scalar` and `portable`
/// are always present; `avx2` leads the list when the CPU has it. The
/// *default dispatch* is avx2-else-scalar (see module docs), not
/// simply the first entry.
#[must_use]
pub fn available() -> Vec<&'static Kernel> {
    let mut out: Vec<&'static Kernel> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        out.push(&x86::KERNEL);
    }
    out.push(&portable::KERNEL);
    out.push(&scalar::KERNEL);
    out
}

/// Looks up an available backend by name (`None` when the name is
/// unknown or the backend cannot run on this machine).
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Kernel> {
    available().into_iter().find(|k| k.name == name)
}

/// The scalar reference backend (always available; what every other
/// backend is tested bit-identical against).
#[must_use]
pub fn scalar() -> &'static Kernel {
    &scalar::KERNEL
}

/// Words every backend's carry-save step processes: the shortest of its
/// input (`a`, and `b` for the fused bind), plane and carry slices, so
/// mismatched lengths stay memory-safe — and every backend processes
/// the same words.
fn carry_save_len(
    a: &CarrySaveGroup<'_>,
    b: &CarrySaveGroup<'_>,
    low: &CarrySavePlanes<'_>,
    carry: &[u64],
) -> usize {
    a.iter()
        .chain(b)
        .map(|s| s.len())
        .chain(low.iter().map(|s| s.len()))
        .fold(carry.len(), usize::min)
}

/// Resolves an optional `HYPERVEC_KERNEL` override to a backend.
///
/// # Errors
///
/// Returns the fail-fast message (naming the available backends) when
/// the override is unknown or unavailable on this machine.
fn select(env_override: Option<&str>) -> Result<&'static Kernel, String> {
    // Documented default: avx2 when the CPU has it, otherwise the
    // scalar reference (portable stays opt-in until it is benchmarked
    // faster than scalar on a real non-AVX2 target).
    let fallback = || by_name("avx2").unwrap_or_else(scalar);
    match env_override.map(str::trim) {
        None | Some("") => Ok(fallback()),
        Some(requested) => {
            let requested = requested.to_ascii_lowercase();
            by_name(&requested).ok_or_else(|| {
                let names: Vec<&str> = available().iter().map(|k| k.name).collect();
                format!(
                    "HYPERVEC_KERNEL='{requested}' names an unknown or unavailable kernel \
                     backend; available on this machine: {}",
                    names.join(", ")
                )
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(available().iter().any(|k| k.name == "scalar"));
        assert!(available().iter().any(|k| k.name == "portable"));
        assert_eq!(scalar().name, "scalar");
    }

    #[test]
    fn select_default_is_avx2_or_scalar() {
        let want = if by_name("avx2").is_some() {
            "avx2"
        } else {
            "scalar"
        };
        assert_eq!(select(None).unwrap().name, want);
        assert_eq!(select(Some("  ")).unwrap().name, want);
    }

    #[test]
    fn select_honors_explicit_backends() {
        assert_eq!(select(Some("scalar")).unwrap().name, "scalar");
        assert_eq!(select(Some("portable")).unwrap().name, "portable");
        // Case- and whitespace-insensitive.
        assert_eq!(select(Some(" Scalar ")).unwrap().name, "scalar");
    }

    #[test]
    fn select_fails_fast_on_unknown_backend() {
        let err = select(Some("avx512")).unwrap_err();
        assert!(err.contains("avx512"), "{err}");
        assert!(err.contains("scalar"), "names available backends: {err}");
        assert!(err.contains("portable"), "names available backends: {err}");
    }

    #[test]
    fn active_runs_and_names_a_real_backend() {
        let k = active();
        assert!(available().iter().any(|a| a.name == k.name));
        assert_eq!(name(), k.name);
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("not-a-backend").is_none());
    }
}
