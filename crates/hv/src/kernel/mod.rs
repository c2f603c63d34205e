//! Unified SIMD kernel backend layer with runtime dispatch.
//!
//! Every hot bit-kernel in this crate — XOR-accumulate, popcount
//! reduction, the bit-sliced accumulator's Harley–Seal carry-save step
//! and its ripple-carry increment, the column bind-and-count that
//! encodes a whole row into counter planes, the word-parallel
//! majority/threshold comparison, the strided Hamming and integer
//! dot-product row scans that every batch search and top-k pass runs
//! over the block-major planes, and the integer dot product behind
//! cosine search — funnels through one [`Kernel`] dispatch table
//! instead of hand-written `u64` loops duplicated per call site. Three
//! interchangeable backends implement the table:
//!
//! * **`scalar`** — the original word-parallel `u64` code, extracted
//!   verbatim from the former per-file loops, and the bind-and-count on
//!   whole eight-word tiles, which the compiler vectorizes to the
//!   target's baseline width. This is the *reference*: every other
//!   backend must be bit-identical to it (enforced by
//!   `tests/kernel_equivalence.rs`).
//! * **`avx2`** — `std::arch` x86_64 intrinsics (256-bit XOR/AND, the
//!   vpshufb nibble-LUT popcount, widening 32→64-bit multiplies, 256-bit
//!   bind-and-count columns), compiled on every x86_64 build and
//!   installed only when `is_x86_feature_detected!("avx2")` says the CPU
//!   has it.
//! * **`avx512`** — the `avx2` table with its three popcount-bound
//!   entries (`popcount`, `hamming`, `hamming_rows_stride`) replaced by
//!   512-bit `vpopcntq` versions with masked tail loads, and its own
//!   bundling body: 512-bit bind-and-count columns whose full adders are
//!   two `vpternlogq` each. The other entries are the AVX2 functions.
//!   Installed only when the CPU has both `avx512f` and
//!   `avx512vpopcntdq`.
//!
//! ## Dispatch rules
//!
//! The backend is selected **once**, at first use, into a process-wide
//! table ([`active`]): the first entry of [`available`] — `avx512`
//! when the CPU supports it, else `avx2`, else `scalar`. The
//! `HYPERVEC_KERNEL` environment variable overrides the choice
//! (`scalar`, `avx2` or `avx512`; `avx2` pins the AVX2 table on an
//! AVX-512 host); naming a backend that is unknown or not available on
//! this machine **fails fast** with the list of available backends
//! rather than silently falling back, so a CI matrix or an operator
//! pinning a backend can trust what ran.
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
//! 1. Implement the function set and expose it as a `static` [`Kernel`]
//!    (a table that changes a few entries of another can share the rest
//!    through struct update, as `avx512` does with `avx2`). The
//!    bundling entries expand the shared networks (`harley_seal!` and
//!    the column network of [`Kernel::bind_bundle_columns`]) over the
//!    backend's own word type, given its full adder and loads.
//! 2. Register it in [`available`] with its detection guard, in
//!    dispatch preference order; `by_name` and the default follow.
//! 3. `tests/kernel_equivalence.rs` picks it up automatically via
//!    [`available`] — no new test code needed for bit-exactness.

/// The Harley–Seal carry-save network of [`Kernel::carry_save_16`]
/// (Muła/Kurz/Lemire, arXiv:1611.07612), written once and expanded by
/// every backend over its own word type, both for the plain step and
/// inside the column network of [`Kernel::bind_bundle_columns`].
/// `$csa(a, b, c)` is the backend's full adder returning `(carry, sum)`
/// of `a + b + c` per bit; `$x(j)` yields input `j` (a load, or the XOR
/// of a feature and a value load), called where the network consumes
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

/// The column network of [`Kernel::bind_bundle_columns`], written once
/// and expanded by every backend over its own column type (a tile of
/// eight `u64` words, a 256-bit or a 512-bit vector). It counts the
/// `$n` bound pairs of one column; `$x(i, j)` yields pair `i + j`, where
/// `i` starts a group of 16 and `j < 16`, so a backend adds the group's
/// base offset once and each `j` becomes a constant displacement.
/// [`harley_seal!`] folds each group into the four low planes, which
/// stay in registers for the whole column (the last short group is
/// padded with `$zero`), and the groups' sixteens carries collect in a
/// 16-slot buffer. The planes from 4 up live in `$upper`, a slice in
/// memory of at least four planes, zeroed by the caller: each full
/// buffer goes through a second expansion into planes 4–7, whose 256s
/// carry ripples over the rest, so the registers stay free for the
/// first-level network. The last, short buffer ripples carry by carry
/// through the planes the count reaches, as
/// `BitSliceAccumulator::add_staged` does, unless that takes more
/// adders than padding it to a full fold (at `N = 64`, 12 against 15).
/// Evaluates to planes 0–3, which the caller writes once beside
/// `$upper`. `$csa` is the backend's full adder, as in
/// [`harley_seal!`].
macro_rules! bind_bundle_column {
    ($csa:expr, $zero:expr, $x:expr, $n:expr, $upper:expr) => {{
        const INPUTS: usize = $crate::kernel::CARRY_SAVE_INPUTS;
        let (zero, x, n, upper) = ($zero, $x, $n, $upper);
        // Folds the first `len` sixteens carries, the rest padded with
        // zero, into planes 4–7 and ripples the 256s carry from plane 8.
        let fold = |upper: &mut [_], sixteens: &[_; INPUTS], len: usize| {
            let group = |j: usize| if j < len { sixteens[j] } else { zero };
            let mid = [upper[0], upper[1], upper[2], upper[3]];
            let (mid, mut carry) = harley_seal!($csa, group, mid);
            upper[..4].copy_from_slice(&mid);
            for plane in &mut upper[4..] {
                (carry, *plane) = $csa(*plane, carry, zero);
            }
        };
        let mut low = [zero; 4];
        let mut sixteens = [zero; INPUTS];
        let mut pending = 0;
        let mut i = 0;
        while i < n {
            let (l, carry) = if i + INPUTS <= n {
                harley_seal!($csa, |j: usize| x(i, j), low)
            } else {
                harley_seal!($csa, |j: usize| if i + j < n { x(i, j) } else { zero }, low)
            };
            low = l;
            sixteens[pending] = carry;
            pending += 1;
            i += INPUTS;
            if pending == INPUTS {
                fold(&mut *upper, &sixteens, INPUTS);
                pending = 0;
            }
        }
        // Planes above the low four that a count of `n` reaches.
        let used = ((usize::BITS - n.leading_zeros()) as usize).saturating_sub(4);
        if pending * used < INPUTS + used.saturating_sub(4) {
            for &carry in &sixteens[..pending] {
                let mut carry = carry;
                for plane in &mut upper[..used] {
                    (carry, *plane) = $csa(*plane, carry, zero);
                }
            }
        } else {
            fold(&mut *upper, &sixteens, pending);
        }
        low
    }};
}

mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

/// Input vectors one [`Kernel::carry_save_16`] step folds.
pub const CARRY_SAVE_INPUTS: usize = 16;

/// `u64` words per tile of the tile-major layout
/// [`Kernel::bind_bundle_columns`] reads: one 512-bit column, 64 bytes.
pub const TILE_WORDS: usize = 8;

/// Counter planes past the four a column holds in registers: enough
/// for any count that fits a `usize`.
const MAX_UPPER_PLANES: usize = usize::BITS as usize - 4;

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
/// only guaranteed identical for equal-length inputs. The strided row
/// scans are the exception: they read row `r` of `n = dist.len()` (or
/// `dots.len()`) at `rows[r·stride .. r·stride + q_block.len()]`, so
/// `rows` must hold at least `(n − 1)·stride + q_block.len()` elements,
/// and every backend panics when it is shorter.
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
    /// Encodes one row into counter planes, column by column: for each
    /// column of every tile it XORs each feature's column with the
    /// column of the value `row.levels[i]` selects (the bound pairs of
    /// paper Eq. 2, never written to memory), counts all `N` pairs with
    /// the Harley–Seal network while the four low counter planes stay
    /// in registers (the higher ones, touched once per 16 pairs, in a
    /// stack buffer), and writes each plane word once. `planes[p]` then
    /// holds bit `p` of the per-dimension count of set bits, for the
    /// `⌊log2 N⌋ + 1` planes a count of `N` needs; higher planes are
    /// not touched. Bits at positions ≥ `row.dim` are ignored and
    /// written as zero. `offsets` is scratch for the row's value
    /// offsets, reused across calls.
    ///
    /// Every backend panics before reading through a raw pointer when a
    /// level is not below `M`, when a block's length is not a whole
    /// number of tile-major vectors (`N` of them for the features), or
    /// when a plane the count needs is missing or not `⌈dim/64⌉` words.
    pub bind_bundle_columns:
        fn(row: &BoundRow<'_>, offsets: &mut Vec<u32>, planes: &mut [Vec<u64>]),
    /// One plane step of the word-parallel threshold comparison
    /// (most-significant plane first): with `t_bit` the threshold's bit
    /// at this plane, `gt |= eq & plane; eq &= !plane` when `t_bit` is
    /// 0, `eq &= plane` when it is 1.
    pub threshold_step: fn(plane: &[u64], t_bit: bool, gt: &mut [u64], eq: &mut [u64]),
    /// Hamming-distance row scan, the hot loop of batch search and of
    /// both top-k passes: row `r` occupies `rows[r * stride ..]` and
    /// `dist[r] += Σ popcount(q_block ^ row)` over its first
    /// `q_block.len()` words. `stride == q_block.len()` scans
    /// contiguous rows (every whole plane block); a shorter query block
    /// reads a word prefix of each row (a narrow pruned top-k probe).
    /// Requires `stride >= q_block.len()`.
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

/// Name of the active backend (`"scalar"`, `"avx2"` or `"avx512"`).
#[must_use]
pub fn name() -> &'static str {
    active().name
}

/// Every backend available on this machine, in dispatch preference
/// order: `avx512` when the CPU has both `avx512f` and
/// `avx512vpopcntdq`, `avx2` when it has AVX2, then `scalar`, which is
/// always present.
#[must_use]
pub fn available() -> Vec<&'static Kernel> {
    let mut out: Vec<&'static Kernel> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if has_avx512_vpopcntdq() {
            out.push(&x86::AVX512);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push(&x86::AVX2);
        }
    }
    out.push(&scalar::KERNEL);
    out
}

/// Whether the CPU has the two features the `avx512` table requires.
#[cfg(target_arch = "x86_64")]
fn has_avx512_vpopcntdq() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
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
/// input, plane and carry slices, so mismatched lengths stay
/// memory-safe — and every backend processes the same words.
fn carry_save_len(inputs: &CarrySaveGroup<'_>, low: &CarrySavePlanes<'_>, carry: &[u64]) -> usize {
    inputs
        .iter()
        .map(|s| s.len())
        .chain(low.iter().map(|s| s.len()))
        .fold(carry.len(), usize::min)
}

/// One row of a [`Kernel::bind_bundle_columns`] call. Both blocks are
/// **tile-major**: with `T = ⌈⌈dim/64⌉ / TILE_WORDS⌉` tiles per vector,
/// the [`TILE_WORDS`] words of tile `t` of vector `i` of a block of `n`
/// vectors sit at `(t·n + i)·TILE_WORDS`, and words past `⌈dim/64⌉` in
/// the last tile are padding. So one column pass over the features
/// reads one sequential stream, and a tile's `M` value columns are one
/// kilobyte-sized run at `M = 16`.
#[derive(Debug, Clone, Copy)]
pub struct BoundRow<'a> {
    /// The `N` feature vectors, tile-major.
    pub features: &'a [u64],
    /// The `M` value vectors, tile-major.
    pub values: &'a [u64],
    /// The row's level per feature: feature `i` binds value
    /// `levels[i]`, so `N = levels.len()`.
    pub levels: &'a [u16],
    /// Dimension `D` of every vector.
    pub dim: usize,
}

/// The checked shape of one [`Kernel::bind_bundle_columns`] call.
#[derive(Debug, Clone, Copy)]
struct ColumnShape {
    /// Features `N`.
    n: usize,
    /// Values `M`.
    m: usize,
    /// Words per vector, `⌈dim/64⌉`.
    n_words: usize,
    /// Tiles per vector.
    tiles: usize,
    /// Planes a count of `N` needs: `⌊log2 N⌋ + 1`, or 0 for `N = 0`.
    n_planes: usize,
    /// Dimension `D`.
    dim: usize,
}

impl ColumnShape {
    /// Checks every bound the backends' raw-pointer reads and writes
    /// rely on, and writes the row's value offsets into `offsets`: the
    /// word offset of value `levels[i]`'s column inside one tile's value
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is 0, a level is not below `M`, the feature block
    /// is not `N · T · TILE_WORDS` words, the value block is not a
    /// whole number of vectors, or `planes` lacks a needed plane of
    /// `⌈dim/64⌉` words.
    fn check(row: &BoundRow<'_>, offsets: &mut Vec<u32>, planes: &[Vec<u64>]) -> Self {
        assert!(row.dim > 0, "column bind: dimension must be positive");
        let n = row.levels.len();
        let n_words = row.dim.div_ceil(64);
        let tiles = n_words.div_ceil(TILE_WORDS);
        let vector_len = tiles * TILE_WORDS;
        // Checked: a wrapped product could match a short block.
        assert_eq!(
            n.checked_mul(vector_len),
            Some(row.features.len()),
            "column bind: the feature block is not {n} tile-major vectors of {vector_len} words"
        );
        assert!(
            row.values.len().is_multiple_of(vector_len),
            "column bind: the value block is not a whole number of {vector_len}-word vectors"
        );
        let m = row.values.len() / vector_len;
        offsets.clear();
        offsets.extend(row.levels.iter().map(|&lv| {
            let lv = usize::from(lv);
            assert!(lv < m, "level index {lv} out of range (M = {m})");
            // A `u16` level times 8 fits a `u32`.
            (lv * TILE_WORDS) as u32
        }));
        let n_planes = (usize::BITS - n.leading_zeros()) as usize;
        assert!(
            planes.len() >= n_planes && planes[..n_planes].iter().all(|p| p.len() == n_words),
            "column bind: a count of {n} needs {n_planes} planes of {n_words} words"
        );
        ColumnShape {
            n,
            m,
            n_words,
            tiles,
            n_planes,
            dim: row.dim,
        }
    }

    /// Clears the bits at positions ≥ `dim` in the last word of every
    /// written plane: garbage there in a feature or value word reaches
    /// only its own bit position, so this is all "ignored" takes.
    fn mask_tail(&self, planes: &mut [Vec<u64>]) {
        let tail = self.dim % 64;
        if tail != 0 {
            for plane in &mut planes[..self.n_planes] {
                plane[self.n_words - 1] &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Resolves an optional `HYPERVEC_KERNEL` override to a backend.
///
/// # Errors
///
/// Returns the fail-fast message (naming the available backends) when
/// the override is unknown or unavailable on this machine.
fn select(env_override: Option<&str>) -> Result<&'static Kernel, String> {
    // Documented default: the first available backend (avx512, then
    // avx2, then the scalar reference, which is always present).
    match env_override.map(str::trim) {
        None | Some("") => Ok(available()[0]),
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
        assert_eq!(scalar().name, "scalar");
    }

    #[test]
    fn select_default_is_the_first_available_backend() {
        let want = available()[0].name;
        assert_eq!(select(None).unwrap().name, want);
        assert_eq!(select(Some("  ")).unwrap().name, want);
    }

    #[test]
    fn avx512_is_listed_first_exactly_when_detected() {
        #[cfg(target_arch = "x86_64")]
        let detected = has_avx512_vpopcntdq();
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        let names: Vec<&str> = available().iter().map(|k| k.name).collect();
        assert_eq!(names.contains(&"avx512"), detected, "{names:?}");
        assert_eq!(names[0] == "avx512", detected, "{names:?}");
        assert_eq!(by_name("avx512").is_some(), detected);
    }

    #[test]
    fn select_honors_explicit_backends() {
        assert_eq!(select(Some("scalar")).unwrap().name, "scalar");
        // Case- and whitespace-insensitive.
        assert_eq!(select(Some(" Scalar ")).unwrap().name, "scalar");
    }

    #[test]
    fn select_fails_fast_on_unknown_backend() {
        for unknown in ["avx1024", "portable"] {
            let err = select(Some(unknown)).unwrap_err();
            assert!(err.contains(unknown), "{err}");
            assert!(err.contains("scalar"), "names available backends: {err}");
        }
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
