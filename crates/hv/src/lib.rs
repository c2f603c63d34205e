//! # hypervec — hyperdimensional vector math substrate
//!
//! Bit-packed bipolar hypervectors and the Multiplication–Addition–
//! Permutation (MAP) operator set used by hyperdimensional computing
//! (HDC), built for the HDLock (DAC'22) reproduction.
//!
//! ## The representation
//!
//! A [`BinaryHv`] lives in `{+1, −1}^D` and is stored one bit per
//! dimension (set bit ⇔ −1), so:
//!
//! * **Multiplication** (binding) is a word-wise XOR,
//! * **Addition** (bundling) accumulates into an [`IntHv`] / a
//!   [`BundleAccumulator`] and binarizes with `sign(·)`,
//! * **Permutation** is a circular rotation `ρ_k` computed on packed
//!   words ([`BinaryHv::rotated`]).
//!
//! [`LevelHvs`] builds the linearly-correlated *value* hypervectors of
//! record-based encoding (paper Eq. 1b), and [`ItemMemory`] stores the
//! feature hypervectors in index order. Binary models compare by
//! Hamming distance ([`BinaryHv::hamming`], or its bipolar form
//! [`BinaryHv::cosine`]), non-binary ones by [`IntHv::cosine`].
//!
//! ## The word-parallel encoding engine
//!
//! Bundling through an [`IntHv`] costs one scalar add per dimension per
//! vector. [`BitSliceAccumulator`] removes that bottleneck by storing
//! the per-dimension counters *bit-sliced*: counter bit `p` of all `D`
//! dimensions is one packed `u64` plane, so counter updates are
//! whole-word `AND`/`XOR` instead of 64 scalar adds. A single add is a
//! ripple-carry increment that, at `D = 10 000`, walks nearly every
//! plane; the bulk paths fold each 16 inputs with one Harley–Seal
//! carry-save step into the four low planes and each 16 of those
//! sixteens carries with a second step into the next four, rippling
//! only what is left — about one full adder per input word. Every
//! cached encode is one column pass
//! ([`BitSliceAccumulator::bundle_row`]): the features and values sit
//! **tile-major** in [`TileBlock`]s, so for each 512-bit tile the
//! kernel reads one sequential stream of feature tiles, XORs each with
//! its value's tile in registers (no bound pair is ever written to
//! memory, and no table is built), counts all `N` with the four low
//! counter planes held in registers, and writes each plane word once.
//! The engine is **bit-exact** with the scalar path by construction:
//!
//! * **Layout** — `planes[p][w]` is bit `p` of the counters for
//!   dimensions `64·w..64·w+63`; the bipolar sum at dimension `d` is
//!   `count − 2·c_d` where `c_d` counts −1 contributions.
//! * **Tie policy** — binarization maps a zero sum to +1
//!   (`majority_ties_positive`), or consumes one `rng.coin()` per tied
//!   dimension in ascending dimension order (`majority_with`), exactly
//!   matching [`IntHv::sign_ties_positive`] / [`IntHv::sign_with`].
//! * **Scratch-buffer contract** — accumulators are `clear()`ed and
//!   reused between samples; `rotated_into` / `bind_into` /
//!   `xor_into` write into caller-owned buffers, so steady-state batch
//!   encoding performs no per-sample allocation beyond its outputs.
//!
//! Batch work fans out per chunk (not per sample) with [`par`], giving
//! each worker private scratch state; `HYPERVEC_THREADS` pins the
//! worker count.
//!
//! ## The sharded search engine
//!
//! With encoding word-parallel, the associative search over the class
//! memory dominates inference. [`ShardedClassMemory`] packs the class
//! rows for batch throughput instead of scanning them one
//! [`BinaryHv`] at a time:
//!
//! * **Packed planes** — binary rows live as contiguous `u64` words in
//!   *block-major* order: within each block of
//!   [`search::INT_BLOCK_DIMS`] = 1024 dimensions
//!   ([`search::BLOCK_WORDS`] words, 128 B per row) the rows are laid
//!   out back to back, so comparing every class against a query inside
//!   one block is a linear walk over a few KiB that stays
//!   cache-resident while a whole chunk of queries streams over it.
//!   Integer rows share the same blocks: row-interleaved i32 planes,
//!   plus an i16 *sidecar* plane (values saturated to ±32767) that drives the `vpmaddwd`
//!   fast path — a memory whose values never hit the clamp records
//!   that fact, and queries that narrow losslessly take the half-width
//!   plane with bit-identical dots. On Linux, `reserve` advises each
//!   binary plane that spans an aligned 2 MiB page onto transparent
//!   huge pages (`MADV_HUGEPAGE`, best-effort), so scans of a
//!   many-MiB corpus walk 2 MiB pages instead of 4 KiB ones.
//! * **Batch kernels** — `search_batch_binary` / `search_batch_int`
//!   compute the top-1 row *and* the full score vector for N queries
//!   at once via word-parallel popcount (binary) or strided multi-row
//!   dot products (integer), sharding across queries on [`par`] scoped
//!   threads with one distance matrix per worker. The int path tiles
//!   queries so each 4-byte-per-dimension query streams from memory
//!   once — norm, lossless narrowing and the blocked sweep all consume
//!   it cache-hot.
//! * **Bit-exactness** — distances are exact popcounts and the float
//!   score sequences reproduce [`BinaryHv::cosine`] /
//!   [`IntHv::cosine`] operation-for-operation, so batch results are
//!   bit-identical to the scalar per-row scan, including
//!   lowest-index tie-breaking.
//! * **In-place row updates** — `update_row` / `update_int_row`
//!   rewrite one row where it sits, so a retraining loop that keeps its
//!   class rows only in the packed planes refreshes each touched row
//!   after an accumulator adjustment without rebuilding the planes;
//!   `binary_row` / `int_row` gather a row back out (snapshot writing).
//!
//! ## Top-k search
//!
//! Classification needs top-1 over tens of class rows; the
//! million-user similarity workload needs top-k over millions of rows,
//! where materializing full `queries × rows` score vectors is the
//! bottleneck. `search_topk_binary` / `search_topk_int` shard the rows
//! across workers, stream each shard tile by tile through the
//! block-major planes, and keep a *candidate buffer* of the k best per
//! query (compacted back to k by `select_nth_unstable` whenever it
//! reaches 2k; once k are in, a row that does not beat the k-th best
//! at the last compaction never enters it) — `O(tile + k)` memory per
//! worker, merged
//! deterministically, and **bit-identical** (rows, tie order, score
//! bits) to stably sorting the full score vector.
//!
//! `search_topk_binary_pruned` adds a coarse-quantized multi-probe
//! scan: a first pass reads only the leading packed words of every row
//! ([`ProbeConfig::probe_words`] of `⌈D/64⌉`; the default is exactly
//! the first plane block, one contiguous stream), keeps
//! `probe_factor · k` candidates per query, and
//! rescores the survivors with exact full-width distances. Each coarse
//! key is the exact distance over the probe, so the rescore continues
//! from it and stops at the running k-th best distance: a candidate is
//! dropped once its partial sum exceeds it, and the rescore ends at
//! the first coarse key that does.
//! `search_topk_int_pruned` is the cosine twin under the same
//! [`ProbeConfig`] semantics: its coarse pass runs the i16-quantized
//! strided kernel over the leading `probe_words · 64` dimensions of
//! the blocked int planes (saturating quantization — coarse scores
//! order candidates, they are never returned), then rescores survivors
//! with exact full-width i32 dots. The semantics are pinned at the
//! extremes for both metrics: at **full probe width** the result is
//! *bit-identical* to exact top-k (argmax, tie order, score sequence —
//! property-tested), and below [`ProbeConfig::exact_threshold`] rows
//! the call falls back to the exact scan. In between, `probe_factor`
//! is the recall knob: recall@k approaches 1 as the candidate multiple
//! grows past the size of the query's true neighborhood, at the cost
//! of rescoring more survivors.
//!
//! Because the survivor set and the rescore's bound — and therefore
//! the rescoring work — are data-dependent, the serving layer's
//! constant-time hardened mode bypasses the pruned scans in favor of
//! the exact scan, which reads the same rows for every query; which
//! rows enter its candidate buffers, and when they compact, still
//! depends on the scores (threat model in the repository's
//! `SECURITY.md`).
//!
//! ## Kernel backends
//!
//! All of the loops above — XOR-accumulate, popcount reduction, the
//! carry-save step and the ripple-carry increment, the column
//! bind-and-count, the threshold
//! comparison, the strided Hamming-distance row scan, and the integer
//! dot products (the one-pair `dot_i32` plus the strided multi-row
//! `dot_rows_stride` / `dot_i16_rows_stride` primitives that sweep a
//! query block over row-interleaved planes) — execute through the
//! [`kernel`] dispatch table rather than per-file `u64` loops. Three
//! backends implement it: `scalar` (the reference, always available),
//! `avx2` (`std::arch` x86_64 intrinsics, installed when
//! `is_x86_feature_detected!("avx2")` confirms support — the strided
//! row scans unroll four rows sharing each query load, with the
//! vpshufb popcount for Hamming, `vpmuldq` for i32 and `vpmaddwd` with
//! group-deferred i64 widening for i16), and `avx512` (the `avx2`
//! table with 512-bit `vpopcntq` popcount, Hamming and Hamming row
//! scan, and its own 512-bit bind-and-count whose full adders are
//! `vpternlogq`, installed when the CPU has `avx512f` and
//! `avx512vpopcntdq`).
//!
//! * **Dispatch rules** — selected once at first use: `avx512` when
//!   the CPU has it, else `avx2`, else `scalar`. Every consumer
//!   ([`BitSliceAccumulator`],
//!   [`ShardedClassMemory`], [`BitVec bulk ops`](bitvec::BitWords),
//!   [`BinaryHv::hamming`]) picks the fast path up transparently.
//! * **Env override** — `HYPERVEC_KERNEL=scalar|avx2|avx512` forces a
//!   backend (`avx2` measures the AVX2 table on an AVX-512 host); an
//!   unknown or unavailable name fails fast with the list of available
//!   backends (never a silent fallback).
//! * **Bit-exactness** — backends are interchangeable bit-for-bit
//!   (integral arithmetic throughout; `tests/kernel_equivalence.rs`
//!   pins scores, argmax and tie order per backend against `scalar`).
//! * **Adding a backend** — implement the [`kernel::Kernel`] function
//!   set, register it in `kernel::available`/`by_name`; the
//!   equivalence suite covers it automatically.
//!
//! ## Example
//!
//! ```
//! use hypervec::{HvRng, LevelHvs};
//!
//! let mut rng = HvRng::from_seed(2022);
//! let features = rng.orthogonal_pool(10_000, 4);
//! let values = LevelHvs::generate(&mut rng, 10_000, 8)?;
//!
//! // record-based encoding of a 4-feature sample, all features at level 0
//! let mut acc = hypervec::BundleAccumulator::new(10_000);
//! for fea in &features {
//!     acc.add(&fea.bind(values.level(0)));
//! }
//! let encoded = acc.majority_with(&mut rng);
//! assert_eq!(encoded.dim(), 10_000);
//! # Ok::<(), hypervec::HvError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accumulator;
pub mod binary;
pub mod bitslice;
pub mod bitvec;
pub mod dense;
pub mod error;
pub mod itemmem;
pub mod kernel;
pub mod level;
pub mod par;
pub mod rng;
pub mod search;
pub mod stats;
pub mod topk;

pub use accumulator::BundleAccumulator;
pub use binary::BinaryHv;
pub use bitslice::{BitSliceAccumulator, TileBlock};
pub use dense::IntHv;
pub use error::HvError;
pub use itemmem::ItemMemory;
pub use level::LevelHvs;
pub use rng::HvRng;
pub use search::{BatchSearchResult, ShardedClassMemory};
pub use topk::{BatchTopKResult, ProbeConfig, TopKMatch};
