//! Sharded, word-parallel associative search over a set of class rows.
//!
//! Inference, the attack oracle's scoring loop and the serving path all
//! reduce to the same kernel: compare a query hypervector against every
//! row of a class memory and take the best match. The one-row-at-a-time
//! scan ([`ItemMemory::nearest`](crate::ItemMemory::nearest),
//! `classify_binary_hv`) touches each packed row once per query with no
//! reuse; [`ShardedClassMemory`] restructures the rows for batch
//! throughput:
//!
//! * **Packed planes** — binary rows are stored as contiguous `u64`
//!   words, *block-major*: the words of a dimension block are laid out
//!   row after row, so scanning all `C` rows over one block is a linear
//!   walk through a few KiB.
//! * **Dimension blocking** — the binary and integer planes share one
//!   block of [`INT_BLOCK_DIMS`] = 1024 dimensions ([`BLOCK_WORDS`]
//!   packed words, 128 B per binary row). One block of every row stays
//!   cache-resident while a whole chunk of queries streams over it, and
//!   distances accumulate in a per-worker `queries × rows` matrix.
//!   Every scan of a block — batch search, exact top-k and the pruned
//!   coarse probe — is one contiguous pass of the kernel's strided
//!   row scan.
//! * **Sharding** — batches shard across queries on
//!   [`par`] scoped threads (each worker owns its distance
//!   matrix); single-query searches over very large row counts shard
//!   across rows instead and merge deterministically.
//!
//! Every kernel is **bit-identical** with the scalar reference scan:
//! binary distances are exact popcounts, integer scores reproduce
//! [`IntHv::cosine`](crate::IntHv::cosine) operation-for-operation
//! (same i64 dot, same `√·` and multiplication order), and ties resolve
//! to the lowest row index exactly like the scalar argmin/argmax loops.

use std::ops::Range;

use crate::binary::BinaryHv;
use crate::dense::IntHv;
use crate::error::HvError;
use crate::kernel::{self, Kernel};
use crate::par;

/// Dimensions per plane block, one block shared by the binary and
/// integer planes: 1024 × 4 B = 4 KiB per row per block in the i32
/// planes (2 KiB in the i16 sidecar, 128 B in the binary planes). The
/// pruned coarse passes consume whole leading blocks, so this is also
/// the granularity of probe truncation.
pub const INT_BLOCK_DIMS: usize = 1024;

/// Words per binary plane block: the [`INT_BLOCK_DIMS`] dimensions of
/// the shared block, 16 words = 128 B per row per block, so the block
/// of up to 256 class rows fits a 32 KiB L1 data cache. The default
/// pruned top-k probe is exactly block 0, one contiguous stream.
pub const BLOCK_WORDS: usize = INT_BLOCK_DIMS / 64;

/// Largest magnitude representable in the i16 sidecar planes. One short
/// of `i16::MIN` on the negative side: the AVX2 `vpmaddwd` kernel sums
/// two products into an i32 lane, and `2 · 32767²` fits i32 while
/// `2 · 32768²` does not.
pub(crate) const I16_LIMIT: i32 = 32767;

/// Row count above which a single-query search shards across rows.
const ROW_SHARD_MIN: usize = 4096;

/// Minimum queries per worker chunk in the batch kernels.
const QUERY_CHUNK: usize = 4;

/// Queries per cache tile in the int batch kernel. The int path is
/// memory-bound on query bytes (a 10k-dim i32 query is 40 KiB); tiling
/// lets the norm dot pull each query from RAM once and the narrowing +
/// strided sweep consume it while still cached, instead of streaming
/// the whole chunk's queries through three separate phases.
const INT_QUERY_TILE: usize = 8;

/// `(start, len)` of block `b` when blocks of `block` units tile
/// `total` units (the last block may be short).
fn block_range(b: usize, block: usize, total: usize) -> (usize, usize) {
    let start = b * block;
    (start, block.min(total - start))
}

/// Truncates `values` into the i16 sidecar domain, reporting whether
/// the narrowing was lossless (every value within `±I16_LIMIT`). The
/// clamp round-trip compiles to pminsd/pmaxsd + a flat OR reduction, so
/// the check vectorizes alongside the truncating store.
fn narrow_into(values: &[i32], out: &mut [i16]) -> bool {
    let mut escaped = 0i32;
    for (o, &v) in out.iter_mut().zip(values) {
        escaped |= v ^ v.clamp(-I16_LIMIT, I16_LIMIT);
        *o = v as i16;
    }
    escaped == 0
}

/// Transparent huge page size on Linux's common targets (x86-64, and
/// aarch64 with 4 KiB base pages).
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// Advises the kernel to back the 2 MiB-aligned interior of `plane`'s
/// allocation with transparent huge pages (`madvise(MADV_HUGEPAGE)`), so
/// scans over planes of many MiB walk 2 MiB pages instead of 4 KiB
/// ones. Best-effort, like [`par`]'s core pinning: it returns whether
/// the kernel took the advice, and `false` (an allocation that spans
/// no aligned 2 MiB page, a kernel without THP, a platform other than
/// Linux) changes only speed. It advises this process's own memory and
/// changes no system setting.
fn advise_huge_pages(plane: &Vec<u64>) -> bool {
    let base = plane.as_ptr() as usize;
    let bytes = plane.capacity() * std::mem::size_of::<u64>();
    let start = base.next_multiple_of(HUGE_PAGE_BYTES);
    let end = (base + bytes) / HUGE_PAGE_BYTES * HUGE_PAGE_BYTES;
    if end <= start {
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        // Minimal libc shim: Linux guarantees the symbol; 14 is
        // `MADV_HUGEPAGE` in the kernel's generic `mman-common.h`.
        extern "C" {
            fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
        }
        const MADV_HUGEPAGE: i32 = 14;
        // SAFETY: `start..end` is page-aligned and lies inside `plane`'s
        // live allocation. `MADV_HUGEPAGE` only changes how the kernel
        // backs those pages, never their contents, so no Rust reference
        // into the plane is invalidated.
        unsafe { madvise(start as *mut std::ffi::c_void, end - start, MADV_HUGEPAGE) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// A class memory packed for batched associative search.
///
/// Binary rows are always present (pushed via [`Self::from_rows`] /
/// [`Self::push`]); integer rows for cosine search are attached with
/// [`Self::set_int_rows`]. Rows can be refreshed in place
/// ([`Self::update_row`], [`Self::update_int_row`]) so a training loop
/// can keep a packed mirror in sync without rebuilding it.
///
/// # Examples
///
/// ```
/// use hypervec::{HvRng, ShardedClassMemory};
///
/// let mut rng = HvRng::from_seed(7);
/// let rows: Vec<_> = (0..4).map(|_| rng.binary_hv(10_000)).collect();
/// let mem = ShardedClassMemory::from_rows(&rows)?;
/// let queries: Vec<&_> = rows.iter().collect();
/// let hits = mem.search_batch_binary(&queries)?;
/// assert_eq!(hits.best_rows(), &[0, 1, 2, 3]);
/// # Ok::<(), hypervec::HvError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedClassMemory {
    dim: usize,
    words_per_row: usize,
    n_rows: usize,
    /// Block `b` covers words `[b·BLOCK_WORDS, …)` of every row; within
    /// a block the words are row-major (`row · block_len + word`).
    bin_blocks: Vec<Vec<u64>>,
    /// Integer rows as dimension-blocked planes mirroring `bin_blocks`:
    /// block `b` covers dimensions `[b·INT_BLOCK_DIMS, …)` of every row,
    /// row-major within the block (`row · block_len + offset`). Empty
    /// until [`Self::set_int_rows`].
    int_blocks: Vec<Vec<i32>>,
    /// i16 sidecar of `int_blocks` (same layout), every value clamped to
    /// `[-I16_LIMIT, I16_LIMIT]`. When `int_fits_i16` the clamp never
    /// fired and this plane is a lossless narrowing; it always serves as
    /// the saturating quantized coarse plane of pruned top-k.
    int_i16_blocks: Vec<Vec<i16>>,
    /// Whether every stored integer value fits the i16 sidecar exactly
    /// (monotone false under in-place row updates).
    int_fits_i16: bool,
    /// Euclidean norm of each integer row, precomputed for cosine.
    int_norms: Vec<f64>,
}

/// Result of a batch search: top-1 row and the full score vector for
/// every query, in query order.
///
/// Scores are always "higher is more similar": the bipolar cosine
/// `(D − 2·hamming)/D` for binary queries, cosine similarity for
/// integer queries.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSearchResult {
    best: Vec<usize>,
    /// Flattened query-major `len × n_rows` score matrix — one
    /// allocation for the whole batch instead of one `Vec` per query.
    scores: Vec<f64>,
    n_rows: usize,
}

impl BatchSearchResult {
    /// Number of queries searched.
    #[must_use]
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// Whether the batch was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }

    /// Best-matching row for query `q` (lowest index on ties).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn best(&self, q: usize) -> usize {
        self.best[q]
    }

    /// Best-matching row per query, in query order.
    #[must_use]
    pub fn best_rows(&self) -> &[usize] {
        &self.best
    }

    /// Full per-row score vector for query `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn scores(&self, q: usize) -> &[f64] {
        &self.scores[q * self.n_rows..(q + 1) * self.n_rows]
    }

    /// Consumes the result, keeping only the top-1 row per query.
    #[must_use]
    pub fn into_best_rows(self) -> Vec<usize> {
        self.best
    }
}

/// Per-worker-chunk intermediate produced by the kernels: top-1 rows
/// and the flattened score rows for a contiguous query range.
struct ChunkHits {
    best: Vec<usize>,
    scores: Vec<f64>,
}

fn assemble(chunks: Vec<ChunkHits>, n_rows: usize, n_queries: usize) -> BatchSearchResult {
    let mut best = Vec::with_capacity(n_queries);
    let mut scores = Vec::with_capacity(n_queries * n_rows);
    for c in chunks {
        best.extend(c.best);
        scores.extend(c.scores);
    }
    BatchSearchResult {
        best,
        scores,
        n_rows,
    }
}

impl ShardedClassMemory {
    /// Creates an empty memory for rows of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "class memory dimension must be positive");
        let words_per_row = dim.div_ceil(64);
        let n_blocks = words_per_row.div_ceil(BLOCK_WORDS);
        ShardedClassMemory {
            dim,
            words_per_row,
            n_rows: 0,
            bin_blocks: vec![Vec::new(); n_blocks],
            int_blocks: Vec::new(),
            int_i16_blocks: Vec::new(),
            int_fits_i16: false,
            int_norms: Vec::new(),
        }
    }

    /// Packs existing rows.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::EmptyInput`] when `rows` is empty, or
    /// [`HvError::RowDimensionMismatch`] naming the first row whose
    /// dimension disagrees with row 0.
    pub fn from_rows(rows: &[BinaryHv]) -> Result<Self, HvError> {
        let first = rows.first().ok_or(HvError::EmptyInput)?;
        let mut mem = Self::new(first.dim());
        mem.reserve(rows.len());
        for row in rows {
            mem.push(row)?;
        }
        Ok(mem)
    }

    /// Reserves plane capacity for `additional` more rows, so bulk
    /// ingest (million-row corpora) appends without repeatedly
    /// reallocating the per-block word vectors. Each binary plane that
    /// spans an aligned 2 MiB page is advised onto transparent huge
    /// pages (best-effort; see `advise_huge_pages`).
    pub fn reserve(&mut self, additional: usize) {
        for b in 0..self.bin_blocks.len() {
            let (_, len) = self.bin_block_range(b);
            self.bin_blocks[b].reserve(additional * len);
            advise_huge_pages(&self.bin_blocks[b]);
        }
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::RowDimensionMismatch`] (carrying the index the
    /// row would have had) if the row's dimension disagrees.
    pub fn push(&mut self, row: &BinaryHv) -> Result<(), HvError> {
        if row.dim() != self.dim {
            return Err(HvError::RowDimensionMismatch {
                row: self.n_rows,
                expected: self.dim,
                found: row.dim(),
            });
        }
        let words = row.bits().words();
        for b in 0..self.bin_blocks.len() {
            let (start, len) = self.bin_block_range(b);
            self.bin_blocks[b].extend_from_slice(&words[start..start + len]);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Overwrites binary row `j` in place (training keeps the packed
    /// mirror in sync after an accumulator update).
    ///
    /// # Errors
    ///
    /// Returns [`HvError::IndexOutOfRange`] for a bad index or
    /// [`HvError::RowDimensionMismatch`] for a bad dimension.
    pub fn update_row(&mut self, j: usize, row: &BinaryHv) -> Result<(), HvError> {
        if j >= self.n_rows {
            return Err(HvError::IndexOutOfRange {
                index: j,
                len: self.n_rows,
            });
        }
        if row.dim() != self.dim {
            return Err(HvError::RowDimensionMismatch {
                row: j,
                expected: self.dim,
                found: row.dim(),
            });
        }
        let words = row.bits().words();
        for b in 0..self.bin_blocks.len() {
            let (start, len) = self.bin_block_range(b);
            self.bin_blocks[b][j * len..(j + 1) * len].copy_from_slice(&words[start..start + len]);
        }
        Ok(())
    }

    /// Attaches (or replaces) the integer rows backing cosine search.
    /// Must supply exactly one row per binary row.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::DimensionMismatch`] if the row *count*
    /// disagrees with the binary rows, or
    /// [`HvError::RowDimensionMismatch`] naming the offending row on a
    /// dimension disagreement.
    pub fn set_int_rows(&mut self, rows: &[IntHv]) -> Result<(), HvError> {
        if rows.len() != self.n_rows {
            return Err(HvError::DimensionMismatch {
                expected: self.n_rows,
                found: rows.len(),
            });
        }
        for (j, row) in rows.iter().enumerate() {
            if row.dim() != self.dim {
                return Err(HvError::RowDimensionMismatch {
                    row: j,
                    expected: self.dim,
                    found: row.dim(),
                });
            }
        }
        let n_blocks = self.dim.div_ceil(INT_BLOCK_DIMS);
        self.int_blocks = vec![Vec::new(); n_blocks];
        self.int_i16_blocks = vec![Vec::new(); n_blocks];
        self.int_fits_i16 = true;
        for b in 0..n_blocks {
            let (start, len) = self.int_block_range(b);
            let (block, narrow) = (&mut self.int_blocks[b], &mut self.int_i16_blocks[b]);
            block.reserve(rows.len() * len);
            narrow.reserve(rows.len() * len);
            for row in rows {
                let vals = &row.values()[start..start + len];
                block.extend_from_slice(vals);
                for &v in vals {
                    self.int_fits_i16 &= (-I16_LIMIT..=I16_LIMIT).contains(&v);
                    narrow.push(v.clamp(-I16_LIMIT, I16_LIMIT) as i16);
                }
            }
        }
        self.int_norms.clear();
        self.int_norms.extend(rows.iter().map(IntHv::norm));
        Ok(())
    }

    /// Overwrites integer row `j` in place, refreshing its norm.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::IndexOutOfRange`] if `j` is out of range (or
    /// no integer rows are attached), or
    /// [`HvError::RowDimensionMismatch`] for a bad dimension.
    pub fn update_int_row(&mut self, j: usize, row: &IntHv) -> Result<(), HvError> {
        if j >= self.int_norms.len() {
            return Err(HvError::IndexOutOfRange {
                index: j,
                len: self.int_norms.len(),
            });
        }
        if row.dim() != self.dim {
            return Err(HvError::RowDimensionMismatch {
                row: j,
                expected: self.dim,
                found: row.dim(),
            });
        }
        for b in 0..self.int_blocks.len() {
            let (start, len) = self.int_block_range(b);
            let vals = &row.values()[start..start + len];
            self.int_blocks[b][j * len..(j + 1) * len].copy_from_slice(vals);
            for (n, &v) in self.int_i16_blocks[b][j * len..(j + 1) * len]
                .iter_mut()
                .zip(vals)
            {
                self.int_fits_i16 &= (-I16_LIMIT..=I16_LIMIT).contains(&v);
                *n = v.clamp(-I16_LIMIT, I16_LIMIT) as i16;
            }
        }
        self.int_norms[j] = row.norm();
        Ok(())
    }

    /// Hypervector dimension `D`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows `C`.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Whether integer rows are attached (cosine search available).
    #[must_use]
    pub fn has_int_rows(&self) -> bool {
        !self.int_norms.is_empty()
    }

    /// The packed binary plane blocks (block-major; see the field docs).
    /// Crate-internal: the top-k module scans these directly.
    pub(crate) fn bin_blocks(&self) -> &[Vec<u64>] {
        &self.bin_blocks
    }

    /// Packed words per row (`⌈dim / 64⌉`).
    pub(crate) fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The blocked integer planes (block-major; see the field docs).
    /// Crate-internal: the top-k module scans these directly.
    pub(crate) fn int_blocks(&self) -> &[Vec<i32>] {
        &self.int_blocks
    }

    /// The i16 sidecar planes (same layout as [`Self::int_blocks`]).
    pub(crate) fn int_i16_blocks(&self) -> &[Vec<i16>] {
        &self.int_i16_blocks
    }

    /// Whether the i16 sidecar is a lossless narrowing of the i32
    /// planes (no clamp fired).
    pub(crate) fn int_fits_i16(&self) -> bool {
        self.int_fits_i16
    }

    /// `(start_word, block_len)` of binary plane block `b`.
    pub(crate) fn bin_block_range(&self, b: usize) -> (usize, usize) {
        block_range(b, BLOCK_WORDS, self.words_per_row)
    }

    /// `(start_dim, block_len)` of integer plane block `b`.
    pub(crate) fn int_block_range(&self, b: usize) -> (usize, usize) {
        block_range(b, INT_BLOCK_DIMS, self.dim)
    }

    /// Narrows a query to the i16 sidecar domain when that narrowing is
    /// lossless (every value within `±I16_LIMIT`); `None` otherwise.
    pub(crate) fn narrow_query_i16(values: &[i32]) -> Option<Vec<i16>> {
        let mut narrowed = vec![0i16; values.len()];
        narrow_into(values, &mut narrowed).then_some(narrowed)
    }

    pub(crate) fn check_query_dim(&self, dim: usize) -> Result<(), HvError> {
        if dim != self.dim {
            return Err(HvError::DimensionMismatch {
                expected: self.dim,
                found: dim,
            });
        }
        Ok(())
    }

    /// Hamming distances from `q_words` to the rows in `rows`,
    /// accumulated into `dist` (one entry per row) via `k`'s row-scan
    /// kernel: one contiguous scan per plane block.
    fn hamming_into(&self, k: &Kernel, q_words: &[u64], rows: Range<usize>, dist: &mut [u32]) {
        for (b, block) in self.bin_blocks.iter().enumerate() {
            let (start, len) = self.bin_block_range(b);
            let block_rows = &block[rows.start * len..rows.end * len];
            (k.hamming_rows_stride)(&q_words[start..start + len], block_rows, len, dist);
        }
    }

    /// Bipolar-cosine score of a Hamming distance — identical floating-
    /// point sequence to [`BinaryHv::cosine`] (`dot / D` with
    /// `dot = D − 2·h`).
    pub(crate) fn binary_score(&self, hamming: u32) -> f64 {
        (self.dim as i64 - 2 * i64::from(hamming)) as f64 / self.dim as f64
    }

    /// Top-1 search for one binary query: `(row, hamming)` with ties to
    /// the lowest index — bit-identical to the scalar per-row scan.
    /// Shards across rows when the memory is large enough to benefit.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::EmptyInput`] when the memory has no rows, or
    /// [`HvError::DimensionMismatch`] on dimension disagreement.
    pub fn search_binary(&self, query: &BinaryHv) -> Result<(usize, usize), HvError> {
        if self.n_rows == 0 {
            return Err(HvError::EmptyInput);
        }
        self.check_query_dim(query.dim())?;
        let k = kernel::active();
        let q_words = query.bits().words();
        // Each scan of a contiguous row range yields its minimum by
        // (distance, index), so the minima merge deterministically.
        let scan = |range: Range<usize>| -> Vec<(u32, usize)> {
            let mut dist = vec![0u32; range.len()];
            self.hamming_into(k, q_words, range.clone(), &mut dist);
            dist.into_iter().zip(range).min().into_iter().collect()
        };
        let minima = if self.n_rows < ROW_SHARD_MIN {
            crate::stats::record_hamming_rows(self.n_rows as u64);
            scan(0..self.n_rows)
        } else {
            par::par_chunk_map(self.n_rows, 256, scan)
        };
        let (d, r) = minima
            .into_iter()
            .min()
            .expect("non-empty memory yields at least one chunk minimum");
        Ok((r, d as usize))
    }

    /// Batched binary search: top-1 row and full score vector for every
    /// query, sharded across queries with per-worker distance matrices.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::EmptyInput`] when the memory has no rows, or
    /// [`HvError::DimensionMismatch`] if any query disagrees on
    /// dimension.
    pub fn search_batch_binary(&self, queries: &[&BinaryHv]) -> Result<BatchSearchResult, HvError> {
        self.search_batch_binary_with(kernel::active(), queries)
    }

    /// [`Self::search_batch_binary`] on an explicit kernel backend —
    /// bit-identical results for every backend; benchmarks and the
    /// equivalence tests use this to compare backends head to head.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::search_batch_binary`].
    pub fn search_batch_binary_with(
        &self,
        k: &Kernel,
        queries: &[&BinaryHv],
    ) -> Result<BatchSearchResult, HvError> {
        if self.n_rows == 0 {
            return Err(HvError::EmptyInput);
        }
        for q in queries {
            self.check_query_dim(q.dim())?;
        }
        let n_rows = self.n_rows;
        let hits = par::par_chunk_map(queries.len(), QUERY_CHUNK, |range| {
            // One distance matrix per worker; block-major accumulation
            // keeps each row block hot across the whole query chunk.
            let chunk = range.len();
            let mut dist = vec![0u32; chunk * n_rows];
            for (b, block) in self.bin_blocks.iter().enumerate() {
                let (start, len) = self.bin_block_range(b);
                for (qi, q) in range.clone().enumerate() {
                    let q_block = &queries[q].bits().words()[start..start + len];
                    let drow = &mut dist[qi * n_rows..(qi + 1) * n_rows];
                    (k.hamming_rows_stride)(q_block, block, len, drow);
                }
            }
            crate::stats::record_hamming_rows((chunk * n_rows) as u64);
            let mut best_rows = Vec::with_capacity(chunk);
            let mut scores = Vec::with_capacity(chunk * n_rows);
            for qi in 0..chunk {
                let drow = &dist[qi * n_rows..(qi + 1) * n_rows];
                let mut best = (0usize, u32::MAX);
                for (r, &d) in drow.iter().enumerate() {
                    if d < best.1 {
                        best = (r, d);
                    }
                }
                best_rows.push(best.0);
                scores.extend(drow.iter().map(|&d| self.binary_score(d)));
            }
            vec![ChunkHits {
                best: best_rows,
                scores,
            }]
        });
        Ok(assemble(hits, n_rows, queries.len()))
    }

    /// Exact i64 dot of integer row `r` against query values,
    /// accumulated block by block over the blocked planes. Wrapping
    /// integer addition commutes, so the blocked sum is bit-identical
    /// to the contiguous-row reduction.
    pub(crate) fn int_row_dot(&self, k: &Kernel, r: usize, q_values: &[i32]) -> i64 {
        let mut dot = 0i64;
        for (b, block) in self.int_blocks.iter().enumerate() {
            let (start, len) = self.int_block_range(b);
            let row = &block[r * len..(r + 1) * len];
            dot = dot.wrapping_add((k.dot_i32)(row, &q_values[start..start + len]));
        }
        dot
    }

    /// Cosine score from a precomputed exact dot — identical floating-
    /// point sequence to [`IntHv::cosine`] (`dot / (‖row‖·‖q‖)`, 0.0 on
    /// a zero denominator).
    pub(crate) fn int_score_of_dot(&self, r: usize, dot: i64, q_norm: f64) -> f64 {
        let denom = self.int_norms[r] * q_norm;
        if denom == 0.0 {
            0.0
        } else {
            dot as f64 / denom
        }
    }

    /// Cosine score of integer row `r` against a query — identical
    /// floating-point sequence to `row.cosine(query)` (the dot is an
    /// exact integer regardless of backend).
    pub(crate) fn int_score(&self, k: &Kernel, r: usize, query: &IntHv, q_norm: f64) -> f64 {
        let dot = self.int_row_dot(k, r, query.values());
        self.int_score_of_dot(r, dot, q_norm)
    }

    /// Top-1 cosine search for one integer query: `(row, score)` with
    /// ties to the lowest index.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::EmptyInput`] when no integer rows are
    /// attached, or [`HvError::DimensionMismatch`] on dimension
    /// disagreement.
    pub fn search_int(&self, query: &IntHv) -> Result<(usize, f64), HvError> {
        if !self.has_int_rows() {
            return Err(HvError::EmptyInput);
        }
        self.check_query_dim(query.dim())?;
        let k = kernel::active();
        let q_norm = query.norm();
        let mut best = (0usize, f64::NEG_INFINITY);
        for r in 0..self.n_rows {
            let s = self.int_score(k, r, query, q_norm);
            if s > best.1 {
                best = (r, s);
            }
        }
        Ok(best)
    }

    /// Batched cosine search over the attached integer rows, sharded
    /// across queries.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::EmptyInput`] when no integer rows are
    /// attached, or [`HvError::DimensionMismatch`] if any query
    /// disagrees on dimension.
    pub fn search_batch_int(&self, queries: &[&IntHv]) -> Result<BatchSearchResult, HvError> {
        self.search_batch_int_with(kernel::active(), queries)
    }

    /// [`Self::search_batch_int`] on an explicit kernel backend —
    /// bit-identical results for every backend.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::search_batch_int`].
    pub fn search_batch_int_with(
        &self,
        k: &Kernel,
        queries: &[&IntHv],
    ) -> Result<BatchSearchResult, HvError> {
        if !self.has_int_rows() {
            return Err(HvError::EmptyInput);
        }
        for q in queries {
            self.check_query_dim(q.dim())?;
        }
        let n_rows = self.n_rows;
        let hits = par::par_chunk_map(queries.len(), QUERY_CHUNK, |range| {
            // Queries go through in tiles of [`INT_QUERY_TILE`]: a 40 KiB
            // i32 query is streamed from memory exactly once (the norm
            // dot), then its lossless i16 narrowing — when the memory's
            // clamp never fired and the query fits — is written and
            // consumed while the data is still cache-hot. The vpmaddwd
            // sidecar products are identical to the i32 ones, so the
            // dots (and every float score derived from them) are
            // bit-for-bit the same on either plane. Within a tile the
            // sweep is block-major, keeping each row block hot across
            // the tile's queries.
            let chunk = range.len();
            let tile_cap = chunk.min(INT_QUERY_TILE);
            let mut best_rows = Vec::with_capacity(chunk);
            let mut scores = Vec::with_capacity(chunk * n_rows);
            let mut dots = vec![0i64; tile_cap * n_rows];
            let mut narrowed = vec![0i16; tile_cap * self.dim];
            let mut fits = vec![false; tile_cap];
            let mut q_norms = vec![0f64; tile_cap];
            let mut tile_start = range.start;
            while tile_start < range.end {
                let tile = (range.end - tile_start).min(INT_QUERY_TILE);
                for ti in 0..tile {
                    let vals = queries[tile_start + ti].values();
                    let fit = self.int_fits_i16
                        && narrow_into(vals, &mut narrowed[ti * self.dim..(ti + 1) * self.dim]);
                    fits[ti] = fit;
                    // The narrowing pass just streamed the query in, so
                    // the norm dot runs over whichever copy is cache-hot.
                    // A lossless i16 self-dot is the same exact integer
                    // as the i32 one — the same float sequence as
                    // `IntHv::norm` either way.
                    q_norms[ti] = if fit {
                        let nq = &narrowed[ti * self.dim..(ti + 1) * self.dim];
                        let mut self_dot = [0i64];
                        (k.dot_i16_rows_stride)(nq, nq, self.dim, &mut self_dot);
                        (self_dot[0] as f64).sqrt()
                    } else {
                        ((k.dot_i32)(vals, vals) as f64).sqrt()
                    };
                }
                dots[..tile * n_rows].fill(0);
                for (b, block) in self.int_blocks.iter().enumerate() {
                    let (start, len) = self.int_block_range(b);
                    for ti in 0..tile {
                        let drow = &mut dots[ti * n_rows..(ti + 1) * n_rows];
                        if fits[ti] {
                            let q_block =
                                &narrowed[ti * self.dim + start..ti * self.dim + start + len];
                            (k.dot_i16_rows_stride)(q_block, &self.int_i16_blocks[b], len, drow);
                        } else {
                            let q_block = &queries[tile_start + ti].values()[start..start + len];
                            (k.dot_rows_stride)(q_block, block, len, drow);
                        }
                    }
                }
                crate::stats::record_dot_rows((tile * n_rows) as u64);
                for ti in 0..tile {
                    let drow = &dots[ti * n_rows..(ti + 1) * n_rows];
                    let mut best = (0usize, f64::NEG_INFINITY);
                    for (r, &dot) in drow.iter().enumerate() {
                        let s = self.int_score_of_dot(r, dot, q_norms[ti]);
                        if s > best.1 {
                            best = (r, s);
                        }
                        scores.push(s);
                    }
                    best_rows.push(best.0);
                }
                tile_start += tile;
            }
            vec![ChunkHits {
                best: best_rows,
                scores,
            }]
        });
        Ok(assemble(hits, n_rows, queries.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HvRng;

    fn rows(seed: u64, count: usize, dim: usize) -> Vec<BinaryHv> {
        let mut rng = HvRng::from_seed(seed);
        (0..count).map(|_| rng.binary_hv(dim)).collect()
    }

    /// Scalar reference scan (the pre-refactor inference loop).
    fn scalar_nearest(rows: &[BinaryHv], q: &BinaryHv) -> (usize, usize) {
        let mut best = (0usize, usize::MAX);
        for (j, r) in rows.iter().enumerate() {
            let d = r.hamming(q);
            if d < best.1 {
                best = (j, d);
            }
        }
        best
    }

    #[test]
    fn from_rows_rejects_empty_and_mixed_dims() {
        assert_eq!(
            ShardedClassMemory::from_rows(&[]).unwrap_err(),
            HvError::EmptyInput
        );
        let mut rng = HvRng::from_seed(1);
        let bad = vec![rng.binary_hv(64), rng.binary_hv(64), rng.binary_hv(65)];
        assert_eq!(
            ShardedClassMemory::from_rows(&bad).unwrap_err(),
            HvError::RowDimensionMismatch {
                row: 2,
                expected: 64,
                found: 65
            }
        );
    }

    #[test]
    fn push_error_names_the_row_index() {
        let mut rng = HvRng::from_seed(2);
        let mut mem = ShardedClassMemory::new(130);
        mem.push(&rng.binary_hv(130)).unwrap();
        mem.push(&rng.binary_hv(130)).unwrap();
        assert_eq!(
            mem.push(&rng.binary_hv(128)).unwrap_err(),
            HvError::RowDimensionMismatch {
                row: 2,
                expected: 130,
                found: 128
            }
        );
        assert_eq!(mem.n_rows(), 2);
    }

    #[test]
    fn set_int_rows_validates_count_and_dims() {
        let bins = rows(3, 3, 100);
        let mut mem = ShardedClassMemory::from_rows(&bins).unwrap();
        assert_eq!(
            mem.set_int_rows(&[IntHv::zeros(100)]).unwrap_err(),
            HvError::DimensionMismatch {
                expected: 3,
                found: 1
            }
        );
        let bad = vec![IntHv::zeros(100), IntHv::zeros(99), IntHv::zeros(100)];
        assert_eq!(
            mem.set_int_rows(&bad).unwrap_err(),
            HvError::RowDimensionMismatch {
                row: 1,
                expected: 100,
                found: 99
            }
        );
        assert!(!mem.has_int_rows());
        let good = vec![IntHv::zeros(100), IntHv::zeros(100), IntHv::zeros(100)];
        mem.set_int_rows(&good).unwrap();
        assert!(mem.has_int_rows());
    }

    #[test]
    fn batch_binary_matches_scalar_scan_non_aligned_dim() {
        for dim in [130usize, 1000, 4096] {
            let class_rows = rows(4, 9, dim);
            let mem = ShardedClassMemory::from_rows(&class_rows).unwrap();
            let queries = rows(5, 17, dim);
            let refs: Vec<&BinaryHv> = queries.iter().collect();
            let hits = mem.search_batch_binary(&refs).unwrap();
            for (q, query) in queries.iter().enumerate() {
                let (want, want_d) = scalar_nearest(&class_rows, query);
                assert_eq!(hits.best(q), want, "dim {dim} query {q}");
                assert_eq!(mem.search_binary(query).unwrap(), (want, want_d));
                for (r, row) in class_rows.iter().enumerate() {
                    let want_score = row.cosine(query);
                    assert_eq!(
                        hits.scores(q)[r].to_bits(),
                        want_score.to_bits(),
                        "dim {dim} query {q} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_int_matches_scalar_cosine() {
        let dim = 257;
        let bins = rows(6, 5, dim);
        let ints: Vec<IntHv> = bins
            .iter()
            .map(|b| {
                let mut acc = b.to_int();
                acc.add_binary(b);
                acc
            })
            .collect();
        let mut mem = ShardedClassMemory::from_rows(&bins).unwrap();
        mem.set_int_rows(&ints).unwrap();
        let queries: Vec<IntHv> = rows(7, 11, dim).iter().map(BinaryHv::to_int).collect();
        let refs: Vec<&IntHv> = queries.iter().collect();
        let hits = mem.search_batch_int(&refs).unwrap();
        for (q, query) in queries.iter().enumerate() {
            let mut best = (0usize, f64::NEG_INFINITY);
            for (r, row) in ints.iter().enumerate() {
                let s = row.cosine(query);
                assert_eq!(hits.scores(q)[r].to_bits(), s.to_bits(), "q {q} r {r}");
                if s > best.1 {
                    best = (r, s);
                }
            }
            assert_eq!(hits.best(q), best.0, "query {q}");
            let (one_r, one_s) = mem.search_int(query).unwrap();
            assert_eq!((one_r, one_s.to_bits()), (best.0, best.1.to_bits()));
        }
    }

    #[test]
    fn ties_resolve_to_lowest_index() {
        // Duplicate rows: every query ties between them; the scalar scan
        // keeps the first, so must the kernels.
        let base = rows(8, 1, 192).remove(0);
        let dup = vec![base.clone(), base.clone(), base.clone()];
        let mem = ShardedClassMemory::from_rows(&dup).unwrap();
        let queries = rows(9, 5, 192);
        let refs: Vec<&BinaryHv> = queries.iter().collect();
        let hits = mem.search_batch_binary(&refs).unwrap();
        for q in 0..queries.len() {
            assert_eq!(hits.best(q), 0);
        }
    }

    #[test]
    fn update_row_changes_search_results() {
        let mut class_rows = rows(10, 4, 300);
        let mut mem = ShardedClassMemory::from_rows(&class_rows).unwrap();
        let query = class_rows[3].clone();
        assert_eq!(mem.search_binary(&query).unwrap().0, 3);
        // Move row 1 onto the query: it now wins (lower index).
        mem.update_row(1, &query).unwrap();
        class_rows[1] = query.clone();
        assert_eq!(mem.search_binary(&query).unwrap(), (1, 0));
        assert_eq!(
            mem.update_row(9, &query).unwrap_err(),
            HvError::IndexOutOfRange { index: 9, len: 4 }
        );
    }

    #[test]
    fn update_int_row_refreshes_norm() {
        let bins = rows(11, 2, 64);
        let mut mem = ShardedClassMemory::from_rows(&bins).unwrap();
        mem.set_int_rows(&[IntHv::zeros(64), IntHv::zeros(64)])
            .unwrap();
        let target = bins[1].to_int();
        mem.update_int_row(1, &target).unwrap();
        let (r, s) = mem.search_int(&target).unwrap();
        assert_eq!(r, 1);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn searches_on_empty_memory_error() {
        let mem = ShardedClassMemory::new(64);
        let mut rng = HvRng::from_seed(12);
        let q = rng.binary_hv(64);
        assert_eq!(mem.search_binary(&q).unwrap_err(), HvError::EmptyInput);
        assert_eq!(
            mem.search_batch_binary(&[&q]).unwrap_err(),
            HvError::EmptyInput
        );
        assert_eq!(
            mem.search_batch_int(&[&q.to_int()]).unwrap_err(),
            HvError::EmptyInput
        );
    }

    #[test]
    fn query_dimension_is_checked() {
        let mem = ShardedClassMemory::from_rows(&rows(13, 2, 128)).unwrap();
        let mut rng = HvRng::from_seed(14);
        let q = rng.binary_hv(130);
        assert_eq!(
            mem.search_binary(&q).unwrap_err(),
            HvError::DimensionMismatch {
                expected: 128,
                found: 130
            }
        );
    }

    #[test]
    fn row_sharded_single_query_matches_scalar() {
        // Enough rows to trip the row-sharded path.
        let dim = 130;
        let mut rng = HvRng::from_seed(15);
        let class_rows: Vec<BinaryHv> =
            (0..ROW_SHARD_MIN + 7).map(|_| rng.binary_hv(dim)).collect();
        let mem = ShardedClassMemory::from_rows(&class_rows).unwrap();
        let q = class_rows[ROW_SHARD_MIN + 3].clone();
        assert_eq!(
            mem.search_binary(&q).unwrap(),
            scalar_nearest(&class_rows, &q)
        );
    }

    /// The `VmFlags` of the `/proc/self/smaps` mapping containing `addr`.
    #[cfg(target_os = "linux")]
    fn vm_flags_at(addr: usize) -> Option<String> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut inside = false;
        for line in smaps.lines() {
            let range = line.split_once(' ').and_then(|(r, _)| r.split_once('-'));
            if let Some((lo, hi)) = range {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = (lo..hi).contains(&addr);
                    continue;
                }
            }
            if let Some(flags) = line.strip_prefix("VmFlags:").filter(|_| inside) {
                return Some(flags.to_string());
            }
        }
        None
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reserve_advises_large_planes_onto_huge_pages() {
        // 40 000 rows of one 16-word block: a 5 MiB plane, which spans
        // at least one aligned 2 MiB page. Reserving touches no page.
        let mut mem = ShardedClassMemory::new(1024);
        mem.reserve(40_000);
        let plane = &mem.bin_blocks[0];
        let interior = (plane.as_ptr() as usize).next_multiple_of(HUGE_PAGE_BYTES);
        let flags = vm_flags_at(interior).expect("the plane's mapping is in /proc/self/smaps");
        if !flags.split_whitespace().any(|flag| flag == "hg") {
            // Only a kernel that refuses the advice excuses the flag's
            // absence.
            assert!(
                !advise_huge_pages(plane),
                "reserve left the plane unadvised: VmFlags{flags}"
            );
            eprintln!("skipped: madvise(MADV_HUGEPAGE) failed; no transparent huge pages here");
        }
    }

    #[test]
    fn empty_query_batch_is_fine() {
        let mem = ShardedClassMemory::from_rows(&rows(16, 2, 64)).unwrap();
        let hits = mem.search_batch_binary(&[]).unwrap();
        assert!(hits.is_empty());
        assert_eq!(hits.len(), 0);
    }
}
