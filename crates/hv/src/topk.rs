//! Bounded top-k search and coarse-quantized multi-probe pruning over
//! a [`ShardedClassMemory`].
//!
//! The batch kernels in [`search`](crate::search) return the top-1 row
//! plus a full score vector — the right shape for classification over
//! tens of class rows, and the wrong one for similarity search over
//! millions of user rows, where materializing `queries × rows` scores
//! is the bottleneck. This module adds:
//!
//! * **Exact top-k** ([`ShardedClassMemory::search_topk_binary`] /
//!   [`ShardedClassMemory::search_topk_int`]) — rows are sharded across
//!   [`par`] workers; each worker streams its row range
//!   tile by tile through the block-major planes and keeps a *candidate
//!   buffer* of the k best `(distance, row)` (binary) or `(score, row)`
//!   (integer) candidates, compacted back to k by
//!   `select_nth_unstable` whenever it reaches 2k; the per-shard
//!   buffers merge deterministically at the end. Once k candidates are
//!   in, the k-th best at the last compaction bounds the scan, and a
//!   row that does not beat it never enters the buffer. Memory per
//!   worker is `O(tile + k)` regardless of the row count.
//! * **Pruned top-k** ([`ShardedClassMemory::search_topk_binary_pruned`]
//!   / [`ShardedClassMemory::search_topk_int_pruned`]) — a coarse pass
//!   scans only the leading `probe_words` packed words (binary) or
//!   `probe_words · 64` dimensions (int) of every row, keeps
//!   `probe_factor · k` candidates per query, then rescores the
//!   survivors exactly at full width. The binary coarse key is the exact
//!   distance over the probe, so the binary rescore continues from it,
//!   reads only the words after the probe, and stops at the running
//!   k-th best distance: a candidate is dropped once its partial sum
//!   exceeds it, and the rescore ends at the first coarse key that does
//!   (partial cosine dots are not monotone, so the int rescore reads
//!   every survivor's full row). Both planes are blocked in the
//!   same 1024 dimensions, so the default probe of [`BLOCK_WORDS`]
//!   words is exactly block 0: one contiguous stream over the leading
//!   block of every row. Wider probes read whole leading blocks, and a
//!   probe that ends inside a block reads a prefix of each of its rows
//!   at the block stride. The int coarse pass runs on the
//!   i16-saturating quantized sidecar planes (Prive-HD-style quantized
//!   coarse scoring), ranking by *normalized* partial scores so rows of
//!   different norms compare fairly under the cosine metric. Below
//!   [`ProbeConfig::exact_threshold`] rows the coarse pass cannot pay
//!   for itself and the call falls back to the exact scan.
//!
//! ## Exactness
//!
//! Exact top-k is **bit-identical** to sorting the full scalar score
//! vector: the candidate order is `(hamming asc, row asc)` / `(score
//! desc, row asc)`, the k smallest elements of a total order do not
//! depend on shard boundaries, and scores reproduce the same float
//! expressions as the top-1 kernels. Pruned top-k at **full probe
//! width** (`probe_words ≥ ⌈D/64⌉`) is bit-identical to exact top-k —
//! argmax, tie order and score sequence — because the coarse keys *are*
//! the exact distances (binary) or exact normalized scores (int: the
//! full-width dot is exact, via the lossless i16 sidecar when every
//! value fits `±32767` and the i32 planes otherwise) and the candidate
//! multiple is ≥ k (property-tested in `tests/topk_equivalence.rs`).
//! Narrower probes trade recall for throughput; `probe_factor` is the
//! recall knob.

use std::cmp::Ordering;

use crate::binary::BinaryHv;
use crate::dense::IntHv;
use crate::error::HvError;
use crate::kernel::{self, Kernel};
use crate::par;
use crate::search::{ShardedClassMemory, BLOCK_WORDS, I16_LIMIT};

/// Rows per scan tile inside one worker. A tile of plane block 0 (the
/// default probe) is 256 rows × 128 bytes = 32 KiB, so it stays in L1d
/// while every query of a batch scans it; the per-tile distance strip
/// (`queries × TILE` u32) is 16 KiB at 16 queries.
const TOPK_ROW_TILE: usize = 256;

/// Minimum rows per worker chunk when sharding a top-k scan.
const TOPK_ROW_CHUNK: usize = 4096;

/// One top-k hit: a row index and its similarity score (higher is more
/// similar; same float expressions as
/// [`crate::BatchSearchResult::scores`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKMatch {
    /// Row index in the memory.
    pub row: usize,
    /// Similarity score (bipolar cosine for binary, cosine for int).
    pub score: f64,
}

/// Result of a batch top-k search: per query, up to `k` matches ordered
/// best-first with ties resolved to the lowest row index — exactly the
/// order a stable sort of the full score vector would produce.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTopKResult {
    k: usize,
    hits: Vec<Vec<TopKMatch>>,
}

impl BatchTopKResult {
    /// Number of queries searched.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// Whether the batch was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// The `k` the search was asked for (matches may be fewer when the
    /// memory has fewer rows).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Matches for query `q`, best first.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn matches(&self, q: usize) -> &[TopKMatch] {
        &self.hits[q]
    }

    /// Consumes the result into the per-query match lists.
    #[must_use]
    pub fn into_matches(self) -> Vec<Vec<TopKMatch>> {
        self.hits
    }
}

/// Tuning of the pruned (coarse-quantized multi-probe) top-k scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Packed words sampled per row in the coarse pass, taken from the
    /// leading words (64 dimensions per word) — hypervector dimensions
    /// are i.i.d., so any fixed word subset is equally informative. The
    /// default, [`BLOCK_WORDS`], is exactly plane block 0, so the
    /// coarse pass is one contiguous stream; other widths read whole
    /// leading blocks plus a strided prefix of the block they end in.
    /// Clamped to `1..=⌈D/64⌉`; at `⌈D/64⌉` the coarse pass is the
    /// exact scan and the result is bit-identical to exact top-k.
    pub probe_words: usize,
    /// Candidate multiple: the coarse pass keeps `probe_factor · k`
    /// rows per query for exact rescoring (clamped to ≥ 1). The recall
    /// knob — recall@k rises toward 1 as the candidate set grows past
    /// the size of the query's true neighborhood.
    pub probe_factor: usize,
    /// Row count below which pruning cannot pay for itself and the
    /// call falls back to the exact scan.
    pub exact_threshold: usize,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            probe_words: BLOCK_WORDS,
            probe_factor: 32,
            exact_threshold: 32_768,
        }
    }
}

/// `f64` key ordered *descending* under `Ord` (via `total_cmp`), so a
/// lexicographic `(Desc(score), row)` ascending sort is best-first with
/// lowest-index tie order. Scores never produce NaN (norms are finite
/// and zero denominators map to a 0.0 score), so `total_cmp` agrees
/// with the strict `>` comparisons of the top-1 kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Desc(f64);

impl Eq for Desc {}

impl PartialOrd for Desc {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Desc {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0)
    }
}

/// Candidate buffer keeping the `k` smallest items seen (smaller is
/// better for both candidate keys: `(hamming, row)` ascending and
/// `(Desc(score), row)` ascending).
///
/// Items that beat the bound are appended. The first bound is the
/// largest of the first `k` items; after that, whenever the buffer
/// holds `2k` items, `select_nth_unstable` moves the k smallest to the
/// front, the rest is dropped, and the k-th smallest becomes the new
/// bound. Every skipped or dropped item is no smaller than k items
/// already kept, so the retained set is the k smallest elements of a
/// total order, independent of push order. A push costs amortized O(1), where
/// a binary heap pays O(log k) per replacement.
struct BoundedTopK<T: Ord + Copy> {
    k: usize,
    items: Vec<T>,
    bound: Option<T>,
}

impl<T: Ord + Copy> BoundedTopK<T> {
    /// A buffer for the `k` smallest of at most `n` items; `n` only
    /// caps the allocation, which never exceeds `2k`.
    fn new(k: usize, n: usize) -> Self {
        BoundedTopK {
            k,
            items: Vec::with_capacity(k.saturating_mul(2).min(n)),
            bound: None,
        }
    }

    fn push(&mut self, item: T) {
        if self.k == 0 || self.bound.is_some_and(|bound| item >= bound) {
            return;
        }
        self.items.push(item);
        let limit = if self.bound.is_some() {
            2 * self.k
        } else {
            self.k
        };
        if self.items.len() == limit {
            self.compact();
        }
    }

    /// Keeps the k smallest items and makes the largest of them the
    /// bound. Requires `items.len() >= k > 0`.
    fn compact(&mut self) {
        let (_, &mut kth, _) = self.items.select_nth_unstable(self.k - 1);
        self.items.truncate(self.k);
        self.bound = Some(kth);
    }

    /// What a new item must beat to enter — the k-th smallest item at
    /// the last compaction, never below the k-th smallest seen — or
    /// `None` while fewer than k items are in.
    fn bound(&self) -> Option<&T> {
        self.bound.as_ref()
    }

    /// The k smallest items, best (smallest) first.
    fn into_sorted(mut self) -> Vec<T> {
        if self.items.len() > self.k {
            self.compact();
        }
        self.items.sort_unstable();
        self.items
    }
}

/// Merges per-shard sorted candidate lists into the global best-first
/// top-k (concatenate, sort by the total candidate order, truncate).
fn merge_shards<T: Ord + Copy>(shards: &[Vec<Vec<T>>], q: usize, k: usize) -> Vec<T> {
    let mut all: Vec<T> = shards.iter().flat_map(|s| s[q].iter().copied()).collect();
    all.sort_unstable();
    all.truncate(k);
    all
}

impl ShardedClassMemory {
    /// Exact top-k Hamming search for a batch of binary queries,
    /// sharded across rows with per-shard candidate buffers.
    ///
    /// Matches are best-first with ties to the lowest row index —
    /// bit-identical (rows, score bits) to stably sorting the full
    /// score vector of [`Self::search_batch_binary`]. `k` is clamped to
    /// the row count; `k == 0` yields empty match lists.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::EmptyInput`] when the memory has no rows, or
    /// [`HvError::DimensionMismatch`] if any query disagrees on
    /// dimension.
    pub fn search_topk_binary(
        &self,
        queries: &[&BinaryHv],
        k: usize,
    ) -> Result<BatchTopKResult, HvError> {
        self.search_topk_binary_with(kernel::active(), queries, k)
    }

    /// [`Self::search_topk_binary`] on an explicit kernel backend —
    /// bit-identical results for every backend.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::search_topk_binary`].
    pub fn search_topk_binary_with(
        &self,
        kern: &Kernel,
        queries: &[&BinaryHv],
        k: usize,
    ) -> Result<BatchTopKResult, HvError> {
        if self.n_rows() == 0 {
            return Err(HvError::EmptyInput);
        }
        for q in queries {
            self.check_query_dim(q.dim())?;
        }
        let kept = k.min(self.n_rows());
        let shards = self.coarse_candidates(kern, queries, kept, self.words_per_row());
        let hits = (0..queries.len())
            .map(|q| {
                merge_shards(&shards, q, kept)
                    .into_iter()
                    .map(|(d, row)| TopKMatch {
                        row,
                        score: self.binary_score(d),
                    })
                    .collect()
            })
            .collect();
        Ok(BatchTopKResult { k, hits })
    }

    /// Pruned top-k Hamming search: a coarse pass over the leading
    /// [`ProbeConfig::probe_words`] packed words of each row keeps
    /// `probe_factor · k` candidates per query, which are then rescored
    /// with exact full-width distances. The rescore continues each
    /// candidate from its coarse distance (the exact distance over the
    /// probe) and stops at the running k-th best distance, so it reads
    /// only what can still change the top-k. At full probe width
    /// (`probe_words ≥ ⌈D/64⌉`) the result is bit-identical to
    /// [`Self::search_topk_binary`]; narrower probes trade recall for
    /// throughput. Falls back to the exact scan below
    /// [`ProbeConfig::exact_threshold`] rows.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::search_topk_binary`].
    pub fn search_topk_binary_pruned(
        &self,
        queries: &[&BinaryHv],
        k: usize,
        probe: &ProbeConfig,
    ) -> Result<BatchTopKResult, HvError> {
        self.search_topk_binary_pruned_with(kernel::active(), queries, k, probe)
    }

    /// [`Self::search_topk_binary_pruned`] on an explicit kernel
    /// backend.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::search_topk_binary`].
    pub fn search_topk_binary_pruned_with(
        &self,
        kern: &Kernel,
        queries: &[&BinaryHv],
        k: usize,
        probe: &ProbeConfig,
    ) -> Result<BatchTopKResult, HvError> {
        if self.n_rows() <= probe.exact_threshold {
            return self.search_topk_binary_with(kern, queries, k);
        }
        for q in queries {
            self.check_query_dim(q.dim())?;
        }
        let kept = k.min(self.n_rows());
        let probe_words = probe.probe_words.clamp(1, self.words_per_row());
        let n_candidates = probe.probe_factor.max(1).saturating_mul(kept);
        let n_candidates = n_candidates.clamp(kept, self.n_rows());
        // Coarse pass: partial distances over the sampled word prefixes,
        // candidate buffers of `n_candidates` each.
        let shards = self.coarse_candidates(kern, queries, n_candidates, probe_words);
        // Rescore pass: each survivor's exact distance continues from
        // its coarse key and stops once it cannot make the top-k; the
        // final (distance, row) order and float expressions match the
        // exact scan.
        let mut words_read = 0;
        let hits = (0..queries.len())
            .map(|q| {
                let candidates = merge_shards(&shards, q, n_candidates);
                let (best, words) =
                    self.rescore_bounded(kern, queries[q], &candidates, kept, probe_words);
                words_read += words;
                best.into_iter()
                    .map(|(d, row)| TopKMatch {
                        row,
                        score: self.binary_score(d),
                    })
                    .collect()
            })
            .collect();
        crate::stats::record_hamming_rows(row_equivalents(words_read, 1, self.words_per_row()));
        Ok(BatchTopKResult { k, hits })
    }

    /// Exact top-k cosine search over the attached integer rows,
    /// sharded across rows with per-shard candidate buffers. Matches are
    /// best-first, ties to the lowest row index — bit-identical to
    /// stably sorting the full score vector of
    /// [`Self::search_batch_int`].
    ///
    /// # Errors
    ///
    /// Returns [`HvError::EmptyInput`] when no integer rows are
    /// attached, or [`HvError::DimensionMismatch`] if any query
    /// disagrees on dimension.
    pub fn search_topk_int(
        &self,
        queries: &[&IntHv],
        k: usize,
    ) -> Result<BatchTopKResult, HvError> {
        self.search_topk_int_with(kernel::active(), queries, k)
    }

    /// [`Self::search_topk_int`] on an explicit kernel backend —
    /// bit-identical results for every backend.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::search_topk_int`].
    pub fn search_topk_int_with(
        &self,
        kern: &Kernel,
        queries: &[&IntHv],
        k: usize,
    ) -> Result<BatchTopKResult, HvError> {
        if !self.has_int_rows() {
            return Err(HvError::EmptyInput);
        }
        for q in queries {
            self.check_query_dim(q.dim())?;
        }
        let kept = k.min(self.n_rows());
        let q_norms: Vec<f64> = queries.iter().map(|q| q.norm()).collect();
        let shards = self.int_coarse_candidates(kern, queries, &q_norms, kept, self.dim());
        let hits = (0..queries.len())
            .map(|q| {
                merge_shards(&shards, q, kept)
                    .into_iter()
                    .map(|(s, row)| TopKMatch { row, score: s.0 })
                    .collect()
            })
            .collect();
        Ok(BatchTopKResult { k, hits })
    }

    /// Pruned top-k cosine search over the attached integer rows: a
    /// coarse pass over the leading `probe_words · 64` dimensions of
    /// the i16-saturating quantized sidecar planes keeps
    /// `probe_factor · k` candidates per query, which are then rescored
    /// with exact full-width i32 dots. The [`ProbeConfig`] semantics
    /// are shared with the binary path (`probe_words` stays in units of
    /// 64 dimensions). At full probe width (`probe_words ≥ ⌈D/64⌉`) the
    /// coarse pass runs exact dots and the result is bit-identical to
    /// [`Self::search_topk_int`]; narrower probes trade recall for
    /// throughput. Falls back to the exact scan below
    /// [`ProbeConfig::exact_threshold`] rows.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::search_topk_int`].
    pub fn search_topk_int_pruned(
        &self,
        queries: &[&IntHv],
        k: usize,
        probe: &ProbeConfig,
    ) -> Result<BatchTopKResult, HvError> {
        self.search_topk_int_pruned_with(kernel::active(), queries, k, probe)
    }

    /// [`Self::search_topk_int_pruned`] on an explicit kernel backend.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::search_topk_int`].
    pub fn search_topk_int_pruned_with(
        &self,
        kern: &Kernel,
        queries: &[&IntHv],
        k: usize,
        probe: &ProbeConfig,
    ) -> Result<BatchTopKResult, HvError> {
        if self.n_rows() <= probe.exact_threshold {
            return self.search_topk_int_with(kern, queries, k);
        }
        if !self.has_int_rows() {
            return Err(HvError::EmptyInput);
        }
        for q in queries {
            self.check_query_dim(q.dim())?;
        }
        let kept = k.min(self.n_rows());
        let probe_dims = probe.probe_words.max(1).saturating_mul(64).min(self.dim());
        let n_candidates = probe.probe_factor.max(1).saturating_mul(kept);
        let n_candidates = n_candidates.clamp(kept, self.n_rows());
        let q_norms: Vec<f64> = queries.iter().map(|q| q.norm()).collect();
        // Coarse pass: normalized partial scores over the leading
        // dimension blocks, candidate buffers of `n_candidates` each.
        let shards = self.int_coarse_candidates(kern, queries, &q_norms, n_candidates, probe_dims);
        // Rescore pass: exact full-width i32 dot for every survivor,
        // then the final (score desc, row asc) order — identical float
        // expressions to the exact scan.
        let hits = (0..queries.len())
            .map(|q| {
                let mut exact: Vec<(Desc, usize)> = merge_shards(&shards, q, n_candidates)
                    .into_iter()
                    .map(|(_, row)| {
                        let dot = self.int_row_dot(kern, row, queries[q].values());
                        (Desc(self.int_score_of_dot(row, dot, q_norms[q])), row)
                    })
                    .collect();
                crate::stats::record_dot_rows(exact.len() as u64);
                exact.sort_unstable();
                exact.truncate(kept);
                exact
                    .into_iter()
                    .map(|(s, row)| TopKMatch { row, score: s.0 })
                    .collect()
            })
            .collect();
        Ok(BatchTopKResult { k, hits })
    }

    /// Exact rescore of one query's coarse candidates into its best
    /// `keep` by `(distance, row)`, best first.
    ///
    /// `candidates` arrive sorted by `(coarse, row)`, and each coarse key
    /// is the exact distance over the first `probe_words` words, so the
    /// rescore continues from it: it reads the rest of the block the
    /// probe ends in, then each later block whole. Once `keep` rows are
    /// in, the k-th best full distance bounds the rest. A candidate is
    /// dropped after the first block where its partial sum exceeds the
    /// bound, and the loop stops at the first coarse key that exceeds
    /// it, since every later key is at least as large. Both tests are
    /// strict, so a tie still reaches the `(distance, row)` comparison.
    /// At full probe width nothing is left to read and the result is
    /// the exact top-k. Returns the best list and the words read.
    fn rescore_bounded(
        &self,
        kern: &Kernel,
        query: &BinaryHv,
        candidates: &[(u32, usize)],
        keep: usize,
        probe_words: usize,
    ) -> (Vec<(u32, usize)>, usize) {
        let q_words = query.bits().words();
        let mut words_read = 0;
        let mut best: Vec<(u32, usize)> = Vec::with_capacity(keep + 1);
        'candidates: for &(coarse, row) in candidates {
            let bound = if best.len() == keep {
                best.last().map(|&(d, _)| d)
            } else {
                None
            };
            if bound.is_some_and(|worst| coarse > worst) {
                break;
            }
            let mut d = coarse;
            let mut skip = probe_words;
            for (b, block) in self.bin_blocks().iter().enumerate() {
                let (start, len) = self.bin_block_range(b);
                let from = skip.min(len);
                skip -= from;
                if from == len {
                    continue;
                }
                let row_words = &block[row * len + from..(row + 1) * len];
                d += (kern.hamming)(&q_words[start + from..start + len], row_words) as u32;
                words_read += len - from;
                if bound.is_some_and(|worst| d > worst) {
                    continue 'candidates;
                }
            }
            let at = best.partition_point(|&entry| entry < (d, row));
            if at < keep {
                best.insert(at, (d, row));
                best.truncate(keep);
            }
        }
        (best, words_read)
    }

    /// Row-sharded bounded scan shared by exact top-k
    /// (`probe_words == words_per_row`) and the coarse pass of the
    /// pruned scan (the leading blocks, or a strided prefix of the last
    /// one). Returns one entry per worker shard: per-query candidate
    /// lists sorted best first by `(distance, row)`.
    ///
    /// The pass ticks [`crate::stats`] in full-row equivalents: a
    /// prefix of `probe_words` of a row's `words_per_row` words counts
    /// as that fraction of a row, so the counter tracks the probe width.
    fn coarse_candidates(
        &self,
        kern: &Kernel,
        queries: &[&BinaryHv],
        keep: usize,
        probe_words: usize,
    ) -> Vec<Vec<Vec<(u32, usize)>>> {
        let nq = queries.len();
        let shards = par::par_chunk_map(self.n_rows(), TOPK_ROW_CHUNK, |range| {
            let mut buffers: Vec<BoundedTopK<(u32, usize)>> = (0..nq)
                .map(|_| BoundedTopK::new(keep, range.len()))
                .collect();
            let mut dist = vec![0u32; nq * TOPK_ROW_TILE];
            let mut tile_start = range.start;
            while tile_start < range.end {
                let tile_end = (tile_start + TOPK_ROW_TILE).min(range.end);
                let tile = tile_end - tile_start;
                dist[..nq * tile].fill(0);
                // The probe budget is consumed from the leading blocks.
                // The default probe is exactly block 0, one contiguous
                // stream of the tile's rows; a probe ending inside a
                // block reads a prefix of each of its rows at the block
                // stride. At `probe_words == words_per_row` every block
                // is scanned whole and the pass is exact.
                let mut remaining = probe_words;
                for (b, block) in self.bin_blocks().iter().enumerate() {
                    let (start, len) = self.bin_block_range(b);
                    let prefix = remaining.min(len);
                    remaining -= prefix;
                    if prefix == 0 {
                        break;
                    }
                    let rows = &block[tile_start * len..tile_end * len];
                    for (qi, q) in queries.iter().enumerate() {
                        let q_block = &q.bits().words()[start..start + prefix];
                        let drow = &mut dist[qi * tile..(qi + 1) * tile];
                        (kern.hamming_rows_stride)(q_block, rows, len, drow);
                    }
                }
                // Once a buffer has its bound, the bound's distance
                // bounds the scan. A shard's rows arrive in ascending
                // order, so a row that ties it also loses the
                // `(distance, row)` tie and is skipped with the rest.
                for (qi, buf) in buffers.iter_mut().enumerate() {
                    let mut bound = buf.bound().map(|&(d, _)| d);
                    for (i, &d) in dist[qi * tile..(qi + 1) * tile].iter().enumerate() {
                        if bound.is_none_or(|worst| d < worst) {
                            buf.push((d, tile_start + i));
                            bound = buf.bound().map(|&(d, _)| d);
                        }
                    }
                }
                tile_start = tile_end;
            }
            vec![buffers.into_iter().map(BoundedTopK::into_sorted).collect()]
        });
        crate::stats::record_hamming_rows(row_equivalents(
            nq * self.n_rows(),
            probe_words,
            self.words_per_row(),
        ));
        shards
    }

    /// Row-sharded bounded scan over the blocked integer planes,
    /// shared by exact int top-k (`probe_dims == D`) and the coarse
    /// pass of the pruned int scan (a leading-dimension prefix).
    ///
    /// Candidate keys are *normalized* partial scores
    /// (`partial_dot / (‖row‖·‖q‖)`, the same float expression as the
    /// exact kernels) rather than raw dots — rows differ in norm under
    /// the cosine metric, so a raw partial dot would not rank
    /// order-equivalently even at full width. At `probe_dims == D` the
    /// dots are exact (the lossless i16 sidecar when every value fits,
    /// the i32 planes otherwise), making the coarse key *equal* to the
    /// exact score; narrower prefixes run the i16-saturating quantized
    /// sidecar with a saturating-narrowed query — the approximate pass
    /// whose recall `probe_factor` buys back.
    ///
    /// Like the binary pass, it ticks [`crate::stats`] in full-row
    /// equivalents (`probe_dims` of `D` dims is that fraction of a row).
    fn int_coarse_candidates(
        &self,
        kern: &Kernel,
        queries: &[&IntHv],
        q_norms: &[f64],
        keep: usize,
        probe_dims: usize,
    ) -> Vec<Vec<Vec<(Desc, usize)>>> {
        let nq = queries.len();
        let exact = probe_dims >= self.dim();
        // Per-query i16 view of the query: lossless-only when the pass
        // must stay exact, saturating otherwise.
        let narrowed: Vec<Option<Vec<i16>>> = queries
            .iter()
            .map(|q| {
                if exact {
                    if self.int_fits_i16() {
                        ShardedClassMemory::narrow_query_i16(q.values())
                    } else {
                        None
                    }
                } else {
                    Some(
                        q.values()
                            .iter()
                            .map(|&v| v.clamp(-I16_LIMIT, I16_LIMIT) as i16)
                            .collect(),
                    )
                }
            })
            .collect();
        let shards = par::par_chunk_map(self.n_rows(), TOPK_ROW_CHUNK, |range| {
            let mut buffers: Vec<BoundedTopK<(Desc, usize)>> = (0..nq)
                .map(|_| BoundedTopK::new(keep, range.len()))
                .collect();
            let mut dots = vec![0i64; nq * TOPK_ROW_TILE];
            let mut tile_start = range.start;
            while tile_start < range.end {
                let tile_end = (tile_start + TOPK_ROW_TILE).min(range.end);
                let tile = tile_end - tile_start;
                dots[..nq * tile].fill(0);
                // The probe budget is consumed from the leading blocks,
                // exactly like the binary coarse pass: one strided
                // prefix scan per block instead of scattered samples.
                let mut remaining = probe_dims;
                for (b, block) in self.int_blocks().iter().enumerate() {
                    let (start, len) = self.int_block_range(b);
                    let prefix = remaining.min(len);
                    remaining -= prefix;
                    if prefix == 0 {
                        break;
                    }
                    for (qi, q) in queries.iter().enumerate() {
                        let drow = &mut dots[qi * tile..(qi + 1) * tile];
                        if let Some(nq_vals) = &narrowed[qi] {
                            let rows = &self.int_i16_blocks()[b][tile_start * len..tile_end * len];
                            let q_block = &nq_vals[start..start + prefix];
                            (kern.dot_i16_rows_stride)(q_block, rows, len, drow);
                        } else {
                            let rows = &block[tile_start * len..tile_end * len];
                            let q_block = &q.values()[start..start + prefix];
                            (kern.dot_rows_stride)(q_block, rows, len, drow);
                        }
                    }
                }
                // The same bound as the binary pass, in the buffer's
                // `(Desc(score), row)` order.
                for (qi, buf) in buffers.iter_mut().enumerate() {
                    let mut bound = buf.bound().map(|&(s, _)| s);
                    for (i, &dot) in dots[qi * tile..(qi + 1) * tile].iter().enumerate() {
                        let row = tile_start + i;
                        let score = Desc(self.int_score_of_dot(row, dot, q_norms[qi]));
                        if bound.is_none_or(|worst| score < worst) {
                            buf.push((score, row));
                            bound = buf.bound().map(|&(s, _)| s);
                        }
                    }
                }
                tile_start = tile_end;
            }
            vec![buffers.into_iter().map(BoundedTopK::into_sorted).collect()]
        });
        crate::stats::record_dot_rows(row_equivalents(nq * self.n_rows(), probe_dims, self.dim()));
        shards
    }
}

/// Full-row equivalents of a pass that reads the leading `probe` of
/// each row's `width` units (words or dims) from `rows` rows.
fn row_equivalents(rows: usize, probe: usize, width: usize) -> u64 {
    let width = width.max(1);
    (rows as u128 * probe.min(width) as u128 / width as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HvRng;

    #[test]
    fn bounded_heap_keeps_k_smallest_in_order() {
        let mut h = BoundedTopK::new(3, 7);
        for v in [9u32, 1, 7, 3, 5, 2, 8] {
            h.push((v, 0usize));
        }
        assert_eq!(h.into_sorted(), vec![(1, 0), (2, 0), (3, 0)]);
        let mut empty = BoundedTopK::<(u32, usize)>::new(0, 1);
        empty.push((1, 0));
        assert_eq!(empty.into_sorted(), vec![]);
    }

    /// Pushes `items` in order through a buffer of `k` and returns its
    /// sorted contents beside the sort-then-truncate reference.
    fn buffer_and_reference<T: Ord + Copy>(items: &[T], k: usize) -> (Vec<T>, Vec<T>) {
        let mut buf = BoundedTopK::new(k, items.len());
        for &item in items {
            buf.push(item);
        }
        let mut want = items.to_vec();
        want.sort_unstable();
        want.truncate(k);
        (buf.into_sorted(), want)
    }

    #[test]
    fn buffer_handles_k_edge_cases() {
        let items: Vec<(u32, usize)> = [4u32, 9, 1, 7, 1, 3].into_iter().zip(0..).collect();
        for k in [0, 1, 5, 6, 7, 100] {
            let (got, want) = buffer_and_reference(&items, k);
            assert_eq!(got, want, "k = {k}");
            assert_eq!(got.len(), k.min(items.len()));
        }
        // No bound until k items are in; then the largest of them.
        let mut buf = BoundedTopK::new(3, 10);
        buf.push((5u32, 0usize));
        buf.push((2, 1));
        assert_eq!(buf.bound(), None);
        buf.push((8, 2));
        assert_eq!(buf.bound(), Some(&(8, 2)));
        assert_eq!(buf.items.capacity(), 6);
        // The allocation never exceeds the item count.
        assert!(BoundedTopK::<(u32, usize)>::new(1000, 10).items.capacity() < 1000);
    }

    #[test]
    fn buffer_keeps_the_lowest_rows_among_equal_keys() {
        // Equal keys, distinct rows: the lowest rows win the tie.
        let items: Vec<(u32, usize)> = (0..50).map(|row| (7u32, row)).collect();
        for k in [1, 4, 20] {
            let (got, want) = buffer_and_reference(&items, k);
            assert_eq!(got, want, "k = {k}");
        }
        // Fully equal items: k copies survive.
        let (got, want) = buffer_and_reference(&[(3u32, 0usize); 9], 4);
        assert_eq!(got, want);
        assert_eq!(got, vec![(3, 0); 4]);
    }

    #[test]
    fn buffer_compacts_on_strictly_descending_input() {
        // Every push beats the bound, so the buffer fills to 2k and
        // compacts every k pushes; the bound tracks the k-th smallest
        // as of each compaction.
        let k = 5;
        let items: Vec<(u32, usize)> = (0..40u32).rev().zip(0..).collect();
        let mut buf = BoundedTopK::new(k, items.len());
        for (i, &item) in items.iter().enumerate() {
            buf.push(item);
            assert!(buf.items.len() < 2 * k, "compacted at 2k");
            let pushed = i + 1;
            if pushed >= k && (pushed - k) % k == 0 {
                assert_eq!(buf.items.len(), k);
                assert_eq!(
                    buf.bound(),
                    Some(&items[i + 1 - k]),
                    "after {pushed} pushes"
                );
            }
        }
        let (got, want) = buffer_and_reference(&items, k);
        assert_eq!(got, want);
    }

    #[test]
    fn buffer_matches_sort_then_truncate_on_random_keys() {
        let mut rng = HvRng::from_seed(30);
        for case in 0..300 {
            let n = rng.index(200);
            let k = rng.index(40);
            // Few distinct keys and repeated rows: many duplicates.
            let spread = 1 + rng.index(8);
            let bins: Vec<(u32, usize)> = (0..n)
                .map(|_| (rng.index(spread) as u32, rng.index(n.max(1))))
                .collect();
            let (got, want) = buffer_and_reference(&bins, k);
            assert_eq!(got, want, "binary keys, case {case}, k {k}");
            let ints: Vec<(Desc, usize)> = (0..n)
                .map(|_| {
                    (
                        Desc(rng.index(spread) as f64 / 4.0 - 0.5),
                        rng.index(n.max(1)),
                    )
                })
                .collect();
            let (got, want) = buffer_and_reference(&ints, k);
            assert_eq!(got, want, "int keys, case {case}, k {k}");
        }
    }

    #[test]
    fn desc_orders_scores_best_first() {
        let mut v = [(Desc(0.1), 4usize), (Desc(0.9), 2), (Desc(0.9), 1)];
        v.sort_unstable();
        assert_eq!(v.iter().map(|&(_, r)| r).collect::<Vec<_>>(), vec![1, 2, 4]);
    }

    #[test]
    fn topk_binary_matches_full_sort_reference() {
        let dim = 130;
        let mut rng = HvRng::from_seed(21);
        let rows: Vec<BinaryHv> = (0..37).map(|_| rng.binary_hv(dim)).collect();
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let queries: Vec<BinaryHv> = (0..5).map(|_| rng.binary_hv(dim)).collect();
        let refs: Vec<&BinaryHv> = queries.iter().collect();
        let k = 7;
        let got = mem.search_topk_binary(&refs, k).unwrap();
        let full = mem.search_batch_binary(&refs).unwrap();
        for (q, query) in queries.iter().enumerate() {
            let mut order: Vec<(usize, usize)> = rows
                .iter()
                .enumerate()
                .map(|(r, row)| (row.hamming(query), r))
                .collect();
            order.sort_unstable();
            let matches = got.matches(q);
            assert_eq!(matches.len(), k);
            for (m, &(_, want_row)) in matches.iter().zip(order.iter()) {
                assert_eq!(m.row, want_row);
                assert_eq!(m.score.to_bits(), full.scores(q)[want_row].to_bits());
            }
            // Top-1 agrees with the argmax kernel.
            assert_eq!(matches[0].row, full.best(q));
        }
    }

    #[test]
    fn topk_scans_tick_the_kernel_row_counters() {
        // Counters are process-wide and tests run in parallel, so only
        // a lower bound is checkable: an exact scan touches every row
        // once per query; a pruned scan counts its coarse prefix as
        // that fraction of a row, plus the words its rescore reads. The
        // binary rescore reads past the probe in full for at least each
        // query's first k candidates, which no bound can drop yet; the
        // int rescore reads every candidate's full row.
        let dim = 200;
        let mut rng = HvRng::from_seed(29);
        let bins: Vec<BinaryHv> = (0..45).map(|_| rng.binary_hv(dim)).collect();
        let ints: Vec<IntHv> = bins.iter().map(BinaryHv::to_int).collect();
        let mut mem = ShardedClassMemory::from_rows(&bins).unwrap();
        mem.set_int_rows(&ints).unwrap();
        let queries: Vec<BinaryHv> = (0..3).map(|_| rng.binary_hv(dim)).collect();
        let refs: Vec<&BinaryHv> = queries.iter().collect();
        let int_queries: Vec<IntHv> = queries.iter().map(BinaryHv::to_int).collect();
        let int_refs: Vec<&IntHv> = int_queries.iter().collect();
        let scanned = queries.len() * bins.len();
        let probe = ProbeConfig {
            probe_words: 1,
            probe_factor: 2,
            exact_threshold: 0,
        };
        let rescored = row_equivalents(queries.len() * 5 * 3, 1, 4);
        let int_rescored = (queries.len() * 10) as u64;
        assert_eq!(row_equivalents(scanned, 1, 4), 33);
        assert_eq!(row_equivalents(scanned, 64, dim), 43);
        assert_eq!(rescored, 11);

        let before = crate::stats::hamming_rows();
        mem.search_topk_binary(&refs, 5).unwrap();
        assert!(crate::stats::hamming_rows() >= before + scanned as u64);
        let before = crate::stats::hamming_rows();
        mem.search_topk_binary_pruned(&refs, 5, &probe).unwrap();
        assert!(crate::stats::hamming_rows() >= before + 33 + rescored);

        let before = crate::stats::dot_rows();
        mem.search_topk_int(&int_refs, 5).unwrap();
        assert!(crate::stats::dot_rows() >= before + scanned as u64);
        let before = crate::stats::dot_rows();
        mem.search_topk_int_pruned(&int_refs, 5, &probe).unwrap();
        assert!(crate::stats::dot_rows() >= before + 43 + int_rescored);
    }

    #[test]
    fn topk_handles_k_edge_cases() {
        let mut rng = HvRng::from_seed(22);
        let rows: Vec<BinaryHv> = (0..4).map(|_| rng.binary_hv(256)).collect();
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let q = rng.binary_hv(256);
        let zero = mem.search_topk_binary(&[&q], 0).unwrap();
        assert_eq!(zero.matches(0).len(), 0);
        let over = mem.search_topk_binary(&[&q], 100).unwrap();
        assert_eq!(over.matches(0).len(), 4);
        assert_eq!(over.k(), 100);
        // All four rows present, best-first.
        let rows_seen: Vec<usize> = over.matches(0).iter().map(|m| m.row).collect();
        let mut sorted = rows_seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        for w in over.matches(0).windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn topk_empty_memory_and_bad_dims_error() {
        let mem = ShardedClassMemory::new(64);
        let mut rng = HvRng::from_seed(23);
        let q = rng.binary_hv(64);
        assert_eq!(
            mem.search_topk_binary(&[&q], 3).unwrap_err(),
            HvError::EmptyInput
        );
        let mem = ShardedClassMemory::from_rows(&[rng.binary_hv(64)]).unwrap();
        let bad = rng.binary_hv(65);
        assert_eq!(
            mem.search_topk_binary(&[&bad], 1).unwrap_err(),
            HvError::DimensionMismatch {
                expected: 64,
                found: 65
            }
        );
        assert_eq!(
            mem.search_topk_int(&[&bad.to_int()], 1).unwrap_err(),
            HvError::EmptyInput
        );
    }

    #[test]
    fn topk_duplicate_rows_keep_lowest_indices() {
        let mut rng = HvRng::from_seed(24);
        let base = rng.binary_hv(192);
        let rows = vec![base.clone(), base.clone(), base.clone(), base.clone()];
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let q = rng.binary_hv(192);
        let got = mem.search_topk_binary(&[&q], 2).unwrap();
        let picked: Vec<usize> = got.matches(0).iter().map(|m| m.row).collect();
        assert_eq!(picked, vec![0, 1]);
    }

    #[test]
    fn topk_int_matches_full_sort_reference() {
        let dim = 257;
        let mut rng = HvRng::from_seed(25);
        let bins: Vec<BinaryHv> = (0..9).map(|_| rng.binary_hv(dim)).collect();
        let ints: Vec<IntHv> = bins
            .iter()
            .map(|b| {
                let mut acc = b.to_int();
                acc.add_binary(&rng.binary_hv(dim));
                acc
            })
            .collect();
        let mut mem = ShardedClassMemory::from_rows(&bins).unwrap();
        mem.set_int_rows(&ints).unwrap();
        let queries: Vec<IntHv> = (0..4).map(|_| rng.binary_hv(dim).to_int()).collect();
        let refs: Vec<&IntHv> = queries.iter().collect();
        let k = 3;
        let got = mem.search_topk_int(&refs, k).unwrap();
        let full = mem.search_batch_int(&refs).unwrap();
        for q in 0..queries.len() {
            let mut order: Vec<(Desc, usize)> = full
                .scores(q)
                .iter()
                .enumerate()
                .map(|(r, &s)| (Desc(s), r))
                .collect();
            order.sort_unstable();
            for (m, &(want_s, want_row)) in got.matches(q).iter().zip(order.iter()) {
                assert_eq!(m.row, want_row);
                assert_eq!(m.score.to_bits(), want_s.0.to_bits());
            }
            assert_eq!(got.matches(q)[0].row, full.best(q));
        }
    }

    #[test]
    fn pruned_full_width_is_bit_identical_to_exact() {
        let dim = 1030;
        let mut rng = HvRng::from_seed(26);
        let rows: Vec<BinaryHv> = (0..300).map(|_| rng.binary_hv(dim)).collect();
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let queries: Vec<BinaryHv> = (0..4).map(|_| rng.binary_hv(dim)).collect();
        let refs: Vec<&BinaryHv> = queries.iter().collect();
        // exact_threshold 0 forces the two-phase machinery.
        let probe = ProbeConfig {
            probe_words: mem.words_per_row(),
            probe_factor: 2,
            exact_threshold: 0,
        };
        let exact = mem.search_topk_binary(&refs, 5).unwrap();
        let pruned = mem.search_topk_binary_pruned(&refs, 5, &probe).unwrap();
        assert_eq!(exact, pruned);
    }

    #[test]
    fn pruned_below_threshold_falls_back_to_exact() {
        let mut rng = HvRng::from_seed(27);
        let rows: Vec<BinaryHv> = (0..50).map(|_| rng.binary_hv(256)).collect();
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let q = rng.binary_hv(256);
        let probe = ProbeConfig::default(); // exact_threshold ≫ 50 rows
        let exact = mem.search_topk_binary(&[&q], 4).unwrap();
        let pruned = mem.search_topk_binary_pruned(&[&q], 4, &probe).unwrap();
        assert_eq!(exact, pruned);
    }

    /// Copy of `base` with roughly `rate · D` random bit flips.
    fn noisy(base: &BinaryHv, rng: &mut HvRng, rate: f64) -> BinaryHv {
        let mut v = base.clone();
        let flips = (base.dim() as f64 * rate) as usize;
        for _ in 0..flips {
            v.flip(rng.index(base.dim()));
        }
        v
    }

    #[test]
    fn narrow_probe_recalls_planted_neighbors() {
        // A planted cluster well below the random-distance band: even a
        // few-word probe must recover it, because the coarse distances
        // separate cluster from background by many sigma.
        let dim = 4096;
        let mut rng = HvRng::from_seed(28);
        let center = rng.binary_hv(dim);
        let mut rows: Vec<BinaryHv> = (0..400).map(|_| rng.binary_hv(dim)).collect();
        for slot in [17usize, 101, 333] {
            rows[slot] = noisy(&center, &mut rng, 0.05);
        }
        let mem = ShardedClassMemory::from_rows(&rows).unwrap();
        let probe = ProbeConfig {
            probe_words: 4,
            probe_factor: 8,
            exact_threshold: 0,
        };
        let pruned = mem
            .search_topk_binary_pruned(&[&center], 3, &probe)
            .unwrap();
        let mut found: Vec<usize> = pruned.matches(0).iter().map(|m| m.row).collect();
        found.sort_unstable();
        assert_eq!(found, vec![17, 101, 333]);
    }
}
