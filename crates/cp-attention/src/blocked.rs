//! Flash-style blocked attention with online softmax.

use crate::naive::check_positions;
use crate::{AttentionError, AttentionOutput, AttentionParams, KvSource, PAD};
use cp_pool::ComputePool;
use cp_tensor::Tensor;

/// Exact GQA attention computed in KV blocks with an online softmax, the
/// structure of FlashAttention (Dao et al.) / the paper's FA3 kernels.
///
/// Mathematically identical to [`crate::naive_gqa_attention`] — the running
/// `(max, sum, accumulator)` triple per (query, head) is the same rescaling
/// trick merge attention uses, applied block-by-block — but it never
/// materialises the full `t_q x t_kv` score matrix, so its working set is
/// `O(block_size)` per query. Property tests pin it to the naive kernel.
///
/// # Errors
///
/// Same conditions as [`crate::naive_gqa_attention`]; additionally
/// `block_size` must be positive.
///
/// # Example
///
/// ```
/// use cp_attention::{blocked_gqa_attention, naive_gqa_attention, AttentionParams, GqaShape};
/// use cp_tensor::DetRng;
///
/// # fn main() -> Result<(), cp_attention::AttentionError> {
/// let params = AttentionParams::for_shape(GqaShape::new(2, 2, 4)?);
/// let mut rng = DetRng::new(3);
/// let q = rng.tensor(&[5, 2, 4]);
/// let k = rng.tensor(&[5, 2, 4]);
/// let v = rng.tensor(&[5, 2, 4]);
/// let pos: Vec<usize> = (0..5).collect();
/// let fast = blocked_gqa_attention(&q, &k, &v, &params, &pos, &pos, 2)?;
/// let slow = naive_gqa_attention(&q, &k, &v, &params, &pos, &pos)?;
/// assert!(fast.out.approx_eq(&slow.out, 1e-4).unwrap());
/// # Ok(())
/// # }
/// ```
pub fn blocked_gqa_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
    block_size: usize,
) -> Result<AttentionOutput, AttentionError> {
    blocked_gqa_attention_with_threads(q, k, v, params, q_pos, kv_pos, block_size, 0)
}

/// [`blocked_gqa_attention`] on an explicit persistent worker pool.
///
/// The preferred entry point inside ring loops: the `Communicator` owns one
/// pool per rank, so a multi-layer forward reuses the same workers for
/// every layer and hop instead of spawning scoped threads per call. Tile
/// count is the pool's parallelism (capped at the query count); results are
/// bit-identical to the serial path.
///
/// # Errors
///
/// Same conditions as [`blocked_gqa_attention`].
#[allow(clippy::too_many_arguments)] // mirrors the kernel signature + pool
pub fn blocked_gqa_attention_on(
    pool: &ComputePool,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
    block_size: usize,
) -> Result<AttentionOutput, AttentionError> {
    blocked_impl(
        pool,
        q,
        &KvSource::contiguous(k, v),
        params,
        q_pos,
        kv_pos,
        block_size,
        0,
    )
}

/// [`blocked_gqa_attention_on`] over a [`KvSource`] — contiguous tensors or
/// a paged KV cache view — with zero materialization.
///
/// The kernel walks KV rows through the source's O(1) row lookup; for the
/// same `block_size` the paged and contiguous variants perform the same f32
/// operations in the same order, so results are **bit-identical** across
/// storage layouts (property-tested in cp-kvcache). Paged callers should
/// pick a `block_size` that is a multiple of the page size so online-softmax
/// blocks coincide with whole pages.
///
/// # Errors
///
/// Same conditions as [`blocked_gqa_attention`].
pub fn blocked_gqa_attention_source(
    pool: &ComputePool,
    q: &Tensor,
    kv: &KvSource<'_>,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
    block_size: usize,
) -> Result<AttentionOutput, AttentionError> {
    blocked_impl(pool, q, kv, params, q_pos, kv_pos, block_size, 0)
}

/// [`blocked_gqa_attention`] with an explicit tile count.
///
/// `threads == 0` sizes the tiling from the shared global pool's
/// parallelism (the default entry point's behaviour); `threads == 1` forces
/// the serial path; larger values pin the number of query-row tiles, which
/// lets tests exercise the tiled path on single-core hosts. Every
/// `(query, head)` pair walks its KV blocks in the same ascending order
/// with the same arithmetic regardless of `threads`, so results are
/// bit-identical across thread counts.
///
/// # Errors
///
/// Same conditions as [`blocked_gqa_attention`].
#[allow(clippy::too_many_arguments)] // mirrors the kernel signature + threads
pub fn blocked_gqa_attention_with_threads(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
    block_size: usize,
    threads: usize,
) -> Result<AttentionOutput, AttentionError> {
    blocked_impl(
        ComputePool::global(),
        q,
        &KvSource::contiguous(k, v),
        params,
        q_pos,
        kv_pos,
        block_size,
        threads,
    )
}

#[allow(clippy::too_many_arguments)]
fn blocked_impl(
    pool: &ComputePool,
    q: &Tensor,
    kv: &KvSource<'_>,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
    block_size: usize,
    threads: usize,
) -> Result<AttentionOutput, AttentionError> {
    if block_size == 0 {
        return Err(AttentionError::InvalidShape {
            reason: "block_size must be positive".to_string(),
        });
    }
    let shape = &params.shape;
    let t_q = shape.check_q(q)?;
    let t_k = kv.check(shape)?;
    check_positions("q_pos", t_q, q_pos)?;
    check_positions("kv_pos", t_k, kv_pos)?;

    let (n_heads, dh) = (shape.n_heads(), shape.head_dim());
    let mut out = Tensor::zeros(&[t_q, n_heads, dh]);
    let mut lse = Tensor::full(&[t_q, n_heads], f32::NEG_INFINITY);
    if t_q > 0 {
        let out_buf = out.as_mut_slice();
        let lse_buf = lse.as_mut_slice();
        let row_o = n_heads * dh;
        let workers = match threads {
            0 => pool.parallelism(),
            n => n,
        }
        .min(t_q);
        if workers <= 1 {
            // One scratch for the whole call instead of buffers per
            // (block, query, head).
            let mut scratch = RowScratch::new(shape, block_size, t_k);
            for (qi, ((out_row, lse_row), &qp)) in out_buf
                .chunks_mut(row_o)
                .zip(lse_buf.chunks_mut(n_heads))
                .zip(q_pos)
                .enumerate()
            {
                attend_query_row(
                    q.row(qi),
                    kv,
                    params,
                    qp,
                    kv_pos,
                    block_size,
                    out_row,
                    lse_row,
                    &mut scratch,
                );
            }
        } else {
            // Tile the query rows over the persistent pool; each job owns a
            // disjoint slice of the output buffers and one scratch.
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
            let mut out_rest = out_buf;
            let mut lse_rest = lse_buf;
            let mut pos_rest = q_pos;
            let base = t_q / workers;
            let extra = t_q % workers;
            let mut start = 0;
            for w in 0..workers {
                let len = base + usize::from(w < extra);
                let (out_tile, out_tail) = out_rest.split_at_mut(len * row_o);
                out_rest = out_tail;
                let (lse_tile, lse_tail) = lse_rest.split_at_mut(len * n_heads);
                lse_rest = lse_tail;
                let (pos_tile, pos_tail) = pos_rest.split_at(len);
                pos_rest = pos_tail;
                jobs.push(Box::new(move || {
                    let mut scratch = RowScratch::new(shape, block_size, t_k);
                    for (off, ((out_row, lse_row), &qp)) in out_tile
                        .chunks_mut(row_o)
                        .zip(lse_tile.chunks_mut(n_heads))
                        .zip(pos_tile)
                        .enumerate()
                    {
                        attend_query_row(
                            q.row(start + off),
                            kv,
                            params,
                            qp,
                            kv_pos,
                            block_size,
                            out_row,
                            lse_row,
                            &mut scratch,
                        );
                    }
                }));
                start += len;
            }
            pool.run(jobs);
        }
    }
    AttentionOutput::new(out, lse)
}

/// Query heads per register tile of the grouped kernel: the `g` heads
/// that share one KV head are scored against each K vector `LANES` at a
/// time, one independent accumulator per lane.
const LANES: usize = 4;

/// Online-softmax state of one (query, head) pair.
#[derive(Debug, Clone, Copy)]
struct Softmax {
    /// Running max score.
    m: f32,
    /// Running sum of `exp(score - m)`.
    l: f32,
    /// Max score of the current block.
    block_m: f32,
}

/// Per-worker scratch of [`attend_query_row`], reused across query rows.
struct RowScratch {
    /// One KV head's query group packed d-major into `LANES`-wide tiles
    /// (`ceil(g / LANES)` tiles of `dh` rows); lanes past `g` are zero.
    q_tiles: Vec<[f32; LANES]>,
    /// The current block's scores, position-major: `g` per KV position,
    /// plus one spare row.
    scores: Vec<f32>,
    /// Softmax state of each head of the group.
    heads: Vec<Softmax>,
    /// Dequantization scratch for quantized sources, one head vector for
    /// each key of a scored pair (unused by f32 storage).
    head_buf: Vec<f32>,
}

impl RowScratch {
    fn new(shape: &crate::GqaShape, block_size: usize, t_k: usize) -> Self {
        let g = shape.group_size();
        RowScratch {
            q_tiles: Vec::with_capacity(g.div_ceil(LANES) * shape.head_dim()),
            scores: Vec::with_capacity((block_size.min(t_k) + 1) * g),
            heads: Vec::with_capacity(g),
            head_buf: vec![0.0; 2 * shape.head_dim()],
        }
    }
}

/// Online-softmax attention for one query row, one KV head group at a
/// time: the `g` query heads sharing a KV head walk the KV blocks in
/// ascending order together, keeping per-head `(m, l)` scalars and
/// accumulating weighted values directly into this row's slice of the
/// output buffer.
///
/// Each visible K and V head vector is fetched through
/// [`KvSource::k_head`] / [`KvSource::v_head`] once per group (a direct
/// subslice for f32 storage, one dequantize into the scratch for INT8
/// pages) and shared by the group's heads. The `g` dot products against a
/// K vector run as independent lanes of a `[f32; LANES]` register tile
/// over the d-major packed queries (lanes past `g` are discarded), two K
/// vectors at a time, and a block no position of which is visible to the
/// query is skipped before any lookup — it would leave every head's state
/// unchanged.
///
/// The invariant: every (query, head) pair performs exactly the f32
/// operations of a scalar per-head walk — each dot sums `q * k` in
/// ascending `d` from `Iterator::sum`'s initial `-0.0`, then block max,
/// rescale and value accumulation in ascending position — so the grouping
/// is bitwise invisible (pinned against a scalar oracle in the tests), and
/// contiguous, paged and quantized storage execute the same sequence over
/// the values they expose. Heads, groups and blocks advance by chunked
/// iterators rather than computed indices, so the loop body contains no
/// panicking slice index; an out-of-range KV row or head lookup
/// (impossible after the shape checks) folds into the masked branch.
#[allow(clippy::too_many_arguments)]
fn attend_query_row(
    qrow: &[f32],
    kv: &KvSource<'_>,
    params: &AttentionParams,
    q_pos_qi: usize,
    kv_pos: &[usize],
    block_size: usize,
    out_row: &mut [f32],
    lse_row: &mut [f32],
    scratch: &mut RowScratch,
) {
    let shape = &params.shape;
    let (dh, g) = (shape.head_dim(), shape.group_size());
    let visible = |kpos: usize| kpos != PAD && kpos <= q_pos_qi;
    let RowScratch {
        q_tiles,
        scores,
        heads,
        head_buf,
    } = scratch;
    for (kvh, ((qgroup, acc_group), lse_group)) in qrow
        .chunks(g * dh)
        .zip(out_row.chunks_mut(g * dh))
        .zip(lse_row.chunks_mut(g))
        .enumerate()
    {
        pack_query_group(qgroup, dh, g, q_tiles);
        heads.clear();
        heads.resize(
            g,
            Softmax {
                m: f32::NEG_INFINITY,
                l: 0.0,
                block_m: f32::NEG_INFINITY,
            },
        );
        for (block_idx, block_pos) in kv_pos.chunks(block_size).enumerate() {
            if !block_pos.iter().any(|&p| visible(p)) {
                continue; // entire block masked for this query
            }
            let block_start = block_idx * block_size;
            // Scores and per-head block max, one K lookup per position.
            // Positions are scored in pairs so the two keys' add chains
            // overlap; a pair with one visible key scores it twice and the
            // other row keeps -inf. The spare row past the block gives an
            // odd tail its partner row and stays -inf, a no-op below.
            scores.clear();
            scores.resize((block_pos.len() + 1) * g, f32::NEG_INFINITY);
            let (buf_a, buf_b) = head_buf.split_at_mut(dh);
            for (pair, (pair_pos, pair_rows)) in block_pos
                .chunks(2)
                .zip(scores.chunks_exact_mut(2 * g))
                .enumerate()
            {
                let row = block_start + 2 * pair;
                let ka = match pair_pos.first() {
                    Some(&p) if visible(p) => kv.k_head(row, kvh, dh, buf_a),
                    _ => None,
                };
                let kb = match pair_pos.get(1) {
                    Some(&p) if visible(p) => kv.k_head(row + 1, kvh, dh, buf_b),
                    _ => None,
                };
                let (Some(a), Some(b)) = (ka.or(kb), kb.or(ka)) else {
                    continue;
                };
                let (row_a, row_b) = pair_rows.split_at_mut(g);
                for ((tile, tile_a), tile_b) in q_tiles
                    .chunks_exact(dh)
                    .zip(row_a.chunks_mut(LANES))
                    .zip(row_b.chunks_mut(LANES))
                {
                    let (dots_a, dots_b) = dot_pair(tile, a, b);
                    for (dst, dots, hit) in [
                        (tile_a, dots_a, ka.is_some()),
                        (tile_b, dots_b, kb.is_some()),
                    ] {
                        if hit {
                            for (s, dot) in dst.iter_mut().zip(dots) {
                                *s = dot * params.scale;
                            }
                        }
                    }
                }
            }
            for h in heads.iter_mut() {
                h.block_m = f32::NEG_INFINITY;
            }
            for srow in scores.chunks_exact(g) {
                for (h, &s) in heads.iter_mut().zip(srow) {
                    h.block_m = h.block_m.max(s);
                }
            }
            // Rescale every head this block reaches to its new max.
            for (h, acc) in heads.iter_mut().zip(acc_group.chunks_mut(dh)) {
                if h.block_m == f32::NEG_INFINITY {
                    continue; // entire block masked for this head
                }
                let new_m = h.m.max(h.block_m);
                let rescale = if h.m == f32::NEG_INFINITY {
                    0.0
                } else {
                    (h.m - new_m).exp()
                };
                h.l *= rescale;
                for x in acc.iter_mut() {
                    *x *= rescale;
                }
                h.m = new_m;
            }
            // Weighted values, one V lookup per position some head scored.
            for (off, srow) in scores.chunks_exact(g).enumerate() {
                if srow.iter().all(|&s| s == f32::NEG_INFINITY) {
                    continue;
                }
                let vvec = kv.v_head(block_start + off, kvh, dh, head_buf);
                for ((h, acc), &s) in heads.iter_mut().zip(acc_group.chunks_mut(dh)).zip(srow) {
                    // A head with no finite score here skipped the block
                    // (its NaN scores, if any, never count).
                    if s == f32::NEG_INFINITY || h.block_m == f32::NEG_INFINITY {
                        continue;
                    }
                    let w = (s - h.m).exp();
                    h.l += w;
                    if let Some(vvec) = vvec {
                        for (a, &x) in acc.iter_mut().zip(vvec) {
                            *a += w * x;
                        }
                    }
                }
            }
        }
        // Finalise: out = acc / l, lse = m + ln(l); a fully masked head
        // keeps zeros and -inf, the merge convention.
        for ((h, acc), lse_slot) in heads
            .iter()
            .zip(acc_group.chunks_mut(dh))
            .zip(lse_group.iter_mut())
        {
            if h.m != f32::NEG_INFINITY {
                *lse_slot = h.m + h.l.ln();
                for x in acc.iter_mut() {
                    *x /= h.l;
                }
            }
        }
    }
}

/// The dot products of one packed query tile with two K vectors: lane `j`
/// of each result sums `q_j[d] * k[d]` in ascending `d` from `-0.0`, the
/// start and order of `Iterator::sum`. The two keys accumulate
/// independently, so their add chains overlap.
#[inline(always)]
fn dot_pair(tile: &[[f32; LANES]], ka: &[f32], kb: &[f32]) -> ([f32; LANES], [f32; LANES]) {
    let mut da = [-0.0f32; LANES];
    let mut db = [-0.0f32; LANES];
    for ((qd, &a), &b) in tile.iter().zip(ka).zip(kb) {
        for ((x, y), &q) in da.iter_mut().zip(db.iter_mut()).zip(qd) {
            *x += q * a;
            *y += q * b;
        }
    }
    (da, db)
}

/// Packs one KV head's `g` query head vectors (`qgroup`, head-major) into
/// d-major `LANES`-wide tiles: row `d` of tile `t` holds element `d` of
/// heads `t * LANES ..`, zero past `g`.
fn pack_query_group(qgroup: &[f32], dh: usize, g: usize, tiles: &mut Vec<[f32; LANES]>) {
    tiles.clear();
    tiles.resize(g.div_ceil(LANES) * dh, [0.0; LANES]);
    for (tile, tile_heads) in tiles.chunks_exact_mut(dh).zip(qgroup.chunks(LANES * dh)) {
        for (lane, qvec) in tile_heads.chunks_exact(dh).enumerate() {
            for (row, &x) in tile.iter_mut().zip(qvec) {
                if let Some(slot) = row.get_mut(lane) {
                    *slot = x;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive_gqa_attention, GqaShape};
    use cp_tensor::DetRng;

    fn params(nh: usize, nkv: usize, dh: usize) -> AttentionParams {
        AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap())
    }

    fn compare_with_naive(t_q: usize, t_kv: usize, p: &AttentionParams, block: usize, seed: u64) {
        let mut rng = DetRng::new(seed);
        let shape = p.shape;
        let q = rng.tensor(&[t_q, shape.n_heads(), shape.head_dim()]);
        let k = rng.tensor(&[t_kv, shape.n_kv_heads(), shape.head_dim()]);
        let v = rng.tensor(&[t_kv, shape.n_kv_heads(), shape.head_dim()]);
        // Use overlapping position spaces: queries at the tail.
        let kv_pos: Vec<usize> = (0..t_kv).collect();
        let q_pos: Vec<usize> = (t_kv.saturating_sub(t_q)..t_kv).collect();
        let fast = blocked_gqa_attention(&q, &k, &v, p, &q_pos, &kv_pos, block).unwrap();
        let slow = naive_gqa_attention(&q, &k, &v, p, &q_pos, &kv_pos).unwrap();
        assert!(
            fast.out.approx_eq(&slow.out, 1e-4).unwrap(),
            "out mismatch: {}",
            fast.out.max_abs_diff(&slow.out).unwrap()
        );
        assert!(fast.lse.approx_eq(&slow.lse, 1e-4).unwrap());
    }

    #[test]
    fn matches_naive_various_block_sizes() {
        let p = params(4, 2, 8);
        for block in [1, 2, 3, 7, 16, 64] {
            compare_with_naive(6, 13, &p, block, 42);
        }
    }

    #[test]
    fn matches_naive_block_larger_than_kv() {
        let p = params(2, 1, 4);
        compare_with_naive(3, 5, &p, 100, 7);
    }

    #[test]
    fn matches_naive_mqa() {
        let p = params(8, 1, 4);
        compare_with_naive(4, 9, &p, 3, 1);
    }

    #[test]
    fn handles_pad_slots() {
        let p = params(1, 1, 2);
        let mut rng = DetRng::new(2);
        let q = rng.tensor(&[2, 1, 2]);
        let k = rng.tensor(&[4, 1, 2]);
        let v = rng.tensor(&[4, 1, 2]);
        let kv_pos = [0, PAD, 1, PAD];
        let q_pos = [0, 1];
        let fast = blocked_gqa_attention(&q, &k, &v, &p, &q_pos, &kv_pos, 2).unwrap();
        let slow = naive_gqa_attention(&q, &k, &v, &p, &q_pos, &kv_pos).unwrap();
        assert!(fast.out.approx_eq(&slow.out, 1e-5).unwrap());
        assert!(fast.lse.approx_eq(&slow.lse, 1e-5).unwrap());
    }

    #[test]
    fn fully_masked_query_matches_naive_convention() {
        let p = params(1, 1, 2);
        let mut rng = DetRng::new(3);
        let q = rng.tensor(&[1, 1, 2]);
        let k = rng.tensor(&[2, 1, 2]);
        let v = rng.tensor(&[2, 1, 2]);
        let out = blocked_gqa_attention(&q, &k, &v, &p, &[0], &[5, 6], 1).unwrap();
        assert_eq!(out.lse.as_slice(), &[f32::NEG_INFINITY]);
        assert!(out.out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn rejects_zero_block_size() {
        let p = params(1, 1, 2);
        let q = Tensor::zeros(&[1, 1, 2]);
        let k = Tensor::zeros(&[1, 1, 2]);
        let v = Tensor::zeros(&[1, 1, 2]);
        assert!(blocked_gqa_attention(&q, &k, &v, &p, &[0], &[0], 0).is_err());
    }

    #[test]
    fn threaded_path_is_bit_identical_to_serial() {
        // Pin an explicit thread count larger than one so the tiled path
        // runs even on single-core hosts; every (query, head) pair walks
        // its KV blocks in the same order, so outputs must be bitwise
        // equal, not just approximately.
        let p = params(4, 2, 8);
        let mut rng = DetRng::new(17);
        let (t_q, t_kv) = (23, 37);
        let q = rng.tensor(&[t_q, 4, 8]);
        let k = rng.tensor(&[t_kv, 2, 8]);
        let v = rng.tensor(&[t_kv, 2, 8]);
        let kv_pos: Vec<usize> = (0..t_kv).collect();
        let q_pos: Vec<usize> = (t_kv - t_q..t_kv).collect();
        let serial =
            blocked_gqa_attention_with_threads(&q, &k, &v, &p, &q_pos, &kv_pos, 5, 1).unwrap();
        for threads in [2, 3, 8, 64] {
            let tiled =
                blocked_gqa_attention_with_threads(&q, &k, &v, &p, &q_pos, &kv_pos, 5, threads)
                    .unwrap();
            assert_eq!(tiled.out.as_slice(), serial.out.as_slice(), "t={threads}");
            assert_eq!(tiled.lse.as_slice(), serial.lse.as_slice(), "t={threads}");
        }
    }

    #[test]
    fn threaded_path_handles_pad_and_masked_rows() {
        let p = params(2, 1, 4);
        let mut rng = DetRng::new(18);
        let q = rng.tensor(&[3, 2, 4]);
        let k = rng.tensor(&[4, 1, 4]);
        let v = rng.tensor(&[4, 1, 4]);
        // Row 0 sees nothing (future positions only), row 2 sees all.
        let kv_pos = [2, PAD, 3, 4];
        let q_pos = [0, 3, 9];
        let serial =
            blocked_gqa_attention_with_threads(&q, &k, &v, &p, &q_pos, &kv_pos, 2, 1).unwrap();
        let tiled =
            blocked_gqa_attention_with_threads(&q, &k, &v, &p, &q_pos, &kv_pos, 2, 3).unwrap();
        assert_eq!(tiled.out.as_slice(), serial.out.as_slice());
        assert_eq!(tiled.lse.as_slice(), serial.lse.as_slice());
        assert_eq!(serial.lse.as_slice()[0], f32::NEG_INFINITY);
    }

    #[test]
    fn empty_query_batch_is_ok() {
        let p = params(1, 1, 2);
        let q = Tensor::zeros(&[0, 1, 2]);
        let k = Tensor::zeros(&[2, 1, 2]);
        let v = Tensor::zeros(&[2, 1, 2]);
        let out = blocked_gqa_attention(&q, &k, &v, &p, &[], &[0, 1], 4).unwrap();
        assert_eq!(out.out.dim0(), 0);
    }

    #[test]
    fn quant_source_is_bitwise_equal_to_dequantized_tensors() {
        // The quantized kernel's contract: for the same block size, a
        // QuantPaged source runs the exact f32 sequence of a contiguous
        // source holding the dequantized values, so the outputs are
        // bitwise equal — the only error vs f32 storage is quantization.
        let (t_q, t_kv, nh, nkv, dh, ps) = (4usize, 11usize, 4usize, 2usize, 8usize, 3usize);
        let p = params(nh, nkv, dh);
        let mut rng = DetRng::new(23);
        let q = rng.tensor(&[t_q, nh, dh]);
        let k = rng.tensor(&[t_kv, nkv, dh]);
        let v = rng.tensor(&[t_kv, nkv, dh]);
        let kv_pos: Vec<usize> = (0..t_kv).collect();
        let q_pos: Vec<usize> = (t_kv - t_q..t_kv).collect();

        let quantize = |x: &Tensor| {
            let mut codes: Vec<i8> = Vec::new();
            let mut scales: Vec<f32> = Vec::new();
            for row in x.as_slice().chunks_exact(dh) {
                let max = row.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
                let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
                scales.push(scale);
                codes.extend(
                    row.iter()
                        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
                );
            }
            (codes, scales)
        };
        let (kc, ks) = quantize(&k);
        let (vc, vs) = quantize(&v);
        let page_up = |per_row: usize, flat_len: usize| -> Vec<(usize, usize)> {
            (0..t_kv.div_ceil(ps))
                .map(|pg| {
                    let rows = (t_kv - pg * ps).min(ps);
                    let start = pg * ps * per_row;
                    assert!(start + rows * per_row <= flat_len);
                    (start, start + rows * per_row)
                })
                .collect()
        };
        let rn = nkv * dh;
        let kcp: Vec<&[i8]> = page_up(rn, kc.len())
            .iter()
            .map(|&(a, b)| &kc[a..b])
            .collect();
        let vcp: Vec<&[i8]> = page_up(rn, vc.len())
            .iter()
            .map(|&(a, b)| &vc[a..b])
            .collect();
        let ksp: Vec<&[f32]> = page_up(nkv, ks.len())
            .iter()
            .map(|&(a, b)| &ks[a..b])
            .collect();
        let vsp: Vec<&[f32]> = page_up(nkv, vs.len())
            .iter()
            .map(|&(a, b)| &vs[a..b])
            .collect();
        let src = KvSource::quant_paged(&kcp, &ksp, &vcp, &vsp, ps, nkv, dh, t_kv).unwrap();

        // Dequantized contiguous reference (code * scale, same arithmetic).
        let dequant = |codes: &[i8], scales: &[f32]| {
            let data: Vec<f32> = codes
                .iter()
                .enumerate()
                .map(|(i, &c)| c as f32 * scales[i / dh])
                .collect();
            Tensor::from_vec(data, &[t_kv, nkv, dh]).unwrap()
        };
        let kd = dequant(&kc, &ks);
        let vd = dequant(&vc, &vs);

        let pool = cp_pool::ComputePool::global();
        for block in [ps, 2 * ps, 64] {
            let quant_out =
                blocked_gqa_attention_source(pool, &q, &src, &p, &q_pos, &kv_pos, block).unwrap();
            let deq_out =
                blocked_gqa_attention_on(pool, &q, &kd, &vd, &p, &q_pos, &kv_pos, block).unwrap();
            assert_eq!(
                quant_out.out.as_slice(),
                deq_out.out.as_slice(),
                "block={block}"
            );
            assert_eq!(
                quant_out.lse.as_slice(),
                deq_out.lse.as_slice(),
                "block={block}"
            );
            // And the quantization error vs true f32 stays small.
            let f32_out =
                blocked_gqa_attention_on(pool, &q, &k, &v, &p, &q_pos, &kv_pos, block).unwrap();
            let err = quant_out.out.max_abs_diff(&f32_out.out).unwrap();
            assert!(err > 0.0 && err < 0.02, "block={block}: err {err}");
        }
    }

    /// Scalar oracle: the per-(query, head) online-softmax walk, one K/V
    /// lookup and one `Iterator::sum` dot per (query, head, position). The
    /// grouped kernel must reproduce it bit for bit.
    fn scalar_oracle(
        q: &Tensor,
        kv: &KvSource<'_>,
        p: &AttentionParams,
        q_pos: &[usize],
        kv_pos: &[usize],
        block_size: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let shape = &p.shape;
        let (nh, dh) = (shape.n_heads(), shape.head_dim());
        let mut out = vec![0.0f32; q_pos.len() * nh * dh];
        let mut lse = vec![f32::NEG_INFINITY; q_pos.len() * nh];
        let mut head_buf = vec![0.0f32; dh];
        for (qi, &qp) in q_pos.iter().enumerate() {
            for h in 0..nh {
                let kvh = shape.kv_head_for(h);
                let qvec = &q.row(qi)[h * dh..(h + 1) * dh];
                let acc = &mut out[(qi * nh + h) * dh..(qi * nh + h + 1) * dh];
                let mut m = f32::NEG_INFINITY;
                let mut l = 0.0f32;
                for (block_idx, block_pos) in kv_pos.chunks(block_size).enumerate() {
                    let block_start = block_idx * block_size;
                    let mut block_m = f32::NEG_INFINITY;
                    let mut scores = Vec::new();
                    for (off, &kpos) in block_pos.iter().enumerate() {
                        let s = match kv.k_head(block_start + off, kvh, dh, &mut head_buf) {
                            Some(kvec) if kpos != PAD && kpos <= qp => {
                                let dot: f32 = qvec.iter().zip(kvec).map(|(a, b)| a * b).sum();
                                dot * p.scale
                            }
                            _ => f32::NEG_INFINITY,
                        };
                        block_m = block_m.max(s);
                        scores.push(s);
                    }
                    if block_m == f32::NEG_INFINITY {
                        continue;
                    }
                    let new_m = m.max(block_m);
                    let rescale = if m == f32::NEG_INFINITY {
                        0.0
                    } else {
                        (m - new_m).exp()
                    };
                    l *= rescale;
                    for x in acc.iter_mut() {
                        *x *= rescale;
                    }
                    for (off, &s) in scores.iter().enumerate() {
                        if s == f32::NEG_INFINITY {
                            continue;
                        }
                        let w = (s - new_m).exp();
                        l += w;
                        if let Some(vvec) = kv.v_head(block_start + off, kvh, dh, &mut head_buf) {
                            for (a, &x) in acc.iter_mut().zip(vvec) {
                                *a += w * x;
                            }
                        }
                    }
                    m = new_m;
                }
                if m != f32::NEG_INFINITY {
                    lse[qi * nh + h] = m + l.ln();
                    for x in acc.iter_mut() {
                        *x /= l;
                    }
                }
            }
        }
        (out, lse)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs the kernel on `kv` at every thread count and asserts each
    /// result equals the scalar oracle bit for bit.
    fn assert_kernel_is_oracle(
        q: &Tensor,
        kv: &KvSource<'_>,
        p: &AttentionParams,
        q_pos: &[usize],
        kv_pos: &[usize],
        block: usize,
        what: &str,
    ) {
        let (want_out, want_lse) = scalar_oracle(q, kv, p, q_pos, kv_pos, block);
        let pool = ComputePool::global();
        for threads in [1, 3] {
            let got = blocked_impl(pool, q, kv, p, q_pos, kv_pos, block, threads).unwrap();
            assert_eq!(
                bits(got.out.as_slice()),
                bits(&want_out),
                "{what} t={threads} out"
            );
            assert_eq!(
                bits(got.lse.as_slice()),
                bits(&want_lse),
                "{what} t={threads} lse"
            );
        }
        let got = blocked_gqa_attention_source(pool, q, kv, p, q_pos, kv_pos, block).unwrap();
        assert_eq!(
            bits(got.out.as_slice()),
            bits(&want_out),
            "{what} source out"
        );
        assert_eq!(
            bits(got.lse.as_slice()),
            bits(&want_lse),
            "{what} source lse"
        );
    }

    #[test]
    fn grouped_kernel_is_bitwise_equal_to_scalar_oracle() {
        let (t_q, t_kv, ps) = (7usize, 19usize, 4usize);
        // Group sizes 1, 2, 3, 4 and 8: ragged, full and two-tile groups.
        for (nh, nkv) in [(2, 2), (4, 2), (6, 2), (4, 1), (16, 2)] {
            for dh in [5, 7, 32] {
                let p = params(nh, nkv, dh);
                let mut rng = DetRng::new((nh * 100 + nkv * 10 + dh) as u64);
                let mut q = rng.tensor(&[t_q, nh, dh]);
                // A zero query head scores every key 0: a uniform softmax.
                // A NaN in another scores NaN everywhere: the head never
                // sees a finite block max and stays fully masked.
                q.as_mut_slice()[..dh].fill(0.0);
                q.as_mut_slice()[(nh + 1) * dh] = f32::NAN;
                let k = rng.tensor(&[t_kv, nkv, dh]);
                let v = rng.tensor(&[t_kv, nkv, dh]);
                let row = nkv * dh;
                let k_pages: Vec<&[f32]> = k.as_slice().chunks(ps * row).collect();
                let v_pages: Vec<&[f32]> = v.as_slice().chunks(ps * row).collect();
                let paged = KvSource::paged(&k_pages, &v_pages, ps, row, t_kv).unwrap();
                let codes = |rng: &mut DetRng| -> Vec<i8> {
                    (0..t_kv * row)
                        .map(|_| (rng.next_below(255) as i32 - 127) as i8)
                        .collect()
                };
                let scales = |rng: &mut DetRng| -> Vec<f32> {
                    (0..t_kv * nkv).map(|_| rng.next_f32() / 64.0).collect()
                };
                let (kc, ks, vc, vs) = (
                    codes(&mut rng),
                    scales(&mut rng),
                    codes(&mut rng),
                    scales(&mut rng),
                );
                let kcp: Vec<&[i8]> = kc.chunks(ps * row).collect();
                let vcp: Vec<&[i8]> = vc.chunks(ps * row).collect();
                let ksp: Vec<&[f32]> = ks.chunks(ps * nkv).collect();
                let vsp: Vec<&[f32]> = vs.chunks(ps * nkv).collect();
                let quant =
                    KvSource::quant_paged(&kcp, &ksp, &vcp, &vsp, ps, nkv, dh, t_kv).unwrap();
                let contiguous = KvSource::contiguous(&k, &v);

                // Sorted with PAD slots; unsorted; and a layout that masks
                // query rows 0 and 1 entirely (every key is in their future).
                let mut sorted: Vec<usize> = (0..t_kv).collect();
                sorted[3] = PAD;
                sorted[t_kv - 2] = PAD;
                let mut unsorted: Vec<usize> = (0..t_kv).map(|i| (i * 7) % t_kv).collect();
                unsorted[5] = PAD;
                let future: Vec<usize> = (0..t_kv).map(|i| i + 5).collect();
                let q_pos_tail: Vec<usize> = (t_kv - t_q..t_kv).collect();
                let q_pos_mixed: Vec<usize> = vec![0, 4, 2, 18, 9, 11, 30];
                for (kv_pos, q_pos) in [
                    (&sorted, &q_pos_tail),
                    (&unsorted, &q_pos_mixed),
                    (&future, &q_pos_mixed),
                ] {
                    for block in [1, ps, 2 * ps, t_kv + 5] {
                        for (name, src) in [
                            ("contiguous", &contiguous),
                            ("paged", &paged),
                            ("int8", &quant),
                        ] {
                            let what = format!("nh={nh} nkv={nkv} dh={dh} block={block} {name}");
                            assert_kernel_is_oracle(&q, src, &p, q_pos, kv_pos, block, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn large_score_magnitudes_stay_stable() {
        // Scores around ±60 would overflow exp without the online max trick.
        let p = AttentionParams::with_scale(GqaShape::new(1, 1, 1).unwrap(), 60.0);
        let q = Tensor::from_vec(vec![1.0], &[1, 1, 1]).unwrap();
        let k = Tensor::from_vec(vec![1.0, -1.0, 0.9], &[3, 1, 1]).unwrap();
        let v = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1, 1]).unwrap();
        let pos = [0, 1, 2];
        let fast = blocked_gqa_attention(&q, &k, &v, &p, &[2], &pos, 1).unwrap();
        let slow = naive_gqa_attention(&q, &k, &v, &p, &[2], &pos).unwrap();
        assert!(fast.out.as_slice()[0].is_finite());
        assert!(fast.out.approx_eq(&slow.out, 1e-4).unwrap());
    }
}
