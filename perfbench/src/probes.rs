//! Per-layer probes for the traced run: each one calls a single crate's
//! public entry point at the workload's per-layer shapes, inside a span,
//! and reports a median time or a rate computed from the shape.

use std::time::Instant;

use cp_attention::{blocked_gqa_attention_on, flash_decode_source, AttentionParams, PAD};
use cp_core::ring::{
    decode_slot_layout, ring_pass_kv_prefill_on, ring_pass_kv_prefill_quant_on,
    ring_pass_q_decode_kv, ring_pass_q_prefill_kv_on, run_ring_on, RankKv,
};
use cp_core::schedule::RingLayout;
use cp_core::{CoreError, DecodeSlot, LocalSeq, SeqQ};
use cp_kvcache::{KvCacheConfig, PagedKvCache, QuantKvCache, SeqId};
use cp_model::rope::apply_rope;
use cp_model::{rms_norm_on, Transformer};
use cp_pool::ComputePool;
use cp_sharding::shard_new_tokens;
use cp_tensor::{DetRng, Tensor};

use crate::common::{Layers, CP, POOL_THREADS};
use crate::stats::median;
use crate::trace::Recorder;

/// Page size of the engine's KV caches.
const PAGE: usize = 16;
/// Repetitions per probe (the median is reported).
const REPS: usize = 5;

/// The per-layer shapes a workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// Tokens of a full prefill (pass-KV).
    pub prefill_t: usize,
    /// New tokens of a partial prefill (pass-Q) ...
    pub partial_t: usize,
    /// ... over this many cached tokens.
    pub partial_p: usize,
    /// Sessions per decode step ...
    pub decode_b: usize,
    /// ... each over this many cached tokens.
    pub decode_ctx: usize,
    /// Whether the pass-KV ring carries INT8 KV.
    pub int8_wire: bool,
}

/// MACs per token of one layer's projections: QKV, output and SwiGLU FFN.
pub fn layer_macs_per_token(model: &Transformer) -> f64 {
    let c = model.config();
    let (d, kv, f) = (c.model_dim(), c.kv_dim(), c.ffn_dim);
    (d * d * 2 + d * kv * 2 + d * f * 3) as f64
}

fn time_reps<T>(
    rec: &mut Recorder,
    parent: Option<usize>,
    name: &'static str,
    mut f: impl FnMut() -> Result<T, CoreError>,
) -> Result<f64, CoreError> {
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let t0 = Instant::now();
        std::hint::black_box(f()?);
        let t1 = Instant::now();
        rec.record(name, rep as u64, parent, t0, t1);
        samples.push(t1.duration_since(t0).as_secs_f64());
    }
    Ok(median(&samples))
}

/// One rank's query/KV inputs for a sharded sequence: positions from the
/// engine's load-balanced sharding, values from a fixed generator.
fn rank_qkv(
    params: &AttentionParams,
    positions: &[usize],
    rng: &mut DetRng,
) -> (Tensor, Tensor, Tensor) {
    let (nh, nkv, dh) = (
        params.shape.n_heads(),
        params.shape.n_kv_heads(),
        params.shape.head_dim(),
    );
    let t = positions.len();
    (
        rng.tensor(&[t, nh, dh]),
        rng.tensor(&[t, nkv, dh]),
        rng.tensor(&[t, nkv, dh]),
    )
}

fn cache_cfg(params: &AttentionParams) -> KvCacheConfig {
    KvCacheConfig::new(PAGE, params.shape.n_kv_heads(), params.shape.head_dim())
}

/// Per-rank caches holding `ctx` tokens of each of `seqs` sequences,
/// sharded as the engine shards a full prefill.
fn filled_caches(
    params: &AttentionParams,
    seqs: usize,
    ctx: usize,
    rng: &mut DetRng,
) -> Result<(Vec<PagedKvCache>, Vec<QuantKvCache>), CoreError> {
    let shards = shard_new_tokens(0, ctx, CP)?;
    let mut f32s = Vec::new();
    let mut quants = Vec::new();
    for shard in &shards {
        let mut pos = shard.clone();
        pos.sort_unstable();
        let mut c = PagedKvCache::new(cache_cfg(params));
        let mut q = QuantKvCache::new(cache_cfg(params));
        for s in 0..seqs {
            let (_, k, v) = rank_qkv(params, &pos, rng);
            c.create_sequence(SeqId(s as u64))?;
            c.append(SeqId(s as u64), &k, &v, &pos)?;
            q.create_sequence(SeqId(s as u64))?;
            q.append(SeqId(s as u64), &k, &v, &pos)?;
        }
        f32s.push(c);
        quants.push(q);
    }
    Ok((f32s, quants))
}

/// Runs every probe at `shapes` and fills the probe-backed per-layer
/// metrics. Returns the attributed per-layer seconds of one engine
/// prefill (ring + GEMM + KV append) and one decode step, for
/// `engine.other_s`.
pub fn run(
    model: &Transformer,
    shapes: Shapes,
    layers: &mut Layers,
    rec: &mut Recorder,
) -> Result<(f64, f64), CoreError> {
    let params = *model.attention_params();
    let pool = ComputePool::new(POOL_THREADS);
    let mut rng = DetRng::new(99);
    let (nh, dh) = (params.shape.n_heads(), params.shape.head_dim());
    let root = rec.open("probes", 0, None);

    // fabric: an empty-body ring at CP ranks.
    let fabric = time_reps(rec, root, "fabric.run", || {
        run_ring_on(CP, POOL_THREADS, None, |_comm| Ok(()))
    })?;
    layers.insert("fabric.run_s", fabric);

    // ring pass-KV: one layer of a full prefill of `prefill_t` tokens.
    let t = shapes.prefill_t;
    let mut locals = Vec::new();
    for mut pos in shard_new_tokens(0, t, CP)? {
        pos.sort_unstable();
        let (q, k, v) = rank_qkv(&params, &pos, &mut rng);
        locals.push(LocalSeq {
            q,
            q_pos: pos.clone(),
            k,
            v,
            kv_pos: pos,
        });
    }
    let ring_len = locals.iter().map(|l| l.kv_pos.len()).max().unwrap_or(0);
    for l in &mut locals {
        l.k = l.k.pad_dim0(ring_len, 0.0)?;
        l.v = l.v.pad_dim0(ring_len, 0.0)?;
        l.kv_pos.resize(ring_len, PAD);
    }
    let locals_ref = &locals;
    let pass_kv = time_reps(rec, root, "ring.pass_kv_prefill", || {
        run_ring_on(CP, POOL_THREADS, None, |comm| {
            let local = std::slice::from_ref(&locals_ref[comm.rank()]);
            if shapes.int8_wire {
                ring_pass_kv_prefill_quant_on(comm, &params, local, RingLayout::Flat)
            } else {
                ring_pass_kv_prefill_on(comm, &params, local, RingLayout::Flat)
            }
        })
    })?;
    layers.insert("ring.pass_kv_prefill_s", pass_kv);

    // ring pass-Q: `partial_t` new tokens over `partial_p` cached ones.
    let (pt, pp) = (shapes.partial_t, shapes.partial_p);
    let (mut caches, mut qcaches) = filled_caches(&params, 1, pp, &mut rng)?;
    let mut queries = Vec::new();
    for (r, mut pos) in shard_new_tokens(pp, pt, CP)?.into_iter().enumerate() {
        pos.sort_unstable();
        let (q, k, v) = rank_qkv(&params, &pos, &mut rng);
        caches[r].append(SeqId(0), &k, &v, &pos)?;
        qcaches[r].append(SeqId(0), &k, &v, &pos)?;
        queries.push(SeqQ { q, pos });
    }
    let (caches_ref, qcaches_ref, queries_ref) = (&caches, &qcaches, &queries);
    let pass_q = time_reps(rec, root, "ring.pass_q_prefill", || {
        run_ring_on(CP, POOL_THREADS, None, |comm| {
            let r = comm.rank();
            let kv = if shapes.int8_wire {
                RankKv::QuantView(qcaches_ref[r].view(SeqId(0))?)
            } else {
                RankKv::View(caches_ref[r].view(SeqId(0))?)
            };
            let q = std::slice::from_ref(&queries_ref[r]);
            ring_pass_q_prefill_kv_on(comm, &params, q, &[kv], RingLayout::Flat)
        })
    })?;
    layers.insert("ring.pass_q_prefill_s", pass_q);

    // ring pass-Q decode: `decode_b` sessions of `decode_ctx` tokens.
    let (b, ctx) = (shapes.decode_b, shapes.decode_ctx);
    let (dcaches, dqcaches) = filled_caches(&params, b, ctx, &mut rng)?;
    let owners: Vec<usize> = (0..b).map(|i| i % CP).collect();
    let (per_rank, slots_per_rank) = decode_slot_layout(&owners, CP)?;
    let slots: Vec<Vec<Option<DecodeSlot>>> = per_rank
        .iter()
        .map(|bids| {
            let mut s: Vec<Option<DecodeSlot>> = bids
                .iter()
                .map(|&bid| {
                    Some(DecodeSlot {
                        bid,
                        q: rng.tensor(&[1, nh, dh]),
                        pos: ctx,
                    })
                })
                .collect();
            s.resize(slots_per_rank, None);
            s
        })
        .collect();
    let (dcaches_ref, dqcaches_ref, slots_ref) = (&dcaches, &dqcaches, &slots);
    let decode = time_reps(rec, root, "ring.pass_q_decode", || {
        run_ring_on(CP, POOL_THREADS, None, |comm| {
            let r = comm.rank();
            let kv = (0..b)
                .map(|s| {
                    Ok(if shapes.int8_wire {
                        RankKv::QuantView(dqcaches_ref[r].view(SeqId(s as u64))?)
                    } else {
                        RankKv::View(dcaches_ref[r].view(SeqId(s as u64))?)
                    })
                })
                .collect::<Result<Vec<_>, CoreError>>()?;
            ring_pass_q_decode_kv(comm, &params, &slots_ref[r], &kv)
        })
    })?;
    layers.insert("ring.pass_q_decode_s", decode);

    // attention kernels. Blocked prefill: one rank's queries against the
    // whole causal context; FLOPs = 4 * head_dim * heads * unmasked pairs.
    let shard0 = &locals[0];
    let mut all_pos: Vec<usize> = (0..t).collect();
    all_pos.sort_unstable();
    let (_, k_all, v_all) = rank_qkv(&params, &all_pos, &mut rng);
    let pairs: usize = shard0.q_pos.iter().map(|&p| p + 1).sum();
    let blocked = time_reps(rec, root, "attn.blocked", || {
        Ok(blocked_gqa_attention_on(
            &pool,
            &shard0.q,
            &k_all,
            &v_all,
            &params,
            &shard0.q_pos,
            &all_pos,
            128,
        )?)
    })?;
    layers.insert(
        "attn.blocked_gflops",
        4.0 * (dh * nh * pairs) as f64 / blocked / 1e9,
    );

    // Flash decode over one rank's paged cache: bytes = K and V read once.
    let q1 = rng.tensor(&[1, nh, dh]);
    let view = dcaches[0].view(SeqId(0))?;
    let qview = dqcaches[0].view(SeqId(0))?;
    let rows = view.len();
    let nkv = params.shape.n_kv_heads();
    let flash = time_reps(rec, root, "attn.flash_decode", || {
        Ok(flash_decode_source(
            &q1,
            &view.source(),
            &params,
            &[ctx],
            view.positions(),
            1,
        )?)
    })?;
    layers.insert(
        "attn.flash_decode_gbs",
        (rows * 2 * nkv * dh * 4) as f64 / flash / 1e9,
    );
    let quant = time_reps(rec, root, "attn.quant_decode", || {
        Ok(flash_decode_source(
            &q1,
            &qview.source(),
            &params,
            &[ctx],
            qview.positions(),
            1,
        )?)
    })?;
    // INT8 codes plus one f32 scale per (token, head) for K and V.
    layers.insert(
        "attn.quant_decode_gbs",
        (rows * 2 * nkv * (dh + 4)) as f64 / quant / 1e9,
    );

    // GEMM: the FFN gate projection at prefill (M = T/CP) and decode (M = B).
    let gate = &model.blocks()[0].ffn.gate;
    let (k_in, n_out) = (gate.in_dim(), gate.out_dim());
    let m_prefill = t.div_ceil(CP);
    let x_prefill = rng.tensor(&[m_prefill, k_in]);
    let x_decode = rng.tensor(&[b, k_in]);
    let gp = time_reps(rec, root, "gemm.prefill", || {
        gate.forward_on(&pool, &x_prefill)
    })?;
    let gd = time_reps(rec, root, "gemm.decode", || {
        gate.forward_on(&pool, &x_decode)
    })?;
    let gemm_prefill = 2.0 * (m_prefill * k_in * n_out) as f64 / gp / 1e9;
    let gemm_decode = 2.0 * (b * k_in * n_out) as f64 / gd / 1e9;
    layers.insert("gemm.prefill_gflops", gemm_prefill);
    layers.insert("gemm.decode_gflops", gemm_decode);

    // KV appends of one rank's prefill shard into a fresh sequence.
    let pos0 = &locals[0].q_pos;
    let (_, k0, v0) = rank_qkv(&params, pos0, &mut rng);
    let mut pc = PagedKvCache::new(cache_cfg(&params));
    let append = time_reps(rec, root, "kv.append", || {
        pc.create_sequence(SeqId(1))?;
        pc.append(SeqId(1), &k0, &v0, pos0)?;
        Ok(pc.free_sequence(SeqId(1))?)
    })?;
    let mut qc = QuantKvCache::new(cache_cfg(&params));
    let qappend = time_reps(rec, root, "kv.quant_append", || {
        qc.create_sequence(SeqId(1))?;
        qc.append(SeqId(1), &k0, &v0, pos0)?;
        Ok(qc.free_sequence(SeqId(1))?)
    })?;
    layers.insert("kv.append_tok_s", pos0.len() as f64 / append);
    layers.insert("kv.quant_append_tok_s", pos0.len() as f64 / qappend);

    // model: both RMSNorms and RoPE on Q and K for one rank's prefill shard.
    let cfg = *model.config();
    let x = rng.tensor(&[m_prefill, cfg.model_dim()]);
    let norm_rope = time_reps(rec, root, "model.norm_rope", || {
        let h = rms_norm_on(&pool, &x, cfg.norm_eps)?;
        let h2 = rms_norm_on(&pool, &h, cfg.norm_eps)?;
        let mut q = shard0.q.clone();
        let mut k = locals[0].k.slice_dim0(0..shard0.q_pos.len())?;
        apply_rope(&mut q, &shard0.q_pos, cfg.rope_base)?;
        apply_rope(&mut k, &shard0.q_pos, cfg.rope_base)?;
        Ok((h2, q, k))
    })?;
    layers.insert("model.norm_rope_s", norm_rope);

    rec.close(root);

    // Attribution for engine.other_s, per layer: ring + all projections +
    // the KV append of one rank's share of the call.
    let macs = layer_macs_per_token(model);
    let prefill_attr = pass_kv
        + 2.0 * m_prefill as f64 * macs / (gemm_prefill * 1e9)
        + m_prefill as f64 / (pos0.len() as f64 / append);
    let m_decode = b.div_ceil(CP) as f64;
    let decode_attr = decode
        + 2.0 * m_decode * macs / (gemm_decode * 1e9)
        + m_decode / (pos0.len() as f64 / append);
    Ok((prefill_attr, decode_attr))
}
