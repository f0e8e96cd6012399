//! The benchmark's model, engine configuration, seeded input generator and
//! the metric sets every workload reports.

use std::collections::BTreeMap;

use cp_attention::GqaShape;
use cp_core::KvPrecision;
use cp_model::{Transformer, TransformerConfig};
use cp_serve::{ServeError, TransformerEngine};
use cp_tensor::Tensor;

use crate::stats::{median, position_medians, Tail, Tally};

/// Weight seed shared by every engine, reference and probe.
pub const MODEL_SEED: u64 = 17;
/// CP degree of every timed run.
pub const CP: usize = 2;
/// Compute-pool width per rank: `CP` ranks x 1 thread = 2 compute threads.
pub const POOL_THREADS: usize = 1;
/// Vocabulary of the generated token streams.
pub const VOCAB: u32 = 1024;

/// The benchmark's model: 8 query heads on 2 KV heads of dim 32 (model
/// dim 256), 4 layers, SwiGLU FFN 768. Large enough that attention and
/// GEMMs, not per-call overhead, dominate long prefills.
pub fn bench_config() -> TransformerConfig {
    TransformerConfig {
        shape: GqaShape::new(8, 2, 32).expect("8 query heads on 2 KV heads of dim 32 is valid"),
        n_layers: 4,
        ffn_dim: 768,
        vocab: VOCAB,
        rope_base: 10_000.0,
        norm_eps: 1e-5,
    }
}

/// The benchmark model with its fixed weights.
pub fn model() -> Transformer {
    Transformer::new(&bench_config(), MODEL_SEED)
}

/// A serving engine over `model` at `cp` ranks, one pool thread per rank.
pub fn engine(
    model: Transformer,
    cp: usize,
    precision: KvPrecision,
) -> Result<TransformerEngine, ServeError> {
    Ok(TransformerEngine::new(model, cp)?
        .with_pool_threads(POOL_THREADS)
        .with_kv_precision(precision))
}

/// splitmix64: the seeded generator behind every workload input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    /// `n` token ids in `0..VOCAB`.
    pub fn tokens(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.below(VOCAB as usize) as u32).collect()
    }

    /// Fisher-Yates shuffle. Workloads draw shapes as seeded permutations
    /// of fixed multisets, so every seed does the same total work.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Largest absolute elementwise difference (`INFINITY` on shape mismatch).
pub fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    if a.shape() != b.shape() {
        return f32::INFINITY;
    }
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Whether two activation lists are bitwise equal.
pub fn bitwise_eq(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// One timed unit's times. Every unit of a run repeats the same work, and
/// each list is in an order the workload fixes, so position `i` is the
/// same request, step, call or tick in every unit.
#[derive(Debug, Clone, Default)]
pub struct Times {
    /// Time to first token, per request.
    pub ttft: Vec<f64>,
    /// Time between tokens, per token after the first.
    pub tbt: Vec<f64>,
    /// The calls (or ticks) that prefilled the prompt tokens.
    pub prefill: Vec<f64>,
    /// The calls (or ticks) that decoded the response tokens.
    pub decode: Vec<f64>,
    /// The whole unit, in parts.
    pub wall: Vec<f64>,
}

impl Times {
    /// Position-wise medians over `units` (see [`position_medians`]).
    fn medians(units: &[Times]) -> Times {
        let field =
            |f: fn(&Times) -> &Vec<f64>| position_medians(&units.iter().map(f).collect::<Vec<_>>());
        Times {
            ttft: field(|t| &t.ttft),
            tbt: field(|t| &t.tbt),
            prefill: field(|t| &t.prefill),
            decode: field(|t| &t.decode),
            wall: field(|t| &t.wall),
        }
    }
}

/// End-to-end measurements of one untraced run, before summarising.
///
/// Each reported time is taken position by position: the median over the
/// units that repeat a request, step or tick. A burst of host contention
/// then moves only the units it hits, not the reported value, while a
/// change in code speed moves every unit and so every position.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Set-up repetitions, seconds.
    pub setup_s: Vec<f64>,
    /// Prompt, response and served (prompt + response) tokens of one unit.
    pub tokens: (usize, usize, usize),
    /// Completed units at CP=2 and at CP=1.
    cp2: Vec<Times>,
    cp1: Vec<Times>,
    /// Failed requests at CP=2, each missing every latency percentile.
    failed_cp2: usize,
    /// Request accounting.
    pub tally: Tally,
}

/// A reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

impl EndToEnd {
    /// Accounts one timed unit of `n` requests at `cp` ranks, `failed` of
    /// which failed (see [`crate::stats::unit_failures`]). Only a unit
    /// without failures records its `times`; each failed CP=2 request
    /// enters every latency distribution as +∞. Returns whether the unit
    /// was recorded.
    pub fn account(&mut self, cp: usize, n: usize, failed: usize, times: Times) -> bool {
        for i in 0..n {
            self.tally.record(i >= failed);
        }
        if failed > 0 {
            if cp != 1 {
                self.failed_cp2 += failed.min(n);
            }
            return false;
        }
        if cp == 1 {
            &mut self.cp1
        } else {
            &mut self.cp2
        }
        .push(times);
        true
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order, plus one
    /// human-readable line per latency distribution.
    pub fn metrics(&self) -> (Vec<Metric>, Vec<String>) {
        let (t2, t1) = (Times::medians(&self.cp2), Times::medians(&self.cp1));
        let missed = vec![f64::INFINITY; self.failed_cp2];
        let ttft = Tail::of(&[t2.ttft.as_slice(), &missed].concat());
        let tbt = Tail::of(&[t2.tbt.as_slice(), &missed].concat());
        let rate = |tokens: usize, parts: &[f64]| match sum(parts) {
            secs if secs > 0.0 => tokens as f64 / secs,
            _ => 0.0,
        };
        let (prompt, response, served) = self.tokens;
        // The same work at both degrees; 0 when either has no completed
        // unit, so a failure never reads as a gain.
        let eff = sum(&t1.wall) / (CP as f64 * sum(&t2.wall));
        let eff = if eff.is_finite() { eff } else { 0.0 };
        let metrics = vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("ttft_p50_s", ttft.p50, "s"),
            ("ttft_p90_s", ttft.p90, "s"),
            ("tbt_p50_s", tbt.p50, "s"),
            ("tbt_p90_s", tbt.p90, "s"),
            ("prefill_tok_s", rate(prompt, &t2.prefill), "tok/s"),
            ("decode_tok_s", rate(response, &t2.decode), "tok/s"),
            ("served_tok_s", rate(served, &t2.wall), "tok/s"),
            ("cp_scaling_eff", eff, "ratio"),
            ("ok_share", self.tally.ok_share(), "ratio"),
        ];
        let notes = vec![
            format!(
                "position-wise medians over {} units at CP={CP} and {} at CP=1",
                self.cp2.len(),
                self.cp1.len()
            ),
            format!("ttft: {}", ttft.describe("s")),
            format!("tbt:  {}", tbt.describe("s")),
            format!("setup: n={}", self.setup_s.len()),
            format!(
                "unit wall: {:.6} s at CP={CP}, {:.6} s at CP=1",
                sum(&t2.wall),
                sum(&t1.wall)
            ),
        ];
        (metrics, notes)
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("sched.tick_s", "s"),
    ("sched.queue_wait_ticks", "ticks"),
    ("sched.decode_batch_mean", "count"),
    ("sched.prefill_tokens_per_tick", "tok"),
    ("sched.evictions", "count"),
    ("sched.prefill_useful_ratio", "ratio"),
    ("engine.prefill_s", "s"),
    ("engine.decode_batch_s", "s"),
    ("engine.passkv_turns", "count"),
    ("engine.passq_turns", "count"),
    ("engine.other_s", "s"),
    ("comm.send_recv.calls", "count"),
    ("comm.send_recv.bytes", "B"),
    ("comm.send_recv.wall_s", "s"),
    ("comm.send_recv.exposed_s", "s"),
    ("comm.all_to_all.calls", "count"),
    ("comm.all_to_all.bytes", "B"),
    ("comm.all_to_all.wall_s", "s"),
    ("comm.all_to_all.exposed_s", "s"),
    ("comm.all_gather.calls", "count"),
    ("comm.all_gather.bytes", "B"),
    ("comm.all_gather.wall_s", "s"),
    ("comm.all_gather.exposed_s", "s"),
    ("comm.rank_busy_share", "ratio"),
    ("comm.rank_imbalance", "ratio"),
    ("fabric.run_s", "s"),
    ("ring.pass_kv_prefill_s", "s"),
    ("ring.pass_q_prefill_s", "s"),
    ("ring.pass_q_decode_s", "s"),
    ("attn.blocked_gflops", "GFLOP/s"),
    ("attn.flash_decode_gbs", "GB/s"),
    ("attn.quant_decode_gbs", "GB/s"),
    ("gemm.prefill_gflops", "GFLOP/s"),
    ("gemm.decode_gflops", "GFLOP/s"),
    ("kv.append_tok_s", "tok/s"),
    ("kv.quant_append_tok_s", "tok/s"),
    ("kv.pages_used", "count"),
    ("kv.pages_reserved", "count"),
    ("model.norm_rope_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Per-layer values keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The per-layer metrics in report order (absent ones as 0).
pub fn per_layer_metrics(layers: &Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Fabric traffic accumulated over a workload's unit of work (a request,
/// a decode step, a whole trace), reported per unit.
#[derive(Debug, Default)]
pub struct CommAgg {
    units: u64,
    /// calls, bytes, wall_ns, overlapped_ns for send_recv, all_to_all,
    /// all_gather.
    per: [[u64; 4]; 3],
    /// Compute-lane nanoseconds per rank, and the summed timeline spans.
    compute_ns: Vec<u64>,
    span_ns: u64,
}

impl CommAgg {
    /// Adds one outcome's traffic report.
    pub fn add(&mut self, t: &cp_comm::TrafficReport) {
        for (slot, c) in self
            .per
            .iter_mut()
            .zip([t.send_recv, t.all_to_all, t.all_gather])
        {
            slot[0] += c.calls;
            slot[1] += c.bytes as u64;
            slot[2] += c.wall_ns;
            slot[3] += c.overlapped_ns;
        }
        let start = t.timeline.iter().map(|e| e.start_ns).min().unwrap_or(0);
        let end = t
            .timeline
            .iter()
            .map(|e| e.start_ns + e.dur_ns)
            .max()
            .unwrap_or(0);
        self.span_ns += end.saturating_sub(start);
        for e in &t.timeline {
            if e.lane == cp_comm::TimelineLane::Compute {
                if self.compute_ns.len() <= e.rank {
                    self.compute_ns.resize(e.rank + 1, 0);
                }
                self.compute_ns[e.rank] += e.dur_ns;
            }
        }
    }

    /// Closes one unit of work.
    pub fn end_unit(&mut self) {
        self.units += 1;
    }

    /// Writes the `comm.*` metrics, per unit of work.
    pub fn fill(&self, layers: &mut Layers) {
        let u = self.units.max(1) as f64;
        let names = [
            [
                "comm.send_recv.calls",
                "comm.send_recv.bytes",
                "comm.send_recv.wall_s",
                "comm.send_recv.exposed_s",
            ],
            [
                "comm.all_to_all.calls",
                "comm.all_to_all.bytes",
                "comm.all_to_all.wall_s",
                "comm.all_to_all.exposed_s",
            ],
            [
                "comm.all_gather.calls",
                "comm.all_gather.bytes",
                "comm.all_gather.wall_s",
                "comm.all_gather.exposed_s",
            ],
        ];
        for (n, [calls, bytes, wall, over]) in names.iter().zip(self.per) {
            layers.insert(n[0], calls as f64 / u);
            layers.insert(n[1], bytes as f64 / u);
            layers.insert(n[2], wall as f64 / 1e9 / u);
            layers.insert(n[3], wall.saturating_sub(over) as f64 / 1e9 / u);
        }
        let total: u64 = self.compute_ns.iter().sum();
        let ranks = self.compute_ns.len().max(1) as f64;
        let busy = total as f64 / (ranks * self.span_ns.max(1) as f64);
        let max = self.compute_ns.iter().copied().max().unwrap_or(0) as f64;
        let imbalance = if total > 0 {
            max / (total as f64 / ranks)
        } else {
            0.0
        };
        layers.insert("comm.rank_busy_share", busy);
        layers.insert("comm.rank_imbalance", imbalance);
    }
}

/// What a workload run hands back to `main` for reporting.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Request accounting.
    pub tally: Tally,
    /// The metrics to report (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans, as JSON.
    pub spans: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::unit_failures;

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.0 == name).map(|m| m.1).unwrap()
    }

    #[test]
    fn a_gate_mismatch_lowers_ok_share_and_misses_the_latencies() {
        let unit = Times {
            ttft: vec![1.0; 4],
            tbt: vec![0.5; 4],
            prefill: vec![1.0; 4],
            decode: vec![0.5; 4],
            wall: vec![2.0],
        };
        let mut e = EndToEnd {
            tokens: (8, 8, 16),
            ..EndToEnd::default()
        };
        // Two clean units of 4 requests each, then two the gate judged
        // with one request rejected.
        for _ in 0..2 {
            let failed = unit_failures(4, true, [true; 4]);
            assert!(e.account(CP, 4, failed, unit.clone()));
        }
        for _ in 0..2 {
            let failed = unit_failures(4, true, [true, true, false, true]);
            assert!(!e.account(CP, 4, failed, unit.clone()));
        }
        assert!(e.account(1, 4, 0, unit.clone()));
        assert_eq!((e.tally.attempted, e.tally.failed), (20, 2));
        let (metrics, _) = e.metrics();
        assert!((value(&metrics, "ok_share") - 0.9).abs() < 1e-12);
        // 4 clean TTFT positions and 2 missed: the p90 (6th of 6) is missed.
        assert_eq!(value(&metrics, "ttft_p50_s"), 1.0);
        assert!(value(&metrics, "ttft_p90_s").is_infinite());
        assert_eq!(value(&metrics, "decode_tok_s"), 4.0);
        assert_eq!(value(&metrics, "cp_scaling_eff"), 0.5);
        // A unit that did not repeat fails every request in it.
        assert!(!e.account(CP, 4, unit_failures(4, false, [true; 4]), unit));
        let (metrics, _) = e.metrics();
        assert!((value(&metrics, "ok_share") - 18.0 / 24.0).abs() < 1e-12);
        assert!(value(&metrics, "tbt_p50_s").is_infinite());
    }
}
