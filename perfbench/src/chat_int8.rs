//! `chat_int8`: multi-turn chats arriving open-loop in scheduler ticks,
//! served by `Scheduler::submit` + `tick()` over an engine with
//! `KvPrecision::Int8Total`. Each chat opens with a long prompt (pass-KV
//! with INT8 hops) and follows up with short prompts over its cached
//! context (low miss rate, so pass-Q partial prefill). Prefill is chunked
//! and interleaved with continuous-batch decode. Arrivals are due at fixed
//! ticks whatever the speed, so every run and every commit serves the same
//! batch composition and wall time measures only code speed. At most half
//! the chats are live at once, so later arrivals queue for admission.
//!
//! No KV page cap is set: at CP=2 page exhaustion inside a ring body
//! surfaces as a peer's receive error instead of `OutOfPages`, so the
//! scheduler cannot evict; a memory-pressure workload waits for that fix.
//! Until then `sched.evictions` reads 0 and `sched.prefill_useful_ratio`
//! 1 on this trace.

use std::time::{Duration, Instant};

use cp_core::KvPrecision;
use cp_kvcache::SeqId;
use cp_perf::RingVariant;
use cp_serve::{ReferenceSession, SchedConfig, Scheduler, ServeError};
use cp_tensor::Tensor;
use cp_workload::{trace_token, Conversation, Turn};

use crate::common::{
    bitwise_eq, engine, max_abs_diff, model, per_layer_metrics, CommAgg, EndToEnd, Layers, Outcome,
    Rng, Times, CP, VOCAB,
};
use crate::probes::{self, Shapes};
use crate::stats::{median, unit_failures, Tally, TickClock};
use crate::trace::Recorder;

/// First-turn prompt lengths.
const FIRST_PROMPTS: [usize; 8] = [384, 400, 416, 432, 448, 464, 480, 496];
/// Follow-up prompt lengths, two per chat.
const FOLLOW_UPS: [usize; 16] = [
    24, 24, 24, 24, 28, 28, 28, 28, 32, 32, 32, 32, 36, 36, 36, 36,
];
/// Response lengths, three per chat. Long enough that most time-between-
/// token samples come from decode-only ticks, so the median sits well
/// inside that mode and the p90 inside the prefill-chunk mode.
const RESPONSES: [usize; 24] = [
    32, 32, 32, 32, 32, 32, 32, 32, 40, 40, 40, 40, 40, 40, 40, 40, 48, 48, 48, 48, 48, 48, 48, 48,
];
/// The trace's shape (arrival ticks, which chat gets which lengths) is one
/// fixed draw from this seed; `--seed` picks the token streams. Batch
/// composition is then identical in every run and on every commit.
const SHAPE_SEED: u64 = 0x5EED;
/// Mean inter-arrival gap, in ticks.
const MEAN_GAP_TICKS: f64 = 10.0;
/// Largest |INT8 engine - F32 reference| accepted.
const QUANT_TOL: f32 = 2e-2;
/// Live-session cap of the scheduler: below the number of chats, so
/// admission queues.
const MAX_LIVE: usize = 4;
/// Extra set-up repetitions before the first replay (each replay's own
/// set-up adds one more sample).
const SETUP_REPS: usize = 8;
/// A replay that has not drained after this many ticks counts as failed.
const MAX_TICKS: u64 = 100_000;

fn sched_config() -> SchedConfig {
    SchedConfig {
        prefill_chunk_tokens: 128,
        max_live_sessions: MAX_LIVE,
        time_units_per_tick: 1.0,
        vocab: VOCAB,
    }
}

/// One chat of the trace.
struct Chat {
    request: u64,
    due_tick: f64,
    conversation: Conversation,
}

/// The trace: shapes are a fixed permutation of fixed multisets and the
/// gaps are the exponential distribution's quantiles in a fixed order
/// (Poisson-like arrivals with an exact mean); `seed` picks the request
/// ids, and with them every token the scheduler feeds.
fn chats(seed: u64) -> Vec<Chat> {
    let mut rng = Rng::new(SHAPE_SEED, 3);
    let n = FIRST_PROMPTS.len();
    let (mut first, mut follow, mut resp) = (FIRST_PROMPTS, FOLLOW_UPS, RESPONSES);
    rng.shuffle(&mut first);
    rng.shuffle(&mut follow);
    rng.shuffle(&mut resp);
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -MEAN_GAP_TICKS * (1.0 - (i as f64 + 0.5) / n as f64).ln())
        .collect();
    rng.shuffle(&mut gaps);
    let base = Rng::new(seed, 3).next_u64() >> 16;
    let mut clock = 0.0f64;
    (0..n)
        .map(|i| {
            let turns = vec![
                Turn {
                    prompt_tokens: first[i],
                    response_tokens: resp[3 * i],
                },
                Turn {
                    prompt_tokens: follow[2 * i],
                    response_tokens: resp[3 * i + 1],
                },
                Turn {
                    prompt_tokens: follow[2 * i + 1],
                    response_tokens: resp[3 * i + 2],
                },
            ];
            let chat = Chat {
                request: base + i as u64,
                due_tick: clock.floor(),
                conversation: Conversation { turns },
            };
            clock += gaps[i];
            chat
        })
        .collect()
}

/// Completed chats' outputs, keyed by request.
type Outputs = Vec<(u64, Vec<Tensor>)>;

/// One replay's measurements.
#[derive(Default)]
struct Replay {
    setup: f64,
    wall: f64,
    ttft: Vec<f64>,
    tbt: Vec<f64>,
    prefilled: usize,
    /// Completed chats' outputs, keyed by request.
    outputs: Outputs,
    /// Per tick: wall seconds, admitted, prefill tokens, decoded.
    ticks: Vec<(f64, usize, usize, usize)>,
    evictions: usize,
    peak_pages: (usize, usize),
}

/// Set-up of one replay: the model, an engine at `cp` ranks and a
/// scheduler holding the whole trace.
fn build(trace: &[Chat], cp: usize) -> Result<Scheduler, String> {
    let eng = engine(model(), cp, KvPrecision::Int8Total).map_err(|e| e.to_string())?;
    let mut sched = Scheduler::new(eng, sched_config());
    for c in trace {
        sched.submit(c.request, c.due_tick, c.conversation.clone());
    }
    Ok(sched)
}

/// Serves the whole trace once at `cp` ranks; scheduler errors end the
/// replay and fail every unfinished chat.
fn replay(trace: &[Chat], cp: usize, rec: &mut Recorder, tag: u64) -> Result<Replay, String> {
    let t0 = Instant::now();
    let mut sched = build(trace, cp)?;
    let mut r = Replay {
        setup: t0.elapsed().as_secs_f64(),
        ..Replay::default()
    };
    let mut clock = TickClock::default();
    let (mut seen_ttft, mut seen_tbt) = (0, 0);
    let start = Instant::now();
    let root = rec.open("replay", tag, None);
    let mut error = None;
    while sched.pending() > 0 && clock.ticks() < MAX_TICKS {
        let a = Instant::now();
        let res = sched.tick();
        let b = Instant::now();
        rec.record("sched.tick", tag, root, a, b);
        let wall = b.duration_since(a).as_secs_f64();
        clock.push(wall);
        let report = match res {
            Ok(rep) => rep,
            Err(e) => {
                error = Some(e);
                break;
            }
        };
        r.ticks
            .push((wall, report.admitted, report.prefill_tokens, report.decoded));
        if rec.enabled() {
            let stats = sched.engine().cache_stats();
            let used: usize = stats.iter().map(|s| s.allocated_pages).sum();
            let reserved: usize = stats.iter().map(|s| s.allocated_pages + s.free_pages).sum();
            r.peak_pages = (r.peak_pages.0.max(used), r.peak_pages.1.max(reserved));
        }
        // The new tick-domain samples all belong to this tick.
        let at = clock.ticks() - 1;
        let m = sched.metrics();
        r.ttft
            .extend(m.ttft_ticks[seen_ttft..].iter().map(|&d| clock.ttft(at, d)));
        r.tbt
            .extend(m.tbt_ticks[seen_tbt..].iter().map(|&d| clock.tbt(at, d)));
        (seen_ttft, seen_tbt) = (m.ttft_ticks.len(), m.tbt_ticks.len());
    }
    r.wall = start.elapsed().as_secs_f64();
    rec.close(root);
    let m = sched.metrics();
    r.prefilled = m.prefilled_tokens;
    r.evictions = m.evictions;
    r.outputs = sched.outputs().to_vec();
    if let Some(e) = error {
        eprintln!("chat_int8: scheduler error at CP={cp}: {e}");
    }
    Ok(r)
}

/// A chat's token stream, turn by turn, exactly as the scheduler feeds it.
fn turn_tokens(c: &Chat) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut consumed = 0;
    let mut out = Vec::new();
    for t in &c.conversation.turns {
        let prompt: Vec<u32> = (0..t.prompt_tokens)
            .map(|j| trace_token(c.request, consumed + j, VOCAB))
            .collect();
        consumed += t.prompt_tokens;
        let resp: Vec<u32> = (0..t.response_tokens)
            .map(|j| trace_token(c.request, consumed + j, VOCAB))
            .collect();
        consumed += t.response_tokens;
        out.push((prompt, resp));
    }
    out
}

/// Serves one chat alone on a fresh, identically configured engine:
/// its outputs, the ring variant of each turn and the traffic.
fn solo(c: &Chat, comm: &mut CommAgg) -> Result<(Vec<Tensor>, Vec<RingVariant>), ServeError> {
    let mut e = engine(model(), CP, KvPrecision::Int8Total)?;
    let seq = SeqId(1);
    e.create_session(seq)?;
    let (mut outs, mut variants) = (Vec::new(), Vec::new());
    for (prompt, resp) in turn_tokens(c) {
        let p = e.prefill_session(seq, &prompt)?;
        variants.extend(p.variant);
        comm.add(&p.traffic);
        for tok in resp {
            let mut d = e.decode_batch(&[(seq, tok)])?;
            comm.add(&d.traffic);
            outs.push(d.activations.remove(0));
        }
    }
    comm.end_unit();
    Ok((outs, variants))
}

/// The F32 single-device reference outputs of one chat.
fn reference(c: &Chat) -> Result<Vec<Tensor>, String> {
    let mut s = ReferenceSession::new(model());
    let mut outs = Vec::new();
    for (prompt, resp) in turn_tokens(c) {
        s.process(&prompt).map_err(|e| e.to_string())?;
        for tok in resp {
            outs.push(s.process(&[tok]).map_err(|e| e.to_string())?);
        }
    }
    Ok(outs)
}

fn outputs_of(outputs: &Outputs, request: u64) -> Option<&[Tensor]> {
    outputs
        .iter()
        .find(|(req, _)| *req == request)
        .map(|(_, o)| o.as_slice())
}

fn same_outputs(a: &Outputs, b: &Outputs) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(req, o)| outputs_of(b, *req).is_some_and(|p| bitwise_eq(o, p)))
}

/// Per-chat verdicts of the correctness gate for each CP degree.
struct Verdicts {
    cp2: Vec<bool>,
    cp1: Vec<bool>,
    /// The ring variant of every solo turn.
    variants: Vec<RingVariant>,
}

impl Verdicts {
    /// Whether every chat passed at both CP degrees.
    fn all_ok(&self) -> bool {
        self.cp2.iter().chain(&self.cp1).all(|&ok| ok)
    }

    /// Failed chats of one replay at `cp` ranks whose outputs `repeated`
    /// the first replay's: the ones it did not complete or the gate
    /// rejected.
    fn failures(&self, trace: &[Chat], cp: usize, repeated: bool, done: &[u64]) -> usize {
        let gate = if cp == CP { &self.cp2 } else { &self.cp1 };
        let ok = trace
            .iter()
            .zip(gate)
            .map(|(c, &ok)| ok && done.contains(&c.request));
        unit_failures(trace.len(), repeated, ok)
    }
}

/// The correctness gate, outside the timed loop: per chat, the first CP=2
/// replay equals a solo replay bitwise, and each CP degree's first replay
/// stays within the INT8 tolerance of the F32 reference.
fn gate(
    trace: &[Chat],
    first2: &Outputs,
    first1: Option<&Outputs>,
    comm: &mut CommAgg,
    notes: &mut Vec<String>,
) -> Verdicts {
    let mut v = Verdicts {
        cp2: Vec::new(),
        cp1: Vec::new(),
        variants: Vec::new(),
    };
    let mut worst = 0.0f32;
    for c in trace {
        let want = reference(c).unwrap_or_default();
        let mut within = |outputs: &Outputs| {
            let got = outputs_of(outputs, c.request).unwrap_or(&[]);
            let diff = if got.len() == want.len() && !want.is_empty() {
                got.iter()
                    .zip(&want)
                    .map(|(g, w)| max_abs_diff(g, w))
                    .fold(0.0, f32::max)
            } else {
                f32::INFINITY
            };
            worst = worst.max(diff);
            diff <= QUANT_TOL
        };
        let close2 = within(first2);
        v.cp1.push(first1.is_none_or(&mut within));
        let bitwise = match solo(c, comm) {
            Ok((outs, variants)) => {
                v.variants.extend(variants);
                outputs_of(first2, c.request).is_some_and(|o| bitwise_eq(o, &outs))
            }
            Err(_) => false,
        };
        v.cp2.push(bitwise && close2);
    }
    let count = |ok: &[bool]| ok.iter().filter(|&&ok| ok).count();
    notes.push(format!(
        "chats passing the gate: {} of {} at CP={CP} (batched == solo replay bitwise, and \
         within tolerance), {} of {} at CP=1; max |int8 engine - f32 reference| {worst:.3e} \
         (tol {QUANT_TOL:.0e})",
        count(&v.cp2),
        trace.len(),
        count(&v.cp1),
        trace.len()
    ));
    v
}

/// Runs the workload for `seconds`; `trace` selects the traced run.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let chats = chats(seed);
    let n = chats.len();
    let mut notes = vec![format!(
        "chat_int8: {n} chats x 3 turns, first prompts {FIRST_PROMPTS:?}, \
         mean gap {MEAN_GAP_TICKS} ticks, chunk {} tokens",
        sched_config().prefill_chunk_tokens
    )];
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut off = Recorder::new(false);
    let mut comm = CommAgg::default();

    if !trace {
        let mut e2e = EndToEnd::default();
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            std::hint::black_box(build(&chats, CP)?);
            e2e.setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut correct = true;
        let (mut first2, mut first1): (Option<Outputs>, Option<Outputs>) = (None, None);
        // Replays are accounted once the gate has judged the outputs.
        let mut units = Vec::new();
        let mut tag = 0;
        // Every third replay, from the second on, runs at CP=1 as the
        // scaling baseline; the rest run at CP=2.
        let mut unit = 0;
        while Instant::now() < deadline || unit < 2 {
            let cp = if unit % 3 == 1 { 1 } else { CP };
            unit += 1;
            tag += 1;
            let mut r = replay(&chats, cp, &mut off, tag)?;
            let first = if cp == CP { &mut first2 } else { &mut first1 };
            // A replay whose outputs differ from the first fails every chat.
            let repeated = first.as_ref().is_none_or(|f| same_outputs(f, &r.outputs));
            correct &= repeated;
            let done: Vec<u64> = r.outputs.iter().map(|(req, _)| *req).collect();
            first.get_or_insert(std::mem::take(&mut r.outputs));
            units.push((cp, r, repeated, done));
        }
        let first2 = first2.ok_or("no replay ran")?;
        let verdicts = gate(&chats, &first2, first1.as_ref(), &mut comm, &mut notes);
        correct &= verdicts.all_ok();
        let turns = chats.iter().flat_map(|c| c.conversation.turns.iter());
        let prompt: usize = turns.clone().map(|t| t.prompt_tokens).sum();
        let response: usize = turns.map(|t| t.response_tokens).sum();
        e2e.tokens = (prompt, response, prompt + response);
        for (cp, r, repeated, done) in units {
            let failed = verdicts.failures(&chats, cp, repeated, &done);
            let ticks: Vec<f64> = r.ticks.iter().map(|t| t.0).collect();
            let times = Times {
                ttft: r.ttft,
                tbt: r.tbt,
                prefill: ticks.clone(),
                decode: ticks.clone(),
                wall: ticks,
            };
            if e2e.account(cp, n, failed, times) && cp == CP {
                e2e.setup_s.push(r.setup);
            }
        }
        let (metrics, mut more) = e2e.metrics();
        notes.append(&mut more);
        return Ok(Outcome {
            correct,
            tally: e2e.tally,
            metrics,
            notes,
            spans: None,
        });
    }

    // Traced run: CP=2 replays alternate traced / untraced.
    let mut rec = Recorder::new(false);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut first: Option<Outputs> = None;
    let mut last_traced: Option<Replay> = None;
    let mut units = Vec::new();
    let mut correct = true;
    let mut tag = 0;
    while Instant::now() < deadline {
        for on in [true, false] {
            tag += 1;
            rec.set_enabled(on);
            let mut r = replay(&chats, CP, &mut rec, tag)?;
            let repeated = first.as_ref().is_none_or(|f| same_outputs(f, &r.outputs));
            correct &= repeated;
            units.push((
                repeated,
                r.outputs.iter().map(|(req, _)| *req).collect::<Vec<_>>(),
            ));
            if on { &mut traced } else { &mut untraced }.push(r.wall);
            if first.is_none() {
                first = Some(std::mem::take(&mut r.outputs));
            }
            if on {
                last_traced = Some(r);
            }
        }
    }
    rec.set_enabled(true);
    let first = first.ok_or("no replay ran")?;
    let verdicts = gate(&chats, &first, None, &mut comm, &mut notes);
    correct &= verdicts.all_ok();
    let mut tally = Tally::default();
    for (repeated, done) in &units {
        let failed = verdicts.failures(&chats, CP, *repeated, done);
        (0..n).for_each(|i| tally.record(i >= failed));
    }
    let variants = verdicts.variants;
    let r = last_traced.as_ref().ok_or("no traced replay ran")?;

    let mut layers = Layers::new();
    comm.fill(&mut layers);
    let count = |want: RingVariant| variants.iter().filter(|&&v| v == want).count() as f64;
    layers.insert("engine.passkv_turns", count(RingVariant::PassKv));
    layers.insert("engine.passq_turns", count(RingVariant::PassQ));
    let tick_walls: Vec<f64> = r.ticks.iter().map(|t| t.0).collect();
    layers.insert("sched.tick_s", median(&tick_walls));
    let prefill_only: Vec<f64> = r
        .ticks
        .iter()
        .filter(|t| t.2 > 0 && t.3 == 0)
        .map(|t| t.0)
        .collect();
    let decode_only: Vec<f64> = r
        .ticks
        .iter()
        .filter(|t| t.2 == 0 && t.3 > 0)
        .map(|t| t.0)
        .collect();
    layers.insert("engine.prefill_s", median(&prefill_only));
    let decode_s = median(&decode_only);
    layers.insert("engine.decode_batch_s", decode_s);
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let batch_mean = mean(
        r.ticks
            .iter()
            .filter(|t| t.3 > 0)
            .map(|t| t.3 as f64)
            .collect(),
    );
    layers.insert("sched.decode_batch_mean", batch_mean);
    layers.insert(
        "sched.prefill_tokens_per_tick",
        mean(
            r.ticks
                .iter()
                .filter(|t| t.2 > 0)
                .map(|t| t.2 as f64)
                .collect(),
        ),
    );
    layers.insert("sched.evictions", r.evictions as f64);
    let unique: usize = chats
        .iter()
        .flat_map(|c| c.conversation.turns.iter())
        .map(|t| t.prompt_tokens)
        .sum();
    layers.insert(
        "sched.prefill_useful_ratio",
        unique as f64 / r.prefilled.max(1) as f64,
    );
    // Admission is FIFO in due order: the k-th admitted chat is the k-th due.
    let mut waits = Vec::new();
    let mut due = chats.iter().map(|c| c.due_tick as u64);
    for (tick, t) in r.ticks.iter().enumerate() {
        for d in due.by_ref().take(t.1) {
            waits.push((tick as u64).saturating_sub(d) as f64);
        }
    }
    layers.insert("sched.queue_wait_ticks", mean(waits));
    layers.insert("kv.pages_used", r.peak_pages.0 as f64);
    layers.insert("kv.pages_reserved", r.peak_pages.1 as f64);
    layers.insert("trace.overhead", median(&traced) / median(&untraced));

    let m = model();
    let follow = FOLLOW_UPS.iter().sum::<usize>() / FOLLOW_UPS.len();
    let first_prompt = FIRST_PROMPTS.iter().sum::<usize>() / FIRST_PROMPTS.len();
    let shapes = Shapes {
        prefill_t: first_prompt,
        partial_t: follow,
        partial_p: first_prompt + 16,
        decode_b: (batch_mean.round() as usize).max(1),
        decode_ctx: first_prompt + 32,
        int8_wire: true,
    };
    let (_, decode_attr) =
        probes::run(&m, shapes, &mut layers, &mut rec).map_err(|e| e.to_string())?;
    layers.insert(
        "engine.other_s",
        decode_s - m.config().n_layers as f64 * decode_attr,
    );
    notes.push(format!(
        "replays: {} traced, {} untraced",
        traced.len(),
        untraced.len()
    ));
    Ok(Outcome {
        correct,
        tally,
        metrics: per_layer_metrics(&layers),
        notes,
        spans: Some(rec.to_json()),
    })
}
