//! `decode_batch`: one client driving fused batched decode. Each round
//! prefills `B` sessions with ragged cached contexts (set-up, counted only
//! in `setup_s`), then times `STEPS` `decode_batch` calls over all of
//! them and frees them. Every third round runs at CP=1 for
//! `cp_scaling_eff`. F32 KV.

use std::time::{Duration, Instant};

use cp_core::KvPrecision;
use cp_kvcache::SeqId;
use cp_perf::RingVariant;
use cp_serve::{ServeError, TransformerEngine};
use cp_tensor::Tensor;

use crate::common::{
    bitwise_eq, engine, model, per_layer_metrics, CommAgg, EndToEnd, Layers, Outcome, Rng, Times,
    CP,
};
use crate::probes::{self, Shapes};
use crate::stats::{median, unit_failures, Tally};
use crate::trace::Recorder;

/// Cached contexts of the batch: a fixed multiset (mean 512) that the
/// seed permutes, so every seed does the same work.
const CONTEXTS: [usize; 8] = [384, 416, 448, 480, 544, 576, 608, 640];
/// Timed decode steps per round.
const STEPS: usize = 256;
/// Leading steps of every session replayed solo by the correctness gate.
const SOLO_STEPS: usize = 64;

struct Inputs {
    prompts: Vec<Vec<u32>>,
    /// `steps[s][b]`: the token session `b` feeds at step `s`.
    steps: Vec<Vec<u32>>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let mut ctx = CONTEXTS;
    rng.shuffle(&mut ctx);
    Inputs {
        prompts: ctx.iter().map(|&c| rng.tokens(c)).collect(),
        steps: (0..STEPS).map(|_| rng.tokens(CONTEXTS.len())).collect(),
    }
}

/// One round's measurements. `outputs[b]` holds session `b`'s activations.
struct Round {
    setup: f64,
    prefill: Vec<f64>,
    steps: Vec<f64>,
    outputs: Vec<Vec<Tensor>>,
    passkv: usize,
    passq: usize,
    pages: (usize, usize),
}

fn seqs(first: u64) -> Vec<SeqId> {
    (0..CONTEXTS.len() as u64)
        .map(|b| SeqId(first + b))
        .collect()
}

/// One round on `engine`; sessions are freed on every path.
fn round(
    engine: &mut TransformerEngine,
    inp: &Inputs,
    first: u64,
    rec: &mut Recorder,
    comm: &mut CommAgg,
) -> Result<Round, ServeError> {
    let ids = seqs(first);
    let root = rec.open("round", first, None);
    let result = (|| -> Result<Round, ServeError> {
        let mut r = Round {
            setup: 0.0,
            prefill: Vec::new(),
            steps: Vec::with_capacity(STEPS),
            outputs: vec![Vec::with_capacity(STEPS); ids.len()],
            passkv: 0,
            passq: 0,
            pages: (0, 0),
        };
        let s0 = Instant::now();
        for (&seq, prompt) in ids.iter().zip(&inp.prompts) {
            engine.create_session(seq)?;
            let t0 = Instant::now();
            let out = engine.prefill_session(seq, prompt)?;
            let t1 = Instant::now();
            rec.record("engine.prefill", first, root, t0, t1);
            r.prefill.push(t1.duration_since(t0).as_secs_f64());
            match out.variant {
                Some(RingVariant::PassKv) => r.passkv += 1,
                Some(RingVariant::PassQ) => r.passq += 1,
                None => {}
            }
        }
        r.setup = s0.elapsed().as_secs_f64();
        for toks in &inp.steps {
            let batch: Vec<(SeqId, u32)> = ids.iter().copied().zip(toks.iter().copied()).collect();
            let t0 = Instant::now();
            let out = engine.decode_batch(&batch)?;
            let t1 = Instant::now();
            rec.record("engine.decode_batch", first, root, t0, t1);
            r.steps.push(t1.duration_since(t0).as_secs_f64());
            if rec.enabled() {
                comm.add(&out.traffic);
                comm.end_unit();
            }
            for (dst, a) in r.outputs.iter_mut().zip(out.activations) {
                dst.push(a);
            }
        }
        let stats = engine.cache_stats();
        r.pages = (
            stats.iter().map(|s| s.allocated_pages).sum(),
            stats.iter().map(|s| s.allocated_pages + s.free_pages).sum(),
        );
        Ok(r)
    })();
    let mut freed = Ok(());
    for seq in ids {
        if engine.has_session(seq) {
            freed = freed.and(engine.free_session(seq));
        }
    }
    rec.close(root);
    let r = result?;
    freed?;
    Ok(r)
}

/// Serves session `b` alone on a fresh, identically configured engine:
/// the bitwise oracle for the batched outputs.
fn solo(inp: &Inputs, b: usize) -> Result<Vec<Tensor>, ServeError> {
    let mut e = engine(model(), CP, KvPrecision::F32)?;
    let seq = SeqId(0);
    e.create_session(seq)?;
    e.prefill_session(seq, &inp.prompts[b])?;
    inp.steps[..SOLO_STEPS]
        .iter()
        .map(|toks| Ok(e.decode_batch(&[(seq, toks[b])])?.activations.remove(0)))
        .collect()
}

fn same(a: &[Vec<Tensor>], b: &[Vec<Tensor>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bitwise_eq(x, y))
}

/// Runs the workload for `seconds`; `trace` selects the traced run.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let inp = inputs(seed);
    let err = |e: ServeError| e.to_string();
    let m = model();
    let mut e2 = engine(m.clone(), CP, KvPrecision::F32).map_err(err)?;
    let mut e1 = engine(m.clone(), 1, KvPrecision::F32).map_err(err)?;
    let b = CONTEXTS.len();
    let mut off = Recorder::new(false);
    let mut comm = CommAgg::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut first = 0u64;
    let mut next_ids = || {
        first += b as u64;
        first
    };

    let mut e2e = EndToEnd::default();
    let mut correct = true;
    // Each CP degree's first round, which later rounds must repeat bitwise.
    let mut gold2: Option<Vec<Vec<Tensor>>> = None;
    let mut gold1: Option<Vec<Vec<Tensor>>> = None;
    let mut notes = vec![format!(
        "decode_batch: B={b}, contexts {CONTEXTS:?} (seeded order), {STEPS} steps/round"
    )];

    if !trace {
        // Every third round, from the second on, runs at CP=1, so both
        // degrees see the same machine and most rounds run at CP=2.
        // Rounds are accounted once the gate has judged the outputs.
        let mut units = Vec::new();
        let mut unit = 0;
        while Instant::now() < deadline || unit < 2 {
            let cp = if unit % 3 == 1 { 1 } else { CP };
            unit += 1;
            let (eng, gold) = if cp == CP {
                (&mut e2, &mut gold2)
            } else {
                (&mut e1, &mut gold1)
            };
            let r = round(eng, &inp, next_ids(), &mut off, &mut comm).ok();
            let repeated = r
                .as_ref()
                .is_some_and(|r| gold.as_ref().is_none_or(|g| same(g, &r.outputs)));
            // An output that differs from the first round's is wrong; an
            // engine error only fails the round.
            correct &= repeated || r.is_none();
            let r = r.map(|mut r| {
                gold.get_or_insert(std::mem::take(&mut r.outputs));
                r
            });
            units.push((cp, r, repeated));
        }
        // The solo replays run at CP=2, so they judge the CP=2 rounds.
        let gate = solo_check(&inp, gold2.as_deref(), &mut notes);
        correct &= gate.iter().all(|&ok| ok);
        let prompt: usize = inp.prompts.iter().map(Vec::len).sum();
        e2e.tokens = (prompt, b * STEPS, prompt + b * STEPS);
        for (cp, r, repeated) in units {
            let request_ok = if cp == CP {
                gate.clone()
            } else {
                vec![true; b]
            };
            let failed = unit_failures(b, repeated, request_ok);
            let Some(r) = r else {
                e2e.account(cp, b, failed, Times::default());
                continue;
            };
            let setup = r.setup;
            let times = Times {
                wall: [setup].iter().chain(&r.steps).copied().collect(),
                ttft: r.prefill.clone(),
                prefill: r.prefill,
                tbt: r.steps.clone(),
                decode: r.steps,
            };
            if e2e.account(cp, b, failed, times) && cp == CP {
                e2e.setup_s.push(setup);
            }
        }
    } else {
        let mut rec = Recorder::new(false);
        let mut tally = Tally::default();
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        let mut repeats = Vec::new();
        let mut last = None;
        while Instant::now() < deadline {
            for on in [true, false] {
                rec.set_enabled(on);
                let Ok(r) = round(&mut e2, &inp, next_ids(), &mut rec, &mut comm) else {
                    repeats.push(false);
                    continue;
                };
                let repeated = gold2.as_ref().is_none_or(|g| same(g, &r.outputs));
                correct &= repeated;
                repeats.push(repeated);
                if on { &mut traced } else { &mut untraced }.extend(&r.steps);
                if on {
                    last = Some((r.passkv, r.passq, r.pages));
                }
                gold2.get_or_insert(r.outputs);
            }
        }
        rec.set_enabled(true);
        let mut layers = Layers::new();
        comm.fill(&mut layers);
        let (passkv, passq, pages) = last.unwrap_or((0, 0, (0, 0)));
        layers.insert("engine.passkv_turns", passkv as f64);
        layers.insert("engine.passq_turns", passq as f64);
        layers.insert("kv.pages_used", pages.0 as f64);
        layers.insert("kv.pages_reserved", pages.1 as f64);
        layers.insert("trace.overhead", median(&traced) / median(&untraced));
        let prefill_s = median(&rec.durations("engine.prefill"));
        let decode_s = median(&rec.durations("engine.decode_batch"));
        layers.insert("engine.prefill_s", prefill_s);
        layers.insert("engine.decode_batch_s", decode_s);
        let shapes = Shapes {
            prefill_t: 512,
            partial_t: 32,
            partial_p: 512,
            decode_b: b,
            decode_ctx: 512 + STEPS / 2,
            int8_wire: false,
        };
        let (_, decode_attr) =
            probes::run(&m, shapes, &mut layers, &mut rec).map_err(|e| e.to_string())?;
        let n_layers = m.config().n_layers as f64;
        layers.insert("engine.other_s", decode_s - n_layers * decode_attr);
        let gate = solo_check(&inp, gold2.as_deref(), &mut notes);
        correct &= gate.iter().all(|&ok| ok);
        for repeated in repeats {
            let failed = unit_failures(b, repeated, gate.iter().copied());
            (0..b).for_each(|i| tally.record(i >= failed));
        }
        return Ok(Outcome {
            correct,
            tally,
            metrics: per_layer_metrics(&layers),
            notes,
            spans: Some(rec.to_json()),
        });
    }

    let (metrics, mut more) = e2e.metrics();
    notes.append(&mut more);
    Ok(Outcome {
        correct,
        tally: e2e.tally,
        metrics,
        notes,
        spans: None,
    })
}

/// The correctness gate, outside the timed loop: each session's batched
/// outputs must equal its solo replay bit for bit. Returns one verdict per
/// session (all rejected when no round completed).
fn solo_check(inp: &Inputs, gold: Option<&[Vec<Tensor>]>, notes: &mut Vec<String>) -> Vec<bool> {
    let Some(gold) = gold else {
        notes.push("no round completed: nothing to check".to_string());
        return vec![false; CONTEXTS.len()];
    };
    let verdicts: Vec<bool> = (0..gold.len())
        .map(|b| {
            solo(inp, b).is_ok_and(|s| gold[b].get(..SOLO_STEPS).is_some_and(|g| bitwise_eq(&s, g)))
        })
        .collect();
    notes.push(format!(
        "batched == solo replay (first {SOLO_STEPS} steps), bitwise: {} of {} sessions",
        verdicts.iter().filter(|&&ok| ok).count(),
        verdicts.len()
    ));
    verdicts
}
