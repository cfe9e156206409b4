//! `serve_unique` and `serve_shared`: the real `serve` binary driven over
//! its JSONL wire by an open-loop generator at a fixed reference rate. The
//! traced run also sweeps rising rates until the p99 limit breaks.

use std::path::Path;
use std::time::{Duration, Instant};

use infuserki_core::KnowledgeBundle;
use infuserki_nn::{sampler, TransformerLm};
use infuserki_tensor::kernels;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;

use crate::setup::{self, ServeFiles};
use crate::stats::{self, Span};
use crate::wire::{self, Answer, Conn, Server, Spec, StepReport};
use crate::{parts, Args, Report};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Traffic {
    /// Unique random prompts of varied length; one scheduler, no router.
    Unique,
    /// A handful of long shared preambles plus a short unique question,
    /// through the router with two replicas.
    Shared,
}

/// Tokens a generate request asks for, drawn per request (no `eos`, so
/// the work is fixed by the seed whatever the weights).
const GEN_MAX_NEW: std::ops::RangeInclusive<usize> = 8..=24;
/// Options per MCQ request.
const MCQ_OPTIONS: usize = 4;
/// Shared preambles and their length (three 16-row KV blocks). Affinity
/// routing sends each preamble to one replica, so the split of preambles
/// between the two replicas sets their load. The preambles are a fixed
/// corpus, the same for every seed (the seed draws the questions), so the
/// split, and the load it sets, does not change from seed to seed.
const PREAMBLES: usize = 64;
const PREAMBLE_LEN: usize = 48;
const PREAMBLE_SEED: u64 = 0x7a1f;
/// Lowest token id drawn: ids below are the tokenizer's specials.
const FIRST_TOKEN: usize = 4;

/// Kernel threads of the server: one core computes, the other is left to
/// the generator (its sender and reader) and the server's wire threads.
pub const SERVER_THREADS: usize = 1;

/// The p99 limit goodput is judged against, ms.
pub const LIMIT_MS: f64 = 100.0;
/// Fewest requests in a step, so its p99 has ten samples beyond it.
pub const MIN_STEP_REQUESTS: usize = 1_100;
/// Interval of the `metrics` op used to sample the server's queue depth.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// The open-loop schedule of one serving workload: a fixed reference
/// rate below saturation, then (traced run) a geometric sweep upward from
/// `sweep_from` in steps of `SWEEP_RATIO` until a step misses the p99
/// limit.
struct Plan {
    reference_rate: f64,
    /// Requests in the reference step: whole windows of `P99_WINDOW`
    /// (whose median p99 is `client.latency_p99_ms`) filling the run's
    /// seconds.
    reference_requests: usize,
    sweep_from: f64,
}

/// Rate ratio between sweep steps (the goodput resolution).
const SWEEP_RATIO: f64 = 1.06;
/// Most steps one sweep runs.
const SWEEP_STEPS: usize = 10;
/// Longest a sweep may take.
const SWEEP_BUDGET: Duration = Duration::from_secs(30);

/// Reference rates sit at 40% or less of the knee, where a few seconds of
/// CPU stolen by a neighbour on a shared machine do not tip the queue over.
fn plan(traffic: Traffic, seconds: f64) -> Plan {
    let (reference_rate, sweep_from) = match traffic {
        Traffic::Unique => (100.0, 250.0),
        Traffic::Shared => (200.0, 500.0),
    };
    let windows = (reference_rate * seconds / wire::P99_WINDOW as f64).round() as usize;
    Plan {
        reference_rate,
        reference_requests: windows.max(2) * wire::P99_WINDOW,
        sweep_from,
    }
}

/// Seeded request mix: two thirds greedy generates, one third 4-option
/// MCQs. Generate lengths vary so that latency has no gap between request
/// kinds for a percentile to sit on.
pub struct Mix {
    rng: ChaCha8Rng,
    vocab: usize,
    preambles: Vec<Vec<usize>>,
}

impl Mix {
    pub fn new(traffic: Traffic, vocab: usize, seed: u64) -> Self {
        let preambles = match traffic {
            Traffic::Unique => Vec::new(),
            Traffic::Shared => {
                let mut corpus = ChaCha8Rng::seed_from_u64(PREAMBLE_SEED);
                (0..PREAMBLES)
                    .map(|_| {
                        (0..PREAMBLE_LEN)
                            .map(|_| corpus.gen_range(FIRST_TOKEN..vocab))
                            .collect()
                    })
                    .collect()
            }
        };
        let rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7a1f);
        Mix {
            rng,
            vocab,
            preambles,
        }
    }

    fn tokens(&mut self, n: usize) -> Vec<usize> {
        (0..n)
            .map(|_| self.rng.gen_range(FIRST_TOKEN..self.vocab))
            .collect()
    }

    pub fn next_spec(&mut self) -> Spec {
        let prompt = if self.preambles.is_empty() {
            let len = self.rng.gen_range(8..=40);
            self.tokens(len)
        } else {
            let k = self.rng.gen_range(0..self.preambles.len());
            let mut p = self.preambles[k].clone();
            let len = self.rng.gen_range(4..=8);
            p.extend(self.tokens(len));
            p
        };
        if self.rng.gen_range(0..3) < 2 {
            let max_new = self.rng.gen_range(GEN_MAX_NEW);
            Spec::Generate { prompt, max_new }
        } else {
            let options = (0..MCQ_OPTIONS)
                .map(|_| {
                    let len = self.rng.gen_range(1..=3);
                    self.tokens(len)
                })
                .collect();
            Spec::Mcq { prompt, options }
        }
    }
}

fn serve_args(files: &ServeFiles, traffic: Traffic, trace_out: Option<&Path>) -> Vec<String> {
    let mut args = vec![
        "--port".into(),
        "0".into(),
        "--threads".into(),
        SERVER_THREADS.to_string(),
        "--queue".into(),
        "100000".into(),
        "--model".into(),
        files.model.display().to_string(),
        "--bundle".into(),
        files.bundle.display().to_string(),
    ];
    if traffic == Traffic::Shared {
        args.extend(["--replicas".into(), "2".into()]);
        // No tenant shaping: one anonymous tenant must not be throttled.
        args.extend(["--tenant-queue".into(), "100000".into()]);
    }
    if let Some(p) = trace_out {
        args.extend(["--trace-out".into(), p.display().to_string()]);
    }
    args
}

/// Arrival jitter, seeded apart from the request contents.
fn arrivals(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ 0xa771)
}

fn warm_up(
    conn: &mut Conn,
    mix: &mut Mix,
    arrivals: &mut ChaCha8Rng,
    rate: f64,
) -> Result<StepReport, String> {
    wire::run_step(
        conn,
        rate,
        (rate * 0.5) as usize,
        SAMPLE_EVERY,
        Duration::from_secs(10),
        arrivals,
        &mut || mix.next_spec(),
    )
}

/// Requests in a sweep step: enough for a p99, and at least two seconds
/// of traffic.
fn sweep_step_len(rate: f64) -> usize {
    MIN_STEP_REQUESTS.max((rate * 2.0) as usize)
}

fn drain_for(rate: f64) -> Duration {
    Duration::from_secs_f64(10.0 + 2000.0 / rate)
}

pub fn run(args: &Args, traffic: Traffic) -> Result<Report, String> {
    let started = Instant::now();
    let mut report = Report::default();
    let work = args.work_dir.join("serve");
    let plan = plan(traffic, args.seconds);
    if args.trace {
        return run_traced(args, traffic, &work, &plan);
    }
    let (setup_s, server, files) = setup::timed_setups(
        setup::SETUP_ROUNDS,
        |round| {
            let files = setup::write_serve_files(&work.join(format!("setup{round}")), args.seed)?;
            let a = serve_args(&files, traffic, None);
            Ok((files, a))
        },
        &args.serve_bin,
    )?;
    report.metric("setup_s", setup_s, "s");
    let mut mix = Mix::new(traffic, files.vocab, args.seed);
    let mut jitter = arrivals(args.seed);
    let mut conn = Conn::open(&server.addr)?;
    let warm = warm_up(&mut conn, &mut mix, &mut jitter, plan.reference_rate)?;
    report.line(format!("warm-up   {}", warm.describe()));

    let reference = wire::run_step(
        &mut conn,
        plan.reference_rate,
        plan.reference_requests,
        SAMPLE_EVERY,
        drain_for(plan.reference_rate),
        &mut jitter,
        &mut || mix.next_spec(),
    )?;
    report.line(format!("reference {}", reference.describe()));
    let p50 = reference
        .p50_windowed
        .ok_or("reference step too short for p50")?;
    let p99 = reference
        .p99_windowed
        .ok_or("reference step too short for p99")?;
    report.line(format!(
        "reference p50, median of {} equal windows: {p50:.2} ms; p99, median of {}-request windows: {p99:.2} ms",
        stats::P50_WINDOWS,
        wire::P99_WINDOW
    ));
    // The p99 and the goodput sweep are traced-run figures
    // (`client.latency_p99_ms`, `client.goodput_rps`): from run to run on
    // a shared 2-core machine they spread wider than any allowed bound.
    report.metric("latency_p50_ms", p50, "ms");
    report.metric("peak_rss_mb", server.peak_rss_mb()?, "MB");
    check_answers(&mut report, &conn, &files, args.seed)?;
    account(&mut report, &conn);
    drop(conn);
    server.shutdown(Duration::from_secs(30))?;
    report.line(format!("run took {:.1} s", started.elapsed().as_secs_f64()));
    Ok(report)
}

/// The goodput sweep. From `from`, it climbs by `SWEEP_RATIO` while steps
/// pass the limit or, when the first step fails, descends until one
/// passes; either way it stops at the first change of verdict. While
/// climbing, a failing step is run once more before it counts, so one
/// stall of a shared machine does not end the sweep early.
fn sweep(
    report: &mut Report,
    conn: &mut Conn,
    mix: &mut Mix,
    jitter: &mut ChaCha8Rng,
    from: f64,
    deadline: Instant,
) -> Result<Vec<stats::StepVerdict>, String> {
    let mut steps = Vec::new();
    let mut rate = from;
    let mut climbing = None;
    for _ in 0..SWEEP_STEPS {
        let n = sweep_step_len(rate);
        let mut verdict = None;
        let trials: &[&str] = if climbing == Some(false) {
            &["sweep  "]
        } else {
            &["sweep  ", "confirm"]
        };
        for trial in trials {
            if Instant::now() + Duration::from_secs_f64(n as f64 / rate) > deadline {
                report.line(format!(
                    "sweep stopped before {rate:.1}/s: run budget spent"
                ));
                return Ok(steps);
            }
            let step = wire::run_step(
                conn,
                rate,
                n,
                SAMPLE_EVERY,
                drain_for(rate),
                jitter,
                &mut || mix.next_spec(),
            )?;
            report.line(format!("{trial}   {}", step.describe()));
            let v = step.verdict();
            let pass = v.passes(LIMIT_MS);
            verdict = Some(v);
            if pass {
                break;
            }
        }
        let verdict = verdict.expect("a trial ran");
        let pass = verdict.passes(LIMIT_MS);
        steps.push(verdict);
        match climbing {
            Some(up) if up != pass => break,
            _ => climbing = Some(pass),
        }
        rate = if pass {
            rate * SWEEP_RATIO
        } else {
            rate / SWEEP_RATIO
        };
    }
    Ok(steps)
}

/// Attempted and failed over every request the run sent.
pub fn account(report: &mut Report, conn: &Conn) {
    report.attempted += conn.sent.len() as u64;
    report.failed += conn.sent.iter().filter(|s| !s.ok()).count() as u64;
}

/// Checks every answer's shape, then re-runs a seeded sample in-process on
/// the same model and bundle files with the single-sequence sampler: tokens
/// must match exactly, and so must MCQ scores, bit for bit: the server runs
/// its kernels on one thread, and so does this check (the rule of
/// `tests/serve_differential.rs` for serial kernels).
pub fn check_answers(
    report: &mut Report,
    conn: &Conn,
    files: &ServeFiles,
    seed: u64,
) -> Result<(), String> {
    for (i, s) in conn.sent.iter().enumerate() {
        match (&s.spec, &s.answer) {
            (Spec::Generate { max_new, .. }, Some(Answer::Tokens(t))) => {
                report.check(t.len() == *max_new, || {
                    format!(
                        "request {}: {} tokens for max_new {max_new}",
                        i + 1,
                        t.len()
                    )
                })
            }
            (Spec::Mcq { options, .. }, Some(Answer::Scores(sc))) => report.check(
                sc.len() == options.len() && sc.iter().all(|v| v.is_finite()),
                || format!("request {}: bad scores {sc:?}", i + 1),
            ),
            (_, Some(Answer::Failed(raw))) => {
                report.check(false, || format!("request {} failed: {raw}", i + 1))
            }
            (_, None) => report.check(false, || format!("request {} never answered", i + 1)),
            (spec, answer) => report.check(false, || {
                format!("request {}: answer {answer:?} does not fit {spec:?}", i + 1)
            }),
        }
    }
    kernels::set_num_threads(SERVER_THREADS);
    let model = TransformerLm::load(&files.model).map_err(|e| format!("load model: {e}"))?;
    let bundle = KnowledgeBundle::load(&files.bundle)?;
    let hook = &bundle.method;
    let mut ok: Vec<usize> = (0..conn.sent.len())
        .filter(|&i| conn.sent[i].ok())
        .collect();
    ok.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0xc4ec));
    let sample = &ok[..ok.len().min(24)];
    for &i in sample {
        let s = &conn.sent[i];
        match (&s.spec, &s.answer) {
            (Spec::Generate { prompt, max_new }, Some(Answer::Tokens(got))) => {
                let want = sampler::greedy_decode(&model, hook, prompt, *max_new, None);
                report.check(*got == want, || {
                    format!("request {}: served {got:?}, in-process {want:?}", i + 1)
                });
            }
            (Spec::Mcq { prompt, options }, Some(Answer::Scores(got))) => {
                let want = sampler::score_options(&model, hook, prompt, options);
                let same = got
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(want.iter().map(|v| v.to_bits()));
                report.check(same, || {
                    format!("request {}: served {got:?}, in-process {want:?}", i + 1)
                });
            }
            _ => {}
        }
    }
    report.line(format!(
        "checked {} answers; re-ran {} in-process",
        conn.sent.len(),
        sample.len()
    ));
    Ok(())
}

/// Sum of a numeric field over a single scheduler's snapshot or every
/// replica of a router's.
pub fn serve_sum(m: &Value, key: &str) -> f64 {
    match m.get_field("replicas") {
        Some(Value::Array(reps)) => reps
            .iter()
            .filter_map(|r| r.get_field("serve"))
            .filter_map(|s| s.get_field(key).and_then(Value::as_f64))
            .sum(),
        _ => m.get_field(key).and_then(Value::as_f64).unwrap_or(0.0),
    }
}

/// Per-replica values of a numeric field (one entry without a router).
fn serve_each(m: &Value, key: &str) -> Vec<f64> {
    match m.get_field("replicas") {
        Some(Value::Array(reps)) => reps
            .iter()
            .filter_map(|r| r.get_field("serve"))
            .filter_map(|s| s.get_field(key).and_then(Value::as_f64))
            .collect(),
        _ => m
            .get_field(key)
            .and_then(Value::as_f64)
            .into_iter()
            .collect(),
    }
}

/// Largest per-replica value of a field (percentiles are not additive).
fn serve_max(m: &Value, key: &str) -> f64 {
    serve_each(m, key).into_iter().fold(0.0, f64::max)
}

/// Per-layer metrics common to every serving workload: the scheduler's own
/// counters from the `metrics` op, span-derived engine and kernel times,
/// and the wire round trip. Prints each breakdown with its residual.
pub fn serve_layers(report: &mut Report, m: &Value, spans: &[Span], rtt_ms: &[f64]) {
    // Scheduler threads only: other threads (the update pipeline's
    // trainer) run the engine too, outside any scheduler step.
    let window = stats::retained_window(spans);
    let sched: std::collections::BTreeSet<u64> = window
        .iter()
        .filter(|s| s.name == "serve.step")
        .map(|s| s.tid)
        .collect();
    let window: Vec<Span> = window
        .into_iter()
        .filter(|s| sched.contains(&s.tid))
        .collect();
    let totals = stats::self_times(&window);
    let total = |n: &str| totals.get(n).map_or(0.0, |t| t.total_us as f64);
    let self_us = |n: &str| totals.get(n).map_or(0.0, |t| t.self_us as f64);

    report.metric("wire.rtt_ms.p50", stats::median(rtt_ms), "ms");
    let weighted_p50 = |key: &str| {
        let w = serve_each(m, "ttft_samples");
        let v = serve_each(m, key);
        let n: f64 = w.iter().sum();
        if n > 0.0 {
            v.iter().zip(&w).map(|(v, w)| v * w).sum::<f64>() / n
        } else {
            stats::median(&v)
        }
    };
    report.metric("serve.ttft_ms.p50", weighted_p50("ttft_p50_ms"), "ms");
    report.metric("serve.ttft_ms.p99", serve_max(m, "ttft_p99_ms"), "ms");
    report.metric("serve.tbt_ms.p50", weighted_p50("tbt_p50_ms"), "ms");
    report.metric("serve.tbt_ms.p99", serve_max(m, "tbt_p99_ms"), "ms");
    let steps = serve_sum(m, "steps");
    let occupancy = {
        let occ = serve_each(m, "avg_occupancy");
        occ.iter().sum::<f64>() / occ.len().max(1) as f64
    };
    report.metric("serve.occupancy", occupancy, "lanes");
    report.metric("serve.steps", steps, "count");
    report.metric("serve.idle_steps", serve_sum(m, "idle_steps"), "count");
    let prefill = serve_sum(m, "prefill_tokens");
    let decode = serve_sum(m, "decode_tokens");
    report.metric("serve.prefill_tokens", prefill, "count");
    report.metric("serve.decode_tokens", decode, "count");
    let rejected: f64 = ["rejected_queue_full", "rejected_budget", "rejected_invalid"]
        .iter()
        .map(|k| serve_sum(m, k))
        .sum();
    report.metric("serve.rejected", rejected, "count");
    let hits = serve_sum(m, "prefix_hit_tokens");
    report.metric(
        "serve.prefix_hit_token_share",
        hits / (hits + prefill).max(1.0),
        "ratio",
    );
    report.metric("serve.kv_blocks_peak", serve_sum(m, "blocks_peak"), "count");
    report.metric(
        "serve.kv_blocks_evicted",
        serve_sum(m, "blocks_evicted"),
        "count",
    );

    // serve.step minus its engine.* children, per step that ran a forward.
    let step_self = step_self_ms(&window);
    if !step_self.is_empty() {
        report.metric("serve.step_self_ms.p50", stats::median(&step_self), "ms");
    }
    // The trace may keep only its newest spans: scale counters to the
    // share of busy time the retained window covers.
    // The snapshot carries busy time only as decode tokens per busy
    // second; without decode tokens the spans stand in for it.
    let busy_from_counter: f64 = serve_each(m, "decode_tokens")
        .iter()
        .zip(serve_each(m, "decode_tokens_per_sec"))
        .filter(|(_, rate)| *rate > 0.0)
        .map(|(tokens, rate)| tokens / rate * 1e6)
        .sum();
    let advance_us = total("serve.advance_lanes");
    let (busy_us, busy_source) = if busy_from_counter > 0.0 {
        (busy_from_counter, "scheduler counter")
    } else {
        (advance_us, "advance_lanes spans")
    };
    let coverage = if busy_us > 0.0 {
        (advance_us / busy_us).min(1.0)
    } else {
        1.0
    };
    let decode_us = total("engine.decode_step");
    let prefill_us = total("engine.prefill_chunk");
    if decode > 0.0 {
        report.metric(
            "engine.decode_us_per_token",
            decode_us / (decode * coverage),
            "us",
        );
    }
    if prefill > 0.0 {
        report.metric(
            "engine.prefill_us_per_token",
            prefill_us / (prefill * coverage),
            "us",
        );
    }
    let step_us = total("serve.step");
    if step_us > 0.0 {
        report.metric(
            "tensor.kernel_share",
            total("kernels.banded_dispatch") / step_us,
            "ratio",
        );
    }
    let engine_us = decode_us + prefill_us;
    report.line(format!(
        "scheduler breakdown (retained window, {:.0}% of busy time): serve.step {:.1} ms = step self {:.1} + advance_lanes self {:.1} + engine {:.1} (decode {:.1}, prefill {:.1}); residual {:.2} ms",
        coverage * 100.0,
        step_us / 1e3,
        self_us("serve.step") / 1e3,
        self_us("serve.advance_lanes") / 1e3,
        engine_us / 1e3,
        decode_us / 1e3,
        prefill_us / 1e3,
        (step_us - self_us("serve.step") - self_us("serve.advance_lanes") - engine_us) / 1e3,
    ));
    report.line(format!(
        "busy time ({busy_source}) {:.1} ms x coverage = {:.1} ms vs advance_lanes self + engine spans {:.1} ms; residual {:.2} ms",
        busy_us / 1e3,
        busy_us * coverage / 1e3,
        (self_us("serve.advance_lanes") + engine_us) / 1e3,
        (busy_us * coverage - self_us("serve.advance_lanes") - engine_us) / 1e3,
    ));
    if let (Some(disp), Some(aff)) = (
        m.get_field("dispatched").and_then(Value::as_f64),
        m.get_field("affinity_hits").and_then(Value::as_f64),
    ) {
        report.metric("router.affinity_share", aff / disp.max(1.0), "ratio");
        if let Some(Value::Array(reps)) = m.get_field("replicas") {
            let per: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.get_field("dispatched").and_then(Value::as_f64))
                .collect();
            let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
            let max = per.iter().cloned().fold(0.0, f64::max);
            report.metric("router.replica_skew", max / mean.max(1e-9), "ratio");
        }
    }
}

/// Self time of each `serve.step` that ran a forward, excluding the
/// `engine.*` spans inside it, ms.
fn step_self_ms(spans: &[Span]) -> Vec<f64> {
    let mut by_tid: std::collections::BTreeMap<u64, Vec<&Span>> = Default::default();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut out = Vec::new();
    for (_, mut list) in by_tid {
        list.sort_by_key(|s| s.ts);
        let engines: Vec<&&Span> = list
            .iter()
            .filter(|s| s.name.starts_with("engine."))
            .collect();
        let mut j = 0;
        for step in list.iter().filter(|s| s.name == "serve.step") {
            while j < engines.len() && engines[j].ts < step.ts {
                j += 1;
            }
            let mut inner = 0u64;
            let mut k = j;
            while k < engines.len() && engines[k].ts < step.end() {
                inner += engines[k].dur;
                k += 1;
            }
            if inner > 0 {
                out.push(step.dur.saturating_sub(inner) as f64 / 1e3);
            }
        }
    }
    out
}

/// The traced run: an untraced reference step (for the tracing overhead)
/// and the goodput sweep, then the same step on a server with spans on,
/// whose trace and counters give the per-layer metrics; then the
/// transformer parts in-process.
fn run_traced(args: &Args, traffic: Traffic, work: &Path, plan: &Plan) -> Result<Report, String> {
    let mut report = Report::default();
    let files = setup::write_serve_files(&work.join("setup"), args.seed)?;
    let n = plan.reference_requests;
    let mut p50s = Vec::new();
    let mut traced_metrics = None;
    let trace_path = work.join("trace.json");
    for traced in [false, true] {
        let trace_out = traced.then_some(trace_path.as_path());
        let server = Server::spawn(&args.serve_bin, &serve_args(&files, traffic, trace_out))?;
        let mut mix = Mix::new(traffic, files.vocab, args.seed);
        let mut jitter = arrivals(args.seed);
        let mut conn = Conn::open(&server.addr)?;
        warm_up(&mut conn, &mut mix, &mut jitter, plan.reference_rate)?;
        let step = wire::run_step(
            &mut conn,
            plan.reference_rate,
            n,
            SAMPLE_EVERY,
            drain_for(plan.reference_rate),
            &mut jitter,
            &mut || mix.next_spec(),
        )?;
        report.line(format!(
            "{} {}",
            if traced { "traced  " } else { "untraced" },
            step.describe()
        ));
        p50s.push(step.p50_windowed.ok_or("reference step too short for p50")?);
        if !traced {
            let p99 = step
                .p99_windowed
                .ok_or("reference step too short for p99")?;
            report.metric("client.latency_p99_ms", p99, "ms");
            // The reference step anchors the sweep from below, so a run
            // that meets a slow phase of the machine reports a low
            // goodput, not none.
            let mut steps = vec![step.verdict()];
            steps.extend(sweep(
                &mut report,
                &mut conn,
                &mut mix,
                &mut jitter,
                plan.sweep_from,
                Instant::now() + SWEEP_BUDGET,
            )?);
            let goodput = stats::goodput(&steps, LIMIT_MS);
            report.line(format!(
                "goodput {goodput:.1} req/s at p99 <= {LIMIT_MS} ms"
            ));
            report.metric("client.goodput_rps", goodput, "1/s");
        }
        if traced {
            let m = conn.metrics_now(Duration::from_secs(10))?;
            traced_metrics = Some((m, conn.rtt_ms.clone()));
            check_answers(&mut report, &conn, &files, args.seed)?;
        }
        account(&mut report, &conn);
        drop(conn);
        server.shutdown(Duration::from_secs(30))?;
    }
    let (m, rtt) = traced_metrics.expect("traced pass ran");
    let json = std::fs::read_to_string(&trace_path).map_err(|e| format!("read trace: {e}"))?;
    let spans = stats::parse_trace(&json)?;
    report.line(format!(
        "tracing overhead: latency p50 untraced {:.3} ms, traced {:.3} ms ({:+.1}%)",
        p50s[0],
        p50s[1],
        (p50s[1] / p50s[0] - 1.0) * 100.0
    ));
    report.metric("trace.overhead_share", p50s[1] / p50s[0] - 1.0, "ratio");
    serve_layers(&mut report, &m, &spans, &rtt);
    let occupancy = serve_each(&m, "avg_occupancy");
    let rows = (occupancy.iter().sum::<f64>() / occupancy.len().max(1) as f64)
        .round()
        .max(1.0) as usize;
    let decode_us = report.value("engine.decode_us_per_token");
    parts::report_parts(&mut report, &files, rows, decode_us)?;
    Ok(report)
}
