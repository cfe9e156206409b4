//! `serve_update`: reads beside writes. An open-loop stream of MCQ probes
//! about the live KG goes to `serve --watch-kg` while the same sender
//! appends new facts to its WAL through `DurableStore` at a fixed cadence;
//! each round is timed from append + fsync until the wire shows a new
//! active bundle version (or the NR gate's refusal).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use infuserki_core::{McqBank, TrainConfig};
use infuserki_eval::world::{build_vocabulary, generate_store};
use infuserki_ingest::pipeline::probe_from_mcq;
use infuserki_ingest::{
    recover, AppendOutcome, DurableStore, PipelineConfig, RoundOutcome, StoreOptions, TripleDelta,
    UpdatePipeline,
};
use infuserki_kg::TripleStore;
use infuserki_nn::{NoHook, TransformerLm};
use infuserki_obs as obs;
use infuserki_serve::{spawn_scheduler, ServeConfig};
use infuserki_text::Tokenizer;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;

use crate::serving::{account, serve_layers, SERVER_THREADS};
use crate::setup::{self, model_config, world_config, WORLD_SEED, WORLD_TRIPLETS};
use crate::stats;
use crate::wire::{self, Answer, Conn, Server, Spec};
use crate::{Args, Report};

/// Offered read rate, requests per second. An untraced run reads for its
/// seconds, and for at least two windows of `P99_WINDOW` (whose median
/// p99 is `client.latency_p99_ms`).
const READ_RATE: f64 = 120.0;
/// Facts appended per round, and the cadence rounds start at.
const FACTS_PER_ROUND: usize = 2;
const CADENCE: Duration = Duration::from_millis(1_200);
/// World triples held out of the baseline WAL, to be appended live.
const HELD_OUT: usize = 30;
/// A round that shows no outcome within this is lost.
const ROUND_TIMEOUT: Duration = Duration::from_secs(20);

fn pipeline_config(bundle_dir: &Path) -> PipelineConfig {
    PipelineConfig {
        min_batch: FACTS_PER_ROUND,
        max_age_ms: 600_000,
        poll_ms: 20,
        bundle_dir: bundle_dir.display().to_string(),
        name_prefix: "live".to_string(),
        train: TrainConfig {
            epochs_infuser: 4,
            epochs_qa: 12,
            epochs_rc: 2,
            ..TrainConfig::default()
        },
        ..PipelineConfig::default()
    }
}

fn store_options() -> StoreOptions {
    StoreOptions {
        functional: false,
        ..StoreOptions::default()
    }
}

/// The inputs: world, tokenizer, a seeded base model, a WAL holding the
/// baseline world, and the facts to append live (in order).
struct UpdateInputs {
    dir: PathBuf,
    model: PathBuf,
    tokenizer: PathBuf,
    config: PathBuf,
    wal: PathBuf,
    bundles: PathBuf,
    tok: Tokenizer,
    world: TripleStore,
    future: Vec<TripleDelta>,
}

fn delta(store: &TripleStore, i: usize) -> TripleDelta {
    let t = store.triples()[i];
    TripleDelta::add(
        store.entity_name(t.head),
        store.relation_name(t.relation),
        store.entity_name(t.tail),
    )
}

fn write_inputs(dir: &Path, seed: u64) -> Result<UpdateInputs, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cfg = world_config(WORLD_TRIPLETS, WORLD_SEED);
    let world = generate_store(&cfg);
    let tok = build_vocabulary(&world);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e7e);
    let base = TransformerLm::new(model_config(&cfg, tok.vocab_size()), &mut rng);
    let mut order: Vec<usize> = (0..world.len()).collect();
    order.shuffle(&mut rng);
    let (future_idx, baseline_idx) = order.split_at(HELD_OUT);
    let inputs = UpdateInputs {
        model: dir.join("model.json"),
        tokenizer: dir.join("tokenizer.json"),
        config: dir.join("pipeline.json"),
        wal: dir.join("wal"),
        bundles: dir.join("bundles"),
        dir: dir.to_path_buf(),
        future: future_idx.iter().map(|&i| delta(&world, i)).collect(),
        tok,
        world,
    };
    base.save(&inputs.model)
        .map_err(|e| format!("save model: {e}"))?;
    let tok_json = serde_json::to_string(&inputs.tok).map_err(|e| e.to_string())?;
    std::fs::write(&inputs.tokenizer, tok_json).map_err(|e| format!("write tokenizer: {e}"))?;
    let pcfg =
        serde_json::to_string(&pipeline_config(&inputs.bundles)).map_err(|e| e.to_string())?;
    std::fs::write(&inputs.config, pcfg).map_err(|e| format!("write config: {e}"))?;
    write_baseline(&inputs.wal, &inputs.world, baseline_idx)?;
    Ok(inputs)
}

fn write_baseline(wal: &Path, world: &TripleStore, idx: &[usize]) -> Result<(), String> {
    std::fs::create_dir_all(wal).map_err(|e| format!("create wal: {e}"))?;
    let mut ds = DurableStore::open(wal, store_options()).map_err(|e| format!("open wal: {e}"))?;
    for &i in idx {
        ds.append(&delta(world, i))
            .map_err(|e| format!("baseline append: {e}"))?;
    }
    ds.sync().map_err(|e| format!("baseline sync: {e}"))
}

fn serve_args(inputs: &UpdateInputs, trace_out: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "--port".into(),
        "0".into(),
        "--threads".into(),
        SERVER_THREADS.to_string(),
        "--queue".into(),
        "100000".into(),
        "--model".into(),
        inputs.model.display().to_string(),
    ];
    args.push("--watch-kg".into());
    args.push(inputs.wal.display().to_string());
    args.push("--watch-tokenizer".into());
    args.push(inputs.tokenizer.display().to_string());
    args.push("--watch-config".into());
    args.push(inputs.config.display().to_string());
    if let Some(p) = trace_out {
        args.push("--trace-out".into());
        args.push(p.display().to_string());
    }
    args
}

/// One update round as the writer saw it.
#[derive(Debug, Clone)]
struct Round {
    facts: Vec<TripleDelta>,
    append_us: Vec<f64>,
    appended: Instant,
    outcome: Option<(bool, Instant)>,
}

/// What one pass of reads beside writes produced.
struct Pass {
    conn: Conn,
    rounds: Vec<Round>,
    read_p50_ms: f64,
    read_p99_ms: Option<f64>,
    send_lag_max_ms: f64,
    reads: usize,
}

fn num(m: &Value, key: &str) -> f64 {
    m.get_field(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Files the outcome an open round shows in a `metrics` snapshot that
/// arrived at `at`: a new active version (published) or one more refused
/// promotion. `seen` holds the last (version, refusals) pair observed.
fn observe(open: &mut Round, m: &Value, at: Instant, seen: &mut (f64, f64)) -> Result<(), String> {
    let now = (
        num(m, "bundle_active_version"),
        num(m, "bundle_rejected_promotions"),
    );
    if now.0 != seen.0 {
        open.outcome = Some((true, at));
    } else if now.1 != seen.1 {
        open.outcome = Some((false, at));
    }
    *seen = now;
    if open.outcome.is_none() && open.appended.elapsed() > ROUND_TIMEOUT {
        return Err("an update round never showed an outcome".into());
    }
    Ok(())
}

/// Reads at `READ_RATE` for `reads` requests while rounds of facts are
/// appended every `CADENCE` (a round waits for the previous one to show).
fn reads_beside_writes(
    server: &Server,
    inputs: &UpdateInputs,
    reads: usize,
    seed: u64,
) -> Result<Pass, String> {
    let mut conn = Conn::open(&server.addr)?;
    let bank = McqBank::build(&inputs.world, inputs.world.triples(), seed ^ 0xba7c);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e4d);
    let mut next_probe = || {
        let tpl = rng.gen_range(0..infuserki_text::templates::N_QA_TEMPLATES);
        let idx = rng.gen_range(0..inputs.world.len());
        let p = probe_from_mcq(bank.mcq(tpl, idx), &inputs.tok);
        Spec::Mcq {
            prompt: p.prompt,
            options: p.options,
        }
    };
    let mut ds =
        DurableStore::open(&inputs.wal, store_options()).map_err(|e| format!("open wal: {e}"))?;
    let m0 = conn.metrics_now(Duration::from_secs(10))?;
    let mut seen = (
        num(&m0, "bundle_active_version"),
        num(&m0, "bundle_rejected_promotions"),
    );
    let mut facts = inputs.future.iter();
    let mut rounds: Vec<Round> = Vec::new();
    let offsets = wire::jittered_offsets(
        READ_RATE,
        reads,
        &mut ChaCha8Rng::seed_from_u64(seed ^ 0xa771),
    );
    let start = Instant::now() + Duration::from_millis(5);
    let mut next_round_at = start + CADENCE / 2;
    let mut next_metrics = start;
    let mut lags = Vec::new();
    let first = conn.sent.len();
    for offset in offsets {
        let due = start + offset;
        loop {
            let now = Instant::now();
            // A round is open: watch the wire for its outcome.
            if let Some(open) = rounds.last_mut().filter(|r| r.outcome.is_none()) {
                conn.drain();
                if let Some(m) = &conn.last_metrics {
                    observe(open, m, conn.last_metrics_at, &mut seen)?;
                }
            }
            let open = rounds.last().is_some_and(|r| r.outcome.is_none());
            if !open && now >= next_round_at {
                let batch: Vec<TripleDelta> =
                    facts.by_ref().take(FACTS_PER_ROUND).cloned().collect();
                if batch.len() == FACTS_PER_ROUND {
                    let mut append_us = Vec::new();
                    for f in &batch {
                        let t0 = Instant::now();
                        match ds.append(f).map_err(|e| format!("append: {e}"))? {
                            AppendOutcome::Accepted(_) => {}
                            other => return Err(format!("fact not accepted: {other:?}")),
                        }
                        ds.sync().map_err(|e| format!("sync: {e}"))?;
                        append_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    rounds.push(Round {
                        facts: batch,
                        append_us,
                        appended: Instant::now(),
                        outcome: None,
                    });
                }
                next_round_at = Instant::now() + CADENCE;
            }
            if now >= next_metrics {
                conn.send_metrics()?;
                next_metrics = now
                    + if open {
                        Duration::from_millis(20)
                    } else {
                        Duration::from_millis(100)
                    };
            }
            if now >= due {
                break;
            }
            let left = (due - now).min(next_metrics.saturating_duration_since(now));
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        let sent_at = Instant::now();
        conn.send(next_probe(), due)?;
        lags.push(sent_at.duration_since(due).as_secs_f64() * 1e3);
    }
    // Let the last open round land before settling the reads.
    while let Some(open) = rounds.last_mut().filter(|r| r.outcome.is_none()) {
        let m = conn.metrics_now(Duration::from_secs(10))?;
        observe(open, &m, conn.last_metrics_at, &mut seen)?;
        std::thread::sleep(Duration::from_millis(20));
    }
    conn.settle(Duration::from_secs(30));
    let latencies: Vec<f64> = conn.sent[first..].iter().map(|s| s.latency_ms()).collect();
    let p50 = stats::windowed_p50(&latencies).ok_or("too few reads for p50")?;
    Ok(Pass {
        read_p50_ms: p50,
        read_p99_ms: stats::windowed(&latencies, wire::P99_WINDOW, 0.99),
        send_lag_max_ms: lags.iter().cloned().fold(0.0, f64::max),
        reads: latencies.len(),
        rounds,
        conn,
    })
}

/// Checks the pass: every read answered with one finite score per
/// option, every round resolved, and every appended fact durable in the
/// WAL (published or refused, none lost).
fn check_pass(report: &mut Report, pass: &Pass, inputs: &UpdateInputs) -> Result<(), String> {
    for (i, s) in pass.conn.sent.iter().enumerate() {
        match (&s.spec, &s.answer) {
            (Spec::Mcq { options, .. }, Some(Answer::Scores(sc))) => report.check(
                sc.len() == options.len() && sc.iter().all(|v| v.is_finite()),
                || format!("read {}: bad scores {sc:?}", i + 1),
            ),
            (_, a) => report.check(false, || format!("read {} ended {a:?}", i + 1)),
        }
    }
    report.check(!pass.rounds.is_empty(), || "no update round ran".into());
    for (k, r) in pass.rounds.iter().enumerate() {
        report.check(r.outcome.is_some(), || format!("round {} lost", k + 1));
    }
    let live = recover(&inputs.wal)
        .map_err(|e| format!("recover wal: {e}"))?
        .state;
    for r in &pass.rounds {
        for f in &r.facts {
            let found = live.resolve(f).is_some_and(|t| live.is_live(&t));
            report.check(found, || {
                format!("appended fact {f:?} missing from the WAL")
            });
        }
    }
    Ok(())
}

fn published(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .filter_map(|r| match r.outcome {
            Some((true, at)) => Some(at.duration_since(r.appended).as_secs_f64() * 1e3),
            _ => None,
        })
        .collect()
}

fn describe(report: &mut Report, label: &str, pass: &Pass) {
    let refused = pass
        .rounds
        .iter()
        .filter(|r| matches!(r.outcome, Some((false, _))))
        .count();
    let visible = published(&pass.rounds);
    report.line(format!(
        "{label}: {} reads at {READ_RATE}/s, p50 {:.2} ms, p99 {}, send lag max {:.2} ms; {} rounds of {FACTS_PER_ROUND} facts: {} published ({}), {refused} refused",
        pass.reads,
        pass.read_p50_ms,
        pass.read_p99_ms.map_or("n/a".to_string(), |p| format!("{p:.2} ms")),
        pass.send_lag_max_ms,
        pass.rounds.len(),
        visible.len(),
        visible.iter().map(|v| format!("{v:.0} ms")).collect::<Vec<_>>().join(", "),
    ));
}

pub fn run(args: &Args) -> Result<Report, String> {
    let started = Instant::now();
    let work = args.work_dir.join("update");
    if args.trace {
        return run_traced(args, &work);
    }
    let mut report = Report::default();
    let (setup_s, server, inputs) = setup::timed_setups(
        setup::SETUP_ROUNDS,
        |round| {
            let inputs = write_inputs(&work.join(format!("setup{round}")), args.seed)?;
            let a = serve_args(&inputs, None);
            Ok((inputs, a))
        },
        &args.serve_bin,
    )?;
    report.metric("setup_s", setup_s, "s");
    let reads = ((READ_RATE * args.seconds) as usize).max(2 * wire::P99_WINDOW);
    let pass = reads_beside_writes(&server, &inputs, reads, args.seed)?;
    describe(&mut report, "reads beside writes", &pass);
    report.metric("latency_p50_ms", pass.read_p50_ms, "ms");
    // Reads that wait behind a round's training and publish make the p99,
    // and the time to publish varies with the rounds; the run-to-run
    // spread of both exceeds any allowed bound, so they are traced-run
    // figures (`client.latency_p99_ms`, `ingest.update_visible_ms`), not
    // gated ones.
    let visible = published(&pass.rounds);
    if !visible.is_empty() {
        report.line(format!(
            "update visible: median {:.1} ms over {} published rounds",
            stats::median(&visible),
            visible.len()
        ));
    }
    report.check(!visible.is_empty(), || "no round was published".into());
    report.metric("peak_rss_mb", server.peak_rss_mb()?, "MB");
    check_pass(&mut report, &pass, &inputs)?;
    account(&mut report, &pass.conn);
    // A refused round is the NR gate doing its job: the round completed
    // with a verdict. It is reported as a count, not as a failure; a round
    // with no verdict fails the run's checks instead.
    report.attempted += pass.rounds.len() as u64;
    report.line(format!(
        "rounds: {} attempted, {} published, {} refused",
        pass.rounds.len(),
        visible.len(),
        pass.rounds.len() - visible.len()
    ));
    drop(pass);
    server.shutdown(Duration::from_secs(30))?;
    let _ = std::fs::remove_dir_all(&inputs.dir);
    report.line(format!("run took {:.1} s", started.elapsed().as_secs_f64()));
    Ok(report)
}

/// The traced run: the same pass untraced and traced (the difference in
/// read p50 is the tracing overhead), per-layer serving metrics from the
/// traced server, then the traced pass's rounds replayed in-process
/// through an `UpdatePipeline` whose `ingest.*` registry this process owns.
fn run_traced(args: &Args, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let reads = ((READ_RATE * args.seconds / 2.0) as usize).max(wire::P99_WINDOW);
    let trace_path = work.join("trace.json");
    let mut p50s = Vec::new();
    let mut traced_pass = None;
    let mut visible = Vec::new();
    for traced in [false, true] {
        let inputs = write_inputs(&work.join("setup"), args.seed)?;
        let trace_out = traced.then_some(trace_path.as_path());
        let server = Server::spawn(&args.serve_bin, &serve_args(&inputs, trace_out))?;
        let mut pass = reads_beside_writes(&server, &inputs, reads, args.seed)?;
        describe(
            &mut report,
            if traced { "traced  " } else { "untraced" },
            &pass,
        );
        p50s.push(pass.read_p50_ms);
        if !traced {
            let p99 = pass.read_p99_ms.ok_or("too few reads for p99")?;
            report.metric("client.latency_p99_ms", p99, "ms");
        }
        check_pass(&mut report, &pass, &inputs)?;
        account(&mut report, &pass.conn);
        visible.extend(published(&pass.rounds));
        if traced {
            let m = pass.conn.metrics_now(Duration::from_secs(10))?;
            traced_pass = Some((m, pass.conn.rtt_ms.clone(), pass.rounds.clone()));
        }
        drop(pass);
        server.shutdown(Duration::from_secs(30))?;
    }
    let (m, rtt, rounds) = traced_pass.expect("traced pass ran");
    report.line(format!(
        "tracing overhead: read p50 untraced {:.3} ms, traced {:.3} ms ({:+.1}%)",
        p50s[0],
        p50s[1],
        (p50s[1] / p50s[0] - 1.0) * 100.0
    ));
    report.metric("trace.overhead_share", p50s[1] / p50s[0] - 1.0, "ratio");
    // Published rounds of both passes: tracing barely touches a round's
    // training, and one pass alone may publish none.
    if !visible.is_empty() {
        report.metric("ingest.update_visible_ms", stats::median(&visible), "ms");
    }
    let json = std::fs::read_to_string(&trace_path).map_err(|e| format!("read trace: {e}"))?;
    serve_layers(&mut report, &m, &stats::parse_trace(&json)?, &rtt);
    let append: Vec<f64> = rounds.iter().flat_map(|r| r.append_us.clone()).collect();
    report.metric("ingest.append_us.p50", stats::median(&append), "us");
    replay(&mut report, &work.join("replay"), args.seed, &rounds)?;
    Ok(report)
}

/// Replays the traced pass's rounds in-process: same inputs, same facts,
/// one `run_once` loop per round, publishing into an in-process scheduler.
fn replay(report: &mut Report, dir: &Path, seed: u64, rounds: &[Round]) -> Result<(), String> {
    let inputs = write_inputs(dir, seed)?;
    let base = TransformerLm::load(&inputs.model).map_err(|e| format!("load model: {e}"))?;
    let (client, sched) = spawn_scheduler(base.clone(), NoHook, ServeConfig::default())?;
    let registry = obs::Registry::new();
    let mut pipeline = UpdatePipeline::new(
        base,
        inputs.tok.clone(),
        &inputs.wal,
        pipeline_config(&inputs.bundles),
        client,
        &registry,
    )
    .map_err(|e| format!("open pipeline: {e}"))?;
    let mut ds =
        DurableStore::open(&inputs.wal, store_options()).map_err(|e| format!("open wal: {e}"))?;
    let (mut published, mut refused) = (0u32, 0u32);
    for r in rounds {
        for f in &r.facts {
            ds.append(f).map_err(|e| format!("append: {e}"))?;
        }
        ds.sync().map_err(|e| format!("sync: {e}"))?;
        let deadline = Instant::now() + ROUND_TIMEOUT;
        loop {
            match pipeline.run_once().map_err(|e| format!("round: {e}"))? {
                RoundOutcome::Published { .. } => {
                    published += 1;
                    break;
                }
                RoundOutcome::Refused { .. } => {
                    refused += 1;
                    break;
                }
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                other => return Err(format!("replayed round stuck at {other:?}")),
            }
        }
    }
    drop(pipeline);
    sched.shutdown();
    let mean_ms = |name: &str| {
        let s = registry.histogram(name).summary();
        s.sum / s.count.max(1) as f64
    };
    report.metric("ingest.apply_ms", mean_ms("ingest.apply_ms"), "ms");
    report.metric("ingest.integrate_ms", mean_ms("ingest.integrate_ms"), "ms");
    report.metric("ingest.package_ms", mean_ms("ingest.package_ms"), "ms");
    report.metric("ingest.publish_ms", mean_ms("ingest.publish_ms"), "ms");
    report.metric("ingest.published", f64::from(published), "count");
    report.metric("ingest.refused", f64::from(refused), "count");
    report.line(format!(
        "in-process replay of {} rounds: {published} published, {refused} refused; per round apply {:.2} + integrate {:.1} + package {:.1} + publish {:.1} ms",
        rounds.len(),
        mean_ms("ingest.apply_ms"),
        mean_ms("ingest.integrate_ms"),
        mean_ms("ingest.package_ms"),
        mean_ms("ingest.publish_ms"),
    ));
    let _ = std::fs::remove_dir_all(&inputs.dir);
    Ok(())
}
