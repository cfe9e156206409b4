//! `pipeline`: the paper pipeline in-process on a fixed world — KG
//! generation, base pretraining into a fresh artifacts directory, knowledge
//! detection, three-phase InfuserKI training and NR/RR evaluation.

use std::time::Instant;

use infuserki_core::{
    detect_unknown, train_infuserki, InfuserKiConfig, InfuserKiMethod, KiDataset, McqBank,
    TrainConfig,
};
use infuserki_eval::evaluate_method;
use infuserki_eval::world::{build_vocabulary, build_world_in, generate_store, WorldConfig};
use infuserki_nn::NoHook;
use infuserki_obs as obs;
use infuserki_tensor::kernels;

use crate::setup::world_config;
use crate::stats;
use crate::wire::vm_hwm_mb;
use crate::{Args, Report};

/// The world is fixed, not drawn from `--seed`: NR and RR are then the same
/// on every run, so a speed change cannot quietly trade knowledge away.
const WORLD_SEED: u64 = 7;
const TRIPLETS: usize = 40;
const PRETRAIN_EPOCHS: usize = 6;
const THREADS: usize = 2;

fn config() -> WorldConfig {
    let mut cfg = world_config(TRIPLETS, WORLD_SEED);
    cfg.pretrain_epochs = PRETRAIN_EPOCHS;
    cfg
}

fn train_config() -> TrainConfig {
    TrainConfig::default()
}

/// KG generation, vocabulary and MCQ bank: the world's inputs.
fn world_gen(cfg: &WorldConfig) -> usize {
    let store = generate_store(cfg);
    let tok = build_vocabulary(&store);
    let bank = McqBank::build(&store, store.triples(), cfg.seed ^ 0xba7c);
    std::hint::black_box((tok.vocab_size(), bank.len()));
    store.len()
}

/// Processes the set-up runs in, and world builds timed in each.
const SETUP_PROCESSES: usize = 20;
const SETUP_REPS: usize = 9;

/// Entry point of a set-up child: builds the world's inputs `SETUP_REPS`
/// times and prints the median seconds.
pub fn world_gen_child() -> Result<(), String> {
    let cfg = config();
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            world_gen(&cfg);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    println!("{}", stats::median(&times));
    Ok(())
}

fn world_gen_in_child() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", "world_gen", "--work-dir", "."])
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    if !out.status.success() {
        return Err("set-up child failed".into());
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "set-up child printed no time".to_string())
}

fn counter(name: &str) -> u64 {
    match obs::global().snapshot().get(name) {
        Some(obs::MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

struct Stages {
    world_s: f64,
    detect_s: f64,
    dataset_s: f64,
    train_s: f64,
    eval_s: f64,
    total_s: f64,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    kernels::set_num_threads(THREADS);
    let cfg = config();
    let tc = train_config();

    // Set-up: the world's inputs, built in fresh processes (their speed
    // differs from process to process more than from rep to rep), half
    // before the pipeline and half after it, so that the median over
    // processes spans the run.
    let mut gen_times = Vec::new();
    for _ in 0..SETUP_PROCESSES / 2 {
        gen_times.push(world_gen_in_child()?);
    }
    let n_triplets = world_gen(&cfg);

    let artifacts = args
        .work_dir
        .join(format!("artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&artifacts);
    std::fs::create_dir_all(&artifacts).map_err(|e| format!("create artifacts: {e}"))?;
    let cache_file = artifacts.join(format!("base_{}.json", cfg.cache_key()));
    report.check(!cache_file.exists(), || {
        "base cache existed before the run".into()
    });

    if args.trace {
        obs::clear_trace();
        obs::set_enabled(true);
    }
    let busy0 = counter("kernels.band_busy_ns");
    let banded0 = counter("kernels.dispatch.banded");
    let serial0 = counter("kernels.dispatch.serial");

    let t_start = Instant::now();
    let world = build_world_in(&cfg, &artifacts);
    let world_s = t_start.elapsed().as_secs_f64();
    report.check(cache_file.exists(), || {
        "no base model was written: pretraining did not run".into()
    });

    let t = Instant::now();
    let det = detect_unknown(
        &world.base,
        &NoHook,
        &world.tokenizer,
        world.bank.template(0),
    );
    let detect_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let data = KiDataset::build(
        &world.store,
        &world.bank,
        &world.tokenizer,
        &det.known,
        &det.unknown,
        cfg.seed ^ 0xda7a,
    );
    let mut method = InfuserKiMethod::new(
        InfuserKiConfig::for_model(world.base.n_layers()),
        &world.base,
        world.store.n_relations(),
    );
    let dataset_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let training = train_infuserki(&world.base, &mut method, &data, &tc);
    let train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let eval = evaluate_method(
        &world.base,
        &method,
        &world.tokenizer,
        &world.bank,
        &det.known,
        &det.unknown,
    );
    let eval_s = t.elapsed().as_secs_f64();
    let stages = Stages {
        world_s,
        detect_s,
        dataset_s,
        train_s,
        eval_s,
        total_s: t_start.elapsed().as_secs_f64(),
    };
    obs::set_enabled(false);
    for _ in 0..SETUP_PROCESSES - SETUP_PROCESSES / 2 {
        gen_times.push(world_gen_in_child()?);
    }
    let world_gen_s = stats::median(&gen_times);
    report.line(format!(
        "set-up: world inputs built in {} processes, median {:.4} s (min {:.4}, max {:.4})",
        gen_times.len(),
        world_gen_s,
        gen_times.iter().cloned().fold(f64::INFINITY, f64::min),
        gen_times.iter().cloned().fold(0.0, f64::max),
    ));

    // Output checks.
    report.check(det.known.len() + det.unknown.len() == n_triplets, || {
        format!(
            "detection split {}+{} does not sum to {n_triplets} triplets",
            det.known.len(),
            det.unknown.len()
        )
    });
    let losses = training
        .infuser_losses
        .iter()
        .chain(&training.qa_losses)
        .chain(&training.rc_losses);
    report.check(losses.clone().all(|l| l.is_finite()), || {
        format!("non-finite training loss: {training:?}")
    });
    report.check(
        training.infuser_losses.len() == tc.epochs_infuser
            && training.qa_losses.len() == tc.epochs_qa
            && training.rc_losses.len() == tc.epochs_rc,
        || "a training phase did not run all its epochs".into(),
    );
    report.check(
        (0.0..=1.0).contains(&eval.nr) && (0.0..=1.0).contains(&eval.rr),
        || format!("NR {} / RR {} outside [0, 1]", eval.nr, eval.rr),
    );
    report.attempted = 1;
    report.failed = u64::from(!report.problems.is_empty());

    report.line(format!(
        "world: {n_triplets} triplets, detection {} known / {} unknown; NR {:.4} RR {:.4}",
        det.known.len(),
        det.unknown.len(),
        eval.nr,
        eval.rr
    ));
    let stage_sum =
        stages.world_s + stages.detect_s + stages.dataset_s + stages.train_s + stages.eval_s;
    report.line(format!(
        "stages: world+pretrain {:.3} s, detect {:.3} s, dataset {:.3} s, train {:.3} s, eval {:.3} s; sum {:.3} s vs pipeline {:.3} s (residual {:.4} s)",
        stages.world_s,
        stages.detect_s,
        stages.dataset_s,
        stages.train_s,
        stages.eval_s,
        stage_sum,
        stages.total_s,
        stages.total_s - stage_sum
    ));

    if !args.trace {
        report.metric("setup_s", world_gen_s, "s");
        // The workload's one operation is the whole pipeline.
        report.metric("latency_p50_ms", stages.total_s * 1e3, "ms");
        report.metric("peak_rss_mb", vm_hwm_mb("/proc/self/status")?, "MB");
    } else {
        let wall_ns = stages.total_s * 1e9;
        let busy = (counter("kernels.band_busy_ns") - busy0) as f64;
        let banded = (counter("kernels.dispatch.banded") - banded0) as f64;
        let serial = (counter("kernels.dispatch.serial") - serial0) as f64;
        traced_layers(
            &mut report,
            &stages,
            world_gen_s,
            &data,
            &tc,
            busy / (wall_ns * THREADS as f64),
            banded / (banded + serial).max(1.0),
        )?;
        report.metric("eval.nr", f64::from(eval.nr), "ratio");
        report.metric("eval.rr", f64::from(eval.rr), "ratio");
        trace_overhead(&mut report, &world, &data)?;
    }
    let _ = std::fs::remove_dir_all(&artifacts);
    Ok(report)
}

fn traced_layers(
    report: &mut Report,
    stages: &Stages,
    world_gen_s: f64,
    data: &KiDataset,
    tc: &TrainConfig,
    band_busy_share: f64,
    banded_share: f64,
) -> Result<(), String> {
    let spans = stats::parse_trace(&obs::chrome_trace_json())?;
    let window = stats::retained_window(&spans);
    let totals = stats::self_times(&window);
    let span_s = |n: &str| totals.get(n).map(|t| t.total_us as f64 / 1e6);

    report.metric("kg.world_gen_s", world_gen_s, "s");
    let pretrain_s = stages.world_s - world_gen_s;
    report.metric("nn.pretrain_s", pretrain_s, "s");
    let steps: Vec<f64> = window
        .iter()
        .filter(|s| s.name == "train.step")
        .map(|s| s.dur as f64 / 1e3)
        .collect();
    if !steps.is_empty() {
        report.metric("nn.train_step_ms.p50", stats::median(&steps), "ms");
    }
    // Phase spans are pushed when a phase ends; an early one can fall out
    // of a wrapped ring. A missing phase is the training wall time minus
    // the phases that were kept (labelled derived).
    let qa = span_s("train.phase.qa");
    let rc = span_s("train.phase.rc");
    let (infuser, derived) = match span_s("train.phase.infuser") {
        Some(v) => (v, false),
        None => (stages.train_s - qa.unwrap_or(0.0) - rc.unwrap_or(0.0), true),
    };
    report.metric("core.train_infuser_s", infuser, "s");
    report.metric("core.train_qa_s", qa.unwrap_or(0.0), "s");
    report.metric("core.train_rc_s", rc.unwrap_or(0.0), "s");
    let samples = data.infuser.len() * tc.epochs_infuser
        + data.qa.len() * tc.epochs_qa
        + data.rc.len() * tc.epochs_rc;
    report.metric(
        "core.train_samples_per_s",
        samples as f64 / stages.train_s,
        "1/s",
    );
    report.metric("core.detect_s", stages.detect_s, "s");
    report.metric("eval.mcq_s", stages.eval_s, "s");
    report.metric("tensor.band_busy_share", band_busy_share, "ratio");
    report.metric("tensor.banded_dispatch_share", banded_share, "ratio");
    let step_us: f64 = steps.iter().sum::<f64>() * 1e3;
    if step_us > 0.0 {
        let kernel_us = totals
            .get("kernels.banded_dispatch")
            .map_or(0.0, |t| t.total_us as f64);
        report.metric("tensor.kernel_share", kernel_us / step_us, "ratio");
    }
    report.line(format!(
        "training breakdown: train {:.3} s = infuser {:.3}{} + qa {:.3} + rc {:.3}; residual {:.4} s",
        stages.train_s,
        infuser,
        if derived { " (derived)" } else { "" },
        qa.unwrap_or(0.0),
        rc.unwrap_or(0.0),
        stages.train_s - infuser - qa.unwrap_or(0.0) - rc.unwrap_or(0.0)
    ));
    report.line(format!(
        "pipeline breakdown: pipeline {:.3} s = world gen {:.3} + pretrain {:.3} + detect {:.3} + dataset {:.3} + train {:.3} + eval {:.3}; residual {:.4} s",
        stages.total_s,
        world_gen_s,
        pretrain_s,
        stages.detect_s,
        stages.dataset_s,
        stages.train_s,
        stages.eval_s,
        stages.total_s
            - world_gen_s
            - pretrain_s
            - stages.detect_s
            - stages.dataset_s
            - stages.train_s
            - stages.eval_s
    ));
    Ok(())
}

/// Tracing overhead: one short training schedule (one epoch per phase) on
/// the same data, alternately untraced and traced, three times each.
fn trace_overhead(
    report: &mut Report,
    world: &infuserki_eval::world::World,
    data: &KiDataset,
) -> Result<(), String> {
    let tc = TrainConfig {
        epochs_infuser: 1,
        epochs_qa: 1,
        epochs_rc: 1,
        ..train_config()
    };
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        for traced in [false, true] {
            let mut method = InfuserKiMethod::new(
                InfuserKiConfig::for_model(world.base.n_layers()),
                &world.base,
                world.store.n_relations(),
            );
            obs::set_enabled(traced);
            let t0 = Instant::now();
            std::hint::black_box(train_infuserki(&world.base, &mut method, data, &tc));
            times[usize::from(traced)].push(t0.elapsed().as_secs_f64());
            obs::set_enabled(false);
        }
    }
    let (off, on) = (stats::median(&times[0]), stats::median(&times[1]));
    report.line(format!(
        "tracing overhead: one-epoch training untraced {off:.3} s, traced {on:.3} s ({:+.1}%)",
        (on / off - 1.0) * 100.0
    ));
    report.metric("trace.overhead_share", on / off - 1.0, "ratio");
    Ok(())
}
