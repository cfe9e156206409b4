//! Per-part cost of one decode row, timed in-process from the parts' public
//! entry points at the served model's shape.
//!
//! FFN, adapter, gate, LM head and residual (with the layer norms) are
//! timed on their own; attention has no standalone entry, so it is derived
//! as a batched `extend_cached_batch` decode step minus the timed parts.

use std::hint::black_box;
use std::time::Instant;

use infuserki_core::adapter::AdapterLayer;
use infuserki_core::infuser::InfuserMlp;
use infuserki_core::KnowledgeBundle;
use infuserki_nn::TransformerLm;
use infuserki_tensor::{infer, init, kernels, Matrix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::serving::SERVER_THREADS;
use crate::setup::ServeFiles;
use crate::stats;
use crate::Report;

/// Context each sequence holds before the timed decode steps.
const CONTEXT: usize = 32;
/// Decode steps timed per repetition.
const STEPS: usize = 24;
const REPS: usize = 7;

/// Median over `REPS` of `f`'s wall time in µs, each rep running it
/// `inner` times.
fn time_us(inner: usize, mut f: impl FnMut()) -> f64 {
    let mut xs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        xs.push(t0.elapsed().as_secs_f64() * 1e6 / inner as f64);
    }
    stats::median(&xs)
}

/// Times every part for `rows` decode rows; reports µs per row and the
/// residual against the served `engine.decode_us_per_token`.
pub fn report_parts(
    report: &mut Report,
    files: &ServeFiles,
    rows: usize,
    served_decode_us: Option<f64>,
) -> Result<(), String> {
    // The same kernel thread count as the server.
    kernels::set_num_threads(SERVER_THREADS);
    let model = TransformerLm::load(&files.model).map_err(|e| format!("load model: {e}"))?;
    let bundle = KnowledgeBundle::load(&files.bundle)?;
    let cfg = model.config().clone();
    let mcfg = bundle.method.config().clone();
    let mut rng = ChaCha8Rng::seed_from_u64(0x9a27);
    let x = init::normal(rows, cfg.d_model, 1.0, &mut rng);
    let layers = cfg.n_layers;
    let sites: Vec<usize> = (mcfg.placement.first..mcfg.placement.last).collect();

    let ffn = time_us(20, || {
        for b in model.blocks() {
            black_box(b.ffn().apply(black_box(&x)));
        }
    });
    let adapters: Vec<AdapterLayer> = sites
        .iter()
        .map(|&l| AdapterLayer::new(l, cfg.d_model, mcfg.bottleneck, &mut rng))
        .collect();
    let adapter = time_us(20, || {
        for a in &adapters {
            black_box(a.apply(black_box(&x)));
        }
    });
    let gates: Vec<InfuserMlp> = sites
        .iter()
        .map(|&l| InfuserMlp::new(l, cfg.d_model, mcfg.infuser_hidden, &mut rng))
        .collect();
    let gate = time_us(20, || {
        for g in &gates {
            black_box(g.apply(black_box(&x)));
        }
    });
    let gain = Matrix::from_vec(1, cfg.d_model, vec![1.0; cfg.d_model]);
    let bias = Matrix::zeros(1, cfg.d_model);
    let table = init::normal(cfg.vocab_size, cfg.d_model, 0.02, &mut rng);
    let lm_head = time_us(20, || {
        let h = infer::layer_norm(black_box(&x), &gain, &bias, cfg.ln_eps);
        black_box(kernels::matmul_bt(&h, &table));
    });
    // Per layer: two pre-norms and two residual adds.
    let residual = time_us(20, || {
        let mut acc = x.clone();
        for _ in 0..layers {
            for _ in 0..2 {
                black_box(infer::layer_norm(&acc, &gain, &bias, cfg.ln_eps));
                acc.add_assign(black_box(&x));
            }
        }
        black_box(&acc);
    });

    // Whole decode steps through the engine's batched entry point.
    let hook = &bundle.method;
    let mut steps = Vec::new();
    for _ in 0..REPS {
        let mut cache = model.new_cache_batch(hook, rows);
        let prompts: Vec<Vec<usize>> = (0..rows)
            .map(|_| {
                (0..CONTEXT)
                    .map(|_| rng.gen_range(4..cfg.vocab_size))
                    .collect()
            })
            .collect();
        black_box(model.extend_cached_batch(&prompts, hook, &mut cache));
        let next: Vec<Vec<usize>> = (0..rows).map(|i| vec![4 + i % 7]).collect();
        let t0 = Instant::now();
        for _ in 0..STEPS {
            black_box(model.extend_cached_batch(&next, hook, &mut cache));
        }
        steps.push(t0.elapsed().as_secs_f64() * 1e6 / STEPS as f64);
    }
    let step = stats::median(&steps);
    let per_row = |us: f64| us / rows as f64;
    let timed = ffn + adapter + gate + lm_head + residual;
    let attention = step - timed;
    report.metric("part.attention_us", per_row(attention), "us");
    report.metric("part.ffn_us", per_row(ffn), "us");
    report.metric("part.adapter_us", per_row(adapter), "us");
    report.metric("part.gate_us", per_row(gate), "us");
    report.metric("part.lm_head_us", per_row(lm_head), "us");
    report.metric("part.residual_us", per_row(residual), "us");
    report.line(format!(
        "decode row breakdown at occupancy {rows}: in-process step {:.2} us/row = attention (derived) {:.2} + ffn {:.2} + adapter {:.2} + gate {:.2} + lm_head {:.2} + residual {:.2}",
        per_row(step),
        per_row(attention),
        per_row(ffn),
        per_row(adapter),
        per_row(gate),
        per_row(lm_head),
        per_row(residual),
    ));
    if let Some(served) = served_decode_us {
        report.line(format!(
            "served engine.decode_us_per_token {served:.2} us vs parts sum {:.2} us: residual {:.2} us",
            per_row(step),
            served - per_row(step)
        ));
    }
    Ok(())
}
