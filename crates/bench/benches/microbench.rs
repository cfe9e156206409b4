//! Criterion microbenches: substrate performance plus design-choice
//! ablations called out in DESIGN.md (adapter cross-layer carry, infuser
//! gating overhead, quantization throughput).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use infuserki_core::{InfuserKiConfig, InfuserKiMethod};
use infuserki_kg::{synth_umls, UmlsConfig};
use infuserki_nn::{sampler, ModelConfig, NoHook, TransformerLm};
use infuserki_tensor::{kernels, Tape};
use infuserki_text::{McqBuilder, Tokenizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let a = infuserki_tensor::init::normal(64, 64, 1.0, &mut rng);
    let b = infuserki_tensor::init::normal(64, 192, 1.0, &mut rng);
    c.bench_function("matmul_64x64x192", |bench| {
        bench.iter(|| kernels::matmul(std::hint::black_box(&a), std::hint::black_box(&b)))
    });
    c.bench_function("matmul_bt_64x192", |bench| {
        let bt = b.transposed();
        bench.iter(|| kernels::matmul_bt(std::hint::black_box(&a), std::hint::black_box(&bt)))
    });
}

/// Blocked-kernel vs seed-kernel square matmuls at 64–512 dims: the numbers
/// behind the blocking design notes in `kernels.rs`.
fn bench_matmul_blocked_vs_seed(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for dim in [64usize, 128, 256, 512] {
        let a = infuserki_tensor::init::normal(dim, dim, 1.0, &mut rng);
        let b = infuserki_tensor::init::normal(dim, dim, 1.0, &mut rng);
        c.bench_function(&format!("matmul_{dim}x{dim}x{dim}"), |bench| {
            bench.iter(|| kernels::matmul(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
        c.bench_function(&format!("matmul_{dim}x{dim}x{dim}_seed"), |bench| {
            bench.iter(|| {
                kernels::reference::matmul(std::hint::black_box(&a), std::hint::black_box(&b))
            })
        });
    }
    // The transposed-operand products at a representative mid size.
    let a = infuserki_tensor::init::normal(256, 256, 1.0, &mut rng);
    let b = infuserki_tensor::init::normal(256, 256, 1.0, &mut rng);
    c.bench_function("matmul_bt_256x256x256", |bench| {
        bench.iter(|| kernels::matmul_bt(std::hint::black_box(&a), std::hint::black_box(&b)))
    });
    c.bench_function("matmul_bt_256x256x256_seed", |bench| {
        bench.iter(|| {
            kernels::reference::matmul_bt(std::hint::black_box(&a), std::hint::black_box(&b))
        })
    });
    c.bench_function("matmul_at_256x256x256", |bench| {
        bench.iter(|| kernels::matmul_at(std::hint::black_box(&a), std::hint::black_box(&b)))
    });
    c.bench_function("matmul_at_256x256x256_seed", |bench| {
        bench.iter(|| {
            kernels::reference::matmul_at(std::hint::black_box(&a), std::hint::black_box(&b))
        })
    });
    // Allocation-free accumulate variant (the backward-pass hot path shape).
    let mut out = infuserki_tensor::Matrix::zeros(256, 256);
    c.bench_function("matmul_into_acc_256x256x256", |bench| {
        bench.iter(|| {
            kernels::matmul_into(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                &mut out,
                true,
            )
        })
    });
}

fn bench_softmax(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let x = infuserki_tensor::init::normal(48, 48, 1.0, &mut rng);
    c.bench_function("softmax_rows_48x48", |bench| {
        bench.iter(|| kernels::softmax_rows(std::hint::black_box(&x)))
    });
}

fn small_model() -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    TransformerLm::new(
        ModelConfig {
            vocab_size: 512,
            ..ModelConfig::default()
        },
        &mut rng,
    )
}

fn bench_forward(c: &mut Criterion) {
    let model = small_model();
    let tokens: Vec<usize> = (0..40).map(|i| i % 512).collect();
    c.bench_function("lm_forward_seq40", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            model.forward(std::hint::black_box(&tokens), &NoHook, &mut tape)
        })
    });
}

fn bench_forward_backward(c: &mut Criterion) {
    let model = small_model();
    let tokens: Vec<usize> = (0..40).map(|i| i % 512).collect();
    let targets: Vec<usize> = (0..40).map(|i| (i + 1) % 512).collect();
    c.bench_function("lm_forward_backward_seq40", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            let loss = model.lm_loss(&tokens, &targets, &NoHook, &mut tape);
            tape.backward(loss);
            tape.grads()
        })
    });
}

/// Ablation: adapter + infuser overhead on top of the plain forward — the
/// cost of the method's extra machinery per inference.
fn bench_adapter_overhead(c: &mut Criterion) {
    let model = small_model();
    let method = InfuserKiMethod::new(InfuserKiConfig::for_model(model.n_layers()), &model, 18);
    let mut no_gate_cfg = InfuserKiConfig::for_model(model.n_layers());
    no_gate_cfg.ablation.use_infuser = false;
    let ungated = InfuserKiMethod::new(no_gate_cfg, &model, 18);
    let tokens: Vec<usize> = (0..40).map(|i| i % 512).collect();
    c.bench_function("forward_with_infuserki_hook", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            model.forward(std::hint::black_box(&tokens), &method.hook(), &mut tape)
        })
    });
    c.bench_function("forward_with_ungated_adapters", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            model.forward(std::hint::black_box(&tokens), &ungated.hook(), &mut tape)
        })
    });
}

/// Incremental engine vs full recompute: 64-token greedy generation from a
/// 16-token prompt through the KV-cached path (`prefill_batch` + `decode_step_batch`)
/// and the pre-cache reference path (full forward per emitted token). The
/// acceptance target is a ≥3× cached speedup on this workload.
fn bench_generation_cached_vs_uncached(c: &mut Criterion) {
    let model = small_model();
    let prompt: Vec<usize> = (0..16).map(|i| (i * 5 + 1) % 512).collect();
    c.bench_function("greedy_decode_64_cached", |bench| {
        bench.iter(|| {
            sampler::greedy_decode(&model, &NoHook, std::hint::black_box(&prompt), 64, None)
        })
    });
    c.bench_function("greedy_decode_64_uncached", |bench| {
        bench.iter(|| {
            sampler::greedy_decode_uncached(
                &model,
                &NoHook,
                std::hint::black_box(&prompt),
                64,
                None,
            )
        })
    });
}

/// The two phases of cached inference in isolation: prefill throughput over
/// a 40-token prompt, and single-token decode latency against that cache.
fn bench_prefill_and_decode_step(c: &mut Criterion) {
    let model = small_model();
    let tokens: Vec<usize> = (0..40).map(|i| i % 512).collect();
    c.bench_function("prefill_seq40", |bench| {
        bench.iter(|| model.prefill_batch(&[std::hint::black_box(&tokens)], &NoHook))
    });
    let (cache, _) = model.prefill_batch(&[&tokens], &NoHook);
    c.bench_function("decode_step_after_seq40", |bench| {
        bench.iter_batched(
            || cache.fork(),
            |mut cache| model.decode_step_batch(&[7], &NoHook, &mut cache),
            BatchSize::SmallInput,
        )
    });
}

/// MCQ option scoring: the shared-prefix cached scorer (prefill the question
/// once, score four completions from forked caches) vs the pre-cache
/// reference (one full forward per option).
fn bench_mcq_scoring(c: &mut Criterion) {
    let model = small_model();
    let prompt: Vec<usize> = (0..32).map(|i| (i * 3 + 2) % 512).collect();
    let options: Vec<Vec<usize>> = vec![vec![5, 6], vec![7, 8], vec![9, 10], vec![11, 12]];
    c.bench_function("score_4_options_cached", |bench| {
        bench.iter(|| {
            sampler::score_options(&model, &NoHook, std::hint::black_box(&prompt), &options)
        })
    });
    c.bench_function("score_4_options_uncached", |bench| {
        bench.iter(|| {
            sampler::score_options_uncached(
                &model,
                &NoHook,
                std::hint::black_box(&prompt),
                &options,
            )
        })
    });
}

/// Batched greedy decode throughput: 32 new tokens per sequence from 16-token
/// prompts at batch sizes 1/4/8/16, plus the loop-of-8 single-sequence
/// reference. Tokens/sec scales with batch size because the projections and
/// the LM head amortize the weight traffic over the whole batch; the
/// acceptance target is ≥2× the looped reference at batch 8.
fn bench_batched_generation(c: &mut Criterion) {
    let model = small_model();
    let prompt_of =
        |s: usize| -> Vec<usize> { (0..16).map(|i| (i * 5 + s * 11 + 1) % 512).collect() };
    for batch in [1usize, 4, 8, 16] {
        let prompts: Vec<Vec<usize>> = (0..batch).map(prompt_of).collect();
        c.bench_function(&format!("greedy_decode_32_batch{batch}"), |bench| {
            bench.iter(|| {
                sampler::greedy_decode_batch(
                    &model,
                    &NoHook,
                    std::hint::black_box(&prompts),
                    32,
                    None,
                )
            })
        });
    }
    let prompts: Vec<Vec<usize>> = (0..8).map(prompt_of).collect();
    c.bench_function("greedy_decode_32_loop8_single", |bench| {
        bench.iter(|| {
            prompts
                .iter()
                .map(|p| sampler::greedy_decode(&model, &NoHook, std::hint::black_box(p), 32, None))
                .collect::<Vec<_>>()
        })
    });
}

/// Batched MCQ scoring throughput: questions/sec at batch sizes 1/4/8/16
/// (32-token prompts, four 2-token options each) vs the loop-of-8
/// single-question reference. Acceptance target: ≥2× at batch 8.
fn bench_batched_mcq_scoring(c: &mut Criterion) {
    let model = small_model();
    let prompt_of =
        |q: usize| -> Vec<usize> { (0..32).map(|i| (i * 3 + q * 7 + 2) % 512).collect() };
    let options: Vec<Vec<usize>> = vec![vec![5, 6], vec![7, 8], vec![9, 10], vec![11, 12]];
    for batch in [1usize, 4, 8, 16] {
        let prompts: Vec<Vec<usize>> = (0..batch).map(prompt_of).collect();
        let per_q: Vec<&[Vec<usize>]> = (0..batch).map(|_| options.as_slice()).collect();
        c.bench_function(&format!("mcq_score_batch{batch}"), |bench| {
            bench.iter(|| {
                sampler::score_options_batch(
                    &model,
                    &NoHook,
                    std::hint::black_box(&prompts),
                    &per_q,
                )
            })
        });
    }
    let prompts: Vec<Vec<usize>> = (0..8).map(prompt_of).collect();
    // Shared-prefix loop: one `score_options` call per question. Not a
    // single-sequence baseline — `score_options` already branches the prompt
    // cache into one sequence per option (the batch engine at batch 4), so
    // on one core this loop sits at compute parity with `batch8`.
    c.bench_function("mcq_score_loop8_forked", |bench| {
        bench.iter(|| {
            prompts
                .iter()
                .map(|p| sampler::score_options(&model, &NoHook, std::hint::black_box(p), &options))
                .collect::<Vec<_>>()
        })
    });
    // True single-sequence loop: every (prompt ∥ option) pair prefilled as
    // its own sequence, no cache sharing or branching anywhere — the
    // strongest scorer expressible without the multi-sequence cache.
    c.bench_function("mcq_score_loop8_single_seq", |bench| {
        bench.iter(|| {
            prompts
                .iter()
                .map(|p| {
                    options
                        .iter()
                        .map(|opt| {
                            let p = std::hint::black_box(p);
                            let mut seq = p.clone();
                            seq.extend_from_slice(&opt[..opt.len() - 1]);
                            let (_cache, logits) = model.prefill_batch(&[&seq], &NoHook);
                            let lp = kernels::log_softmax_rows(
                                &logits.slice_rows(p.len() - 1, seq.len()),
                            );
                            opt.iter()
                                .enumerate()
                                .map(|(i, &t)| lp.get(i, t))
                                .sum::<f32>()
                        })
                        .collect::<Vec<f32>>()
                })
                .collect::<Vec<_>>()
        })
    });
}

/// End-to-end MCQ answering — the knowledge-detection path (§3.2): format
/// the prompt, greedy-decode an answer, extract the chosen option — over the
/// real synthetic bank, at batch sizes 1/4/8/16 vs the loop-of-8
/// single-question reference. Answering is decode-dominated (a handful of
/// single-token steps per question), so whole-batch decode steps amortize
/// the per-step cost the loop pays once per sequence per token.
fn bench_mcq_answering(c: &mut Criterion) {
    let store = synth_umls(&UmlsConfig::with_triplets(60, 4));
    let triples = store.triples().to_vec();
    let bank = infuserki_core::McqBank::build(&store, &triples, 9);
    let mut lines: Vec<String> = store.entity_names().map(str::to_string).collect();
    for r in store.relation_names() {
        lines.extend(infuserki_text::templates::TemplateSet::vocabulary_lines(r));
    }
    lines.extend(infuserki_text::prompts::vocabulary_lines());
    let tok = Tokenizer::build(lines.iter().map(String::as_str));
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let model = TransformerLm::new(
        ModelConfig {
            vocab_size: tok.vocab_size(),
            ..ModelConfig::default()
        },
        &mut rng,
    );
    let mcqs = bank.template(0);
    for batch in [1usize, 4, 8, 16] {
        c.bench_function(&format!("mcq_answer_batch{batch}"), |bench| {
            bench.iter(|| {
                infuserki_core::answer_mcq_batch(
                    &model,
                    &NoHook,
                    &tok,
                    std::hint::black_box(&mcqs[..batch]),
                )
            })
        });
    }
    c.bench_function("mcq_answer_loop8_single", |bench| {
        bench.iter(|| {
            mcqs[..8]
                .iter()
                .map(|m| {
                    let one = std::slice::from_ref(std::hint::black_box(m));
                    infuserki_core::answer_mcq_batch(&model, &NoHook, &tok, one)
                })
                .collect::<Vec<_>>()
        })
    });
}

fn bench_kg_queries(c: &mut Criterion) {
    let store = synth_umls(&UmlsConfig::with_triplets(2500, 3));
    let rel = store.relation_ids()[0];
    c.bench_function("kg_tail_pool_2500", |bench| {
        bench.iter(|| store.tail_pool(std::hint::black_box(rel)))
    });
    let head = store.triples()[0].head;
    c.bench_function("kg_triples_of_head", |bench| {
        bench.iter(|| store.triples_of_head(std::hint::black_box(head)))
    });
}

fn bench_mcq_generation(c: &mut Criterion) {
    let store = synth_umls(&UmlsConfig::with_triplets(500, 4));
    let builder = McqBuilder::new(&store);
    let triple = store.triples()[0];
    c.bench_function("mcq_build_one", |bench| {
        bench.iter_batched(
            || ChaCha8Rng::seed_from_u64(9),
            |mut rng| builder.build(std::hint::black_box(triple), 0, &mut rng),
            BatchSize::SmallInput,
        )
    });
}

fn bench_quantization(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let w = infuserki_tensor::init::normal(64, 192, 0.05, &mut rng);
    c.bench_function("quantize_dequantize_64x192", |bench| {
        bench.iter_batched(
            || w.clone(),
            |mut m| {
                infuserki_baselines::qlora::quantize_dequantize(m.data_mut(), 64);
                m
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_tokenizer(c: &mut Criterion) {
    let tok = Tokenizer::build(["question : what is the finding site of chronic cardiopathy ? options : (a) x (b) y (c) z (d) w answer :"]);
    let text = "question : what is the finding site of chronic cardiopathy ? options : (a) x (b) y (c) z (d) w answer :";
    c.bench_function("tokenizer_encode_prompt", |bench| {
        bench.iter(|| tok.encode_strict(std::hint::black_box(text)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_matmul, bench_matmul_blocked_vs_seed, bench_softmax,
              bench_forward, bench_forward_backward,
              bench_adapter_overhead, bench_generation_cached_vs_uncached,
              bench_prefill_and_decode_step, bench_mcq_scoring,
              bench_batched_generation, bench_batched_mcq_scoring,
              bench_mcq_answering, bench_kg_queries, bench_mcq_generation,
              bench_quantization, bench_tokenizer
}
criterion_main!(benches);
