//! Cross-crate differential suite: every *real* knowledge-integration method
//! (LoRA, prefix tuning, InfuserKI — with non-trivially nudged weights) runs
//! bitwise-identically through the KV-cached samplers and the tape path with
//! serial kernels; GRACE (non-causal ε-ball lookup) declares itself
//! incompatible and the cached samplers fall back to full recomputation.
//!
//! The kernel thread override is process-global; this file serializes every
//! test behind one lock.

use std::sync::Mutex;

use infuserki::baselines::grace::{Grace, GraceConfig};
use infuserki::baselines::lora::{LoraConfig, LoraMethod};
use infuserki::baselines::prefix::{PrefixConfig, PrefixTuning};
use infuserki::baselines::VisitTrainable;
use infuserki::core::{GateInput, InfuserKiConfig, InfuserKiMethod, Placement};
use infuserki::nn::{sampler, LayerHook, LmSample, ModelConfig, TransformerLm};
use infuserki::tensor::{kernels, Tape};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const VOCAB: usize = 40;

static THREADS: Mutex<()> = Mutex::new(());

fn base() -> TransformerLm {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    TransformerLm::new(ModelConfig::tiny(VOCAB), &mut rng)
}

/// Deterministic nonzero nudge so zero-initialized up-projections don't make
/// the method a trivial identity.
fn nudge(p: &mut infuserki::tensor::Param) {
    for (i, w) in p.data_mut().data_mut().iter_mut().enumerate() {
        *w += 0.01 * ((i % 7) as f32 - 3.0);
    }
}

fn lora(b: &TransformerLm) -> LoraMethod {
    let mut m = LoraMethod::new(LoraConfig::default(), b);
    m.visit_trainable_params(&mut nudge);
    m
}

fn prefix(b: &TransformerLm) -> PrefixTuning {
    // Fresh prefix K/V rows are already nonzero.
    PrefixTuning::new(PrefixConfig::default(), b)
}

fn infuserki(b: &TransformerLm) -> InfuserKiMethod {
    infuserki_with(b, |_| {})
}

fn infuserki_with(b: &TransformerLm, tweak: impl FnOnce(&mut InfuserKiConfig)) -> InfuserKiMethod {
    let mut c = InfuserKiConfig::for_model(b.n_layers());
    c.bottleneck = 4;
    c.infuser_hidden = 4;
    c.rc_dim = 8;
    tweak(&mut c);
    let mut m = InfuserKiMethod::new(c, b, 5);
    m.visit_adapters_mut(&mut nudge);
    m
}

/// Every combination of the paper's InfuserKI variants, the default
/// configuration first: adapters on the FFN or the attention sublayer, with
/// or without the infuser gate (the w/o-Ro ablation), and the gate pooling
/// the sublayer input or its output.
fn infuserki_variants(b: &TransformerLm) -> Vec<(String, InfuserKiMethod)> {
    let mut out = Vec::new();
    for attention in [false, true] {
        for use_infuser in [true, false] {
            for gate_out in [false, true] {
                let m = infuserki_with(b, |c| {
                    if attention {
                        c.placement = Placement::attention(b.n_layers());
                    }
                    c.ablation.use_infuser = use_infuser;
                    if gate_out {
                        c.gate_input = GateInput::SublayerOut;
                    }
                });
                let name =
                    format!("attention {attention}, infuser {use_infuser}, gate out {gate_out}");
                out.push((name, m));
            }
        }
    }
    out
}

fn prompt() -> Vec<usize> {
    vec![3, 10, 17, 24, 31, 2]
}

fn options() -> Vec<Vec<usize>> {
    vec![vec![1], vec![2, 3], vec![4, 5, 6], vec![7, 8]]
}

fn assert_samplers_agree(b: &TransformerLm, hook: &dyn LayerHook, name: &str) {
    let p = prompt();
    let opts = options();
    let cached = sampler::score_options(b, hook, &p, &opts);
    let naive = sampler::score_options_uncached(b, hook, &p, &opts);
    for (i, (x, y)) in cached.iter().zip(&naive).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{name}: option {i} score {x} vs {y}"
        );
    }
    let g_cached = sampler::greedy_decode(b, hook, &p, 12, None);
    let g_naive = sampler::greedy_decode_uncached(b, hook, &p, 12, None);
    assert_eq!(g_cached, g_naive, "{name}: greedy divergence");
    let bm_cached = sampler::beam_search(b, hook, &p, 8, 3, None);
    let bm_naive = sampler::beam_search_uncached(b, hook, &p, 8, 3, None);
    assert_eq!(bm_cached, bm_naive, "{name}: beam divergence");
}

#[test]
fn lora_cached_sampling_is_bitwise_identical() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = lora(&b);
    assert!(m.supports_incremental());
    assert_samplers_agree(&b, &m, "lora");
    kernels::set_num_threads(0);
}

#[test]
fn prefix_cached_sampling_is_bitwise_identical() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = prefix(&b);
    assert!(m.supports_incremental());
    assert_samplers_agree(&b, &m, "prefix");
    kernels::set_num_threads(0);
}

#[test]
fn infuserki_cached_sampling_is_bitwise_identical() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    for (variant, m) in infuserki_variants(&b) {
        let hook = m.hook();
        assert!(hook.supports_incremental());
        assert_samplers_agree(&b, &hook, &format!("infuserki hook, {variant}"));
        // The method doubles as a hook itself; both views must share the path.
        assert_samplers_agree(&b, &m, &format!("infuserki method, {variant}"));
    }
    kernels::set_num_threads(0);
}

#[test]
fn infuserki_prefill_matches_tape_forward_every_length() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = infuserki(&b);
    let hook = m.hook();
    let max_seq = b.config().max_seq;
    for n in 1..=max_seq {
        let toks: Vec<usize> = (0..n).map(|i| (i * 11 + 5) % VOCAB).collect();
        let mut tape = Tape::new();
        let full = b.forward(&toks, &hook, &mut tape);
        let (_, cached) = b.prefill_batch(&[&toks], &hook);
        let fv = tape.value(full);
        assert_eq!(fv.shape(), cached.shape(), "len {n}");
        for (i, (x, y)) in fv.data().iter().zip(cached.data()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "len {n}, element {i}: {x} vs {y}"
            );
        }
    }
    kernels::set_num_threads(0);
}

#[test]
fn infuserki_forked_option_scoring_shares_gate_statistics_correctly() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let m = infuserki(&b);
    let hook = m.hook();
    // Score each option against the cached shared prefix AND standalone; the
    // cumulative gate sums forked from the prefix must not leak between
    // branches (each option sees prefix stats + its own rows only).
    let p = prompt();
    let opts = options();
    let cached = sampler::score_options(&b, &hook, &p, &opts);
    for (i, opt) in opts.iter().enumerate() {
        let naive = b.completion_logprob(&p, opt, &hook);
        assert!(
            cached[i].to_bits() == naive.to_bits(),
            "option {i}: {} vs {naive}",
            cached[i]
        );
    }
    kernels::set_num_threads(0);
}

#[test]
fn grace_opts_out_and_samplers_fall_back() {
    let _g = THREADS.lock().unwrap();
    kernels::set_num_threads(1);
    let b = base();
    let mut g = Grace::new(GraceConfig::for_model(b.n_layers()), &b);
    let sample = LmSample::from_completion(&[3, 10, 17], &[24, 31]);
    g.apply_edit(&b, &sample);
    assert!(!g.supports_incremental());
    // Cached entry points must route to the uncached path and still answer.
    assert_samplers_agree(&b, &g, "grace");
    kernels::set_num_threads(0);
}
