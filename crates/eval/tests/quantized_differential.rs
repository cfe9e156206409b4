//! End-to-end differential test for int8 frozen-base inference: a tiny
//! pre-trained world evaluated twice — once with the f32 base, once with the
//! same base reloaded through `load_quantized` — must agree within the
//! documented tolerances on raw logits, teacher-forced decode logits, and
//! option scores, and must give **identical MCQ decisions** wherever the f32
//! model's decision has any margin (the NR regression gate: quantization must
//! not change what the base model is judged to know).
//!
//! Tolerances: per-weight int8 error is relatively tiny
//! (`quant::max_abs_error` ≈ absmax/254 per block), but it compounds through
//! 4 layers of matmuls, layernorms, and a softmax. The bounds below are
//! empirical for the tiny world config with ~4× headroom; they are meant to
//! catch wiring bugs (wrong scale, transposed block, double-dequant), not to
//! certify a tight analytic error bound.

use infuserki_eval::world::{build_world_in, Domain, WorldConfig};
use infuserki_nn::sampler::{greedy_decode, score_options};
use infuserki_nn::{NoHook, TransformerLm};
use infuserki_tensor::QuantSpec;
use infuserki_text::{format_mcq_prompt, tokenizer::EOS, Tokenizer};

/// Max |logit_f32 - logit_int8| over any scored position (empirical ~4×).
const LOGIT_TOL: f32 = 0.5;
/// Max |score_f32 - score_int8| for a summed option log-likelihood.
const SCORE_TOL: f32 = 1.0;
/// An f32 decision (argmax) with at least this top-2 margin must survive
/// quantization unchanged.
const MARGIN_GUARD: f32 = 2.0 * SCORE_TOL;

fn encode_options(tokenizer: &Tokenizer, mcq: &infuserki_text::Mcq) -> Vec<Vec<usize>> {
    mcq.options.iter().map(|o| tokenizer.encode(o)).collect()
}

fn argmax(scores: &[f32]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap()
}

/// Top-1 minus top-2.
fn margin(scores: &[f32]) -> f32 {
    let mut s = scores.to_vec();
    s.sort_by(|a, b| b.total_cmp(a));
    s[0] - s[1]
}

#[test]
fn int8_base_matches_f32_base_end_to_end() {
    let dir = std::env::temp_dir().join(format!("infuserki_quant_diff_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let world = build_world_in(&WorldConfig::tiny(Domain::Umls, 977), &dir);
    let f32_model = &world.base;

    // Round-trip the frozen base through disk and quantize at load — the
    // deployment path, not an in-memory shortcut.
    let path = dir.join("base_for_quant.json");
    f32_model.save(&path).expect("save base");
    let q_model = TransformerLm::load_quantized(&path, QuantSpec::default()).expect("load int8");
    assert!(q_model.is_quantized(), "load_quantized must install blocks");
    assert!(!f32_model.is_quantized(), "f32 base must stay dense");

    let tokenizer = &world.tokenizer;
    let mcqs = world.bank.template(0);
    assert!(!mcqs.is_empty(), "tiny world must have detection MCQs");

    // --- Raw logits: prompt prefill, last position -----------------------
    let mut max_logit_diff = 0.0f32;
    for mcq in mcqs.iter().take(8) {
        let prompt = tokenizer.encode_strict(&format_mcq_prompt(mcq));
        let (_, lf) = f32_model.prefill_batch(&[&prompt], &NoHook);
        let (_, lq) = q_model.prefill_batch(&[&prompt], &NoHook);
        assert_eq!(lf.shape(), lq.shape());
        let last = lf.rows() - 1;
        for (a, b) in lf.row(last).iter().zip(lq.row(last)) {
            max_logit_diff = max_logit_diff.max((a - b).abs());
        }
    }
    assert!(
        max_logit_diff <= LOGIT_TOL,
        "prompt logits diverged: max |Δ| = {max_logit_diff} > {LOGIT_TOL}"
    );

    // --- Greedy decode: teacher-forced logit agreement + guarded token
    //     identity. The f32 stream is replayed through both models so a
    //     near-tie early token cannot cascade into incomparable suffixes. ---
    let mut max_forced_diff = 0.0f32;
    for mcq in mcqs.iter().take(4) {
        let prompt = tokenizer.encode_strict(&format_mcq_prompt(mcq));
        let stream = greedy_decode(f32_model, &NoHook, &prompt, 8, Some(EOS));
        let forced: Vec<usize> = prompt.iter().chain(stream.iter()).copied().collect();
        let (_, lf) = f32_model.prefill_batch(&[&forced], &NoHook);
        let (_, lq) = q_model.prefill_batch(&[&forced], &NoHook);
        for r in (prompt.len() - 1)..lf.rows() {
            // Positions that produced the generated tokens.
            let (rowf, rowq) = (lf.row(r), lq.row(r));
            for (a, b) in rowf.iter().zip(rowq) {
                max_forced_diff = max_forced_diff.max((a - b).abs());
            }
            // Where f32 is decisive, int8 must pick the same token.
            let m = margin(rowf);
            if m > 2.0 * LOGIT_TOL {
                assert_eq!(
                    argmax(rowf),
                    argmax(rowq),
                    "decisive decode step changed under int8 (margin {m})"
                );
            }
        }
        let q_stream = greedy_decode(&q_model, &NoHook, &prompt, 8, Some(EOS));
        // Streams may only differ if some f32 step was within the guard.
        if stream != q_stream {
            let any_close =
                (prompt.len() - 1..lf.rows()).any(|r| margin(lf.row(r)) <= 2.0 * LOGIT_TOL);
            assert!(
                any_close,
                "greedy streams diverged with no near-tie step: {stream:?} vs {q_stream:?}"
            );
        }
    }
    assert!(
        max_forced_diff <= LOGIT_TOL,
        "teacher-forced decode logits diverged: max |Δ| = {max_forced_diff} > {LOGIT_TOL}"
    );

    // --- MCQ decisions over the full detection template (NR gate) --------
    let mut max_score_diff = 0.0f32;
    let known: std::collections::HashSet<usize> = world.pretrained_idx.iter().copied().collect();
    let (mut nr_f32, mut nr_q, mut n_known) = (0usize, 0usize, 0usize);
    for (idx, mcq) in mcqs.iter().enumerate() {
        let prompt = tokenizer.encode_strict(&format_mcq_prompt(mcq));
        let options = encode_options(tokenizer, mcq);
        let sf = score_options(f32_model, &NoHook, &prompt, &options);
        let sq = score_options(&q_model, &NoHook, &prompt, &options);
        for (a, b) in sf.iter().zip(&sq) {
            max_score_diff = max_score_diff.max((a - b).abs());
        }
        let (pf, pq) = (argmax(&sf), argmax(&sq));
        if margin(&sf) > MARGIN_GUARD {
            assert_eq!(
                pf, pq,
                "MCQ #{idx}: decisive f32 choice changed under int8 \
                 (scores f32 {sf:?} vs int8 {sq:?})"
            );
        }
        if known.contains(&idx) {
            n_known += 1;
            nr_f32 += usize::from(pf == mcq.correct);
            nr_q += usize::from(pq == mcq.correct);
        }
    }
    assert!(
        max_score_diff <= SCORE_TOL,
        "option scores diverged: max |Δ| = {max_score_diff} > {SCORE_TOL}"
    );
    assert!(n_known > 0, "known split must be non-empty");
    assert_eq!(
        nr_f32, nr_q,
        "NR regression: int8 base answers {nr_q}/{n_known} known facts, f32 answers {nr_f32}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
