//! Inputs the serving workloads hand to `serve`: a base model of the
//! paper-repro shape, a knowledge bundle for it, and the world's tokenizer.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use infuserki_core::{InfuserKiConfig, InfuserKiMethod, KnowledgeBundle};
use infuserki_eval::world::{build_vocabulary, generate_store, Domain, WorldConfig};
use infuserki_nn::{ModelConfig, TransformerLm};
use infuserki_text::Tokenizer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::stats;
use crate::wire::Server;

/// The served world is fixed so every seed serves the same vocabulary (the
/// LM head's width); the seed drives weights and traffic.
pub const WORLD_SEED: u64 = 4242;
pub const WORLD_TRIPLETS: usize = 60;

/// Set-ups per run; setup_s is their median.
pub const SETUP_ROUNDS: usize = 9;

/// Sequence limit of the world shape (as `build_world_in` sets it).
pub const MAX_SEQ: usize = 96;

/// The world config whose model shape every workload uses: the
/// `WorldConfig::new` defaults (d=64, 12 layers, 4 heads, d_ff=192).
pub fn world_config(n_triplets: usize, seed: u64) -> WorldConfig {
    WorldConfig::new(Domain::Umls, n_triplets, seed)
}

/// The model config `build_world_in` derives from a world config.
pub fn model_config(cfg: &WorldConfig, vocab_size: usize) -> ModelConfig {
    ModelConfig {
        vocab_size,
        d_model: cfg.d_model,
        n_layers: cfg.n_layers,
        n_heads: cfg.n_heads,
        d_ff: cfg.d_ff,
        max_seq: MAX_SEQ,
        ..ModelConfig::default()
    }
}

/// Files one serving set-up writes.
pub struct ServeFiles {
    pub model: PathBuf,
    pub bundle: PathBuf,
    pub tokenizer: PathBuf,
    pub vocab: usize,
}

/// Deterministic nonzero nudge: the adapters' up-projections start at zero,
/// which would make the bundle an identity and its check vacuous.
fn nudge(p: &mut infuserki_tensor::Param) {
    for (i, w) in p.data_mut().data_mut().iter_mut().enumerate() {
        *w += 0.01 * ((i % 7) as f32 - 3.0);
    }
}

/// Builds the world, a seeded base model and a bundle for it, and writes
/// all three to `dir`.
pub fn write_serve_files(dir: &Path, seed: u64) -> Result<ServeFiles, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cfg = world_config(WORLD_TRIPLETS, WORLD_SEED);
    let store = generate_store(&cfg);
    let tok: Tokenizer = build_vocabulary(&store);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e7e);
    let base = TransformerLm::new(model_config(&cfg, tok.vocab_size()), &mut rng);
    let mut mcfg = InfuserKiConfig::for_model(base.n_layers());
    mcfg.seed = seed ^ 0xb0d1;
    let mut method = InfuserKiMethod::new(mcfg, &base, store.n_relations());
    method.visit_adapters_mut(&mut nudge);
    let bundle = KnowledgeBundle::new("perfbench", method, &base, None, Vec::new())?;
    let files = ServeFiles {
        model: dir.join("model.json"),
        bundle: dir.join("bundle.json"),
        tokenizer: dir.join("tokenizer.json"),
        vocab: tok.vocab_size(),
    };
    base.save(&files.model)
        .map_err(|e| format!("save model: {e}"))?;
    bundle.save(&files.bundle)?;
    let tok_json = serde_json::to_string(&tok).map_err(|e| e.to_string())?;
    std::fs::write(&files.tokenizer, tok_json).map_err(|e| format!("write tokenizer: {e}"))?;
    Ok(files)
}

/// Runs `prepare` (write inputs) and spawns the server it describes,
/// `rounds` times; every server but the last is shut down. Returns the
/// median set-up time (inputs until `LISTENING`), the last server and the
/// last round's prepared value.
pub fn timed_setups<T>(
    rounds: usize,
    mut prepare: impl FnMut(usize) -> Result<(T, Vec<String>), String>,
    serve_bin: &Path,
) -> Result<(f64, Server, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for round in 0..rounds {
        let t0 = Instant::now();
        let (value, args) = prepare(round)?;
        let server = Server::spawn(serve_bin, &args)?;
        times.push(t0.elapsed().as_secs_f64());
        if round + 1 < rounds {
            server.shutdown(Duration::from_secs(20))?;
        } else {
            last = Some((server, value));
        }
    }
    let (server, value) = last.ok_or("no set-up rounds")?;
    Ok((stats::median(&times), server, value))
}
