//! Repository benchmark for the InfuserKI reproduction.
//!
//! ```text
//! perfbench --workload <pipeline|serve_unique|serve_shared|serve_update>
//!           --seed N --seconds S --trace <0|1> --serve-bin PATH --work-dir DIR
//! ```
//!
//! Prints a human-readable report, then, as its last stdout line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones from a traced run. Exits nonzero when an output check
//! fails. See `perfbench/README.md` for what each workload measures.

mod parts;
mod pipeline;
mod serving;
mod setup;
mod stats;
mod update;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut serve_bin, mut work_dir) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs a number")?),
            "--trace" => trace = Some(value == "1"),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.unwrap_or_else(|| PathBuf::from("serve")),
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// The end-to-end metrics every untraced run reports, with their units
/// (as declared in `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units (as
/// declared in `BENCHMARK.json`). A layer the workload does not load is
/// reported as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_share", "ratio"),
    ("client.latency_p99_ms", "ms"),
    ("client.goodput_rps", "1/s"),
    ("kg.world_gen_s", "s"),
    ("nn.pretrain_s", "s"),
    ("nn.train_step_ms.p50", "ms"),
    ("core.train_infuser_s", "s"),
    ("core.train_qa_s", "s"),
    ("core.train_rc_s", "s"),
    ("core.train_samples_per_s", "1/s"),
    ("core.detect_s", "s"),
    ("eval.mcq_s", "s"),
    ("eval.nr", "ratio"),
    ("eval.rr", "ratio"),
    ("tensor.band_busy_share", "ratio"),
    ("tensor.banded_dispatch_share", "ratio"),
    ("tensor.kernel_share", "ratio"),
    ("wire.rtt_ms.p50", "ms"),
    ("serve.ttft_ms.p50", "ms"),
    ("serve.ttft_ms.p99", "ms"),
    ("serve.tbt_ms.p50", "ms"),
    ("serve.tbt_ms.p99", "ms"),
    ("serve.occupancy", "lanes"),
    ("serve.steps", "count"),
    ("serve.idle_steps", "count"),
    ("serve.prefill_tokens", "count"),
    ("serve.decode_tokens", "count"),
    ("serve.rejected", "count"),
    ("serve.step_self_ms.p50", "ms"),
    ("serve.prefix_hit_token_share", "ratio"),
    ("serve.kv_blocks_peak", "count"),
    ("serve.kv_blocks_evicted", "count"),
    ("engine.decode_us_per_token", "us"),
    ("engine.prefill_us_per_token", "us"),
    ("part.attention_us", "us"),
    ("part.ffn_us", "us"),
    ("part.adapter_us", "us"),
    ("part.gate_us", "us"),
    ("part.lm_head_us", "us"),
    ("part.residual_us", "us"),
    ("router.affinity_share", "ratio"),
    ("router.replica_skew", "ratio"),
    ("ingest.append_us.p50", "us"),
    ("ingest.apply_ms", "ms"),
    ("ingest.integrate_ms", "ms"),
    ("ingest.package_ms", "ms"),
    ("ingest.publish_ms", "ms"),
    ("ingest.published", "count"),
    ("ingest.refused", "count"),
    ("ingest.update_visible_ms", "ms"),
];

/// One run's result: the accounting and named metrics of its JSON line,
/// plus the human-readable lines printed before them.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry fails the run.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A metric recorded earlier in this run.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Holds the metrics to `expected`: per-layer metrics the workload did
    /// not report (layers it does not load) are added as 0; a missing
    /// end-to-end metric, an unknown name, a wrong unit or a non-finite
    /// value fails the run.
    fn conform(&mut self, expected: &[(&str, &'static str)], fill_missing: bool) {
        for (name, value, unit) in &self.metrics {
            match expected.iter().find(|e| e.0 == name) {
                None => self.problems.push(format!("metric `{name}` is not in the manifest")),
                Some(e) if e.1 != *unit => self
                    .problems
                    .push(format!("metric `{name}` in {unit}, manifest says {}", e.1)),
                Some(_) if !value.is_finite() => {
                    self.problems.push(format!("metric `{name}` is {value}"))
                }
                Some(_) => {}
            }
        }
        let mut absent = Vec::new();
        for &(name, unit) in expected {
            if self.value(name).is_none() {
                if fill_missing {
                    self.metrics.push((name.to_string(), 0.0, unit));
                    absent.push(name);
                } else {
                    self.problems.push(format!("metric `{name}` was not measured"));
                }
            }
        }
        if !absent.is_empty() {
            self.line(format!(
                "not measured on this workload, reported as 0: {}",
                absent.join(", ")
            ));
        }
        self.metrics
            .sort_by_key(|m| expected.iter().position(|e| e.0 == m.0));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits; non-finite values (which fail the
/// run's checks) become null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables name exactly the manifest's metrics, in its units.
    #[test]
    fn metric_tables_match_the_manifest() {
        let manifest: serde::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(serde::Value::Array(list)) = manifest.get_field(key) else {
                panic!("no `{key}` list in the manifest");
            };
            let declared: Vec<(String, String)> = list
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get_field(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(ours, declared, "{key}");
        }
    }

    #[test]
    fn conform_fills_bypassed_layers_and_flags_missing_end_to_end() {
        let mut traced = Report::default();
        traced.metric("eval.nr", 0.5, "ratio");
        traced.conform(PER_LAYER, true);
        assert!(traced.problems.is_empty());
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert_eq!(traced.value("router.affinity_share"), Some(0.0));

        let mut plain = Report::default();
        plain.metric("setup_s", 1.0, "s");
        plain.metric("peak_rss_mb", f64::NAN, "MB");
        plain.metric("goodput_rps", 3.0, "1/s");
        plain.conform(END_TO_END, false);
        assert_eq!(plain.problems.len(), 3, "{:?}", plain.problems);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "world_gen" {
        return match pipeline::world_gen_child() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "pipeline" => pipeline::run(&args),
        "serve_unique" => serving::run(&args, serving::Traffic::Unique),
        "serve_shared" => serving::run(&args, serving::Traffic::Shared),
        "serve_update" => update::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        report.conform(PER_LAYER, true);
    } else {
        report.conform(END_TO_END, false);
    }
    for l in &report.lines {
        println!("{l}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    println!(
        "operations: attempted {} succeeded {} failed {}",
        report.attempted,
        report.attempted - report.failed.min(report.attempted),
        report.failed
    );
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", report.json());
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
