//! Serving metrics, backed by the shared observability registry
//! (`infuserki_obs`).
//!
//! Every field is an atomic registry handle, so the scheduler updates them
//! lock-free mid-step and clients snapshot concurrently without a mutex.
//! Each [`ServeMetrics`] owns its *own* [`obs::Registry`] instance rather
//! than the process-global one: test suites run many schedulers at once,
//! and instance registries keep their counters from interleaving. The
//! wire-facing [`MetricsSnapshot`] keeps its flat JSON shape (the `metrics`
//! op's contract), now derived from registry values — TTFT/TBT percentiles
//! come from fixed-bucket histograms instead of a sample reservoir.

use std::sync::Arc;
use std::time::Duration;

use infuserki_obs as obs;
use serde::Serialize;

/// Registry-backed serving counters, updated by the scheduler and read by
/// any number of clients. All handles are atomics; no lock is ever taken
/// on the request path.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: obs::Registry,
    /// Requests handed to the scheduler (accepted into the queue).
    pub submitted: Arc<obs::Counter>,
    /// Requests admitted into the running batch.
    pub admitted: Arc<obs::Counter>,
    /// Requests that finished with a successful outcome.
    pub completed: Arc<obs::Counter>,
    /// Requests cancelled after admission (mid-prefill or mid-decode).
    pub cancelled: Arc<obs::Counter>,
    /// Requests whose deadline passed after admission.
    pub expired: Arc<obs::Counter>,
    /// Requests cancelled while still queued — they never touched the
    /// batch, so they are counted apart from in-flight cancellations.
    pub cancelled_queued: Arc<obs::Counter>,
    /// Requests that expired while still queued (never admitted).
    pub expired_queued: Arc<obs::Counter>,
    /// Submissions rejected because the queue was full.
    pub rejected_queue_full: Arc<obs::Counter>,
    /// Submissions rejected because they exceed the whole KV budget.
    pub rejected_budget: Arc<obs::Counter>,
    /// Submissions rejected as invalid.
    pub rejected_invalid: Arc<obs::Counter>,
    /// Submissions rejected during shutdown drain.
    pub rejected_shutdown: Arc<obs::Counter>,
    /// Current queue depth.
    pub queue_depth: Arc<obs::Gauge>,
    /// Request slots currently active in the batch.
    pub active_requests: Arc<obs::Gauge>,
    /// Cache lanes (sequences) currently live — MCQ branches count each.
    pub active_lanes: Arc<obs::Gauge>,
    /// KV rows currently reserved by admitted requests.
    pub reserved_rows: Arc<obs::Gauge>,
    /// KV rows currently materialized in the cache.
    pub kv_rows_used: Arc<obs::Gauge>,
    /// High-water mark of materialized KV rows.
    pub kv_rows_peak: Arc<obs::Gauge>,
    /// Scheduler steps that ran a forward pass.
    pub steps: Arc<obs::Counter>,
    /// Scheduler steps with nothing to do.
    pub idle_steps: Arc<obs::Counter>,
    /// Prompt/option tokens fed through prefill lanes.
    pub prefill_tokens: Arc<obs::Counter>,
    /// Tokens emitted by decode lanes.
    pub decode_tokens: Arc<obs::Counter>,
    /// Admissions that adopted a cached prefix (skipping its prefill).
    pub prefix_hits: Arc<obs::Counter>,
    /// Prompt tokens skipped thanks to adopted prefixes.
    pub prefix_hit_tokens: Arc<obs::Counter>,
    /// Admissions that found no cached prefix (counted only while the
    /// prefix cache is enabled, so hits + misses = eligible admissions).
    pub prefix_misses: Arc<obs::Counter>,
    /// KV blocks currently allocated in the paged pool.
    pub blocks_live: Arc<obs::Gauge>,
    /// High-water mark of allocated KV blocks.
    pub blocks_peak: Arc<obs::Gauge>,
    /// Cached prefix blocks evicted under KV-budget pressure.
    pub blocks_evicted: Arc<obs::Counter>,
    /// Σ over non-idle steps of lanes advanced that step (occupancy).
    pub occupancy_lane_steps: Arc<obs::Counter>,
    /// Nanoseconds spent inside non-idle steps.
    pub busy_ns: Arc<obs::Counter>,
    /// Time-to-first-token distribution, milliseconds.
    pub ttft_ms: Arc<obs::Histogram>,
    /// Time-between-tokens distribution, milliseconds: the wall time of
    /// each scheduler step that advanced at least one decode lane (every
    /// decode lane emits exactly one token per such step).
    pub tbt_ms: Arc<obs::Histogram>,
    /// Per-step wall time (non-idle steps), milliseconds.
    pub step_ms: Arc<obs::Histogram>,
    /// Currently active (promoted) knowledge-bundle version.
    pub bundle_active_version: Arc<obs::Gauge>,
    /// Successful `promote` operations (version swaps).
    pub bundle_swaps: Arc<obs::Counter>,
    /// Successful `rollback` operations.
    pub bundle_rollbacks: Arc<obs::Counter>,
    /// `promote` attempts refused by the NR regression gate.
    pub bundle_rejected_promotions: Arc<obs::Counter>,
}

impl ServeMetrics {
    /// Builds a fresh instance registry and resolves every handle.
    pub fn new() -> Self {
        let registry = obs::Registry::new();
        let c = |n: &str| registry.counter(n);
        let g = |n: &str| registry.gauge(n);
        let h = |n: &str| registry.histogram(n);
        ServeMetrics {
            submitted: c("serve.submitted"),
            admitted: c("serve.admitted"),
            completed: c("serve.completed"),
            cancelled: c("serve.cancelled"),
            expired: c("serve.expired"),
            cancelled_queued: c("serve.cancelled_queued"),
            expired_queued: c("serve.expired_queued"),
            rejected_queue_full: c("serve.rejected.queue_full"),
            rejected_budget: c("serve.rejected.budget"),
            rejected_invalid: c("serve.rejected.invalid"),
            rejected_shutdown: c("serve.rejected.shutdown"),
            queue_depth: g("serve.queue_depth"),
            active_requests: g("serve.active_requests"),
            active_lanes: g("serve.active_lanes"),
            reserved_rows: g("serve.reserved_rows"),
            kv_rows_used: g("serve.kv_rows_used"),
            kv_rows_peak: g("serve.kv_rows_peak"),
            steps: c("serve.steps"),
            idle_steps: c("serve.idle_steps"),
            prefill_tokens: c("serve.prefill_tokens"),
            decode_tokens: c("serve.decode_tokens"),
            prefix_hits: c("serve.prefix.hits"),
            prefix_hit_tokens: c("serve.prefix.hit_tokens"),
            prefix_misses: c("serve.prefix.misses"),
            blocks_live: g("serve.kv_blocks_live"),
            blocks_peak: g("serve.kv_blocks_peak"),
            blocks_evicted: c("serve.kv_blocks_evicted"),
            occupancy_lane_steps: c("serve.occupancy_lane_steps"),
            busy_ns: c("serve.busy_ns"),
            ttft_ms: h("serve.ttft_ms"),
            tbt_ms: h("serve.tbt_ms"),
            step_ms: h("serve.step_ms"),
            bundle_active_version: g("serve.bundle.active_version"),
            bundle_swaps: c("serve.bundle.swaps"),
            bundle_rollbacks: c("serve.bundle.rollbacks"),
            bundle_rejected_promotions: c("serve.bundle.rejected_promotions"),
            registry,
        }
    }

    /// The backing registry (for full-snapshot export, e.g. JSONL dumps).
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }

    /// Records one TTFT observation.
    pub fn record_ttft(&self, d: Duration) {
        self.ttft_ms.record_duration(d);
    }

    /// Derives the exported snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let ttft = self.ttft_ms.summary();
        let tbt = self.tbt_ms.summary();
        let steps = self.steps.get();
        let busy_s = self.busy_ns.get() as f64 / 1e9;
        let decode_tokens = self.decode_tokens.get();
        MetricsSnapshot {
            submitted: self.submitted.get(),
            admitted: self.admitted.get(),
            completed: self.completed.get(),
            cancelled: self.cancelled.get(),
            expired: self.expired.get(),
            cancelled_queued: self.cancelled_queued.get(),
            expired_queued: self.expired_queued.get(),
            rejected_queue_full: self.rejected_queue_full.get(),
            rejected_budget: self.rejected_budget.get(),
            rejected_invalid: self.rejected_invalid.get(),
            rejected_shutdown: self.rejected_shutdown.get(),
            queue_depth: self.queue_depth.get().max(0) as usize,
            active_requests: self.active_requests.get().max(0) as usize,
            active_lanes: self.active_lanes.get().max(0) as usize,
            reserved_rows: self.reserved_rows.get().max(0) as usize,
            kv_rows_used: self.kv_rows_used.get().max(0) as usize,
            kv_rows_peak: self.kv_rows_peak.get().max(0) as usize,
            steps,
            idle_steps: self.idle_steps.get(),
            prefill_tokens: self.prefill_tokens.get(),
            decode_tokens,
            prefix_hits: self.prefix_hits.get(),
            prefix_hit_tokens: self.prefix_hit_tokens.get(),
            prefix_misses: self.prefix_misses.get(),
            blocks_live: self.blocks_live.get().max(0) as usize,
            blocks_peak: self.blocks_peak.get().max(0) as usize,
            blocks_evicted: self.blocks_evicted.get(),
            avg_occupancy: if steps == 0 {
                0.0
            } else {
                self.occupancy_lane_steps.get() as f64 / steps as f64
            },
            decode_tokens_per_sec: if busy_s > 0.0 {
                decode_tokens as f64 / busy_s
            } else {
                0.0
            },
            ttft_p50_ms: ttft.p50,
            ttft_p99_ms: ttft.p99,
            ttft_samples: ttft.count as usize,
            tbt_p50_ms: tbt.p50,
            tbt_p99_ms: tbt.p99,
            bundle_active_version: self.bundle_active_version.get().max(0) as u64,
            bundle_swaps: self.bundle_swaps.get(),
            bundle_rollbacks: self.bundle_rollbacks.get(),
            bundle_rejected_promotions: self.bundle_rejected_promotions.get(),
        }
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

/// Point-in-time metrics view, serializable for the wire `metrics` op.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// See [`ServeMetrics::submitted`].
    pub submitted: u64,
    /// See [`ServeMetrics::admitted`].
    pub admitted: u64,
    /// See [`ServeMetrics::completed`].
    pub completed: u64,
    /// See [`ServeMetrics::cancelled`].
    pub cancelled: u64,
    /// See [`ServeMetrics::expired`].
    pub expired: u64,
    /// See [`ServeMetrics::cancelled_queued`].
    pub cancelled_queued: u64,
    /// See [`ServeMetrics::expired_queued`].
    pub expired_queued: u64,
    /// See [`ServeMetrics::rejected_queue_full`].
    pub rejected_queue_full: u64,
    /// See [`ServeMetrics::rejected_budget`].
    pub rejected_budget: u64,
    /// See [`ServeMetrics::rejected_invalid`].
    pub rejected_invalid: u64,
    /// See [`ServeMetrics::rejected_shutdown`].
    pub rejected_shutdown: u64,
    /// See [`ServeMetrics::queue_depth`].
    pub queue_depth: usize,
    /// See [`ServeMetrics::active_requests`].
    pub active_requests: usize,
    /// See [`ServeMetrics::active_lanes`].
    pub active_lanes: usize,
    /// See [`ServeMetrics::reserved_rows`].
    pub reserved_rows: usize,
    /// See [`ServeMetrics::kv_rows_used`].
    pub kv_rows_used: usize,
    /// See [`ServeMetrics::kv_rows_peak`].
    pub kv_rows_peak: usize,
    /// See [`ServeMetrics::steps`].
    pub steps: u64,
    /// See [`ServeMetrics::idle_steps`].
    pub idle_steps: u64,
    /// See [`ServeMetrics::prefill_tokens`].
    pub prefill_tokens: u64,
    /// See [`ServeMetrics::decode_tokens`].
    pub decode_tokens: u64,
    /// See [`ServeMetrics::prefix_hits`].
    pub prefix_hits: u64,
    /// See [`ServeMetrics::prefix_hit_tokens`].
    pub prefix_hit_tokens: u64,
    /// See [`ServeMetrics::prefix_misses`].
    pub prefix_misses: u64,
    /// See [`ServeMetrics::blocks_live`].
    pub blocks_live: usize,
    /// See [`ServeMetrics::blocks_peak`].
    pub blocks_peak: usize,
    /// See [`ServeMetrics::blocks_evicted`].
    pub blocks_evicted: u64,
    /// Mean lanes advanced per non-idle step.
    pub avg_occupancy: f64,
    /// Decode tokens per second of busy scheduler time.
    pub decode_tokens_per_sec: f64,
    /// Median time-to-first-token, milliseconds.
    pub ttft_p50_ms: f64,
    /// 99th-percentile time-to-first-token, milliseconds.
    pub ttft_p99_ms: f64,
    /// How many TTFT samples back the percentiles.
    pub ttft_samples: usize,
    /// Median time-between-tokens, milliseconds.
    pub tbt_p50_ms: f64,
    /// 99th-percentile time-between-tokens, milliseconds.
    pub tbt_p99_ms: f64,
    /// See [`ServeMetrics::bundle_active_version`].
    pub bundle_active_version: u64,
    /// See [`ServeMetrics::bundle_swaps`].
    pub bundle_swaps: u64,
    /// See [`ServeMetrics::bundle_rollbacks`].
    pub bundle_rollbacks: u64,
    /// See [`ServeMetrics::bundle_rejected_promotions`].
    pub bundle_rejected_promotions: u64,
}

impl MetricsSnapshot {
    /// Fleet view over several schedulers' snapshots. Counts, gauges and
    /// peaks sum; `decode_tokens_per_sec` sums (replicas decode side by
    /// side); latency percentiles take the worst replica; `avg_occupancy`
    /// is the step-weighted mean; the `bundle_*` fields take the maximum,
    /// because replica registries move in lockstep and one fleet operation
    /// must count once. One snapshot merges to itself, field for field.
    pub fn merge(snaps: &[MetricsSnapshot]) -> MetricsSnapshot {
        let sum = |f: fn(&MetricsSnapshot) -> u64| snaps.iter().map(f).sum::<u64>();
        let sum_n = |f: fn(&MetricsSnapshot) -> usize| snaps.iter().map(f).sum::<usize>();
        let max = |f: fn(&MetricsSnapshot) -> u64| snaps.iter().map(f).max().unwrap_or(0);
        let worst = |f: fn(&MetricsSnapshot) -> f64| snaps.iter().map(f).fold(0.0, f64::max);
        let steps = sum(|s| s.steps);
        MetricsSnapshot {
            submitted: sum(|s| s.submitted),
            admitted: sum(|s| s.admitted),
            completed: sum(|s| s.completed),
            cancelled: sum(|s| s.cancelled),
            expired: sum(|s| s.expired),
            cancelled_queued: sum(|s| s.cancelled_queued),
            expired_queued: sum(|s| s.expired_queued),
            rejected_queue_full: sum(|s| s.rejected_queue_full),
            rejected_budget: sum(|s| s.rejected_budget),
            rejected_invalid: sum(|s| s.rejected_invalid),
            rejected_shutdown: sum(|s| s.rejected_shutdown),
            queue_depth: sum_n(|s| s.queue_depth),
            active_requests: sum_n(|s| s.active_requests),
            active_lanes: sum_n(|s| s.active_lanes),
            reserved_rows: sum_n(|s| s.reserved_rows),
            kv_rows_used: sum_n(|s| s.kv_rows_used),
            kv_rows_peak: sum_n(|s| s.kv_rows_peak),
            steps,
            idle_steps: sum(|s| s.idle_steps),
            prefill_tokens: sum(|s| s.prefill_tokens),
            decode_tokens: sum(|s| s.decode_tokens),
            prefix_hits: sum(|s| s.prefix_hits),
            prefix_hit_tokens: sum(|s| s.prefix_hit_tokens),
            prefix_misses: sum(|s| s.prefix_misses),
            blocks_live: sum_n(|s| s.blocks_live),
            blocks_peak: sum_n(|s| s.blocks_peak),
            blocks_evicted: sum(|s| s.blocks_evicted),
            // Weights are step shares, so a lone snapshot weighs exactly 1.
            avg_occupancy: if steps == 0 {
                0.0
            } else {
                snaps
                    .iter()
                    .map(|s| s.avg_occupancy * (s.steps as f64 / steps as f64))
                    .sum()
            },
            decode_tokens_per_sec: snaps.iter().map(|s| s.decode_tokens_per_sec).sum(),
            ttft_p50_ms: worst(|s| s.ttft_p50_ms),
            ttft_p99_ms: worst(|s| s.ttft_p99_ms),
            ttft_samples: sum_n(|s| s.ttft_samples),
            tbt_p50_ms: worst(|s| s.tbt_p50_ms),
            tbt_p99_ms: worst(|s| s.tbt_p99_ms),
            bundle_active_version: max(|s| s.bundle_active_version),
            bundle_swaps: max(|s| s.bundle_swaps),
            bundle_rollbacks: max(|s| s.bundle_rollbacks),
            bundle_rejected_promotions: max(|s| s.bundle_rejected_promotions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_derives_percentiles_and_rates() {
        let m = ServeMetrics::new();
        for ms in [1.0_f64, 2.0, 3.0, 4.0, 100.0] {
            m.ttft_ms.record(ms);
        }
        m.decode_tokens.add(200);
        m.busy_ns.add(2_000_000_000);
        m.steps.add(10);
        m.occupancy_lane_steps.add(25);
        let s = m.snapshot();
        // Histogram quantiles are bucket estimates, not exact order
        // statistics: p50 must land near the middle samples, p99 near the
        // outlier.
        assert!(
            s.ttft_p50_ms >= 1.0 && s.ttft_p50_ms <= 10.0,
            "{}",
            s.ttft_p50_ms
        );
        assert!(
            s.ttft_p99_ms > 10.0 && s.ttft_p99_ms <= 100.0,
            "{}",
            s.ttft_p99_ms
        );
        assert_eq!(s.ttft_samples, 5);
        assert!((s.decode_tokens_per_sec - 100.0).abs() < 1e-9);
        assert!((s.avg_occupancy - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_snapshot_is_all_zero() {
        let s = ServeMetrics::new().snapshot();
        assert_eq!(s.ttft_p50_ms, 0.0);
        assert_eq!(s.decode_tokens_per_sec, 0.0);
        assert_eq!(s.avg_occupancy, 0.0);
        assert_eq!(s.cancelled_queued, 0);
        assert_eq!(s.expired_queued, 0);
    }

    #[test]
    fn snapshot_serializes_to_json_object() {
        let j = serde_json::to_string(&ServeMetrics::new().snapshot()).unwrap();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"decode_tokens_per_sec\""));
        assert!(j.contains("\"cancelled_queued\""));
        assert!(j.contains("\"tbt_p50_ms\""));
        assert!(j.contains("\"prefix_hits\""));
        assert!(j.contains("\"blocks_evicted\""));
        assert!(j.contains("\"bundle_active_version\""));
        assert!(j.contains("\"bundle_swaps\""));
        assert!(j.contains("\"bundle_rollbacks\""));
        assert!(j.contains("\"bundle_rejected_promotions\""));
    }

    #[test]
    fn registry_snapshot_carries_the_same_values() {
        let m = ServeMetrics::new();
        m.completed.add(3);
        m.queue_depth.set(2);
        let snap = m.registry().snapshot();
        assert_eq!(
            snap.get("serve.completed"),
            Some(&obs::MetricValue::Counter(3))
        );
        assert_eq!(
            snap.get("serve.queue_depth"),
            Some(&obs::MetricValue::Gauge(2))
        );
    }

    #[test]
    fn merge_is_identity_on_one_and_a_fleet_view_on_many() {
        let a = ServeMetrics::new();
        a.completed.add(3);
        a.steps.add(3);
        a.occupancy_lane_steps.add(7);
        a.ttft_ms.record(2.0);
        a.bundle_swaps.add(1);
        let b = ServeMetrics::new();
        b.completed.add(5);
        b.steps.add(1);
        b.occupancy_lane_steps.add(1);
        b.ttft_ms.record(40.0);
        b.bundle_swaps.add(1);
        let (a, b) = (a.snapshot(), b.snapshot());
        assert_eq!(MetricsSnapshot::merge(std::slice::from_ref(&a)), a);
        let m = MetricsSnapshot::merge(&[a.clone(), b.clone()]);
        assert_eq!(m.completed, 8);
        assert_eq!(m.ttft_samples, 2);
        assert_eq!(m.ttft_p50_ms, b.ttft_p50_ms, "percentiles take the worst");
        assert_eq!(m.bundle_swaps, 1, "one fleet promote counts once");
        assert!(
            (m.avg_occupancy - 2.0).abs() < 1e-12,
            "(7 + 1) lanes / 4 steps"
        );
    }

    #[test]
    fn queued_deaths_are_distinct_from_in_flight_ones() {
        let m = ServeMetrics::new();
        m.cancelled.inc();
        m.cancelled_queued.inc();
        m.cancelled_queued.inc();
        let s = m.snapshot();
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.cancelled_queued, 2);
    }
}
