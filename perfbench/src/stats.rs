//! The benchmark's own statistics: the percentile rule, goodput step
//! selection, and self time from a Chrome trace of nested spans.

use serde::Value;

/// A percentile value together with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    /// Samples in the whole set.
    pub samples: usize,
}

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `xs`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond its rank. Infinite samples (failed
/// requests) sort last, so they count as misses of any limit.
pub fn percentile(xs: &[f64], q: f64) -> Option<Pct> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let n = xs.len();
    let rank = (q * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median of the percentile `q` of consecutive `window`-sample windows of
/// `xs` (a trailing partial window is left out), or `None` without a full
/// window that supports `q`. A slow phase of the machine that covers a
/// minority of the windows does not move it.
pub fn windowed(xs: &[f64], window: usize, q: f64) -> Option<f64> {
    if window == 0 {
        return None;
    }
    let values: Vec<f64> = xs
        .chunks_exact(window)
        .filter_map(|w| percentile(w, q).map(|p| p.value))
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

/// Windows a run's latencies are cut into for its reported p50.
pub const P50_WINDOWS: usize = 10;

/// Median of the p50s of `P50_WINDOWS` equal consecutive windows of `xs`.
pub fn windowed_p50(xs: &[f64]) -> Option<f64> {
    windowed(xs, xs.len() / P50_WINDOWS, 0.5)
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty set");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One fixed-rate step of an open-loop sweep, as goodput selection sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct StepVerdict {
    pub rate: f64,
    /// p99 latency over every request sent (failures count as infinite);
    /// `None` when the step had too few samples for a p99.
    pub p99_ms: Option<f64>,
    pub backlog_grew: bool,
}

impl StepVerdict {
    pub fn passes(&self, limit_ms: f64) -> bool {
        !self.backlog_grew && self.p99_ms.is_some_and(|p| p <= limit_ms)
    }
}

/// Goodput: the highest offered rate whose p99 stays within `limit_ms` with
/// no backlog growth, where every lower step passed too. Between that step
/// and the first failing step the crossing is interpolated linearly on p99,
/// when the failing step has a finite p99 and no backlog growth; otherwise
/// the passing rate stands. Returns 0 when the lowest step already fails.
pub fn goodput(steps: &[StepVerdict], limit_ms: f64) -> f64 {
    let mut sorted = steps.to_vec();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let mut best: Option<&StepVerdict> = None;
    for s in &sorted {
        if !s.passes(limit_ms) {
            return match best {
                None => 0.0,
                Some(ok) => match (ok.p99_ms, s.p99_ms) {
                    (Some(pa), Some(pb)) if !s.backlog_grew && pb.is_finite() && pb > pa => {
                        ok.rate + (s.rate - ok.rate) * (limit_ms - pa) / (pb - pa)
                    }
                    _ => ok.rate,
                },
            };
        }
        best = Some(s);
    }
    best.map_or(0.0, |s| s.rate)
}

/// Whether a series of in-flight (or queue-depth) samples taken across a
/// step grew: the mean of its last third exceeds the mean of its first
/// third by more than `slack` plus half the first third's mean.
pub fn backlog_grew(samples: &[f64], slack: f64) -> bool {
    let n = samples.len();
    if n < 3 {
        return false;
    }
    let third = n / 3;
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&samples[..third]);
    let last = mean(&samples[n - third..]);
    last > first * 1.5 + slack
}

/// One complete span from a Chrome trace (`"ph":"X"`), in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub tid: u64,
    pub name: String,
    pub ts: u64,
    pub dur: u64,
}

impl Span {
    pub fn end(&self) -> u64 {
        self.ts + self.dur
    }
}

/// Events the program keeps per thread before its span ring wraps.
pub const RING_CAPACITY: usize = 16_384;

/// Parses the complete spans of a Chrome trace-event JSON document.
pub fn parse_trace(json: &str) -> Result<Vec<Span>, String> {
    let v: Value = serde_json::from_str(json).map_err(|e| format!("trace: {e}"))?;
    let Some(Value::Array(events)) = v.get_field("traceEvents") else {
        return Err("trace: no traceEvents array".into());
    };
    let mut out = Vec::new();
    for e in events {
        if e.get_field("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let num = |k: &str| {
            e.get_field(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("trace: event without `{k}`"))
        };
        out.push(Span {
            tid: num("tid")? as u64,
            name: e
                .get_field("name")
                .and_then(Value::as_str)
                .ok_or("trace: event without a name")?
                .to_string(),
            ts: num("ts")? as u64,
            dur: num("dur")? as u64,
        });
    }
    Ok(out)
}

/// Drops the spans a wrapped ring may have left incomplete.
///
/// A thread's ring keeps its newest [`RING_CAPACITY`] spans, pushed in the
/// order they end. Once it wraps, every span that ended before the oldest
/// kept one is gone, so any kept span that *started* before that end may
/// have lost children. Those spans are dropped; the rest form a window
/// whose self times are exact. Threads whose ring did not fill are kept
/// whole.
pub fn retained_window(spans: &[Span]) -> Vec<Span> {
    let mut by_tid: std::collections::BTreeMap<u64, Vec<&Span>> = Default::default();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut out = Vec::new();
    for (_, list) in by_tid {
        if list.len() < RING_CAPACITY {
            out.extend(list.into_iter().cloned());
            continue;
        }
        let cutoff = list.iter().map(|s| s.end()).min().unwrap_or(0);
        out.extend(list.into_iter().filter(|s| s.ts >= cutoff).cloned());
    }
    out
}

/// Totals for one span name: count, summed duration, summed self time
/// (duration minus the part covered by direct children), all in µs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Self time per span name. Spans carry no parent id, so nesting is taken
/// from time containment on one thread: a span's parent is the innermost
/// earlier-starting span on its thread that still covers its start.
pub fn self_times(spans: &[Span]) -> std::collections::BTreeMap<String, NameTotals> {
    let mut by_tid: std::collections::BTreeMap<u64, Vec<&Span>> = Default::default();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut totals: std::collections::BTreeMap<String, NameTotals> = Default::default();
    for (_, mut list) in by_tid {
        // Parents first: earlier start, and the longer span on a tie.
        list.sort_by(|a, b| a.ts.cmp(&b.ts).then(b.dur.cmp(&a.dur)));
        let mut covered = vec![0u64; list.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..list.len() {
            let s = list[i];
            while let Some(&top) = stack.last() {
                if list[top].end() > s.ts {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                let end = s.end().min(list[parent].end());
                covered[parent] += end - s.ts;
            }
            stack.push(i);
        }
        for (s, cov) in list.iter().zip(covered) {
            let t = totals.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_us += s.dur;
            t.self_us += s.dur.saturating_sub(cov);
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u64, name: &str, ts: u64, dur: u64) -> Span {
        Span {
            tid,
            name: name.into(),
            ts,
            dur,
        }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 0.99).expect("1000 samples support p99");
        assert_eq!(p99.value, 990.0, "ten samples lie beyond rank 990");
        assert_eq!(p99.samples, 1000);
        assert!(
            percentile(&xs[..999], 0.99).is_none(),
            "9 beyond is too few"
        );
        let p50 = percentile(&xs[..20], 0.5).unwrap();
        assert_eq!(p50.value, 10.0);
        assert!(percentile(&xs[..19], 0.5).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn windowed_p99_ignores_one_stalled_window() {
        let mut xs: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut xs[1000..2000] {
            *x += 500.0;
        }
        assert_eq!(windowed(&xs, 1000, 0.99), Some(989.0));
        assert_eq!(windowed(&xs[..999], 1000, 0.99), None);
    }

    #[test]
    fn windowed_p50_ignores_a_slow_minority_of_windows() {
        // Ten windows of 1..=100 ms; three of them twice as slow. The
        // pooled p50 moves to 59 ms, the windowed one stays at 50.
        let mut xs: Vec<f64> = (0..1000).map(|i| f64::from(i % 100 + 1)).collect();
        for x in &mut xs[300..600] {
            *x *= 2.0;
        }
        assert_eq!(percentile(&xs, 0.5).unwrap().value, 59.0);
        assert_eq!(windowed_p50(&xs), Some(50.0));
        assert_eq!(windowed_p50(&xs[..9]), None);
    }

    #[test]
    fn failures_sort_last_and_miss_the_limit() {
        let mut xs = vec![5.0; 990];
        xs.extend(std::iter::repeat_n(f64::INFINITY, 11));
        let p99 = percentile(&xs, 0.99).unwrap();
        assert!(p99.value.is_infinite(), "11 failures in 1001 exceed 1%");
    }

    #[test]
    fn goodput_takes_highest_passing_step_below_first_failure() {
        let step = |rate: f64, p99: Option<f64>, grew: bool| StepVerdict {
            rate,
            p99_ms: p99,
            backlog_grew: grew,
        };
        // A failing step stops the sweep even if a later one passes.
        let steps = vec![
            step(100.0, Some(20.0), false),
            step(150.0, Some(40.0), false),
            step(200.0, Some(90.0), true),
            step(250.0, Some(30.0), false),
        ];
        assert_eq!(goodput(&steps, 50.0), 150.0);
        // A finite failing p99 interpolates the crossing.
        let steps = vec![
            step(100.0, Some(20.0), false),
            step(200.0, Some(80.0), false),
        ];
        assert!((goodput(&steps, 50.0) - 150.0).abs() < 1e-9);
        // Failed requests make p99 infinite: the passing rate stands.
        let steps = vec![
            step(100.0, Some(20.0), false),
            step(200.0, Some(f64::INFINITY), false),
        ];
        assert_eq!(goodput(&steps, 50.0), 100.0);
        // Too few samples for a p99 is a failed step, not a pass.
        let steps = vec![step(100.0, None, false)];
        assert_eq!(goodput(&steps, 50.0), 0.0);
        // Every step passing: the top rate.
        let steps = vec![
            step(200.0, Some(10.0), false),
            step(100.0, Some(5.0), false),
        ];
        assert_eq!(goodput(&steps, 50.0), 200.0);
    }

    #[test]
    fn backlog_growth_detects_a_rising_queue() {
        assert!(!backlog_grew(&[3.0, 4.0, 3.0, 4.0, 3.0, 4.0], 2.0));
        assert!(backlog_grew(&[1.0, 2.0, 5.0, 9.0, 14.0, 20.0], 2.0));
        assert!(!backlog_grew(&[1.0, 50.0], 2.0), "too short to judge");
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // step [0,100) ⊃ engine [10,70) ⊃ kernel [20,40); engine [80,90).
        let spans = vec![
            span(1, "step", 0, 100),
            span(1, "engine", 10, 60),
            span(1, "kernel", 20, 20),
            span(1, "engine", 80, 10),
            // Same times on another thread never nest under thread 1.
            span(2, "kernel", 5, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["step"].self_us, 100 - 60 - 10);
        assert_eq!(t["engine"].total_us, 70);
        assert_eq!(t["engine"].self_us, 70 - 20);
        assert_eq!(t["kernel"].count, 2);
        assert_eq!(t["kernel"].self_us, 70);
        let sum_self: u64 = ["step", "engine"]
            .iter()
            .map(|n| t[*n].self_us)
            .sum::<u64>()
            + 20;
        assert_eq!(sum_self, 100, "self times of one tree sum to its root");
    }

    #[test]
    fn wrapped_ring_drops_spans_that_lost_children() {
        // A full ring on thread 1: RING_CAPACITY - 1 kernel spans inside a
        // step that began before them, plus the step itself. The oldest
        // kept span ends at 15, so every span that started before 15 (the
        // step and the first kernel) may have lost children and is dropped.
        let mut spans = vec![span(1, "step", 0, 1_000_000)];
        for i in 0..(RING_CAPACITY as u64 - 1) {
            spans.push(span(1, "kernel", 10 + i * 10, 5));
        }
        spans.push(span(2, "other", 0, 3));
        let kept = retained_window(&spans);
        assert!(kept.iter().all(|s| s.name != "step"));
        assert_eq!(
            kept.iter().filter(|s| s.name == "kernel").count(),
            RING_CAPACITY - 2
        );
        assert!(
            kept.iter().any(|s| s.tid == 2),
            "unwrapped threads stay whole"
        );
        // The same trace with room to spare keeps the step.
        let short: Vec<Span> = spans.iter().take(100).cloned().collect();
        assert!(retained_window(&short).iter().any(|s| s.name == "step"));
    }

    #[test]
    fn trace_parsing_reads_complete_events() {
        let json = r#"{"traceEvents":[{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"main"}},{"ph":"X","pid":1,"tid":1,"name":"serve.step","ts":12,"dur":30}]}"#;
        let spans = parse_trace(json).unwrap();
        assert_eq!(spans, vec![span(1, "serve.step", 12, 30)]);
    }
}
