//! The `serve` process and the open-loop JSONL traffic generator.
//!
//! The generator is one process with two threads and one connection: the
//! calling thread sends to a schedule, a reader thread timestamps every
//! response line as it arrives. Latency is measured from each request's
//! due time, so a stall also charges the requests queued behind it.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::Rng;
use serde::Value;

use crate::stats::{self, Pct};

/// A running `serve` child. Dropping it kills the process and waits.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
    stdout_drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin args…` and waits for its `LISTENING <addr>` line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            stdout_drain: None,
        };
        loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.strip_prefix("LISTENING ") {
                        server.addr = rest.trim().to_string();
                        break;
                    }
                }
                _ => return Err("serve exited before printing LISTENING".into()),
            }
        }
        // Keep reading stdout so a late print never meets a closed pipe.
        server.stdout_drain = Some(std::thread::spawn(move || for _ in lines.by_ref() {}));
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("server running").id()
    }

    /// High-water resident set of the server process, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Sends `shutdown`, waits for a clean exit (killing after `timeout`).
    pub fn shutdown(mut self, timeout: Duration) -> Result<(), String> {
        let ack = TcpStream::connect(&self.addr).and_then(|mut s| {
            s.write_all(b"{\"op\":\"shutdown\"}\n")?;
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line)?;
            Ok(line)
        });
        let mut child = self.child.take().expect("server running");
        let deadline = Instant::now() + timeout;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
            }
        };
        if let Some(h) = self.stdout_drain.take() {
            let _ = h.join();
        }
        match (ack, status) {
            (Ok(line), Some(s)) if s.success() && line.contains("shutting_down") => Ok(()),
            (ack, status) => Err(format!(
                "serve did not shut down cleanly: {ack:?} {status:?}"
            )),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stdout_drain.take() {
            let _ = h.join();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kb / 1024.0)
}

/// What a request asked for, kept to check its answer afterwards.
#[derive(Debug, Clone)]
pub enum Spec {
    Generate {
        prompt: Vec<usize>,
        max_new: usize,
    },
    Mcq {
        prompt: Vec<usize>,
        options: Vec<Vec<usize>>,
    },
}

impl Spec {
    /// The wire line for this request under `id`.
    pub fn line(&self, id: u64) -> String {
        let toks = |t: &[usize]| {
            let inner: Vec<String> = t.iter().map(usize::to_string).collect();
            format!("[{}]", inner.join(","))
        };
        match self {
            Spec::Generate { prompt, max_new } => format!(
                "{{\"op\":\"generate\",\"id\":{id},\"prompt\":{},\"max_new\":{max_new}}}",
                toks(prompt)
            ),
            Spec::Mcq { prompt, options } => {
                let opts: Vec<String> = options.iter().map(|o| toks(o)).collect();
                format!(
                    "{{\"op\":\"mcq\",\"id\":{id},\"prompt\":{},\"options\":[{}]}}",
                    toks(prompt),
                    opts.join(",")
                )
            }
        }
    }
}

/// How one request ended.
#[derive(Debug, Clone)]
pub enum Answer {
    Tokens(Vec<usize>),
    Scores(Vec<f32>),
    /// `rejected`, `error`, `cancelled`, … with the raw line.
    Failed(String),
}

/// One request sent on the wire.
#[derive(Debug, Clone)]
pub struct Sent {
    pub spec: Spec,
    pub due: Instant,
    pub answer: Option<Answer>,
    pub done: Option<Instant>,
}

impl Sent {
    /// Latency from the due time in ms; infinite unless it succeeded.
    pub fn latency_ms(&self) -> f64 {
        match (&self.answer, self.done) {
            (Some(Answer::Tokens(_) | Answer::Scores(_)), Some(done)) => {
                done.duration_since(self.due).as_secs_f64() * 1e3
            }
            _ => f64::INFINITY,
        }
    }

    pub fn ok(&self) -> bool {
        matches!(self.answer, Some(Answer::Tokens(_) | Answer::Scores(_)))
    }
}

/// One reply line and when it arrived.
struct Reply {
    at: Instant,
    value: Value,
    raw: String,
}

/// One connection to the server: a writer on the calling thread and a
/// reader thread that timestamps every reply.
pub struct Conn {
    writer: TcpStream,
    replies: mpsc::Receiver<Reply>,
    completed: Arc<AtomicU64>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
    /// Send times of `metrics` ops awaiting their reply (they answer in
    /// order: the front replies to them inline, skipping the scheduler).
    metrics_sent: VecDeque<Instant>,
    /// Every request sent on this connection, indexed by `id - 1`.
    pub sent: Vec<Sent>,
    /// Round trips of the `metrics` op, ms.
    pub rtt_ms: Vec<f64>,
    /// Last `metrics` payload seen, and when it arrived.
    pub last_metrics: Option<Value>,
    pub last_metrics_at: Instant,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader_stream = stream.try_clone().map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel();
        let completed = Arc::new(AtomicU64::new(0));
        let done = Arc::clone(&completed);
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(reader_stream).lines();
            while let Some(Ok(raw)) = lines.next() {
                let at = Instant::now();
                let Ok(value) = serde_json::from_str::<Value>(raw.trim()) else {
                    continue;
                };
                if value.get_field("id").is_some() {
                    done.fetch_add(1, Ordering::Relaxed);
                }
                if tx.send(Reply { at, value, raw }).is_err() {
                    break;
                }
            }
        });
        Ok(Conn {
            writer: stream,
            replies: rx,
            completed,
            reader: Some(reader),
            next_id: 1,
            metrics_sent: VecDeque::new(),
            sent: Vec::new(),
            rtt_ms: Vec::new(),
            last_metrics: None,
            last_metrics_at: Instant::now(),
        })
    }

    fn write_line(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Sends a request due at `due`; returns its id.
    pub fn send(&mut self, spec: Spec, due: Instant) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let line = spec.line(id);
        self.sent.push(Sent {
            spec,
            due,
            answer: None,
            done: None,
        });
        self.write_line(&line)?;
        Ok(id)
    }

    /// Sends a `metrics` op (its reply lands in `rtt_ms`/`last_metrics`).
    pub fn send_metrics(&mut self) -> Result<(), String> {
        self.metrics_sent.push_back(Instant::now());
        self.write_line("{\"op\":\"metrics\"}")
    }

    /// Requests answered so far (counted by the reader as they arrive).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Requests sent and not yet answered.
    pub fn in_flight(&self) -> u64 {
        (self.next_id - 1).saturating_sub(self.completed())
    }

    /// Files every reply received so far.
    pub fn drain(&mut self) {
        while let Ok(r) = self.replies.try_recv() {
            self.file(r);
        }
    }

    /// Waits up to `timeout` for one reply and files it.
    pub fn wait_reply(&mut self, timeout: Duration) -> bool {
        match self.replies.recv_timeout(timeout) {
            Ok(r) => {
                self.file(r);
                true
            }
            Err(_) => false,
        }
    }

    fn file(&mut self, r: Reply) {
        let status = r
            .value
            .get_field("status")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        if status == "metrics" {
            if let Some(t) = self.metrics_sent.pop_front() {
                self.rtt_ms.push(r.at.duration_since(t).as_secs_f64() * 1e3);
            }
            self.last_metrics = r.value.get_field("metrics").cloned();
            self.last_metrics_at = r.at;
            return;
        }
        let id = r.value.get_field("id").and_then(Value::as_f64);
        let Some(slot) = id
            .map(|id| id as usize)
            .filter(|&id| id >= 1)
            .and_then(|id| self.sent.get_mut(id - 1))
        else {
            return;
        };
        let tokens = |key: &str| -> Option<Vec<f64>> {
            match r.value.get_field(key) {
                Some(Value::Array(items)) => Some(items.iter().filter_map(Value::as_f64).collect()),
                _ => None,
            }
        };
        slot.answer = Some(
            match (status.as_str(), tokens("tokens"), tokens("scores")) {
                ("ok", Some(t), _) => {
                    Answer::Tokens(t.into_iter().map(|v: f64| v as usize).collect())
                }
                ("ok", None, Some(s)) => {
                    Answer::Scores(s.into_iter().map(|v: f64| v as f32).collect())
                }
                _ => Answer::Failed(r.raw),
            },
        );
        slot.done = Some(r.at);
    }

    /// Waits until every request sent is answered, or `timeout` passes.
    pub fn settle(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        self.drain();
        while self.in_flight() > 0 || !self.metrics_sent.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !self.wait_reply(left) {
                break;
            }
        }
        self.drain();
    }

    /// A fresh `metrics` snapshot, waiting for its reply.
    pub fn metrics_now(&mut self, timeout: Duration) -> Result<Value, String> {
        self.send_metrics()?;
        let deadline = Instant::now() + timeout;
        while !self.metrics_sent.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !self.wait_reply(left) {
                return Err("metrics op timed out".into());
            }
        }
        self.last_metrics
            .clone()
            .ok_or("metrics reply had no payload".into())
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Requests per window for windowed p99s: ten samples lie beyond each.
pub const P99_WINDOW: usize = 1_000;

/// Accounting for one fixed-rate open-loop step.
#[derive(Debug, Clone)]
pub struct StepReport {
    pub rate: f64,
    pub sent: usize,
    pub ok: usize,
    pub rejected: usize,
    pub failed: usize,
    /// Latencies from the due time (failures infinite), ms.
    pub latencies: Vec<f64>,
    pub p50: Option<Pct>,
    pub p99: Option<Pct>,
    /// Median of the p99s of consecutive `P99_WINDOW`-request windows:
    /// one stall in one window does not move it.
    pub p99_windowed: Option<f64>,
    /// Median of the p50s of `stats::P50_WINDOWS` equal windows.
    pub p50_windowed: Option<f64>,
    /// How late the sender ran against its schedule, ms.
    pub send_lag_p50_ms: f64,
    pub send_lag_max_ms: f64,
    /// Whether in-flight requests or the server's queue depth, sampled
    /// through the step, grew.
    pub backlog_grew: bool,
}

impl StepReport {
    pub fn verdict(&self) -> stats::StepVerdict {
        stats::StepVerdict {
            rate: self.rate,
            p99_ms: self.p99.map(|p| p.value),
            backlog_grew: self.backlog_grew,
        }
    }

    pub fn describe(&self) -> String {
        let pct = |p: Option<Pct>| match p {
            Some(p) if p.value.is_finite() => format!("{:.2} ms (n={})", p.value, p.samples),
            Some(p) => format!("miss (n={})", p.samples),
            None => format!("n/a (n={})", self.latencies.len()),
        };
        format!(
            "rate {:>6.1}/s  sent {:>5} ok {:>5} rejected {:>3} failed {:>3}  p50 {}  p99 {}  send lag p50 {:.3} ms max {:.2} ms  backlog {}",
            self.rate,
            self.sent,
            self.ok,
            self.rejected,
            self.failed,
            pct(self.p50),
            pct(self.p99),
            self.send_lag_p50_ms,
            self.send_lag_max_ms,
            if self.backlog_grew { "GREW" } else { "flat" }
        )
    }
}

/// Due offsets of `n` requests at `rate`: request `i` is due at a seeded
/// uniform point of its slot `[i, i + 1) / rate`. The rate is exact and
/// bursts stay small, but sends are not periodic: a reply that waits for
/// the client's next packet (which carries its ACK) would otherwise be
/// phase-locked to the send period, and latency would come in multiples
/// of it.
pub fn jittered_offsets(rate: f64, n: usize, rng: &mut impl Rng) -> Vec<Duration> {
    (0..n)
        .map(|i| Duration::from_secs_f64((i as f64 + rng.gen_range(0.0..1.0)) / rate))
        .collect()
}

/// Runs one open-loop step: `n` requests at `rate` (see
/// [`jittered_offsets`]) from `next_spec`, with a `metrics` op every
/// `sample_every` for backlog sampling. Waits for every answer (up to
/// `drain`) before returning.
pub fn run_step(
    conn: &mut Conn,
    rate: f64,
    n: usize,
    sample_every: Duration,
    drain: Duration,
    rng: &mut impl Rng,
    next_spec: &mut dyn FnMut() -> Spec,
) -> Result<StepReport, String> {
    let first = conn.sent.len();
    let offsets = jittered_offsets(rate, n, rng);
    let start = Instant::now() + Duration::from_millis(2);
    let mut lags = Vec::with_capacity(n);
    let mut in_flight = Vec::new();
    let mut queue_depth = Vec::new();
    let mut next_sample = start;
    for offset in offsets {
        let due = start + offset;
        let spec = next_spec();
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        let sent_at = Instant::now();
        conn.send(spec, due)?;
        lags.push(sent_at.duration_since(due).as_secs_f64() * 1e3);
        if sent_at >= next_sample {
            conn.drain();
            in_flight.push(conn.in_flight() as f64);
            if let Some(m) = &conn.last_metrics {
                queue_depth.push(
                    m.get_field("queue_depth")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0),
                );
            }
            conn.send_metrics()?;
            next_sample = sent_at + sample_every;
        }
    }
    conn.settle(drain);
    let sent = &conn.sent[first..];
    let latencies: Vec<f64> = sent.iter().map(Sent::latency_ms).collect();
    let ok = sent.iter().filter(|s| s.ok()).count();
    let rejected = sent
        .iter()
        .filter(|s| matches!(&s.answer, Some(Answer::Failed(raw)) if raw.contains("\"rejected\"")))
        .count();
    let slack = (rate * 0.02).max(3.0);
    let backlog_grew =
        stats::backlog_grew(&in_flight, slack) || stats::backlog_grew(&queue_depth, slack);
    Ok(StepReport {
        rate,
        sent: n,
        ok,
        rejected,
        failed: n - ok - rejected,
        p50: stats::percentile(&latencies, 0.5),
        p99: stats::percentile(&latencies, 0.99),
        p99_windowed: stats::windowed(&latencies, P99_WINDOW, 0.99),
        p50_windowed: stats::windowed_p50(&latencies),
        latencies,
        send_lag_p50_ms: stats::median(&lags),
        send_lag_max_ms: lags.iter().cloned().fold(0.0, f64::max),
        backlog_grew,
    })
}
