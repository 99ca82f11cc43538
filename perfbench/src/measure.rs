//! One measured simulation: the timestamping job-source wrapper, the
//! deterministic fingerprint a repeat must reproduce, and the statistics the
//! report is built from.

use crate::workloads::{prepare, Workload};
use rtds_core::{JobSource, StreamOptions, StreamReport};
use rtds_graph::Job;
use rtds_sim::{EngineProfile, Histogram, MetricsRegistry, TraceEvent};
use std::time::{Duration, Instant};

/// Wraps the workload's [`JobSource`] and timestamps every pull from
/// outside the program: the start of pull `k + 1` minus the start of pull
/// `k` is the host time the simulator spent on arrival step `k` (injecting
/// job `k` and simulating everything up to the next arrival), generation of
/// the next job included.
pub struct TimedSource<S> {
    inner: S,
    origin: Instant,
    /// `(start, end)` of every pull, in ns since `origin`.
    pulls: Vec<(u64, u64)>,
}

impl<S: JobSource> TimedSource<S> {
    /// Wraps `inner`; `expected` pre-sizes the timestamp buffer so the
    /// measurement does not allocate while it runs.
    pub fn new(inner: S, origin: Instant, expected: usize) -> Self {
        TimedSource {
            inner,
            origin,
            pulls: Vec::with_capacity(expected),
        }
    }
}

impl<S: JobSource> JobSource for TimedSource<S> {
    fn next_job(&mut self) -> Option<Job> {
        let start = Instant::now();
        let job = self.inner.next_job();
        let end = Instant::now();
        self.pulls.push((
            (start - self.origin).as_nanos() as u64,
            (end - self.origin).as_nanos() as u64,
        ));
        job
    }

    fn take_metrics(&mut self) -> MetricsRegistry {
        self.inner.take_metrics()
    }
}

/// Everything a run of one seed must reproduce exactly, repeat after
/// repeat, traced or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub events_processed: u64,
    pub submitted: u64,
    pub accepted_locally: u64,
    pub accepted_distributed: u64,
    pub rejected: u64,
    pub deadline_misses: u64,
    pub unharvested_completions: u64,
    pub messages_sent: u64,
    pub messages_delivered: u64,
    pub distribution_messages: u64,
    pub harvests: u64,
    pub peak_inflight_jobs: u64,
    pub peak_queue_len: u64,
    /// Bit patterns of the simulated metrics and the final clock.
    pub finished_at: u64,
    pub guarantee_ratio: u64,
    pub messages_per_job: u64,
    pub accept_latency_p99: u64,
}

impl Fingerprint {
    fn of(report: &StreamReport) -> Fingerprint {
        Fingerprint {
            events_processed: report.events_processed,
            submitted: report.guarantee.submitted,
            accepted_locally: report.guarantee.accepted_locally,
            accepted_distributed: report.guarantee.accepted_distributed,
            rejected: report.guarantee.rejected,
            deadline_misses: report.deadline_misses(),
            unharvested_completions: report.unharvested_completions,
            messages_sent: report.stats.messages_sent,
            messages_delivered: report.stats.messages_delivered,
            distribution_messages: report.stats.named("distribution_messages"),
            harvests: report.harvests,
            peak_inflight_jobs: report.peak_inflight_jobs,
            peak_queue_len: report.peak_queue_len,
            finished_at: report.finished_at.to_bits(),
            guarantee_ratio: report.guarantee_ratio().to_bits(),
            messages_per_job: report.messages_per_job.to_bits(),
            accept_latency_p99: accept_latency_p99(report).to_bits(),
        }
    }

    /// Failed jobs: accepted jobs that missed their deadline plus accepted
    /// jobs whose completion was never harvested.
    pub fn failed_jobs(&self) -> u64 {
        self.deadline_misses + self.unharvested_completions
    }
}

/// Observability switched on for a traced repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// Plain run: what the end-to-end metrics are measured on.
    Off,
    /// Engine profiling plus the flight-recorder protocol trace.
    On,
}

/// Result of one simulation of one seed.
pub struct Repeat {
    pub fingerprint: Fingerprint,
    pub report: StreamReport,
    /// Host time to build the network, system, resources and source.
    pub setup: Duration,
    /// When `run_streaming` was called, and its host time.
    pub started: Instant,
    pub wall: Duration,
    /// `(start, end)` of every job-source pull, ns since the run started.
    pub pulls: Vec<(u64, u64)>,
    /// Engine profile (wall fields are zero unless traced).
    pub profile: EngineProfile,
    /// The protocol trace events the flight recorder kept (traced only),
    /// plus how many it recorded in total.
    pub trace_events: Vec<TraceEvent>,
    pub trace_recorded: u64,
}

impl Repeat {
    /// Host ns per arrival step: the gaps between consecutive pull starts.
    pub fn step_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.pulls.windows(2).map(|w| w[1].0 - w[0].0)
    }

    /// Host time spent inside the job source (DAG generation), in ns.
    pub fn generation_ns(&self) -> u64 {
        self.pulls.iter().map(|(s, e)| e - s).sum()
    }
}

/// Sets up and runs one simulation of `workload` for `seed`.
pub fn run_once(workload: Workload, seed: u64, tracing: Tracing) -> Repeat {
    let prepared = prepare(workload, seed);
    let mut system = prepared.system;
    if tracing == Tracing::On {
        system.enable_profiling();
        system.enable_trace();
    }
    let started = Instant::now();
    let mut source = TimedSource::new(prepared.source, started, workload.jobs() as usize + 2);
    let report = system.run_streaming(&mut source, &StreamOptions::default());
    let wall = started.elapsed();
    let (trace_events, trace_recorded) = match tracing {
        Tracing::On => (system.trace().events(), system.trace().recorded()),
        Tracing::Off => (Vec::new(), 0),
    };
    Repeat {
        fingerprint: Fingerprint::of(&report),
        profile: system.profile(),
        report,
        setup: prepared.setup,
        started,
        wall,
        pulls: source.pulls,
        trace_events,
        trace_recorded,
    }
}

/// The 99th percentile of the `accept_latency` histogram (arrival →
/// guarantee decision, simulated time units), interpolated linearly inside
/// the power-of-two bucket that holds the rank, so it moves continuously
/// with the latency distribution instead of jumping between bucket bounds.
pub fn accept_latency_p99(report: &StreamReport) -> f64 {
    interpolated_quantile(&report.metrics.histogram("accept_latency"), 0.99)
}

fn interpolated_quantile(histogram: &Histogram, q: f64) -> f64 {
    let count = histogram.count();
    if count == 0 {
        return 0.0;
    }
    let rank = (q * count as f64).ceil().clamp(1.0, count as f64);
    let mut seen = 0.0;
    for (upper, n) in histogram.nonzero_buckets() {
        let n = n as f64;
        if seen + n >= rank {
            let hi = upper.min(histogram.max());
            let lo = (upper / 2.0).max(histogram.min()).min(hi);
            return lo + (hi - lo) * (rank - seen) / n;
        }
        seen += n;
    }
    histogram.max()
}

/// Step times of every repeat of a run, pooled in fixed memory: counts in
/// logarithmic buckets 0.5% wide, so the run's footprint does not grow with
/// the number of repeats it fits into its time.
pub struct StepHistogram {
    counts: Vec<u64>,
    total: u64,
}

/// Relative width of a [`StepHistogram`] bucket.
const STEP_BUCKET: f64 = 1.005;
/// Buckets up to ~10^11 ns (100 s) per step.
const STEP_BUCKETS: usize = 5100;

impl Default for StepHistogram {
    fn default() -> Self {
        StepHistogram {
            counts: vec![0; STEP_BUCKETS],
            total: 0,
        }
    }
}

impl StepHistogram {
    /// Adds one step of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let bucket = ((ns.max(1) as f64).ln() / STEP_BUCKET.ln()) as usize;
        self.counts[bucket.min(STEP_BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// Steps recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in µs, interpolated geometrically inside its bucket.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0.0;
        for (bucket, &n) in self.counts.iter().enumerate() {
            let n = n as f64;
            if n > 0.0 && seen + n >= rank {
                let exponent = bucket as f64 + (rank - seen) / n;
                return STEP_BUCKET.powf(exponent) / 1e3;
            }
            seen += n;
        }
        0.0
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// procfs does not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
