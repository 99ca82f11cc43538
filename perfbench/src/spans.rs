//! What the traced run records and writes out: host-time spans the harness
//! opens around its calls into each layer, and a per-phase summary of the
//! protocol's own flight-recorder trace. Both are kept in memory during the
//! run and written to `perfbench/out/` when the benchmark ends.

use rtds_sim::trace::{render_jsonl, Phase, TraceEvent, TracePayload, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One host-time span: a harness call into a layer.
struct HostSpan {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    calls: u64,
}

/// Host-time spans of one benchmark process, relative to its start.
pub struct HostSpans {
    origin: Instant,
    spans: Vec<HostSpan>,
}

impl HostSpans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        HostSpans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The recorder's clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        calls: u64,
    ) -> usize {
        self.spans.push(HostSpan {
            name: name.into(),
            parent,
            start: start - self.origin,
            end: end - self.origin,
            calls,
        });
        self.spans.len() - 1
    }

    /// Writes one JSON object per span: id, name, parent id, start and end
    /// in µs since the process started, and the calls the span covers.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"calls\":{}}}",
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
                span.calls
            );
        }
        std::fs::write(path, out)
    }
}

/// The job-scoped protocol phases, by which trace spans are counted. (The
/// §7 routing spans all fall before the first arrival, outside the window
/// the flight recorder keeps.)
pub const PHASES: [(Phase, &str); 6] = [
    (Phase::Job, "job"),
    (Phase::Acceptance, "acceptance"),
    (Phase::Enrollment, "enrollment"),
    (Phase::Mapping, "mapping"),
    (Phase::Validation, "validation"),
    (Phase::Dispatch, "dispatch"),
];

fn phase_of(payload: &TracePayload) -> Phase {
    match payload {
        TracePayload::Arrival { .. }
        | TracePayload::ArrivalDeferred { .. }
        | TracePayload::JobAccepted { .. }
        | TracePayload::Reject { .. } => Phase::Job,
        TracePayload::LocalTest { .. }
        | TracePayload::LocalAccept { .. }
        | TracePayload::LocalReject { .. } => Phase::Acceptance,
        TracePayload::AcsEnroll { .. }
        | TracePayload::AcsJoined { .. }
        | TracePayload::Unlocked { .. } => Phase::Enrollment,
        TracePayload::TrialMapping { .. } => Phase::Mapping,
        TracePayload::Validation { .. } => Phase::Validation,
        TracePayload::MappingValidated { .. }
        | TracePayload::Execute { .. }
        | TracePayload::NotSelected { .. }
        | TracePayload::PlacementFailure { .. } => Phase::Dispatch,
        TracePayload::RoutingFanout { .. } => Phase::Routing,
        TracePayload::Mark { .. } => Phase::Custom,
    }
}

/// Summary of the events the flight recorder kept (the most recent part of
/// the run, up to its ring capacity).
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Distinct spans per protocol phase, in [`PHASES`] order.
    pub spans: [u64; 6],
    /// Distinct jobs the kept events mention.
    pub jobs: u64,
    /// Events kept.
    pub events: u64,
    /// Mean ω of the kept trial mappings (None without any).
    pub mean_omega: Option<f64>,
    /// Endorsed share of (member, logical processor) pairs in the kept §10
    /// replies (None without any).
    pub endorse_ratio: Option<f64>,
}

impl TraceSummary {
    /// Summarises the kept events.
    pub fn of(events: &[TraceEvent]) -> TraceSummary {
        let mut spans: BTreeMap<Phase, BTreeSet<u64>> = BTreeMap::new();
        let mut jobs = BTreeSet::new();
        let (mut omega_sum, mut mappings) = (0.0, 0u64);
        let (mut endorsed, mut offered) = (0u64, 0u64);
        for event in events {
            spans
                .entry(phase_of(&event.payload))
                .or_default()
                .insert(event.span.0);
            if let Some(job) = event.payload.job() {
                jobs.insert(job);
            }
            match event.payload {
                TracePayload::TrialMapping { omega, .. } => {
                    omega_sum += omega;
                    mappings += 1;
                }
                TracePayload::Validation {
                    endorsable, total, ..
                } => {
                    endorsed += endorsable as u64;
                    offered += total as u64;
                }
                _ => {}
            }
        }
        let mut counts = [0u64; 6];
        for (slot, (phase, _)) in counts.iter_mut().zip(PHASES) {
            *slot = spans.get(&phase).map_or(0, |s| s.len() as u64);
        }
        TraceSummary {
            spans: counts,
            jobs: jobs.len() as u64,
            events: events.len() as u64,
            mean_omega: (mappings > 0).then(|| omega_sum / mappings as f64),
            endorse_ratio: (offered > 0).then(|| endorsed as f64 / offered as f64),
        }
    }
}

/// Writes the kept protocol events as an `rtds-trace/1` JSONL document.
pub fn write_protocol_trace(
    path: &Path,
    workload: &str,
    seed: u64,
    recorded: u64,
    events: &[TraceEvent],
) -> std::io::Result<()> {
    let metadata = [
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::U64(seed)),
        ("recorded", Value::U64(recorded)),
        ("kept", Value::U64(events.len() as u64)),
    ];
    std::fs::write(path, render_jsonl(&metadata, events))
}
