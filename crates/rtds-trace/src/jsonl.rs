//! The `rtds-trace/1` JSONL wire format.
//!
//! One JSON object per line, in the deterministic dialect of [`crate::json`]
//! (shortest-round-trip floats via `{:?}`, non-finite floats as `null`,
//! minimal escapes, compact objects, insertion-ordered keys): lines stream
//! through its scalar writers and parse with [`Json::parse`]. The first line
//! is a self-contained header:
//!
//! ```text
//! {"schema":"rtds-trace/1","scenario":"paper-baseline","seed":42}
//! ```
//!
//! followed by one event per line:
//!
//! ```text
//! {"t":0.0,"site":0,"span":17052..,"parent":0,"kind":"arrival","job":10,"tasks":3,"deadline":70.0}
//! ```
//!
//! Because the writer and [`parse_event_line`] agree field-for-field and the
//! float formats are shortest-round-trip, record → parse → re-render is a
//! byte fixpoint — mirroring the `rtds-workload-trace/1` design.

use crate::event::{Arg, DeferReason, RejectReason, TraceEvent, TracePayload};
use crate::json::{write_escaped, write_f64, Json};
use crate::span::SpanId;
use std::fmt::Write as _;

/// Schema tag written into (and required in) every trace header.
pub const TRACE_SCHEMA: &str = "rtds-trace/1";

/// An owned header-metadata value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(u) => {
            let _ = write!(out, "{u}");
        }
        Value::F64(x) => write_f64(out, *x),
        Value::Str(s) => write_escaped(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Appends one payload field as `,"name":value` — shared with the chrome
/// exporter's `args`.
pub(crate) fn write_arg_field(out: &mut String, name: &str, arg: Arg) {
    out.push(',');
    write_escaped(out, name);
    out.push(':');
    match arg {
        Arg::U64(u) => {
            let _ = write!(out, "{u}");
        }
        Arg::F64(x) => write_f64(out, x),
        Arg::Str(s) => write_escaped(out, s),
        Arg::Bool(b) => out.push_str(if b { "true" } else { "false" }),
    }
}

/// Renders the header line (without trailing newline): the schema field
/// first, then `metadata` in the given order.
pub fn header_line(metadata: &[(&str, Value)]) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"schema\":");
    write_escaped(&mut out, TRACE_SCHEMA);
    for (key, value) in metadata {
        out.push(',');
        write_escaped(&mut out, key);
        out.push(':');
        write_value(&mut out, value);
    }
    out.push('}');
    out
}

/// Appends one event line (without trailing newline) to `out`.
pub fn write_event_line(out: &mut String, event: &TraceEvent) {
    out.push_str("{\"t\":");
    write_f64(out, event.time);
    let _ = write!(
        out,
        ",\"site\":{},\"span\":{},\"parent\":{},\"kind\":",
        event.site, event.span.0, event.parent.0
    );
    write_escaped(out, event.kind());
    event
        .payload
        .for_each_arg(&mut |name, arg| write_arg_field(out, name, arg));
    out.push('}');
}

/// Renders a complete trace document: header plus one line per event, each
/// newline-terminated.
pub fn render_jsonl(metadata: &[(&str, Value)], events: &[TraceEvent]) -> String {
    render_jsonl_with_header(&header_line(metadata), events)
}

/// Renders a trace document reusing an existing header line verbatim — the
/// re-render half of the byte-fixpoint round trip.
pub fn render_jsonl_with_header(header: &str, events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(header.len() + 1 + events.len() * 96);
    out.push_str(header);
    out.push('\n');
    for event in events {
        write_event_line(&mut out, event);
        out.push('\n');
    }
    out
}

/// One parsed line with typed field reads as strict as the writer: an
/// integer field takes only an unsigned-integer token, a float field also
/// takes an integer token and maps `null` (a non-finite float) to NaN.
struct Line(Json);

impl Line {
    fn parse(line: &str) -> Result<Line, String> {
        match Json::parse(line).map_err(|e| e.to_string())? {
            obj @ Json::Object(_) => Ok(Line(obj)),
            other => Err(format!("expected a JSON object, got {other:?}")),
        }
    }

    fn u64_field(&self, name: &str) -> Result<u64, String> {
        match self.0.get(name) {
            Some(Json::UInt(u)) => Ok(*u),
            other => Err(format!("field {name:?}: expected integer, got {other:?}")),
        }
    }

    fn u32_field(&self, name: &str) -> Result<u32, String> {
        let u = self.u64_field(name)?;
        u32::try_from(u).map_err(|_| format!("field {name:?}: {u} exceeds u32"))
    }

    fn f64_field(&self, name: &str) -> Result<f64, String> {
        match self.0.get(name) {
            Some(Json::Num(x)) => Ok(*x),
            Some(Json::UInt(u)) => Ok(*u as f64),
            Some(Json::Null) => Ok(f64::NAN),
            other => Err(format!("field {name:?}: expected number, got {other:?}")),
        }
    }

    fn str_field(&self, name: &str) -> Result<&str, String> {
        match self.0.get(name) {
            Some(Json::Str(s)) => Ok(s),
            other => Err(format!("field {name:?}: expected string, got {other:?}")),
        }
    }

    fn bool_field(&self, name: &str) -> Result<bool, String> {
        match self.0.get(name) {
            Some(Json::Bool(b)) => Ok(*b),
            other => Err(format!("field {name:?}: expected bool, got {other:?}")),
        }
    }
}

fn payload_from(kind: &str, obj: &Line) -> Result<TracePayload, String> {
    let payload = match kind {
        "arrival" => TracePayload::Arrival {
            job: obj.u64_field("job")?,
            tasks: obj.u32_field("tasks")?,
            deadline: obj.f64_field("deadline")?,
        },
        "arrival-deferred" => TracePayload::ArrivalDeferred {
            job: obj.u64_field("job")?,
            reason: {
                let wire = obj.str_field("reason")?;
                DeferReason::from_wire(wire)
                    .ok_or_else(|| format!("unknown defer reason {wire:?}"))?
            },
        },
        "local-test" => TracePayload::LocalTest {
            job: obj.u64_field("job")?,
            tasks: obj.u32_field("tasks")?,
            deadline: obj.f64_field("deadline")?,
        },
        "local-accept" => TracePayload::LocalAccept {
            job: obj.u64_field("job")?,
            completion: obj.f64_field("completion")?,
        },
        "local-reject" => TracePayload::LocalReject {
            job: obj.u64_field("job")?,
        },
        "acs-enroll" => TracePayload::AcsEnroll {
            job: obj.u64_field("job")?,
            peers: obj.u32_field("peers")?,
        },
        "acs-joined" => TracePayload::AcsJoined {
            job: obj.u64_field("job")?,
            initiator: obj.u32_field("initiator")?,
            surplus: obj.f64_field("surplus")?,
        },
        "trial-mapping" => TracePayload::TrialMapping {
            job: obj.u64_field("job")?,
            used: obj.u32_field("used")?,
            makespan: obj.f64_field("makespan")?,
            makespan_star: obj.f64_field("makespan_star")?,
            omega: obj.f64_field("omega")?,
        },
        "validation" => TracePayload::Validation {
            job: obj.u64_field("job")?,
            endorsable: obj.u32_field("endorsable")?,
            total: obj.u32_field("total")?,
        },
        "mapping-validated" => TracePayload::MappingValidated {
            job: obj.u64_field("job")?,
            coupling: obj.u32_field("coupling")?,
        },
        "job-accepted" => TracePayload::JobAccepted {
            job: obj.u64_field("job")?,
            distributed: obj.bool_field("distributed")?,
        },
        "reject" => TracePayload::Reject {
            job: obj.u64_field("job")?,
            reason: match obj.str_field("reason")? {
                "empty-sphere" => RejectReason::EmptySphere,
                "mapper-failed" => RejectReason::MapperFailed,
                "adjustment-window" => RejectReason::AdjustmentWindow,
                "coupling-too-small" => RejectReason::CouplingTooSmall {
                    size: obj.u32_field("size")?,
                    required: obj.u32_field("required")?,
                },
                other => return Err(format!("unknown reject reason {other:?}")),
            },
        },
        "execute" => TracePayload::Execute {
            job: obj.u64_field("job")?,
            logical: obj.u32_field("logical")?,
        },
        "not-selected" => TracePayload::NotSelected {
            job: obj.u64_field("job")?,
        },
        "placement-failure" => TracePayload::PlacementFailure {
            job: obj.u64_field("job")?,
        },
        "unlocked" => TracePayload::Unlocked {
            job: obj.u64_field("job")?,
        },
        "routing-fanout" => TracePayload::RoutingFanout {
            phase: obj.u32_field("phase")?,
            fanout: obj.u32_field("fanout")?,
        },
        "mark" => TracePayload::Mark {
            tag: obj.u32_field("tag")?,
            value: obj.f64_field("value")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(payload)
}

/// Parses one event line back into a [`TraceEvent`].
pub fn parse_event_line(line: &str) -> Result<TraceEvent, String> {
    let obj = Line::parse(line)?;
    Ok(TraceEvent {
        time: obj.f64_field("t")?,
        site: obj.u32_field("site")?,
        span: SpanId(obj.u64_field("span")?),
        parent: SpanId(obj.u64_field("parent")?),
        payload: payload_from(obj.str_field("kind")?, &obj)?,
    })
}

/// Parses a whole trace document, returning the raw header line and every
/// event. Errors (rather than panics) so tools can report bad inputs.
pub fn read_jsonl(text: &str) -> Result<(String, Vec<TraceEvent>), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty trace document")?.to_string();
    let obj = Line::parse(&header).map_err(|e| format!("header: {e}"))?;
    let schema = obj
        .str_field("schema")
        .map_err(|e| format!("header: {e}"))?;
    if schema != TRACE_SCHEMA {
        return Err(format!(
            "unsupported trace schema {schema:?} (expected {TRACE_SCHEMA:?})"
        ));
    }
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = parse_event_line(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        events.push(event);
    }
    Ok((header, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Phase;

    fn sample_events() -> Vec<TraceEvent> {
        let root = SpanId::job_root(10);
        let acc = SpanId::derive(10, Phase::Acceptance, 0, 0);
        vec![
            TraceEvent {
                time: 0.0,
                site: 0,
                span: root,
                parent: SpanId::NONE,
                payload: TracePayload::Arrival {
                    job: 10,
                    tasks: 3,
                    deadline: 70.0,
                },
            },
            TraceEvent {
                time: 0.0,
                site: 0,
                span: acc,
                parent: root,
                payload: TracePayload::LocalTest {
                    job: 10,
                    tasks: 3,
                    deadline: 70.0,
                },
            },
            TraceEvent {
                time: 0.125,
                site: 2,
                span: SpanId::derive(10, Phase::Enrollment, 2, 0),
                parent: SpanId::derive(10, Phase::Enrollment, 0, 0),
                payload: TracePayload::AcsJoined {
                    job: 10,
                    initiator: 0,
                    surplus: 12.5,
                },
            },
            TraceEvent {
                time: 1.5,
                site: 0,
                span: root,
                parent: SpanId::NONE,
                payload: TracePayload::Reject {
                    job: 10,
                    reason: RejectReason::CouplingTooSmall {
                        size: 1,
                        required: 3,
                    },
                },
            },
        ]
    }

    #[test]
    fn record_then_rerender_is_a_byte_fixpoint() {
        let metadata = [
            ("scenario", Value::Str("paper-baseline".to_string())),
            ("seed", Value::U64(42)),
        ];
        let doc = render_jsonl(&metadata, &sample_events());
        let (header, events) = read_jsonl(&doc).unwrap();
        assert_eq!(events, sample_events());
        let again = render_jsonl_with_header(&header, &events);
        assert_eq!(doc, again);
    }

    /// One event line per payload variant (and per reason of each).
    fn every_variant_line() -> Vec<(TraceEvent, String)> {
        let variants = vec![
            TracePayload::Arrival {
                job: 1,
                tasks: 2,
                deadline: 3.5,
            },
            TracePayload::ArrivalDeferred {
                job: 1,
                reason: DeferReason::SiteLocked,
            },
            TracePayload::ArrivalDeferred {
                job: 1,
                reason: DeferReason::PcsConstruction,
            },
            TracePayload::LocalTest {
                job: 1,
                tasks: 2,
                deadline: 3.5,
            },
            TracePayload::LocalAccept {
                job: 1,
                completion: 9.25,
            },
            TracePayload::LocalReject { job: 1 },
            TracePayload::AcsEnroll { job: 1, peers: 4 },
            TracePayload::AcsJoined {
                job: 1,
                initiator: 2,
                surplus: 0.5,
            },
            TracePayload::TrialMapping {
                job: 1,
                used: 2,
                makespan: 10.0,
                makespan_star: 8.0,
                omega: 1.5,
            },
            TracePayload::Validation {
                job: 1,
                endorsable: 2,
                total: 3,
            },
            TracePayload::MappingValidated {
                job: 1,
                coupling: 3,
            },
            TracePayload::JobAccepted {
                job: 1,
                distributed: true,
            },
            TracePayload::JobAccepted {
                job: 1,
                distributed: false,
            },
            TracePayload::Reject {
                job: 1,
                reason: RejectReason::EmptySphere,
            },
            TracePayload::Reject {
                job: 1,
                reason: RejectReason::MapperFailed,
            },
            TracePayload::Reject {
                job: 1,
                reason: RejectReason::AdjustmentWindow,
            },
            TracePayload::Reject {
                job: 1,
                reason: RejectReason::CouplingTooSmall {
                    size: 1,
                    required: 2,
                },
            },
            TracePayload::Execute { job: 1, logical: 0 },
            TracePayload::NotSelected { job: 1 },
            TracePayload::PlacementFailure { job: 1 },
            TracePayload::Unlocked { job: 1 },
            TracePayload::RoutingFanout {
                phase: 2,
                fanout: 5,
            },
            TracePayload::Mark {
                tag: 7,
                value: 0.75,
            },
        ];
        variants
            .into_iter()
            .enumerate()
            .map(|(i, payload)| {
                let event = TraceEvent {
                    time: i as f64 + 0.5,
                    site: i as u32,
                    span: SpanId::derive(1, Phase::Custom, i as u32, 0),
                    parent: SpanId::NONE,
                    payload,
                };
                let mut line = String::new();
                write_event_line(&mut line, &event);
                (event, line)
            })
            .collect()
    }

    #[test]
    fn every_payload_variant_round_trips() {
        for (i, (event, line)) in every_variant_line().into_iter().enumerate() {
            let parsed = parse_event_line(&line).unwrap();
            assert_eq!(parsed, event, "variant {i} failed to round-trip");
            let mut again = String::new();
            write_event_line(&mut again, &parsed);
            assert_eq!(line, again, "variant {i} is not a byte fixpoint");
        }
    }

    #[test]
    fn truncated_lines_are_errors_not_panics() {
        for (_, line) in every_variant_line() {
            for end in 0..line.len() {
                let prefix = &line[..end];
                assert!(parse_event_line(prefix).is_err(), "{prefix:?} parsed");
            }
        }
    }

    #[test]
    fn integer_fields_reject_float_tokens_and_u32_overflow() {
        let mut line = String::new();
        write_event_line(&mut line, &sample_events()[0]);
        assert!(line.contains("\"site\":0,") && line.contains("\"job\":10,"));
        let float_job = line.replace("\"job\":10,", "\"job\":3.0,");
        assert!(parse_event_line(&float_job).is_err());
        let max_site = line.replace("\"site\":0,", &format!("\"site\":{},", u32::MAX));
        assert_eq!(parse_event_line(&max_site).unwrap().site, u32::MAX);
        let wide_site = line.replace(
            "\"site\":0,",
            &format!("\"site\":{},", u64::from(u32::MAX) + 1),
        );
        assert!(parse_event_line(&wide_site).is_err());
    }

    #[test]
    fn reader_rejects_a_wrong_schema() {
        assert!(read_jsonl("{\"schema\":\"rtds-workload-trace/1\"}\n").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let header = header_line(&[("label", Value::Str("a\"b\\c\nd\te\u{1}".to_string()))]);
        let obj = Line::parse(&header).unwrap();
        assert_eq!(obj.str_field("label"), Ok("a\"b\\c\nd\te\u{1}"));
    }
}
