//! Chrome-trace exporter for profiled runs.
//!
//! A run executed with `MpiConfig::trace` enabled carries, per rank, the
//! protocol event log ([`viampi_core::TraceEvent`]) and the recorded
//! intervals ([`viampi_core::Span`]) plus the whole-run metrics snapshot.
//! [`chrome_trace`] converts all of that into Chrome trace-event JSON:
//! load the file in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing` to see each rank as a timeline track with
//! connection-setup, rendezvous and collective intervals, and every
//! protocol event as an instant marker.
//!
//! Layout choices (all deterministic, so the output is byte-comparable
//! across runs — the golden-file test relies on this):
//!
//! * one process (`pid` 0, named `viampi`), one thread track per rank
//!   (`tid` = rank);
//! * spans become `"X"` (complete) events, trace events become `"i"`
//!   (thread-scoped instant) events; timestamps are virtual microseconds;
//! * the flat metrics snapshot rides along under a top-level `"metrics"`
//!   key — viewers ignore unknown keys, tooling can read the numbers
//!   without a second file.

use crate::json::{emit_f64, emit_str};
use std::fmt::Write as _;
use viampi_core::{RunReport, Span, TraceEvent};

/// One trace-event line: `"M"` metadata naming a process or thread track.
fn meta_event(out: &mut String, tid: Option<usize>, key: &str, name: &str) {
    out.push_str("{\"ph\": \"M\", \"pid\": 0, ");
    if let Some(tid) = tid {
        let _ = write!(out, "\"tid\": {tid}, ");
    }
    out.push_str("\"name\": ");
    emit_str(out, key);
    out.push_str(", \"args\": {\"name\": ");
    emit_str(out, name);
    out.push_str("}}");
}

/// One trace-event line: `"X"` complete event from a recorded [`Span`].
fn span_event(out: &mut String, tid: usize, span: &Span) {
    let _ = write!(out, "{{\"ph\": \"X\", \"pid\": 0, \"tid\": {tid}, \"ts\": ");
    emit_f64(out, span.begin.as_micros_f64());
    out.push_str(", \"dur\": ");
    emit_f64(out, span.end.since(span.begin).as_micros_f64());
    out.push_str(", \"cat\": ");
    emit_str(out, span.kind.category());
    out.push_str(", \"name\": ");
    emit_str(out, &span.kind.label());
    out.push('}');
}

/// One trace-event line: `"i"` thread-scoped instant from a [`TraceEvent`].
fn instant_event(out: &mut String, tid: usize, event: &TraceEvent) {
    let _ = write!(out, "{{\"ph\": \"i\", \"pid\": 0, \"tid\": {tid}, \"ts\": ");
    emit_f64(out, event.t.as_micros_f64());
    out.push_str(", \"s\": \"t\", \"cat\": \"protocol\", \"name\": ");
    emit_str(out, &event.kind.describe());
    out.push('}');
}

/// Render a traced run as Chrome trace-event JSON (Perfetto-loadable).
///
/// Works on any run, but only runs with `MpiConfig::trace` enabled carry
/// spans and protocol events; without it the output holds just the track
/// metadata and the metrics snapshot.
pub fn chrome_trace<R>(report: &RunReport<R>) -> String {
    let mut events: Vec<String> = Vec::new();
    let mut line = String::new();
    meta_event(&mut line, None, "process_name", "viampi");
    events.push(std::mem::take(&mut line));
    for r in &report.ranks {
        meta_event(
            &mut line,
            Some(r.rank),
            "thread_name",
            &format!("rank {}", r.rank),
        );
        events.push(std::mem::take(&mut line));
    }
    for r in &report.ranks {
        for span in &r.spans {
            span_event(&mut line, r.rank, span);
            events.push(std::mem::take(&mut line));
        }
        for event in &r.trace {
            instant_event(&mut line, r.rank, event);
            events.push(std::mem::take(&mut line));
        }
    }
    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str("    ");
        out.push_str(e);
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"metrics\": [\n");
    for (i, e) in report.metrics.entries.iter().enumerate() {
        out.push_str("    {\"name\": ");
        emit_str(&mut out, &e.name);
        let _ = write!(out, ", \"value\": {}}}", e.value);
        out.push_str(if i + 1 < report.metrics.entries.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use viampi_core::{SpanKind, TraceKind};
    use viampi_sim::SimTime;

    #[test]
    fn event_lines_are_well_formed() {
        let mut s = String::new();
        meta_event(&mut s, Some(3), "thread_name", "rank 3");
        assert_eq!(
            s,
            "{\"ph\": \"M\", \"pid\": 0, \"tid\": 3, \"name\": \"thread_name\", \
             \"args\": {\"name\": \"rank 3\"}}"
        );

        let mut s = String::new();
        span_event(
            &mut s,
            1,
            &Span {
                begin: SimTime(1_500),
                end: SimTime(4_000),
                kind: SpanKind::ConnSetup { peer: 0 },
            },
        );
        assert_eq!(
            s,
            "{\"ph\": \"X\", \"pid\": 0, \"tid\": 1, \"ts\": 1.5, \"dur\": 2.5, \
             \"cat\": \"connection\", \"name\": \"conn_setup -> 0\"}"
        );

        let mut s = String::new();
        instant_event(
            &mut s,
            0,
            &TraceEvent {
                t: SimTime(2_000),
                kind: TraceKind::ConnIssued { peer: 1 },
            },
        );
        assert_eq!(
            s,
            "{\"ph\": \"i\", \"pid\": 0, \"tid\": 0, \"ts\": 2.0, \"s\": \"t\", \
             \"cat\": \"protocol\", \"name\": \"connect -> 1 issued\"}"
        );
    }

    #[test]
    fn untraced_run_still_exports_tracks_and_metrics() {
        use viampi_core::{ConnMode, Device, Universe, WaitPolicy};
        let report = Universe::new(2, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
            .run(|mpi| {
                mpi.barrier();
                mpi.rank()
            })
            .unwrap();
        let json = chrome_trace(&report);
        assert!(json.contains("\"rank 0\""));
        assert!(json.contains("\"rank 1\""));
        assert!(json.contains("{\"name\": \"sim.events\", \"value\": "));
        assert!(json.contains("{\"name\": \"mpi.collectives\", \"value\": 2}"));
        // Trace off: no span or instant events.
        assert!(!json.contains("\"ph\": \"X\""));
        assert!(!json.contains("\"ph\": \"i\""));
        assert!(json.ends_with("  ]\n}"));
    }
}
