//! Exporters: Chrome `trace_event` JSON (loadable in `chrome://tracing`
//! and Perfetto) and a per-point metrics CSV.
//!
//! Chrome-trace layout:
//! * **pid 1 "query spans"** — one tid per completed span.  Each span
//!   gets an `X` slice named `span` carrying its identity (span/parent
//!   ids, service, outcome, root flag), plus one `X` slice per lifecycle
//!   phase so a query's latency decomposes visually into the phases the
//!   paper argues about.
//! * **pid 2 "queues + events"** — `C` counter tracks for queue depths
//!   and runnable counts; `i` instants for drops, handshakes and cache
//!   hits/misses.
//! * **pid 3 "flows"** — one `X` slice per network flow.
//!
//! Event-loop `Dispatch` events are *not* exported to the Chrome view
//! (they would dwarf everything else); they are counted in the
//! top-level `gridmon.dispatch_count` field.

use crate::events::{Ev, Phase, TraceEvent};
use crate::json::{escape, F64};
use crate::metrics::MetricRow;
use simcore::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Run-level context stamped into a trace file so the inspector can
/// cross-check the trace against the figure measurement it came from.
#[derive(Debug, Clone)]
pub struct TraceMeta {
    /// Sweep-point key, e.g. `set1/MDS users/x=10`.
    pub key: String,
    /// The x-value of the point.
    pub x: f64,
    /// The derived per-point seed.
    pub seed: u64,
    /// Measurement window start.
    pub window_start: SimTime,
    /// Measurement window end.
    pub window_end: SimTime,
    /// The mean response time the figure pipeline reported, in µs.
    pub mean_response_time_us: f64,
    /// Completed-query count the figure pipeline reported.
    pub completions: u64,
    /// Refused-connection count the figure pipeline reported.
    pub refused: u64,
    /// Service labels, indexed by service slot.
    pub services: Vec<String>,
    /// Node names, indexed by node id.
    pub nodes: Vec<String>,
}

/// A reassembled query span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub svc: u32,
    pub oneway: bool,
    pub begin: SimTime,
    /// `None` while still in flight at harvest time.
    pub end: Option<SimTime>,
    pub outcome: Option<&'static str>,
    /// `(phase, entered_at)` transitions, in order.
    pub phases: Vec<(Phase, SimTime)>,
}

/// Reassemble spans from the event stream (dispatch order).
pub fn assemble_spans(events: &[TraceEvent]) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    for e in events {
        match e.ev {
            Ev::SpanBegin {
                span,
                parent,
                svc,
                oneway,
            } => {
                index.insert(span, spans.len());
                spans.push(Span {
                    id: span,
                    parent,
                    svc,
                    oneway,
                    begin: e.at,
                    end: None,
                    outcome: None,
                    phases: Vec::new(),
                });
            }
            Ev::SpanPhase { span, phase } => {
                if let Some(&i) = index.get(&span) {
                    spans[i].phases.push((phase, e.at));
                }
            }
            Ev::SpanEnd { span, outcome } => {
                if let Some(&i) = index.get(&span) {
                    spans[i].end = Some(e.at);
                    spans[i].outcome = Some(outcome.name());
                }
            }
            _ => {}
        }
    }
    spans
}

fn svc_label(meta: &TraceMeta, svc: u32) -> String {
    meta.services
        .get(svc as usize)
        .cloned()
        .unwrap_or_else(|| format!("svc{svc}"))
}

fn node_label(meta: &TraceMeta, node: u32) -> String {
    meta.nodes
        .get(node as usize)
        .cloned()
        .unwrap_or_else(|| format!("node{node}"))
}

/// Render a full Chrome `trace_event` JSON document.
pub fn chrome_trace(meta: &TraceMeta, events: &[TraceEvent], dropped: u64) -> String {
    let spans = assemble_spans(events);
    let dispatch_count = events
        .iter()
        .filter(|e| matches!(e.ev, Ev::Dispatch { .. }))
        .count() as u64;

    let mut out = String::with_capacity(events.len() * 64 + 4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"gridmon\":{");
    let _ = write!(
        out,
        "\"key\":\"{}\",\"x\":{},\"seed\":{},\"window_start_us\":{},\"window_end_us\":{},\"mean_response_time_us\":{},\"completions\":{},\"refused\":{},\"events\":{},\"events_dropped\":{dropped},\"dispatch_count\":{dispatch_count}",
        escape(&meta.key),
        F64(meta.x),
        meta.seed,
        meta.window_start.as_micros(),
        meta.window_end.as_micros(),
        F64(meta.mean_response_time_us),
        meta.completions,
        meta.refused,
        events.len()
    );
    out.push_str(",\"services\":[");
    for (i, s) in meta.services.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", escape(s));
    }
    out.push_str("],\"nodes\":[");
    for (i, n) in meta.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", escape(n));
    }
    out.push_str("]},\"traceEvents\":[");

    let mut first = true;
    let mut emit = |piece: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&piece);
    };

    // Process names.
    for (pid, name) in [(1, "query spans"), (2, "queues + events"), (3, "flows")] {
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            ),
            &mut out,
        );
    }

    // Completed spans: identity slice plus one slice per phase segment.
    let mut tid = 0u64;
    for s in &spans {
        let Some(end) = s.end else { continue };
        tid += 1;
        let begin_us = s.begin.as_micros();
        let dur = end.as_micros() - begin_us;
        let mut args = String::new();
        let _ = write!(args, "{{\"span\":{},\"parent\":", s.id);
        match s.parent {
            Some(p) => {
                let _ = write!(args, "{p}");
            }
            None => args.push_str("null"),
        }
        let _ = write!(
            args,
            ",\"svc\":\"{}\",\"oneway\":{},\"outcome\":\"{}\",\"root\":{}}}",
            escape(&svc_label(meta, s.svc)),
            s.oneway,
            s.outcome.unwrap_or("unknown"),
            s.parent.is_none()
        );
        emit(
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{begin_us},\"dur\":{dur},\"name\":\"span\",\"cat\":\"span\",\"args\":{args}}}"
            ),
            &mut out,
        );
        for (i, &(phase, at)) in s.phases.iter().enumerate() {
            let seg_end = s
                .phases
                .get(i + 1)
                .map(|&(_, t)| t)
                .unwrap_or(end)
                .as_micros();
            let at_us = at.as_micros();
            emit(
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{at_us},\"dur\":{},\"name\":\"{}\",\"cat\":\"phase\",\"args\":{{\"span\":{}}}}}",
                    seg_end - at_us,
                    phase.name(),
                    s.id
                ),
                &mut out,
            );
        }
    }

    // Counters and instants.
    for e in events {
        let ts = e.at.as_micros();
        match e.ev {
            Ev::ConnQueue { svc, depth } => emit(
                format!(
                    "{{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"ts\":{ts},\"name\":\"conn_backlog {}\",\"args\":{{\"depth\":{depth}}}}}",
                    escape(&svc_label(meta, svc))
                ),
                &mut out,
            ),
            Ev::WorkerQueue { svc, depth } => emit(
                format!(
                    "{{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"ts\":{ts},\"name\":\"worker_queue {}\",\"args\":{{\"depth\":{depth}}}}}",
                    escape(&svc_label(meta, svc))
                ),
                &mut out,
            ),
            Ev::LockQueue { lock, depth } => emit(
                format!(
                    "{{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"ts\":{ts},\"name\":\"lock_queue {lock}\",\"args\":{{\"depth\":{depth}}}}}"
                ),
                &mut out,
            ),
            Ev::CpuResched { node, runnable } => emit(
                format!(
                    "{{\"ph\":\"C\",\"pid\":2,\"tid\":0,\"ts\":{ts},\"name\":\"cpu_runnable {}\",\"args\":{{\"depth\":{runnable}}}}}",
                    escape(&node_label(meta, node))
                ),
                &mut out,
            ),
            Ev::ConnDrop { svc }
            | Ev::GsiHandshake { svc }
            | Ev::CacheHit { svc }
            | Ev::CacheMiss { svc }
            | Ev::FaultCrash { svc }
            | Ev::FaultRestart { svc }
            | Ev::FaultFreeze { svc }
            | Ev::FaultDropBurst { svc } => emit(
                format!(
                    "{{\"ph\":\"i\",\"pid\":2,\"tid\":0,\"ts\":{ts},\"s\":\"g\",\"name\":\"{} {}\"}}",
                    e.ev.name(),
                    escape(&svc_label(meta, svc))
                ),
                &mut out,
            ),
            Ev::FaultPartition { link } | Ev::FaultHeal { link } => emit(
                format!(
                    "{{\"ph\":\"i\",\"pid\":2,\"tid\":0,\"ts\":{ts},\"s\":\"g\",\"name\":\"{} link{link}\"}}",
                    e.ev.name()
                ),
                &mut out,
            ),
            _ => {}
        }
    }

    // Flows: pair FlowStart/FlowEnd into slices on pid 3.
    let mut open_flows: BTreeMap<u64, (SimTime, u64)> = BTreeMap::new();
    let mut flow_tid = 0u64;
    for e in events {
        match e.ev {
            Ev::FlowStart { flow, bytes } => {
                open_flows.insert(flow, (e.at, bytes));
            }
            Ev::FlowEnd { flow } => {
                if let Some((start, bytes)) = open_flows.remove(&flow) {
                    flow_tid += 1;
                    let ts = start.as_micros();
                    emit(
                        format!(
                            "{{\"ph\":\"X\",\"pid\":3,\"tid\":{flow_tid},\"ts\":{ts},\"dur\":{},\"name\":\"flow\",\"cat\":\"flow\",\"args\":{{\"flow\":{flow},\"bytes\":{bytes}}}}}",
                            e.at.as_micros() - ts
                        ),
                        &mut out,
                    );
                }
            }
            _ => {}
        }
    }

    out.push_str("]}");
    out
}

/// Render a metrics snapshot as CSV.
pub fn metrics_csv(rows: &[MetricRow]) -> String {
    let mut out = String::from("metric,kind,total,window,mean,max,p50,p90,p99\n");
    for r in rows {
        let _ = write!(out, "{},{}", r.name, r.kind);
        for v in [r.total, r.window, r.mean, r.max, r.p50, r.p90, r.p99] {
            let _ = write!(out, ",{}", F64(v));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Outcome;
    use crate::json;

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                at: t(100),
                ev: Ev::SpanBegin {
                    span: 7,
                    parent: None,
                    svc: 0,
                    oneway: false,
                },
            },
            TraceEvent {
                at: t(100),
                ev: Ev::SpanPhase {
                    span: 7,
                    phase: Phase::SynFlow,
                },
            },
            TraceEvent {
                at: t(150),
                ev: Ev::SpanPhase {
                    span: 7,
                    phase: Phase::ServerCpu,
                },
            },
            TraceEvent {
                at: t(130),
                ev: Ev::FlowStart {
                    flow: 3,
                    bytes: 600,
                },
            },
            TraceEvent {
                at: t(170),
                ev: Ev::FlowEnd { flow: 3 },
            },
            TraceEvent {
                at: t(180),
                ev: Ev::ConnQueue { svc: 0, depth: 2 },
            },
            TraceEvent {
                at: t(200),
                ev: Ev::SpanEnd {
                    span: 7,
                    outcome: Outcome::Ok,
                },
            },
        ]
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            key: "set1/MDS users/x=10".into(),
            x: 10.0,
            seed: 42,
            window_start: t(0),
            window_end: t(1000),
            mean_response_time_us: 100.0,
            completions: 1,
            refused: 0,
            services: vec!["gris@mds-host".into()],
            nodes: vec!["mds-host".into()],
        }
    }

    #[test]
    fn spans_assemble_with_phases() {
        let spans = assemble_spans(&sample_events());
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.id, 7);
        assert_eq!(s.begin, t(100));
        assert_eq!(s.end, Some(t(200)));
        assert_eq!(s.outcome, Some("ok"));
        assert_eq!(s.phases.len(), 2);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_shape() {
        let doc = chrome_trace(&meta(), &sample_events(), 5);
        let v = json::parse(&doc).expect("valid JSON");
        let g = v.get("gridmon").unwrap();
        assert_eq!(g.get("events_dropped").unwrap().as_f64(), Some(5.0));
        assert_eq!(g.get("completions").unwrap().as_f64(), Some(1.0));
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 process metadata + 1 span + 2 phases + 1 counter + 1 flow.
        assert_eq!(evs.len(), 8);
        let span = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("span"))
            .unwrap();
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(100.0));
        assert_eq!(
            span.get("args").unwrap().get("svc").unwrap().as_str(),
            Some("gris@mds-host")
        );
        // Phase segments partition [begin, end]: 50 + 50 = 100.
        let phase_dur: f64 = evs
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("phase"))
            .map(|e| e.get("dur").unwrap().as_f64().unwrap())
            .sum();
        assert_eq!(phase_dur, 100.0);
    }

    #[test]
    fn metrics_csv_has_header_and_rows() {
        let rows = vec![MetricRow {
            name: "mds.ldap_searches".into(),
            kind: "counter",
            total: 12.0,
            window: 7.0,
            mean: 0.0,
            max: 0.0,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
        }];
        let csv = metrics_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("metric,kind,total,window,mean,max,p50,p90,p99")
        );
        assert_eq!(
            lines.next(),
            Some("mds.ldap_searches,counter,12,7,0,0,0,0,0")
        );
    }
}
