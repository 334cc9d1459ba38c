//! Trace inspection: turn a Chrome-trace JSON document back into the
//! summary a human wants — per-phase latency breakdown, top queues by
//! time-weighted depth, and drop causes — plus the self-check the CI
//! fixture runs.

use crate::json::{self, Val};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One phase's share of root-query latency.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    pub phase: String,
    /// Mean µs spent in this phase per included query.
    pub mean_us: f64,
    /// Fraction of the summed phase time.
    pub share: f64,
}

/// One queue's time-weighted depth statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueRow {
    pub name: String,
    pub mean_depth: f64,
    pub max_depth: f64,
}

/// One drop/instant cause and how often it fired.
#[derive(Debug, Clone, PartialEq)]
pub struct CauseRow {
    pub cause: String,
    pub count: u64,
}

/// Everything `gridmon-inspect` prints about one trace.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    pub key: String,
    pub x: f64,
    pub seed: u64,
    pub window_us: (u64, u64),
    /// All spans in the trace (including children and one-ways).
    pub spans_total: u64,
    /// Root, non-oneway, successful spans ending inside the window —
    /// the population the figure's mean response time is computed over.
    pub queries: u64,
    /// Mean duration of those spans, µs.
    pub mean_rt_us: f64,
    /// Sum of per-phase means, µs (should equal `mean_rt_us`).
    pub phase_sum_us: f64,
    /// The mean response time the figure pipeline reported, µs.
    pub reported_rt_us: f64,
    pub reported_completions: u64,
    pub refused: u64,
    pub events_dropped: u64,
    pub dispatch_count: u64,
    pub phases: Vec<PhaseRow>,
    pub queues: Vec<QueueRow>,
    pub causes: Vec<CauseRow>,
}

fn need_f64(v: &Val, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Val::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

/// Parse a Chrome-trace JSON document produced by
/// [`crate::export::chrome_trace`] into a summary.
pub fn summarize(trace_json: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(trace_json)?;
    let meta = doc
        .get("gridmon")
        .ok_or_else(|| "not a gridmon trace: no `gridmon` metadata".to_string())?;
    let ws = need_f64(meta, "window_start_us")? as u64;
    let we = need_f64(meta, "window_end_us")? as u64;
    let events = doc
        .get("traceEvents")
        .and_then(Val::as_arr)
        .ok_or_else(|| "no traceEvents array".to_string())?;

    // Pass 1: which spans count as measured queries (root, two-way, ok,
    // completing inside the window — what `StatsHub::record_completion`
    // counts).
    let mut included: BTreeMap<u64, bool> = BTreeMap::new();
    let mut spans_total = 0u64;
    let mut rt_sum = 0.0f64;
    let mut outcome_counts: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        if e.get("cat").and_then(Val::as_str) != Some("span") {
            continue;
        }
        spans_total += 1;
        let args = e.get("args").ok_or("span without args")?;
        let outcome = args
            .get("outcome")
            .and_then(Val::as_str)
            .unwrap_or("unknown");
        let root = args.get("root").and_then(Val::as_bool).unwrap_or(false);
        let oneway = args.get("oneway").and_then(Val::as_bool).unwrap_or(false);
        if root && !oneway {
            *outcome_counts.entry(outcome.to_string()).or_insert(0) += 1;
        }
        let ts = need_f64(e, "ts")?;
        let dur = need_f64(e, "dur")?;
        let end = ts + dur;
        if root && !oneway && outcome == "ok" && end >= ws as f64 && end < we as f64 {
            let id = args
                .get("span")
                .and_then(Val::as_f64)
                .ok_or("span without id")? as u64;
            included.insert(id, true);
            rt_sum += dur;
        }
    }
    let queries = included.len() as u64;

    // Pass 2: phase slices of included spans.
    let mut phase_sums: BTreeMap<String, f64> = BTreeMap::new();
    for e in events {
        if e.get("cat").and_then(Val::as_str) != Some("phase") {
            continue;
        }
        let id = e
            .get("args")
            .and_then(|a| a.get("span"))
            .and_then(Val::as_f64)
            .ok_or("phase slice without span id")? as u64;
        if !included.contains_key(&id) {
            continue;
        }
        let dur = need_f64(e, "dur")?;
        let name = e
            .get("name")
            .and_then(Val::as_str)
            .ok_or("phase slice without name")?;
        *phase_sums.entry(name.to_string()).or_insert(0.0) += dur;
    }

    // Pass 3: counter tracks → time-weighted depth over the trace; the
    // signal holds its value between updates and is integrated up to the
    // window end.
    struct Track {
        first: f64,
        last: f64,
        value: f64,
        area: f64,
        max: f64,
    }
    let mut tracks: BTreeMap<String, Track> = BTreeMap::new();
    let mut causes: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        match e.get("ph").and_then(Val::as_str) {
            Some("C") => {
                let name = e.get("name").and_then(Val::as_str).unwrap_or("?");
                let ts = need_f64(e, "ts")?;
                let depth = e
                    .get("args")
                    .and_then(|a| a.get("depth"))
                    .and_then(Val::as_f64)
                    .unwrap_or(0.0);
                if let Some(t) = tracks.get_mut(name) {
                    t.area += t.value * (ts - t.last).max(0.0);
                    t.last = ts;
                    t.value = depth;
                    t.max = t.max.max(depth);
                } else {
                    tracks.insert(
                        name.to_string(),
                        Track {
                            first: ts,
                            last: ts,
                            value: depth,
                            area: 0.0,
                            max: depth,
                        },
                    );
                }
            }
            Some("i") => {
                let name = e.get("name").and_then(Val::as_str).unwrap_or("?");
                *causes.entry(name.to_string()).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    let mut queues: Vec<QueueRow> = tracks
        .into_iter()
        .map(|(name, t)| {
            let horizon = (we as f64).max(t.last);
            let span = horizon - t.first;
            let area = t.area + t.value * (horizon - t.last);
            QueueRow {
                name,
                mean_depth: if span > 0.0 { area / span } else { t.value },
                max_depth: t.max,
            }
        })
        .collect();
    queues.sort_by(|a, b| {
        b.mean_depth
            .total_cmp(&a.mean_depth)
            .then(a.name.cmp(&b.name))
    });

    let mean_rt_us = if queries == 0 {
        0.0
    } else {
        rt_sum / queries as f64
    };
    let phase_sum_us: f64 = if queries == 0 {
        0.0
    } else {
        phase_sums.values().sum::<f64>() / queries as f64
    };
    let mut phases: Vec<PhaseRow> = phase_sums
        .iter()
        .map(|(name, &sum)| PhaseRow {
            phase: name.clone(),
            mean_us: if queries == 0 {
                0.0
            } else {
                sum / queries as f64
            },
            share: if phase_sum_us > 0.0 && queries > 0 {
                (sum / queries as f64) / phase_sum_us
            } else {
                0.0
            },
        })
        .collect();
    phases.sort_by(|a, b| b.mean_us.total_cmp(&a.mean_us).then(a.phase.cmp(&b.phase)));

    let mut cause_rows: Vec<CauseRow> = causes
        .into_iter()
        .map(|(cause, count)| CauseRow { cause, count })
        .collect();
    for (outcome, count) in &outcome_counts {
        if outcome != "ok" {
            cause_rows.push(CauseRow {
                cause: format!("span outcome: {outcome}"),
                count: *count,
            });
        }
    }
    cause_rows.sort_by(|a, b| b.count.cmp(&a.count).then(a.cause.cmp(&b.cause)));

    Ok(TraceSummary {
        key: meta
            .get("key")
            .and_then(Val::as_str)
            .unwrap_or("?")
            .to_string(),
        x: need_f64(meta, "x")?,
        seed: need_f64(meta, "seed")? as u64,
        window_us: (ws, we),
        spans_total,
        queries,
        mean_rt_us,
        phase_sum_us,
        reported_rt_us: need_f64(meta, "mean_response_time_us")?,
        reported_completions: need_f64(meta, "completions")? as u64,
        refused: need_f64(meta, "refused")? as u64,
        events_dropped: need_f64(meta, "events_dropped")? as u64,
        dispatch_count: need_f64(meta, "dispatch_count")? as u64,
        phases,
        queues,
        causes: cause_rows,
    })
}

/// Render the summary as the text report the `gridmon-inspect` bin prints.
pub fn render(s: &TraceSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace    {}  (x = {}, seed = {})", s.key, s.x, s.seed);
    let _ = writeln!(
        out,
        "window   [{:.3} s, {:.3} s]   events dropped: {}   dispatches: {}",
        s.window_us.0 as f64 / 1e6,
        s.window_us.1 as f64 / 1e6,
        s.events_dropped,
        s.dispatch_count
    );
    let _ = writeln!(
        out,
        "spans    {} total; {} measured queries (root, two-way, ok, in window)",
        s.spans_total, s.queries
    );
    let _ = writeln!(
        out,
        "latency  mean {:.1} µs from spans vs {:.1} µs reported ({} completions reported)",
        s.mean_rt_us, s.reported_rt_us, s.reported_completions
    );
    out.push_str("\nper-phase breakdown (mean µs per query):\n");
    for p in &s.phases {
        let _ = writeln!(
            out,
            "  {:<14} {:>12.1}  {:>5.1}%",
            p.phase,
            p.mean_us,
            p.share * 100.0
        );
    }
    let _ = writeln!(
        out,
        "  {:<14} {:>12.1}  (sum; span mean {:.1})",
        "total", s.phase_sum_us, s.mean_rt_us
    );
    out.push_str("\ntop queues by time-weighted depth:\n");
    if s.queues.is_empty() {
        out.push_str("  (no counter tracks recorded)\n");
    }
    for q in s.queues.iter().take(8) {
        let _ = writeln!(
            out,
            "  {:<28} mean {:>8.3}  max {:>6.0}",
            q.name, q.mean_depth, q.max_depth
        );
    }
    out.push_str("\ndrops & notable events:\n");
    if s.causes.is_empty() && s.refused == 0 {
        out.push_str("  (none)\n");
    }
    if s.refused > 0 {
        let _ = writeln!(out, "  {:<28} {:>8}", "reported refused conns", s.refused);
    }
    // Rows are bounded by event kinds × services: print every one, so
    // the service a trace is about cannot fall off the end.
    for c in &s.causes {
        let _ = writeln!(out, "  {:<28} {:>8}", c.cause, c.count);
    }
    out
}

/// The acceptance self-check: the per-phase breakdown must sum (±1 %) to
/// the span-level mean response time, which must itself match (±1 %) the
/// mean the figure pipeline reported for the point.
pub fn self_check(s: &TraceSummary) -> Result<(), String> {
    if s.queries == 0 {
        return Err("self-check: no measured queries in trace".into());
    }
    let phase_err = rel_err(s.phase_sum_us, s.mean_rt_us);
    if phase_err > 0.01 {
        return Err(format!(
            "self-check: phase sum {:.1} µs vs span mean {:.1} µs differs by {:.2}% (> 1%)",
            s.phase_sum_us,
            s.mean_rt_us,
            phase_err * 100.0
        ));
    }
    let reported_err = rel_err(s.mean_rt_us, s.reported_rt_us);
    if reported_err > 0.01 {
        return Err(format!(
            "self-check: span mean {:.1} µs vs reported mean {:.1} µs differs by {:.2}% (> 1%)",
            s.mean_rt_us,
            s.reported_rt_us,
            reported_err * 100.0
        ));
    }
    Ok(())
}

fn rel_err(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom <= 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Ev, Outcome, Phase, TraceEvent};
    use crate::export::{chrome_trace, TraceMeta};
    use simcore::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    fn span_events(id: u64, begin: u64, end: u64, mid: u64) -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                at: t(begin),
                ev: Ev::SpanBegin {
                    span: id,
                    parent: None,
                    svc: 0,
                    oneway: false,
                },
            },
            TraceEvent {
                at: t(begin),
                ev: Ev::SpanPhase {
                    span: id,
                    phase: Phase::ReqFlow,
                },
            },
            TraceEvent {
                at: t(mid),
                ev: Ev::SpanPhase {
                    span: id,
                    phase: Phase::ServerCpu,
                },
            },
            TraceEvent {
                at: t(end),
                ev: Ev::SpanEnd {
                    span: id,
                    outcome: Outcome::Ok,
                },
            },
        ]
    }

    fn meta(reported_us: f64) -> TraceMeta {
        TraceMeta {
            key: "set1/test/x=1".into(),
            x: 1.0,
            seed: 7,
            window_start: t(0),
            window_end: t(10_000),
            mean_response_time_us: reported_us,
            completions: 2,
            refused: 0,
            services: vec!["gris".into()],
            nodes: vec!["host".into()],
        }
    }

    #[test]
    fn summary_round_trips_and_self_checks() {
        let mut evs = span_events(1, 100, 300, 150); // 200 µs
        evs.extend(span_events(2, 400, 800, 500)); // 400 µs
        evs.push(TraceEvent {
            at: t(120),
            ev: Ev::ConnQueue { svc: 0, depth: 3 },
        });
        let doc = chrome_trace(&meta(300.0), &evs, 0);
        let s = summarize(&doc).unwrap();
        assert_eq!(s.queries, 2);
        assert!((s.mean_rt_us - 300.0).abs() < 1e-9);
        assert!((s.phase_sum_us - 300.0).abs() < 1e-9);
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.queues.len(), 1);
        self_check(&s).unwrap();
        let text = render(&s);
        assert!(text.contains("per-phase breakdown"));
        assert!(text.contains("server_cpu"));
    }

    #[test]
    fn self_check_rejects_mismatched_report() {
        let evs = span_events(1, 100, 300, 150);
        let doc = chrome_trace(&meta(900.0), &evs, 0);
        let s = summarize(&doc).unwrap();
        let err = self_check(&s).unwrap_err();
        assert!(err.contains("reported"), "{err}");
    }

    #[test]
    fn spans_outside_window_or_failed_are_excluded() {
        let mut evs = span_events(1, 100, 300, 150);
        // Ends after the window: excluded.
        evs.extend(span_events(2, 9_000, 20_000, 9_500));
        // Refused root span: excluded from latency, counted as a cause.
        evs.push(TraceEvent {
            at: t(500),
            ev: Ev::SpanBegin {
                span: 3,
                parent: None,
                svc: 0,
                oneway: false,
            },
        });
        evs.push(TraceEvent {
            at: t(600),
            ev: Ev::SpanEnd {
                span: 3,
                outcome: Outcome::Refused,
            },
        });
        let doc = chrome_trace(&meta(200.0), &evs, 0);
        let s = summarize(&doc).unwrap();
        assert_eq!(s.queries, 1);
        assert!((s.mean_rt_us - 200.0).abs() < 1e-9);
        assert!(s
            .causes
            .iter()
            .any(|c| c.cause == "span outcome: refused" && c.count == 1));
    }

    #[test]
    fn render_prints_every_cause_row() {
        let doc = chrome_trace(&meta(200.0), &span_events(1, 100, 300, 150), 0);
        let mut s = summarize(&doc).unwrap();
        s.causes = (0..20)
            .map(|i| CauseRow {
                cause: format!("cache_miss giis@lucky{i}"),
                count: 100 - i,
            })
            .collect();
        let text = render(&s);
        for c in &s.causes {
            let row = format!("  {:<28} {:>8}", c.cause, c.count);
            assert!(text.lines().any(|l| l == row), "missing {row:?} in\n{text}");
        }
    }

    #[test]
    fn summarize_rejects_foreign_json() {
        assert!(summarize("{}").is_err());
        assert!(summarize("not json").is_err());
    }
}
