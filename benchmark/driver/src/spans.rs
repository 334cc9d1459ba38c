//! The traced run's spans: one around every pass, child process and
//! probe, kept in memory and written once at exit as Chrome
//! `trace_event` JSON (open it in Perfetto, see `benchmark/README.md`).
//!
//! The timed run constructs the tracer disabled, so end-to-end numbers
//! are taken with tracing off.

use crate::json::quote;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: String,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, a child of the span that is
    /// open around the call.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Record a finished child of the innermost open span from offsets a
    /// child process reported relative to its own start (the probes).
    pub fn child_at(&mut self, name: &str, offset_us: f64, dur_us: f64) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let start_us = self.spans[parent].start_us + offset_us;
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us + dur_us,
            parent: Some(parent),
        });
    }

    /// `(name, total µs, self µs)` per span name in first-seen order; a
    /// span's self time is its duration minus its children's.
    pub fn self_times(&self) -> Vec<(String, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut rows: Vec<(String, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_us) {
            let dur = s.end_us - s.start_us;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += dur;
                    r.2 += dur - child;
                }
                None => rows.push((s.name.clone(), dur, dur - child)),
            }
        }
        rows
    }

    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            quote(&format!("gridmon benchmark: {}", self.workload))
        ));
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":{},\"ts\":{:.1},\"dur\":{:.1},\
                 \"args\":{{\"span\":{id},\"parent\":{parent},\"workload\":{}}}}}",
                quote(&s.name),
                s.start_us,
                s.end_us - s.start_us,
                quote(&self.workload)
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, "w");
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.child_at("probe", 0.0, 1000.0);
        });
        let rows = t.self_times();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert!((outer.1 - outer.2 - inner.1 - 1000.0).abs() < 1.0);
        assert!(crate::json::Json::parse(&t.chrome_json()).is_ok());

        let mut off = Tracer::new(false, "w");
        off.span("outer", |_| ());
        assert!(off.spans.is_empty());
    }
}
