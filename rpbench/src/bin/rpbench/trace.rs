//! The benchmark's clock and its in-memory span recorder.
//!
//! Spans are taken around the calls the benchmark makes into the
//! program, never inside it. They stay in memory and are written once,
//! at the end of a traced run, in Chrome trace-event format (load the
//! file in `chrome://tracing` or Perfetto).

use rp_dbscan::engine::EngineReport;
use rpdbscan_json::Value;
use std::time::Instant;

/// The wall clock. Every benchmark timing goes through here.
pub fn now() -> Instant {
    Instant::now() // lint:allow(determinism-time): the benchmark measures wall time around calls into the program; nothing it reads feeds a clustering result
}

/// Seconds from `start` to now.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Chrome-trace process of the benchmark's own wall-clock spans.
const PID_WALL: i64 = 1;
/// Chrome-trace process of engine tasks, laid out on the engine's
/// simulated cluster timeline under the span of the run that ran them.
const PID_ENGINE: i64 = 2;

#[derive(Debug)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    pid: i64,
    /// Lane within the process: 0 for benchmark spans, the virtual
    /// worker for engine tasks.
    tid: i64,
    start_us: f64,
    dur_us: f64,
    args: Vec<(&'static str, Value)>,
}

/// Span recorder; a disabled one records nothing and costs a branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts or stops keeping spans (a traced run measures part of its
    /// time untraced, to compare).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a span from `start` to now and returns its id (0 when
    /// disabled).
    pub fn span(&mut self, name: &str, start: Instant, parent: Option<u64>) -> u64 {
        self.span_with(name, start, parent, Vec::new())
    }

    /// [`Self::span`] with extra arguments shown in the trace viewer.
    pub fn span_with(
        &mut self,
        name: &str,
        start: Instant,
        parent: Option<u64>,
        args: Vec<(&'static str, Value)>,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let start_us = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            pid: PID_WALL,
            tid: 0,
            start_us,
            dur_us: since(start) * 1e6,
            args,
        });
        id
    }

    /// Attaches every engine task of `report` as a child of span
    /// `parent`, placed on the engine's simulated timeline from the
    /// parent's start: the engine measures each task's wall duration but
    /// schedules it onto virtual workers, so its real start is unknown.
    pub fn engine_tasks(&mut self, parent: u64, report: &EngineReport) {
        if !self.enabled {
            return;
        }
        let Some(base) = self
            .spans
            .iter()
            .find(|s| s.id == parent)
            .map(|s| s.start_us)
        else {
            return;
        };
        for t in &report.trace.spans {
            let id = self.spans.len() as u64 + 1;
            self.spans.push(Span {
                id,
                parent: Some(parent),
                name: t.stage.clone(),
                pid: PID_ENGINE,
                tid: t.worker as i64,
                start_us: base + t.start * 1e6,
                dur_us: t.duration * 1e6,
                args: vec![("task", Value::Int(t.task as i64))],
            });
        }
    }

    /// The trace as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let mut events = vec![
            process_name(PID_WALL, "rpbench (wall clock)"),
            process_name(PID_ENGINE, "engine tasks (simulated timeline)"),
        ];
        for s in &self.spans {
            let mut args = Value::object();
            args.insert("id", Value::Int(s.id as i64));
            if let Some(p) = s.parent {
                args.insert("parent", Value::Int(p as i64));
            }
            for (k, v) in &s.args {
                args.insert(*k, v.clone());
            }
            let mut e = Value::object();
            e.insert("name", s.name.as_str());
            e.insert("cat", "rpbench");
            e.insert("ph", "X");
            e.insert("pid", Value::Int(s.pid));
            e.insert("tid", Value::Int(s.tid));
            e.insert("ts", Value::Float(s.start_us));
            e.insert("dur", Value::Float(s.dur_us));
            e.insert("args", args);
            events.push(e);
        }
        let mut doc = Value::object();
        doc.insert("displayTimeUnit", "ms");
        doc.insert("traceEvents", Value::Array(events));
        doc.to_string()
    }
}

fn process_name(pid: i64, name: &str) -> Value {
    let mut args = Value::object();
    args.insert("name", name);
    let mut e = Value::object();
    e.insert("name", "process_name");
    e.insert("ph", "M");
    e.insert("pid", Value::Int(pid));
    e.insert("args", args);
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", now(), None), 0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn spans_round_trip_through_the_json_parser() {
        let mut t = Tracer::new(true);
        let outer = t.span("outer", now(), None);
        let inner = t.span_with(
            "inner",
            now(),
            Some(outer),
            vec![("request", Value::Int(3))],
        );
        assert_eq!((outer, inner), (1, 2));
        let doc = Value::parse(&t.to_chrome_json()).expect("valid JSON");
        let events = doc
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(Value::as_array);
        assert_eq!(events.map(Vec::len), Some(4));
    }
}
