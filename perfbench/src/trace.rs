//! In-memory span recorder for the traced run.
//!
//! Every public call the benchmark makes into a DSspy crate goes through
//! [`Tracer::time`], which always measures the call's wall time (the
//! end-to-end metrics need it) and, while tracing is on, also records a span
//! with its name, start, end, parent and the number of events the call
//! processed. Spans stay in memory and are written out once, at the end of
//! the run. With tracing off the recorder costs two clock reads per call,
//! the same as the untraced measurement itself.

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::time::Instant;

use serde_json::Value;

/// One finished (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Events the call processed (0 where the call has no event count).
    pub events: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: Cell<bool>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: Cell::new(enabled),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turn span recording on or off for the calls that follow.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Run `f`, returning its result and its wall time in nanoseconds. While
    /// tracing is on, the call is also recorded as a span named `name`,
    /// child of the innermost open span, annotated with `events`.
    pub fn time<T>(&self, name: &str, events: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.is_enabled().then(|| {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                name: name.to_string(),
                parent: self.open.borrow().last().copied(),
                start_ns: 0,
                end_ns: 0,
                events,
            });
            self.open.borrow_mut().push(id);
            id
        });
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        if let Some(id) = id {
            self.open.borrow_mut().pop();
            let mut spans = self.spans.borrow_mut();
            spans[id].start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            spans[id].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        (value, end.duration_since(start).as_nanos() as u64)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the time its direct children
/// cover (children never overlap: the benchmark runs its calls one after
/// another on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Write the spans (with self times) and the run's provenance as one JSON
/// document.
pub fn write(path: &Path, spans: &[Span], provenance: &Value) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let rows = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(id, (s, self_ns))| {
            Value::Map(vec![
                ("id".into(), Value::U64(id as u64)),
                ("name".into(), Value::Str(s.name.clone())),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                ("self_ns".into(), Value::U64(self_ns)),
                ("events".into(), Value::U64(s.events)),
            ])
        })
        .collect();
    let doc = Value::Map(vec![
        ("provenance".into(), provenance.clone()),
        ("spans".into(), Value::Seq(rows)),
    ]);
    let text = serde_json::to_string(&doc).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::new(true);
        let ((), outer) = tracer.time("outer", 0, || {
            tracer.time("a", 3, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tracer.time("b", 4, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].events, 4);
        let selfs = self_times(&spans);
        assert_eq!(
            selfs[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert!(outer >= spans[1].dur_ns() + spans[2].dur_ns());
    }

    #[test]
    fn disabled_tracer_still_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        let (v, nanos) = tracer.time("x", 1, || 7);
        assert_eq!(v, 7);
        assert!(nanos < 1_000_000_000);
        assert!(tracer.spans().is_empty());
    }
}
