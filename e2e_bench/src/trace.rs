//! Spans and counts recorded around calls into each layer's public API.
//!
//! A span has a name, a start, an end and the span that caused it; the
//! spans of one iteration share that iteration's trace id. Counts are
//! recorded at the same boundaries, so ratios come from where the work
//! happens. Everything stays in memory until the run ends, when
//! [`Tracer::write_jsonl`] writes it out. Untraced iterations never touch
//! a tracer.

use crate::stats;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span, passed to its children as their parent.
pub type SpanId = u32;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The iteration (or setup repetition) the span belongs to.
    pub trace_id: u64,
    /// Unique within the run.
    pub id: SpanId,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Layer call, e.g. `classify` or `experiment.figure4`.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A counter value recorded at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    /// The iteration the count belongs to.
    pub trace_id: u64,
    /// Counter name, e.g. `load.wire_requests`.
    pub name: String,
    /// Value for that iteration.
    pub value: f64,
}

/// In-memory span and count recorder. `Sync`, so spans may be opened on
/// pool workers (inside `join2` branches) with an explicit parent.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    trace_id: AtomicU64,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<Count>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            trace_id: AtomicU64::new(0),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }

    /// Attribute the spans and counts that follow to `trace_id`.
    pub fn begin_trace(&self, trace_id: u64) {
        self.trace_id.store(trace_id, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span named `name`. `f` receives the new span's id
    /// to pass to the spans it causes.
    pub fn span<R>(&self, parent: Option<SpanId>, name: &str, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let trace_id = self.trace_id.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no panic while recording")
            .push(Span {
                trace_id,
                id,
                parent,
                name: name.to_string(),
                start_ns,
                end_ns,
            });
        out
    }

    /// Record a counter value for the current trace id.
    pub fn count(&self, name: &str, value: f64) {
        let trace_id = self.trace_id.load(Ordering::Relaxed);
        self.counts
            .lock()
            .expect("no panic while recording")
            .push(Count {
                trace_id,
                name: name.to_string(),
                value,
            });
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no panic while recording").clone()
    }

    /// Durations of the spans named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Median duration of the spans named `name`, or `None` if none was
    /// recorded.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        let durations = self.durations_ms(name);
        (!durations.is_empty()).then(|| stats::median(&durations))
    }

    /// Median of the values recorded for counter `name`, or `None` if none was
    /// recorded.
    pub fn median_count(&self, name: &str) -> Option<f64> {
        let values: Vec<f64> = self
            .counts
            .lock()
            .expect("no panic while recording")
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect();
        (!values.is_empty()).then(|| stats::median(&values))
    }

    /// Write every span, then every count, as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans();
        let mut children: HashMap<SpanId, Vec<&Span>> = HashMap::new();
        for s in &spans {
            if let Some(parent) = s.parent {
                children.entry(parent).or_default().push(s);
            }
        }
        for s in &spans {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let mut line = serde_json::Map::new();
            line.insert("trace".into(), s.trace_id.into());
            line.insert("span".into(), u64::from(s.id).into());
            line.insert(
                "parent".into(),
                s.parent
                    .map_or(serde_json::Value::Null, |p| u64::from(p).into()),
            );
            line.insert("name".into(), s.name.clone().into());
            line.insert("start_ns".into(), s.start_ns.into());
            line.insert("end_ns".into(), s.end_ns.into());
            line.insert("self_ms".into(), self_time_ms(s, kids).into());
            writeln!(out, "{}", to_json(line))?;
        }
        for c in self.counts.lock().expect("no panic while recording").iter() {
            let mut line = serde_json::Map::new();
            line.insert("trace".into(), c.trace_id.into());
            line.insert("count".into(), c.name.clone().into());
            line.insert("value".into(), c.value.into());
            writeln!(out, "{}", to_json(line))?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_time_ms(span: &Span, children: &[&Span]) -> f64 {
    let mut covered: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    covered.sort_unstable();
    let mut total = 0u64;
    let mut reach = span.start_ns;
    for (lo, hi) in covered {
        let lo = lo.max(reach);
        if hi > lo {
            total += hi - lo;
            reach = hi;
        }
    }
    span.ms() - total as f64 / 1e6
}

fn to_json(map: serde_json::Map) -> String {
    serde_json::to_string(&serde_json::Value::Object(map)).expect("a JSON value always prints")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_carry_their_parent_and_self_time_excludes_them() {
        let tracer = Tracer::new();
        tracer.begin_trace(7);
        tracer.span(None, "outer", |outer| {
            tracer.span(Some(outer), "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.trace_id, 7);
        assert!(outer.ms() >= inner.ms());
        let self_ms = self_time_ms(outer, &[inner]);
        assert!((self_ms - (outer.ms() - inner.ms())).abs() < 1e-9);
    }

    #[test]
    fn durations_and_counts_take_medians() {
        let tracer = Tracer::new();
        for trace in 0..3 {
            tracer.begin_trace(trace);
            tracer.span(None, "x", |_| ());
            tracer.span(None, "x", |_| ());
            tracer.count("c", trace as f64);
        }
        assert_eq!(tracer.durations_ms("x").len(), 6);
        assert_eq!(tracer.median_count("c"), Some(1.0));
        assert_eq!(tracer.median_ms("missing"), None);
    }
}
