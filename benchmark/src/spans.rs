//! Harness-side spans around every call into a layer.
//!
//! The benchmark measures the simulator from outside, so a span wraps
//! a call into a public function, never code inside the engine. Spans
//! stay in memory and are written once, at the end, as Chrome
//! trace-event JSON. A disabled recorder costs one branch per span,
//! which is how the timed passes run.

use std::time::Instant;

use crate::json::Json;

/// One recorded span. `parent` indexes [`Recorder::spans`].
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The cell the span belongs to (empty for the pass itself).
    pub cell: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (just runs it when the
    /// recorder is off). The span is closed even if `f` unwinds, so a
    /// panicking cell still leaves a well-formed trace.
    pub fn span<R>(&mut self, name: &'static str, cell: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            cell: cell.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)));
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Total self time (duration minus children) per span name, in
    /// first-seen order.
    pub fn self_time_ns(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.duration_ns().saturating_sub(child);
            match totals.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, total)) => *total += own,
                None => totals.push((s.name, own)),
            }
        }
        totals
    }

    /// Chrome trace-event JSON (loads in Perfetto / `chrome://tracing`).
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("cell", Json::Str(s.cell.clone())),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true);
        rec.span("outer", "", |rec| {
            rec.span("inner", "c", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        let totals = rec.self_time_ns();
        let outer = totals.iter().find(|(n, _)| *n == "outer").unwrap().1;
        let inner = totals.iter().find(|(n, _)| *n == "inner").unwrap().1;
        assert!(inner >= 2_000_000);
        assert!(outer < inner, "outer self time must exclude the child");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("x", "", |_| 7), 7);
        assert!(rec.spans.is_empty());
    }

    #[test]
    fn unwinding_closes_open_spans() {
        let mut rec = Recorder::new(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rec.span("outer", "", |rec| rec.span("inner", "", |_| panic!("boom")))
        }));
        assert!(caught.is_err());
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
