//! In-memory host-time spans around the benchmark's own calls into
//! each layer's public functions. Spans are kept in a vector while the
//! run goes on and written out once at the end, so recording one costs
//! two clock reads and a push.

use serde_json::Value;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>::<function>` or a benchmark phase name.
    pub name: String,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Host seconds the span covered.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A span recorder. A disabled recorder keeps nothing.
#[derive(Debug)]
pub struct Spans {
    run_id: String,
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder tagging its spans with `run_id`; `enabled = false`
    /// makes every call a no-op.
    pub fn new(run_id: String, enabled: bool) -> Spans {
        Spans {
            run_id,
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns it.
    pub fn exit(&mut self) -> Option<&Span> {
        let i = self.open.pop()?;
        self.spans[i].end_ns = self.now_ns();
        Some(&self.spans[i])
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until at most `depth` remain (recovery after a
    /// caught panic skipped their `exit`).
    pub fn unwind_to_depth(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON array, each tagged with the run id.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".into(), Value::String(s.name.clone())),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("run".into(), Value::String(self.run_id.clone())),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut s = Spans::new("r1".into(), true);
        s.enter("outer");
        let x = s.scope("inner", || 41 + 1);
        assert_eq!(x, 42);
        let outer = s.exit().unwrap().clone();
        assert_eq!(outer.parent, None);
        assert_eq!(s.len(), 2);
        let inner = &s.spans[1];
        assert_eq!((inner.name.as_str(), inner.parent), ("inner", Some(0)));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let json = serde_json::to_string(&s.to_json()).unwrap();
        assert!(json.contains("\"run\":\"r1\""));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new("r".into(), false);
        s.scope("a", || ());
        s.enter("b");
        assert!(s.exit().is_none());
        assert_eq!(s.len(), 0);
    }
}
