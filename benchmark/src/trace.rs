//! In-memory spans around the calls into each layer, written out as a
//! Chrome trace when the run ends.

use std::time::Instant;

use scup_obs::chrome::{ArgValue, ChromeEvent};

/// One recorded span. Spans of one `(scenario, seed)` share `run`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a run's root span.
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; the returned index closes it and parents children.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].nanos()
    }

    /// Runs `f` as a child span of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent), self.spans[parent].run);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds `id`'s children cover (its self time is the rest).
    pub fn children_nanos(&self, id: usize) -> u64 {
        // Children are recorded after their parent and before the next
        // root, so the scan stops at the first span of another run.
        self.spans[id + 1..]
            .iter()
            .take_while(|s| s.run == self.spans[id].run)
            .filter(|s| s.parent == Some(id))
            .map(Span::nanos)
            .sum()
    }

    /// Duration of `id`'s first child span called `name`, if it has one.
    pub fn child_nanos(&self, id: usize, name: &str) -> Option<u64> {
        self.spans[id + 1..]
            .iter()
            .take_while(|s| s.run == self.spans[id].run)
            .find(|s| s.parent == Some(id) && s.name == name)
            .map(Span::nanos)
    }

    /// The spans as Chrome trace events on one track of process `pid` (nesting shows as
    /// stacked slices; `run` and `parent` ride along as arguments).
    pub fn chrome_events(&self, process: &str, pid: u32) -> Vec<ChromeEvent> {
        let mut events = vec![
            ChromeEvent::ProcessName {
                pid,
                name: process.to_string(),
            },
            ChromeEvent::ThreadName {
                pid,
                tid: 1,
                name: "layers".to_string(),
            },
        ];
        events.extend(self.spans.iter().map(|s| {
            let mut args = vec![("run", ArgValue::U64(s.run))];
            if let Some(p) = s.parent {
                args.push(("parent", ArgValue::Str(self.spans[p].name.to_string())));
            }
            ChromeEvent::Complete {
                name: s.name.to_string(),
                cat: "layer",
                ts: s.start_ns / 1_000,
                dur: (s.nanos() / 1_000).max(1),
                pid,
                tid: 1,
                args,
            }
        }));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new();
        let root = t.open("run", None, 7);
        t.child("a", root, || std::hint::black_box(()));
        t.child("b", root, || std::hint::black_box(()));
        t.close(root);
        let other = t.open("run", None, 8);
        t.close(other);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(t.children_nanos(root), spans[1].nanos() + spans[2].nanos());
        assert!(spans[root].nanos() >= t.children_nanos(root));
        assert_eq!(t.children_nanos(3), 0);
        // Two metadata events, then one slice per span.
        assert_eq!(t.chrome_events("w", 1).len(), 6);
    }
}
