//! The Chrome-trace-event model and its JSON serializer.
//!
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` both load
//! the legacy JSON trace-event format: an object with a `traceEvents`
//! array whose entries carry a phase tag (`"X"` complete span, `"i"`
//! instant, `"C"` counter, `"M"` metadata), microsecond timestamps, and a
//! `pid`/`tid` pair that selects the track. This module models exactly
//! the subset the workspace emits and serializes it through the
//! workspace's one JSON writer, [`Json::compact`].

use std::time::Instant;

use crate::json::Json;

/// A wall-clock origin for trace timestamps: all events in one trace
/// must share a clock so tracks line up in the viewer.
#[derive(Debug, Clone, Copy)]
pub struct TraceClock {
    origin: Instant,
}

impl TraceClock {
    /// Starts the clock at "now".
    pub fn start() -> Self {
        TraceClock {
            origin: Instant::now(),
        }
    }

    /// Microseconds elapsed since the clock started.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

impl Default for TraceClock {
    fn default() -> Self {
        TraceClock::start()
    }
}

/// An argument value attached to an event's `args` object.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A JSON string.
    Str(String),
    /// A JSON integer.
    U64(u64),
}

/// One trace event, in the subset of the Chrome trace-event format the
/// workspace emits.
#[derive(Debug, Clone, PartialEq)]
pub enum ChromeEvent {
    /// `"ph": "X"` — a complete span with an explicit duration.
    Complete {
        /// Span name (the label shown on the slice).
        name: String,
        /// Comma-separated categories (filterable in the viewer).
        cat: &'static str,
        /// Start, microseconds on the shared clock.
        ts: u64,
        /// Duration in microseconds.
        dur: u64,
        /// Process track.
        pid: u32,
        /// Thread track.
        tid: u32,
        /// Extra key/value details shown in the slice panel.
        args: Vec<(&'static str, ArgValue)>,
    },
    /// `"ph": "i"` — a thread-scoped instant marker.
    Instant {
        /// Marker name.
        name: String,
        /// Categories.
        cat: &'static str,
        /// Time, microseconds on the shared clock.
        ts: u64,
        /// Process track.
        pid: u32,
        /// Thread track.
        tid: u32,
        /// Extra details.
        args: Vec<(&'static str, ArgValue)>,
    },
    /// `"ph": "C"` — a counter sample rendered as a value track.
    Counter {
        /// Counter track name.
        name: String,
        /// Time, microseconds on the shared clock.
        ts: u64,
        /// Process track.
        pid: u32,
        /// Series values at this sample.
        series: Vec<(&'static str, u64)>,
    },
    /// `"ph": "s"` — the start of a flow arrow (Perfetto draws an arrow
    /// from here to the matching [`ChromeEvent::FlowEnd`] with the same
    /// `id`).
    FlowStart {
        /// Flow name (shown on the arrow).
        name: String,
        /// Categories.
        cat: &'static str,
        /// Flow id — start and end must agree.
        id: u64,
        /// Time, microseconds on the shared clock.
        ts: u64,
        /// Process track.
        pid: u32,
        /// Thread track.
        tid: u32,
    },
    /// `"ph": "f"` with `"bp": "e"` — the end of a flow arrow, bound to
    /// the enclosing slice or instant on the target track.
    FlowEnd {
        /// Flow name — must match the start's.
        name: String,
        /// Categories.
        cat: &'static str,
        /// Flow id — start and end must agree.
        id: u64,
        /// Time, microseconds on the shared clock.
        ts: u64,
        /// Process track.
        pid: u32,
        /// Thread track.
        tid: u32,
    },
    /// `"ph": "M"` — names a process track in the viewer.
    ProcessName {
        /// Process track.
        pid: u32,
        /// Display name.
        name: String,
    },
    /// `"ph": "M"` — names a thread track in the viewer.
    ThreadName {
        /// Process track.
        pid: u32,
        /// Thread track.
        tid: u32,
        /// Display name.
        name: String,
    },
}

/// A bounded, optionally-disabled sink for [`ChromeEvent`]s.
///
/// Works with [`obs_event!`](crate::obs_event!): a disabled buffer costs
/// one branch per call site and never materializes event payloads. The
/// capacity bound keeps pathological runs (millions of events) from
/// exhausting memory — overflow increments a drop counter instead.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    enabled: bool,
    cap: usize,
    events: Vec<ChromeEvent>,
    dropped: u64,
}

impl TraceBuffer {
    /// Default event capacity (~a few hundred MB of JSON worst case is
    /// far above this; 1M events ≈ 150 MB, so cap well below).
    pub const DEFAULT_CAP: usize = 250_000;

    /// A buffer that drops everything.
    pub fn disabled() -> Self {
        TraceBuffer::default()
    }

    /// An enabled buffer with the default capacity.
    pub fn enabled() -> Self {
        TraceBuffer::with_cap(TraceBuffer::DEFAULT_CAP)
    }

    /// An enabled buffer holding at most `cap` events.
    pub fn with_cap(cap: usize) -> Self {
        TraceBuffer {
            enabled: true,
            cap,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// `true` if events are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event (counts a drop past capacity).
    #[inline]
    pub fn push(&mut self, event: ChromeEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() < self.cap {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events.
    pub fn events(&self) -> &[ChromeEvent] {
        &self.events
    }

    /// Events dropped past the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Moves another buffer's events into this one (capacity still
    /// applies; drop counts add).
    pub fn absorb(&mut self, other: TraceBuffer) {
        self.dropped += other.dropped;
        for e in other.events {
            self.push(e);
        }
    }

    /// Consumes the buffer, returning its events.
    pub fn into_events(self) -> Vec<ChromeEvent> {
        self.events
    }
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn num(n: impl Into<u64>) -> Json {
    Json::from(n.into())
}

fn args_json(args: &[(&'static str, ArgValue)]) -> Json {
    Json::obj(args.iter().map(|(k, v)| match v {
        ArgValue::Str(s) => (*k, text(s)),
        ArgValue::U64(n) => (*k, num(*n)),
    }))
}

/// One event as a JSON object, its keys in the order viewers have always
/// been given them.
fn event_json(e: &ChromeEvent) -> Json {
    match e {
        ChromeEvent::Complete {
            name,
            cat,
            ts,
            dur,
            pid,
            tid,
            args,
        } => Json::obj([
            ("name", text(name)),
            ("cat", text(cat)),
            ("ph", text("X")),
            ("ts", num(*ts)),
            ("dur", num(*dur)),
            ("pid", num(*pid)),
            ("tid", num(*tid)),
            ("args", args_json(args)),
        ]),
        ChromeEvent::Instant {
            name,
            cat,
            ts,
            pid,
            tid,
            args,
        } => Json::obj([
            ("name", text(name)),
            ("cat", text(cat)),
            ("ph", text("i")),
            ("s", text("t")),
            ("ts", num(*ts)),
            ("pid", num(*pid)),
            ("tid", num(*tid)),
            ("args", args_json(args)),
        ]),
        ChromeEvent::Counter {
            name,
            ts,
            pid,
            series,
        } => Json::obj([
            ("name", text(name)),
            ("ph", text("C")),
            ("ts", num(*ts)),
            ("pid", num(*pid)),
            ("args", Json::obj(series.iter().map(|&(k, v)| (k, num(v))))),
        ]),
        ChromeEvent::FlowStart {
            name,
            cat,
            id,
            ts,
            pid,
            tid,
        }
        | ChromeEvent::FlowEnd {
            name,
            cat,
            id,
            ts,
            pid,
            tid,
        } => {
            let mut fields = vec![("name", text(name)), ("cat", text(cat))];
            if let ChromeEvent::FlowStart { .. } = e {
                fields.push(("ph", text("s")));
            } else {
                fields.extend([("ph", text("f")), ("bp", text("e"))]);
            }
            fields.extend([
                ("id", num(*id)),
                ("ts", num(*ts)),
                ("pid", num(*pid)),
                ("tid", num(*tid)),
            ]);
            Json::obj(fields)
        }
        ChromeEvent::ProcessName { pid, name } => Json::obj([
            ("name", text("process_name")),
            ("ph", text("M")),
            ("pid", num(*pid)),
            ("tid", Json::Int(0)),
            ("args", Json::obj([("name", text(name))])),
        ]),
        ChromeEvent::ThreadName { pid, tid, name } => Json::obj([
            ("name", text("thread_name")),
            ("ph", text("M")),
            ("pid", num(*pid)),
            ("tid", num(*tid)),
            ("args", Json::obj([("name", text(name))])),
        ]),
    }
}

/// Serializes events into a Chrome-trace-event JSON document that
/// Perfetto and `chrome://tracing` load directly.
pub fn write_trace_json(events: &[ChromeEvent]) -> String {
    let events = Json::Arr(events.iter().map(event_json).collect());
    Json::obj([("traceEvents", events), ("displayTimeUnit", text("ms"))]).compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_each_phase_tag() {
        let events = vec![
            ChromeEvent::ProcessName {
                pid: 1,
                name: "explorer".into(),
            },
            ChromeEvent::ThreadName {
                pid: 1,
                tid: 2,
                name: "worker 2".into(),
            },
            ChromeEvent::Complete {
                name: "expand".into(),
                cat: "phase",
                ts: 10,
                dur: 5,
                pid: 1,
                tid: 2,
                args: vec![("states", ArgValue::U64(7))],
            },
            ChromeEvent::Instant {
                name: "cex".into(),
                cat: "verdict",
                ts: 20,
                pid: 1,
                tid: 2,
                args: vec![("depth", ArgValue::U64(3))],
            },
            ChromeEvent::Counter {
                name: "visited".into(),
                ts: 30,
                pid: 1,
                series: vec![("len", 42)],
            },
            ChromeEvent::FlowStart {
                name: "msg".into(),
                cat: "net",
                id: 9,
                ts: 40,
                pid: 1,
                tid: 2,
            },
            ChromeEvent::FlowEnd {
                name: "msg".into(),
                cat: "net",
                id: 9,
                ts: 50,
                pid: 1,
                tid: 3,
            },
        ];
        let json = write_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":9"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"dur\":5"));
        assert!(json.contains("\"len\":42"));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escapes_payload_strings() {
        let json = write_trace_json(&[ChromeEvent::Instant {
            name: "msg \"quoted\"\nline".into(),
            cat: "sim",
            ts: 0,
            pid: 0,
            tid: 0,
            args: vec![("payload", ArgValue::Str("a\\b\tc".into()))],
        }]);
        assert!(json.contains("msg \\\"quoted\\\"\\nline"));
        assert!(json.contains("a\\\\b\\tc"));
    }

    #[test]
    fn trace_bytes_are_pinned() {
        let nasty = "q\"b\\n\nt\tu\u{1}";
        // The shape `perfetto::trace_seeds` gives a consensus-phase send.
        let flow = (1 << 40) | (1 << 32) | 7;
        let events = vec![
            ChromeEvent::ProcessName {
                pid: 1,
                name: "fig2 (seed 7)".into(),
            },
            ChromeEvent::ThreadName {
                pid: 1,
                tid: 2,
                name: "p1".into(),
            },
            ChromeEvent::Complete {
                name: format!("send {nasty}"),
                cat: "consensus",
                ts: 10,
                dur: 5,
                pid: 1,
                tid: 2,
                args: vec![
                    ("payload", ArgValue::Str(nasty.into())),
                    ("to", ArgValue::U64(2)),
                ],
            },
            ChromeEvent::Instant {
                name: "decide".into(),
                cat: "sim",
                ts: 15,
                pid: 1,
                tid: 3,
                args: vec![],
            },
            ChromeEvent::Counter {
                name: "visited".into(),
                ts: 20,
                pid: 1,
                series: vec![("len", 42), ("cap", 64)],
            },
            ChromeEvent::Counter {
                name: "empty".into(),
                ts: 21,
                pid: 1,
                series: vec![],
            },
            ChromeEvent::FlowStart {
                name: "msg".into(),
                cat: "consensus",
                id: flow,
                ts: 10,
                pid: 1,
                tid: 2,
            },
            ChromeEvent::FlowEnd {
                name: "msg".into(),
                cat: "consensus",
                id: flow,
                ts: 15,
                pid: 1,
                tid: 3,
            },
        ];
        let json = write_trace_json(&events);
        assert!(crate::json::parse(&json).is_ok());
        let pinned = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"fig2 (seed 7)"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"p1"}},"#,
            r#"{"name":"send q\"b\\n\nt\tu\u0001","cat":"consensus","ph":"X","ts":10,"dur":5,"#,
            r#""pid":1,"tid":2,"args":{"payload":"q\"b\\n\nt\tu\u0001","to":2}},"#,
            r#"{"name":"decide","cat":"sim","ph":"i","s":"t","ts":15,"pid":1,"tid":3,"args":{}},"#,
            r#"{"name":"visited","ph":"C","ts":20,"pid":1,"args":{"len":42,"cap":64}},"#,
            r#"{"name":"empty","ph":"C","ts":21,"pid":1,"args":{}},"#,
            r#"{"name":"msg","cat":"consensus","ph":"s","id":1103806595079,"ts":10,"pid":1,"tid":2},"#,
            r#"{"name":"msg","cat":"consensus","ph":"f","bp":"e","id":1103806595079,"ts":15,"#,
            r#""pid":1,"tid":3}"#,
            r#"],"displayTimeUnit":"ms"}"#,
        );
        assert_eq!(json, pinned);
    }

    #[test]
    fn buffer_caps_and_counts_drops() {
        let mut b = TraceBuffer::with_cap(2);
        for i in 0..4u64 {
            crate::obs_event!(
                b,
                ChromeEvent::Counter {
                    name: "n".into(),
                    ts: i,
                    pid: 0,
                    series: vec![("v", i)],
                }
            );
        }
        assert_eq!(b.events().len(), 2);
        assert_eq!(b.dropped(), 2);

        let mut off = TraceBuffer::disabled();
        crate::obs_event!(
            off,
            ChromeEvent::Counter {
                name: "n".into(),
                ts: 0,
                pid: 0,
                series: vec![],
            }
        );
        assert!(off.events().is_empty());
    }
}
