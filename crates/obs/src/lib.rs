//! Workspace-wide observability: tracing, profiling, forensics, and the
//! JSON they are written in.
//!
//! Everything here is hand-rolled on `std` (the build environment has no
//! crates.io access) and obeys two hard rules:
//!
//! 1. **Zero cost when disabled.** Every recording path is guarded by a
//!    single branch on an `enabled` flag — no allocation, no `format!`, no
//!    clock read happens for a disabled sink. The [`obs_event!`] macro
//!    makes the guard impossible to forget at call sites that would
//!    otherwise eagerly render payloads.
//! 2. **Off the bit-identity surface.** Timings and profiles are *effort*
//!    data: they may differ across worker counts, machines, and runs.
//!    Consumers embed them next to — never inside — deterministic report
//!    fields, exactly as `wall_micros` is handled today.
//!
//! The pieces:
//!
//! - [`profile`] — [`PhaseProfile`](profile::PhaseProfile), a lap-based
//!   timer that attributes wall time to explorer phases with one clock
//!   read per phase boundary.
//! - [`json`] — [`Json`](json::Json), the workspace's one JSON writer
//!   (`pretty()` for reports, `compact()` for traces) and its reader
//!   ([`json::parse`]); `scup-harness` re-exports it as
//!   `scup_harness::json`.
//! - [`chrome`] — [`ChromeEvent`](chrome::ChromeEvent) and
//!   [`TraceClock`](chrome::TraceClock): the Chrome-trace-event model that
//!   Perfetto loads, plus its serialization through [`json`]
//!   ([`chrome::write_trace_json`]).
//! - [`progress`] — a shared completed-work counter and a stderr ticker
//!   thread for long campaign runs.
//! - [`causal`] — vector-clock event graphs
//!   ([`CausalGraph`](causal::CausalGraph)) and decision provenance
//!   ([`ProvenanceLog`](causal::ProvenanceLog)): the forensic layer that
//!   turns a failing run into a causal cone plus a justification DAG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod chrome;
pub mod json;
pub mod profile;
pub mod progress;

/// Records a lazily-built event into a sink, skipping payload
/// construction entirely when the sink is disabled.
///
/// The sink expression must offer `is_enabled(&self) -> bool` and
/// `push(&mut self, event)`; the event expression — including any
/// `format!` inside it — is evaluated only under the guard. This is the
/// replacement for the eager `String` rendering the simulator trace used
/// to do unconditionally at call sites.
///
/// ```
/// # struct Sink { on: bool, events: Vec<String> }
/// # impl Sink {
/// #     fn is_enabled(&self) -> bool { self.on }
/// #     fn push(&mut self, e: String) { self.events.push(e) }
/// # }
/// # let mut trace = Sink { on: false, events: Vec::new() };
/// let expensive = |x: u64| format!("{x:?}");
/// scup_obs::obs_event!(trace, expensive(42)); // `expensive` never runs
/// # assert!(trace.events.is_empty());
/// ```
#[macro_export]
macro_rules! obs_event {
    ($sink:expr, $event:expr) => {
        if $sink.is_enabled() {
            $sink.push($event);
        }
    };
}
