//! The event log of a run, and decision provenance.
//!
//! A run in the paper's model (Section III-A) is a partial order of sends,
//! authenticated deliveries and timer fires over reliable channels. The
//! simulators record exactly that, once: the trace of a run *is* its
//! [`CausalGraph`]. Both recorders here are **zero-cost when disabled**
//! (every record call early-returns behind a single branch; no payload is
//! rendered) and both are kept *off* the bit-identity surface: nothing
//! recorded here may flow into deterministic report fields, fingerprints,
//! or schedules.
//!
//! - [`CausalGraph`]: the per-run event log, in recording order. Every
//!   network, timer, fault-plane and churn-plane event (send, deliver,
//!   drop, duplicate, timer, retransmit, crash, recover, join, leave) is
//!   one [`CausalEvent`] carrying its tick and up to two parent edges: the
//!   previous event of the same process, and — for deliveries, drops and
//!   duplicates — the send that caused it. The log is the DAG of those
//!   edges and nothing else: happens-before is reachability over them, so
//!   no per-event clock is kept. A send carries the rendered payload;
//!   whatever the network later did to the message reads it through that
//!   cause edge ([`CausalGraph::payload`]). Timelines (Perfetto export),
//!   counterexample schedules and forensics are all views of this log; the
//!   backward closure of a violating decision over it is the decision's
//!   **causal cone**: the exact set of events that could have influenced
//!   it.
//! - [`ProvenanceLog`]: a per-process log of *why* each pledge was made.
//!   Every vote→accept→confirm ratchet step records the justifying quorum
//!   or v-blocking set ([`ProvEntry::support`]) plus the triggering
//!   statements ([`ProvEntry::premises`]), forming a provenance DAG that
//!   [`walk_to_roots`] traverses from an externalized value back to the
//!   initial proposals (or journal replays) that seeded it.

use std::collections::{BTreeMap, VecDeque};

/// Index of an event in a [`CausalGraph`] (dense, in recording order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u32);

impl EventId {
    /// The "no parent" sentinel.
    pub const NONE: EventId = EventId(u32::MAX);

    /// `true` unless this is [`EventId::NONE`].
    pub fn is_some(self) -> bool {
        self != EventId::NONE
    }
}

/// What happened at a causal-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalKind {
    /// A message left `from` bound for `to`.
    Send {
        /// Sending process.
        from: u32,
        /// Destination process.
        to: u32,
    },
    /// A message from `from` was handed to `to`'s handler.
    Deliver {
        /// Original sender.
        from: u32,
        /// Receiving process.
        to: u32,
    },
    /// The network (fault plane) dropped a message in flight.
    Drop {
        /// Original sender.
        from: u32,
        /// Intended destination.
        to: u32,
    },
    /// The network duplicated a message in flight.
    Duplicate {
        /// Original sender.
        from: u32,
        /// Destination of the extra copy.
        to: u32,
    },
    /// A protocol timer fired at `process`.
    Timer {
        /// Process whose timer fired.
        process: u32,
        /// The protocol's timer tag.
        tag: u64,
    },
    /// A retransmission round fired at `process`.
    Retransmit {
        /// Retransmitting process.
        process: u32,
    },
    /// The fault plane crashed `process`.
    Crash {
        /// Crashed process.
        process: u32,
    },
    /// The fault plane recovered `process`.
    Recover {
        /// Recovered process.
        process: u32,
    },
    /// The churn plane materialized `process` (membership join).
    Join {
        /// Joining process.
        process: u32,
    },
    /// The churn plane permanently silenced `process` (departure).
    Leave {
        /// Departing process.
        process: u32,
    },
}

impl CausalKind {
    /// The process this event is charged to (receiver for deliveries,
    /// sender for sends/drops/duplicates).
    pub fn acting_process(&self) -> u32 {
        match *self {
            CausalKind::Send { from, .. }
            | CausalKind::Drop { from, .. }
            | CausalKind::Duplicate { from, .. } => from,
            CausalKind::Deliver { to, .. } => to,
            CausalKind::Timer { process, .. }
            | CausalKind::Retransmit { process }
            | CausalKind::Crash { process }
            | CausalKind::Recover { process }
            | CausalKind::Join { process }
            | CausalKind::Leave { process } => process,
        }
    }

    fn dot_label(&self) -> String {
        match *self {
            CausalKind::Send { from, to } => format!("send {from}→{to}"),
            CausalKind::Deliver { from, to } => format!("deliver {from}→{to}"),
            CausalKind::Drop { from, to } => format!("drop {from}→{to}"),
            CausalKind::Duplicate { from, to } => format!("dup {from}→{to}"),
            CausalKind::Timer { process, tag } => format!("timer p{process} tag {tag}"),
            CausalKind::Retransmit { process } => format!("retransmit p{process}"),
            CausalKind::Crash { process } => format!("crash p{process}"),
            CausalKind::Recover { process } => format!("recover p{process}"),
            CausalKind::Join { process } => format!("join p{process}"),
            CausalKind::Leave { process } => format!("leave p{process}"),
        }
    }
}

/// One node of the causal event graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalEvent {
    /// This event's id (its index in [`CausalGraph::events`]).
    pub id: EventId,
    /// Simulation tick at which the event happened.
    pub at: u64,
    /// What happened.
    pub kind: CausalKind,
    /// Parent edges: `[program-order predecessor, causing send]` for a
    /// step of a process, `[causing send, NONE]` for a drop or duplicate.
    /// Either may be [`EventId::NONE`].
    pub parents: [EventId; 2],
    /// The rendered payload of a send recorded through
    /// [`CausalGraph::record_send`]; `None` on every other event (read
    /// theirs with [`CausalGraph::payload`]).
    pub payload: Option<String>,
}

impl CausalEvent {
    /// The send this delivery, drop or duplicate happened to
    /// ([`EventId::NONE`] for every other kind).
    pub fn cause(&self) -> EventId {
        match self.kind {
            CausalKind::Deliver { .. } => self.parents[1],
            CausalKind::Drop { .. } | CausalKind::Duplicate { .. } => self.parents[0],
            _ => EventId::NONE,
        }
    }
}

/// An attributed equivocation: one process sent two payloads that claim
/// the same protocol slot (same statement position, e.g. the same view's
/// proposal or the same ballot's pledge) with different contents.
///
/// Detected from the simulator's `SimMessage::equivocation_key` digests
/// at send time, so the attribution points at the *faulty sender's own
/// send events* —
/// causal cones over a Byzantine sender no longer stop at the delivery
/// edge, they reach the contradictory pair itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivocationPair {
    /// The equivocating sender.
    pub process: u32,
    /// The contested protocol slot (protocol-defined key).
    pub slot: u64,
    /// The send event that first claimed the slot.
    pub first: EventId,
    /// The first send that claimed the same slot with a different
    /// payload.
    pub second: EventId,
}

/// The zero-cost-when-disabled event log of one run.
///
/// Disabled by default; [`CausalGraph::enable`] sizes the per-process
/// program-order tails. [`CausalGraph::record`] returns the new event's
/// id (or [`EventId::NONE`] when disabled) so the simulation can thread
/// send→deliver causality through its event queue.
#[derive(Debug, Clone, Default)]
pub struct CausalGraph {
    enabled: bool,
    last: Vec<EventId>,
    events: Vec<CausalEvent>,
    /// Per `(sender, slot)`: the first payload digest seen, its send
    /// event, and whether an equivocation was already booked (one
    /// witness pair per contested slot is enough for attribution).
    slot_claims: BTreeMap<(u32, u64), (u64, EventId, bool)>,
    equivocations: Vec<EquivocationPair>,
}

impl CausalGraph {
    /// A disabled log (records nothing).
    pub fn disabled() -> Self {
        CausalGraph::default()
    }

    /// Turns recording on for `n` processes.
    pub fn enable(&mut self, n: usize) {
        self.enabled = true;
        self.last = vec![EventId::NONE; n];
    }

    /// `true` when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// All recorded events, in recording order.
    pub fn events(&self) -> &[CausalEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The most recent event charged to `process` ([`EventId::NONE`] if
    /// it has none yet).
    pub fn last_of(&self, process: u32) -> EventId {
        self.last
            .get(process as usize)
            .copied()
            .unwrap_or(EventId::NONE)
    }

    /// The rendered payload of the message event `id` is about: a send's
    /// own, a delivery's, drop's or duplicate's through its cause. `None`
    /// for events without a message and for sends recorded without one.
    pub fn payload(&self, id: EventId) -> Option<&str> {
        let event = self.events.get(id.0 as usize)?;
        let send = match event.kind {
            CausalKind::Send { .. } => event,
            _ => self.events.get(event.cause().0 as usize)?,
        };
        send.payload.as_deref()
    }

    /// Appends one event and returns its id ([`EventId::NONE`] while
    /// disabled). `cause` is the send a delivery, drop or duplicate
    /// happened to, [`EventId::NONE`] for every other kind.
    ///
    /// A drop or duplicate is a network artifact: it hangs off the
    /// causing send but enters no program order, so later events never
    /// falsely depend on undelivered messages. Every other kind is a step
    /// of its [`CausalKind::acting_process`]: its parents are that
    /// process's previous step and the cause, and it becomes the
    /// process's program-order tail. A step of a process past the `n` the
    /// log was enabled for is not recorded.
    #[inline]
    pub fn record(&mut self, at: u64, kind: CausalKind, cause: EventId) -> EventId {
        if !self.enabled {
            return EventId::NONE;
        }
        self.append(at, kind, cause)
    }

    /// [`CausalGraph::record`] while the log is on; kept out of line so
    /// that the off case is one branch at the simulator's event site.
    #[inline(never)]
    fn append(&mut self, at: u64, kind: CausalKind, cause: EventId) -> EventId {
        let id = EventId(self.events.len() as u32);
        let parents = match kind {
            CausalKind::Drop { .. } | CausalKind::Duplicate { .. } => [cause, EventId::NONE],
            _ => {
                let Some(last) = self.last.get_mut(kind.acting_process() as usize) else {
                    return EventId::NONE;
                };
                [std::mem::replace(last, id), cause]
            }
        };
        self.events.push(CausalEvent {
            id,
            at,
            kind,
            parents,
            payload: None,
        });
        id
    }

    /// Records a message leaving `from` for `to`, with what it carried.
    /// `describe` runs only while the log is on, so a disabled log never
    /// renders a payload; it returns the rendered payload and the
    /// message's slot claim — the `(slot, digest)` of the simulator's
    /// `SimMessage::equivocation_key`, if it has one. Two sends by the
    /// same process claiming the same slot with different digests book an
    /// [`EquivocationPair`] (one witness pair per contested slot); the
    /// claim is send-time evidence, booked before the network can drop or
    /// split the message.
    pub fn record_send(
        &mut self,
        at: u64,
        from: u32,
        to: u32,
        describe: impl FnOnce() -> (String, Option<(u64, u64)>),
    ) -> EventId {
        let id = self.record(at, CausalKind::Send { from, to }, EventId::NONE);
        if id.is_some() {
            let (payload, claim) = describe();
            self.events[id.0 as usize].payload = Some(payload);
            if let Some((slot, digest)) = claim {
                self.claim_slot(from, slot, digest, id);
            }
        }
        id
    }

    fn claim_slot(&mut self, from: u32, slot: u64, digest: u64, send_ev: EventId) {
        match self.slot_claims.entry((from, slot)) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert((digest, send_ev, false));
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let (first_digest, first_ev, booked) = *e.get();
                if digest != first_digest && !booked {
                    self.equivocations.push(EquivocationPair {
                        process: from,
                        slot,
                        first: first_ev,
                        second: send_ev,
                    });
                    e.get_mut().2 = true;
                }
            }
        }
    }

    /// The attributed equivocation pairs, in detection order.
    pub fn equivocations(&self) -> &[EquivocationPair] {
        &self.equivocations
    }

    /// The causal cone of `roots`: the backward closure over parent
    /// edges, returned as sorted, deduplicated event ids. This is the set
    /// of events that could have influenced the roots.
    pub fn cone(&self, roots: &[EventId]) -> Vec<EventId> {
        let mut seen = vec![false; self.events.len()];
        let mut queue: VecDeque<EventId> = VecDeque::new();
        for &r in roots {
            if r.is_some() && (r.0 as usize) < self.events.len() && !seen[r.0 as usize] {
                seen[r.0 as usize] = true;
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for parent in self.events[id.0 as usize].parents {
                if parent.is_some() && !seen[parent.0 as usize] {
                    seen[parent.0 as usize] = true;
                    queue.push_back(parent);
                }
            }
        }
        (0..self.events.len() as u32)
            .map(EventId)
            .filter(|id| seen[id.0 as usize])
            .collect()
    }

    /// Renders the sub-graph induced by `ids` as a Graphviz DOT digraph,
    /// clustered by acting process. Pass the full id range to render the
    /// whole graph, or a [`CausalGraph::cone`] for a forensic view.
    pub fn to_dot(&self, ids: &[EventId], title: &str) -> String {
        let mut included = vec![false; self.events.len()];
        for &id in ids {
            if (id.0 as usize) < self.events.len() {
                included[id.0 as usize] = true;
            }
        }
        let mut out = String::new();
        out.push_str("digraph causal {\n");
        out.push_str(&format!("  label=\"{title}\";\n"));
        out.push_str("  rankdir=TB; node [shape=box, fontsize=10];\n");
        for p in 0..self.last.len() {
            let members: Vec<&CausalEvent> = self
                .events
                .iter()
                .filter(|e| included[e.id.0 as usize] && e.kind.acting_process() as usize == p)
                .collect();
            if members.is_empty() {
                continue;
            }
            out.push_str(&format!("  subgraph cluster_p{p} {{\n"));
            out.push_str(&format!("    label=\"process {p}\";\n"));
            for e in members {
                out.push_str(&format!(
                    "    e{} [label=\"#{} t{} {}\"];\n",
                    e.id.0,
                    e.id.0,
                    e.at,
                    e.kind.dot_label()
                ));
            }
            out.push_str("  }\n");
        }
        for e in self.events.iter().filter(|e| included[e.id.0 as usize]) {
            for (slot, parent) in e.parents.into_iter().enumerate() {
                if parent.is_some() && included[parent.0 as usize] {
                    let style = if slot == 1 { " [color=blue]" } else { "" };
                    out.push_str(&format!("  e{} -> e{}{};\n", parent.0, e.id.0, style));
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Why a provenance entry exists — which inference rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvRule {
    /// An initial input value entering the protocol (a DAG root).
    Proposal,
    /// A vote pledge (SCP `vote`, BFT-CUP echo/commit send).
    Vote,
    /// An accept pledge justified by a quorum of votes.
    AcceptQuorum,
    /// An accept pledge justified by a v-blocking set of accepts.
    AcceptVBlocking,
    /// A confirm pledge justified by a quorum of accepts.
    Confirm,
    /// A nomination candidate was adopted.
    Candidate,
    /// A value was locked (SCP ballot lock, BFT-CUP echo-quorum lock).
    Lock,
    /// A view change carried a lock forward.
    ViewChange,
    /// A value was externalized/decided.
    Externalize,
    /// State rehydrated from the durable journal after recovery (a
    /// legitimate DAG root: its justification lives before the crash).
    Replay,
}

impl ProvRule {
    /// The verb used to render and cross-reference entries of this rule.
    pub fn verb(self) -> &'static str {
        match self {
            ProvRule::Proposal => "propose",
            ProvRule::Vote => "vote",
            ProvRule::AcceptQuorum | ProvRule::AcceptVBlocking => "accept",
            ProvRule::Confirm => "confirm",
            ProvRule::Candidate => "candidate",
            ProvRule::Lock => "lock",
            ProvRule::ViewChange => "view",
            ProvRule::Externalize => "externalize",
            ProvRule::Replay => "replay",
        }
    }

    /// `true` for rules allowed to terminate a provenance chain.
    pub fn is_root(self) -> bool {
        matches!(self, ProvRule::Proposal | ProvRule::Replay)
    }
}

/// One node of the provenance DAG: a pledge plus its justification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvEntry {
    /// Process that made the pledge.
    pub process: u32,
    /// Which inference rule fired.
    pub rule: ProvRule,
    /// The pledged statement, e.g. `Nominate(7)` or `Commit(2, 7)`.
    pub statement: String,
    /// Specific triggering statements: `(process, label)` pairs referring
    /// to earlier entries by their [`ProvEntry::label`].
    pub premises: Vec<(u32, String)>,
    /// The justifying quorum or v-blocking set (process ids). Paired with
    /// [`ProvEntry::support_label`], each member contributes one premise.
    pub support: Vec<u32>,
    /// The statement each [`ProvEntry::support`] member justified this
    /// entry with (one shared label; `None` when `support` is empty).
    pub support_label: Option<String>,
}

impl ProvEntry {
    /// The entry's cross-reference label: `"{verb} {statement}"`.
    pub fn label(&self) -> String {
        format!("{} {}", self.rule.verb(), self.statement)
    }
}

/// A zero-cost-when-disabled per-process provenance log.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLog {
    enabled: bool,
    entries: Vec<ProvEntry>,
}

impl ProvenanceLog {
    /// A disabled log (records nothing).
    pub fn disabled() -> Self {
        ProvenanceLog::default()
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// `true` when recording. Callers must guard statement formatting
    /// behind this so the disabled path allocates nothing.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends `entry` (no-op when disabled).
    pub fn push(&mut self, entry: ProvEntry) {
        if self.enabled {
            self.entries.push(entry);
        }
    }

    /// All recorded entries, in pledge order.
    pub fn entries(&self) -> &[ProvEntry] {
        &self.entries
    }
}

/// Result of walking a provenance DAG backward from one pledge.
#[derive(Debug, Clone, Default)]
pub struct ProvWalk {
    /// Entries reached, as `(process, entry-index-within-its-log)` pairs
    /// in visit order.
    pub visited: Vec<(u32, usize)>,
    /// References `(process, label)` that no log entry resolves.
    pub unresolved: Vec<(u32, String)>,
    /// `true` when every chain terminates at a [`ProvRule::is_root`]
    /// entry and nothing was unresolved.
    pub rooted: bool,
}

/// Walks the cross-process provenance DAG backward from `(process,
/// label)`, resolving premises and support references against `logs`
/// (indexed by process id). References resolve to the *first* entry of
/// that process whose [`ProvEntry::label`] matches; a `vote …` reference
/// additionally falls back to the matching `accept …` entry, because an
/// accept pledge implies the vote (a process accepting through a
/// v-blocking set never logs a separate vote).
pub fn walk_to_roots(logs: &[ProvenanceLog], process: u32, label: &str) -> ProvWalk {
    let find = |p: u32, l: &str| -> Option<usize> {
        let entries = logs.get(p as usize)?.entries();
        entries.iter().position(|e| e.label() == l).or_else(|| {
            let implied = l.strip_prefix("vote ")?;
            entries
                .iter()
                .position(|e| e.label() == format!("accept {implied}"))
        })
    };
    let mut walk = ProvWalk {
        rooted: true,
        ..ProvWalk::default()
    };
    let mut queue: VecDeque<(u32, String)> = VecDeque::new();
    queue.push_back((process, label.to_string()));
    let mut seen: Vec<(u32, String)> = Vec::new();
    while let Some((p, l)) = queue.pop_front() {
        if seen.iter().any(|(sp, sl)| *sp == p && *sl == l) {
            continue;
        }
        seen.push((p, l.clone()));
        let Some(idx) = find(p, &l) else {
            walk.unresolved.push((p, l));
            walk.rooted = false;
            continue;
        };
        walk.visited.push((p, idx));
        let entry = &logs[p as usize].entries()[idx];
        let mut child_count = 0usize;
        for (pp, pl) in &entry.premises {
            child_count += 1;
            queue.push_back((*pp, pl.clone()));
        }
        if let Some(sl) = &entry.support_label {
            for sp in &entry.support {
                child_count += 1;
                queue.push_back((*sp, sl.clone()));
            }
        }
        if child_count == 0 && !entry.rule.is_root() {
            walk.rooted = false;
        }
    }
    walk
}

#[cfg(test)]
mod tests {
    use super::*;
    use CausalKind::*;

    /// A graph over `n` processes, recording.
    fn graph(n: usize) -> CausalGraph {
        let mut g = CausalGraph::disabled();
        g.enable(n);
        g
    }

    fn send(g: &mut CausalGraph, at: u64, from: u32, to: u32) -> EventId {
        g.record(at, Send { from, to }, EventId::NONE)
    }

    fn timer(g: &mut CausalGraph, at: u64, process: u32, tag: u64) -> EventId {
        g.record(at, Timer { process, tag }, EventId::NONE)
    }

    /// A send claiming `slot` with a payload of digest `digest`.
    fn claim(g: &mut CausalGraph, at: u64, to: u32, slot: u64, digest: u64) -> EventId {
        g.record_send(at, 0, to, || (format!("v{digest}"), Some((slot, digest))))
    }

    #[test]
    fn disabled_graph_records_nothing() {
        let mut g = CausalGraph::disabled();
        assert_eq!(send(&mut g, 1, 0, 1), EventId::NONE);
        assert_eq!(timer(&mut g, 2, 0, 7), EventId::NONE);
        let described = g.record_send(3, 0, 1, || unreachable!("rendered while off"));
        assert_eq!(described, EventId::NONE);
        assert!(g.is_empty());
        assert!(!g.is_enabled());
    }

    /// A delivery's parents are its process's previous step and the
    /// send: the send reaches the delivery, never the other way round.
    #[test]
    fn deliver_merges_clocks_and_links_cause() {
        let mut g = graph(3);
        let s = send(&mut g, 1, 0, 1);
        let d = g.record(5, Deliver { from: 0, to: 1 }, s);
        let events = g.events();
        assert_eq!(events[s.0 as usize].parents, [EventId::NONE; 2]);
        assert_eq!(events[d.0 as usize].parents, [EventId::NONE, s]);
        assert_eq!(events[d.0 as usize].cause(), s);
        assert_eq!(g.cone(&[d]), vec![s, d]);
        assert_eq!(g.cone(&[s]), vec![s]);
    }

    /// A drop hangs off its send and nothing hangs off the drop: no
    /// later step of either process depends on the lost message.
    #[test]
    fn drops_do_not_advance_clocks() {
        let mut g = graph(2);
        let s = send(&mut g, 1, 0, 1);
        let dr = g.record(3, Drop { from: 0, to: 1 }, s);
        let t = timer(&mut g, 9, 1, 4);
        let s2 = send(&mut g, 10, 0, 1);
        assert_eq!(g.events()[dr.0 as usize].parents, [s, EventId::NONE]);
        assert_eq!(g.events()[dr.0 as usize].cause(), s);
        // The timer at process 1 is concurrent with the dropped send.
        assert_eq!(g.cone(&[t]), vec![t]);
        assert_eq!(g.cone(&[s2]), vec![s, s2], "drop is not program order");
        assert_eq!(g.last_of(0), s2);
    }

    #[test]
    fn a_payload_is_stored_on_the_send_and_read_through_the_cause() {
        let mut g = graph(2);
        let s = g.record_send(1, 0, 1, || ("Ping(7)".into(), None));
        let dup = g.record(1, Duplicate { from: 0, to: 1 }, s);
        let d = g.record(4, Deliver { from: 0, to: 1 }, s);
        let dr = g.record(6, Drop { from: 0, to: 1 }, s);
        let t = timer(&mut g, 9, 1, 4);
        for id in [s, dup, d, dr] {
            assert_eq!(g.payload(id), Some("Ping(7)"));
        }
        assert_eq!(g.payload(t), None, "a timer is about no message");
        assert_eq!(g.payload(EventId::NONE), None);
        let bare = send(&mut g, 10, 1, 0);
        assert_eq!(g.payload(bare), None, "recorded without a payload");
        let stored = g.events().iter().filter(|e| e.payload.is_some()).count();
        assert_eq!(stored, 1, "rendered once, on the send");
    }

    #[test]
    fn cone_is_backward_closure() {
        let mut g = graph(3);
        let s01 = send(&mut g, 1, 0, 1);
        let d01 = g.record(4, Deliver { from: 0, to: 1 }, s01);
        let s12 = send(&mut g, 5, 1, 2);
        let _unrelated = timer(&mut g, 6, 0, 9);
        let d12 = g.record(8, Deliver { from: 1, to: 2 }, s12);
        let cone = g.cone(&[d12]);
        assert_eq!(cone, vec![s01, d01, s12, d12]);
        assert!(cone.len() < g.len(), "cone strictly smaller than graph");
    }

    #[test]
    fn join_and_leave_enter_program_order() {
        let mut g = graph(2);
        let j = g.record(5, Join { process: 1 }, EventId::NONE);
        let s = send(&mut g, 6, 1, 0);
        let l = g.record(9, Leave { process: 1 }, EventId::NONE);
        assert_eq!(g.cone(&[s]), vec![j, s]);
        assert_eq!(g.cone(&[l]), vec![j, s, l]);
        assert_eq!(g.last_of(1), l);
    }

    #[test]
    fn equivocation_pairs_book_one_witness_per_slot() {
        let mut g = graph(3);
        let a = claim(&mut g, 1, 1, 7, 100);
        // Same slot, same digest: a split broadcast, not an equivocation.
        claim(&mut g, 1, 2, 7, 100);
        assert!(g.equivocations().is_empty());
        // Same slot, different digest: booked once...
        let c = claim(&mut g, 2, 2, 7, 200);
        claim(&mut g, 3, 1, 7, 300);
        assert_eq!(
            g.equivocations(),
            &[EquivocationPair {
                process: 0,
                slot: 7,
                first: a,
                second: c,
            }]
        );
        // ...and a different slot books independently.
        claim(&mut g, 4, 1, 8, 100);
        claim(&mut g, 5, 2, 8, 101);
        assert_eq!(g.equivocations().len(), 2);
    }

    #[test]
    fn disabled_graph_books_no_equivocations() {
        let mut g = CausalGraph::disabled();
        claim(&mut g, 1, 1, 7, 100);
        claim(&mut g, 1, 1, 7, 200);
        assert!(g.equivocations().is_empty());
    }

    #[test]
    fn dot_renders_clusters_and_edges() {
        let mut g = graph(2);
        let s = send(&mut g, 1, 0, 1);
        let d = g.record(2, Deliver { from: 0, to: 1 }, s);
        let all: Vec<EventId> = g.events().iter().map(|e| e.id).collect();
        let dot = g.to_dot(&all, "test");
        assert!(dot.contains("cluster_p0"));
        assert!(dot.contains("cluster_p1"));
        assert!(dot.contains(&format!("e{} [label=\"#{} t2 deliver 0→1\"];", d.0, d.0)));
        assert!(dot.contains(&format!("e{} -> e{} [color=blue];", s.0, d.0)));
    }

    fn entry(
        process: u32,
        rule: ProvRule,
        statement: &str,
        premises: Vec<(u32, &str)>,
        support: Vec<u32>,
        support_label: Option<&str>,
    ) -> ProvEntry {
        ProvEntry {
            process,
            rule,
            statement: statement.to_string(),
            premises: premises
                .into_iter()
                .map(|(p, l)| (p, l.to_string()))
                .collect(),
            support,
            support_label: support_label.map(str::to_string),
        }
    }

    #[test]
    fn provenance_walk_reaches_proposals() {
        let mut logs = vec![ProvenanceLog::disabled(); 2];
        for log in &mut logs {
            log.enable();
        }
        for p in 0..2u32 {
            logs[p as usize].push(entry(p, ProvRule::Proposal, "N(7)", vec![], vec![], None));
            logs[p as usize].push(entry(
                p,
                ProvRule::Vote,
                "N(7)",
                vec![(p, "propose N(7)")],
                vec![],
                None,
            ));
            logs[p as usize].push(entry(
                p,
                ProvRule::AcceptQuorum,
                "N(7)",
                vec![],
                vec![0, 1],
                Some("vote N(7)"),
            ));
        }
        let walk = walk_to_roots(&logs, 0, "accept N(7)");
        assert!(walk.rooted, "unresolved: {:?}", walk.unresolved);
        assert!(walk.visited.contains(&(1, 1)), "crossed into process 1");
    }

    #[test]
    fn provenance_walk_flags_unrooted_chains() {
        let mut logs = vec![ProvenanceLog::disabled()];
        logs[0].enable();
        // A vote with no premises at all: dangling, not a legal root.
        logs[0].push(entry(0, ProvRule::Vote, "N(1)", vec![], vec![], None));
        let walk = walk_to_roots(&logs, 0, "vote N(1)");
        assert!(!walk.rooted);
        // A reference to a statement nobody logged.
        let walk = walk_to_roots(&logs, 0, "confirm N(1)");
        assert!(!walk.rooted);
        assert_eq!(walk.unresolved.len(), 1);
    }

    #[test]
    fn replay_is_a_legal_root() {
        let mut logs = vec![ProvenanceLog::disabled()];
        logs[0].enable();
        logs[0].push(entry(0, ProvRule::Replay, "N(3)", vec![], vec![], None));
        logs[0].push(entry(
            0,
            ProvRule::Vote,
            "N(3)",
            vec![(0, "replay N(3)")],
            vec![],
            None,
        ));
        assert!(walk_to_roots(&logs, 0, "vote N(3)").rooted);
    }

    #[test]
    fn disabled_provenance_log_records_nothing() {
        let mut log = ProvenanceLog::disabled();
        log.push(entry(0, ProvRule::Proposal, "x", vec![], vec![], None));
        assert!(log.entries().is_empty());
    }
}
