//! Scenario → explorable system: resolves a harness [`Scenario`] into the
//! concrete graph, faulty set and slice assignment the explorer branches
//! over, and the [`Driver`] that seats, reads and attributes one
//! protocol's simulations for the (protocol-generic) engine.
//!
//! The explorer runs the system the sampler runs, by construction: the
//! scenario is instantiated by [`System::of`] (the path every sampled run
//! takes, at the scenario's `seed_base`), and every process is seated by
//! [`stellar_cup::roster::seat`] from the same protocol descriptions and
//! the same run configuration the sampled phase runner uses. What the
//! explorer adds is the adversary *variant* (the equivocators' victim
//! split, fixed at 0 when sampling) and, per wire type, who is accountable
//! for a delivery ([`Explored`]).
//!
//! Three descriptions cover the stack:
//!
//! - [`ScpProtocol`] — the knowledge-increase phase (Algorithm 3) runs
//!   once, deterministically in the scenario's `seed_base`, exactly as in
//!   the sampled pipeline — its output (each correct process's sink
//!   detection, hence its Algorithm-2 slices) is part of the system under
//!   exploration, not a branch point. The negative pipeline builds slices
//!   locally and needs no pre-phase at all.
//! - [`StackProtocol`] (`explore_discovery = true`, `stellar-minimal`
//!   only) — the full stack: every process runs discovery, sink
//!   detection and SCP *inside* the explored schedule
//!   ([`stellar_cup::explore_stack::StackActor`]), so knowledge-increase
//!   message orderings are themselves choice points.
//! - [`BftProtocol`] — the BFT-CUP baseline: `SINK` discovery plus the
//!   sink-internal quorum protocol and decision dissemination
//!   ([`scup_cup::bftcup`]), all explorable.

use scup_cup::bftcup::BftMsg;
use scup_fbqs::SliceFamily;
use scup_graph::{kosr, sink, ProcessId, ProcessSet};
use scup_harness::protocol::{self, Knowledge};
use scup_harness::scenario::{ProtocolSpec, Scenario, ValidityMode};
use scup_harness::{oracle, AdversaryKind, AdversaryRegistry, System};
use scup_obs::causal::ProvenanceLog;
use scup_scp::{ScpMsg, Value};
use scup_sim::ExploreSim;
use stellar_cup::explore_stack::StackMsg;
use stellar_cup::roster::{self, BftProtocol, Protocol, ScpProtocol, StackProtocol};

use crate::explorer::Class;

/// The resolved, concrete system one scenario explores: the sampler's
/// [`System`] at the scenario's `seed_base` (reachable through `Deref`),
/// plus what exploration derives from it.
pub struct Setup {
    /// The instantiated scenario. Its fault and churn plans are zero
    /// ([`Scenario::explore_unsupported`] rejects anything else), so
    /// retransmission is off.
    pub system: System,
    /// The sampled knowledge phase's detections and the slices built from
    /// them ([`protocol::slices_of`]; `stellar-minimal` without
    /// `explore_discovery` only).
    pub knowledge: Option<Knowledge>,
    /// Per-process slice families (empty for faulty processes; empty
    /// *altogether* for protocols that build no pre-computed slices —
    /// BFT-CUP, and the full stack under `explore_discovery`).
    pub slices: Vec<SliceFamily>,
    /// Whether the knowledge-increase phase is explored in-schedule
    /// (`stellar-minimal` with `explore_discovery = true`).
    pub explore_discovery: bool,
    /// The correct processes — whose decisions every state is judged by.
    pub correct: ProcessSet,
    /// The paper's structural premise ([`kosr::satisfies_theorem1`]) — computed
    /// once; it is schedule-independent.
    pub premise: bool,
    /// Timer budget per process (see
    /// [`ExploreSpec`](scup_harness::scenario::ExploreSpec)).
    pub timer_budget: u32,
    /// Sink membership resolved ahead of exploration (`bft-cup` with
    /// `preresolve_sink = true`): every actor starts with this member set
    /// and skips in-schedule discovery.
    pub preset_sink: Option<ProcessSet>,
}

impl std::ops::Deref for Setup {
    type Target = System;

    fn deref(&self) -> &System {
        &self.system
    }
}

impl Setup {
    /// Resolves a scenario.
    ///
    /// # Errors
    ///
    /// Returns a description when the scenario cannot be explored (unknown
    /// adversary, unsatisfiable fault placement, or a key without
    /// exploration support).
    pub fn from_scenario(
        scenario: &Scenario,
        registry: &AdversaryRegistry,
    ) -> Result<Self, String> {
        let system = System::of(scenario, scenario.seed_base, registry)?;
        let (kg, f, faulty) = (&system.kg, system.f, &system.faulty);
        // Programmatic `Scenario` construction and `--mode explore` bypass
        // the campaign parser's explore-mode check, so it runs here too —
        // same shared validator, same message (classification via the
        // resolved kind).
        let value_injecting = !system.config.adversary.preserves_validity();
        if let Some(err) = scenario.explore_unsupported(value_injecting) {
            return Err(err);
        }
        let explore_discovery = scenario.explore.explore_discovery;
        let preset_sink = if scenario.explore.preresolve_sink {
            match sink::unique_sink(kg.graph()) {
                Some(v) => Some(v),
                None => {
                    return Err(format!(
                        "scenario `{}`: `preresolve_sink = true` needs a unique sink \
                         to fix membership to, and this graph has none",
                        scenario.name
                    ));
                }
            }
        } else {
            None
        };

        let (_, knowledge, slices) = if explore_discovery {
            (None, None, Vec::new())
        } else {
            protocol::slices_of(&system)
        };

        let correct = kg.graph().vertex_set().difference(faulty);
        let premise = kosr::satisfies_theorem1(kg.graph(), f, faulty).is_ok();

        Ok(Setup {
            system,
            knowledge,
            slices,
            explore_discovery,
            correct,
            premise,
            timer_budget: scenario.explore.timer_budget,
            preset_sink,
        })
    }

    /// The SCP-phase description (slices fixed before exploration).
    pub fn scp(&self) -> ScpProtocol<'_> {
        debug_assert_eq!(self.slices.len(), self.kg.n());
        ScpProtocol::new(&self.slices, self.inputs(), &self.config)
    }

    /// The BFT-CUP description.
    pub fn bft(&self) -> BftProtocol<'_> {
        let mut protocol = BftProtocol::new(&self.kg, self.f, self.inputs(), &self.config);
        protocol.preset_sink = self.preset_sink.clone();
        protocol
    }

    /// The full-stack description (`explore_discovery = true`).
    pub fn stack(&self) -> StackProtocol<'_> {
        StackProtocol::new(&self.kg, self.f, self.inputs())
    }

    /// How many adversary variants the explorer enumerates: the
    /// equivocator chooses *which* peers receive which conflicting value —
    /// both split parities are explored (for SCP's equivocating node and
    /// for BFT-CUP's equivocating leader alike). Under SCP, `ForgedSlice`
    /// plays one value consistently (its lie is the slice family), so its
    /// split rotation is behaviourally identical and enumerating it would
    /// double-count every state — but BFT-CUP has no slices to forge and
    /// maps `ForgedSlice` onto the equivocating leader too
    /// ([`BftProtocol`]'s injector), where the split is a real choice.
    /// Value-preserving behaviours have no free choice beyond the
    /// schedule.
    pub fn variants(&self) -> u32 {
        if self.faulty.is_empty() {
            return 1;
        }
        match (self.config.adversary, self.protocol) {
            (AdversaryKind::Equivocate, _) => 2,
            (AdversaryKind::ForgedSlice, ProtocolSpec::BftCup) => 2,
            _ => 1,
        }
    }

    /// The per-state verdict the explorer classifies by — the sampler's
    /// safety rule ([`oracle::safety`], under strong validity: explore
    /// mode accepts no other variant): `Violating` when the decisions so
    /// far break agreement or validity, `Decided(v)` once every correct
    /// process decided `v`, `None` otherwise. Both violations are stable —
    /// decided values never change — so flagging them at the first state
    /// they appear in yields the minimal-depth witness.
    pub fn judge(&self, decisions: &[Option<Value>]) -> Option<Class> {
        let safety = oracle::safety(
            decisions,
            &self.correct,
            self.inputs(),
            self.config.adversary,
            ValidityMode::Strong,
        );
        if !safety.holds() {
            return Some(Class::Violating);
        }
        let (_, v) = safety.lowest?;
        (safety.decided == self.correct.len()).then_some(Class::Decided(v))
    }
}

/// What the explorer needs to know about a wire type beyond its roster
/// description: who is accountable for a delivered message — the origin
/// the eager-inert reduction's correct-origin gate runs on. (`Sync`: the
/// workers of one exploration share the description.)
pub trait Explored: Protocol + Sync {
    /// The accountable origin of a delivery: the envelope's signed origin
    /// for relayed SCP traffic, the channel sender for the point-to-point
    /// CUP protocols.
    fn msg_origin(from: ProcessId, msg: &Self::Msg) -> ProcessId;

    /// Whether the eager-inert reduction may treat this delivery as
    /// inert given whether its accountable origin is correct.
    ///
    /// The default demands a correct origin — the conservative rule SCP
    /// needs (a Byzantine origin could re-announce different slices,
    /// making the registry write order observable). Protocols whose inert
    /// deliveries are *sender-agnostic static replies* (BFT-CUP's
    /// `Discover` / post-decision `AskDecision`) may accept any origin:
    /// the receiver's reaction is a pure function of its own state, so
    /// the delivery commutes no matter who sent it.
    fn inert_origin_ok(origin_correct: bool, msg: &Self::Msg) -> bool {
        let _ = msg;
        origin_correct
    }

    /// Whether every actor this protocol seats has a *congruent*
    /// fingerprint: two slots with equal hashes give, for every event,
    /// successors with equal hashes, the same emitted events as a
    /// multiset and the same timers, and equal
    /// [`absorbs`](scup_sim::Actor::absorbs) /
    /// [`threshold_inert`](scup_sim::Actor::threshold_inert) answers ever
    /// after (the contract in [`scup_sim::explore`]'s module docs). It is
    /// what lets [`Engine::ucs`](crate::Engine::ucs) replay a repeated
    /// local step from a memo instead of executing it, and `ucs` is the
    /// only reader.
    ///
    /// A declared invariant of the protocol's implementation, like
    /// [`Explored::inert_origin_ok`] — not a setting. The default is the
    /// safe side: every step is executed.
    const CONGRUENT_FINGERPRINT: bool = false;
}

impl Explored for ScpProtocol<'_> {
    /// `ScpNode::fingerprint` hashes the envelope set, the slice
    /// registry, the sync set and the ballot state; everything its hooks
    /// and callbacks read beyond that (the vote tracker, the quorum
    /// engine) is the monotone fixpoint of exactly those, so
    /// fingerprint-equal nodes react alike.
    /// The one thing outside is the backlog's *order*, which permutes
    /// catch-up sends without changing them as a multiset. The SCP
    /// adversaries hash all they branch on (the victim split is fixed per
    /// simulation, and a memo never outlives one).
    const CONGRUENT_FINGERPRINT: bool = true;

    fn msg_origin(_from: ProcessId, msg: &ScpMsg) -> ProcessId {
        msg.origin
    }
}

/// `CONGRUENT_FINGERPRINT` stays `false`: `SinkCore`'s fingerprint drops
/// `replied` once the core has fired, but its `absorbs` still reads it
/// (see the note at `SinkCore::absorbs_msg`).
impl Explored for BftProtocol<'_> {
    /// BFT-CUP messages are point-to-point and unrelayed: the channel
    /// sender is the accountable origin.
    fn msg_origin(from: ProcessId, _msg: &BftMsg) -> ProcessId {
        from
    }

    /// Every delivery BFT-CUP actors declare inert is a sender-agnostic
    /// static reply (`Discover` → static `PD`; post-decision
    /// `AskDecision` → the write-once decision), so a Byzantine sender
    /// changes nothing about the commutation argument.
    fn inert_origin_ok(_origin_correct: bool, _msg: &BftMsg) -> bool {
        true
    }
}

/// `CONGRUENT_FINGERPRINT` stays `false`: the stack's sink detector
/// embeds the same `SinkCore` as BFT-CUP's.
impl Explored for StackProtocol<'_> {
    /// Discovery traffic is point-to-point (sender-accountable); embedded
    /// SCP envelopes carry their signed origin.
    fn msg_origin(from: ProcessId, msg: &StackMsg) -> ProcessId {
        match msg {
            StackMsg::Sd(_) => from,
            StackMsg::Scp(m) => m.origin,
        }
    }

    /// Discovery-phase inert deliveries are sender-agnostic static
    /// replies; SCP envelopes keep the conservative correct-origin rule.
    fn inert_origin_ok(origin_correct: bool, msg: &StackMsg) -> bool {
        match msg {
            StackMsg::Sd(_) => true,
            StackMsg::Scp(_) => origin_correct,
        }
    }
}

/// One protocol's simulations, as the engine sees them: how to build one
/// for an adversary variant and how to read the per-process decisions and
/// provenance logs out of a state — all through the roster description.
pub struct Driver<'a, P> {
    setup: &'a Setup,
    protocol: P,
}

impl<'a, P: Explored> Driver<'a, P> {
    /// Drives `protocol` (one of [`Setup::scp`], [`Setup::bft`],
    /// [`Setup::stack`]) over the resolved `setup`.
    pub fn new(setup: &'a Setup, protocol: P) -> Self {
        Driver { setup, protocol }
    }

    /// The resolved system.
    pub fn setup(&self) -> &'a Setup {
        self.setup
    }

    /// Builds the (unstarted) choice-driven simulation for one adversary
    /// variant: the roster's seats, the variant rotating the
    /// equivocators' victim split.
    pub fn build_sim(&self, variant: u32) -> ExploreSim<P::Msg> {
        let setup = self.setup;
        let mut sim = ExploreSim::new(setup.kg.clone(), setup.timer_budget);
        for i in setup.kg.processes() {
            sim.add_actor(roster::seat(
                &self.protocol,
                i,
                setup.faulty.contains(i),
                setup.config.adversary,
                variant as usize,
            ));
        }
        sim
    }

    /// The per-process decisions in the current state (`None` for faulty
    /// or undecided processes — no faulty seat is the correct actor).
    pub fn decisions(&self, sim: &ExploreSim<P::Msg>) -> Vec<Option<Value>> {
        self.setup
            .kg
            .processes()
            .map(|i| sim.actor_as::<P::Actor>(i).and_then(P::decision))
            .collect()
    }

    /// Arms decision provenance on every correct actor of an (unstarted)
    /// simulation. Only the counterexample replay calls this — never the
    /// exploration itself, so provenance stays off the fingerprinted
    /// state space.
    pub fn enable_provenance(&self, sim: &mut ExploreSim<P::Msg>) {
        for i in self.setup.kg.processes() {
            if let Some(actor) = sim.actor_as_mut::<P::Actor>(i) {
                P::enable_provenance(actor);
            }
        }
    }

    /// The per-process provenance logs after a replay (disabled logs
    /// where the process records none).
    pub fn provenance(&self, sim: &ExploreSim<P::Msg>) -> Vec<ProvenanceLog> {
        self.setup
            .kg
            .processes()
            .map(|i| {
                sim.actor_as::<P::Actor>(i)
                    .map(P::provenance)
                    .unwrap_or_default()
            })
            .collect()
    }
}
