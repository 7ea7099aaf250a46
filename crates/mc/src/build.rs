//! Scenario → explorable system: resolves a harness [`Scenario`] into the
//! concrete graph, faulty set, slice assignment and actor roster the
//! explorer branches over — and the [`Driver`] that tells the (protocol-
//! generic) engine how to build, read and attribute one protocol's
//! simulations.
//!
//! Three drivers cover the stack:
//!
//! - [`ScpDriver`] — the PR 3 semantics: the knowledge-increase phase
//!   (Algorithm 3) runs once, deterministically in the scenario's
//!   `seed_base`, exactly as in the sampled pipeline — its output (each
//!   correct process's sink detection, hence its Algorithm-2 slices) is
//!   part of the system under exploration, not a branch point. The
//!   negative pipeline builds slices locally and needs no pre-phase at
//!   all.
//! - [`StackDriver`] (`explore_discovery = true`, `stellar-minimal`
//!   only) — the full stack: every process runs discovery, sink
//!   detection and SCP *inside* the explored schedule
//!   ([`stellar_cup::explore_stack::StackActor`]), so knowledge-increase
//!   message orderings are themselves choice points.
//! - [`BftDriver`] — the BFT-CUP baseline: `SINK` discovery plus the
//!   sink-internal quorum protocol and decision dissemination
//!   ([`scup_cup::bftcup`]), all explorable.

use scup_cup::bftcup::{BftConfig, BftCupActor, BftMsg, EquivocatingLeader};
use scup_fbqs::SliceFamily;
use scup_graph::{kosr, sink, KnowledgeGraph, ProcessId, ProcessSet};
use scup_harness::scenario::{ProtocolSpec, Scenario};
use scup_harness::{topology, AdversaryKind, AdversaryRegistry};
use scup_obs::causal::ProvenanceLog;
use scup_scp::node::EquivocatingScpNode;
use scup_scp::{ScpConfig, ScpMsg, ScpNode, Value};
use scup_sim::adversary::{CrashActor, EchoActor, SilentActor};
use scup_sim::{ExploreSim, SimMessage};
use stellar_cup::build_slices::build_slices;
use stellar_cup::consensus::{self, EndToEndConfig};
use stellar_cup::explore_stack::{StackActor, StackMsg};
use stellar_cup::sink_detector::GetSinkMode;
use stellar_cup::theorems;

/// The resolved, concrete system one scenario explores.
pub struct Setup {
    /// The knowledge graph.
    pub kg: KnowledgeGraph,
    /// Fault threshold.
    pub f: usize,
    /// The faulty processes.
    pub faulty: ProcessSet,
    /// Per-process inputs.
    pub inputs: Vec<Value>,
    /// Per-process slice families (empty for faulty processes; empty
    /// *altogether* for protocols that build no pre-computed slices —
    /// BFT-CUP, and the full stack under `explore_discovery`).
    pub slices: Vec<SliceFamily>,
    /// The Byzantine behaviour.
    pub adversary: AdversaryKind,
    /// The protocol under exploration.
    pub protocol: ProtocolSpec,
    /// Whether the knowledge-increase phase is explored in-schedule
    /// (`stellar-minimal` with `explore_discovery = true`).
    pub explore_discovery: bool,
    /// The paper's structural premise (Byzantine-safe `k`-OSR with enough
    /// correct sink members) — computed once; it is schedule-independent.
    pub premise: bool,
    /// Timer budget per process (see
    /// [`ExploreSpec`](scup_harness::scenario::ExploreSpec)).
    pub timer_budget: u32,
    /// Sink membership resolved ahead of exploration (`bft-cup` with
    /// `preresolve_sink = true`): every actor starts with this member set
    /// and skips in-schedule discovery.
    pub preset_sink: Option<ProcessSet>,
}

impl Setup {
    /// Resolves a scenario.
    ///
    /// # Errors
    ///
    /// Returns a description when the scenario cannot be explored (unknown
    /// adversary, unsatisfiable fault placement, or a knob combination
    /// without exploration support).
    pub fn from_scenario(
        scenario: &Scenario,
        registry: &AdversaryRegistry,
    ) -> Result<Self, String> {
        let adversary = registry.resolve(&scenario.adversary)?;
        let seed = scenario.seed_base;
        let explore_discovery = scenario.explore.explore_discovery;
        let (kg, generated) = topology::instantiate(&scenario.topology, scenario.f, seed);
        let faulty = topology::place_faults(&scenario.faults, &kg, generated, seed)?;
        let inputs: Vec<Value> = scenario.resolved_inputs(kg.n());

        // Programmatic `Scenario` construction bypasses the campaign
        // parser, so the support check runs here too — same shared
        // validator, same message (classification via the resolved kind).
        let value_injecting = !matches!(
            adversary,
            AdversaryKind::Silent | AdversaryKind::Echo | AdversaryKind::Crash { .. }
        );
        if let Some(err) = scenario.explore_discovery_unsupported(value_injecting) {
            return Err(err);
        }
        if let Some(err) = scenario.preresolve_sink_unsupported() {
            return Err(err);
        }
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

        let slices = match scenario.protocol {
            ProtocolSpec::StellarMinimal if explore_discovery => Vec::new(),
            ProtocolSpec::StellarMinimal => {
                let config = EndToEndConfig {
                    seed,
                    gst: scenario.network.gst,
                    delta: scenario.network.delta,
                    get_sink_mode: GetSinkMode::Direct,
                    adversary: adversary.to_scp(),
                    inputs: None,
                    max_ticks: scenario.network.max_ticks,
                    trace: false,
                    // The explorer quantifies over schedules, not faults;
                    // timed fault plans have no untimed counterpart.
                    faults: scup_sim::FaultPlan::default(),
                    retransmit: scup_sim::RetransmitConfig::disabled(),
                    churn: scup_sim::ChurnPlan::default(),
                    forensics: false,
                };
                let (detections, _) =
                    consensus::run_sink_detection(&kg, scenario.f, &faulty, &config);
                detections
                    .iter()
                    .map(|d| match d {
                        Some(d) => build_slices(d, scenario.f),
                        None => SliceFamily::empty(),
                    })
                    .collect()
            }
            ProtocolSpec::StellarLocal(strategy) => kg
                .processes()
                .map(|i| strategy.build(kg.pd(i), scenario.f))
                .collect(),
            ProtocolSpec::BftCup => Vec::new(),
        };

        let all = kg.graph().vertex_set();
        let correct = all.difference(&faulty);
        let premise = kosr::satisfies_theorem1(kg.graph(), scenario.f, &faulty)
            && sink::unique_sink(kg.graph()).is_some_and(|v_sink| {
                theorems::sink_has_enough_correct(&v_sink, &correct, scenario.f)
            });

        Ok(Setup {
            kg,
            f: scenario.f,
            faulty,
            inputs,
            slices,
            adversary,
            protocol: scenario.protocol,
            explore_discovery,
            premise,
            timer_budget: scenario.explore.timer_budget,
            preset_sink,
        })
    }

    /// How many adversary variants the explorer enumerates: the
    /// equivocator chooses *which* peers receive which conflicting value —
    /// both split parities are explored (for SCP's equivocating node and
    /// for BFT-CUP's equivocating leader alike). Under SCP, `ForgedSlice`
    /// plays one value consistently (its lie is the slice family), so its
    /// split rotation is behaviourally identical and enumerating it would
    /// double-count every state — but BFT-CUP has no slices to forge and
    /// maps `ForgedSlice` onto the equivocating leader too
    /// ([`BftDriver::build_sim`]), where the split is a real choice.
    /// Value-preserving behaviours have no free choice beyond the
    /// schedule.
    pub fn variants(&self) -> u32 {
        if self.faulty.is_empty() {
            return 1;
        }
        match (self.adversary, self.protocol) {
            (AdversaryKind::Equivocate, _) => 2,
            (AdversaryKind::ForgedSlice, ProtocolSpec::BftCup) => 2,
            _ => 1,
        }
    }

    /// The correct processes.
    pub fn correct(&self) -> ProcessSet {
        self.kg.graph().vertex_set().difference(&self.faulty)
    }

    /// Cheap per-state safety check: `true` when the decisions so far
    /// already violate agreement, or (for value-preserving adversaries)
    /// validity. Both violations are stable — decided values never
    /// change — so flagging them at the first state they appear in yields
    /// the minimal-depth witness.
    pub fn violates(&self, decisions: &[Option<Value>]) -> bool {
        let crash = matches!(self.adversary, AdversaryKind::Crash { .. });
        let check_validity = self.adversary.preserves_validity();
        let mut agreed: Option<Value> = None;
        for i in self.correct().iter() {
            let Some(v) = decisions[i.index()] else {
                continue;
            };
            match agreed {
                None => agreed = Some(v),
                Some(prev) if prev != v => return true,
                Some(_) => {}
            }
            if check_validity {
                let proposed_ok = self.inputs.iter().enumerate().any(|(j, &input)| {
                    input == v && (crash || !self.faulty.contains(ProcessId::new(j as u32)))
                });
                if !proposed_ok {
                    return true;
                }
            }
        }
        false
    }
}

/// The protocol-specific surface of one exploration: how to build a
/// simulation for an adversary variant, how to read the per-process
/// decisions out of a state, and who is accountable for a delivered
/// message (the origin the eager-inert reduction's correct-origin gate
/// runs on).
pub trait Driver: Sync {
    /// The wire type of the explored protocol.
    type Msg: SimMessage;

    /// The resolved system.
    fn setup(&self) -> &Setup;

    /// Builds the (unstarted) choice-driven simulation for one adversary
    /// variant.
    fn build_sim(&self, variant: u32) -> ExploreSim<Self::Msg>;

    /// The per-process decisions in the current state (`None` for faulty
    /// or undecided processes).
    fn decisions(&self, sim: &ExploreSim<Self::Msg>) -> Vec<Option<Value>>;

    /// The accountable origin of a delivery: the envelope's signed origin
    /// for relayed SCP traffic, the channel sender for the point-to-point
    /// CUP protocols.
    fn msg_origin(&self, from: ProcessId, msg: &Self::Msg) -> ProcessId;

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
    fn inert_origin_ok(&self, origin_correct: bool, msg: &Self::Msg) -> bool {
        let _ = msg;
        origin_correct
    }

    /// Arms decision provenance on every correct actor of an (unstarted)
    /// simulation. Only the counterexample replay calls this — never the
    /// exploration itself, so provenance stays off the fingerprinted
    /// state space. The default is a no-op for protocols without capture.
    fn enable_provenance(&self, sim: &mut ExploreSim<Self::Msg>) {
        let _ = sim;
    }

    /// The per-process provenance logs after a replay (disabled logs
    /// where the protocol or the process records none).
    fn provenance(&self, sim: &ExploreSim<Self::Msg>) -> Vec<ProvenanceLog> {
        let _ = sim;
        vec![ProvenanceLog::default(); self.setup().kg.n()]
    }
}

/// The SCP-phase driver (slices fixed before exploration); see the
/// [module docs](self).
pub struct ScpDriver<'a> {
    setup: &'a Setup,
}

impl<'a> ScpDriver<'a> {
    /// Wraps a resolved setup (which must carry pre-computed slices).
    pub fn new(setup: &'a Setup) -> Self {
        debug_assert_eq!(setup.slices.len(), setup.kg.n());
        ScpDriver { setup }
    }
}

impl Driver for ScpDriver<'_> {
    type Msg = ScpMsg;

    fn setup(&self) -> &Setup {
        self.setup
    }

    /// Mirrors the sampled pipeline's actor roster
    /// (`consensus::run_scp_with_slices`), with the variant rotating the
    /// equivocators' victim split.
    fn build_sim(&self, variant: u32) -> ExploreSim<ScpMsg> {
        let setup = self.setup;
        let mut sim = ExploreSim::new(setup.kg.clone(), setup.timer_budget);
        for i in setup.kg.processes() {
            if setup.faulty.contains(i) {
                match setup.adversary {
                    AdversaryKind::Silent => sim.add_actor(Box::new(SilentActor::new())),
                    AdversaryKind::Echo => sim.add_actor(Box::new(EchoActor::new())),
                    AdversaryKind::Equivocate => sim.add_actor(Box::new(
                        EquivocatingScpNode::new(
                            (u64::MAX - 1, u64::MAX),
                            SliceFamily::explicit([ProcessSet::singleton(i)]),
                        )
                        .with_split(variant as usize),
                    )),
                    AdversaryKind::ForgedSlice => sim.add_actor(Box::new(
                        EquivocatingScpNode::new(
                            (u64::MAX - 2, u64::MAX - 2),
                            SliceFamily::explicit([ProcessSet::singleton(i)]),
                        )
                        .with_split(variant as usize),
                    )),
                    AdversaryKind::Crash { after } => {
                        let config = ScpConfig::new(
                            setup.slices[i.index()].clone(),
                            setup.inputs[i.index()],
                        );
                        sim.add_actor(Box::new(CrashActor::new(ScpNode::new(config), after)))
                    }
                };
            } else {
                let config =
                    ScpConfig::new(setup.slices[i.index()].clone(), setup.inputs[i.index()]);
                sim.add_actor(Box::new(ScpNode::new(config)));
            }
        }
        sim
    }

    fn decisions(&self, sim: &ExploreSim<ScpMsg>) -> Vec<Option<Value>> {
        self.setup
            .kg
            .processes()
            .map(|i| {
                if self.setup.faulty.contains(i) {
                    None
                } else {
                    sim.actor_as::<ScpNode>(i).and_then(ScpNode::externalized)
                }
            })
            .collect()
    }

    fn msg_origin(&self, _from: ProcessId, msg: &ScpMsg) -> ProcessId {
        msg.origin
    }

    fn enable_provenance(&self, sim: &mut ExploreSim<ScpMsg>) {
        for i in self.setup.kg.processes() {
            if let Some(node) = sim.actor_as_mut::<ScpNode>(i) {
                node.enable_provenance();
            }
        }
    }

    fn provenance(&self, sim: &ExploreSim<ScpMsg>) -> Vec<ProvenanceLog> {
        self.setup
            .kg
            .processes()
            .map(|i| {
                sim.actor_as::<ScpNode>(i)
                    .map(|node| node.provenance().clone())
                    .unwrap_or_default()
            })
            .collect()
    }
}

/// The BFT-CUP driver: discovery, sink-internal quorum consensus and
/// decision dissemination, all inside the explored schedule.
pub struct BftDriver<'a> {
    setup: &'a Setup,
}

impl<'a> BftDriver<'a> {
    /// Wraps a resolved BFT-CUP setup.
    pub fn new(setup: &'a Setup) -> Self {
        BftDriver { setup }
    }
}

impl Driver for BftDriver<'_> {
    type Msg = BftMsg;

    fn setup(&self) -> &Setup {
        self.setup
    }

    /// Mirrors the sampling runner's roster (`protocol::execute` for
    /// `bft-cup`); the variant rotates the equivocating leader's victim
    /// split.
    fn build_sim(&self, variant: u32) -> ExploreSim<BftMsg> {
        let setup = self.setup;
        let mut sim = ExploreSim::new(setup.kg.clone(), setup.timer_budget);
        // Any positive value explores the same space: the untimed
        // semantics drops timer delays (a pending timer is just a
        // schedulable choice) and the fingerprint does not hash them.
        const VIEW_TIMEOUT: u64 = 400;
        let config = BftConfig::new(setup.f, VIEW_TIMEOUT);
        // With `preresolve_sink`, membership is fixed up front and SINK
        // discovery never enters the schedule (correct actors and the
        // equivocating leader alike).
        let bft = |i: ProcessId| {
            let actor = BftCupActor::new(
                setup.kg.pd(i).clone(),
                setup.inputs[i.index()],
                config.clone(),
            );
            match &setup.preset_sink {
                Some(m) => actor.with_members(m.clone()),
                None => actor,
            }
        };
        for i in setup.kg.processes() {
            if setup.faulty.contains(i) {
                match setup.adversary {
                    AdversaryKind::Silent => sim.add_actor(Box::new(SilentActor::new())),
                    AdversaryKind::Echo => sim.add_actor(Box::new(EchoActor::new())),
                    AdversaryKind::Crash { after } => {
                        sim.add_actor(Box::new(CrashActor::new(bft(i), after)))
                    }
                    // BFT-CUP has no slices to forge; both value-injecting
                    // kinds map to the equivocating leader.
                    AdversaryKind::Equivocate | AdversaryKind::ForgedSlice => {
                        let leader = EquivocatingLeader::new(
                            setup.kg.pd(i).clone(),
                            setup.f,
                            (u64::MAX - 1, u64::MAX),
                        )
                        .with_split(variant as usize);
                        let leader = match &setup.preset_sink {
                            Some(m) => leader.with_members(m.clone()),
                            None => leader,
                        };
                        sim.add_actor(Box::new(leader))
                    }
                };
            } else {
                sim.add_actor(Box::new(bft(i)));
            }
        }
        sim
    }

    fn decisions(&self, sim: &ExploreSim<BftMsg>) -> Vec<Option<Value>> {
        self.setup
            .kg
            .processes()
            .map(|i| {
                if self.setup.faulty.contains(i) {
                    None
                } else {
                    sim.actor_as::<BftCupActor>(i)
                        .and_then(BftCupActor::decision)
                }
            })
            .collect()
    }

    /// BFT-CUP messages are point-to-point and unrelayed: the channel
    /// sender is the accountable origin.
    fn msg_origin(&self, from: ProcessId, _msg: &BftMsg) -> ProcessId {
        from
    }

    /// Every delivery BFT-CUP actors declare inert is a sender-agnostic
    /// static reply (`Discover` → static `PD`; post-decision
    /// `AskDecision` → the write-once decision), so a Byzantine sender
    /// changes nothing about the commutation argument.
    fn inert_origin_ok(&self, _origin_correct: bool, _msg: &BftMsg) -> bool {
        true
    }

    fn enable_provenance(&self, sim: &mut ExploreSim<BftMsg>) {
        for i in self.setup.kg.processes() {
            if let Some(actor) = sim.actor_as_mut::<BftCupActor>(i) {
                actor.enable_provenance();
            }
        }
    }

    fn provenance(&self, sim: &ExploreSim<BftMsg>) -> Vec<ProvenanceLog> {
        self.setup
            .kg
            .processes()
            .map(|i| {
                sim.actor_as::<BftCupActor>(i)
                    .map(|actor| actor.provenance().clone())
                    .unwrap_or_default()
            })
            .collect()
    }
}

/// The full-stack driver (`explore_discovery = true`): discovery, sink
/// detection, Algorithm-2 slices and SCP all run inside the explored
/// schedule.
pub struct StackDriver<'a> {
    setup: &'a Setup,
}

impl<'a> StackDriver<'a> {
    /// Wraps a resolved full-stack setup.
    pub fn new(setup: &'a Setup) -> Self {
        StackDriver { setup }
    }
}

impl Driver for StackDriver<'_> {
    type Msg = StackMsg;

    fn setup(&self) -> &Setup {
        self.setup
    }

    fn build_sim(&self, _variant: u32) -> ExploreSim<StackMsg> {
        let setup = self.setup;
        let mut sim = ExploreSim::new(setup.kg.clone(), setup.timer_budget);
        for i in setup.kg.processes() {
            if setup.faulty.contains(i) {
                match setup.adversary {
                    AdversaryKind::Silent => sim.add_actor(Box::new(SilentActor::new())),
                    AdversaryKind::Echo => sim.add_actor(Box::new(EchoActor::new())),
                    AdversaryKind::Crash { after } => sim.add_actor(Box::new(CrashActor::new(
                        StackActor::new(setup.kg.pd(i).clone(), setup.f, setup.inputs[i.index()]),
                        after,
                    ))),
                    // Rejected by `Setup::from_scenario`.
                    AdversaryKind::Equivocate | AdversaryKind::ForgedSlice => {
                        unreachable!("value-injecting adversaries are rejected at setup time")
                    }
                };
            } else {
                sim.add_actor(Box::new(StackActor::new(
                    setup.kg.pd(i).clone(),
                    setup.f,
                    setup.inputs[i.index()],
                )));
            }
        }
        sim
    }

    fn decisions(&self, sim: &ExploreSim<StackMsg>) -> Vec<Option<Value>> {
        self.setup
            .kg
            .processes()
            .map(|i| {
                if self.setup.faulty.contains(i) {
                    None
                } else {
                    sim.actor_as::<StackActor>(i)
                        .and_then(StackActor::externalized)
                }
            })
            .collect()
    }

    /// Discovery traffic is point-to-point (sender-accountable); embedded
    /// SCP envelopes carry their signed origin.
    fn msg_origin(&self, from: ProcessId, msg: &StackMsg) -> ProcessId {
        match msg {
            StackMsg::Sd(_) => from,
            StackMsg::Scp(m) => m.origin,
        }
    }

    /// Discovery-phase inert deliveries are sender-agnostic static
    /// replies; SCP envelopes keep the conservative correct-origin rule.
    fn inert_origin_ok(&self, origin_correct: bool, msg: &StackMsg) -> bool {
        match msg {
            StackMsg::Sd(_) => true,
            StackMsg::Scp(_) => origin_correct,
        }
    }

    fn enable_provenance(&self, sim: &mut ExploreSim<StackMsg>) {
        for i in self.setup.kg.processes() {
            if let Some(actor) = sim.actor_as_mut::<StackActor>(i) {
                actor.enable_provenance();
            }
        }
    }

    fn provenance(&self, sim: &ExploreSim<StackMsg>) -> Vec<ProvenanceLog> {
        self.setup
            .kg
            .processes()
            .map(|i| {
                sim.actor_as::<StackActor>(i)
                    .map(|actor| actor.provenance())
                    .unwrap_or_default()
            })
            .collect()
    }
}
