//! The roster: who stands at process `i`.
//!
//! Every host that runs the workspace's protocols — the sampled phase
//! runner in [`crate::consensus`], the exhaustive explorer in `scup-mc` —
//! seats its processes through [`seat`], so "the explorer runs the system
//! the sampler runs" holds by construction. A [`Protocol`] describes one
//! wire type: the correct actor at `i`, the value-injecting adversary at
//! `i`, and how a decision and a provenance log are read back; [`seat`]
//! maps `(faulty?, adversary)` onto [`SilentActor`] / [`EchoActor`] /
//! [`CrashActor`] around the correct actor / the description's injector.
//! A correct seat is [`Protocol::correct`] itself, so every seat the
//! roster builds from the correct actor forks and fingerprints as that
//! actor does. The actor does not know who drives it, and neither does
//! the code that seats it.
//!
//! Everything the hosts once disagreed about is a field of a description:
//! the retransmission schedule (every actor-building seat gets it, the
//! crash node included; each correct actor retransmits natively), the
//! BFT-CUP view timeout (one formula over `Δ`),
//! the equivocators' victim split (an argument of [`seat`]; the sampler
//! passes 0), [`BftProtocol::stale_joiner`] and
//! [`BftProtocol::preset_sink`].

use scup_cup::bftcup::{BftConfig, BftCupActor, BftMsg, EquivocatingLeader};
use scup_fbqs::SliceFamily;
use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};
use scup_obs::causal::ProvenanceLog;
use scup_scp::node::EquivocatingScpNode;
use scup_scp::{ScpConfig, ScpMsg, ScpNode, Value};
use scup_sim::adversary::{CrashActor, EchoActor, SilentActor};
use scup_sim::{Actor, RetransmitConfig, SimMessage};

use crate::consensus::EndToEndConfig;
use crate::explore_stack::{StackActor, StackMsg};
use crate::sink_detector::{GetSinkMode, SdMsg, SinkDetectorActor};

/// A protocol-agnostic Byzantine behaviour (`scup-harness` re-exports
/// this type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdversaryKind {
    /// Never send anything (the Lemma-2 behaviour; subsumes crashes in an
    /// asynchronous analysis).
    #[default]
    Silent,
    /// Behave correctly, then fail-stop after `after` message deliveries
    /// (in each phase of a pipeline).
    Crash {
        /// Deliveries before the stop.
        after: u64,
    },
    /// Reflect every received message to every known process.
    Echo,
    /// Send conflicting protocol values to different processes (and forge
    /// slices, where the protocol has them).
    Equivocate,
    /// Participate consistently but advertise forged (self-only) quorum
    /// slices; in slice-free protocols this degrades to equivocation.
    ForgedSlice,
}

impl AdversaryKind {
    /// The kind itself: the Stellar pipeline's adversary configuration
    /// and the harness's adversary kind are one enum. Kept for callers
    /// written against the two-enum API.
    pub fn to_scp(self) -> AdversaryKind {
        self
    }

    /// `true` when the behaviour cannot inject values of its own, so the
    /// validity oracle ("the decided value was proposed by a correct
    /// process") is a sound requirement.
    pub fn preserves_validity(self) -> bool {
        match self {
            AdversaryKind::Silent | AdversaryKind::Crash { .. } | AdversaryKind::Echo => true,
            AdversaryKind::Equivocate | AdversaryKind::ForgedSlice => false,
        }
    }
}

/// One wire type's protocol description; see the [module docs](self).
pub trait Protocol {
    /// The wire type.
    type Msg: SimMessage;
    /// The correct process's state machine.
    type Actor: Actor<Self::Msg> + Clone;

    /// The correct actor at process `i` — seated as is at a correct
    /// process, and inside [`CrashActor`] at a crashing one.
    fn correct(&self, i: ProcessId) -> Self::Actor;

    /// The value-injecting adversary (`kind` is
    /// [`AdversaryKind::Equivocate`] or [`AdversaryKind::ForgedSlice`]) at
    /// process `i`, with `split` rotating which peers receive which
    /// conflicting value. `None` when the protocol carries no value to
    /// inject — the seat then stays silent.
    fn injector(
        &self,
        i: ProcessId,
        kind: AdversaryKind,
        split: usize,
    ) -> Option<Box<dyn Actor<Self::Msg>>>;

    /// The value a correct actor decided, if it has.
    fn decision(actor: &Self::Actor) -> Option<Value>;

    /// Arms decision provenance on a correct actor (forensic replays
    /// only; never part of the fingerprinted state).
    fn enable_provenance(actor: &mut Self::Actor);

    /// The correct actor's provenance log (disabled unless armed).
    fn provenance(actor: &Self::Actor) -> ProvenanceLog;

    /// Messages the correct actor's retransmission layer re-sent (also
    /// read of the correct actor a crash seat wraps).
    fn retransmissions(actor: &Self::Actor) -> u64;
}

/// The actor standing at process `i`: the description's correct actor,
/// or — for a faulty `i` — the behaviour `adversary` names. The one place
/// the generic Byzantine actors are constructed.
pub fn seat<P: Protocol>(
    protocol: &P,
    i: ProcessId,
    faulty: bool,
    adversary: AdversaryKind,
    split: usize,
) -> Box<dyn Actor<P::Msg>> {
    if !faulty {
        return Box::new(protocol.correct(i));
    }
    match adversary {
        AdversaryKind::Silent => Box::new(SilentActor::new()),
        AdversaryKind::Echo => Box::new(EchoActor::new()),
        // Correct-then-fail-stop: the real protocol until the crash point.
        AdversaryKind::Crash { after } => Box::new(CrashActor::new(protocol.correct(i), after)),
        AdversaryKind::Equivocate | AdversaryKind::ForgedSlice => protocol
            .injector(i, adversary, split)
            .unwrap_or_else(|| Box::new(SilentActor::new())),
    }
}

/// The knowledge-increase phase (Algorithm 3) over [`SdMsg`].
pub struct SdProtocol<'a> {
    kg: &'a KnowledgeGraph,
    f: usize,
    mode: GetSinkMode,
    retransmit: &'a RetransmitConfig,
}

impl<'a> SdProtocol<'a> {
    /// The sink detectors of `kg` under `config`.
    pub fn new(kg: &'a KnowledgeGraph, f: usize, config: &'a EndToEndConfig) -> Self {
        SdProtocol {
            kg,
            f,
            mode: config.get_sink_mode,
            retransmit: &config.retransmit,
        }
    }
}

impl Protocol for SdProtocol<'_> {
    type Msg = SdMsg;
    type Actor = SinkDetectorActor;

    fn correct(&self, i: ProcessId) -> SinkDetectorActor {
        SinkDetectorActor::new(
            self.kg.pd(i).clone(),
            self.f,
            self.mode,
            self.retransmit.clone(),
        )
    }

    /// Value-injecting processes stay silent during knowledge increase
    /// (the behaviour Lemma 2 relies on).
    fn injector(&self, _: ProcessId, _: AdversaryKind, _: usize) -> Option<Box<dyn Actor<SdMsg>>> {
        None
    }

    /// Knowledge increase decides nothing and records no provenance.
    fn decision(_: &SinkDetectorActor) -> Option<Value> {
        None
    }

    fn enable_provenance(_: &mut SinkDetectorActor) {}

    fn provenance(_: &SinkDetectorActor) -> ProvenanceLog {
        ProvenanceLog::default()
    }

    fn retransmissions(actor: &SinkDetectorActor) -> u64 {
        actor.retransmissions()
    }
}

/// SCP over fixed slices ([`ScpMsg`]).
pub struct ScpProtocol<'a> {
    slices: &'a [SliceFamily],
    inputs: &'a [Value],
    retransmit: &'a RetransmitConfig,
}

impl<'a> ScpProtocol<'a> {
    /// SCP nodes with the given per-process slices and inputs, under
    /// `config`'s retransmission schedule.
    pub fn new(slices: &'a [SliceFamily], inputs: &'a [Value], config: &'a EndToEndConfig) -> Self {
        ScpProtocol {
            slices,
            inputs,
            retransmit: &config.retransmit,
        }
    }
}

impl Protocol for ScpProtocol<'_> {
    type Msg = ScpMsg;
    type Actor = ScpNode;

    fn correct(&self, i: ProcessId) -> ScpNode {
        let mut config = ScpConfig::new(self.slices[i.index()].clone(), self.inputs[i.index()]);
        config.retransmit = self.retransmit.clone();
        ScpNode::new(config)
    }

    /// Both kinds forge a self-only slice family; the equivocator also
    /// plays two values, the slice forger one.
    fn injector(
        &self,
        i: ProcessId,
        kind: AdversaryKind,
        split: usize,
    ) -> Option<Box<dyn Actor<ScpMsg>>> {
        let values = match kind {
            AdversaryKind::ForgedSlice => (u64::MAX - 2, u64::MAX - 2),
            _ => (u64::MAX - 1, u64::MAX),
        };
        let forged = SliceFamily::explicit([ProcessSet::singleton(i)]);
        Some(Box::new(
            EquivocatingScpNode::new(values, forged).with_split(split),
        ))
    }

    fn decision(node: &ScpNode) -> Option<Value> {
        node.externalized()
    }

    fn enable_provenance(node: &mut ScpNode) {
        node.enable_provenance();
    }

    fn provenance(node: &ScpNode) -> ProvenanceLog {
        node.provenance().clone()
    }

    fn retransmissions(node: &ScpNode) -> u64 {
        node.stats().retransmissions
    }
}

/// The BFT-CUP baseline ([`BftMsg`]): `SINK` discovery, the sink-internal
/// quorum protocol and decision dissemination.
pub struct BftProtocol<'a> {
    kg: &'a KnowledgeGraph,
    inputs: &'a [Value],
    config: BftConfig,
    /// The `stale_joiner` exhibit: this process boots with a pre-baked
    /// decision for a value nobody proposed — a deliberately
    /// misconfigured node the validity oracle must flag.
    pub stale_joiner: Option<ProcessId>,
    /// Sink membership fixed up front (`preresolve_sink`): correct actors
    /// and the equivocating leader alike start with this member set and
    /// `SINK` discovery never enters the schedule.
    pub preset_sink: Option<ProcessSet>,
}

impl<'a> BftProtocol<'a> {
    /// BFT-CUP actors over `kg` under `config`'s `Δ` and retransmission
    /// schedule, with no stale joiner and in-schedule discovery.
    pub fn new(
        kg: &'a KnowledgeGraph,
        f: usize,
        inputs: &'a [Value],
        config: &EndToEndConfig,
    ) -> Self {
        // The view timeout must comfortably exceed pre-GST delays or view
        // changes churn; 500 matches the workspace's experiment binaries.
        // (Under exploration any positive value spans the same space: the
        // untimed semantics drops timer delays and never hashes them.)
        let mut bft = BftConfig::new(f, (config.delta * 4).max(500));
        bft.retransmit = config.retransmit.clone();
        BftProtocol {
            kg,
            inputs,
            config: bft,
            stale_joiner: None,
            preset_sink: None,
        }
    }
}

impl Protocol for BftProtocol<'_> {
    type Msg = BftMsg;
    type Actor = BftCupActor;

    fn correct(&self, i: ProcessId) -> BftCupActor {
        let mut actor = BftCupActor::new(
            self.kg.pd(i).clone(),
            self.inputs[i.index()],
            self.config.clone(),
        );
        if let Some(members) = &self.preset_sink {
            actor = actor.with_members(members.clone());
        }
        if self.stale_joiner == Some(i) {
            let unproposed = self.inputs.iter().copied().max().unwrap_or(0) + 999;
            actor = actor.with_forced_decision(unproposed);
        }
        actor
    }

    /// BFT-CUP has no slices to forge; both value-injecting kinds map to
    /// the equivocating leader.
    fn injector(
        &self,
        i: ProcessId,
        _: AdversaryKind,
        split: usize,
    ) -> Option<Box<dyn Actor<BftMsg>>> {
        let mut leader = EquivocatingLeader::new(
            self.kg.pd(i).clone(),
            self.config.f,
            (u64::MAX - 1, u64::MAX),
        )
        .with_split(split);
        if let Some(members) = &self.preset_sink {
            leader = leader.with_members(members.clone());
        }
        Some(Box::new(leader))
    }

    fn decision(actor: &BftCupActor) -> Option<Value> {
        actor.decision()
    }

    fn enable_provenance(actor: &mut BftCupActor) {
        actor.enable_provenance();
    }

    fn provenance(actor: &BftCupActor) -> ProvenanceLog {
        actor.provenance().clone()
    }

    fn retransmissions(actor: &BftCupActor) -> u64 {
        actor.retransmissions()
    }
}

/// The full positive pipeline in one actor ([`StackMsg`]): discovery,
/// sink detection, Algorithm-2 slices and SCP, all inside one schedule.
pub struct StackProtocol<'a> {
    kg: &'a KnowledgeGraph,
    f: usize,
    inputs: &'a [Value],
}

impl<'a> StackProtocol<'a> {
    /// Stack actors over `kg` with the given inputs.
    pub fn new(kg: &'a KnowledgeGraph, f: usize, inputs: &'a [Value]) -> Self {
        StackProtocol { kg, f, inputs }
    }
}

impl Protocol for StackProtocol<'_> {
    type Msg = StackMsg;
    type Actor = StackActor;

    fn correct(&self, i: ProcessId) -> StackActor {
        StackActor::new(self.kg.pd(i).clone(), self.f, self.inputs[i.index()])
    }

    fn injector(
        &self,
        _: ProcessId,
        kind: AdversaryKind,
        _: usize,
    ) -> Option<Box<dyn Actor<StackMsg>>> {
        unreachable!("no full-stack {kind:?} actor exists; hosts reject the pairing at setup time")
    }

    fn decision(actor: &StackActor) -> Option<Value> {
        actor.externalized()
    }

    fn enable_provenance(actor: &mut StackActor) {
        actor.enable_provenance();
    }

    fn provenance(actor: &StackActor) -> ProvenanceLog {
        actor.provenance()
    }

    /// The stack is exploration-only, so it never retransmits.
    fn retransmissions(_: &StackActor) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scup_graph::generators;
    use scup_sim::StateHasher;

    /// Fig. 2 (`n = 7`, `f = 1`) with retransmission on, as a fault plan
    /// healing at tick 2 000 switches it on.
    fn retransmitting() -> EndToEndConfig {
        EndToEndConfig {
            retransmit: RetransmitConfig::covering(2_000, 10),
            ..EndToEndConfig::default()
        }
    }

    const KINDS: [AdversaryKind; 5] = [
        AdversaryKind::Silent,
        AdversaryKind::Crash { after: 3 },
        AdversaryKind::Echo,
        AdversaryKind::Equivocate,
        AdversaryKind::ForgedSlice,
    ];

    fn assert_every_seat_forks<P: Protocol>(protocol: &P, name: &str, kinds: &[AdversaryKind]) {
        let i = ProcessId::new(0);
        assert!(
            seat(protocol, i, false, AdversaryKind::Silent, 0)
                .fork()
                .is_some(),
            "{name}: the correct seat must fork"
        );
        for &kind in kinds {
            assert!(
                seat(protocol, i, true, kind, 0).fork().is_some(),
                "{name}: the {kind:?} seat must fork"
            );
        }
    }

    #[test]
    fn every_seat_forks_under_retransmission() {
        let kg = generators::fig2();
        let config = retransmitting();
        assert!(config.retransmit.enabled());
        let inputs = crate::consensus::default_inputs(kg.n());
        let slices = vec![SliceFamily::explicit([kg.graph().vertex_set()]); kg.n()];
        assert_every_seat_forks(&SdProtocol::new(&kg, 1, &config), "sd", &KINDS);
        assert_every_seat_forks(&ScpProtocol::new(&slices, &inputs, &config), "scp", &KINDS);
        assert_every_seat_forks(&BftProtocol::new(&kg, 1, &inputs, &config), "bft", &KINDS);
        // The stack has no value-injecting actor (`StackProtocol::injector`
        // is unreachable); hosts refuse those pairings at setup.
        let stack_kinds: Vec<AdversaryKind> = KINDS
            .into_iter()
            .filter(|k| k.preserves_validity())
            .collect();
        assert_every_seat_forks(&StackProtocol::new(&kg, 1, &inputs), "stack", &stack_kinds);
    }

    /// The exploration tripwire: fingerprints skip the retransmission
    /// state, so fingerprinting an actor whose schedule is on must fail
    /// loudly rather than merge states that differ in it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before exploration may enable retransmission")]
    fn fingerprinting_a_retransmitting_actor_trips_the_exploration_guard() {
        let kg = generators::fig2();
        let config = retransmitting();
        let detector = SdProtocol::new(&kg, 1, &config).correct(ProcessId::new(0));
        Actor::fingerprint(&detector, &mut StateHasher::new());
    }
}
