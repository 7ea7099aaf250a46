//! The `SINK` algorithm: distributed discovery of the sink component.
//!
//! Section VI of the paper summarizes \[17\]'s `SINK(PD_i, f)` in three
//! steps:
//!
//! 1. a distributed breadth-first search over `G_di` computes `known_i`,
//!    the maximal set of processes `i` can reach;
//! 2. `i` sends `known_i` to every process it knows;
//! 3. if at least `|known_i| − f` processes echo the same set, `i` is a
//!    sink member and returns `⟨true, V_sink⟩`.
//!
//! ## Termination rule and accuracy argument
//!
//! The subtle part is deciding, in an asynchronous system with up to `f`
//! silent processes, when step 1 is complete. [`SinkCore`] fires step 2
//! when `|known_i \ replied_i| ≤ f` — an async-safe wait condition (at most
//! the `f` faulty processes stay silent forever).
//!
//! *Accuracy for sink members.* When the rule fires at a correct sink
//! member `i`, `known_i = V_sink` exactly:
//!
//! - `known_i ⊆ V_sink`: discovery only follows real knowledge edges, and
//!   nothing outside the sink is reachable from inside;
//! - `known_i ⊇ V_sink`: every `w ∈ V_sink` has `f + 1` node-disjoint
//!   `i → w` paths inside the sink (Definition 6, condition 3). Replies are
//!   whole-`PD` atoms, so `known_i` is closed under the out-edges of every
//!   *replied* process. Blocking `w` from `known_i` would require an
//!   unreplied process on **each** of the `f + 1` disjoint paths — that is
//!   `f + 1` distinct unreplied processes, contradicting the rule.
//!
//! *Verdict safety.* A correct process only echoes after its own rule
//! fired, and every process includes **itself** in its `known` set. A
//! non-sink process `j` therefore always has `known_j ∋ j ∉ V_sink`, so its
//! echo can never match a sink member's `V_sink`; conversely correct sink
//! members echo exactly `V_sink`. With at least `|V_sink| − f` correct sink
//! members, a correct sink member eventually counts `|known_i| − f`
//! matching echoes (its own included), while a non-sink member never can:
//! matching echoes must come from members of `known_i` with identical
//! reachable sets, and the `≥ 2f + 1` correct sink members inside `known_i`
//! all echo a different set.
//!
//! Non-sink members therefore never reach a verdict through `SINK` alone —
//! exactly the behaviour the paper describes ("a non-sink member might not
//! be able to terminate") — and learn the sink through Algorithm 3's
//! `GET_SINK`/`wait_sink` path, implemented by the `stellar-cup` crate's
//! distributed sink detector.

use std::collections::BTreeMap;

use scup_graph::{ProcessId, ProcessSet};
use scup_sim::{Actor, Context, SimMessage, StateHasher};

/// Messages of the `SINK` protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SinkMsg {
    /// Ask the receiver for its participant detector output.
    Discover,
    /// The sender's `PD` (step 1 reply). Faulty senders may lie by
    /// omission.
    DiscoverReply(ProcessSet),
    /// Step 2: the sender believes its reachable set is the payload.
    Check(ProcessSet),
    /// Step 3: the sender's own reachable set, sent only after its
    /// termination rule fired.
    CheckReply(ProcessSet),
}

impl SimMessage for SinkMsg {
    fn size_hint(&self) -> usize {
        match self {
            SinkMsg::Discover => 1,
            SinkMsg::DiscoverReply(s) | SinkMsg::Check(s) | SinkMsg::CheckReply(s) => {
                1 + 4 * s.len()
            }
        }
    }

    fn fingerprint(&self, h: &mut StateHasher) {
        match self {
            SinkMsg::Discover => h.write_u8(1),
            SinkMsg::DiscoverReply(s) => {
                h.write_u8(2);
                h.write_set(s);
            }
            SinkMsg::Check(s) => {
                h.write_u8(3);
                h.write_set(s);
            }
            SinkMsg::CheckReply(s) => {
                h.write_u8(4);
                h.write_set(s);
            }
        }
    }
}

/// The verdict of a completed `SINK` run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SinkVerdict {
    /// Always `true`: `SINK` only ever certifies membership; non-membership
    /// is learned through Algorithm 3.
    pub is_sink_member: bool,
    /// The discovered sink component `V_sink`.
    pub sink: ProcessSet,
}

/// Outgoing `SINK` messages produced by a [`SinkCore`] transition.
pub type SinkOutbox = Vec<(ProcessId, SinkMsg)>;

/// The `SINK` algorithm as a pure state machine: every transition returns
/// the messages to send, so the core can be embedded both in a standalone
/// [`SinkActor`] and in the composite sink-detector actor of the
/// `stellar-cup` crate (Algorithm 3).
#[derive(Debug, Clone)]
pub struct SinkCore {
    self_id: ProcessId,
    pd: ProcessSet,
    f: usize,
    known: ProcessSet,
    replied: ProcessSet,
    pending_askers: Vec<ProcessId>,
    echoes: BTreeMap<ProcessId, ProcessSet>,
    fired: bool,
    verdict: Option<SinkVerdict>,
}

impl SinkCore {
    /// Creates the state machine for process `self_id` with participant
    /// detector `pd` and fault threshold `f`.
    pub fn new(self_id: ProcessId, pd: ProcessSet, f: usize) -> Self {
        SinkCore {
            self_id,
            pd,
            f,
            known: ProcessSet::new(),
            replied: ProcessSet::new(),
            pending_askers: Vec::new(),
            echoes: BTreeMap::new(),
            fired: false,
            verdict: None,
        }
    }

    /// The verdict, once reached (sink members only — Lemma 6).
    pub fn verdict(&self) -> Option<&SinkVerdict> {
        self.verdict.as_ref()
    }

    /// The current reachable-set estimate `known_i`.
    pub fn known(&self) -> &ProcessSet {
        &self.known
    }

    /// `true` once the step-1 termination rule fired.
    pub fn discovery_done(&self) -> bool {
        self.fired
    }

    /// Starts the protocol: seeds `known_i = PD_i ∪ {i}` and queries every
    /// neighbor.
    pub fn start(&mut self) -> SinkOutbox {
        self.known = self.pd.clone();
        self.known.insert(self.self_id);
        self.replied.insert(self.self_id);
        let mut out: SinkOutbox = self.pd.iter().map(|j| (j, SinkMsg::Discover)).collect();
        out.extend(self.try_fire());
        out
    }

    /// Handles a protocol message from `from`.
    pub fn on_message(&mut self, from: ProcessId, msg: SinkMsg) -> SinkOutbox {
        match msg {
            SinkMsg::Discover => {
                // Correct processes answer with their true, static PD.
                vec![(from, SinkMsg::DiscoverReply(self.pd.clone()))]
            }
            SinkMsg::DiscoverReply(mut fresh) => {
                // Only count replies from processes we actually queried.
                if !self.known.contains(from) {
                    return Vec::new();
                }
                self.replied.insert(from);
                // Merge word-parallel, `fresh = set \ known \ {self}`: only
                // the ids new to `known` draw a `Discover`, ascending.
                fresh.difference_with(&self.known);
                fresh.remove(self.self_id);
                self.known.union_with(&fresh);
                let mut out: SinkOutbox = fresh.iter().map(|w| (w, SinkMsg::Discover)).collect();
                out.extend(self.try_fire());
                self.try_verdict();
                out
            }
            SinkMsg::Check(_) => {
                if self.fired {
                    vec![(from, SinkMsg::CheckReply(self.known.clone()))]
                } else {
                    self.pending_askers.push(from);
                    Vec::new()
                }
            }
            SinkMsg::CheckReply(set) => {
                self.echoes.insert(from, set);
                self.try_verdict();
                Vec::new()
            }
        }
    }

    /// Incremental re-discovery: a membership join made process `j`
    /// reachable. Instead of restarting the breadth-first search, the
    /// core re-probes *only* the newcomer, keeping everything already
    /// learned (`replied`, pending askers):
    ///
    /// - if `j` was unknown, `known` grows and — when the step-1 rule had
    ///   already fired — the echo round is re-opened, to re-run against
    ///   the grown set as soon as `j` replies;
    /// - if `j` was already known from the static `PD` (it merely hadn't
    ///   joined yet), the set is unchanged: the original `Discover`, and
    ///   the `Check` of a fired round, died against the dormant process,
    ///   so both are repeated to the newcomer only (receivers absorb
    ///   duplicates).
    ///
    /// Once a verdict exists this is a no-op: the sink was certified by
    /// `|V_sink| − f` matching echoes over a set that cannot contain a
    /// later joiner, so the verdict stays write-once.
    pub fn learn_peer(&mut self, j: ProcessId) -> SinkOutbox {
        if j == self.self_id || self.verdict.is_some() {
            return Vec::new();
        }
        if self.known.insert(j) {
            if self.fired {
                self.fired = false;
                self.echoes.clear();
            }
            return vec![(j, SinkMsg::Discover)];
        }
        let mut out = vec![(j, SinkMsg::Discover)];
        if self.fired {
            out.push((j, SinkMsg::Check(self.known.clone())));
        }
        out
    }

    fn try_fire(&mut self) -> SinkOutbox {
        // `difference_len` avoids materializing the difference set on every
        // reply (the rule is re-evaluated once per DiscoverReply).
        if self.fired || self.known.difference_len(&self.replied) > self.f {
            return Vec::new();
        }
        self.fired = true;
        let mut out: SinkOutbox = self
            .known
            .iter()
            .filter(|&j| j != self.self_id)
            .map(|j| (j, SinkMsg::Check(self.known.clone())))
            .collect();
        for j in std::mem::take(&mut self.pending_askers) {
            out.push((j, SinkMsg::CheckReply(self.known.clone())));
        }
        // Our own set counts as one matching echo.
        self.echoes.insert(self.self_id, self.known.clone());
        self.try_verdict();
        out
    }

    fn try_verdict(&mut self) {
        if self.verdict.is_some() || !self.fired {
            return;
        }
        let needed = self.known.len().saturating_sub(self.f);
        // An exact gate: `echoes` holds at most one set per sender and the
        // matching echoes are a subset of it, so `matching ≤ |echoes|`.
        // Below `|known| − f` echoes no verdict is possible, so the scan
        // runs for the last few echoes of a round, not for every one.
        if self.echoes.len() < needed {
            return;
        }
        let matching = self
            .echoes
            .iter()
            .filter(|(j, set)| self.known.contains(**j) && **set == self.known)
            .count();
        if matching >= needed {
            self.verdict = Some(SinkVerdict {
                is_sink_member: true,
                sink: self.known.clone(),
            });
        }
    }

    /// Exploration support: canonical fingerprint of the live state.
    ///
    /// Dead state is deliberately skipped — collapsing it is what makes
    /// the post-verdict flood tail of discovery traffic tractable for the
    /// model checker, and it is exact because the skipped fields can never
    /// be read again:
    ///
    /// - `replied` is only consulted by the step-1 termination rule
    ///   (`SinkCore::try_fire` early-returns once `fired`), so duplicate
    ///   replies mutating it after the rule fired are invisible;
    /// - `pending_askers` is drained at fire time and never refilled
    ///   (`Check` handling replies directly once `fired`);
    /// - `echoes` is only consulted by the verdict rule, which
    ///   early-returns once the verdict exists.
    ///
    /// `known` stays hashed forever: `Check` answers carry it, so late
    /// discovery can still change future emissions.
    ///
    /// One reader of `replied` survives the rule, though — the
    /// [`SinkCore::absorbs_msg`] hook — so this fingerprint is not a
    /// congruence; see the note there.
    pub fn fingerprint(&self, h: &mut StateHasher) {
        h.write_id(self.self_id);
        h.write_set(&self.pd);
        h.write_u64(self.f as u64);
        h.write_set(&self.known);
        h.write_bool(self.fired);
        if !self.fired {
            h.write_set(&self.replied);
            let renaming = h.renaming();
            let mut askers: Vec<u32> = self
                .pending_askers
                .iter()
                .map(|&p| renaming.map_or(p, |perm| perm.apply(p)).as_u32())
                .collect();
            // The queue is drained in one pass whose emissions form a
            // multiset, so only the *set* of queued askers is behavioural
            // state — sort to canonicalize (renaming reorders it).
            askers.sort_unstable();
            h.write_u64(askers.len() as u64);
            for a in askers {
                h.write_u32(a);
            }
        }
        match &self.verdict {
            Some(v) => {
                h.write_u8(1);
                h.write_set(&v.sink);
            }
            None => {
                h.write_u8(0);
                let mut echoes = h.unordered();
                for (j, set) in &self.echoes {
                    echoes.entry(|eh| {
                        eh.write_id(*j);
                        eh.write_set(set);
                    });
                }
                h.write_unordered(echoes);
            }
        }
    }

    /// Exploration support: `true` when delivering `msg` from `from` is a
    /// complete no-op on the live (fingerprinted) state — and stays one in
    /// every extension, because every gating condition is monotone:
    ///
    /// - a duplicate `DiscoverReply` (sender already counted, payload
    ///   already known) changes nothing — `known`/`replied` only grow and
    ///   the fire/verdict rules re-fire only on change;
    /// - a `CheckReply` after the verdict only mutates the dead `echoes`
    ///   map (the verdict is write-once).
    ///
    /// **Known defect — not a congruence.** [`SinkCore::fingerprint`]
    /// drops `replied` once `fired`, but the `DiscoverReply` arm still
    /// reads it: two fingerprint-equal fired cores answer differently for
    /// a late duplicate reply, which is absorbed on one path and becomes a
    /// branching step (touching only dead state) on another. Every local
    /// step is still exact; the *census* is path-dependent. On the
    /// benchmark's `bftcup-equiv-leader` (depth 5): **35 528** states as
    /// explored and frozen today; 37 136 (the sizing prototype) or 38 040
    /// (the memo as merged) under a hash-keyed local-transition memo —
    /// which of two fingerprint-equal cores it keeps is itself an accident
    /// of the search order (which is why `BftProtocol` and `StackProtocol` leave
    /// `Explored::CONGRUENT_FINGERPRINT` off, and what clause (c) of the
    /// explorer's debug replay check trips on); **18 872** with the
    /// congruent hook, with or without the memo — nearly half of today's
    /// census is dead-state branching. The fix is one line,
    /// `(self.fired || self.replied.contains(from)) && set.is_subset(&self.known)`,
    /// and has to wait for a benchmark-only change that re-freezes the
    /// census (ROADMAP, direction 14(i)).
    pub fn absorbs_msg(&self, from: ProcessId, msg: &SinkMsg) -> bool {
        match msg {
            SinkMsg::DiscoverReply(set) => {
                self.replied.contains(from) && set.is_subset(&self.known)
            }
            SinkMsg::CheckReply(_) => self.verdict.is_some(),
            SinkMsg::Discover | SinkMsg::Check(_) => false,
        }
    }

    /// Exploration support: `true` when delivering `msg` commutes with
    /// every other delivery to this core, now and forever — `Discover` is
    /// answered from the static `PD` with no state change, so its
    /// position in the schedule is irrelevant.
    pub fn inert_msg(&self, msg: &SinkMsg) -> bool {
        matches!(msg, SinkMsg::Discover)
    }
}

/// A correct process running the `SINK` algorithm standalone.
///
/// Drive it with a [`Simulation`](scup_sim::Simulation); once
/// [`SinkActor::verdict`] returns `Some`, the process has established sink
/// membership (Lemma 6). For non-sink members it stays `None` forever.
#[derive(Clone)]
pub struct SinkActor {
    core: SinkCore,
    pd: ProcessSet,
    f: usize,
}

impl SinkActor {
    /// Creates the actor for a process with participant detector `pd` and
    /// fault threshold `f`.
    pub fn new(pd: ProcessSet, f: usize) -> Self {
        SinkActor {
            // The real id is only known at `on_start`; placeholder until then.
            core: SinkCore::new(ProcessId::new(u32::MAX), pd.clone(), f),
            pd,
            f,
        }
    }

    /// The verdict, once reached (sink members only).
    pub fn verdict(&self) -> Option<&SinkVerdict> {
        self.core.verdict()
    }

    /// The current reachable-set estimate.
    pub fn known(&self) -> &ProcessSet {
        self.core.known()
    }

    fn flush(ctx: &mut Context<'_, SinkMsg>, out: SinkOutbox) {
        for (to, msg) in out {
            // Discovery sends to ids learned from reply payloads.
            ctx.learn(to);
            ctx.send(to, msg);
        }
    }
}

impl Actor<SinkMsg> for SinkActor {
    fn on_start(&mut self, ctx: &mut Context<'_, SinkMsg>) {
        self.core = SinkCore::new(ctx.self_id(), self.pd.clone(), self.f);
        let out = self.core.start();
        Self::flush(ctx, out);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SinkMsg>, from: ProcessId, msg: SinkMsg) {
        let out = self.core.on_message(from, msg);
        Self::flush(ctx, out);
    }

    fn on_peer_joined(&mut self, ctx: &mut Context<'_, SinkMsg>, peer: ProcessId) {
        let out = self.core.learn_peer(peer);
        Self::flush(ctx, out);
    }

    fn fork(&self) -> Option<Box<dyn Actor<SinkMsg>>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StateHasher) {
        self.core.fingerprint(h);
    }

    fn absorbs(
        &self,
        _self_id: ProcessId,
        _known: &ProcessSet,
        from: ProcessId,
        msg: &SinkMsg,
    ) -> bool {
        self.core.absorbs_msg(from, msg)
    }

    fn threshold_inert(
        &self,
        _self_id: ProcessId,
        known: &ProcessSet,
        from: ProcessId,
        msg: &SinkMsg,
    ) -> bool {
        // The knowledge gate keeps the delivery's side channel (learning
        // the sender) out of the commutation argument.
        known.contains(from) && self.core.inert_msg(msg)
    }
}

/// A Byzantine process that participates in discovery but *hides* part of
/// its knowledge (a subset lie about `PD`), echoes garbage in step 3, and
/// never initiates anything — an omission-plus-lies adversary for `SINK`.
pub struct LyingSinkActor {
    admitted_pd: ProcessSet,
    fake_echo: ProcessSet,
}

impl LyingSinkActor {
    /// Creates the adversary; it answers `Discover` with `admitted_pd` and
    /// every `Check` with `fake_echo`.
    pub fn new(admitted_pd: ProcessSet, fake_echo: ProcessSet) -> Self {
        LyingSinkActor {
            admitted_pd,
            fake_echo,
        }
    }
}

impl Actor<SinkMsg> for LyingSinkActor {
    fn on_start(&mut self, _ctx: &mut Context<'_, SinkMsg>) {}

    fn on_message(&mut self, ctx: &mut Context<'_, SinkMsg>, from: ProcessId, msg: SinkMsg) {
        match msg {
            SinkMsg::Discover => ctx.send(from, SinkMsg::DiscoverReply(self.admitted_pd.clone())),
            SinkMsg::Check(_) => ctx.send(from, SinkMsg::CheckReply(self.fake_echo.clone())),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scup_graph::{generators, sink, KnowledgeGraph};
    use scup_sim::adversary::SilentActor;
    use scup_sim::{NetworkConfig, Simulation};

    fn run_sink(
        kg: &KnowledgeGraph,
        f: usize,
        faulty: &ProcessSet,
        config: NetworkConfig,
        silent: bool,
    ) -> Simulation<SinkMsg> {
        let mut sim = Simulation::new(kg.clone(), config);
        for i in kg.processes() {
            if faulty.contains(i) {
                if silent {
                    sim.add_actor(Box::new(SilentActor::new()));
                } else {
                    // Admit half the PD, echo garbage.
                    let pd = kg.pd(i);
                    let admitted: ProcessSet = pd.iter().take(pd.len() / 2).collect();
                    sim.add_actor(Box::new(LyingSinkActor::new(
                        admitted,
                        ProcessSet::from_ids([0]),
                    )));
                }
            } else {
                sim.add_actor(Box::new(SinkActor::new(kg.pd(i).clone(), f)));
            }
        }
        sim.run_until_quiet(1_000_000);
        sim
    }

    fn check_lemma6(kg: &KnowledgeGraph, f: usize, faulty: &ProcessSet, seed: u64, silent: bool) {
        let v_sink = sink::unique_sink(kg.graph()).expect("unique sink");
        let config = NetworkConfig::partially_synchronous(200, 10, seed);
        let sim = run_sink(kg, f, faulty, config, silent);
        for i in kg.processes() {
            if faulty.contains(i) {
                continue;
            }
            let actor = sim.actor_as::<SinkActor>(i).unwrap();
            if v_sink.contains(i) {
                let verdict = actor.verdict().unwrap_or_else(|| {
                    panic!(
                        "sink member {i} must terminate (Lemma 6); known = {}",
                        actor.known()
                    )
                });
                assert!(verdict.is_sink_member);
                assert_eq!(verdict.sink, v_sink, "sink accuracy for {i}");
            } else {
                assert_eq!(
                    actor.verdict(),
                    None,
                    "non-sink {i} must not decide via SINK"
                );
            }
        }
    }

    #[test]
    fn lemma6_on_fig2_no_faults() {
        let kg = generators::fig2();
        for seed in 0..5 {
            check_lemma6(&kg, 1, &ProcessSet::new(), seed, true);
        }
    }

    #[test]
    fn lemma6_on_fig2_with_silent_fault() {
        let kg = generators::fig2();
        // Fig. 2 is 3-OSR; for f = 1 any single fault is Byzantine-safe.
        for faulty_id in [0u32, 3, 5] {
            for seed in 0..3 {
                check_lemma6(&kg, 1, &ProcessSet::from_ids([faulty_id]), seed, true);
            }
        }
    }

    #[test]
    fn lemma6_on_fig2_with_lying_fault() {
        let kg = generators::fig2();
        for faulty_id in [1u32, 2, 6] {
            for seed in 0..3 {
                check_lemma6(&kg, 1, &ProcessSet::from_ids([faulty_id]), seed, false);
            }
        }
    }

    #[test]
    fn lemma6_on_random_kosr() {
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (kg, faulty) = generators::random_byzantine_safe(6, 5, 1, &mut rng);
            check_lemma6(&kg, 1, &faulty, seed, true);
            check_lemma6(&kg, 1, &faulty, seed + 100, false);
        }
    }

    #[test]
    fn fig1_sink_members_terminate() {
        // Fig. 1 is only 1-OSR, but with f = 0 (no faults) the sink is
        // 1-strongly-connected and Lemma 6 applies.
        let kg = generators::fig1();
        check_lemma6(&kg, 0, &ProcessSet::new(), 3, true);
    }

    #[test]
    fn nonsink_members_learn_the_sink_ids() {
        // Even without a verdict, discovery teaches non-sink members the
        // sink: known_i ⊇ V_sink (they can address sink members afterwards).
        let kg = generators::fig2();
        let v_sink = sink::unique_sink(kg.graph()).unwrap();
        let sim = run_sink(
            &kg,
            1,
            &ProcessSet::new(),
            NetworkConfig::synchronous(5, 9),
            true,
        );
        for i in kg.processes() {
            let actor = sim.actor_as::<SinkActor>(i).unwrap();
            assert!(
                v_sink.is_subset(actor.known()),
                "{i} must discover all sink ids"
            );
        }
    }

    #[test]
    fn sink_core_is_deterministic_state_machine() {
        // Unit-level: drive a 3-clique by hand, f = 0.
        let p = ProcessId::new;
        let mut core = SinkCore::new(p(0), ProcessSet::from_ids([1, 2]), 0);
        let out = core.start();
        assert_eq!(out.len(), 2, "queries both neighbors");
        assert!(!core.discovery_done());
        // Neighbor 1 knows {0, 2}; neighbor 2 knows {0, 1}.
        let out = core.on_message(p(1), SinkMsg::DiscoverReply(ProcessSet::from_ids([0, 2])));
        assert!(out.is_empty(), "no new processes, not fired yet");
        let out = core.on_message(p(2), SinkMsg::DiscoverReply(ProcessSet::from_ids([0, 1])));
        // All replied → fired: sends Check to 1 and 2.
        assert_eq!(
            out.iter()
                .filter(|(_, m)| matches!(m, SinkMsg::Check(_)))
                .count(),
            2
        );
        assert!(core.discovery_done());
        assert!(
            core.verdict().is_none(),
            "needs 3 matching echoes, has 1 (self)"
        );
        let all = ProcessSet::from_ids([0, 1, 2]);
        core.on_message(p(1), SinkMsg::CheckReply(all.clone()));
        assert!(core.verdict().is_none());
        core.on_message(p(2), SinkMsg::CheckReply(all.clone()));
        let v = core.verdict().expect("verdict after 3 echoes");
        assert_eq!(v.sink, all);
    }

    #[test]
    fn learn_peer_reprobes_incrementally_and_refires() {
        // 3-clique, f = 0; process 3 joins mid-protocol, after the
        // step-1 rule fired but before the echo round completed.
        let p = ProcessId::new;
        let mut core = SinkCore::new(p(0), ProcessSet::from_ids([1, 2]), 0);
        core.start();
        core.on_message(p(1), SinkMsg::DiscoverReply(ProcessSet::from_ids([0, 2])));
        core.on_message(p(2), SinkMsg::DiscoverReply(ProcessSet::from_ids([0, 1])));
        assert!(core.discovery_done());
        let out = core.learn_peer(p(3));
        // Targeted re-probe: exactly one Discover, to the newcomer only,
        // and the echo round is re-opened.
        assert_eq!(out, vec![(p(3), SinkMsg::Discover)]);
        assert!(!core.discovery_done());
        assert!(core.known().contains(p(3)));
        // A repeated introduction re-probes (the receiver absorbs the
        // duplicate) but cannot re-open anything.
        assert_eq!(core.learn_peer(p(3)), vec![(p(3), SinkMsg::Discover)]);
        // The newcomer's reply completes the grown set and re-fires step
        // 2 against all three peers.
        let out = core.on_message(
            p(3),
            SinkMsg::DiscoverReply(ProcessSet::from_ids([0, 1, 2])),
        );
        assert!(core.discovery_done());
        assert_eq!(
            out.iter()
                .filter(|(_, m)| matches!(m, SinkMsg::Check(_)))
                .count(),
            3
        );
        let grown = ProcessSet::from_ids([0, 1, 2, 3]);
        for j in [1u32, 2, 3] {
            core.on_message(p(j), SinkMsg::CheckReply(grown.clone()));
        }
        let v = core.verdict().expect("verdict over the grown sink");
        assert_eq!(v.sink, grown);
        // The verdict is write-once: later joiners are outside it.
        assert!(core.learn_peer(p(4)).is_empty());
        assert_eq!(core.verdict().unwrap().sink, grown);
    }

    #[test]
    fn learn_peer_repeats_the_check_for_a_known_but_dormant_peer() {
        // p0's PD names 2, but 2 was dormant, so neither the Discover nor
        // the Check ever reached it; f = 1 lets the rule fire anyway.
        let p = ProcessId::new;
        let mut core = SinkCore::new(p(0), ProcessSet::from_ids([1, 2]), 1);
        core.start();
        core.on_message(p(1), SinkMsg::DiscoverReply(ProcessSet::from_ids([0, 2])));
        assert!(core.discovery_done(), "one silent peer fits the f budget");
        assert!(core.verdict().is_none());
        // The join repeats both lost messages, to the newcomer only, and
        // the fired round stays open (the set did not change).
        let known = ProcessSet::from_ids([0, 1, 2]);
        let out = core.learn_peer(p(2));
        assert_eq!(
            out,
            vec![
                (p(2), SinkMsg::Discover),
                (p(2), SinkMsg::Check(known.clone()))
            ]
        );
        assert!(core.discovery_done());
        // The newcomer's echo completes the verdict.
        core.on_message(p(2), SinkMsg::CheckReply(known.clone()));
        assert_eq!(core.verdict().unwrap().sink, known);
    }
}
