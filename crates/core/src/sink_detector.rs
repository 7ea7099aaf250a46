//! Algorithm 3 — the distributed sink detector (Section VI, Theorem 6).
//!
//! Each process runs `get_sink(PD_i, f)`:
//!
//! - it broadcasts `GET_SINK` so that sink members remember it in their
//!   `asked` set (lines 4–5);
//! - it runs the `SINK` algorithm from \[17\] (line 7); sink members
//!   terminate with `⟨true, V_sink⟩` (Lemma 6) and then answer every
//!   (current and future) asker with `⟨SINK, V_sink⟩` (lines 18–21);
//! - concurrently it collects `⟨SINK, V⟩` values; once some value `v`
//!   repeats **more than `f` times** it adopts `v` as the sink
//!   (lines 15–16) — at least one copy then came from a correct sink
//!   member.
//!
//! `GET_SINK` dissemination supports two modes:
//!
//! - [`GetSinkMode::Direct`]: the asker sends `GET_SINK` to every process
//!   it knows, re-sending as discovery teaches it new identities. Since
//!   discovery eventually teaches every correct process all of `V_sink`
//!   (its knowledge grows to its correct-reachable set, a superset of the
//!   sink), every correct sink member is eventually asked directly.
//! - [`GetSinkMode::ReachableBroadcast`]: the faithful rendering of
//!   Algorithm 3 line 5 — `GET_SINK` travels over the reachable-reliable
//!   broadcast of \[17\] ([`scup_cup::rrb`]), reaching exactly the
//!   `f`-reachable processes, which include all correct sink members.
//!
//! Both modes satisfy Theorem 6; the bench harness compares their message
//! complexity (ablation).

use scup_cup::discovery::{SinkCore, SinkMsg};
use scup_cup::rrb::{RrbCore, RrbMsg};
use scup_graph::{ProcessId, ProcessSet};
use scup_sim::{
    Actor, Context, Journal, RetransmitConfig, Retransmitter, SimMessage, StateHasher,
    RETRANSMIT_TAG,
};

use crate::oracle::SinkDetection;

/// How `GET_SINK` requests are disseminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GetSinkMode {
    /// Direct sends to every known process (default).
    #[default]
    Direct,
    /// Over reachable-reliable broadcast (Algorithm 3's literal primitive).
    ReachableBroadcast,
}

/// Messages of the distributed sink detector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SdMsg {
    /// Embedded `SINK` discovery traffic.
    Sink(SinkMsg),
    /// A `GET_SINK` request (direct mode).
    GetSink,
    /// A `GET_SINK` request flooded over reachable-reliable broadcast.
    GetSinkRb(RrbMsg<()>),
    /// `⟨SINK, V⟩` — the sender's view of the sink component.
    SinkValue(ProcessSet),
}

impl SimMessage for SdMsg {
    fn size_hint(&self) -> usize {
        match self {
            SdMsg::Sink(m) => 1 + m.size_hint(),
            SdMsg::GetSink => 1,
            SdMsg::GetSinkRb(m) => 1 + m.size_hint(),
            SdMsg::SinkValue(s) => 1 + 4 * s.len(),
        }
    }

    fn fingerprint(&self, h: &mut StateHasher) {
        match self {
            SdMsg::Sink(m) => {
                h.write_u8(1);
                m.fingerprint(h);
            }
            SdMsg::GetSink => h.write_u8(2),
            SdMsg::GetSinkRb(m) => {
                h.write_u8(3);
                m.fingerprint_payload(h, |_, ()| {});
            }
            SdMsg::SinkValue(s) => {
                h.write_u8(4);
                h.write_set(s);
            }
        }
    }
}

/// A correct process executing Algorithm 3.
///
/// After the run, [`SinkDetectorActor::detection`] returns the
/// `⟨flag, V⟩` of `get_sink` — `Some` for every correct process
/// (Theorem 6).
///
/// Under a fault plan the reliable channels Algorithm 3 assumes are
/// manufactured by a [`Retransmitter`]: every send is noted in its
/// deduplicated log, which each backoff round re-sends whole (receivers
/// absorb the duplicates — discovery dedups at the `SINK` core, `asked`
/// and the value tallies are sets, and adoption is write-once).
///
/// Crash recovery is pause-crash: [`Actor::on_recover`] keeps the whole
/// discovery and detection state and only restarts the backoff schedule
/// from its short intervals. That is honest here because every field is a
/// monotone accumulation of what the network already told the process —
/// a real reboot would re-learn it by re-running `SINK` on the same
/// static graph — and nothing the detector sent is a pledge a reboot
/// could contradict.
#[derive(Clone)]
pub struct SinkDetectorActor {
    pd: ProcessSet,
    f: usize,
    mode: GetSinkMode,
    sink_algo: SinkCore,
    rrb: RrbCore<()>,
    /// Processes that asked us for the sink (Algorithm 3's `asked`).
    asked_us: ProcessSet,
    /// Processes we already sent GET_SINK to (direct mode).
    asked_by_us: ProcessSet,
    /// values: count of each received ⟨SINK, V⟩ by distinct sender.
    values: Vec<(ProcessSet, ProcessSet)>,
    /// The adopted sink (Algorithm 3's `sink` variable).
    sink: Option<ProcessSet>,
    /// Our own id (seeded in `on_start`).
    sink_algo_self_id: ProcessId,
    /// Fault tolerance (timed simulations only): the dedup log of sent
    /// messages re-sent on each backoff round. Excluded from fingerprints,
    /// so retransmission must stay disabled under exploration.
    retransmit: Retransmitter<SdMsg>,
}

impl SinkDetectorActor {
    /// Creates the actor for a process with participant detector `pd` and
    /// fault threshold `f`, retransmitting on `retransmit`'s schedule
    /// ([`RetransmitConfig::disabled`] for reliable networks).
    pub fn new(pd: ProcessSet, f: usize, mode: GetSinkMode, retransmit: RetransmitConfig) -> Self {
        SinkDetectorActor {
            sink_algo: SinkCore::new(ProcessId::new(u32::MAX), pd.clone(), f),
            rrb: RrbCore::new(ProcessId::new(u32::MAX), f),
            pd,
            f,
            mode,
            asked_us: ProcessSet::new(),
            asked_by_us: ProcessSet::new(),
            values: Vec::new(),
            sink: None,
            sink_algo_self_id: ProcessId::new(u32::MAX),
            retransmit: Retransmitter::new(retransmit),
        }
    }

    /// The result of `get_sink`, once available (Algorithm 3 lines 10–14:
    /// the flag is simply sink membership of the adopted set).
    pub fn detection(&self) -> Option<SinkDetection> {
        let sink = self.sink.clone()?;
        Some(SinkDetection {
            is_sink_member: sink.contains(self.sink_algo_self_id),
            sink,
        })
    }

    /// Sends `msg` and notes it for the retransmission rounds. Every send
    /// of the detector goes through here, so the log's order is the send
    /// order. `learn` makes an id from a discovery payload addressable; for
    /// any other recipient, already known, it is a no-op.
    fn send_logged(&mut self, ctx: &mut Context<'_, SdMsg>, to: ProcessId, msg: SdMsg) {
        ctx.learn(to);
        self.retransmit.note(to, &msg);
        ctx.send(to, msg);
    }

    fn flush_sink(&mut self, ctx: &mut Context<'_, SdMsg>, out: Vec<(ProcessId, SinkMsg)>) {
        for (to, m) in out {
            self.send_logged(ctx, to, SdMsg::Sink(m));
        }
    }

    /// Adopts `sink` (Algorithm 3's write-once `sink` variable) and
    /// answers everyone who asked so far; later askers are answered by
    /// `on_get_sink`.
    fn adopt(&mut self, ctx: &mut Context<'_, SdMsg>, sink: ProcessSet) {
        for j in self.asked_us.clone().iter() {
            if j != ctx.self_id() {
                self.send_logged(ctx, j, SdMsg::SinkValue(sink.clone()));
            }
        }
        self.sink = Some(sink);
    }

    /// Sink found by the SINK algorithm: adopt it.
    fn maybe_adopt_own_verdict(&mut self, ctx: &mut Context<'_, SdMsg>) {
        if self.sink.is_some() {
            return;
        }
        if let Some(verdict) = self.sink_algo.verdict() {
            let sink = verdict.sink.clone();
            self.adopt(ctx, sink);
        }
    }

    fn on_get_sink(&mut self, ctx: &mut Context<'_, SdMsg>, from: ProcessId) {
        if self.asked_us.insert(from) {
            if let Some(sink) = self.sink.clone() {
                self.send_logged(ctx, from, SdMsg::SinkValue(sink));
            }
        }
    }

    /// Direct mode: send GET_SINK to every newly known process. The
    /// frontier is one set difference, `known \ asked_by_us \ {me}`, asked
    /// in ascending order.
    fn ask_direct(&mut self, ctx: &mut Context<'_, SdMsg>) {
        if self.sink.is_some() || self.mode != GetSinkMode::Direct {
            return;
        }
        let mut fresh = self.sink_algo.known().difference(&self.asked_by_us);
        fresh.remove(ctx.self_id());
        self.asked_by_us.union_with(&fresh);
        for j in &fresh {
            self.send_logged(ctx, j, SdMsg::GetSink);
        }
    }

    fn on_sink_value(&mut self, ctx: &mut Context<'_, SdMsg>, from: ProcessId, v: ProcessSet) {
        if self.sink.is_some() {
            return;
        }
        match self.values.iter_mut().find(|(set, _)| *set == v) {
            Some((_, senders)) => {
                senders.insert(from);
            }
            None => {
                self.values.push((v.clone(), ProcessSet::singleton(from)));
            }
        }
        // Lines 15-16: adopt a value repeated more than f times.
        if let Some((set, _)) = self
            .values
            .iter()
            .find(|(_, senders)| senders.len() > self.f)
        {
            let set = set.clone();
            self.adopt(ctx, set);
        }
    }

    /// `true` when the detector-level post-hooks of a discovery delivery
    /// (`ask_direct`, `maybe_adopt_own_verdict`) are guaranteed no-ops
    /// given unchanged `SINK` state.
    fn post_hooks_quiet(&self) -> bool {
        (self.sink.is_some() || self.sink_algo.verdict().is_none())
            && (self.sink.is_some()
                || self.mode != GetSinkMode::Direct
                // The frontier `ask_direct` computes, `known \ asked_by_us
                // \ {me}`, is empty: `known \ asked_by_us` is at most the
                // self id, which `known` holds and which is never asked.
                || self.sink_algo.known().difference_len(&self.asked_by_us) <= 1)
    }
}

impl Actor<SdMsg> for SinkDetectorActor {
    fn on_start(&mut self, ctx: &mut Context<'_, SdMsg>) {
        self.sink_algo_self_id = ctx.self_id();
        self.sink_algo = SinkCore::new(ctx.self_id(), self.pd.clone(), self.f);
        self.rrb = RrbCore::new(ctx.self_id(), self.f);
        // Line 5: broadcast GET_SINK.
        match self.mode {
            GetSinkMode::Direct => {}
            GetSinkMode::ReachableBroadcast => {
                let (_, out) = self.rrb.broadcast(&self.pd.clone(), ());
                for (to, m) in out {
                    self.send_logged(ctx, to, SdMsg::GetSinkRb(m));
                }
            }
        }
        // Line 7: run SINK.
        let out = self.sink_algo.start();
        self.flush_sink(ctx, out);
        self.ask_direct(ctx);
        self.maybe_adopt_own_verdict(ctx);
        self.retransmit.arm(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SdMsg>, from: ProcessId, msg: SdMsg) {
        match msg {
            SdMsg::Sink(m) => {
                let out = self.sink_algo.on_message(from, m);
                self.flush_sink(ctx, out);
                self.ask_direct(ctx);
                self.maybe_adopt_own_verdict(ctx);
            }
            SdMsg::GetSink => self.on_get_sink(ctx, from),
            SdMsg::GetSinkRb(m) => {
                let neighbors = ctx.known().clone();
                let (out, delivery) = self.rrb.on_copy(from, m, &neighbors);
                for (to, fwd) in out {
                    self.send_logged(ctx, to, SdMsg::GetSinkRb(fwd));
                }
                if let Some(d) = delivery {
                    self.on_get_sink(ctx, d.origin);
                }
            }
            SdMsg::SinkValue(v) => self.on_sink_value(ctx, from, v),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SdMsg>, tag: u64) {
        if tag == RETRANSMIT_TAG {
            self.retransmit.round(ctx);
        }
    }

    /// Pause-crash (see the type docs): state survives, and the backoff
    /// restarts from the short intervals so the rejoining process
    /// re-announces quickly.
    fn on_recover(&mut self, ctx: &mut Context<'_, SdMsg>, _: &dyn Journal) {
        self.retransmit.reset(ctx);
    }

    fn fork(&self) -> Option<Box<dyn Actor<SdMsg>>> {
        Some(Box::new(self.clone()))
    }

    /// Dead state once the sink is adopted: `asked_by_us` (only
    /// `ask_direct` reads it, and it early-returns) and `values` (only the
    /// adoption rule reads it) are skipped then. `asked_us` stays hashed
    /// forever — it gates whether a repeat `GET_SINK` draws a reply. The
    /// RRB core is *not* hashed: exploration drives the detector in
    /// [`GetSinkMode::Direct`] only, where the core is never touched after
    /// construction (no correct process ever emits `GetSinkRb` traffic,
    /// and the explored adversaries replay only observed message kinds) —
    /// asserted below so a future `ReachableBroadcast` driver fails loudly
    /// instead of silently merging states that differ in broadcast state.
    /// The retransmission log and backoff round are skipped too, asserted
    /// the same way.
    fn fingerprint(&self, h: &mut StateHasher) {
        debug_assert!(
            matches!(self.mode, GetSinkMode::Direct),
            "this fingerprint skips the RRB core, so a ReachableBroadcast \
             detector cannot be explored"
        );
        debug_assert!(
            !self.retransmit.enabled(),
            "this fingerprint skips the retransmission backoff round and log; \
             fingerprint them before exploration may enable retransmission"
        );
        h.write_set(&self.pd);
        h.write_u64(self.f as u64);
        h.write_u8(match self.mode {
            GetSinkMode::Direct => 1,
            GetSinkMode::ReachableBroadcast => 2,
        });
        h.write_id(self.sink_algo_self_id);
        self.sink_algo.fingerprint(h);
        h.write_set(&self.asked_us);
        match &self.sink {
            Some(s) => {
                h.write_u8(1);
                h.write_set(s);
            }
            None => {
                h.write_u8(0);
                h.write_set(&self.asked_by_us);
                let mut values = h.unordered();
                for (set, senders) in &self.values {
                    values.entry(|eh| {
                        eh.write_set(set);
                        eh.write_set(senders);
                    });
                }
                h.write_unordered(values);
            }
        }
    }

    /// Duplicate discovery traffic absorbs at the `SINK` core (with quiet
    /// post-hooks); a `⟨SINK, V⟩` value after adoption is dropped by a
    /// write-once guard. Both monotone.
    fn absorbs(
        &self,
        _self_id: ProcessId,
        _known: &ProcessSet,
        from: ProcessId,
        msg: &SdMsg,
    ) -> bool {
        match msg {
            SdMsg::Sink(m) => self.sink_algo.absorbs_msg(from, m) && self.post_hooks_quiet(),
            SdMsg::SinkValue(_) => self.sink.is_some(),
            SdMsg::GetSink | SdMsg::GetSinkRb(_) => false,
        }
    }

    /// `Discover` is a static-reply forced move; a `GET_SINK` after
    /// adoption answers with the write-once sink (the `asked_us`
    /// registration only suppresses a *duplicate* reply to the same
    /// asker, and identical duplicates commute with each other).
    fn threshold_inert(
        &self,
        _self_id: ProcessId,
        known: &ProcessSet,
        from: ProcessId,
        msg: &SdMsg,
    ) -> bool {
        match msg {
            SdMsg::Sink(m) => known.contains(from) && self.sink_algo.inert_msg(m),
            SdMsg::GetSink => known.contains(from) && self.sink.is_some(),
            _ => false,
        }
    }
}

/// A Byzantine process that answers `GET_SINK` with a forged sink value and
/// otherwise behaves like an omission adversary.
pub struct LyingSinkValueActor {
    /// The forged value it spreads.
    pub fake_sink: ProcessSet,
}

/// A Byzantine process that **equivocates** sink values: each asker gets a
/// different forged set (the `> f` repetition rule of Algorithm 3 must
/// filter every one of them, since no forged set can repeat through more
/// than `f` faulty processes).
pub struct EquivocatingSinkValueActor {
    asked: u32,
}

impl EquivocatingSinkValueActor {
    /// Creates the adversary.
    pub fn new() -> Self {
        EquivocatingSinkValueActor { asked: 0 }
    }
}

impl Default for EquivocatingSinkValueActor {
    fn default() -> Self {
        Self::new()
    }
}

impl Actor<SdMsg> for EquivocatingSinkValueActor {
    fn on_start(&mut self, _ctx: &mut Context<'_, SdMsg>) {}

    fn on_message(&mut self, ctx: &mut Context<'_, SdMsg>, from: ProcessId, msg: SdMsg) {
        match msg {
            SdMsg::GetSink | SdMsg::GetSinkRb(_) => {
                // A fresh forged set per asker.
                self.asked += 1;
                let fake = ProcessSet::from_ids([self.asked % 3, 40 + self.asked]);
                ctx.send(from, SdMsg::SinkValue(fake));
            }
            _ => {}
        }
    }
}

impl Actor<SdMsg> for LyingSinkValueActor {
    fn on_start(&mut self, _ctx: &mut Context<'_, SdMsg>) {}

    fn on_message(&mut self, ctx: &mut Context<'_, SdMsg>, from: ProcessId, msg: SdMsg) {
        match msg {
            SdMsg::GetSink | SdMsg::GetSinkRb(_) => {
                ctx.send(from, SdMsg::SinkValue(self.fake_sink.clone()));
            }
            SdMsg::Sink(SinkMsg::Discover) => {
                // Stay discoverable so the run matches Definition 7's
                // assumptions (omission on everything else).
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::validate_detection;
    use scup_graph::{generators, sink, KnowledgeGraph};
    use scup_sim::adversary::SilentActor;
    use scup_sim::{NetworkConfig, Simulation};

    fn run_sd(
        kg: &KnowledgeGraph,
        f: usize,
        faulty: &ProcessSet,
        mode: GetSinkMode,
        lying: bool,
        seed: u64,
    ) -> Simulation<SdMsg> {
        let mut sim = Simulation::new(
            kg.clone(),
            NetworkConfig::partially_synchronous(150, 10, seed),
        );
        for i in kg.processes() {
            if faulty.contains(i) {
                if lying {
                    sim.add_actor(Box::new(LyingSinkValueActor {
                        fake_sink: ProcessSet::from_ids([0, 99]),
                    }));
                } else {
                    sim.add_actor(Box::new(SilentActor::new()));
                }
            } else {
                sim.add_actor(Box::new(SinkDetectorActor::new(
                    kg.pd(i).clone(),
                    f,
                    mode,
                    RetransmitConfig::disabled(),
                )));
            }
        }
        sim.run_until_quiet(2_000_000);
        sim
    }

    fn check_theorem6(
        kg: &KnowledgeGraph,
        f: usize,
        faulty: &ProcessSet,
        mode: GetSinkMode,
        lying: bool,
        seed: u64,
    ) {
        let v_sink = sink::unique_sink(kg.graph()).unwrap();
        let correct = kg.graph().vertex_set().difference(faulty);
        let sim = run_sd(kg, f, faulty, mode, lying, seed);
        for i in kg.processes() {
            if faulty.contains(i) {
                continue;
            }
            let actor = sim.actor_as::<SinkDetectorActor>(i).unwrap();
            let d = actor
                .detection()
                .unwrap_or_else(|| panic!("correct process {i} must receive V_sink (Theorem 6)"));
            validate_detection(i, &d, &v_sink, &correct, f).unwrap();
            // Our implementation is exact even for non-sink members.
            assert_eq!(d.sink, v_sink);
        }
    }

    #[test]
    fn theorem6_direct_mode_fig2() {
        let kg = generators::fig2();
        for seed in 0..4 {
            check_theorem6(&kg, 1, &ProcessSet::new(), GetSinkMode::Direct, false, seed);
        }
    }

    #[test]
    fn theorem6_rb_mode_fig2() {
        let kg = generators::fig2();
        for seed in 0..3 {
            check_theorem6(
                &kg,
                1,
                &ProcessSet::new(),
                GetSinkMode::ReachableBroadcast,
                false,
                seed,
            );
        }
    }

    #[test]
    fn theorem6_with_silent_fault() {
        let kg = generators::fig2();
        for faulty_id in [0u32, 2, 4, 6] {
            check_theorem6(
                &kg,
                1,
                &ProcessSet::from_ids([faulty_id]),
                GetSinkMode::Direct,
                false,
                faulty_id as u64,
            );
        }
    }

    #[test]
    fn theorem6_with_lying_sink_value() {
        // The adversary answers GET_SINK with a forged set; the > f
        // repetition rule filters it out.
        let kg = generators::fig2();
        for faulty_id in [1u32, 3, 5] {
            check_theorem6(
                &kg,
                1,
                &ProcessSet::from_ids([faulty_id]),
                GetSinkMode::Direct,
                true,
                faulty_id as u64,
            );
        }
    }

    #[test]
    fn theorem6_with_equivocating_sink_values() {
        // Each asker receives a different forged set; none can repeat more
        // than f times, so Algorithm 3 never adopts a forgery.
        let kg = generators::fig2();
        let v_sink = sink::unique_sink(kg.graph()).unwrap();
        for faulty_id in [0u32, 4] {
            let faulty = ProcessSet::from_ids([faulty_id]);
            let correct = kg.graph().vertex_set().difference(&faulty);
            let mut sim = Simulation::new(
                kg.clone(),
                NetworkConfig::partially_synchronous(150, 10, faulty_id as u64),
            );
            for i in kg.processes() {
                if faulty.contains(i) {
                    sim.add_actor(Box::new(EquivocatingSinkValueActor::new()));
                } else {
                    sim.add_actor(Box::new(SinkDetectorActor::new(
                        kg.pd(i).clone(),
                        1,
                        GetSinkMode::Direct,
                        RetransmitConfig::disabled(),
                    )));
                }
            }
            sim.run_until_quiet(2_000_000);
            for i in kg.processes() {
                if faulty.contains(i) {
                    continue;
                }
                let d = sim
                    .actor_as::<SinkDetectorActor>(i)
                    .unwrap()
                    .detection()
                    .expect("detection despite equivocation");
                validate_detection(i, &d, &v_sink, &correct, 1).unwrap();
                assert_eq!(d.sink, v_sink);
            }
        }
    }

    #[test]
    fn theorem6_on_random_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (kg, faulty) = generators::random_byzantine_safe(6, 5, 1, &mut rng);
            check_theorem6(&kg, 1, &faulty, GetSinkMode::Direct, true, seed);
        }
    }

    #[test]
    fn distributed_refines_perfect_oracle() {
        use crate::oracle::{PerfectSinkDetector, SinkDetector};
        let kg = generators::fig2();
        let perfect = PerfectSinkDetector::new(&kg).unwrap();
        let sim = run_sd(&kg, 1, &ProcessSet::new(), GetSinkMode::Direct, false, 9);
        for i in kg.processes() {
            let d = sim
                .actor_as::<SinkDetectorActor>(i)
                .unwrap()
                .detection()
                .unwrap();
            let p = perfect.get_sink(i, 1);
            assert_eq!(d.is_sink_member, p.is_sink_member, "{i}");
            assert_eq!(d.sink, p.sink, "{i}");
        }
    }
}
