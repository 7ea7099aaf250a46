//! The explorable full stack: discovery → sink detection → Algorithm-2
//! slices → SCP, as **one** composite actor whose message orderings are
//! all schedulable choices.
//!
//! The sampled pipeline (and `mode = "explore"` before this module) runs
//! the knowledge-increase phase to completion first — one deterministic
//! schedule — and only then explores SCP. The paper's claims, however,
//! quantify over schedules of the *whole* protocol stack: a slow
//! `DiscoverReply` can interleave with another process's first SCP
//! envelope. [`StackActor`] makes that explorable: each process runs
//! Algorithm 3 (the distributed sink detector, `GET_SINK` in
//! [`GetSinkMode::Direct`]) and, the moment its detection lands, builds
//! its Algorithm-2 slices from it and boots an embedded [`ScpNode`] —
//! inside whatever schedule the explorer is driving.
//!
//! SCP envelopes that arrive *before* this process's detection are
//! buffered and replayed, in arrival order, right after the embedded
//! node starts: the physical network does not drop a message because the
//! receiver is still discovering, and the arrival order is part of the
//! explored schedule (the buffer hashes in order).
//!
//! The composite delegates every exploration hook phase-wise: discovery
//! hooks to the sink detector (with its dead-state-skipping
//! fingerprints), SCP hooks to the embedded node — so the eager-inert
//! and absorption reductions of both phases keep working across the
//! phase boundary.

use scup_graph::{ProcessId, ProcessSet};
use scup_scp::{ScpConfig, ScpMsg, ScpNode, Value};
use scup_sim::{Actor, Context, RetransmitConfig, SimMessage, StateHasher};

use crate::build_slices::build_slices;
use crate::sink_detector::{GetSinkMode, SdMsg, SinkDetectorActor};

/// The wire type of the explorable full stack: a phase-tagged union of
/// sink-detector and SCP traffic.
#[derive(Clone, Debug, PartialEq)]
pub enum StackMsg {
    /// Knowledge-increase traffic (Algorithm 3, including embedded `SINK`
    /// discovery).
    Sd(SdMsg),
    /// An SCP envelope.
    Scp(ScpMsg),
}

impl SimMessage for StackMsg {
    fn size_hint(&self) -> usize {
        match self {
            StackMsg::Sd(m) => 1 + m.size_hint(),
            StackMsg::Scp(m) => 1 + m.size_hint(),
        }
    }

    fn fingerprint(&self, h: &mut StateHasher) {
        match self {
            StackMsg::Sd(m) => {
                h.write_u8(1);
                m.fingerprint(h);
            }
            StackMsg::Scp(m) => {
                h.write_u8(2);
                m.fingerprint(h);
            }
        }
    }
}

/// A correct process running the whole positive pipeline under
/// exploration; see the [module docs](self).
#[derive(Clone)]
pub struct StackActor {
    f: usize,
    input: Value,
    sd: SinkDetectorActor,
    /// The embedded SCP node, booted when the detection lands.
    scp: Option<ScpNode>,
    /// SCP envelopes delivered before the detection, replayed in arrival
    /// order at boot.
    buffered: Vec<(ProcessId, ScpMsg)>,
    /// Reusable staging buffers for [`Context::with_mapped_scratch`] —
    /// always empty outside a callback (drained before every return), so
    /// they are invisible to `fingerprint`/`fork` semantics.
    sd_scratch: Vec<(ProcessId, SdMsg)>,
    scp_scratch: Vec<(ProcessId, ScpMsg)>,
    /// Arm decision provenance on the embedded SCP node the moment it
    /// boots. Forensic plumbing only — deliberately **not** part of
    /// `fingerprint`: recording provenance must not change the explored
    /// state space.
    prov_wanted: bool,
}

impl StackActor {
    /// Creates the composite for a process with participant detector
    /// `pd`, fault threshold `f` and proposal `input`. `GET_SINK` runs in
    /// [`GetSinkMode::Direct`] (the mode the explored pipelines use),
    /// without retransmission (the stack is an exploration-only actor).
    pub fn new(pd: ProcessSet, f: usize, input: Value) -> Self {
        StackActor {
            f,
            input,
            sd: SinkDetectorActor::new(pd, f, GetSinkMode::Direct, RetransmitConfig::disabled()),
            scp: None,
            buffered: Vec::new(),
            sd_scratch: Vec::new(),
            scp_scratch: Vec::new(),
            prov_wanted: false,
        }
    }

    /// Arms decision provenance: the embedded [`ScpNode`] records its
    /// vote→accept→confirm justifications from the moment it boots
    /// (including the initial-proposal root written by `on_start`).
    pub fn enable_provenance(&mut self) {
        self.prov_wanted = true;
        if let Some(node) = &mut self.scp {
            node.enable_provenance();
        }
    }

    /// The embedded node's provenance log (disabled/empty before the SCP
    /// phase boots or when provenance was never armed).
    pub fn provenance(&self) -> scup_obs::causal::ProvenanceLog {
        self.scp
            .as_ref()
            .map(|node| node.provenance().clone())
            .unwrap_or_default()
    }

    /// The externalized (decided) value, once the embedded SCP node
    /// reaches one.
    pub fn externalized(&self) -> Option<Value> {
        self.scp.as_ref().and_then(ScpNode::externalized)
    }

    /// `true` once the sink detection landed and the SCP phase is live.
    pub fn scp_started(&self) -> bool {
        self.scp.is_some()
    }

    /// Boots the embedded SCP node when the detection just landed:
    /// Algorithm-2 slices from the detection, `on_start`, then the
    /// buffered envelope replay.
    fn maybe_start_scp(&mut self, ctx: &mut Context<'_, StackMsg>) {
        if self.scp.is_some() {
            return;
        }
        let Some(detection) = self.sd.detection() else {
            return;
        };
        let slices = build_slices(&detection, self.f);
        let mut node = ScpNode::new(ScpConfig::new(slices, self.input));
        if self.prov_wanted {
            // Before `on_start`, so the proposal root is recorded.
            node.enable_provenance();
        }
        let buffered = std::mem::take(&mut self.buffered);
        ctx.with_mapped_scratch(&mut self.scp_scratch, StackMsg::Scp, |scp_ctx| {
            node.on_start(scp_ctx);
            for (from, msg) in buffered {
                node.on_message(scp_ctx, from, msg);
            }
        });
        self.scp = Some(node);
    }
}

impl Actor<StackMsg> for StackActor {
    fn on_start(&mut self, ctx: &mut Context<'_, StackMsg>) {
        let sd = &mut self.sd;
        ctx.with_mapped_scratch(&mut self.sd_scratch, StackMsg::Sd, |sd_ctx| {
            sd.on_start(sd_ctx)
        });
        self.maybe_start_scp(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, StackMsg>, from: ProcessId, msg: StackMsg) {
        match msg {
            StackMsg::Sd(m) => {
                let sd = &mut self.sd;
                ctx.with_mapped_scratch(&mut self.sd_scratch, StackMsg::Sd, |sd_ctx| {
                    sd.on_message(sd_ctx, from, m)
                });
                self.maybe_start_scp(ctx);
            }
            StackMsg::Scp(m) => match &mut self.scp {
                Some(node) => {
                    ctx.with_mapped_scratch(&mut self.scp_scratch, StackMsg::Scp, |scp_ctx| {
                        node.on_message(scp_ctx, from, m)
                    });
                }
                None => self.buffered.push((from, m)),
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, StackMsg>, tag: u64) {
        // Only the SCP phase arms timers (nomination fallback, ballot
        // bumps); the detector is timer-free.
        if let Some(node) = &mut self.scp {
            ctx.with_mapped_scratch(&mut self.scp_scratch, StackMsg::Scp, |scp_ctx| {
                node.on_timer(scp_ctx, tag)
            });
        }
    }

    fn fork(&self) -> Option<Box<dyn Actor<StackMsg>>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint(&self, h: &mut StateHasher) {
        h.write_u64(self.f as u64);
        h.write_u64(self.input);
        Actor::fingerprint(&self.sd, h);
        match &self.scp {
            Some(node) => {
                h.write_u8(1);
                Actor::fingerprint(node, h);
            }
            None => {
                h.write_u8(0);
                h.write_u64(self.buffered.len() as u64);
                for (from, msg) in &self.buffered {
                    h.write_id(*from);
                    msg.fingerprint(h);
                }
            }
        }
    }

    /// Phase-wise delegation; a pre-boot SCP envelope is never absorbed
    /// (buffering it is a state change the replay order depends on).
    fn absorbs(
        &self,
        self_id: ProcessId,
        known: &ProcessSet,
        from: ProcessId,
        msg: &StackMsg,
    ) -> bool {
        match msg {
            StackMsg::Sd(m) => {
                self.sd.absorbs(self_id, known, from, m)
                    && (self.scp.is_some() || self.sd.detection().is_none())
            }
            StackMsg::Scp(m) => match &self.scp {
                Some(node) => node.absorbs(self_id, known, from, m),
                None => false,
            },
        }
    }

    fn threshold_inert(
        &self,
        self_id: ProcessId,
        known: &ProcessSet,
        from: ProcessId,
        msg: &StackMsg,
    ) -> bool {
        match msg {
            StackMsg::Sd(m) => self.sd.threshold_inert(self_id, known, from, m),
            StackMsg::Scp(m) => match &self.scp {
                Some(node) => node.threshold_inert(self_id, known, from, m),
                None => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scup_graph::generators;
    use scup_sim::adversary::SilentActor;
    use scup_sim::ExploreSim;

    fn stack_sim() -> ExploreSim<StackMsg> {
        // The fig1-style 4-node system: a 2-member sink, two silent
        // Byzantine outsiders, f = 0.
        let kg = generators::fig1();
        let mut sim = ExploreSim::new(kg.clone(), 0);
        for i in kg.processes() {
            if i.as_u32() < 4 {
                sim.add_actor(Box::new(SilentActor::new()));
            } else {
                sim.add_actor(Box::new(StackActor::new(
                    kg.pd(i).clone(),
                    0,
                    100 + i.as_u32() as u64,
                )));
            }
        }
        sim.start();
        sim
    }

    #[test]
    fn canonical_schedule_reaches_decisions_through_both_phases() {
        let mut sim = stack_sim();
        let mut guard = 0;
        while !sim.is_quiescent() {
            sim.drain_absorbed();
            if let Some(&idx) = sim.choices().first() {
                sim.fire(idx);
            }
            guard += 1;
            assert!(guard < 100_000, "canonical schedule must terminate");
        }
        // Every sink member of fig. 1 ({4,5,6,7}) boots SCP and decides.
        let mut decided = None;
        for i in 4..8u32 {
            let actor = sim.actor_as::<StackActor>(ProcessId::new(i)).unwrap();
            assert!(actor.scp_started(), "{i} must reach the SCP phase");
            let v = actor
                .externalized()
                .unwrap_or_else(|| panic!("{i} must externalize on the canonical schedule"));
            match decided {
                None => decided = Some(v),
                Some(prev) => assert_eq!(prev, v, "agreement at {i}"),
            }
        }
    }

    #[test]
    fn snapshot_restore_round_trips_across_the_phase_boundary() {
        let mut sim = stack_sim();
        // Drive a few steps into the run, snapshot, perturb, restore.
        for _ in 0..10 {
            sim.drain_absorbed();
            if let Some(&idx) = sim.choices().first() {
                sim.fire(idx);
            }
        }
        let snap = sim.snapshot();
        let h0 = sim.state_hash();
        for _ in 0..5 {
            sim.drain_absorbed();
            if let Some(&idx) = sim.choices().first() {
                sim.fire(idx);
            }
        }
        assert_ne!(sim.state_hash(), h0);
        sim.restore(&snap);
        assert_eq!(sim.state_hash(), h0, "restore rewinds bit-identically");
    }

    #[test]
    fn state_hash_is_stable_across_rebuilds() {
        let mut a = stack_sim();
        let mut b = stack_sim();
        for _ in 0..60 {
            assert_eq!(a.state_hash(), b.state_hash());
            a.drain_absorbed();
            b.drain_absorbed();
            assert_eq!(a.state_hash(), b.state_hash());
            let (ca, cb) = (a.choices(), b.choices());
            assert_eq!(ca, cb);
            if ca.is_empty() {
                break;
            }
            a.fire(ca[0]);
            b.fire(cb[0]);
        }
    }
}
