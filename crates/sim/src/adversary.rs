//! Generic Byzantine behaviours.
//!
//! The simulator models the static Byzantine adversary of Section III-A by
//! letting faulty processes run arbitrary [`Actor`] implementations. This
//! module provides the protocol-agnostic behaviours; protocol-specific
//! attacks (lying about `known_i`, forging `SINK` replies, equivocating SCP
//! statements) live next to the protocols they attack.

use scup_graph::{ProcessId, ProcessSet};

use crate::actor::{Actor, Context, SimMessage};
use crate::explore::StateHasher;

/// A faulty process that never sends anything — the behaviour the proof of
/// Lemma 2 relies on ("faulty processes can stay silent during an execution
/// of a consensus instance").
///
/// Silence subsumes crashes in an asynchronous analysis: no correct process
/// can distinguish a silent Byzantine process from a crashed (or merely
/// slow) one.
#[derive(Debug, Default, Clone, Copy)]
pub struct SilentActor;

impl SilentActor {
    /// Creates a silent actor.
    pub fn new() -> Self {
        SilentActor
    }
}

impl<M: SimMessage> Actor<M> for SilentActor {
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}
    fn on_message(&mut self, _ctx: &mut Context<'_, M>, _from: ProcessId, _msg: M) {}
    fn fork(&self) -> Option<Box<dyn Actor<M>>> {
        Some(Box::new(*self))
    }
    // Stateless: the default (empty) fingerprint is exact, and every
    // delivery is a no-op — the explorer never branches on deliveries to a
    // silent process.
    fn absorbs(
        &self,
        _self_id: ProcessId,
        _known: &ProcessSet,
        _from: ProcessId,
        _msg: &M,
    ) -> bool {
        true
    }
}

/// A faulty process that echoes every received message back to its sender
/// and to every other process it knows — a cheap "noise" adversary that
/// stresses protocols' duplicate handling without understanding the
/// protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct EchoActor;

impl EchoActor {
    /// Creates an echo actor.
    pub fn new() -> Self {
        EchoActor
    }
}

impl<M: SimMessage> Actor<M> for EchoActor {
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}
    fn on_message(&mut self, ctx: &mut Context<'_, M>, _from: ProcessId, msg: M) {
        ctx.broadcast_known(msg);
    }
    // Stateless (exact empty fingerprint), but deliveries are never
    // absorbed: every one produces an echo burst.
    fn fork(&self) -> Option<Box<dyn Actor<M>>> {
        Some(Box::new(*self))
    }
}

/// Wraps a correct actor and crashes it (drops all deliveries) from the
/// `crash_after`-th received message onwards — fail-stop behaviour mid-run.
#[derive(Clone)]
pub struct CrashActor<A> {
    inner: A,
    crash_after: u64,
    received: u64,
}

impl<A> CrashActor<A> {
    /// Runs `inner` normally for `crash_after` deliveries, then goes silent.
    pub fn new(inner: A, crash_after: u64) -> Self {
        CrashActor {
            inner,
            crash_after,
            received: 0,
        }
    }

    /// `true` once the crash point has been reached.
    pub fn crashed(&self) -> bool {
        self.received >= self.crash_after
    }

    /// Access to the wrapped actor.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

// The `Clone` bound lets the wrapper fork for exploration; every wrapped
// protocol actor in the workspace is a plain cloneable state machine.
impl<M: SimMessage, A: Actor<M> + Clone> Actor<M> for CrashActor<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        if self.crash_after > 0 {
            self.inner.on_start(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ProcessId, msg: M) {
        if self.crashed() {
            return;
        }
        self.received += 1;
        self.inner.on_message(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: u64) {
        if !self.crashed() {
            self.inner.on_timer(ctx, tag);
        }
    }
    fn fork(&self) -> Option<Box<dyn Actor<M>>> {
        Some(Box::new(self.clone()))
    }
    fn fingerprint(&self, h: &mut StateHasher) {
        h.write_u64(self.crash_after);
        h.write_u64(self.received);
        self.inner.fingerprint(h);
    }
    // A delivery before the crash point always advances `received` (state
    // change); after it, everything is dropped — permanently.
    fn absorbs(
        &self,
        _self_id: ProcessId,
        _known: &ProcessSet,
        _from: ProcessId,
        _msg: &M,
    ) -> bool {
        self.crashed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkConfig, Simulation};
    use scup_graph::{generators, KnowledgeGraph, ProcessSet};

    #[derive(Clone, Debug)]
    struct Num(#[allow(dead_code)] u32);
    impl SimMessage for Num {}

    #[derive(Clone)]
    struct Counter {
        seen: u32,
    }
    impl Actor<Num> for Counter {
        fn on_start(&mut self, ctx: &mut Context<'_, Num>) {
            ctx.broadcast_known(Num(1));
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Num>, _from: ProcessId, _msg: Num) {
            self.seen += 1;
        }
    }

    #[test]
    fn silent_actor_sends_nothing() {
        // Two processes that know each other; one silent.
        let kg =
            KnowledgeGraph::from_pds(vec![ProcessSet::from_ids([1]), ProcessSet::from_ids([0])]);
        let mut sim = Simulation::new(kg, NetworkConfig::default());
        sim.add_actor(Box::new(Counter { seen: 0 }));
        sim.add_actor(Box::new(SilentActor::new()));
        let report = sim.run_until_quiet(1_000);
        assert_eq!(report.messages_sent, 1, "only the counter sends");
        assert_eq!(sim.actor_as::<Counter>(ProcessId::new(0)).unwrap().seen, 0);
    }

    #[test]
    fn echo_actor_reflects() {
        let kg =
            KnowledgeGraph::from_pds(vec![ProcessSet::from_ids([1]), ProcessSet::from_ids([0])]);
        let mut sim = Simulation::new(kg, NetworkConfig::default());
        sim.add_actor(Box::new(Counter { seen: 0 }));
        sim.add_actor(Box::new(EchoActor::new()));
        sim.run_until_quiet(1_000);
        assert_eq!(sim.actor_as::<Counter>(ProcessId::new(0)).unwrap().seen, 1);
    }

    #[test]
    fn crash_actor_stops_after_threshold() {
        let kg = generators::fig1();
        let mut sim = Simulation::new(kg, NetworkConfig::default());
        for i in 0..8u32 {
            if i == 4 {
                sim.add_actor(Box::new(CrashActor::new(Counter { seen: 0 }, 2)));
            } else {
                sim.add_actor(Box::new(Counter { seen: 0 }));
            }
        }
        sim.run_until_quiet(10_000);
        let crashed = sim
            .actor_as::<CrashActor<Counter>>(ProcessId::new(4))
            .unwrap();
        // Process 4 (paper 5) is known by many; it sees at most 2 messages.
        assert!(crashed.crashed());
        assert_eq!(crashed.inner().seen, 2);
    }
}
