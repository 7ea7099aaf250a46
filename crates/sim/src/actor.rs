use std::any::Any;
use std::fmt::Debug;

use rand::rngs::StdRng;
use scup_graph::{ProcessId, ProcessSet};

use crate::explore::StateHasher;
use crate::faults::{Journal, MemJournal};
use crate::SimTime;

/// Marker trait for protocol messages carried by the simulator.
///
/// `size_hint` feeds the byte counters in [`SimReport`](crate::SimReport);
/// the default of 1 counts messages instead of bytes.
pub trait SimMessage: Clone + Debug + 'static {
    /// Approximate wire size of the message, in abstract bytes.
    fn size_hint(&self) -> usize {
        1
    }

    /// Feeds a canonical fingerprint of the payload into `h` — two
    /// messages must fingerprint equal iff delivering them is
    /// indistinguishable. Write every process id the payload mentions
    /// through [`StateHasher::write_id`] / [`StateHasher::write_set`]:
    /// the symmetry reduction hashes the renamed payload by handing this
    /// same method a renaming hasher. The default hashes the `Debug`
    /// rendering, which is correct for any value type whose `Debug`
    /// output determines it and which mentions no process id; override
    /// to hash fields directly on hot exploration paths.
    fn fingerprint(&self, h: &mut StateHasher) {
        h.write_str(&format!("{self:?}"));
    }

    /// Forensics support: `(slot, digest)` when this payload *claims a
    /// protocol slot* — a statement position a correct process commits
    /// to at most one value for (a view's proposal, a ballot's pledge, a
    /// nomination). `slot` identifies the position (without the value),
    /// `digest` fingerprints the claimed content. Two sends by one
    /// process with equal `slot` but different `digest` are an
    /// equivocation, attributed by the event log
    /// ([`scup_obs::causal::CausalGraph::record_send`]).
    ///
    /// `sender` is the process transmitting this copy; gossip protocols
    /// whose envelopes carry an `origin` distinct from the transmitter
    /// must return `None` unless `sender` is the origin — relays that
    /// forward both halves of someone else's equivocation are not
    /// themselves equivocating.
    ///
    /// The default (`None`) opts the message out of equivocation
    /// tracking; it is only consulted while the event log is on,
    /// so it stays entirely off the bit-identity surface.
    fn equivocation_key(&self, sender: ProcessId) -> Option<(u64, u64)> {
        let _ = sender;
        None
    }
}

/// A deterministic protocol state machine driven by the simulator.
///
/// Correct processes implement their protocol here; Byzantine processes are
/// simply adversarial implementations (the simulator does not privilege
/// either). The `Any` supertrait lets tests downcast actors back to their
/// concrete type after a run.
pub trait Actor<M: SimMessage>: Any {
    /// Called once at time zero, before any message flows.
    fn on_start(&mut self, ctx: &mut Context<'_, M>);

    /// Called when a message from `from` is delivered. The simulator
    /// guarantees `from` is the true sender (authenticated channels) and
    /// has already added `from` to this process's knowledge.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: ProcessId, msg: M);

    /// Called when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Crash–recovery support: called when the simulator restarts this
    /// process after a [`FaultPlan`](crate::FaultPlan) crash. `journal`
    /// is the process's durable log — everything the actor appended via
    /// [`Context::journal`] while alive survived the crash; everything
    /// else (fields of `self`) is *conceptually* volatile.
    ///
    /// A faithful implementation resets its state as a real reboot would
    /// and rehydrates ballot-critical pledges from the journal, so the
    /// recovered process never contradicts what it promised before the
    /// crash. The default keeps all state (pause-crash semantics), which
    /// is only honest for actors whose entire state is cheap to persist —
    /// document the choice either way.
    fn on_recover(&mut self, ctx: &mut Context<'_, M>, journal: &dyn Journal) {
        let _ = (ctx, journal);
    }

    /// Membership-churn support: called when a
    /// [`ChurnPlan`](crate::ChurnPlan) join introduces `peer` to this
    /// process (the simulator has already added `peer` to this process's
    /// knowledge). Protocols use this for *incremental* re-discovery —
    /// a targeted probe of the newcomer, a backlog replay — instead of
    /// restarting discovery from scratch. The default does nothing,
    /// which is sound: the newcomer's own probes still get answered
    /// through `on_message`.
    fn on_peer_joined(&mut self, ctx: &mut Context<'_, M>, peer: ProcessId) {
        let _ = (ctx, peer);
    }

    /// Exploration support: a deep copy of this actor's current state, or
    /// `None` when the actor cannot be forked. The bounded model checker
    /// ([`ExploreSim`](crate::ExploreSim)) requires every actor of an
    /// explored run to implement this (typically `Some(Box::new(
    /// self.clone()))`).
    fn fork(&self) -> Option<Box<dyn Actor<M>>> {
        None
    }

    /// Exploration support: feeds a canonical fingerprint of the actor's
    /// state into `h`. Two actors must fingerprint equal only if they are
    /// behaviourally identical (same future reactions to every event) —
    /// an under-discriminating fingerprint makes visited-state pruning
    /// unsound. Derived caches need not be hashed when they are a
    /// deterministic function of hashed state. The default hashes nothing,
    /// which is only correct for stateless actors.
    ///
    /// Write every process id the hashed state mentions through
    /// [`StateHasher::write_id`] / [`StateHasher::write_set`], and hash
    /// collections whose order a renaming would permute through
    /// [`StateHasher::unordered`]. Handed a hasher built with
    /// [`StateHasher::with_renaming`], this same method then feeds exactly what
    /// the renamed copy of this actor would feed a plain one — the hash
    /// the symmetry reduction takes its minimum over. An id written as a
    /// plain integer breaks that silently; the model checker enables
    /// symmetry only for rosters whose actors uphold it.
    fn fingerprint(&self, h: &mut StateHasher) {
        let _ = h;
    }

    /// Exploration support: returns `true` when delivering `msg` from
    /// `from` is guaranteed to be a complete no-op — no state change, no
    /// sends, no timers — *and will remain one in every reachable
    /// extension of this state* (monotone dedup state, e.g. an envelope
    /// already seen). `self_id` is this actor's process id and `known` its
    /// current knowledge set (actors otherwise only see their id through
    /// the callback context). The explorer retires absorbed events eagerly
    /// without branching on them and, taking the declaration at its word,
    /// **without calling [`Actor::on_message`]** (debug builds replay each
    /// one on a scratch fork and assert the no-op). Counters an actor
    /// keeps beside its protocol state — `NodeStats::envelopes_duplicate`
    /// and the like — therefore do not count absorbed deliveries under
    /// exploration. The default (`false`) is always sound.
    ///
    /// The answer must depend on nothing but this actor's own state,
    /// `known` and the event (`from`, `msg`): the explorer's step memo
    /// hands one remembered answer to every slot with the same hash, and
    /// its settle asks each pending event again only after a write to the
    /// event's recipient.
    fn absorbs(&self, self_id: ProcessId, known: &ProcessSet, from: ProcessId, msg: &M) -> bool {
        let _ = (self_id, known, from, msg);
        false
    }

    /// Exploration support, partial-order reduction: returns `true` when
    /// delivering `msg` from `from` is *threshold-inert* — not a no-op
    /// (state may change, the delivery may be relayed), but guaranteed to
    /// **commute with every other delivery to this actor**, now and in
    /// every reachable extension of this state (the property must be
    /// monotone, like [`Actor::absorbs`]). Concretely: processing the
    /// message must not change any decision-relevant threshold or the
    /// actor's outgoing behaviour beyond a deterministic relay whose
    /// emissions are identical whichever same-recipient sibling fires
    /// first. The default (`false`) is always sound.
    ///
    /// Like [`Actor::absorbs`], the answer must depend on nothing but this
    /// actor's own state, `known` and the event — the step memo and the
    /// explorer's settle both rely on it.
    fn threshold_inert(
        &self,
        self_id: ProcessId,
        known: &ProcessSet,
        from: ProcessId,
        msg: &M,
    ) -> bool {
        let _ = (self_id, known, from, msg);
        false
    }
}

/// The per-callback handle an [`Actor`] uses to interact with the world:
/// sending messages, arming timers, reading the clock and its evolving
/// knowledge set.
pub struct Context<'a, M> {
    pub(crate) self_id: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) known: &'a mut ProcessSet,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) outbox: &'a mut Vec<(ProcessId, M)>,
    pub(crate) timers: &'a mut Vec<(u64, u64)>,
    /// The process's durable journal, when the host provides one (the
    /// timed simulator does; the explorer runs journal-free because it
    /// never models crashes).
    pub(crate) journal: Option<&'a mut MemJournal>,
}

impl<M> Context<'_, M> {
    /// This process's id.
    #[inline]
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// The current simulated time. Always [`SimTime::ZERO`] under an
    /// [`ExploreSim`](crate::ExploreSim), whose semantics are untimed.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The processes this process currently knows (`Π_i`): its participant
    /// detector output plus every process it has heard from.
    #[inline]
    pub fn known(&self) -> &ProcessSet {
        self.known
    }

    /// Returns `true` if this process knows `j` and may therefore address
    /// it.
    pub fn knows(&self, j: ProcessId) -> bool {
        self.known.contains(j)
    }

    /// Registers an identity learned from a message *payload* (e.g. a
    /// participant-detector set relayed during discovery). Knowing a
    /// process's id is what enables addressing it in the CUP model
    /// (Section III-A); senders of received messages are learned
    /// automatically, payload-borne ids must be registered explicitly.
    pub fn learn(&mut self, j: ProcessId) {
        if j != self.self_id {
            self.known.insert(j);
        }
    }

    /// Sends `msg` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if this process does not know `to` — the addressing rule of
    /// Section III-A. Use [`Context::knows`] to guard speculative sends.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        assert!(
            self.known.contains(to),
            "{} attempted to send to unknown process {to}",
            self.self_id
        );
        assert_ne!(
            to, self.self_id,
            "{} attempted to send to itself",
            self.self_id
        );
        self.outbox.push((to, msg));
    }

    /// Sends a clone of `msg` to every currently known process.
    pub fn broadcast_known(&mut self, msg: M)
    where
        M: Clone,
    {
        // Iterate the knowledge set directly (disjoint borrow from the
        // outbox) instead of cloning it per broadcast.
        let me = self.self_id;
        for j in self.known.iter() {
            if j != me {
                self.outbox.push((j, msg.clone()));
            }
        }
    }

    /// Arms a timer that fires `delay > 0` ticks from now, delivering `tag`
    /// to [`Actor::on_timer`].
    ///
    /// # Panics
    ///
    /// Panics if `delay == 0` (zero-delay timers would starve delivery).
    pub fn set_timer(&mut self, delay: u64, tag: u64) {
        assert!(delay > 0, "timers must have positive delay");
        self.timers.push((delay, tag));
    }

    /// A deterministic per-run random source (seeded by
    /// [`NetworkConfig::seed`](crate::NetworkConfig)).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The process's durable [`Journal`], when the host provides one.
    /// State appended here survives [`FaultPlan`](crate::FaultPlan)
    /// crashes and is handed back through [`Actor::on_recover`]. Hosts
    /// without crash semantics (the explorer) return `None`; actors must
    /// treat journaling as write-only best effort:
    /// `if let Some(j) = ctx.journal() { j.append(...) }`.
    pub fn journal(&mut self) -> Option<&mut dyn Journal> {
        match self.journal.as_deref_mut() {
            Some(j) => Some(j as &mut dyn Journal),
            None => None,
        }
    }

    /// Runs `f` with a sub-context whose message type is `N`, wrapping
    /// every send through `wrap` into this context's outbox. Timers, the
    /// knowledge set and the clock are shared with the outer context.
    ///
    /// This is the embedding hook for composite actors (e.g. the
    /// full-stack discovery → SCP actor): an inner protocol state machine
    /// written against `Context<'_, N>` runs unchanged inside an outer
    /// actor whose wire type is an enum over the phases.
    pub fn with_mapped<N, R>(
        &mut self,
        wrap: impl Fn(N) -> M,
        f: impl FnOnce(&mut Context<'_, N>) -> R,
    ) -> R {
        self.with_mapped_scratch(&mut Vec::new(), wrap, f)
    }

    /// [`Context::with_mapped`] with a caller-owned staging buffer, for
    /// composite actors on the dispatch hot path: the buffer's allocation
    /// is reused across deliveries instead of paying a fresh `Vec` per
    /// call. Always left empty on return (drained into the outer outbox).
    pub fn with_mapped_scratch<N, R>(
        &mut self,
        scratch: &mut Vec<(ProcessId, N)>,
        wrap: impl Fn(N) -> M,
        f: impl FnOnce(&mut Context<'_, N>) -> R,
    ) -> R {
        debug_assert!(scratch.is_empty());
        let result = {
            let mut sub = Context {
                self_id: self.self_id,
                now: self.now,
                known: &mut *self.known,
                rng: &mut *self.rng,
                outbox: scratch,
                timers: &mut *self.timers,
                journal: self.journal.as_deref_mut(),
            };
            f(&mut sub)
        };
        for (to, msg) in scratch.drain(..) {
            self.outbox.push((to, wrap(msg)));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[derive(Clone, Debug)]
    struct M;
    impl SimMessage for M {}

    struct CtxBufs {
        known: ProcessSet,
        rng: StdRng,
        outbox: Vec<(ProcessId, M)>,
        timers: Vec<(u64, u64)>,
    }

    impl CtxBufs {
        fn new(known: ProcessSet) -> Self {
            CtxBufs {
                known,
                rng: StdRng::seed_from_u64(0),
                outbox: Vec::new(),
                timers: Vec::new(),
            }
        }

        fn ctx(&mut self) -> Context<'_, M> {
            Context {
                self_id: ProcessId::new(0),
                now: SimTime::ZERO,
                known: &mut self.known,
                rng: &mut self.rng,
                outbox: &mut self.outbox,
                timers: &mut self.timers,
                journal: None,
            }
        }
    }

    #[test]
    fn send_requires_knowledge() {
        let mut bufs = CtxBufs::new(ProcessSet::from_ids([1]));
        let mut c = bufs.ctx();
        c.send(ProcessId::new(1), M);
        assert_eq!(c.outbox.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown process")]
    fn send_to_unknown_panics() {
        let mut bufs = CtxBufs::new(ProcessSet::new());
        bufs.ctx().send(ProcessId::new(3), M);
    }

    #[test]
    #[should_panic(expected = "positive delay")]
    fn zero_delay_timer_panics() {
        let mut bufs = CtxBufs::new(ProcessSet::new());
        bufs.ctx().set_timer(0, 1);
    }

    #[test]
    fn broadcast_skips_self() {
        let mut bufs = CtxBufs::new(ProcessSet::from_ids([0, 1, 2]));
        let mut c = bufs.ctx();
        c.broadcast_known(M);
        assert_eq!(c.outbox.len(), 2);
    }
}
