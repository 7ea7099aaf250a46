use std::any::Any;
use std::num::NonZeroU16;

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};

use scup_obs::causal::{CausalGraph, CausalKind, EventId};

use crate::actor::{Actor, Context, SimMessage};
use crate::churn::ChurnPlan;
use crate::faults::{FaultPlan, MemJournal};
use crate::metrics::{bucket_of, ProcessStats, SimReport, HIST_BUCKETS};
use crate::network::NetworkConfig;
use crate::queue::EventQueue;
use crate::retransmit::RETRANSMIT_TAG;
use crate::time::SimTime;

/// Most processes a [`Simulation`] addresses. A queued delivery holds its
/// recipient as id + 1 in a `u16`, so ids run from 0 to `u16::MAX - 1`.
pub const MAX_PROCESSES: usize = u16::MAX as usize;

/// One queued event, as the queue's slab holds it. A delivery carries its
/// message and dispatches straight from here. Every other event (a timer,
/// or a fault or churn plan event) carries no message and points into the
/// simulation's [`ControlTable`].
///
/// For a pointer-sized message (an SCP envelope handle) a record is 16
/// bytes, and so is the queue's `Option<Record<M>>` slot: the recipient
/// never takes the value 0, and that niche is the slot's `None`.
struct Record<M> {
    /// The sender's id (unused on a control event).
    from: u16,
    /// The recipient's id + 1 (unused on a control event).
    to: NonZeroU16,
    /// A delivery: the log id of the send that queued it
    /// ([`EventId::NONE`] while the event log is off). A control event:
    /// its slot in the control table.
    cause: EventId,
    /// The message; `None` marks a control event.
    msg: Option<M>,
}

impl<M> Record<M> {
    /// A delivery of `msg` from `from` to `to`. `from` is a dispatching
    /// process, so [`Simulation::new`]'s bound holds for it; `to` is
    /// whatever the actor addressed.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not below [`MAX_PROCESSES`].
    fn deliver(from: ProcessId, to: ProcessId, cause: EventId, msg: M) -> Self {
        Record {
            from: from.as_u32() as u16,
            to: u16::try_from(to.as_u32())
                .ok()
                .and_then(|to| NonZeroU16::MIN.checked_add(to))
                .expect("a recipient id is below MAX_PROCESSES"),
            cause,
            msg: Some(msg),
        }
    }

    /// The control event at `slot` of the control table.
    fn control(slot: u32) -> Self {
        Record {
            from: 0,
            to: NonZeroU16::MIN,
            cause: EventId(slot),
            msg: None,
        }
    }

    fn from(&self) -> ProcessId {
        ProcessId::new(self.from.into())
    }

    fn to(&self) -> ProcessId {
        ProcessId::new(u32::from(self.to.get()) - 1)
    }
}

/// An event that is not a delivery. About one event in several thousand
/// on the SCP floods, so these wait in a side table and the queue holds
/// only a pointer to them.
#[derive(Clone, Copy)]
enum Control {
    Timer {
        process: ProcessId,
        tag: u64,
        /// The incarnation of the process when the timer was armed; a
        /// crash bumps the incarnation, cancelling all earlier timers.
        epoch: u32,
    },
    Crash {
        process: ProcessId,
    },
    Recover {
        process: ProcessId,
    },
    /// A churn-plan join (index into [`ChurnPlan::joins`]).
    Join {
        idx: usize,
    },
    /// A churn-plan departure.
    Leave {
        process: ProcessId,
    },
}

/// The queued control events, each at the slot its [`Record`] names. A
/// fired event's slot goes on a free list and is the next one handed out,
/// so the table is as long as the most control events ever queued at
/// once, not as the number a run fires.
#[derive(Default)]
struct ControlTable {
    slots: Vec<Control>,
    free: Vec<u32>,
}

impl ControlTable {
    /// Stores `event` and returns its slot.
    fn insert(&mut self, event: Control) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = event;
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("control slots fit in u32");
            self.slots.push(event);
            slot
        }
    }

    /// The event at `slot`, whose slot is free from here on.
    fn take(&mut self, slot: u32) -> Control {
        self.free.push(slot);
        self.slots[slot as usize]
    }
}

/// Owned copy of a [`JoinEvent`](crate::churn::JoinEvent)'s fields,
/// cloned out of the plan so the join handler can dispatch actors
/// without holding a borrow of `self.churn`.
struct JoinEventParts {
    process: ProcessId,
    contacts: ProcessSet,
    introduce_to: ProcessSet,
}

/// A deterministic discrete-event simulation of `n` processes exchanging
/// messages over a partially synchronous network.
///
/// Build one with [`Simulation::new`], register exactly one [`Actor`] per
/// process of the knowledge graph with [`Simulation::add_actor`], then run
/// with [`Simulation::run_until_quiet`] or [`Simulation::run_while`].
///
/// See the [crate docs](crate) for a complete example.
pub struct Simulation<M: SimMessage> {
    config: NetworkConfig,
    kg: KnowledgeGraph,
    actors: Vec<Box<dyn Actor<M>>>,
    known: Vec<ProcessSet>,
    /// Pending events; among those of one tick, the order they were
    /// queued in is the order they fire in.
    queue: EventQueue<Record<M>>,
    /// The queued events that are not deliveries.
    control: ControlTable,
    rng: StdRng,
    report: SimReport,
    /// The run's event log: every send, delivery, timer, fault and churn
    /// event, once. Off unless [`Simulation::enable_causal`] was called.
    causal: CausalGraph,
    started: bool,
    /// Dispatch buffers reused across every actor callback: the outbox and
    /// timer lists live for one `dispatch` call but keep their capacity for
    /// the whole run, so steady-state event processing allocates nothing.
    outbox_buf: Vec<(ProcessId, M)>,
    timers_buf: Vec<(u64, u64)>,
    /// The installed fault schedule. `faults_active` caches `!is_zero()`
    /// so the zero plan adds no per-message work (and, critically, no RNG
    /// draws — the delivery schedule stays bit-identical to a run with no
    /// plan at all).
    faults: FaultPlan,
    faults_active: bool,
    /// Per-process crash state: `down[i]` while crashed, `epoch[i]`
    /// counts incarnations (bumped on every crash; stale-epoch timers are
    /// cancelled instead of fired).
    down: Vec<bool>,
    epoch: Vec<u32>,
    /// The installed membership schedule. Like the fault plane, a zero
    /// plan is free: `churn_active` caches `!is_zero()` and the dormant/
    /// departed vectors stay all-false, so the delivery schedule is
    /// bit-identical to a run with no plan installed.
    churn: ChurnPlan,
    churn_active: bool,
    /// Per-process membership state: `dormant[i]` before a scheduled
    /// join materializes the process, `departed[i]` after a scheduled
    /// leave silences it for good. Both act like a crashed host on the
    /// network path (deliveries dropped), but are distinct states for
    /// the oracles: dormant/departed processes owe nothing.
    dormant: Vec<bool>,
    departed: Vec<bool>,
    /// Per-process durable journals — the one piece of state that
    /// survives a [`FaultPlan`] crash.
    journals: Vec<MemJournal>,
}

impl<M: SimMessage> Simulation<M> {
    /// Creates a simulation over the processes of `kg`, with initial
    /// knowledge `known_i = PD_i`.
    ///
    /// # Panics
    ///
    /// Panics if `kg` has more than [`MAX_PROCESSES`] processes.
    pub fn new(kg: KnowledgeGraph, config: NetworkConfig) -> Self {
        assert!(
            kg.n() <= MAX_PROCESSES,
            "a simulation addresses at most {MAX_PROCESSES} processes, got {}",
            kg.n()
        );
        let known = kg.pds();
        let rng = StdRng::seed_from_u64(config.seed);
        let report = SimReport {
            per_process: vec![ProcessStats::default(); kg.n()],
            ..SimReport::default()
        };
        let n = kg.n();
        Simulation {
            config,
            kg,
            actors: Vec::new(),
            known,
            queue: EventQueue::new(),
            control: ControlTable::default(),
            rng,
            report,
            causal: CausalGraph::disabled(),
            started: false,
            outbox_buf: Vec::new(),
            timers_buf: Vec::new(),
            faults: FaultPlan::default(),
            faults_active: false,
            down: vec![false; n],
            epoch: vec![0; n],
            churn: ChurnPlan::default(),
            churn_active: false,
            dormant: vec![false; n],
            departed: vec![false; n],
            journals: vec![MemJournal::new(); n],
        }
    }

    /// Installs a fault schedule (see [`FaultPlan`]). Must be called
    /// before the run starts.
    ///
    /// # Panics
    ///
    /// Panics if the run already started or the plan fails
    /// [`FaultPlan::validate`] against this system.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(!self.started, "cannot install faults after the run started");
        if let Err(e) = plan.validate(self.kg.n()) {
            panic!("invalid fault plan: {e}");
        }
        self.faults_active = !plan.is_zero();
        self.faults = plan;
    }

    /// The installed fault schedule (the zero plan unless
    /// [`Simulation::set_fault_plan`] was called).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Installs a membership schedule (see [`ChurnPlan`]). Must be
    /// called before the run starts.
    ///
    /// # Panics
    ///
    /// Panics if the run already started or the plan fails
    /// [`ChurnPlan::validate`] against this system.
    pub fn set_churn_plan(&mut self, plan: ChurnPlan) {
        assert!(!self.started, "cannot install churn after the run started");
        if let Err(e) = plan.validate(self.kg.n()) {
            panic!("invalid churn plan: {e}");
        }
        self.churn_active = !plan.is_zero();
        self.churn = plan;
        // Scheduled joiners are dormant from the outset: they skip
        // `on_start` at tick 0 and boot at their join tick instead.
        for j in &self.churn.joins {
            self.dormant[j.process.index()] = true;
        }
    }

    /// `true` while process `i` is crashed.
    pub fn is_down(&self, i: ProcessId) -> bool {
        self.down[i.index()]
    }

    /// `true` while process `i` is dormant (scheduled to join but not
    /// yet materialized).
    pub fn is_dormant(&self, i: ProcessId) -> bool {
        self.dormant[i.index()]
    }

    /// `true` once process `i` has departed for good.
    pub fn has_departed(&self, i: ProcessId) -> bool {
        self.departed[i.index()]
    }

    /// The durable journal of process `i` (empty unless its actor wrote
    /// records via [`Context::journal`]).
    pub fn journal(&self, i: ProcessId) -> &MemJournal {
        &self.journals[i.index()]
    }

    /// Moves every process's durable journal out of a finished run,
    /// leaving empty ones behind — the read-out that does not copy the
    /// records.
    pub fn take_journals(&mut self) -> Vec<MemJournal> {
        let empty = vec![MemJournal::new(); self.journals.len()];
        std::mem::replace(&mut self.journals, empty)
    }

    /// Registers the actor for the next process id (call exactly `n` times,
    /// in id order).
    ///
    /// # Panics
    ///
    /// Panics if more actors than processes are registered or if the run
    /// already started.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ProcessId {
        assert!(!self.started, "cannot add actors after the run started");
        assert!(
            self.actors.len() < self.kg.n(),
            "more actors than processes in the knowledge graph"
        );
        self.actors.push(actor);
        ProcessId::new(self.actors.len() as u32 - 1)
    }

    /// The number of processes.
    pub fn n(&self) -> usize {
        self.kg.n()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The knowledge graph the run started from.
    pub fn knowledge_graph(&self) -> &KnowledgeGraph {
        &self.kg
    }

    /// The current (evolved) knowledge set of process `i`.
    pub fn known(&self, i: ProcessId) -> &ProcessSet {
        &self.known[i.index()]
    }

    /// Immutable access to an actor.
    pub fn actor(&self, i: ProcessId) -> &dyn Actor<M> {
        &*self.actors[i.index()]
    }

    /// Downcasts an actor to its concrete type (for post-run inspection).
    pub fn actor_as<T: 'static>(&self, i: ProcessId) -> Option<&T> {
        let any: &dyn Any = self.actor(i);
        any.downcast_ref::<T>()
    }

    /// Mutable downcast of an actor (for pre-run configuration such as
    /// enabling per-actor observability).
    pub fn actor_as_mut<T: 'static>(&mut self, i: ProcessId) -> Option<&mut T> {
        let any: &mut dyn Any = &mut *self.actors[i.index()];
        any.downcast_mut::<T>()
    }

    /// Number of events still queued.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Run statistics so far.
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// Turns the run's event log on (see [`CausalGraph`]): from here on
    /// every simulator event is recorded once, each send with its payload
    /// rendered. Pure observability: it never touches the RNG or the
    /// event schedule. While off, an event costs one branch and renders
    /// nothing.
    pub fn enable_causal(&mut self) {
        self.causal.enable(self.kg.n());
    }

    /// The run's event log (empty unless [`Simulation::enable_causal`]
    /// was called before the run).
    pub fn causal(&self) -> &CausalGraph {
        &self.causal
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        assert_eq!(
            self.actors.len(),
            self.kg.n(),
            "every process needs an actor before the run starts"
        );
        self.started = true;
        // Scheduled fault events enter the queue before any protocol
        // traffic; with a zero plan this loop body never runs.
        for c in self.faults.crashes.clone() {
            let process = c.process;
            self.schedule(SimTime::from_ticks(c.at), Control::Crash { process });
            if let Some(r) = c.recover_at {
                self.schedule(SimTime::from_ticks(r), Control::Recover { process });
            }
        }
        // Churn events likewise (joiners were already marked dormant at
        // plan install, so the `on_start` loop below skips them). A zero
        // plan touches nothing.
        if self.churn_active {
            for idx in 0..self.churn.joins.len() {
                let at = SimTime::from_ticks(self.churn.joins[idx].at);
                self.schedule(at, Control::Join { idx });
            }
            for l in self.churn.leaves.clone() {
                let at = SimTime::from_ticks(l.at);
                self.schedule(at, Control::Leave { process: l.process });
            }
        }
        for i in 0..self.actors.len() {
            let pid = ProcessId::new(i as u32);
            if self.dormant[i] {
                continue;
            }
            self.dispatch(pid, |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Runs one callback on process `pid` with a fresh context, then flushes
    /// the produced sends and timers into the queue. The outbox/timer
    /// buffers are taken from (and returned to) the simulation so the hot
    /// event loop reuses their capacity instead of allocating per event.
    fn dispatch<F>(&mut self, pid: ProcessId, f: F)
    where
        F: FnOnce(&mut dyn Actor<M>, &mut Context<'_, M>),
    {
        let mut outbox = std::mem::take(&mut self.outbox_buf);
        let mut timers = std::mem::take(&mut self.timers_buf);
        debug_assert!(outbox.is_empty() && timers.is_empty());
        let mut ctx = Context {
            self_id: pid,
            now: self.now(),
            known: &mut self.known[pid.index()],
            rng: &mut self.rng,
            outbox: &mut outbox,
            timers: &mut timers,
            journal: Some(&mut self.journals[pid.index()]),
        };
        f(&mut *self.actors[pid.index()], &mut ctx);
        for (to, msg) in outbox.drain(..) {
            let bytes = msg.size_hint() as u64;
            self.report.messages_sent += 1;
            self.report.bytes_sent += bytes;
            let stats = &mut self.report.per_process[pid.index()];
            stats.sent += 1;
            stats.bytes_sent += bytes;
            let send_ev =
                self.causal
                    .record_send(self.now().ticks(), pid.as_u32(), to.as_u32(), || {
                        (format!("{msg:?}"), msg.equivocation_key(pid))
                    });
            // Fault checks draw from the shared RNG in a fixed order
            // (loss, then delivery time, then duplication), and only when
            // a plan is active — a zero plan draws exactly the historical
            // stream.
            if self.faults_active {
                if self.faults.severed(pid, to, self.now()) {
                    self.record_drop(pid, to, send_ev);
                    continue;
                }
                let p = self.faults.loss_prob(pid, to, self.now());
                if p > 0.0 && self.rng.random_bool(p) {
                    self.record_drop(pid, to, send_ev);
                    continue;
                }
            }
            let deliver_at = self.delivery_time();
            let duplicate = if self.faults_active {
                let dp = self.faults.dup_prob(self.now());
                dp > 0.0 && self.rng.random_bool(dp)
            } else {
                false
            };
            if duplicate {
                // The copy draws its own delivery time, so the two
                // deliveries interleave arbitrarily with other traffic.
                let dup_at = self.delivery_time();
                self.report.messages_duplicated += 1;
                self.causal.record(
                    self.now().ticks(),
                    CausalKind::Duplicate {
                        from: pid.as_u32(),
                        to: to.as_u32(),
                    },
                    send_ev,
                );
                self.queue
                    .push(dup_at, Record::deliver(pid, to, send_ev, msg.clone()));
            }
            self.queue
                .push(deliver_at, Record::deliver(pid, to, send_ev, msg));
        }
        let epoch = self.epoch[pid.index()];
        for (delay, tag) in timers.drain(..) {
            if tag == RETRANSMIT_TAG {
                let bucket = bucket_of(delay);
                if self.report.retransmit_delay_buckets.len() <= bucket {
                    self.report.retransmit_delay_buckets.resize(HIST_BUCKETS, 0);
                }
                self.report.retransmit_delay_buckets[bucket] += 1;
            }
            self.schedule(
                self.now() + delay,
                Control::Timer {
                    process: pid,
                    tag,
                    epoch,
                },
            );
        }
        self.outbox_buf = outbox;
        self.timers_buf = timers;
    }

    /// Queues a control event for tick `at`.
    fn schedule(&mut self, at: SimTime, event: Control) {
        let slot = self.control.insert(event);
        self.queue.push(at, Record::control(slot));
    }

    /// Books a dropped message: aggregate counter, per-link counter and
    /// the log's drop event.
    fn record_drop(&mut self, from: ProcessId, to: ProcessId, send_ev: EventId) {
        self.report.messages_dropped += 1;
        *self
            .report
            .link_drops
            .entry((from.as_u32(), to.as_u32()))
            .or_insert(0) += 1;
        self.causal.record(
            self.now().ticks(),
            CausalKind::Drop {
                from: from.as_u32(),
                to: to.as_u32(),
            },
            send_ev,
        );
    }

    /// Logs an event that is a step of one process and happened to no
    /// message (timer, crash, recover, join, leave).
    fn record_step(&mut self, process: ProcessId, kind: impl FnOnce(u32) -> CausalKind) {
        self.causal
            .record(self.now().ticks(), kind(process.as_u32()), EventId::NONE);
    }

    /// Draws an adversarial-but-legal delivery time for a message sent now:
    /// within `Δ` after `max(now, GST)`, never before `now + 1`. An active
    /// [`DelayFault`](crate::DelayFault) widens the horizon beyond the
    /// `Δ` contract until it heals.
    fn delivery_time(&mut self) -> SimTime {
        let mut horizon = self.config.max_delivery(self.now());
        if self.faults_active {
            horizon += self.faults.extra_delay(self.now());
        }
        let span = horizon - self.now(); // ≥ delta ≥ 1
        self.now() + self.rng.random_range(1..=span)
    }

    /// Processes the next queued event. Returns `false` if the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        self.start();
        let Some((_, record)) = self.queue.pop() else {
            return false;
        };
        let (from, to, cause) = (record.from(), record.to(), record.cause);
        let Some(msg) = record.msg else {
            let event = self.control.take(cause.0);
            self.fire(event);
            return true;
        };
        if self.dormant[to.index()] || self.departed[to.index()] {
            // A message addressed to a process that has not joined yet
            // (or has left for good) dies on the wire — the churn
            // analogue of a crashed receiver.
            self.report.churn_drops += 1;
            self.record_drop(from, to, cause);
            return true;
        }
        if self.down[to.index()] {
            // A message arriving at a crashed process is lost, like a
            // packet hitting a rebooting host.
            self.record_drop(from, to, cause);
            return true;
        }
        // Authenticated channel: receiving teaches the receiver the
        // sender's identity (Section III-A).
        self.known[to.index()].insert(from);
        self.causal.record(
            self.now().ticks(),
            CausalKind::Deliver {
                from: from.as_u32(),
                to: to.as_u32(),
            },
            cause,
        );
        self.report.messages_delivered += 1;
        self.report.per_process[to.index()].delivered += 1;
        self.dispatch(to, |actor, ctx| actor.on_message(ctx, from, msg));
        true
    }

    /// Processes a control event taken from the table.
    fn fire(&mut self, event: Control) {
        match event {
            Control::Timer {
                process,
                tag,
                epoch,
            } => {
                if self.down[process.index()]
                    || self.departed[process.index()]
                    || epoch != self.epoch[process.index()]
                {
                    // Timers are volatile: armed before a crash (stale
                    // epoch), firing while down, or surviving a
                    // departure — all cancelled.
                    self.report.timers_cancelled += 1;
                    return;
                }
                self.record_step(process, |process| match tag {
                    RETRANSMIT_TAG => CausalKind::Retransmit { process },
                    _ => CausalKind::Timer { process, tag },
                });
                self.report.timers_fired += 1;
                self.dispatch(process, |actor, ctx| actor.on_timer(ctx, tag));
            }
            Control::Crash { process } => {
                if !self.down[process.index()] {
                    self.down[process.index()] = true;
                    self.epoch[process.index()] += 1;
                    self.report.crashes += 1;
                    self.record_step(process, |process| CausalKind::Crash { process });
                }
            }
            Control::Recover { process } => {
                if self.down[process.index()] {
                    self.down[process.index()] = false;
                    self.report.recoveries += 1;
                    self.record_step(process, |process| CausalKind::Recover { process });
                    // Hand the actor its pre-crash journal; records it
                    // appends *during* recovery land after the pre-crash
                    // prefix, preserving append order. An amnesiac process
                    // is handed an empty journal instead (its disk is
                    // gone), but the simulator keeps the pre-crash records
                    // so post-run oracles can audit the forgotten pledges.
                    let pre = std::mem::take(&mut self.journals[process.index()]);
                    if self.faults.amnesia.contains(process) {
                        let empty = MemJournal::new();
                        self.dispatch(process, |actor, ctx| actor.on_recover(ctx, &empty));
                    } else {
                        self.dispatch(process, |actor, ctx| actor.on_recover(ctx, &pre));
                    }
                    let post = std::mem::take(&mut self.journals[process.index()]);
                    let mut merged = pre;
                    merged.extend_from(post);
                    self.journals[process.index()] = merged;
                }
            }
            Control::Join { idx } => {
                let JoinEventParts {
                    process,
                    contacts,
                    introduce_to,
                } = self.join_parts(idx);
                if self.dormant[process.index()] {
                    self.dormant[process.index()] = false;
                    self.report.joins += 1;
                    self.record_step(process, |process| CausalKind::Join { process });
                    // The joiner materializes knowing exactly its
                    // contacts (its participant-detector output at join
                    // time); the introduced members learn its identity —
                    // the knowledge graph grows by these edges.
                    self.known[process.index()] = contacts;
                    self.known[process.index()].remove(process);
                    // Boot the joiner first so its probes are queued
                    // before the incumbents' reactions — unless a
                    // composed crash fault has it down at the join tick
                    // (it then joins crashed and boots at recovery).
                    if !self.down[process.index()] {
                        self.dispatch(process, |actor, ctx| actor.on_start(ctx));
                    }
                    for member in introduce_to.iter() {
                        if member == process
                            || self.dormant[member.index()]
                            || self.departed[member.index()]
                            || self.down[member.index()]
                        {
                            continue;
                        }
                        self.known[member.index()].insert(process);
                        self.dispatch(member, |actor, ctx| actor.on_peer_joined(ctx, process));
                    }
                }
            }
            Control::Leave { process } => {
                if !self.departed[process.index()] && !self.dormant[process.index()] {
                    self.departed[process.index()] = true;
                    // The departure bumps the incarnation like a crash:
                    // every pending timer of the departed process is
                    // cancelled instead of fired.
                    self.epoch[process.index()] += 1;
                    self.report.departures += 1;
                    self.record_step(process, |process| CausalKind::Leave { process });
                }
            }
        }
    }

    /// Clones the scheduled join's parts out of the plan (the borrow
    /// cannot be held across the dispatches the join triggers).
    fn join_parts(&self, idx: usize) -> JoinEventParts {
        let j = &self.churn.joins[idx];
        JoinEventParts {
            process: j.process,
            contacts: j.contacts.clone(),
            introduce_to: j.introduce_to.clone(),
        }
    }

    /// Runs until no events remain or simulated time exceeds `max_ticks`.
    pub fn run_until_quiet(&mut self, max_ticks: u64) -> SimReport {
        self.run_while(|_| true, max_ticks)
    }

    /// Runs until `keep_going` returns `false`, no events remain, or
    /// simulated time exceeds `max_ticks`. The predicate is evaluated
    /// between events and may inspect actors.
    pub fn run_while<F>(&mut self, mut keep_going: F, max_ticks: u64) -> SimReport
    where
        F: FnMut(&Simulation<M>) -> bool,
    {
        self.start();
        let mut quiescent = false;
        loop {
            if !keep_going(self) {
                break;
            }
            match self.queue.next_time() {
                None => {
                    quiescent = true;
                    break;
                }
                Some(at) if at.ticks() > max_ticks => break,
                Some(_) => {
                    self.step();
                }
            }
        }
        self.report.end_time = self.now();
        self.report.quiescent = quiescent;
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scup_graph::generators;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }
    impl SimMessage for Msg {
        fn size_hint(&self) -> usize {
            9
        }
    }

    /// Sends Ping to every known process at start; answers Ping with Pong.
    struct PingPong {
        pings_seen: u64,
        pongs_seen: u64,
        timer_fired: bool,
    }

    impl PingPong {
        fn new() -> Self {
            PingPong {
                pings_seen: 0,
                pongs_seen: 0,
                timer_fired: false,
            }
        }
    }

    impl Actor<Msg> for PingPong {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.broadcast_known(Msg::Ping(ctx.self_id().as_u32() as u64));
            ctx.set_timer(50, 7);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
            match msg {
                Msg::Ping(v) => {
                    self.pings_seen += 1;
                    ctx.send(from, Msg::Pong(v));
                }
                Msg::Pong(_) => self.pongs_seen += 1,
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, tag: u64) {
            assert_eq!(tag, 7);
            self.timer_fired = true;
        }
    }

    fn build(seed: u64) -> Simulation<Msg> {
        let kg = generators::fig1();
        let mut sim = Simulation::new(kg, NetworkConfig::synchronous(10, seed));
        for _ in 0..8 {
            sim.add_actor(Box::new(PingPong::new()));
        }
        sim
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = build(42);
        let report = sim.run_until_quiet(10_000);
        assert!(report.quiescent);
        // 18 knowledge edges → 18 pings; replies may flow back over the
        // learned reverse direction, so 18 pongs.
        let mut pings = 0;
        let mut pongs = 0;
        for i in 0..8u32 {
            let a = sim.actor_as::<PingPong>(ProcessId::new(i)).unwrap();
            pings += a.pings_seen;
            pongs += a.pongs_seen;
            assert!(a.timer_fired);
        }
        assert_eq!(pings, 18);
        assert_eq!(pongs, 18);
        assert_eq!(report.messages_sent, 36);
        assert_eq!(report.messages_delivered, 36);
        assert_eq!(report.bytes_sent, 36 * 9);
        assert_eq!(report.timers_fired, 8);
    }

    #[test]
    fn per_process_breakdown_sums_to_aggregates() {
        let mut sim = build(42);
        let report = sim.run_until_quiet(10_000);
        assert_eq!(report.per_process.len(), 8);
        let sent: u64 = report.per_process.iter().map(|p| p.sent).sum();
        let delivered: u64 = report.per_process.iter().map(|p| p.delivered).sum();
        let bytes: u64 = report.per_process.iter().map(|p| p.bytes_sent).sum();
        assert_eq!(sent, report.messages_sent);
        assert_eq!(delivered, report.messages_delivered);
        assert_eq!(bytes, report.bytes_sent);
        // Every fig1 process both pings and is pinged.
        assert!(report.per_process.iter().all(|p| p.sent > 0));
        assert!(report.per_process.iter().all(|p| p.delivered > 0));
    }

    #[test]
    fn runs_are_deterministic() {
        let r1 = build(7).run_until_quiet(10_000);
        let r2 = build(7).run_until_quiet(10_000);
        assert_eq!(r1, r2);
        let r3 = build(8).run_until_quiet(10_000);
        // Same counts, but the schedule (end time) will typically differ.
        assert_eq!(r1.messages_sent, r3.messages_sent);
    }

    #[test]
    fn receiver_learns_sender() {
        let mut sim = build(1);
        // Process 3 (0-based) knows {4,5,7}; nobody knows 0 initially
        // except... check that after the run, ping targets learned senders.
        sim.run_until_quiet(10_000);
        // 0 pinged 1 (paper: PD_1 = {2,5} → 0 knows {1,4}), so 1 now knows 0.
        assert!(sim.known(ProcessId::new(1)).contains(ProcessId::new(0)));
    }

    #[test]
    fn partial_synchrony_delays_before_gst() {
        let kg = generators::fig1();
        let mut sim = Simulation::new(kg, NetworkConfig::partially_synchronous(1_000, 10, 3));
        for _ in 0..8 {
            sim.add_actor(Box::new(PingPong::new()));
        }
        let report = sim.run_until_quiet(100_000);
        assert!(report.quiescent);
        // All initial pings were sent at t0 < GST, so some deliveries may
        // land well after delta but none after GST + delta (replies add at
        // most delta more).
        assert!(report.end_time.ticks() <= 1_000 + 10 + 10 + 50);
    }

    #[test]
    fn time_horizon_stops_run() {
        let mut sim = build(3);
        let report = sim.run_until_quiet(0);
        assert!(!report.quiescent);
        assert_eq!(report.end_time, SimTime::ZERO);
    }

    #[test]
    fn time_horizon_is_inclusive() {
        // Traffic ends by tick 20; the t = 50 timers are all that is left.
        let mut sim = build(3);
        let report = sim.run_until_quiet(49);
        assert!(!report.quiescent);
        assert_eq!(report.timers_fired, 0);
        assert_eq!(sim.pending_events(), 8);
        assert!(report.end_time < SimTime::from_ticks(50));
        // An event at exactly `max_ticks` still runs.
        let report = sim.run_until_quiet(50);
        assert!(report.quiescent);
        assert_eq!(report.timers_fired, 8);
        assert_eq!(report.end_time, SimTime::from_ticks(50));
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn run_while_predicate_stops() {
        let mut sim = build(3);
        let report = sim.run_while(|s| s.report().messages_delivered < 5, 10_000);
        assert!(!report.quiescent);
        assert_eq!(report.messages_delivered, 5);
    }

    #[test]
    fn trace_records_events() {
        use scup_obs::causal::CausalKind;
        let mut sim = build(3);
        sim.enable_causal();
        let report = sim.run_until_quiet(10_000);
        let log = sim.causal();
        let timers = log
            .events()
            .iter()
            .filter(|e| matches!(e.kind, CausalKind::Timer { tag: 7, .. }))
            .count() as u64;
        assert_eq!(timers, report.timers_fired);
        // Each payload is rendered once, on the send; a delivery reads it
        // through its cause.
        let mut rendered = 0;
        for e in log.events() {
            match e.kind {
                CausalKind::Send { .. } => {
                    rendered += 1;
                    assert!(e.payload.as_deref().is_some_and(|p| p.starts_with('P')));
                }
                CausalKind::Deliver { .. } => {
                    assert!(e.payload.is_none());
                    assert_eq!(log.payload(e.id), log.payload(e.cause()));
                    assert!(log.payload(e.id).is_some());
                }
                _ => {}
            }
        }
        assert_eq!(rendered, report.messages_sent);
        // Off by default: the same run without the switch logs nothing.
        let mut quiet = build(3);
        quiet.run_until_quiet(10_000);
        assert!(quiet.causal().is_empty());
    }

    #[test]
    #[should_panic(expected = "every process needs an actor")]
    fn missing_actor_panics() {
        let kg = generators::fig1();
        let mut sim: Simulation<Msg> = Simulation::new(kg, NetworkConfig::default());
        sim.add_actor(Box::new(PingPong::new()));
        sim.run_until_quiet(10);
    }

    use crate::faults::{CrashFault, DupFault, FaultPlan, Journal, LossFault, Partition};

    #[test]
    fn zero_fault_plan_is_bit_identical_to_no_plan() {
        let baseline = build(42).run_until_quiet(10_000);
        let mut sim = build(42);
        sim.set_fault_plan(FaultPlan::default());
        let report = sim.run_until_quiet(10_000);
        assert_eq!(baseline, report);
        assert_eq!(report.messages_dropped, 0);
        assert_eq!(report.crashes, 0);
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut sim = build(42);
        sim.set_fault_plan(FaultPlan {
            loss: Some(LossFault {
                prob: 1.0,
                until: u64::MAX,
                links: None,
            }),
            ..FaultPlan::default()
        });
        let report = sim.run_until_quiet(10_000);
        assert!(report.quiescent);
        assert_eq!(report.messages_sent, 18); // pings leave the actors...
        assert_eq!(report.messages_delivered, 0); // ...and all die in flight
        assert_eq!(report.messages_dropped, 18);
    }

    #[test]
    fn partition_severs_cut_links_during_its_window() {
        // Isolate process 0 forever: its 2 pings die, and nothing reaches it.
        let mut sim = build(42);
        sim.set_fault_plan(FaultPlan {
            partitions: vec![Partition {
                side: ProcessSet::from_ids([0]),
                from: 0,
                until: u64::MAX,
            }],
            ..FaultPlan::default()
        });
        let report = sim.run_until_quiet(10_000);
        assert!(report.quiescent);
        assert!(report.messages_dropped >= 2);
        assert_eq!(report.per_process[0].delivered, 0);
        // Traffic entirely inside the other side still flows.
        assert!(report.messages_delivered > 0);
    }

    #[test]
    fn duplication_injects_extra_deliveries() {
        let mut sim = build(42);
        sim.set_fault_plan(FaultPlan {
            duplication: Some(DupFault {
                prob: 1.0,
                until: u64::MAX,
            }),
            ..FaultPlan::default()
        });
        let report = sim.run_until_quiet(10_000);
        assert!(report.quiescent);
        // Every surviving send is doubled; the copies themselves spawn
        // doubled pongs, so delivered strictly exceeds 2x the baseline 36.
        assert_eq!(report.messages_duplicated, report.messages_sent);
        assert_eq!(
            report.messages_delivered,
            report.messages_sent + report.messages_duplicated
        );
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let plan = FaultPlan {
            loss: Some(LossFault {
                prob: 0.3,
                until: 5_000,
                links: None,
            }),
            duplication: Some(DupFault {
                prob: 0.2,
                until: 5_000,
            }),
            crashes: vec![CrashFault {
                process: ProcessId::new(2),
                at: 5,
                recover_at: Some(200),
            }],
            ..FaultPlan::default()
        };
        let run = |seed| {
            let mut sim = build(seed);
            sim.set_fault_plan(plan.clone());
            sim.run_until_quiet(10_000)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).messages_dropped, 0);
    }

    /// Journals a mark at start; on recovery, re-journals and counts the
    /// pre-crash records it was handed.
    struct Journaler {
        recovered_with: Option<usize>,
    }

    impl Actor<Msg> for Journaler {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            let me = ctx.self_id().as_u32() as u64;
            if let Some(j) = ctx.journal() {
                j.append(1, &[me]);
            }
            ctx.set_timer(100, 9);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: ProcessId, _msg: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _tag: u64) {
            if let Some(j) = ctx.journal() {
                j.append(2, &[]);
            }
        }
        fn on_recover(&mut self, ctx: &mut Context<'_, Msg>, journal: &dyn crate::Journal) {
            self.recovered_with = Some(journal.records().len());
            if let Some(j) = ctx.journal() {
                j.append(3, &[]);
            }
        }
    }

    #[test]
    fn crash_cancels_timers_and_recovery_hands_back_the_journal() {
        let kg = generators::fig1();
        let mut sim = Simulation::new(kg, NetworkConfig::synchronous(10, 11));
        for _ in 0..8 {
            sim.add_actor(Box::new(Journaler {
                recovered_with: None,
            }));
        }
        // Crash 0 before its t=100 timer fires; recover at 300.
        sim.set_fault_plan(FaultPlan {
            crashes: vec![CrashFault {
                process: ProcessId::new(0),
                at: 50,
                recover_at: Some(300),
            }],
            ..FaultPlan::default()
        });
        let report = sim.run_until_quiet(10_000);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.timers_cancelled, 1);
        assert_eq!(report.timers_fired, 7);
        let p0 = ProcessId::new(0);
        assert!(!sim.is_down(p0));
        // on_recover saw exactly the pre-crash record (tag 1); its own
        // recovery append (tag 3) landed after that prefix. The start
        // record survives the crash; the timer record (tag 2) never
        // happens for process 0.
        assert_eq!(
            sim.actor_as::<Journaler>(p0).unwrap().recovered_with,
            Some(1)
        );
        let tags: Vec<u64> = sim.journal(p0).records().iter().map(|r| r.tag).collect();
        assert_eq!(tags, vec![1, 3]);
        // An uncrashed process journalled start + timer and never recovered.
        let p1 = ProcessId::new(1);
        assert!(sim
            .actor_as::<Journaler>(p1)
            .unwrap()
            .recovered_with
            .is_none());
        let tags1: Vec<u64> = sim.journal(p1).records().iter().map(|r| r.tag).collect();
        assert_eq!(tags1, vec![1, 2]);
    }

    #[test]
    fn unrecovered_crash_silences_a_process() {
        let mut sim = build(4);
        sim.set_fault_plan(FaultPlan {
            crashes: vec![CrashFault {
                process: ProcessId::new(3),
                at: 1,
                recover_at: None,
            }],
            ..FaultPlan::default()
        });
        let report = sim.run_until_quiet(10_000);
        assert!(report.quiescent);
        assert!(sim.is_down(ProcessId::new(3)));
        assert_eq!(report.recoveries, 0);
        // Pings already in flight toward 3 are dropped on arrival.
        assert!(report.messages_dropped > 0);
        assert_eq!(report.per_process[3].delivered, 0);
    }

    #[test]
    fn causal_graph_links_sends_to_deliveries() {
        use scup_obs::causal::CausalKind;
        let mut sim = build(3);
        sim.enable_causal();
        sim.run_until_quiet(10_000);
        let g = sim.causal();
        assert!(!g.is_empty());
        let deliver = g
            .events()
            .iter()
            .find(|e| matches!(e.kind, CausalKind::Deliver { .. }))
            .unwrap();
        let cause = deliver.parents[1];
        assert!(cause.is_some(), "delivery carries its causing send");
        assert!(matches!(
            g.events()[cause.0 as usize].kind,
            CausalKind::Send { .. }
        ));
        assert!(g.cone(&[deliver.id]).contains(&cause));
        // Recording is pure observability: the report is unchanged.
        let baseline = build(3).run_until_quiet(10_000);
        assert_eq!(&baseline, sim.report());
    }

    #[test]
    fn causal_graph_and_link_counters_record_drops() {
        use scup_obs::causal::CausalKind;
        let mut sim = build(42);
        sim.enable_causal();
        sim.set_fault_plan(FaultPlan {
            loss: Some(LossFault {
                prob: 1.0,
                until: u64::MAX,
                links: None,
            }),
            ..FaultPlan::default()
        });
        let report = sim.run_until_quiet(10_000);
        let drops = sim
            .causal()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, CausalKind::Drop { .. }))
            .count() as u64;
        assert_eq!(drops, report.messages_dropped);
        let per_link: u64 = report.link_drops.values().sum();
        assert_eq!(per_link, report.messages_dropped);
    }

    #[test]
    fn retransmit_timer_delays_land_in_the_histogram() {
        struct Rebroadcaster;
        impl Actor<Msg> for Rebroadcaster {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(3, crate::retransmit::RETRANSMIT_TAG);
                ctx.set_timer(10, 1);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcessId, _: Msg) {}
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: u64) {}
        }
        let kg = generators::fig1();
        let mut sim = Simulation::new(kg, NetworkConfig::synchronous(10, 5));
        for _ in 0..8 {
            sim.add_actor(Box::new(Rebroadcaster));
        }
        let report = sim.run_until_quiet(10_000);
        let total: u64 = report.retransmit_delay_buckets.iter().sum();
        assert_eq!(total, 8, "one retransmit arm per process, tag-1 excluded");
        assert_eq!(report.retransmit_delay_buckets[bucket_of(3)], 8);
    }

    #[test]
    fn amnesia_hands_an_empty_journal_but_keeps_the_records() {
        let kg = generators::fig1();
        let mut sim = Simulation::new(kg, NetworkConfig::synchronous(10, 11));
        for _ in 0..8 {
            sim.add_actor(Box::new(Journaler {
                recovered_with: None,
            }));
        }
        sim.set_fault_plan(FaultPlan {
            crashes: vec![CrashFault {
                process: ProcessId::new(0),
                at: 50,
                recover_at: Some(300),
            }],
            amnesia: ProcessSet::from_ids([0]),
            ..FaultPlan::default()
        });
        sim.run_until_quiet(10_000);
        let p0 = ProcessId::new(0);
        // on_recover saw nothing (disk gone)...
        assert_eq!(
            sim.actor_as::<Journaler>(p0).unwrap().recovered_with,
            Some(0)
        );
        // ...but the simulator still audits the forgotten pre-crash record.
        let tags: Vec<u64> = sim.journal(p0).records().iter().map(|r| r.tag).collect();
        assert_eq!(tags, vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn out_of_range_crash_target_is_rejected() {
        let mut sim = build(4);
        sim.set_fault_plan(FaultPlan {
            crashes: vec![CrashFault {
                process: ProcessId::new(99),
                at: 1,
                recover_at: None,
            }],
            ..FaultPlan::default()
        });
    }

    use crate::churn::{ChurnPlan, JoinEvent, LeaveEvent};

    #[test]
    fn zero_churn_plan_is_bit_identical_to_no_plan() {
        let baseline = build(42).run_until_quiet(10_000);
        let mut sim = build(42);
        sim.set_churn_plan(ChurnPlan::default());
        let report = sim.run_until_quiet(10_000);
        assert_eq!(baseline, report);
        assert_eq!(report.joins, 0);
        assert_eq!(report.departures, 0);
        assert_eq!(report.churn_drops, 0);
    }

    /// Pings all known processes at start; greets any later joiner with a
    /// ping of its own so the introduction path is exercised.
    struct ChurnProbe {
        started_at: Option<SimTime>,
        peers_joined: Vec<ProcessId>,
        pings_seen: u64,
    }

    impl ChurnProbe {
        fn new() -> Self {
            ChurnProbe {
                started_at: None,
                peers_joined: Vec::new(),
                pings_seen: 0,
            }
        }
    }

    impl Actor<Msg> for ChurnProbe {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.started_at = Some(ctx.now());
            ctx.broadcast_known(Msg::Ping(ctx.self_id().as_u32() as u64));
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: ProcessId, msg: Msg) {
            if matches!(msg, Msg::Ping(_)) {
                self.pings_seen += 1;
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _tag: u64) {}
        fn on_peer_joined(&mut self, ctx: &mut Context<'_, Msg>, peer: ProcessId) {
            self.peers_joined.push(peer);
            ctx.send(peer, Msg::Ping(999));
        }
    }

    fn build_probes(seed: u64) -> Simulation<Msg> {
        let kg = generators::fig1();
        let mut sim = Simulation::new(kg, NetworkConfig::synchronous(10, seed));
        for _ in 0..8 {
            sim.add_actor(Box::new(ChurnProbe::new()));
        }
        sim
    }

    #[test]
    fn join_materializes_a_dormant_process_and_notifies_members() {
        let mut sim = build_probes(42);
        sim.set_churn_plan(ChurnPlan {
            joins: vec![JoinEvent {
                process: ProcessId::new(7),
                at: 100,
                contacts: ProcessSet::from_ids([0, 1]),
                introduce_to: ProcessSet::from_ids([0, 1]),
            }],
            leaves: Vec::new(),
        });
        assert!(sim.is_dormant(ProcessId::new(7)));
        let report = sim.run_until_quiet(10_000);
        assert!(report.quiescent);
        assert_eq!(report.joins, 1);
        assert!(!sim.is_dormant(ProcessId::new(7)));
        // Pings sent to the dormant process at t0 died on the wire, and
        // with no fault plan every drop is a churn drop.
        assert!(report.churn_drops > 0);
        assert_eq!(report.churn_drops, report.messages_dropped);
        // The joiner booted at its join tick, knowing its contacts.
        let joiner = sim.actor_as::<ChurnProbe>(ProcessId::new(7)).unwrap();
        assert_eq!(joiner.started_at, Some(SimTime::from_ticks(100)));
        assert!(sim.known(ProcessId::new(7)).contains(ProcessId::new(0)));
        // Both introduced members were told and greeted the joiner, so
        // it saw their greeting pings plus none from anyone else.
        for i in [0u32, 1] {
            let m = sim.actor_as::<ChurnProbe>(ProcessId::new(i)).unwrap();
            assert_eq!(m.peers_joined, vec![ProcessId::new(7)]);
            assert!(sim.known(ProcessId::new(i)).contains(ProcessId::new(7)));
        }
        assert_eq!(report.per_process[7].delivered, 2);
    }

    #[test]
    fn leave_silences_a_process_and_cancels_its_timers() {
        let mut sim = build(42);
        sim.set_churn_plan(ChurnPlan {
            joins: Vec::new(),
            leaves: vec![LeaveEvent {
                process: ProcessId::new(3),
                at: 1,
            }],
        });
        let report = sim.run_until_quiet(10_000);
        assert!(report.quiescent);
        assert_eq!(report.departures, 1);
        assert!(sim.has_departed(ProcessId::new(3)));
        // The leave fires before any t=1 delivery, so nothing ever
        // reaches process 3; its own t0 pings still went out.
        assert_eq!(report.per_process[3].delivered, 0);
        assert!(report.per_process[3].sent > 0);
        assert!(report.churn_drops > 0);
        assert_eq!(report.churn_drops, report.messages_dropped);
        // Its t=50 timer was cancelled; the other seven fired.
        assert_eq!(report.timers_cancelled, 1);
        assert_eq!(report.timers_fired, 7);
    }

    #[test]
    fn churned_runs_are_deterministic_per_seed() {
        let plan = ChurnPlan {
            joins: vec![JoinEvent {
                process: ProcessId::new(6),
                at: 40,
                contacts: ProcessSet::from_ids([0]),
                introduce_to: ProcessSet::from_ids([0]),
            }],
            leaves: vec![LeaveEvent {
                process: ProcessId::new(2),
                at: 30,
            }],
        };
        let run = |seed| {
            let mut sim = build_probes(seed);
            sim.set_churn_plan(plan.clone());
            sim.run_until_quiet(10_000)
        };
        assert_eq!(run(9), run(9));
        assert_eq!(run(9).joins, 1);
        assert_eq!(run(9).departures, 1);
    }

    #[test]
    #[should_panic(expected = "invalid churn plan")]
    fn out_of_range_join_target_is_rejected() {
        let mut sim = build(4);
        sim.set_churn_plan(ChurnPlan {
            joins: vec![JoinEvent {
                process: ProcessId::new(99),
                at: 10,
                contacts: ProcessSet::from_ids([0]),
                introduce_to: ProcessSet::new(),
            }],
            leaves: Vec::new(),
        });
    }

    /// A pending event sits in the queue's slab as an
    /// `Option<Record<M>>`. For a pointer-sized message (an SCP envelope
    /// handle) the record's recipient leaves a niche for `None`, so a slot
    /// costs no more than the record itself: 16 bytes.
    #[test]
    fn a_queue_slot_costs_no_more_than_its_event() {
        use std::mem::size_of;
        type Handle = std::rc::Rc<u64>;
        assert_eq!(size_of::<Handle>(), size_of::<usize>());
        assert!(size_of::<Option<Record<Handle>>>() <= size_of::<Record<Handle>>());
        assert_eq!(size_of::<Option<Record<Handle>>>(), 16);
    }

    #[test]
    fn a_delivery_at_the_top_of_the_id_range_round_trips() {
        let (from, to) = (ProcessId::new(65_533), ProcessId::new(65_534));
        let record = Record::deliver(from, to, EventId(9), Msg::Pong(3));
        assert_eq!((record.from(), record.to()), (from, to));
        assert_eq!(record.cause, EventId(9));
        assert_eq!(record.msg, Some(Msg::Pong(3)));
    }

    #[test]
    #[should_panic(expected = "a recipient id is below MAX_PROCESSES")]
    fn a_recipient_past_the_id_range_is_refused() {
        Record::deliver(ProcessId::new(0), ProcessId::new(65_535), EventId::NONE, ());
    }

    #[test]
    #[should_panic(expected = "a simulation addresses at most 65535 processes, got 65536")]
    fn a_system_past_the_id_range_is_refused() {
        let kg = KnowledgeGraph::from_graph(scup_graph::DiGraph::new(MAX_PROCESSES + 1));
        let _: Simulation<Msg> = Simulation::new(kg, NetworkConfig::default());
    }

    /// Writes down every callback it gets, and sends nothing.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<String>,
    }

    impl Actor<Msg> for Recorder {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.seen.push(format!("start@{}", ctx.now().ticks()));
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
            self.seen.push(format!("{msg:?} from {}", from.as_u32()));
        }
        fn on_timer(&mut self, _: &mut Context<'_, Msg>, tag: u64) {
            self.seen.push(format!("timer {tag}"));
        }
        fn on_recover(&mut self, _: &mut Context<'_, Msg>, _: &dyn crate::Journal) {
            self.seen.push("recover".into());
        }
        fn on_peer_joined(&mut self, _: &mut Context<'_, Msg>, peer: ProcessId) {
            self.seen.push(format!("joined {}", peer.as_u32()));
        }
    }

    /// Deliveries and every kind of control event, all queued for one
    /// tick, fire in the order they were queued: an order-sensitive
    /// sequence (a timer armed before a crash is stale after the
    /// recovery, one armed after it is live) comes out exactly as pushed.
    #[test]
    fn control_events_keep_their_place_in_a_tick() {
        use scup_obs::causal::CausalKind as K;
        let kg = generators::fig1();
        let mut sim = Simulation::new(kg, NetworkConfig::synchronous(10, 1));
        for _ in 0..8 {
            sim.add_actor(Box::<Recorder>::default());
        }
        // Process 7 is a scheduled joiner; the plan's own join, far
        // ahead, finds it joined already.
        sim.set_churn_plan(ChurnPlan {
            joins: vec![JoinEvent {
                process: ProcessId::new(7),
                at: 1_000,
                contacts: ProcessSet::from_ids([0]),
                introduce_to: ProcessSet::from_ids([0]),
            }],
            leaves: Vec::new(),
        });
        sim.enable_causal();
        sim.start();
        let p = ProcessId::new;
        let at = SimTime::from_ticks(5);
        let deliver = |sim: &mut Simulation<Msg>, from: u32, to: u32, v: u64| {
            let record = Record::deliver(p(from), p(to), EventId::NONE, Msg::Ping(v));
            sim.queue.push(at, record);
        };
        let timer = |process: u32, tag: u64, epoch: u32| Control::Timer {
            process: p(process),
            tag,
            epoch,
        };
        deliver(&mut sim, 0, 1, 1);
        sim.schedule(at, timer(2, 11, 0));
        sim.schedule(at, Control::Crash { process: p(3) });
        deliver(&mut sim, 2, 3, 2);
        sim.schedule(at, Control::Recover { process: p(3) });
        sim.schedule(at, timer(3, 12, 0));
        sim.schedule(at, timer(3, 13, 1));
        sim.schedule(at, Control::Join { idx: 0 });
        sim.schedule(at, Control::Leave { process: p(5) });
        deliver(&mut sim, 1, 5, 3);
        deliver(&mut sim, 6, 4, 4);
        let report = sim.run_until_quiet(10);
        let fired: Vec<K> = sim
            .causal()
            .events()
            .iter()
            .filter(|e| e.at == 5)
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            fired,
            [
                K::Deliver { from: 0, to: 1 },
                K::Timer {
                    process: 2,
                    tag: 11
                },
                K::Crash { process: 3 },
                K::Drop { from: 2, to: 3 },
                K::Recover { process: 3 },
                K::Timer {
                    process: 3,
                    tag: 13
                },
                K::Join { process: 7 },
                K::Leave { process: 5 },
                K::Drop { from: 1, to: 5 },
                K::Deliver { from: 6, to: 4 },
            ]
        );
        assert_eq!(report.timers_cancelled, 1, "the epoch-0 timer of 3");
        assert_eq!(report.churn_drops, 1);
        let seen = |i: u32| sim.actor_as::<Recorder>(p(i)).unwrap().seen.clone();
        assert_eq!(seen(1), ["start@0", "Ping(1) from 0"]);
        assert_eq!(seen(2), ["start@0", "timer 11"]);
        assert_eq!(seen(3), ["start@0", "recover", "timer 13"]);
        assert_eq!(seen(4), ["start@0", "Ping(4) from 6"]);
        assert_eq!(seen(7), ["start@5"]);
        assert_eq!(seen(0), ["start@0", "joined 7"]);
        assert_eq!(seen(5), ["start@0"]);
        assert!(sim.has_departed(p(5)));
        assert_eq!(sim.pending_events(), 1, "the plan's own join is left");
    }

    /// Over a long run of re-armed timers (retransmission rounds and a
    /// slower protocol timer on every process) and a crash–recover plan,
    /// the control table is never longer than the most control events
    /// queued at once: fired slots are handed out again.
    #[test]
    fn the_control_table_reuses_its_slots() {
        struct Rearm;
        impl Actor<Msg> for Rearm {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(3, RETRANSMIT_TAG);
                ctx.set_timer(7, 1);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: ProcessId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
                ctx.broadcast_known(Msg::Ping(tag));
                let delay = if tag == RETRANSMIT_TAG { 3 } else { 7 };
                ctx.set_timer(delay, tag);
            }
            fn on_recover(&mut self, ctx: &mut Context<'_, Msg>, _: &dyn crate::Journal) {
                self.on_start(ctx);
            }
        }
        let kg = generators::fig1();
        let mut sim = Simulation::new(kg, NetworkConfig::synchronous(10, 2));
        for _ in 0..8 {
            sim.add_actor(Box::new(Rearm));
        }
        sim.set_fault_plan(FaultPlan {
            crashes: vec![CrashFault {
                process: ProcessId::new(4),
                at: 100,
                recover_at: Some(900),
            }],
            ..FaultPlan::default()
        });
        sim.start();
        let queued = |sim: &Simulation<Msg>| sim.control.slots.len() - sim.control.free.len();
        let mut peak = queued(&sim);
        while sim.now().ticks() < 3_000 && sim.step() {
            peak = peak.max(queued(&sim));
            assert!(
                sim.control.slots.len() <= peak,
                "{} slots, at most {peak} control events queued",
                sim.control.slots.len()
            );
        }
        assert!(sim.report().timers_fired > 4_000);
        assert!(sim.report().retransmit_delay_buckets[bucket_of(3)] > 2_000);
        assert_eq!(sim.report().timers_cancelled, 2, "the crashed host's two");
        assert_eq!(sim.report().recoveries, 1);
    }
}
