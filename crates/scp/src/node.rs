//! The SCP node: nomination plus the ballot protocol, as a simulator actor.
//!
//! Protocol outline (per node):
//!
//! 1. **Nomination** — vote `nominate(x)` for the own input; *echo* other
//!    processes' nominees (vote for them too) until a first candidate is
//!    confirmed. Confirmed nominees form the candidate set; the ballot
//!    value is the maximum candidate (any deterministic combine works).
//! 2. **Ballots** — for ballot `n` with value `v` (the locked value if any,
//!    else the current candidate): vote `prepare(n, v)`; once `prepare` is
//!    confirmed, lock `v` and vote `commit(n, v)`; once `commit` is
//!    confirmed, **externalize** `v`. A per-ballot timer bumps `n` when the
//!    ballot stalls (partial synchrony: after `GST` some ballot completes).
//!
//! Every envelope carries its *origin* and the origin's declared slices;
//! federated voting evaluates quorums against those attached slices
//! (Algorithm 1) and v-blocking sets against the node's own slices.
//!
//! ## Envelope gossip
//!
//! Knowledge connectivity is directed: a process `j` may be unable to
//! address `i` even though `i`'s quorums depend on `j`'s pledges. Like the
//! Stellar overlay, nodes therefore **flood** every new envelope to every
//! process they know. Envelopes are origin-attributed; as in stellar-core,
//! they are signed, so relays cannot forge pledges of correct processes —
//! the simulator models signature verification by trusting the `origin`
//! field of relayed envelopes (Byzantine processes may still equivocate
//! *their own* envelopes arbitrarily).
//!
//! Flooding alone is not enough on slim topologies: a process learned
//! *late* (its identity arriving by relay after the core already
//! externalized) would never see the envelopes that flowed before it was
//! known, and its externalization could stall forever — the scale-free
//! `m = 2` straggler found by the PR-1 campaign sweeps. Nodes therefore
//! (a) register the *origin* of every relayed envelope in their knowledge
//! set, and (b) keep the full envelope backlog, re-sending it once to
//! every newly learned process so latecomers can replay the ballot and
//! externalize state they missed.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;

use scup_fbqs::SliceFamily;
use scup_graph::{ProcessId, ProcessSet};
use scup_obs::causal::{ProvEntry, ProvRule, ProvenanceLog};
use scup_sim::{
    Actor, Backoff, Context, Journal, RetransmitConfig, SimMessage, StateHasher, RETRANSMIT_TAG,
};

use crate::statement::{Statement, Value};
use crate::voting::{QuorumCheck, VoteLevel, VoteTracker};

use crate::fingerprint::{hash_family, hash_statement};

/// The content of an SCP envelope: a federated-voting pledge by `origin`,
/// carrying the origin's declared slices. Immutable once built; every copy
/// of the envelope in flight or on file is an [`ScpMsg`] handle to it, and
/// the last copy dropped frees it.
#[derive(PartialEq, Eq)]
pub struct Envelope {
    /// The process whose pledge this is (signature-verified in real
    /// Stellar; trusted here — see module docs).
    pub origin: ProcessId,
    /// The origin's declared slice family (`S_i` attached to every
    /// message, Section III-D). Behind its own `Arc` because a node
    /// attaches one family to every envelope it originates.
    pub slices: Arc<SliceFamily>,
    /// The statement being pledged.
    pub stmt: Statement,
    /// `true` for an accept-level pledge, `false` for a vote.
    pub accept: bool,
    /// The abstract wire size, computed once at construction.
    size: usize,
}

/// An SCP envelope as relayed through the overlay: a shared handle to one
/// immutable [`Envelope`]. A flood relay, a broadcast, a fault-plane
/// duplicate and a backlog entry each copy the handle (one pointer and a
/// plain, non-atomic reference-count increment), never the envelope.
/// Fields read through `Deref` (`msg.origin`, `msg.stmt`); equality
/// compares content, so two separately built envelopes with equal fields
/// are equal.
///
/// The count is an [`Rc`]'s, so an `ScpMsg` is not `Send`. Nothing needs
/// it to be: an envelope lives and dies inside one simulation, a
/// simulation runs on one thread, and every explorer worker builds its
/// own simulator from the shared setup, so no envelope, node or queue
/// ever crosses a thread. An atomic count would cost a locked
/// read-modify-write on every send and every delivery for nothing.
#[derive(Clone, PartialEq, Eq)]
pub struct ScpMsg(Rc<Envelope>);

impl ScpMsg {
    /// Builds an envelope: `origin` pledges `stmt` at vote (`accept =
    /// false`) or accept level, attaching `slices`.
    pub fn new(origin: ProcessId, slices: Arc<SliceFamily>, stmt: Statement, accept: bool) -> Self {
        let slice_size = match slices.as_ref() {
            SliceFamily::Explicit(slices) => slices.iter().map(|s| 4 * s.len() + 2).sum::<usize>(),
            SliceFamily::AllSubsets { of, .. } => 4 * of.len() + 6,
        };
        ScpMsg(Rc::new(Envelope {
            origin,
            slices,
            stmt,
            accept,
            size: slice_size + 22,
        }))
    }
}

impl Deref for ScpMsg {
    type Target = Envelope;

    fn deref(&self) -> &Envelope {
        &self.0
    }
}

/// Renders the envelope's fields under the name `ScpMsg`: this string is
/// the payload of the event log, forensics, Perfetto traces and explorer
/// counterexample schedules.
impl fmt::Debug for ScpMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScpMsg")
            .field("origin", &self.origin)
            .field("slices", &self.slices)
            .field("stmt", &self.stmt)
            .field("accept", &self.accept)
            .finish()
    }
}

impl SimMessage for ScpMsg {
    fn size_hint(&self) -> usize {
        self.size
    }

    fn fingerprint(&self, h: &mut StateHasher) {
        h.write_id(self.origin);
        hash_family(h, &self.slices);
        hash_statement(h, &self.stmt);
        h.write_bool(self.accept);
    }

    /// Equivocation attribution (forensics only). SCP envelopes are
    /// flood-gossiped: relays retransmit other origins' pledges verbatim,
    /// including both halves of an origin's equivocation, so a slot claim
    /// is only booked when the transmitter *is* the origin. Nomination is
    /// excluded — a correct node legitimately votes for many candidate
    /// values — while ballot pledges (Prepare/Commit) claim one value per
    /// `(kind, accept, counter)` position.
    fn equivocation_key(&self, sender: ProcessId) -> Option<(u64, u64)> {
        if sender != self.origin {
            return None;
        }
        let accept_bit = (self.accept as u64) << 61;
        match self.stmt {
            Statement::Nominate(_) => None,
            Statement::Prepare(n, v) => Some(((1 << 62) | accept_bit | n, v)),
            Statement::Commit(n, v) => Some(((2 << 62) | accept_bit | n, v)),
        }
    }
}

/// Configuration of an SCP node.
#[derive(Debug, Clone)]
pub struct ScpConfig {
    /// The node's quorum slices.
    pub slices: SliceFamily,
    /// The node's input value.
    pub input: Value,
    /// Base ballot timeout in ticks (grows linearly with the counter).
    pub ballot_timeout: u64,
    /// Fallback: if no candidate is confirmed by this many ticks, the own
    /// input is promoted to candidate so ballots can start.
    pub nomination_timeout: u64,
    /// Pledge-rebroadcast schedule for lossy networks (disabled by
    /// default, so fault-free runs keep their exact historical message
    /// counts and timer schedules). Must stay disabled under exploration:
    /// the backoff state is deliberately excluded from the fingerprint.
    pub retransmit: RetransmitConfig,
}

impl ScpConfig {
    /// A configuration with the given slices and input, and timeouts suited
    /// to a `Δ = 10` network.
    pub fn new(slices: SliceFamily, input: Value) -> Self {
        ScpConfig {
            slices,
            input,
            ballot_timeout: 200,
            nomination_timeout: 400,
            retransmit: RetransmitConfig::disabled(),
        }
    }
}

const NOMINATION_TIMER: u64 = 2;

// Durable journal record tags (see [`scup_sim::Journal`]). Word layouts:
// J_PLEDGE = [kind, counter, value, accept] with kind 0 = Nominate,
// 1 = Prepare, 2 = Commit; the others carry a single word.
const J_PLEDGE: u64 = 1;
const J_LOCK: u64 = 2;
const J_BALLOT: u64 = 3;
const J_EXTERNALIZE: u64 = 4;
const J_CANDIDATE: u64 = 5;

fn encode_stmt(stmt: Statement) -> (u64, u64, u64) {
    match stmt {
        Statement::Nominate(v) => (0, 0, v),
        Statement::Prepare(n, v) => (1, n, v),
        Statement::Commit(n, v) => (2, n, v),
    }
}

fn decode_stmt(kind: u64, n: u64, v: u64) -> Option<Statement> {
    match kind {
        0 => Some(Statement::Nominate(v)),
        1 => Some(Statement::Prepare(n, v)),
        2 => Some(Statement::Commit(n, v)),
        _ => None,
    }
}

/// Scans a process's durable journal for pledge contradictions — the
/// safety property crash–recovery must preserve: a recovered node may
/// re-announce its pre-crash pledges but must never vote a *different*
/// value for the same ballot statement, accept a statement contradicting
/// one it accepted (the accept ratchet, [`Statement::contradicts`]), nor
/// externalize two values.
///
/// Nomination votes are not scanned: they legitimately range over many
/// values.
pub fn journal_contradictions(journal: &dyn Journal) -> Vec<String> {
    let mut votes: std::collections::BTreeMap<(u64, u64), u64> = std::collections::BTreeMap::new();
    let mut accepts = std::collections::BTreeSet::new();
    let mut externalized: Option<u64> = None;
    let mut out = Vec::new();
    for rec in journal.records() {
        match rec.tag {
            J_PLEDGE => {
                let [kind, n, v, accept] = rec.words[..] else {
                    continue;
                };
                let Some(stmt) = decode_stmt(kind, n, v) else {
                    continue;
                };
                if accept != 0 {
                    for prev in accepts.iter().filter(|prev| stmt.contradicts(prev)) {
                        out.push(format!("contradictory accepts: {prev} then {stmt}"));
                    }
                    accepts.insert(stmt);
                } else if let Some(prev) = stmt.counter().and_then(|_| votes.insert((kind, n), v)) {
                    if prev != v {
                        let what = if kind == 1 { "prepare" } else { "commit" };
                        out.push(format!(
                            "contradictory {what} votes for ballot {n}: {prev} then {v}"
                        ));
                    }
                }
            }
            J_EXTERNALIZE => {
                let [v] = rec.words[..] else { continue };
                if let Some(prev) = externalized {
                    if prev != v {
                        out.push(format!("externalized {prev} then {v}"));
                    }
                }
                externalized = Some(v);
            }
            _ => {}
        }
    }
    out
}

/// Per-node observational counters: message traffic by kind and ballot
/// protocol phase transitions.
///
/// Deliberately **not** part of the state fingerprint: two states that
/// differ only in how much effort it took to reach them are the same
/// state to the model checker (counters are path-dependent under
/// visited-state pruning), and the timed simulator reads them only after
/// a run. They ride along through [`Actor::fork`] like any other field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Envelopes delivered to this node (before dedup).
    pub envelopes_delivered: u64,
    /// Delivered envelopes dropped as duplicates (or own echoes).
    pub envelopes_duplicate: u64,
    /// Vote-level pledges this node originated.
    pub votes_sent: u64,
    /// Accept-level pledges this node originated.
    pub accepts_sent: u64,
    /// Envelopes re-sent to late-learned processes (straggler repair).
    pub catchup_envelopes: u64,
    /// Ballots entered (counter bumps included).
    pub ballots_started: u64,
    /// Nomination statements confirmed.
    pub nominations_confirmed: u64,
    /// Prepare statements confirmed (value locks).
    pub prepares_confirmed: u64,
    /// Commit statements confirmed (externalizations trigger here).
    pub commits_confirmed: u64,
    /// Envelopes re-flooded by retransmission rounds (pledge rebroadcast
    /// under a fault plan; always 0 with retransmission disabled).
    pub retransmissions: u64,
}

/// A correct SCP node.
#[derive(Clone)]
pub struct ScpNode {
    /// Immutable after construction; behind an `Arc` so exploration forks
    /// share it instead of deep-copying the slice family per visited state.
    config: Arc<ScpConfig>,
    /// The own slice family as shared by every outgoing envelope.
    shared_slices: Arc<SliceFamily>,
    /// The pledge table: federated voting's state, and — an envelope is
    /// processed and relayed once — the envelope dedup set.
    tracker: VoteTracker,
    check: QuorumCheck,
    /// Every distinct envelope, kept for late-learned processes (see the
    /// module docs on straggler repair). Copy-on-write like the tables: a
    /// fork shares it, and the first append after a fork copies it (a
    /// `Vec` of 8-byte envelope handles). The explorer's step memo replays
    /// nearly every repeated step, so that append is rare.
    backlog: Arc<Vec<ScpMsg>>,
    /// Processes already brought up to date with the backlog.
    synced: ProcessSet,
    /// Confirmed nominees.
    candidates: Vec<Value>,
    /// Highest ballot counter entered.
    ballot: u64,
    /// Value locked by a confirmed prepare.
    lock: Option<Value>,
    externalized: Option<Value>,
    /// Observational counters; excluded from both fingerprints.
    stats: NodeStats,
    /// Retransmission schedule state. Excluded from fingerprints:
    /// retransmission is a timed-simulation facility and must be disabled
    /// under exploration (see [`ScpConfig::retransmit`]).
    backoff: Backoff,
    /// Decision provenance (disabled by default; see
    /// [`ScpNode::enable_provenance`]). Pure observability: excluded from
    /// both fingerprints and preserved across crash recovery — the
    /// observer's notebook survives the process's amnesia.
    prov: ProvenanceLog,
}

impl ScpNode {
    /// Creates a node.
    pub fn new(config: ScpConfig) -> Self {
        Self::from_shared(Arc::new(config))
    }

    fn from_shared(config: Arc<ScpConfig>) -> Self {
        let shared_slices = Arc::new(config.slices.clone());
        ScpNode {
            config,
            shared_slices,
            tracker: VoteTracker::new(),
            check: QuorumCheck::new(),
            backlog: Default::default(),
            synced: ProcessSet::new(),
            candidates: Vec::new(),
            ballot: 0,
            lock: None,
            externalized: None,
            stats: NodeStats::default(),
            backoff: Backoff::new(),
            prov: ProvenanceLog::disabled(),
        }
    }

    /// The externalized (decided) value, once consensus is reached.
    pub fn externalized(&self) -> Option<Value> {
        self.externalized
    }

    /// The current ballot counter (diagnostic).
    pub fn ballot_counter(&self) -> u64 {
        self.ballot
    }

    /// The confirmed candidate values (diagnostic).
    pub fn candidates(&self) -> &[Value] {
        &self.candidates
    }

    /// Message and ballot-phase counters (diagnostic; see [`NodeStats`]).
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Turns decision-provenance recording on: every vote, accept,
    /// confirm, candidate adoption, lock, externalization, and journal
    /// replay from now on logs a [`ProvEntry`] naming the rule that fired
    /// and the justifying process set. Off the bit-identity surface: the
    /// log is never fingerprinted and recording changes no protocol
    /// behaviour.
    pub fn enable_provenance(&mut self) {
        self.prov.enable();
    }

    /// The decision-provenance log (empty unless
    /// [`ScpNode::enable_provenance`] was called before the run).
    pub fn provenance(&self) -> &ProvenanceLog {
        &self.prov
    }

    /// Logs a non-vote provenance entry; `entry` builds the
    /// `(statement, premises)` pair only when the log is enabled.
    fn prov_note(
        &mut self,
        me: ProcessId,
        rule: ProvRule,
        entry: impl FnOnce() -> (String, Vec<(u32, String)>),
    ) {
        if self.prov.is_enabled() {
            let (statement, premises) = entry();
            self.prov.push(ProvEntry {
                process: me.as_u32(),
                rule,
                statement,
                premises,
                support: Vec::new(),
                support_label: None,
            });
        }
    }

    fn broadcast_own(&mut self, ctx: &mut Context<'_, ScpMsg>, stmt: Statement, accept: bool) {
        let msg = ScpMsg::new(ctx.self_id(), Arc::clone(&self.shared_slices), stmt, accept);
        // Write-ahead: the pledge hits the durable journal before the
        // network, so a crash can never lose a pledge peers already saw.
        if let Some(j) = ctx.journal() {
            let (kind, n, v) = encode_stmt(stmt);
            j.append(J_PLEDGE, &[kind, n, v, accept as u64]);
        }
        if accept {
            self.stats.accepts_sent += 1;
        } else {
            self.stats.votes_sent += 1;
        }
        Arc::make_mut(&mut self.backlog).push(msg.clone());
        ctx.broadcast_known(msg);
    }

    /// Straggler repair: sends the whole envelope backlog to processes we
    /// learned after those envelopes flowed. Newly learned processes join
    /// the regular flood from now on, so one catch-up each suffices.
    fn sync_latecomers(&mut self, ctx: &mut Context<'_, ScpMsg>) {
        let me = ctx.self_id();
        if ctx.known().difference_len(&self.synced) == 0 {
            return;
        }
        let newcomers: Vec<ProcessId> = ctx
            .known()
            .iter()
            .filter(|&j| j != me && !self.synced.contains(j))
            .collect();
        for j in newcomers {
            for msg in self.backlog.iter() {
                ctx.send(j, msg.clone());
                self.stats.catchup_envelopes += 1;
            }
            self.synced.insert(j);
        }
    }

    /// Registers and broadcasts an own vote; `premises` names the earlier
    /// provenance entries that triggered it (built lazily — only when the
    /// vote is new *and* provenance is enabled).
    fn vote_because(
        &mut self,
        ctx: &mut Context<'_, ScpMsg>,
        stmt: Statement,
        premises: impl FnOnce() -> Vec<(u32, String)>,
    ) {
        if self.tracker.vote(ctx.self_id(), stmt) {
            if self.prov.is_enabled() {
                self.prov.push(ProvEntry {
                    process: ctx.self_id().as_u32(),
                    rule: ProvRule::Vote,
                    statement: format!("{stmt:?}"),
                    premises: premises(),
                    support: Vec::new(),
                    support_label: None,
                });
            }
            self.broadcast_own(ctx, stmt, false);
        }
    }

    /// The ballot value for the next ballot: the lock wins, else the best
    /// candidate, else the own input.
    fn ballot_value(&self) -> Value {
        self.lock
            .or_else(|| self.candidates.iter().max().copied())
            .unwrap_or(self.config.input)
    }

    fn start_ballot(&mut self, ctx: &mut Context<'_, ScpMsg>, n: u64) {
        if self.externalized.is_some() {
            return;
        }
        self.ballot = n;
        self.stats.ballots_started += 1;
        if let Some(j) = ctx.journal() {
            j.append(J_BALLOT, &[n]);
        }
        let v = self.ballot_value();
        let me = ctx.self_id().as_u32();
        let locked = self.lock.is_some();
        let from_candidate = !self.candidates.is_empty();
        self.vote_because(ctx, Statement::Prepare(n, v), || {
            // Where the ballot value came from: the lock wins, else the
            // best candidate, else the own input (see `ballot_value`).
            let source = if locked {
                format!("lock {v}")
            } else if from_candidate {
                format!("candidate {v}")
            } else {
                format!("propose {:?}", Statement::Nominate(v))
            };
            vec![(me, source)]
        });
        ctx.set_timer(self.config.ballot_timeout * (n + 1), n << 8);
        self.reevaluate(ctx);
    }

    /// Runs the protocol from the state on hand, fresh in `on_start` or
    /// rebuilt from the journal in `on_recover`: processes known now get
    /// every envelope by the regular flood (only later ones need a
    /// catch-up), the current phase's clock starts, and the rules run.
    fn start(&mut self, ctx: &mut Context<'_, ScpMsg>) {
        let me = ctx.self_id();
        self.synced.clone_from(ctx.known());
        self.synced.insert(me);
        let nominate = Statement::Nominate(self.config.input);
        match (self.externalized, self.ballot) {
            (Some(_), _) => {}
            (None, 0) => {
                self.vote_because(ctx, nominate, || {
                    vec![(me.as_u32(), format!("propose {nominate:?}"))]
                });
                ctx.set_timer(self.config.nomination_timeout, NOMINATION_TIMER);
            }
            (None, n) => ctx.set_timer(self.config.ballot_timeout * (n + 1), n << 8),
        }
        self.arm_retransmit(ctx);
        self.reevaluate(ctx);
    }

    /// Arms the next retransmission round, if the schedule has rounds
    /// left. No-op with retransmission disabled (the default).
    fn arm_retransmit(&mut self, ctx: &mut Context<'_, ScpMsg>) {
        if let Some(delay) = self.backoff.next_delay(&self.config.retransmit, ctx.rng()) {
            ctx.set_timer(delay, RETRANSMIT_TAG);
        }
    }

    /// One pledge-rebroadcast round: re-floods the entire envelope
    /// backlog to every known process. Ack-free — receivers absorb
    /// duplicates through their pledge tables — and sound against loss
    /// because the backlog holds every distinct envelope this node ever
    /// saw, own and relayed alike.
    fn retransmit_round(&mut self, ctx: &mut Context<'_, ScpMsg>) {
        for msg in self.backlog.iter() {
            ctx.broadcast_known(msg.clone());
        }
        self.stats.retransmissions += self.backlog.len() as u64;
        self.arm_retransmit(ctx);
    }

    /// Runs the federated-voting rules and reacts to newly accepted /
    /// confirmed statements.
    fn reevaluate(&mut self, ctx: &mut Context<'_, ScpMsg>) {
        loop {
            let changes = self.tracker.update_observed(
                ctx.self_id(),
                &self.config.slices,
                &mut self.check,
                &mut self.prov,
            );
            if changes.is_empty() {
                return;
            }
            let me = ctx.self_id();
            for (stmt, level) in changes {
                if level == VoteLevel::Accepted {
                    self.broadcast_own(ctx, stmt, true);
                }
                if level != VoteLevel::Confirmed {
                    continue;
                }
                match stmt {
                    Statement::Nominate(v) => {
                        self.stats.nominations_confirmed += 1;
                        if !self.candidates.contains(&v) {
                            self.candidates.push(v);
                            if let Some(j) = ctx.journal() {
                                j.append(J_CANDIDATE, &[v]);
                            }
                            self.prov_note(me, ProvRule::Candidate, || {
                                (
                                    format!("{v}"),
                                    vec![(me.as_u32(), format!("confirm {stmt:?}"))],
                                )
                            });
                        }
                        // First candidate: enter ballot 1.
                        if self.ballot == 0 {
                            self.start_ballot(ctx, 1);
                        }
                    }
                    Statement::Prepare(n, v) => {
                        self.stats.prepares_confirmed += 1;
                        // Lock the value and push for commit — unless the
                        // commit would contradict an accept we already
                        // pledged (a commit vote we could never stand
                        // behind helps no quorum and muddies the tally).
                        self.lock = Some(v);
                        if let Some(j) = ctx.journal() {
                            j.append(J_LOCK, &[v]);
                        }
                        self.prov_note(me, ProvRule::Lock, || {
                            (
                                format!("{v}"),
                                vec![(me.as_u32(), format!("confirm {stmt:?}"))],
                            )
                        });
                        let commit = Statement::Commit(n, v);
                        if !self.tracker.accept_would_contradict(me, commit) {
                            self.vote_because(ctx, commit, || {
                                vec![(me.as_u32(), format!("lock {v}"))]
                            });
                        }
                    }
                    Statement::Commit(_, v) => {
                        self.stats.commits_confirmed += 1;
                        if self.externalized.is_none() {
                            self.externalized = Some(v);
                            if let Some(j) = ctx.journal() {
                                j.append(J_EXTERNALIZE, &[v]);
                            }
                            self.prov_note(me, ProvRule::Externalize, || {
                                (
                                    format!("{v}"),
                                    vec![(me.as_u32(), format!("confirm {stmt:?}"))],
                                )
                            });
                        }
                    }
                }
            }
        }
    }
}

impl Actor<ScpMsg> for ScpNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ScpMsg>) {
        let input = self.config.input;
        // The provenance DAG root: the input value entering the protocol.
        self.prov_note(ctx.self_id(), ProvRule::Proposal, || {
            (format!("{:?}", Statement::Nominate(input)), Vec::new())
        });
        self.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ScpMsg>, _from: ProcessId, msg: ScpMsg) {
        // Envelopes are origin-attributed: a relay teaches us the origin's
        // identity, and any newly learned process (origin *or* sender —
        // even of an echo of our own envelopes) gets the backlog it
        // missed (straggler repair — see module docs). This must run
        // before the own-origin early return below.
        ctx.learn(msg.origin);
        self.sync_latecomers(ctx);
        self.stats.envelopes_delivered += 1;
        // Flood-style gossip with dedup; `origin` is signature-verified.
        if msg.origin == ctx.self_id() || self.tracker.has_pledge(msg.origin, &msg.stmt, msg.accept)
        {
            self.stats.envelopes_duplicate += 1;
            return;
        }
        // A changed slice claim invalidates every statement's quorum
        // evaluation; an unchanged one (the common case — correct origins
        // always attach the same family) keeps the incremental worklist
        // small.
        if self.check.record_slices(msg.origin, &msg.slices) {
            self.tracker.invalidate_all();
        }
        self.tracker.record(msg.origin, msg.stmt, msg.accept);
        // Nomination echo: before any ballot starts, adopt others'
        // nominees so a quorum of votes can form.
        if self.ballot == 0 && msg.stmt.is_nomination() && self.externalized.is_none() {
            let origin = msg.origin.as_u32();
            let (stmt, accept) = (msg.stmt, msg.accept);
            self.vote_because(ctx, stmt, || {
                let verb = if accept { "accept" } else { "vote" };
                vec![(origin, format!("{verb} {stmt:?}"))]
            });
        }
        ctx.broadcast_known(msg.clone());
        Arc::make_mut(&mut self.backlog).push(msg);
        self.reevaluate(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ScpMsg>, tag: u64) {
        // Retransmission outlives externalization: peers that lost our
        // commit-accept envelopes still need them to externalize.
        if tag == RETRANSMIT_TAG {
            self.retransmit_round(ctx);
            return;
        }
        if self.externalized.is_some() {
            return;
        }
        if tag == NOMINATION_TIMER {
            // No candidate confirmed in time: fall back to the own input so
            // ballots can start.
            if self.ballot == 0 {
                let input = self.config.input;
                let me = ctx.self_id();
                self.candidates.push(input);
                self.prov_note(me, ProvRule::Candidate, || {
                    (
                        format!("{input}"),
                        vec![(
                            me.as_u32(),
                            format!("propose {:?}", Statement::Nominate(input)),
                        )],
                    )
                });
                self.start_ballot(ctx, 1);
            }
            return;
        }
        let timer_ballot = tag >> 8;
        if timer_ballot == self.ballot {
            // The ballot stalled: bump the counter and retry with the
            // (possibly locked) value.
            let next = self.ballot + 1;
            self.start_ballot(ctx, next);
        }
    }

    /// Membership churn: a joiner gets the full envelope backlog so it can
    /// re-derive accepts/confirms from the same evidence everyone else
    /// saw. `synced.remove` first — the joiner may already be in `known`
    /// (its id was in our static participant detector while it lay
    /// dormant, so `on_start` pre-marked it synced even though every
    /// pre-join envelope to it was dropped).
    fn on_peer_joined(&mut self, ctx: &mut Context<'_, ScpMsg>, peer: ProcessId) {
        ctx.learn(peer);
        self.synced.remove(peer);
        self.sync_latecomers(ctx);
    }

    /// Crash recovery: volatile state is gone; rebuild from the config
    /// plus the durable journal, then re-announce.
    ///
    /// The journal holds exactly the node's own pledges (write-ahead in
    /// `broadcast_own`), its lock, ballot counter, candidates and
    /// externalization. Rehydrating those — the pledges filed in the
    /// pledge table exactly as they were, so they are the node's own votes
    /// and accepts again — guarantees the recovered node never votes a
    /// conflicting value for a ballot it pledged before the crash, nor
    /// accepts against an accept (checked by [`journal_contradictions`]).
    /// Peers' envelopes were volatile and are *not* reconstructed here:
    /// they flow back in through the peers' own retransmission rounds and
    /// the flood relay, after which `reevaluate` re-derives
    /// accepts/confirms from evidence as usual.
    fn on_recover(&mut self, ctx: &mut Context<'_, ScpMsg>, journal: &dyn Journal) {
        let config = Arc::clone(&self.config);
        let stats = self.stats;
        // The provenance log is the observer's, not the process's: it
        // survives the crash so forensic chains can span the recovery.
        let prov = std::mem::take(&mut self.prov);
        // A fresh node, so its retransmission schedule restarts from the
        // short intervals.
        *self = ScpNode::from_shared(config);
        self.stats = stats;
        self.prov = prov;
        let me = ctx.self_id();
        for rec in journal.records() {
            match rec.tag {
                J_PLEDGE => {
                    let [kind, n, v, accept] = rec.words[..] else {
                        continue;
                    };
                    let Some(stmt) = decode_stmt(kind, n, v) else {
                        continue;
                    };
                    let accept = accept != 0;
                    self.prov_note(me, ProvRule::Replay, || (format!("{stmt:?}"), Vec::new()));
                    self.tracker.record(me, stmt, accept);
                    let msg = ScpMsg::new(me, Arc::clone(&self.shared_slices), stmt, accept);
                    Arc::make_mut(&mut self.backlog).push(msg);
                }
                J_LOCK => {
                    if let [v] = rec.words[..] {
                        self.lock = Some(v);
                    }
                }
                J_BALLOT => {
                    if let [n] = rec.words[..] {
                        self.ballot = self.ballot.max(n);
                    }
                }
                J_EXTERNALIZE => {
                    if let [v] = rec.words[..] {
                        self.externalized = Some(v);
                    }
                }
                J_CANDIDATE => {
                    if let [v] = rec.words[..] {
                        if !self.candidates.contains(&v) {
                            self.candidates.push(v);
                        }
                    }
                }
                _ => {}
            }
        }
        // Re-announce every rehydrated pledge (peers dedup them).
        for msg in self.backlog.iter() {
            ctx.broadcast_known(msg.clone());
        }
        // Knowledge survives in the simulator (it models the address
        // book, not process memory), so peers already got our backlog.
        self.start(ctx);
    }

    fn fork(&self) -> Option<Box<dyn Actor<ScpMsg>>> {
        Some(Box::new(self.clone()))
    }

    /// What is hashed of `tracker` and `check` is the pledge sets and the
    /// slice registry: levels are their deterministic monotone fixpoint,
    /// and the backlog holds exactly the envelopes of the pledges on file
    /// (its order only permutes future catch-up sends, which the explorer
    /// treats as a multiset anyway). Both contribute through XOR multiset
    /// digests (see `fingerprint.rs`): without a renaming the
    /// incrementally maintained ones, so hashing a node is O(1) in its
    /// history; under one, recomputed by renaming each entry and
    /// XOR-folding — no re-sorting pass, since XOR is order-independent.
    ///
    /// The retransmission backoff round is not hashed either, so the
    /// schedule must be disabled under exploration (debug-asserted).
    fn fingerprint(&self, h: &mut StateHasher) {
        debug_assert!(
            !self.config.retransmit.enabled(),
            "this fingerprint skips the retransmission backoff round; \
             fingerprint it before exploration may enable retransmission"
        );
        let (tracker, check) = (&self.tracker, &self.check);
        let renaming = h.renaming();
        h.write_u64(self.config.input);
        h.write_u64(tracker.len() as u64);
        h.write_u128(renaming.map_or(tracker.digest(), |p| tracker.digest_perm(p)));
        h.write_u64(check.recorded_len() as u64);
        h.write_u128(renaming.map_or(check.registry_digest(), |p| check.registry_digest_perm(p)));
        h.write_set(&self.synced);
        let mut candidates = self.candidates.clone();
        candidates.sort_unstable();
        h.write_u64(candidates.len() as u64);
        for v in candidates {
            h.write_u64(v);
        }
        h.write_u64(self.ballot);
        h.write_bool(self.lock.is_some());
        h.write_u64(self.lock.unwrap_or(0));
        h.write_bool(self.externalized.is_some());
        h.write_u64(self.externalized.unwrap_or(0));
    }

    /// A delivery is a no-op iff the envelope's pledge is on file (this
    /// covers echoes of our own envelopes: own pledges enter the table
    /// before they are broadcast) and neither the knowledge set nor the
    /// latecomer-sync state can change. All three conditions are monotone
    /// — once absorbed, absorbed in every extension.
    fn absorbs(
        &self,
        self_id: ProcessId,
        known: &ProcessSet,
        _from: ProcessId,
        msg: &ScpMsg,
    ) -> bool {
        (msg.origin == self_id || known.contains(msg.origin))
            && known.difference_len(&self.synced) == 0
            && self.tracker.has_pledge(msg.origin, &msg.stmt, msg.accept)
    }

    /// A delivery is *threshold-inert* (commutes with every sibling
    /// delivery to this node, in both orders, with identical emissions —
    /// the independence hook behind the persistent-set reduction) when
    /// the statement's tally entry it would extend can no longer be read
    /// by any threshold rule:
    ///
    /// - a **vote** for a statement already **accepted** here: the accept
    ///   rule is done with the statement and confirm reads only the
    ///   accepted set — recording the vote can never tip a threshold;
    /// - any pledge for a statement already **confirmed** here: both
    ///   accept and confirm are crossed, the level is final, and neither
    ///   tally set is consulted again;
    /// - an **accept**-level `Commit` pledge once this node has
    ///   **externalized**: the only rule that reads the Commit accepted
    ///   tally is confirm-commit, whose sole effect is externalization —
    ///   write-once and already written. Recording the accept can tip
    ///   that threshold, but tipping it is a no-op (`externalize()`
    ///   keeps the first value), so the tally is dead even though its
    ///   level may still formally rise;
    ///
    /// in both cases additionally requiring that the origin's identity
    /// and slice claim are already on file:
    ///
    /// - the slice registry is unchanged (claim equal to the recorded
    ///   one), so no other statement's quorum evaluation shifts;
    /// - the origin is known and latecomer sync is complete, so no
    ///   knowledge or catch-up side effects fire;
    /// - the nomination echo is subsumed: level ≥ accepted ⇒ ≥ voted, so
    ///   the echo's `vote()` is a no-op;
    /// - what remains is dedup/backlog bookkeeping (commutative set
    ///   inserts) plus the relay broadcast, whose emissions do not depend
    ///   on which same-recipient sibling fired first.
    ///
    /// Every condition is monotone (levels only rise, knowledge only
    /// grows, correct origins never change their claim — the checker
    /// additionally restricts the hook to correct origins), so inertness
    /// persists along every extension, as both reductions require.
    fn threshold_inert(
        &self,
        self_id: ProcessId,
        known: &ProcessSet,
        _from: ProcessId,
        msg: &ScpMsg,
    ) -> bool {
        if msg.origin == self_id
            || !known.contains(msg.origin)
            || known.difference_len(&self.synced) != 0
        {
            return false;
        }
        // A vote echo is dead once the statement is accepted; an accept
        // pledge is dead only at confirmed — except a commit accept after
        // externalization, whose confirm quorum can no longer matter.
        let level = self.tracker.level(self_id, msg.stmt);
        let tally_dead = level == VoteLevel::Confirmed
            || (level >= VoteLevel::Accepted
                && (!msg.accept
                    || (matches!(msg.stmt, Statement::Commit(..)) && self.externalized.is_some())));
        tally_dead && self.check.slices_of(msg.origin) == Some(&*msg.slices)
    }
}

/// Ballot counters above this are ignored by the equivocator (bounded
/// noise keeps runs — and explored state spaces — finite).
const EQUIVOCATION_NOISE_CAP: u64 = 4;

/// A Byzantine SCP node that equivocates: it sends conflicting nomination
/// votes and conflicting ballot pledges to different peers, each carrying
/// forged slices claiming whatever quorum suits the lie.
#[derive(Clone)]
pub struct EquivocatingScpNode {
    /// The two values it plays against each other.
    pub values: (Value, Value),
    /// The slice family it attaches (typically a forged, tiny one);
    /// shared by every outgoing envelope.
    pub fake_slices: Arc<SliceFamily>,
    /// Rotation of the victim split: peer `idx` gets the first value when
    /// `(idx + split)` is even. The bounded model checker enumerates
    /// splits as adversary choice points; sampled runs keep the default 0.
    split: usize,
}

impl EquivocatingScpNode {
    /// Creates the adversary.
    pub fn new(values: (Value, Value), fake_slices: SliceFamily) -> Self {
        EquivocatingScpNode {
            values,
            fake_slices: Arc::new(fake_slices),
            split: 0,
        }
    }

    /// Rotates which peers receive which of the two conflicting values.
    pub fn with_split(mut self, split: usize) -> Self {
        self.split = split;
        self
    }

    /// One round: both halves are built once, and each peer gets a handle
    /// to one of them.
    fn equivocate(&self, ctx: &mut Context<'_, ScpMsg>, stmts: (Statement, Statement)) {
        let known = ctx.known().clone();
        let me = ctx.self_id();
        let halves = [stmts.0, stmts.1]
            .map(|stmt| ScpMsg::new(me, Arc::clone(&self.fake_slices), stmt, true));
        for (idx, j) in known.iter().enumerate() {
            if j == me {
                continue;
            }
            ctx.send(j, halves[(idx + self.split) % 2].clone());
        }
    }
}

impl Actor<ScpMsg> for EquivocatingScpNode {
    fn on_start(&mut self, ctx: &mut Context<'_, ScpMsg>) {
        let (a, b) = self.values;
        self.equivocate(ctx, (Statement::Nominate(a), Statement::Nominate(b)));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ScpMsg>, _from: ProcessId, msg: ScpMsg) {
        // Mirror ballot statements with conflicting values, once per
        // incoming counter (bounded noise).
        let (a, b) = self.values;
        if let Some(n) = msg.stmt.counter() {
            if n > EQUIVOCATION_NOISE_CAP {
                return; // keep the run finite
            }
            match msg.stmt {
                Statement::Prepare(..) => {
                    self.equivocate(ctx, (Statement::Prepare(n, a), Statement::Prepare(n, b)));
                }
                Statement::Commit(..) => {
                    self.equivocate(ctx, (Statement::Commit(n, a), Statement::Commit(n, b)));
                }
                Statement::Nominate(_) => {}
            }
        }
    }

    fn fork(&self) -> Option<Box<dyn Actor<ScpMsg>>> {
        Some(Box::new(self.clone()))
    }

    /// Stateless between events, but behaviourally parameterized: the
    /// configuration (values, forged slices) must distinguish differently
    /// configured adversaries in the state hash. The victim `split` is
    /// deliberately **not** fingerprinted: it equals the explorer's
    /// adversary variant, which the engine mixes into every state hash
    /// itself — leaving it out is what lets the symmetry quotient
    /// identify `(state, split)` with `(π(state), split + shift)` (see
    /// `scup-mc`'s victim-split quotient).
    fn fingerprint(&self, h: &mut StateHasher) {
        h.write_u64(self.values.0);
        h.write_u64(self.values.1);
        hash_family(h, &self.fake_slices);
    }

    /// Nomination envelopes and out-of-cap ballot counters draw no
    /// response; the adversary is stateless, so such deliveries stay
    /// no-ops forever.
    fn absorbs(
        &self,
        _self_id: ProcessId,
        _known: &ProcessSet,
        _from: ProcessId,
        msg: &ScpMsg,
    ) -> bool {
        match msg.stmt.counter() {
            None => true,
            Some(n) => n > EQUIVOCATION_NOISE_CAP,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scup_fbqs::paper;
    use scup_graph::generators;
    use scup_graph::ProcessSet;
    use scup_sim::adversary::SilentActor;
    use scup_sim::{NetworkConfig, Simulation};

    /// Builds the Fig. 1 setting: paper slices, process 8 Byzantine.
    fn fig1_sim(seed: u64, byzantine: Box<dyn Actor<ScpMsg>>) -> Simulation<ScpMsg> {
        let kg = generators::fig1();
        let sys = paper::fig1_system();
        let mut sim = Simulation::new(kg, NetworkConfig::partially_synchronous(150, 10, seed));
        for i in 0..7u32 {
            let i = ProcessId::new(i);
            let config = ScpConfig::new(sys.slices(i).clone(), 10 + i.as_u32() as u64);
            sim.add_actor(Box::new(ScpNode::new(config)));
        }
        sim.add_actor(byzantine);
        sim
    }

    fn assert_scp_consensus(sim: &Simulation<ScpMsg>, correct: &[u32]) -> Value {
        let mut decided = None;
        for &i in correct {
            let node = sim.actor_as::<ScpNode>(ProcessId::new(i)).unwrap();
            let v = node.externalized().unwrap_or_else(|| {
                panic!(
                    "node {i} did not externalize (ballot {}, candidates {:?})",
                    node.ballot_counter(),
                    node.candidates()
                )
            });
            match decided {
                None => decided = Some(v),
                Some(prev) => assert_eq!(prev, v, "agreement violated at node {i}"),
            }
        }
        decided.unwrap()
    }

    fn run_to_decision(sim: &mut Simulation<ScpMsg>, correct: &[u32]) {
        let ids: Vec<ProcessId> = correct.iter().map(|&i| ProcessId::new(i)).collect();
        sim.run_while(
            |s| {
                !ids.iter().all(|&i| {
                    s.actor_as::<ScpNode>(i)
                        .is_some_and(|n| n.externalized().is_some())
                })
            },
            3_000_000,
        );
    }

    #[test]
    fn fig1_scp_reaches_consensus_with_silent_byzantine() {
        let correct = [0u32, 1, 2, 3, 4, 5, 6];
        for seed in 0..4 {
            let mut sim = fig1_sim(seed, Box::new(SilentActor::new()));
            run_to_decision(&mut sim, &correct);
            let v = assert_scp_consensus(&sim, &correct);
            assert!((10..17).contains(&v), "validity: {v} must be an input");
        }
    }

    #[test]
    fn node_stats_count_traffic_and_ballot_phases() {
        let correct = [0u32, 1, 2, 3, 4, 5, 6];
        let mut sim = fig1_sim(0, Box::new(SilentActor::new()));
        run_to_decision(&mut sim, &correct);
        assert_scp_consensus(&sim, &correct);
        for &i in &correct {
            let s = *sim.actor_as::<ScpNode>(ProcessId::new(i)).unwrap().stats();
            assert!(s.envelopes_delivered > 0, "node {i}: {s:?}");
            // Flood gossip guarantees every node sees duplicates.
            assert!(s.envelopes_duplicate > 0, "node {i}: {s:?}");
            assert!(s.envelopes_duplicate <= s.envelopes_delivered);
            assert!(s.votes_sent > 0 && s.accepts_sent > 0, "node {i}: {s:?}");
            // Externalization implies the full phase ladder fired.
            assert!(s.ballots_started >= 1, "node {i}: {s:?}");
            assert!(s.nominations_confirmed >= 1, "node {i}: {s:?}");
            assert!(s.prepares_confirmed >= 1, "node {i}: {s:?}");
            assert!(s.commits_confirmed >= 1, "node {i}: {s:?}");
        }
    }

    #[test]
    fn fig1_scp_safe_under_equivocation() {
        let correct = [0u32, 1, 2, 3, 4, 5, 6];
        for seed in 0..4 {
            let adversary = EquivocatingScpNode::new(
                (666, 777),
                SliceFamily::explicit([ProcessSet::from_ids([7])]),
            );
            let mut sim = fig1_sim(seed, Box::new(adversary));
            run_to_decision(&mut sim, &correct);
            // Agreement must hold even against the equivocator; the value
            // may be one the adversary nominated (weak validity), but all
            // correct nodes agree.
            assert_scp_consensus(&sim, &correct);
        }
    }

    #[test]
    fn synchronous_run_decides() {
        let correct = [0u32, 1, 2, 3, 4, 5, 6];
        let kg = generators::fig1();
        let sys = paper::fig1_system();
        let mut sim = Simulation::new(kg, NetworkConfig::synchronous(10, 42));
        for i in 0..7u32 {
            let i = ProcessId::new(i);
            sim.add_actor(Box::new(ScpNode::new(ScpConfig::new(
                sys.slices(i).clone(),
                20,
            ))));
        }
        sim.add_actor(Box::new(SilentActor::new()));
        run_to_decision(&mut sim, &correct);
        // All inputs equal: strong validity — the decision must be 20.
        assert_eq!(assert_scp_consensus(&sim, &correct), 20);
    }

    #[test]
    fn lossy_network_with_retransmission_still_decides() {
        use scup_sim::{FaultPlan, LossFault, RetransmitConfig};
        let correct = [0u32, 1, 2, 3, 4, 5, 6];
        let kg = generators::fig1();
        let sys = paper::fig1_system();
        for seed in 0..3 {
            let mut sim = Simulation::new(
                kg.clone(),
                NetworkConfig::partially_synchronous(150, 10, seed),
            );
            let heal = 2_000;
            sim.set_fault_plan(FaultPlan {
                loss: Some(LossFault {
                    prob: 0.4,
                    until: heal,
                    links: None,
                }),
                ..FaultPlan::default()
            });
            for i in 0..7u32 {
                let i = ProcessId::new(i);
                let mut config = ScpConfig::new(sys.slices(i).clone(), 10 + i.as_u32() as u64);
                config.retransmit = RetransmitConfig::covering(heal, 10);
                sim.add_actor(Box::new(ScpNode::new(config)));
            }
            sim.add_actor(Box::new(SilentActor::new()));
            run_to_decision(&mut sim, &correct);
            let report = sim.report().clone();
            assert!(report.messages_dropped > 0, "seed {seed}: loss must bite");
            let v = assert_scp_consensus(&sim, &correct);
            assert!((10..17).contains(&v));
            let retransmitted: u64 = correct
                .iter()
                .map(|&i| {
                    sim.actor_as::<ScpNode>(ProcessId::new(i))
                        .unwrap()
                        .stats()
                        .retransmissions
                })
                .sum();
            assert!(retransmitted > 0, "seed {seed}: retransmission must fire");
        }
    }

    #[test]
    fn crashed_node_recovers_rejoins_and_never_contradicts_pledges() {
        use scup_sim::{CrashFault, FaultPlan, RetransmitConfig};
        let correct = [0u32, 1, 2, 3, 4, 5, 6];
        let kg = generators::fig1();
        let sys = paper::fig1_system();
        for seed in 0..3 {
            let mut sim = Simulation::new(
                kg.clone(),
                NetworkConfig::partially_synchronous(150, 10, seed),
            );
            let recover_at = 1_500;
            sim.set_fault_plan(FaultPlan {
                crashes: vec![CrashFault {
                    process: ProcessId::new(2),
                    at: 300,
                    recover_at: Some(recover_at),
                }],
                ..FaultPlan::default()
            });
            for i in 0..7u32 {
                let i = ProcessId::new(i);
                let mut config = ScpConfig::new(sys.slices(i).clone(), 10 + i.as_u32() as u64);
                config.retransmit = RetransmitConfig::covering(recover_at, 10);
                sim.add_actor(Box::new(ScpNode::new(config)));
            }
            sim.add_actor(Box::new(SilentActor::new()));
            run_to_decision(&mut sim, &correct);
            let report = sim.report().clone();
            assert_eq!(report.crashes, 1);
            assert_eq!(report.recoveries, 1);
            // The recovered node rejoins and externalizes the agreed value.
            let v = assert_scp_consensus(&sim, &correct);
            assert!((10..17).contains(&v));
            // And no process — the recovered one included — contradicted
            // its durable pledges.
            for &i in &correct {
                let violations = journal_contradictions(sim.journal(ProcessId::new(i)));
                assert!(
                    violations.is_empty(),
                    "seed {seed}, node {i}: {violations:?}"
                );
                assert!(
                    !sim.journal(ProcessId::new(i)).is_empty(),
                    "node {i} journalled nothing"
                );
            }
        }
    }

    /// Sends a fixed script of envelopes — `(at, stmt)`, all accept-level —
    /// to process 0 and ignores everything it receives.
    #[derive(Clone)]
    struct ScriptedAccepter {
        slices: Arc<SliceFamily>,
        script: Vec<(u64, Statement)>,
    }

    impl Actor<ScpMsg> for ScriptedAccepter {
        fn on_start(&mut self, ctx: &mut Context<'_, ScpMsg>) {
            for (i, &(at, _)) in self.script.iter().enumerate() {
                ctx.set_timer(at, i as u64);
            }
        }

        fn on_message(&mut self, _: &mut Context<'_, ScpMsg>, _: ProcessId, _: ScpMsg) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, ScpMsg>, tag: u64) {
            let stmt = self.script[tag as usize].1;
            let msg = ScpMsg::new(ctx.self_id(), Arc::clone(&self.slices), stmt, true);
            ctx.send(ProcessId::new(0), msg);
        }
    }

    /// Crash recovery keeps the accept ratchet (ROADMAP direction 1(d)):
    /// `on_recover` files a replayed accept-level pledge as the node's own
    /// accept, which is what the ratchet reads. Node 0 (slices `{{1, 2}}`)
    /// is walked to an accepted `commit(1, 5)` by its two scripted peers,
    /// crashes, recovers, and is then offered accepts of `commit(2, 7)`: it
    /// must refuse them, and it must not re-derive — journal, count and
    /// backlog a second time — the accept it replayed.
    #[test]
    fn recovered_node_keeps_its_accept_ratchet() {
        use scup_graph::KnowledgeGraph;
        use scup_sim::{CrashFault, FaultPlan};
        let kg = KnowledgeGraph::from_pds(
            (0..3u32)
                .map(|i| ProcessSet::from_ids((0..3).filter(|&j| j != i)))
                .collect(),
        );
        let mut sim = Simulation::new(kg, NetworkConfig::synchronous(10, 0));
        sim.set_fault_plan(FaultPlan {
            crashes: vec![CrashFault {
                process: ProcessId::new(0),
                at: 300,
                recover_at: Some(350),
            }],
            ..FaultPlan::default()
        });
        let slices = |ids: [u32; 2]| SliceFamily::explicit([ProcessSet::from_ids(ids)]);
        sim.add_actor(Box::new(ScpNode::new(ScpConfig::new(slices([1, 2]), 5))));
        // Both peers accept the nomination and the prepare, so node 0
        // confirms them and votes commit(1, 5); only peer 1 accepts that
        // commit before the crash — v-blocking, so node 0 accepts it, but
        // {0, 1} is no quorum and nothing is externalized. After the
        // recovery peer 1 repeats its prepare accept (lost with node 0's
        // volatile state), then both accept commit(2, 7).
        let both = [
            (20, Statement::Nominate(5)),
            (60, Statement::Prepare(1, 5)),
            (400, Statement::Commit(2, 7)),
        ];
        let only_1 = [
            (100, Statement::Commit(1, 5)),
            (380, Statement::Prepare(1, 5)),
        ];
        sim.add_actor(Box::new(ScriptedAccepter {
            slices: Arc::new(slices([0, 2])),
            script: both.into_iter().chain(only_1).collect(),
        }));
        sim.add_actor(Box::new(ScriptedAccepter {
            slices: Arc::new(slices([0, 1])),
            script: both.to_vec(),
        }));
        sim.run_while(|s| s.now().ticks() < 600, 600);
        assert_eq!(sim.report().recoveries, 1);
        let accepted: Vec<Statement> = sim
            .journal(ProcessId::new(0))
            .records()
            .iter()
            .filter(|rec| rec.tag == J_PLEDGE)
            .filter_map(|rec| match rec.words[..] {
                [kind, n, v, 1] => decode_stmt(kind, n, v),
                _ => None,
            })
            .collect();
        assert!(accepted.contains(&Statement::Commit(1, 5)), "{accepted:?}");
        for (i, a) in accepted.iter().enumerate() {
            for b in &accepted[i + 1..] {
                assert!(!a.contradicts(b), "accepted {a} and {b}: {accepted:?}");
                assert_ne!(a, b, "accept journalled twice: {accepted:?}");
            }
        }
        assert_eq!(
            journal_contradictions(sim.journal(ProcessId::new(0))),
            Vec::<String>::new()
        );
        let node = sim.actor_as::<ScpNode>(ProcessId::new(0)).unwrap();
        assert_eq!(node.externalized(), None);
    }

    /// The durability oracle audits accepts: the journal of a node that
    /// lost its ratchet in the scenario above — the replayed
    /// `prepare(1, 5)` accept re-derived, then `commit(2, 7)` accepted
    /// against `commit(1, 5)` — is flagged, and only for that pair.
    #[test]
    fn journal_contradictions_flags_a_broken_accept_ratchet() {
        use scup_sim::MemJournal;
        let mut journal = MemJournal::new();
        for stmt in [
            Statement::Nominate(5),
            Statement::Prepare(1, 5),
            Statement::Commit(1, 5),
            Statement::Prepare(1, 5),
            Statement::Commit(2, 7),
        ] {
            let (kind, n, v) = encode_stmt(stmt);
            journal.append(J_PLEDGE, &[kind, n, v, 1]);
        }
        assert_eq!(
            journal_contradictions(&journal),
            vec!["contradictory accepts: commit(1, 5) then commit(2, 7)".to_string()]
        );
    }

    #[test]
    fn late_joiner_catches_up_via_backlog_replay() {
        use scup_sim::{ChurnPlan, JoinEvent};
        let kg = generators::fig1();
        let sys = paper::fig1_system();
        let correct = [0u32, 1, 2, 3, 4, 5, 6];
        let joiner = ProcessId::new(5);
        let introduce_to: ProcessSet = kg
            .processes()
            .filter(|&i| kg.pd(i).contains(joiner))
            .collect();
        for seed in 0..3 {
            let mut sim = Simulation::new(
                kg.clone(),
                NetworkConfig::partially_synchronous(150, 10, seed),
            );
            sim.set_churn_plan(ChurnPlan {
                joins: vec![JoinEvent {
                    process: joiner,
                    at: 20_000,
                    contacts: kg.pd(joiner).clone(),
                    introduce_to: introduce_to.clone(),
                }],
                leaves: Vec::new(),
            });
            for i in 0..7u32 {
                let i = ProcessId::new(i);
                let config = ScpConfig::new(sys.slices(i).clone(), 10 + i.as_u32() as u64);
                sim.add_actor(Box::new(ScpNode::new(config)));
            }
            sim.add_actor(Box::new(SilentActor::new()));
            run_to_decision(&mut sim, &correct);
            let report = sim.report().clone();
            assert_eq!(report.joins, 1, "seed {seed}");
            assert!(
                report.churn_drops > 0,
                "seed {seed}: pre-join envelopes must die against the dormant joiner"
            );
            // The joiner externalizes the same value as the incumbents,
            // fed by the incumbents' backlog replay on introduction.
            let v = assert_scp_consensus(&sim, &correct);
            assert!((10..17).contains(&v), "seed {seed}: decided {v}");
            let catchup: u64 = correct
                .iter()
                .map(|&i| {
                    sim.actor_as::<ScpNode>(ProcessId::new(i))
                        .unwrap()
                        .stats()
                        .catchup_envelopes
                })
                .sum();
            assert!(catchup > 0, "seed {seed}: backlog replay must fire");
        }
    }

    /// The envelope's `Debug` string is the payload of the event log,
    /// forensics, Perfetto traces and counterexample schedules, and its
    /// size hint feeds `bytes_per_decision`: both are pinned to what the
    /// by-value envelope with a derived `Debug` produced.
    #[test]
    fn envelope_rendering_and_size_are_pinned() {
        let explicit = Arc::new(SliceFamily::explicit([
            ProcessSet::from_ids([0, 1]),
            ProcessSet::from_ids([1, 3]),
        ]));
        let all = Arc::new(SliceFamily::all_subsets(ProcessSet::from_ids([0, 1, 5]), 2));
        let (p2, p5) = (ProcessId::new(2), ProcessId::new(5));
        let cases = [
            (
                ScpMsg::new(p2, Arc::clone(&explicit), Statement::Nominate(7), false),
                "ScpMsg { origin: p2, slices: {{0, 1}, {1, 3}}, stmt: nominate(7), accept: false }",
                "ScpMsg {\n    origin: p2,\n    slices: {{0, 1}, {1, 3}},\n    stmt: nominate(7),\n    accept: false,\n}",
                42,
            ),
            (
                ScpMsg::new(p2, Arc::clone(&explicit), Statement::Commit(3, 7), true),
                "ScpMsg { origin: p2, slices: {{0, 1}, {1, 3}}, stmt: commit(3, 7), accept: true }",
                "ScpMsg {\n    origin: p2,\n    slices: {{0, 1}, {1, 3}},\n    stmt: commit(3, 7),\n    accept: true,\n}",
                42,
            ),
            (
                ScpMsg::new(p5, Arc::clone(&all), Statement::Prepare(1, 9), false),
                "ScpMsg { origin: p5, slices: all 2-subsets of {0, 1, 5}, stmt: prepare(1, 9), accept: false }",
                "ScpMsg {\n    origin: p5,\n    slices: all 2-subsets of {0, 1, 5},\n    stmt: prepare(1, 9),\n    accept: false,\n}",
                40,
            ),
            (
                ScpMsg::new(p5, Arc::clone(&all), Statement::Prepare(2, 9), true),
                "ScpMsg { origin: p5, slices: all 2-subsets of {0, 1, 5}, stmt: prepare(2, 9), accept: true }",
                "ScpMsg {\n    origin: p5,\n    slices: all 2-subsets of {0, 1, 5},\n    stmt: prepare(2, 9),\n    accept: true,\n}",
                40,
            ),
        ];
        for (msg, flat, pretty, size) in cases {
            assert_eq!(format!("{msg:?}"), flat);
            assert_eq!(format!("{msg:#?}"), pretty);
            assert_eq!(msg.size_hint(), size, "{flat}");
        }
    }

    /// Every copy of an envelope is a handle to one allocation: a relay's
    /// outbox copies and its new backlog entry point at the envelope it
    /// was delivered, and an equivocation round builds its two halves
    /// once, not once per peer.
    #[test]
    fn copies_of_an_envelope_share_one_allocation() {
        use scup_graph::KnowledgeGraph;
        use scup_sim::{ExploreEvent, ExploreSim};
        assert_eq!(std::mem::size_of::<ScpMsg>(), std::mem::size_of::<usize>());
        let kg = KnowledgeGraph::from_pds(
            (0..4u32)
                .map(|i| ProcessSet::from_ids((0..4).filter(|&j| j != i)))
                .collect(),
        );
        let mut sim = ExploreSim::new(kg, 0);
        let slices = SliceFamily::all_subsets(ProcessSet::from_ids([0, 1, 2]), 2);
        for input in 7..10 {
            sim.add_actor(Box::new(ScpNode::new(ScpConfig::new(
                slices.clone(),
                input,
            ))));
        }
        let (p0, p1, p3) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(3));
        sim.add_actor(Box::new(EquivocatingScpNode::new(
            (666, 777),
            SliceFamily::explicit([ProcessSet::from_ids([3])]),
        )));
        sim.start();
        let sent = |sim: &ExploreSim<ScpMsg>, by: ProcessId, origin: ProcessId| -> Vec<ScpMsg> {
            sim.pending()
                .filter_map(|e| match e {
                    ExploreEvent::Deliver { from, msg, .. } if *from == by => Some(msg.clone()),
                    _ => None,
                })
                .filter(|msg| msg.origin == origin)
                .collect()
        };

        let halves = sent(&sim, p3, p3);
        assert_eq!(halves.len(), 3, "one copy per peer");
        let allocations: std::collections::BTreeSet<*const Envelope> =
            halves.iter().map(|msg| Rc::as_ptr(&msg.0)).collect();
        assert_eq!(allocations.len(), 2, "{halves:?}");

        let idx = sim
            .pending()
            .position(|e| {
                matches!(e, ExploreEvent::Deliver { from, to, msg }
                    if *from == p0 && *to == p1 && msg.origin == p0)
            })
            .expect("p0's nomination is in flight to p1");
        let ExploreEvent::Deliver { msg: delivered, .. } = sim.pending_at(idx).clone() else {
            unreachable!()
        };
        assert!(sent(&sim, p1, p0).is_empty());
        sim.fire(idx);
        let relayed = sent(&sim, p1, p0);
        assert_eq!(relayed.len(), 3, "p1 relays to its three peers");
        let node = sim.actor_as::<ScpNode>(p1).unwrap();
        let filed: Vec<&ScpMsg> = node.backlog.iter().filter(|m| m.origin == p0).collect();
        assert_eq!(filed.len(), 1);
        for copy in relayed.iter().chain(filed) {
            assert!(Rc::ptr_eq(&copy.0, &delivered.0), "{copy:?} is a copy");
        }
    }

    #[test]
    fn equivocation_pairs_name_the_origin_not_the_relays() {
        let correct = [0u32, 1, 2, 3, 4, 5, 6];
        let adversary = EquivocatingScpNode::new(
            (666, 777),
            SliceFamily::explicit([ProcessSet::from_ids([7])]),
        );
        let mut sim = fig1_sim(0, Box::new(adversary));
        sim.enable_causal();
        run_to_decision(&mut sim, &correct);
        assert_scp_consensus(&sim, &correct);
        let pairs = sim.causal().equivocations();
        assert!(
            !pairs.is_empty(),
            "split ballot pledges must book an equivocation pair"
        );
        // Correct nodes flood-relay both halves of the adversary's split
        // verbatim; attribution must stick to the origin regardless.
        for pair in pairs {
            assert_eq!(pair.process, 7, "relay falsely booked: {pair:?}");
        }
    }

    #[test]
    fn provenance_chains_root_at_proposals_and_supports_revalidate() {
        use scup_obs::causal::{walk_to_roots, ProvRule, ProvenanceLog};
        let correct = [0u32, 1, 2, 3, 4, 5, 6];
        let sys = paper::fig1_system();
        let mut sim = fig1_sim(0, Box::new(SilentActor::new()));
        for &i in &correct {
            sim.actor_as_mut::<ScpNode>(ProcessId::new(i))
                .unwrap()
                .enable_provenance();
        }
        run_to_decision(&mut sim, &correct);
        let v = assert_scp_consensus(&sim, &correct);
        let logs: Vec<ProvenanceLog> = (0..8u32)
            .map(|i| {
                sim.actor_as::<ScpNode>(ProcessId::new(i))
                    .map(|n| n.provenance().clone())
                    .unwrap_or_else(ProvenanceLog::disabled)
            })
            .collect();
        for &i in &correct {
            // Every externalization walks back to initial proposals
            // across process boundaries.
            let walk = walk_to_roots(&logs, i, &format!("externalize {v}"));
            assert!(walk.rooted, "node {i}: unresolved {:?}", walk.unresolved);
            assert!(
                walk.visited.iter().any(|&(p, idx)| {
                    logs[p as usize].entries()[idx].rule == ProvRule::Proposal
                }),
                "node {i}: no proposal in the walk"
            );
            // Soundness: every recorded justification re-validates against
            // the real slice system — quorum supports are quorums through
            // the pledger, v-blocking supports are v-blocking for it.
            let mut check = QuorumCheck::new();
            for p in sys.processes() {
                check.record_slices(p, sys.slices(p));
            }
            for e in logs[i as usize].entries() {
                let me = ProcessId::new(e.process);
                let support = ProcessSet::from_ids(e.support.iter().copied());
                match e.rule {
                    ProvRule::AcceptQuorum | ProvRule::Confirm => {
                        assert!(
                            check.has_quorum_through(me, sys.slices(me), &support),
                            "node {i}: support of {:?} is no quorum: {support:?}",
                            e.statement
                        );
                    }
                    ProvRule::AcceptVBlocking => {
                        assert!(
                            sys.slices(me).is_v_blocked_by(&support),
                            "node {i}: support of {:?} not v-blocking: {support:?}",
                            e.statement
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn split_quorums_can_externalize_differently() {
        // Theorem 2 as a protocol run: Fig. 2 with locally defined slices
        // (all subsets of PD_i of size |PD_i| - 1). The sink {0,1,2,3} and
        // the outer ring {4,5,6} form disjoint quorums; with inputs far
        // apart, some schedules externalize different values in the two
        // quorums — SCP loses agreement, exactly the paper's point.
        let kg = generators::fig2();
        let mut disagreements = 0;
        let mut decided_runs = 0;
        for seed in 0..12 {
            let mut sim = Simulation::new(
                kg.clone(),
                NetworkConfig::partially_synchronous(80, 10, seed),
            );
            for i in kg.processes() {
                let pd = kg.pd(i).clone();
                let size = pd.len() - 1;
                let slices = SliceFamily::all_subsets(pd, size);
                // Sink processes propose small values, outer ones large.
                let input = if i.as_u32() < 4 {
                    1
                } else {
                    100 + i.as_u32() as u64
                };
                sim.add_actor(Box::new(ScpNode::new(ScpConfig::new(slices, input))));
            }
            sim.run_while(
                |s| {
                    !kg.processes().all(|i| {
                        s.actor_as::<ScpNode>(i)
                            .is_some_and(|n| n.externalized().is_some())
                    })
                },
                2_000_000,
            );
            let sink_v = sim
                .actor_as::<ScpNode>(ProcessId::new(0))
                .unwrap()
                .externalized();
            let outer_v = sim
                .actor_as::<ScpNode>(ProcessId::new(4))
                .unwrap()
                .externalized();
            if let (Some(a), Some(b)) = (sink_v, outer_v) {
                decided_runs += 1;
                if a != b {
                    disagreements += 1;
                }
            }
        }
        assert!(decided_runs > 0, "some runs must decide");
        assert!(
            disagreements > 0,
            "disjoint quorums must disagree on some schedule ({decided_runs} decided runs)"
        );
    }
}
