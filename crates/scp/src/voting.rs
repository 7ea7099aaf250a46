//! Federated voting: the vote → accept → confirm cascade of SCP.
//!
//! A process *votes* for a statement it is willing to assert. It *accepts*
//! the statement once either
//!
//! - a quorum (through its own slices, evaluated by Algorithm 1 against the
//!   slices attached to the members' messages) has voted-or-accepted it, or
//! - a v-blocking set of its slices has accepted it (at least one correct
//!   trusted process stands behind the claim, so it is safe to join);
//!
//! and it *confirms* (acts on) the statement once a quorum has accepted it.
//!
//! Accepts ratchet: a process never accepts a statement contradicting one
//! it already accepted ([`Statement::contradicts`]) — a v-blocking set may
//! override a process's plain *votes*, never its accepts. The ratchet is
//! what turns quorum intersection into agreement: two confirmed commits
//! of different values would require a correct process in the quorum
//! intersection to have accepted both. (Blocked statements stay blocked —
//! accepts only grow — so the incremental dirty-tracking below remains
//! sound.)
//!
//! [`VoteTracker`] keeps the pledge table; [`QuorumCheck`] holds the slice
//! registry built from received envelopes and answers the
//! quorum/v-blocking queries.
//!
//! Both store their keyed state in a flat copy-on-write table
//! (`table.rs`) — one row per statement (who voted, who accepted: the
//! abstract per-statement state of federated voting, plus whether we
//! confirmed it) and one row per process (its latest slice claim). Our own
//! vote and accept are pledges like any other — our id in the vote or
//! accept set — so our level on a statement is read off its row, and a
//! pledge replayed from a journal ratchets exactly like one derived from
//! evidence. Exploration forks a node per visited state, so a fork is an
//! `Arc` bump; a write after a fork copies the whole table, which the
//! explorer's systems keep at 6 statements or fewer, and a sampled run
//! never forks, so it writes in place.
//!
//! # One table, two questions
//!
//! The pledge table is also the node's envelope dedup set: an envelope
//! `(origin, statement, accept)` is a duplicate iff `origin` already sits
//! in that statement's vote or accept set ([`VoteTracker::has_pledge`]).
//! Flood gossip delivers every envelope once per knowledge edge, so more
//! than nine deliveries in ten are duplicates and that test is the node's
//! hottest operation. It is one lookup in the table — a probe of its
//! hashed index on a sampled run's few dozen statements, a binary search
//! over the handful an explored node holds — then one bit test on an
//! inline [`ProcessSet`]. It is read-only, so a duplicate never copies a
//! fork-shared table.
//!
//! A fresh pledge then re-evaluates its statement, and most of those
//! evaluations end before Algorithm 1 runs:
//! [`QuorumCheck::has_quorum_through`] first asks whether one of the
//! node's own slices lies inside the candidate set at all, a test on the
//! node's own slice family alone, and computes the quorum closure only
//! when one does.
//!
//! Votes stay apart from accepts. The accept-by-quorum rule reads
//! "voted-or-accepted", which is `votes ∪ accepts` taken *on read*:
//! folding a vote into a stored union would answer "duplicate" for a vote
//! that arrives after the same origin's accept, and the node would stop
//! relaying it.
//!
//! The table's contribution to the state fingerprint is the number of
//! pledges and an XOR multiset digest over them (see `fingerprint.rs`),
//! kept incrementally. Confirmations are not hashed: they are the
//! deterministic monotone fixpoint of the pledge sets and the slice
//! registry.

use std::sync::Arc;

use scup_fbqs::{EngineScratch, QuorumEngine, SliceFamily};
use scup_graph::{ProcessId, ProcessSet};
use scup_obs::causal::{ProvEntry, ProvRule, ProvenanceLog};
use scup_sim::{Perm, StateHasher};

use crate::fingerprint::{family_entry_digest, pledge_digest};
use crate::statement::Statement;
use crate::table::Table;

/// How far a process has progressed on one statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum VoteLevel {
    /// No pledge yet.
    #[default]
    None,
    /// Voted for the statement.
    Voted,
    /// Accepted the statement.
    Accepted,
    /// Confirmed the statement (quorum of accepts).
    Confirmed,
}

/// The slice registry: the latest slice family each process attached to a
/// message, compiled into a [`QuorumEngine`] so Algorithm 1 runs on packed
/// bitmask rows with reusable scratch — the per-message federated-voting
/// re-evaluation is the simulator's hottest loop.
///
/// Exploration forks one `QuorumCheck` per SCP node per visited state, and
/// most forked nodes are never mutated before the next fork, so every
/// heavy field is shared until written: the registry is a copy-on-write
/// table in process-id order (clone = `Arc` bump) and the compiled engine
/// rides behind an `Arc` — a fork keeps querying the shared compilation
/// and only [`Arc::make_mut`]-copies it when a divergent slice claim
/// actually arrives. Scratch and closure buffers are cheap transients and
/// start empty in each clone.
#[derive(Debug, Default)]
pub struct QuorumCheck {
    slices: Table<ProcessId, SliceFamily>,
    engine: Option<Arc<QuorumEngine>>,
    scratch: EngineScratch,
    closure: ProcessSet,
    /// The `(self_id, own_slices)` pair currently compiled into the engine.
    own_row: Option<(ProcessId, Arc<SliceFamily>)>,
    /// XOR multiset digest of the registry, maintained incrementally so
    /// state fingerprints need not re-walk the recorded claims (see
    /// [`crate::fingerprint`]).
    digest: u128,
}

impl Clone for QuorumCheck {
    fn clone(&self) -> Self {
        QuorumCheck {
            slices: self.slices.clone(),
            engine: self.engine.clone(),
            scratch: EngineScratch::default(),
            closure: ProcessSet::new(),
            own_row: self.own_row.clone(),
            digest: self.digest,
        }
    }
}

impl QuorumCheck {
    /// Creates an empty registry.
    pub fn new() -> Self {
        QuorumCheck::default()
    }

    /// Ensures the compiled engine exists (recorded claims first, then the
    /// own-slices override on top). Read-only queries then run on the
    /// possibly-shared compilation; only row rewrites go through
    /// [`Arc::make_mut`].
    fn ensure_engine(&mut self) {
        if self.engine.is_none() {
            let mut engine = QuorumEngine::new(0);
            for (i, fam) in self.slices.iter() {
                engine.set_slices(*i, fam);
            }
            if let Some((own, fam)) = &self.own_row {
                engine.set_slices(*own, fam);
            }
            self.engine = Some(Arc::new(engine));
        }
    }

    /// Records the slice family attached to a message from `from`
    /// (overwriting earlier ones — a Byzantine equivocator is pinned to its
    /// most recent claim). Recompiles the process's engine row, and clones
    /// the family into the registry, only when the claim actually changed.
    ///
    /// Returns `true` when the stored claim changed — every quorum
    /// evaluation made against the old registry is then stale (see
    /// [`VoteTracker::invalidate_all`]).
    pub fn record_slices(&mut self, from: ProcessId, slices: &SliceFamily) -> bool {
        let Some(displaced) = self.slices.replace_if_changed(from, slices) else {
            return false;
        };
        // The displaced entry leaves the registry digest, the new one joins.
        if let Some(old) = displaced {
            self.digest ^= family_entry_digest(StateHasher::new(), from, &old);
        }
        self.digest ^= family_entry_digest(StateHasher::new(), from, slices);
        if self.own_row.as_ref().is_some_and(|(own, _)| *own == from) {
            // A recorded claim for our own id would fight the own-slices
            // override; force re-compilation on the next quorum query.
            self.own_row = None;
        }
        if let Some(engine) = &mut self.engine {
            Arc::make_mut(engine).set_slices(from, slices);
        }
        true
    }

    /// Number of recorded claims.
    pub fn recorded_len(&self) -> usize {
        self.slices.len()
    }

    /// The incremental XOR digest over every recorded `(process, slices)`
    /// claim — the O(1) fingerprint contribution of the registry.
    pub fn registry_digest(&self) -> u128 {
        self.digest
    }

    /// [`QuorumCheck::registry_digest`] of the registry with every process
    /// id renamed through `perm` — the symmetry reduction's slow path,
    /// recomputed per permutation (XOR needs no re-sorting).
    pub fn registry_digest_perm(&self, perm: &Perm) -> u128 {
        self.slices.iter().fold(0u128, |acc, (i, fam)| {
            acc ^ family_entry_digest(StateHasher::with_renaming(perm), *i, fam)
        })
    }

    /// The registered slices of `from`, if any message arrived yet.
    pub fn slices_of(&self, from: ProcessId) -> Option<&SliceFamily> {
        self.slices.get(&from)
    }

    /// Every recorded `(process, slices)` claim, in process-id order —
    /// canonical iteration for exploration state fingerprints.
    pub fn recorded(&self) -> impl Iterator<Item = (ProcessId, &SliceFamily)> + '_ {
        self.slices.iter().map(|(i, fam)| (*i, fam))
    }

    /// Returns `true` if `candidates` contains a quorum that includes
    /// `self_id` — the quorum side of the accept/confirm rules.
    ///
    /// Computes the quorum closure of `candidates` on the compiled engine
    /// (processes with unknown slices cannot certify and are dropped), then
    /// checks membership of `self_id`. Exactly Algorithm 1 applied to the
    /// largest plausible quorum, without the per-call set clones and
    /// full-rescan rounds of the pre-engine implementation.
    ///
    /// Most queries are settled before Algorithm 1 runs: the closure is a
    /// subset of `candidates`, and `self_id` survives in it only if one of
    /// `own_slices` lies inside the closure, so when none lies inside
    /// `candidates` the answer is `false` (Algorithm 1 is monotone:
    /// shrinking the set never satisfies a slice it did not).
    /// [`QuorumCheck::last_closure`] is not written then. The test comes
    /// after the engine and the own row are in place: exploration forks
    /// then share the compilation made before they split, where a test
    /// ahead of it would leave each fork to compile its own.
    pub fn has_quorum_through(
        &mut self,
        self_id: ProcessId,
        own_slices: &SliceFamily,
        candidates: &ProcessSet,
    ) -> bool {
        self.ensure_engine();
        let row_current = matches!(
            &self.own_row,
            Some((own, fam)) if *own == self_id && **fam == *own_slices
        );
        if !row_current {
            // Restore the row displaced by an earlier own-slices override
            // for a *different* self id (callers may query on behalf of
            // several processes): back to its recorded claim, or to
            // no-slices when none was ever recorded. Row rewrites are the
            // only place a fork-shared engine compilation gets copied.
            let previous = self.own_row.take();
            let engine = Arc::make_mut(self.engine.as_mut().expect("ensured above"));
            if let Some((old_id, _)) = &previous {
                if *old_id != self_id {
                    match self.slices.get(old_id) {
                        Some(fam) => engine.set_slices(*old_id, fam),
                        None => engine.set_slices(*old_id, &SliceFamily::empty()),
                    }
                }
            }
            engine.set_slices(self_id, own_slices);
            self.own_row = Some((self_id, Arc::new(own_slices.clone())));
        }
        if !own_slices.has_slice_within(candidates) {
            return false;
        }
        let engine = self.engine.as_ref().expect("ensured above");
        engine.quorum_closure_in(candidates, &mut self.scratch, &mut self.closure);
        self.closure.contains(self_id)
    }

    /// Returns `true` if `accepters` is v-blocking for `own_slices` — the
    /// blocking side of the accept rule.
    pub fn is_v_blocking(&self, own_slices: &SliceFamily, accepters: &ProcessSet) -> bool {
        own_slices.is_v_blocked_by(accepters)
    }

    /// The quorum closure computed by the most recent
    /// [`QuorumCheck::has_quorum_through`] call. Valid only immediately
    /// after a call that returned `true`, in which case this *is* the
    /// justifying quorum (it contains `self_id` and every member is
    /// certified through the registered slices).
    pub fn last_closure(&self) -> &ProcessSet {
        &self.closure
    }
}

/// One statement's row: the processes whose pledge is on file, by level,
/// and whether this process confirmed the statement.
#[derive(Debug, Clone, Default)]
struct Pledges {
    /// Origins of the vote-level pledges (ours included, once cast).
    votes: ProcessSet,
    /// Origins of the accept-level pledges (ours included, once accepted).
    accepts: ProcessSet,
    /// A quorum of accepts was seen (only ever set once we accepted).
    confirmed: bool,
}

/// The pledge table of one process: for every statement, who voted, who
/// accepted, and whether it is confirmed — the whole state of federated
/// voting, and the dedup set of the envelopes that carried the pledges.
///
/// Exploration forks a tracker per SCP node per visited state, so the
/// rows sit in one copy-on-write table keyed by statement: `Clone` is an
/// `Arc` bump, and the first new pledge after a fork copies the table
/// (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct VoteTracker {
    /// Every pledge, own or remote, gets its statement a row, so the keys
    /// are the statement universe.
    pledges: Table<Statement, Pledges>,
    /// Number of `(origin, statement, accept)` pledges on file.
    len: usize,
    /// XOR of [`pledge_digest`] over the pledges on file.
    digest: u128,
    /// Statements whose row changed since the last [`VoteTracker::update`]
    /// — the incremental worklist. A statement's level depends only on its
    /// own pledge sets, the caller's slices, and the slice registry, so
    /// re-evaluating anything else is wasted quorum queries (the previous
    /// full-rescan `update` dominated the exploration profile).
    dirty: Vec<Statement>,
    /// Set when the slice registry changed: every statement's quorum
    /// evaluation is stale, so the next update rescans all of them.
    all_dirty: bool,
    /// Reusable statement buffer for [`VoteTracker::update`] (transient:
    /// clones start with a fresh one).
    stmt_buf: Vec<Statement>,
}

impl Clone for VoteTracker {
    fn clone(&self) -> Self {
        VoteTracker {
            pledges: self.pledges.clone(),
            len: self.len,
            digest: self.digest,
            dirty: self.dirty.clone(),
            all_dirty: self.all_dirty,
            stmt_buf: Vec::new(),
        }
    }
}

impl VoteTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        VoteTracker::default()
    }

    fn mark_dirty(&mut self, stmt: Statement) {
        if !self.all_dirty && !self.dirty.contains(&stmt) {
            self.dirty.push(stmt);
        }
    }

    /// Marks every statement stale — call after the slice registry (which
    /// all quorum evaluations read) changed.
    pub fn invalidate_all(&mut self) {
        self.all_dirty = true;
        self.dirty.clear();
    }

    /// `true` when the pledge `(origin, stmt, accept)` is on file — the
    /// envelope that carries it is then a duplicate. Read-only: a
    /// fork-shared table is not copied.
    pub fn has_pledge(&self, origin: ProcessId, stmt: &Statement, accept: bool) -> bool {
        self.pledges.get(stmt).is_some_and(|row| {
            let origins = if accept { &row.accepts } else { &row.votes };
            origins.contains(origin)
        })
    }

    /// Books one more pledge into the fingerprint pair.
    fn count_pledge(&mut self, origin: ProcessId, stmt: &Statement, accept: bool) {
        self.len += 1;
        self.digest ^= pledge_digest(StateHasher::new(), origin, stmt, accept);
    }

    /// Files the pledge `(from, stmt, accept)` — a remote envelope's, or
    /// our own replayed from a journal; `true` when it is new. The
    /// statement goes on the worklist when a set an accept/confirm rule
    /// reads grew: the accept set, or `votes ∪ accepts` — which a vote
    /// from a process whose accept is already on file does not extend.
    pub(crate) fn record(&mut self, from: ProcessId, stmt: Statement, accept: bool) -> bool {
        let row = self.pledges.get_or_default(stmt);
        let fresh = if accept {
            row.accepts.insert(from)
        } else {
            row.votes.insert(from)
        };
        if !fresh {
            return false;
        }
        let grew = accept || !row.accepts.contains(from);
        self.count_pledge(from, &stmt, accept);
        if grew {
            self.mark_dirty(stmt);
        }
        true
    }

    /// Records a remote vote. Returns `true` when the pledge is new.
    pub fn record_vote(&mut self, from: ProcessId, stmt: Statement) -> bool {
        self.record(from, stmt, false)
    }

    /// Records a remote accept (an accept implies a vote). Returns `true`
    /// when the pledge is new.
    pub fn record_accept(&mut self, from: ProcessId, stmt: Statement) -> bool {
        self.record(from, stmt, true)
    }

    /// Registers our own vote for `stmt` (no-op if we already voted or
    /// accepted it). Returns `true` if this is a new vote — a new pledge,
    /// which the caller broadcasts.
    pub fn vote(&mut self, self_id: ProcessId, stmt: Statement) -> bool {
        self.level(self_id, stmt) == VoteLevel::None && self.record(self_id, stmt, false)
    }

    /// `self_id`'s level on `stmt`, read off the pledge sets.
    pub fn level(&self, self_id: ProcessId, stmt: Statement) -> VoteLevel {
        match self.pledges.get(&stmt) {
            Some(row) if row.confirmed => VoteLevel::Confirmed,
            Some(row) if row.accepts.contains(self_id) => VoteLevel::Accepted,
            Some(row) if row.votes.contains(self_id) => VoteLevel::Voted,
            _ => VoteLevel::None,
        }
    }

    /// Number of pledges on file — with [`VoteTracker::digest`], the
    /// table's contribution to the state fingerprint.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The multiset digest of the pledges on file, kept incrementally.
    pub(crate) fn digest(&self) -> u128 {
        self.digest
    }

    /// [`VoteTracker::digest`] of the table with every origin renamed
    /// through `perm`. XOR is order-independent, so renaming each pledge
    /// and folding needs no re-sorting pass.
    pub(crate) fn digest_perm(&self, perm: &Perm) -> u128 {
        let mut digest = 0;
        for (stmt, row) in self.pledges.iter() {
            for (origins, accept) in [(&row.votes, false), (&row.accepts, true)] {
                for origin in origins {
                    digest ^= pledge_digest(StateHasher::with_renaming(perm), origin, stmt, accept);
                }
            }
        }
        digest
    }

    /// The accept ratchet: `true` when `stmt` contradicts a statement we
    /// already accepted (or confirmed). A process's plain vote may be
    /// overridden by a v-blocking set, but its accepts are pledges it
    /// never walks back — this is what makes two confirmed commits of
    /// different values impossible whenever correct quorums intersect
    /// (see [`Statement::contradicts`]).
    pub fn accept_would_contradict(&self, self_id: ProcessId, stmt: Statement) -> bool {
        self.pledges
            .iter()
            .any(|(s, row)| stmt.contradicts(s) && row.accepts.contains(self_id))
    }

    /// All statements we confirmed.
    pub fn confirmed(&self) -> impl Iterator<Item = Statement> + '_ {
        self.pledges
            .iter()
            .filter(|(_, row)| row.confirmed)
            .map(|(s, _)| *s)
    }

    /// The processes that voted-or-accepted `stmt`.
    pub fn voters(&self, stmt: Statement) -> ProcessSet {
        self.pledges
            .get(&stmt)
            .map_or_else(ProcessSet::new, |t| t.votes.union(&t.accepts))
    }

    /// The processes that accepted `stmt`.
    pub fn accepters(&self, stmt: Statement) -> ProcessSet {
        self.pledges
            .get(&stmt)
            .map_or_else(ProcessSet::new, |t| t.accepts.clone())
    }

    /// Re-evaluates the accept/confirm rules for every *stale* statement
    /// (row changed since the last call, or all of them after a registry
    /// change). Returns the statements whose level rose, with their new
    /// level — the caller broadcasts new accepts and reacts to
    /// confirmations.
    ///
    /// Incremental: a statement's level is a monotone function of its own
    /// pledge sets, the caller's slices, and the slice registry. Recording
    /// paths mark the touched statement dirty and
    /// [`VoteTracker::invalidate_all`] handles registry changes, so a
    /// statement whose inputs did not change since its last evaluation
    /// cannot have a higher level now and is safely skipped.
    ///
    /// Takes the check mutably: quorum queries run on its compiled engine,
    /// reusing its scratch buffers across statements and calls.
    pub fn update(
        &mut self,
        self_id: ProcessId,
        own_slices: &SliceFamily,
        check: &mut QuorumCheck,
    ) -> Vec<(Statement, VoteLevel)> {
        let mut prov = ProvenanceLog::disabled();
        self.update_observed(self_id, own_slices, check, &mut prov)
    }

    /// [`VoteTracker::update`] with decision provenance: when `prov` is
    /// enabled, every accept/confirm ratchet step records *which* rule
    /// fired and the justifying process set — the quorum closure for the
    /// quorum rules, the accepter set for the v-blocking rule — as a
    /// [`ProvEntry`] whose support references resolve against the other
    /// processes' logs (see [`scup_obs::causal::walk_to_roots`]).
    /// With a disabled log this is exactly `update`: no formatting, no
    /// allocation, identical quorum queries.
    pub fn update_observed(
        &mut self,
        self_id: ProcessId,
        own_slices: &SliceFamily,
        check: &mut QuorumCheck,
        prov: &mut ProvenanceLog,
    ) -> Vec<(Statement, VoteLevel)> {
        let mut changes = Vec::new();
        let mut statements = std::mem::take(&mut self.stmt_buf);
        statements.clear();
        if self.all_dirty {
            statements.extend_from_slice(self.pledges.keys());
            self.all_dirty = false;
            self.dirty.clear();
        } else {
            // Ascending statement order, exactly like the full rescan.
            statements.append(&mut self.dirty);
            statements.sort_unstable();
            statements.dedup();
        }
        for stmt in statements.iter().copied() {
            // Every statement on the worklist got its row when it was
            // recorded.
            while let Some(row) = self.pledges.get(&stmt) {
                let level = if row.confirmed {
                    break;
                } else if !row.accepts.contains(self_id) {
                    // Which accept rule fires matters only to the
                    // provenance log; the `||` order matches the old
                    // short-circuit exactly, so the quorum query runs
                    // iff it used to.
                    let rule = if self.accept_would_contradict(self_id, stmt) {
                        None
                    } else if check.is_v_blocking(own_slices, &row.accepts) {
                        Some(ProvRule::AcceptVBlocking)
                    } else if row.votes.contains(self_id)
                        && check.has_quorum_through(
                            self_id,
                            own_slices,
                            &row.votes.union(&row.accepts),
                        )
                    {
                        Some(ProvRule::AcceptQuorum)
                    } else {
                        None
                    };
                    let Some(rule) = rule else { break };
                    if prov.is_enabled() {
                        let (support, label) = match rule {
                            ProvRule::AcceptVBlocking => (&row.accepts, format!("accept {stmt:?}")),
                            _ => (check.last_closure(), format!("vote {stmt:?}")),
                        };
                        prov.push(ProvEntry {
                            process: self_id.as_u32(),
                            rule,
                            statement: format!("{stmt:?}"),
                            premises: Vec::new(),
                            support: support.iter().map(|p| p.as_u32()).collect(),
                            support_label: Some(label),
                        });
                    }
                    // Our own accept is a pledge like any other.
                    self.pledges.get_or_default(stmt).accepts.insert(self_id);
                    self.count_pledge(self_id, &stmt, true);
                    VoteLevel::Accepted
                } else {
                    if !check.has_quorum_through(self_id, own_slices, &row.accepts) {
                        break;
                    }
                    if prov.is_enabled() {
                        prov.push(ProvEntry {
                            process: self_id.as_u32(),
                            rule: ProvRule::Confirm,
                            statement: format!("{stmt:?}"),
                            premises: Vec::new(),
                            support: check.last_closure().iter().map(|p| p.as_u32()).collect(),
                            support_label: Some(format!("accept {stmt:?}")),
                        });
                    }
                    self.pledges.get_or_default(stmt).confirmed = true;
                    VoteLevel::Confirmed
                };
                changes.push((stmt, level));
            }
        }
        self.stmt_buf = statements;
        changes
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use scup_fbqs::paper;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Registry loaded with the paper's Fig. 1 slices (Section III-D).
    fn fig1_check() -> QuorumCheck {
        let sys = paper::fig1_system();
        let mut check = QuorumCheck::new();
        for i in sys.processes() {
            check.record_slices(i, sys.slices(i));
        }
        check
    }

    #[test]
    fn quorum_through_sink_core() {
        let mut check = fig1_check();
        let sys = paper::fig1_system();
        // {4,5,6} is a quorum for each of its members.
        let q = ProcessSet::from_ids([4, 5, 6]);
        for i in [4u32, 5, 6] {
            assert!(check.has_quorum_through(p(i), sys.slices(p(i)), &q));
        }
        // ...but not for process 0, which is outside.
        assert!(!check.has_quorum_through(p(0), sys.slices(p(0)), &q));
        // {4,5} contains no quorum.
        assert!(!check.has_quorum_through(p(4), sys.slices(p(4)), &ProcessSet::from_ids([4, 5])));
    }

    #[test]
    fn unknown_slices_cannot_certify() {
        let mut check = QuorumCheck::new();
        let sys = paper::fig1_system();
        // Only process 4's slices are known: closure drops 5 and 6.
        check.record_slices(p(4), sys.slices(p(4)));
        let q = ProcessSet::from_ids([4, 5, 6]);
        assert!(!check.has_quorum_through(p(4), sys.slices(p(4)), &q));
    }

    #[test]
    fn accept_via_quorum_of_votes() {
        let mut check = fig1_check();
        let sys = paper::fig1_system();
        let mut tracker = VoteTracker::new();
        let stmt = Statement::Nominate(9);
        assert!(tracker.vote(p(4), stmt));
        assert!(!tracker.vote(p(4), stmt), "idempotent");
        tracker.record_vote(p(5), stmt);
        tracker.record_vote(p(6), stmt);
        let changes = tracker.update(p(4), sys.slices(p(4)), &mut check);
        assert!(changes.contains(&(stmt, VoteLevel::Accepted)));
        assert_eq!(tracker.level(p(4), stmt), VoteLevel::Accepted);
    }

    #[test]
    fn accept_via_v_blocking_without_vote() {
        let mut check = fig1_check();
        let sys = paper::fig1_system();
        let mut tracker = VoteTracker::new();
        let stmt = Statement::Nominate(3);
        // Process 4 (paper 5, slices {{5,6}} 0-based): {5} alone is
        // v-blocking... S5 = {{6,7}} paper → 0-based {5,6}: need both? A
        // single slice family is blocked by any set hitting the slice.
        tracker.record_accept(p(5), stmt);
        let changes = tracker.update(p(4), sys.slices(p(4)), &mut check);
        assert!(
            changes.contains(&(stmt, VoteLevel::Accepted)),
            "v-blocking accept without own vote"
        );
    }

    #[test]
    fn confirm_needs_quorum_of_accepts() {
        let mut check = fig1_check();
        let sys = paper::fig1_system();
        let mut tracker = VoteTracker::new();
        let stmt = Statement::Prepare(1, 2);
        tracker.vote(p(4), stmt);
        tracker.record_accept(p(5), stmt);
        tracker.record_accept(p(6), stmt);
        let changes = tracker.update(p(4), sys.slices(p(4)), &mut check);
        // Accept via v-blocking {5,6}, then confirm via quorum {4,5,6} of
        // accepts, in one cascade.
        assert!(changes.contains(&(stmt, VoteLevel::Accepted)));
        assert!(changes.contains(&(stmt, VoteLevel::Confirmed)));
        assert_eq!(tracker.level(p(4), stmt), VoteLevel::Confirmed);
        assert_eq!(tracker.confirmed().collect::<Vec<_>>(), vec![stmt]);
    }

    #[test]
    fn votes_alone_do_not_confirm() {
        let mut check = fig1_check();
        let sys = paper::fig1_system();
        let mut tracker = VoteTracker::new();
        let stmt = Statement::Commit(1, 2);
        tracker.vote(p(4), stmt);
        tracker.record_vote(p(5), stmt);
        tracker.record_vote(p(6), stmt);
        let changes = tracker.update(p(4), sys.slices(p(4)), &mut check);
        // Quorum of votes → accept; but confirms need a quorum of accepts,
        // and only we accepted.
        assert_eq!(changes, vec![(stmt, VoteLevel::Accepted)]);
    }

    #[test]
    fn accept_ratchet_blocks_contradicting_commit() {
        // Process 4 accepts commit(1, 2) through a quorum of votes; a
        // later commit of a *different* value must never reach Accepted —
        // not even through a v-blocking set of (Byzantine or confused)
        // accepters.
        let mut check = fig1_check();
        let sys = paper::fig1_system();
        let mut tracker = VoteTracker::new();
        let commit_v = Statement::Commit(1, 2);
        tracker.vote(p(4), commit_v);
        tracker.record_vote(p(5), commit_v);
        tracker.record_vote(p(6), commit_v);
        let changes = tracker.update(p(4), sys.slices(p(4)), &mut check);
        assert!(changes.contains(&(commit_v, VoteLevel::Accepted)));

        let commit_w = Statement::Commit(7, 3);
        assert!(tracker.accept_would_contradict(p(4), commit_w));
        tracker.record_accept(p(5), commit_w);
        tracker.record_accept(p(6), commit_w);
        let changes = tracker.update(p(4), sys.slices(p(4)), &mut check);
        assert!(
            !changes.iter().any(|(s, _)| *s == commit_w),
            "accepted a commit contradicting an accepted commit: {changes:?}"
        );
        assert_eq!(tracker.level(p(4), commit_w), VoteLevel::None);

        // A higher prepare of another value (aborting the accepted
        // ballot) is ratcheted out the same way...
        let prepare_w = Statement::Prepare(2, 3);
        tracker.vote(p(4), prepare_w);
        tracker.record_accept(p(5), prepare_w);
        tracker.record_accept(p(6), prepare_w);
        let changes = tracker.update(p(4), sys.slices(p(4)), &mut check);
        assert!(!changes.iter().any(|(s, _)| *s == prepare_w));
        assert_eq!(tracker.level(p(4), prepare_w), VoteLevel::Voted);

        // ...while the same value keeps flowing freely.
        let prepare_v = Statement::Prepare(2, 2);
        assert!(!tracker.accept_would_contradict(p(4), prepare_v));
        tracker.vote(p(4), prepare_v);
        tracker.record_vote(p(5), prepare_v);
        tracker.record_vote(p(6), prepare_v);
        let changes = tracker.update(p(4), sys.slices(p(4)), &mut check);
        assert!(changes.contains(&(prepare_v, VoteLevel::Accepted)));
    }

    #[test]
    fn a_replayed_own_accept_ratchets() {
        // A recovered node files its journalled accept as a pledge of its
        // own id. That is its accept: the ratchet holds against a
        // v-blocking set, nothing is re-derived, and no vote follows.
        let mut check = fig1_check();
        let sys = paper::fig1_system();
        let me = p(4);
        let mut tracker = VoteTracker::new();
        let commit_v = Statement::Commit(1, 5);
        assert!(tracker.record_accept(me, commit_v));
        assert_eq!(tracker.level(me, commit_v), VoteLevel::Accepted);

        let commit_w = Statement::Commit(2, 7);
        tracker.record_accept(p(5), commit_w);
        tracker.record_accept(p(6), commit_w);
        let len = tracker.len();
        assert_eq!(tracker.update(me, sys.slices(me), &mut check), vec![]);
        assert_eq!(tracker.level(me, commit_w), VoteLevel::None);
        assert_eq!(tracker.len(), len);
        assert!(!tracker.vote(me, commit_v));
    }

    /// Ids range past one `ProcessSet` word.
    const N: u32 = 70;

    fn statement() -> impl Strategy<Value = Statement> {
        (0u32..3, 0u64..3, 0u64..4).prop_map(|(kind, n, v)| match kind {
            0 => Statement::Nominate(v),
            1 => Statement::Prepare(n, v),
            _ => Statement::Commit(n, v),
        })
    }

    /// A permutation of `0..N` from a vector of swap targets
    /// (Fisher–Yates driven by the generated indices).
    fn perm_from(swaps: &[u32]) -> Perm {
        let mut map: Vec<u32> = (0..N).collect();
        for (i, &j) in swaps.iter().enumerate() {
            map.swap(i, i + (j as usize) % (N as usize - i));
        }
        Perm::from_map(map)
    }

    proptest! {
        /// The dedup half of the table against the representation it
        /// replaced: an ordered set of the `(origin, statement, accept)`
        /// triples themselves. Remote pledges interleave with own votes
        /// and `update` cascades (process 4 of Fig. 1, whose accepts a
        /// lone accepter in `{5, 6}` triggers), so own pledges are
        /// booked through every path that files one.
        #[test]
        fn matches_a_set_of_triples(
            ops in proptest::collection::vec(
                (0u32..5, prop_oneof![4u32..8, 0u32..N], statement(), proptest::bool::ANY),
                0..200,
            ),
            swaps in proptest::collection::vec(0u32..N, (N - 1) as usize),
        ) {
            let perm = perm_from(&swaps);
            let me = p(4);
            let own = paper::fig1_system().slices(me).clone();
            let mut check = fig1_check();
            let mut subject = VoteTracker::new();
            let mut oracle: BTreeSet<(ProcessId, Statement, bool)> = BTreeSet::new();
            for (kind, origin, stmt, accept) in ops {
                match kind {
                    0 => {
                        if subject.vote(me, stmt) {
                            oracle.insert((me, stmt, false));
                        }
                    }
                    1 => {
                        for (stmt, level) in subject.update(me, &own, &mut check) {
                            if level == VoteLevel::Accepted {
                                oracle.insert((me, stmt, true));
                            }
                        }
                    }
                    _ => {
                        let origin = p(origin);
                        prop_assert_eq!(subject.has_pledge(origin, &stmt, accept),
                                        oracle.contains(&(origin, stmt, accept)));
                        let fresh = if accept {
                            subject.record_accept(origin, stmt)
                        } else {
                            subject.record_vote(origin, stmt)
                        };
                        prop_assert_eq!(fresh, oracle.insert((origin, stmt, accept)));
                        prop_assert!(subject.has_pledge(origin, &stmt, accept));
                    }
                }
                prop_assert_eq!(subject.len(), oracle.len());
            }
            for &(origin, stmt, accept) in &oracle {
                prop_assert!(subject.has_pledge(origin, &stmt, accept));
            }
            let from_scratch = |h: StateHasher| {
                oracle.iter().fold(0u128, |acc, (origin, stmt, accept)| {
                    acc ^ pledge_digest(h.clone(), *origin, stmt, *accept)
                })
            };
            prop_assert_eq!(subject.digest(), from_scratch(StateHasher::new()));
            prop_assert_eq!(subject.digest_perm(&perm), from_scratch(StateHasher::with_renaming(&perm)));
            prop_assert_eq!(subject.digest_perm(&Perm::identity(N as usize)), subject.digest());
        }
    }

    #[test]
    fn a_fork_is_isolated_from_later_envelopes() {
        let sys = paper::fig1_system();
        let mut check = fig1_check();
        let stmt = Statement::Nominate(1);
        let mut a = VoteTracker::new();
        assert!(a.record_vote(p(3), stmt));
        let b = a.clone();
        // A remote accept, an own vote and an own accept (v-blocked by 5)
        // after the fork: none of them reaches it.
        assert!(a.record_accept(p(5), stmt));
        assert!(a.vote(p(4), stmt));
        let changes = a.update(p(4), sys.slices(p(4)), &mut check);
        assert_eq!(changes, vec![(stmt, VoteLevel::Accepted)]);
        for (origin, accept) in [(p(5), true), (p(4), false), (p(4), true)] {
            assert!(a.has_pledge(origin, &stmt, accept));
            assert!(!b.has_pledge(origin, &stmt, accept));
        }
        assert!(b.has_pledge(p(3), &stmt, false));
        assert_eq!((a.len(), b.len()), (4, 1));
        assert_ne!(a.digest(), b.digest());
        assert_eq!(b.level(p(4), stmt), VoteLevel::None);
    }

    #[test]
    fn a_vote_after_the_same_origins_accept_is_a_new_pledge() {
        // The trap of storing "voted-or-accepted": the vote envelope of a
        // process whose accept came first is not a duplicate — the node
        // must still relay it — although it extends no set a rule reads.
        let sys = paper::fig1_system();
        let mut check = fig1_check();
        let stmt = Statement::Prepare(1, 2);
        let mut tracker = VoteTracker::new();
        assert!(tracker.record_accept(p(1), stmt));
        // Drains the worklist (1 is not in 4's slices: nothing fires).
        assert!(tracker
            .update(p(4), sys.slices(p(4)), &mut check)
            .is_empty());
        let (voters, len) = (tracker.voters(stmt), tracker.len());
        assert!(!tracker.has_pledge(p(1), &stmt, false));
        assert!(tracker.record_vote(p(1), stmt), "new, not a duplicate");
        assert!(tracker.has_pledge(p(1), &stmt, false));
        assert!(!tracker.record_vote(p(1), stmt), "now it is one");
        assert_eq!(tracker.len(), len + 1);
        assert_eq!(tracker.voters(stmt), voters);
        assert!(tracker.dirty.is_empty() && !tracker.all_dirty, "worklist");
    }

    #[test]
    fn byzantine_slice_equivocation_pins_latest() {
        let mut check = QuorumCheck::new();
        let a = SliceFamily::explicit([ProcessSet::from_ids([1])]);
        let b = SliceFamily::explicit([ProcessSet::from_ids([2])]);
        assert!(check.record_slices(p(9), &a));
        assert!(!check.record_slices(p(9), &a), "unchanged claim");
        assert!(check.record_slices(p(9), &b));
        assert_eq!(check.slices_of(p(9)), Some(&b));
    }

    /// Recomputes the registry digest from scratch, the way the
    /// incremental bookkeeping must track it.
    fn digest_from_scratch(check: &QuorumCheck) -> u128 {
        check.recorded().fold(0u128, |acc, (i, fam)| {
            acc ^ family_entry_digest(StateHasher::new(), i, fam)
        })
    }

    #[test]
    fn registry_digest_tracks_inserts_and_overwrites() {
        // The state-hash-stability half of the representation swap: the
        // incrementally maintained XOR digest must equal a from-scratch
        // walk of the registry after any insert/overwrite sequence —
        // including the Byzantine re-announcement path that XORs the
        // displaced entry back out.
        let mut check = fig1_check();
        assert_eq!(check.registry_digest(), digest_from_scratch(&check));
        let a = SliceFamily::explicit([ProcessSet::from_ids([1])]);
        let b = SliceFamily::explicit([ProcessSet::from_ids([2])]);
        check.record_slices(p(9), &a);
        assert_eq!(check.registry_digest(), digest_from_scratch(&check));
        check.record_slices(p(9), &b);
        assert_eq!(check.registry_digest(), digest_from_scratch(&check));
        // Re-recording the same family is a digest no-op.
        let before = check.registry_digest();
        assert!(!check.record_slices(p(9), &b));
        assert_eq!(check.registry_digest(), before);
        // Two registries with the same contents agree regardless of
        // insertion order (the digest is a function of the set).
        let mut other = QuorumCheck::new();
        let sys = paper::fig1_system();
        for i in sys.processes().collect::<Vec<_>>().into_iter().rev() {
            other.record_slices(i, sys.slices(i));
        }
        other.record_slices(p(9), &b);
        assert_eq!(other.registry_digest(), check.registry_digest());
    }

    #[test]
    fn registry_digest_under_identity_perm_is_the_digest() {
        let check = fig1_check();
        let id = scup_sim::Perm::identity(8);
        assert_eq!(check.registry_digest_perm(&id), check.registry_digest());
        // A transposition renames entries: digest changes (members moved),
        // and applying it twice round-trips.
        let swap = scup_sim::Perm::from_map(vec![1, 0, 2, 3, 4, 5, 6, 7]);
        let renamed = check.registry_digest_perm(&swap);
        assert_ne!(renamed, check.registry_digest());
    }

    #[test]
    fn forked_checks_share_then_diverge() {
        // Copy-on-write table + Arc-engine semantics: a clone answers queries
        // identically, and divergent slice claims after the fork do not
        // leak across.
        let mut a = fig1_check();
        let sys = paper::fig1_system();
        let q = ProcessSet::from_ids([4, 5, 6]);
        assert!(a.has_quorum_through(p(4), sys.slices(p(4)), &q));
        let mut b = a.clone();
        assert!(b.has_quorum_through(p(4), sys.slices(p(4)), &q));
        // Divergence: b learns a forged claim for 5; a is unaffected.
        b.record_slices(p(5), &SliceFamily::explicit([ProcessSet::from_ids([0])]));
        assert!(a.has_quorum_through(p(4), sys.slices(p(4)), &q));
        assert_ne!(a.registry_digest(), b.registry_digest());
        assert_eq!(a.slices_of(p(5)), Some(sys.slices(p(5))));
    }
}
