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
//! [`VoteTracker`] keeps the per-statement tally; [`QuorumCheck`] holds the
//! slice registry built from received envelopes and answers the
//! quorum/v-blocking queries.
//!
//! Both store their keyed state in a flat copy-on-write
//! table (`table.rs`) — one row per statement (who voted, who
//! accepted, our own level: the abstract per-statement state of federated
//! voting) and one row per process (its latest slice claim). Exploration
//! forks a node per visited state, so a fork is an `Arc` bump; a write
//! after a fork copies the whole table, which the explorer's systems keep
//! at 6 statements or fewer, and a sampled run never forks, so it writes
//! in place. The node's envelope dedup set (`seen.rs`) holds the same
//! pledges keyed by envelope; the invariant tying the two is stated there.

use std::sync::Arc;

use scup_fbqs::{EngineScratch, QuorumEngine, SliceFamily};
use scup_graph::{ProcessId, ProcessSet};
use scup_obs::causal::{ProvEntry, ProvRule, ProvenanceLog};

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
    pub fn record_slices(&mut self, from: ProcessId, slices: &SliceFamily) {
        if let Some((own, _)) = &self.own_row {
            if *own == from {
                // A recorded claim for our own id would fight the own-slices
                // override; force re-compilation on the next quorum query.
                self.own_row = None;
                if let Some(engine) = &mut self.engine {
                    Arc::make_mut(engine).set_slices(from, slices);
                }
                self.record_digested(from, slices);
                return;
            }
        }
        if self.slices.get(&from) == Some(slices) {
            return;
        }
        if let Some(engine) = &mut self.engine {
            Arc::make_mut(engine).set_slices(from, slices);
        }
        self.record_digested(from, slices);
    }

    /// Stores the claim, XORing the displaced entry out of the registry
    /// digest and the new one in.
    fn record_digested(&mut self, from: ProcessId, slices: &SliceFamily) {
        if let Some(old) = self.slices.get(&from) {
            if old == slices {
                return;
            }
            self.digest ^= crate::fingerprint::family_entry_digest(from, old);
        }
        self.digest ^= crate::fingerprint::family_entry_digest(from, slices);
        self.slices.insert(from, slices.clone());
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
    pub fn registry_digest_perm(&self, perm: &scup_sim::Perm) -> u128 {
        self.slices.iter().fold(0u128, |acc, (i, fam)| {
            acc ^ crate::fingerprint::family_entry_digest_perm(*i, fam, perm)
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

/// One statement's tally: the processes that pledged it, and how far this
/// process got on it.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// Voted or accepted (an accept implies a vote).
    voted: ProcessSet,
    accepted: ProcessSet,
    /// Our own level.
    level: VoteLevel,
}

/// Per-statement federated-voting tally for one process.
///
/// Exploration forks a tracker per SCP node per visited state, so the
/// tallies sit in one copy-on-write table keyed by statement: `Clone` is
/// an `Arc` bump, and the first pledge recorded after a fork copies the
/// table (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct VoteTracker {
    /// Every accept is also recorded as a vote and every own pledge joins
    /// `voted`, so the keys are the statement universe.
    tallies: Table<Statement, Tally>,
    /// Statements whose tally changed since the last [`VoteTracker::update`]
    /// — the incremental worklist. A statement's level depends only on its
    /// own tally sets, the caller's slices, and the slice registry, so
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
            tallies: self.tallies.clone(),
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

    /// Records a remote vote.
    pub fn record_vote(&mut self, from: ProcessId, stmt: Statement) {
        if self.tallies.get_or_default(stmt).voted.insert(from) {
            self.mark_dirty(stmt);
        }
    }

    /// Records a remote accept (an accept implies a vote).
    pub fn record_accept(&mut self, from: ProcessId, stmt: Statement) {
        let tally = self.tallies.get_or_default(stmt);
        let fresh_vote = tally.voted.insert(from);
        if tally.accepted.insert(from) || fresh_vote {
            self.mark_dirty(stmt);
        }
    }

    /// Registers our own vote for `stmt` (no-op if we already pledged).
    /// Returns `true` if this is a new vote that should be broadcast.
    pub fn vote(&mut self, self_id: ProcessId, stmt: Statement) -> bool {
        if self.level(stmt) >= VoteLevel::Voted {
            return false;
        }
        let tally = self.tallies.get_or_default(stmt);
        tally.level = VoteLevel::Voted;
        tally.voted.insert(self_id);
        self.mark_dirty(stmt);
        true
    }

    /// Our level on `stmt`.
    pub fn level(&self, stmt: Statement) -> VoteLevel {
        self.tallies.get(&stmt).map_or(VoteLevel::None, |t| t.level)
    }

    /// The accept ratchet: `true` when `stmt` contradicts a statement we
    /// already accepted (or confirmed). A process's plain vote may be
    /// overridden by a v-blocking set, but its accepts are pledges it
    /// never walks back — this is what makes two confirmed commits of
    /// different values impossible whenever correct quorums intersect
    /// (see [`Statement::contradicts`]).
    pub fn accept_would_contradict(&self, stmt: Statement) -> bool {
        self.tallies
            .iter()
            .any(|(s, t)| t.level >= VoteLevel::Accepted && stmt.contradicts(s))
    }

    /// All statements we confirmed.
    pub fn confirmed(&self) -> impl Iterator<Item = Statement> + '_ {
        self.tallies
            .iter()
            .filter(|(_, t)| t.level == VoteLevel::Confirmed)
            .map(|(s, _)| *s)
    }

    /// The processes that voted-or-accepted `stmt`.
    pub fn voters(&self, stmt: Statement) -> ProcessSet {
        self.tallies
            .get(&stmt)
            .map_or_else(ProcessSet::new, |t| t.voted.clone())
    }

    /// The processes that accepted `stmt`.
    pub fn accepters(&self, stmt: Statement) -> ProcessSet {
        self.tallies
            .get(&stmt)
            .map_or_else(ProcessSet::new, |t| t.accepted.clone())
    }

    /// Re-evaluates the accept/confirm rules for every *stale* statement
    /// (tally changed since the last call, or all of them after a registry
    /// change). Returns the statements whose level rose, with their new
    /// level — the caller broadcasts new accepts and reacts to
    /// confirmations.
    ///
    /// Incremental: a statement's level is a monotone function of its own
    /// tally sets, the caller's slices, and the slice registry. Recording
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
            statements.extend_from_slice(self.tallies.keys());
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
            while let Some(tally) = self.tallies.get(&stmt) {
                let level = match tally.level {
                    VoteLevel::None | VoteLevel::Voted => {
                        // Which accept rule fires matters only to the
                        // provenance log; the `||` order matches the old
                        // short-circuit exactly, so the quorum query runs
                        // iff it used to.
                        let rule = if self.accept_would_contradict(stmt) {
                            None
                        } else if check.is_v_blocking(own_slices, &tally.accepted) {
                            Some(ProvRule::AcceptVBlocking)
                        } else if tally.level == VoteLevel::Voted
                            && check.has_quorum_through(self_id, own_slices, &tally.voted)
                        {
                            Some(ProvRule::AcceptQuorum)
                        } else {
                            None
                        };
                        let Some(rule) = rule else { break };
                        if prov.is_enabled() {
                            let (support, label) = match rule {
                                ProvRule::AcceptVBlocking => {
                                    (&tally.accepted, format!("accept {stmt:?}"))
                                }
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
                        VoteLevel::Accepted
                    }
                    VoteLevel::Accepted => {
                        if !check.has_quorum_through(self_id, own_slices, &tally.accepted) {
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
                        VoteLevel::Confirmed
                    }
                    VoteLevel::Confirmed => break,
                };
                let tally = self.tallies.get_or_default(stmt);
                if level == VoteLevel::Accepted {
                    tally.accepted.insert(self_id);
                    tally.voted.insert(self_id);
                }
                tally.level = level;
                changes.push((stmt, level));
            }
        }
        self.stmt_buf = statements;
        changes
    }
}

#[cfg(test)]
mod tests {
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
        assert_eq!(tracker.level(stmt), VoteLevel::Accepted);
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
        assert_eq!(tracker.level(stmt), VoteLevel::Confirmed);
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
        assert!(tracker.accept_would_contradict(commit_w));
        tracker.record_accept(p(5), commit_w);
        tracker.record_accept(p(6), commit_w);
        let changes = tracker.update(p(4), sys.slices(p(4)), &mut check);
        assert!(
            !changes.iter().any(|(s, _)| *s == commit_w),
            "accepted a commit contradicting an accepted commit: {changes:?}"
        );
        assert_eq!(tracker.level(commit_w), VoteLevel::None);

        // A higher prepare of another value (aborting the accepted
        // ballot) is ratcheted out the same way...
        let prepare_w = Statement::Prepare(2, 3);
        tracker.vote(p(4), prepare_w);
        tracker.record_accept(p(5), prepare_w);
        tracker.record_accept(p(6), prepare_w);
        let changes = tracker.update(p(4), sys.slices(p(4)), &mut check);
        assert!(!changes.iter().any(|(s, _)| *s == prepare_w));
        assert_eq!(tracker.level(prepare_w), VoteLevel::Voted);

        // ...while the same value keeps flowing freely.
        let prepare_v = Statement::Prepare(2, 2);
        assert!(!tracker.accept_would_contradict(prepare_v));
        tracker.vote(p(4), prepare_v);
        tracker.record_vote(p(5), prepare_v);
        tracker.record_vote(p(6), prepare_v);
        let changes = tracker.update(p(4), sys.slices(p(4)), &mut check);
        assert!(changes.contains(&(prepare_v, VoteLevel::Accepted)));
    }

    #[test]
    fn byzantine_slice_equivocation_pins_latest() {
        let mut check = QuorumCheck::new();
        let a = SliceFamily::explicit([ProcessSet::from_ids([1])]);
        let b = SliceFamily::explicit([ProcessSet::from_ids([2])]);
        check.record_slices(p(9), &a);
        check.record_slices(p(9), &b);
        assert_eq!(check.slices_of(p(9)), Some(&b));
    }

    /// Recomputes the registry digest from scratch, the way the
    /// incremental bookkeeping must track it.
    fn digest_from_scratch(check: &QuorumCheck) -> u128 {
        check.recorded().fold(0u128, |acc, (i, fam)| {
            acc ^ crate::fingerprint::family_entry_digest(i, fam)
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
        check.record_slices(p(9), &b);
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
        // Persistent-map + Arc-engine semantics: a clone answers queries
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
