//! `VoteTracker` against a naive reference of federated voting.
//!
//! The reference shares nothing with `voting.rs`: ordered maps of ordered
//! sets, a full ascending rescan on every update (no dirty tracking), the
//! quorum rule as Algorithm 1's fixpoint over `SliceFamily` predicates on
//! the paper's Fig. 1 system. Random interleavings of every recording call
//! must agree on the returned changes *in order* — that order is the order
//! of a node's broadcasts — on whether each recorded pledge was new (the
//! node's envelope dedup answer) and on every read-out; a fork taken
//! mid-sequence and the original must not see each other's later writes.
//! Counters and values sit at both ends of `u64`, so a key encoding that
//! is not the derived `Statement` order on all of it fails here.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use scup_fbqs::{paper, Fbqs};
use scup_graph::{ProcessId, ProcessSet};
use scup_scp::{QuorumCheck, Statement, VoteLevel, VoteTracker};

#[derive(Clone, Default)]
struct Reference {
    /// Statement → (votes, accepts), each exactly as pledged: "voted or
    /// accepted" is their union, taken where a rule reads it. The own
    /// vote and accept are `me` in these sets, however they got there —
    /// cast, derived, or recorded like a remote pledge (as a node replays
    /// its journal).
    pledges: BTreeMap<Statement, (BTreeSet<u32>, BTreeSet<u32>)>,
    confirmed: BTreeSet<Statement>,
}

fn as_set(ids: &BTreeSet<u32>) -> ProcessSet {
    ProcessSet::from_ids(ids.iter().copied())
}

/// Algorithm 1 on the largest candidate quorum: drop members without a
/// slice inside the set until none is left to drop; `me` must survive.
/// Ids beyond the system declared no slices and certify nothing.
fn has_quorum_through(sys: &Fbqs, me: u32, candidates: &BTreeSet<u32>) -> bool {
    let mut q = candidates.clone();
    loop {
        let set = as_set(&q);
        let keep = |i: &u32| {
            (*i as usize) < sys.n() && sys.slices(ProcessId::new(*i)).has_slice_within(&set)
        };
        let before = q.len();
        q.retain(keep);
        if q.len() == before {
            return q.contains(&me);
        }
    }
}

impl Reference {
    fn level(&self, me: u32, stmt: Statement) -> VoteLevel {
        let (votes, accepts) = self.pledges.get(&stmt).cloned().unwrap_or_default();
        if self.confirmed.contains(&stmt) {
            VoteLevel::Confirmed
        } else if accepts.contains(&me) {
            VoteLevel::Accepted
        } else if votes.contains(&me) {
            VoteLevel::Voted
        } else {
            VoteLevel::None
        }
    }

    fn vote(&mut self, me: u32, stmt: Statement) -> bool {
        self.level(me, stmt) == VoteLevel::None && self.record(me, stmt, false)
    }

    /// `true` when the pledge was not on file yet.
    fn record(&mut self, from: u32, stmt: Statement, accept: bool) -> bool {
        let (votes, accepts) = self.pledges.entry(stmt).or_default();
        if accept {
            accepts.insert(from)
        } else {
            votes.insert(from)
        }
    }

    fn update(&mut self, sys: &Fbqs, me: u32) -> Vec<(Statement, VoteLevel)> {
        let own = sys.slices(ProcessId::new(me));
        let mut changes = Vec::new();
        let statements: Vec<Statement> = self.pledges.keys().copied().collect();
        for stmt in statements {
            loop {
                let (votes, accepted) = &self.pledges[&stmt];
                let voted: BTreeSet<u32> = votes.union(accepted).copied().collect();
                let level = self.level(me, stmt);
                let next = match level {
                    VoteLevel::None | VoteLevel::Voted => {
                        let ratcheted = self
                            .pledges
                            .iter()
                            .any(|(s, (_, a))| a.contains(&me) && stmt.contradicts(s));
                        let accept = !ratcheted
                            && (own.is_v_blocked_by(&as_set(accepted))
                                || (level == VoteLevel::Voted
                                    && has_quorum_through(sys, me, &voted)));
                        if !accept {
                            break;
                        }
                        self.record(me, stmt, true);
                        VoteLevel::Accepted
                    }
                    VoteLevel::Accepted if has_quorum_through(sys, me, accepted) => {
                        self.confirmed.insert(stmt);
                        VoteLevel::Confirmed
                    }
                    _ => break,
                };
                changes.push((stmt, next));
            }
        }
        changes
    }
}

/// One system under test: the tracker with its registry, and the model.
#[derive(Clone)]
struct Pair {
    tracker: VoteTracker,
    check: QuorumCheck,
    reference: Reference,
}

impl Pair {
    fn apply(&mut self, sys: &Fbqs, me: u32, (kind, from, stmt): (u32, u32, Statement)) {
        match kind {
            0 => assert_eq!(
                self.tracker.vote(ProcessId::new(me), stmt),
                self.reference.vote(me, stmt)
            ),
            1 => assert_eq!(
                self.tracker.record_vote(ProcessId::new(from), stmt),
                self.reference.record(from, stmt, false)
            ),
            2 => assert_eq!(
                self.tracker.record_accept(ProcessId::new(from), stmt),
                self.reference.record(from, stmt, true)
            ),
            // The registry did not change, so a full rescan finds nothing
            // the worklist would not: a no-op for the model.
            3 => self.tracker.invalidate_all(),
            _ => {
                let me_id = ProcessId::new(me);
                assert_eq!(
                    self.tracker
                        .update(me_id, sys.slices(me_id), &mut self.check),
                    self.reference.update(sys, me),
                    "changes, in order"
                );
            }
        }
    }

    fn assert_same_readouts(&self, me: u32, pool: &[Statement]) {
        for &stmt in pool {
            let (votes, accepted) = self
                .reference
                .pledges
                .get(&stmt)
                .cloned()
                .unwrap_or_default();
            for i in 0..10 {
                let id = ProcessId::new(i);
                assert_eq!(
                    self.tracker.has_pledge(id, &stmt, false),
                    votes.contains(&i)
                );
                assert_eq!(
                    self.tracker.has_pledge(id, &stmt, true),
                    accepted.contains(&i)
                );
            }
            let voted: BTreeSet<u32> = votes.union(&accepted).copied().collect();
            assert_eq!(
                self.tracker.level(ProcessId::new(me), stmt),
                self.reference.level(me, stmt),
                "{stmt}"
            );
            assert_eq!(self.tracker.voters(stmt), as_set(&voted), "{stmt}");
            assert_eq!(self.tracker.accepters(stmt), as_set(&accepted), "{stmt}");
        }
        let confirmed: Vec<Statement> = self.reference.confirmed.iter().copied().collect();
        assert_eq!(self.tracker.confirmed().collect::<Vec<_>>(), confirmed);
    }
}

fn statement() -> impl Strategy<Value = Statement> {
    let edge = || prop_oneof![0u64..3, u64::MAX - 1..=u64::MAX];
    (0u32..3, edge(), edge()).prop_map(|(kind, n, v)| match kind {
        0 => Statement::Nominate(v),
        1 => Statement::Prepare(n, v),
        _ => Statement::Commit(n, v),
    })
}

/// Fig. 1's quorums live in its sink `{4, 5, 6, 7}`: half the draws land
/// there so thresholds get crossed; the rest cover the whole system and
/// two ids that never declared slices.
fn process() -> impl Strategy<Value = u32> {
    prop_oneof![4u32..8, 0u32..10]
}

/// `(kind, from, index into the case's statement pool)`; kinds above 3 are
/// updates, so one op in three re-evaluates.
fn op_sequence() -> impl Strategy<Value = Vec<(u32, u32, usize)>> {
    proptest::collection::vec((0u32..6, process(), 0usize..4), 0..80)
}

proptest! {
    #[test]
    fn vote_tracker_matches_the_naive_reference(
        me in process().prop_map(|i| i % 8),
        // A small pool, so pledges pile up on a statement and cascades run.
        pool in proptest::collection::vec(statement(), 4),
        ops in op_sequence(),
        fork_ops in op_sequence(),
        fork_at in 0usize..80,
    ) {
        let sys = paper::fig1_system();
        let mut check = QuorumCheck::new();
        for i in sys.processes() {
            check.record_slices(i, sys.slices(i));
        }
        let mut original = Pair { tracker: VoteTracker::new(), check, reference: Reference::default() };
        let mut fork = None;
        for (i, (kind, from, s)) in ops.into_iter().enumerate() {
            if i == fork_at {
                fork = Some(original.clone());
            }
            original.apply(&sys, me, (kind, from, pool[s]));
            original.assert_same_readouts(me, &pool);
        }
        let mut fork = fork.unwrap_or_else(|| original.clone());
        // The original's later writes did not reach the fork ...
        fork.assert_same_readouts(me, &pool);
        for (kind, from, s) in fork_ops {
            fork.apply(&sys, me, (kind, from, pool[s]));
            fork.assert_same_readouts(me, &pool);
        }
        // ... nor the fork's the original.
        original.assert_same_readouts(me, &pool);
    }
}
