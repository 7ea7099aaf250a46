//! `VoteTracker` against a naive reference of federated voting.
//!
//! The reference shares nothing with `voting.rs`: ordered maps of ordered
//! sets, a full ascending rescan on every update (no dirty tracking), the
//! quorum rule as Algorithm 1's fixpoint over `SliceFamily` predicates.
//! Random interleavings of every recording call must agree on the returned
//! changes *in order* — that order is the order of a node's broadcasts —
//! on whether each recorded pledge was new (the node's envelope dedup
//! answer) and on every read-out; a fork taken mid-sequence and the
//! original must not see each other's later writes. Counters and values
//! sit at both ends of `u64`, so a key encoding that is not the derived
//! `Statement` order on all of it fails here.
//!
//! Two systems are driven. The paper's Fig. 1, explicit families, on a
//! pool of 4 statements. And the `all_subsets` families Algorithm 2 gives
//! every sampled run, on a pool of 14 statements — enough for the pledge
//! table to outgrow its binary search and answer through its hashed
//! index — with two sink members whose recorded claims are forged, one
//! process whose slices were never recorded and origins past the
//! registry. [`the_cases_reach_every_rule`] checks that the second case
//! reaches what it is for.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use scup_fbqs::{paper, SliceFamily};
use scup_graph::{ProcessId, ProcessSet};
use scup_scp::{QuorumCheck, Statement, VoteLevel, VoteTracker};

/// The slices a tracker's quorum queries see.
struct System {
    /// The slices process `i` declares: its own slices when it is `me`.
    declared: Vec<SliceFamily>,
    /// The registry: the claims recorded from received envelopes. A
    /// process without one cannot certify anybody's quorum.
    recorded: BTreeMap<u32, SliceFamily>,
}

impl System {
    /// Fig. 1 of the paper (Section III-D), every claim recorded.
    fn fig1() -> Self {
        let sys = paper::fig1_system();
        let declared: Vec<SliceFamily> = sys.processes().map(|i| sys.slices(i).clone()).collect();
        let recorded = (0u32..).zip(declared.iter().cloned()).collect();
        System { declared, recorded }
    }

    /// Algorithm 2's slices for the sink [`SINK`] at `f = 1`: members
    /// need 4 of its 5, the other processes 2. The members in [`FORGED`]
    /// attach a forged claim instead, any one of themselves, so the
    /// registry holds quorums in which a non-member's slice lies but
    /// which do not block it. Process [`UNRECORDED`] never sent an
    /// envelope, and ids from [`DECLARED`] on are past the registry.
    fn all_subsets() -> Self {
        let sink = ProcessSet::from_ids(SINK);
        let declared: Vec<SliceFamily> = (0..DECLARED)
            .map(|i| SliceFamily::all_subsets(sink.clone(), if SINK.contains(&i) { 4 } else { 2 }))
            .collect();
        let mut recorded: BTreeMap<u32, SliceFamily> =
            (0u32..).zip(declared.iter().cloned()).collect();
        recorded.remove(&UNRECORDED);
        for i in FORGED {
            recorded.insert(i, SliceFamily::all_subsets(ProcessSet::from_ids(FORGED), 1));
        }
        System { declared, recorded }
    }

    fn own(&self, me: u32) -> &SliceFamily {
        &self.declared[me as usize]
    }

    fn check(&self) -> QuorumCheck {
        let mut check = QuorumCheck::new();
        for (&i, family) in &self.recorded {
            check.record_slices(ProcessId::new(i), family);
        }
        check
    }
}

/// The sink of [`System::all_subsets`].
const SINK: [u32; 5] = [0, 1, 2, 3, 4];
/// The sink members of [`System::all_subsets`] whose recorded claim is
/// forged.
const FORGED: [u32; 2] = [3, 4];
/// Processes with declared slices in [`System::all_subsets`].
const DECLARED: u32 = 9;
/// The process of [`System::all_subsets`] whose claim is not recorded.
const UNRECORDED: u32 = 7;
/// Ids the read-outs probe: every id any case draws.
const IDS: u32 = 12;

/// How often a walk reached each situation a case is meant to reach.
type Coverage = BTreeMap<&'static str, usize>;

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
/// `me` is judged by its own slices, everybody else by the registry; a
/// process without a recorded claim certifies nothing.
fn has_quorum_through(
    sys: &System,
    me: u32,
    candidates: &BTreeSet<u32>,
    coverage: &mut Coverage,
) -> bool {
    if candidates
        .iter()
        .any(|i| *i != me && !sys.recorded.contains_key(i))
    {
        *coverage
            .entry("candidate without a recorded claim")
            .or_default() += 1;
    }
    let mut q = candidates.clone();
    let found = loop {
        let set = as_set(&q);
        let keep = |i: &u32| {
            let family = if *i == me {
                Some(sys.own(me))
            } else {
                sys.recorded.get(i)
            };
            family.is_some_and(|f| f.has_slice_within(&set))
        };
        let before = q.len();
        q.retain(keep);
        if q.len() == before {
            break q.contains(&me);
        }
    };
    let what = if found && !sys.own(me).is_v_blocked_by(&as_set(candidates)) {
        "quorum found in candidates that do not block me"
    } else if found {
        "quorum found"
    } else if sys.own(me).has_slice_within(&as_set(candidates)) {
        "own slice inside the candidates, no quorum"
    } else {
        "no own slice inside the candidates"
    };
    *coverage.entry(what).or_default() += 1;
    found
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

    fn update(
        &mut self,
        sys: &System,
        me: u32,
        coverage: &mut Coverage,
    ) -> Vec<(Statement, VoteLevel)> {
        let own = sys.own(me);
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
                                    && has_quorum_through(sys, me, &voted, coverage)));
                        if !accept {
                            break;
                        }
                        self.record(me, stmt, true);
                        VoteLevel::Accepted
                    }
                    VoteLevel::Accepted if has_quorum_through(sys, me, accepted, coverage) => {
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
    fn apply(
        &mut self,
        sys: &System,
        me: u32,
        (kind, from, stmt): (u32, u32, Statement),
        coverage: &mut Coverage,
    ) {
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
                let expected = self.reference.update(sys, me, coverage);
                assert_eq!(
                    self.tracker
                        .update(ProcessId::new(me), sys.own(me), &mut self.check),
                    expected,
                    "changes, in order"
                );
                for (_, level) in expected {
                    let what = match level {
                        VoteLevel::Confirmed => "confirmed",
                        _ => "accepted",
                    };
                    *coverage.entry(what).or_default() += 1;
                }
            }
        }
        if self.reference.pledges.len() > 8 {
            *coverage.entry("more than 8 statements").or_default() += 1;
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
            for i in 0..IDS {
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

/// `(kind, from, index into the case's statement pool)`; kinds above 3
/// are updates, so one op in three re-evaluates.
type Op = (u32, u32, usize);

/// `(me, statement pool, ops, ops on the fork, where the fork is taken)`.
type Case = (u32, Vec<Statement>, Vec<Op>, Vec<Op>, usize);

/// Drives a tracker and the [`Reference`] through `case` on `sys`,
/// asserting after every op that they agree.
fn walk(sys: &System, (me, pool, ops, fork_ops, fork_at): Case) -> Coverage {
    let mut coverage = Coverage::new();
    let mut original = Pair {
        tracker: VoteTracker::new(),
        check: sys.check(),
        reference: Reference::default(),
    };
    let mut fork = None;
    for (i, (kind, from, s)) in ops.into_iter().enumerate() {
        if i == fork_at {
            fork = Some(original.clone());
        }
        original.apply(sys, me, (kind, from, pool[s]), &mut coverage);
        original.assert_same_readouts(me, &pool);
    }
    let mut fork = fork.unwrap_or_else(|| original.clone());
    // The original's later writes did not reach the fork ...
    fork.assert_same_readouts(me, &pool);
    for (kind, from, s) in fork_ops {
        fork.apply(sys, me, (kind, from, pool[s]), &mut coverage);
        fork.assert_same_readouts(me, &pool);
    }
    // ... nor the fork's the original.
    original.assert_same_readouts(me, &pool);
    coverage
}

/// Counters and values at both ends of `u64`, `spread` values at the low
/// end.
fn statement(spread: u64) -> impl Strategy<Value = Statement> {
    let edge = move || prop_oneof![0u64..spread, u64::MAX - 1..=u64::MAX];
    (0u32..3, edge(), edge()).prop_map(|(kind, n, v)| match kind {
        0 => Statement::Nominate(v),
        1 => Statement::Prepare(n, v),
        _ => Statement::Commit(n, v),
    })
}

/// Fig. 1's quorums live in its sink `{4, 5, 6, 7}`: half the draws land
/// there so thresholds get crossed; the rest cover the whole system and
/// two ids that never declared slices.
fn fig1_process() -> impl Strategy<Value = u32> {
    prop_oneof![4u32..8, 0u32..10]
}

/// A small pool, so pledges pile up on a statement and cascades run.
fn fig1_case() -> impl Strategy<Value = Case> {
    let ops = || proptest::collection::vec((0u32..6, fig1_process(), 0usize..4), 0..80);
    (
        fig1_process().prop_map(|i| i % 8),
        proptest::collection::vec(statement(3), 4),
        ops(),
        ops(),
        0usize..80,
    )
}

/// Half the draws land in [`SINK`], where the thresholds are; the rest
/// cover [`UNRECORDED`] and ids past the registry. Half the ops go to the
/// pool's first 3 statements, so cascades run on them while the other
/// 11 fill the table past its binary search.
fn all_subsets_case() -> impl Strategy<Value = Case> {
    let process = || prop_oneof![0u32..5, 0u32..IDS];
    let ops = move || {
        proptest::collection::vec(
            (0u32..6, process(), prop_oneof![0usize..3, 0usize..14]),
            0..120,
        )
    };
    (
        0u32..DECLARED,
        proptest::collection::vec(statement(6), 14),
        ops(),
        ops(),
        0usize..120,
    )
}

proptest! {
    #[test]
    fn vote_tracker_matches_the_naive_reference(case in fig1_case()) {
        walk(&System::fig1(), case);
    }

    #[test]
    fn vote_tracker_matches_the_naive_reference_on_all_subsets(case in all_subsets_case()) {
        walk(&System::all_subsets(), case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The same, many more cases.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only; see the exhaustive canaries CI step")]
    fn vote_tracker_matches_the_naive_reference_on_all_subsets_exhaustive(
        case in all_subsets_case(),
    ) {
        walk(&System::all_subsets(), case);
    }
}

/// The cases of `vote_tracker_matches_the_naive_reference_on_all_subsets`
/// reach what they are for, so a generator change cannot quietly stop
/// covering it: the hashed table, both ends of the quorum query's early
/// out, a quorum an early out on v-blocking would miss, accepts and
/// confirmations, and candidates the registry knows nothing of.
#[test]
fn the_cases_reach_every_rule() {
    let sys = System::all_subsets();
    let mut total = Coverage::new();
    for case in 0..64 {
        let mut rng = proptest::rng_for(
            "vote_tracker_matches_the_naive_reference_on_all_subsets",
            case,
        );
        for (what, n) in walk(&sys, all_subsets_case().new_value(&mut rng)) {
            *total.entry(what).or_default() += n;
        }
    }
    for what in [
        "more than 8 statements",
        "no own slice inside the candidates",
        "own slice inside the candidates, no quorum",
        "quorum found",
        "quorum found in candidates that do not block me",
        "candidate without a recorded claim",
        "accepted",
        "confirmed",
    ] {
        assert!(
            total.get(what).is_some_and(|&n| n > 0),
            "no case reached: {what} ({total:?})"
        );
    }
}
