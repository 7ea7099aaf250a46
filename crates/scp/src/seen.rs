//! The envelope dedup set of an SCP node.
//!
//! Flood gossip delivers every envelope once per knowledge edge, so more
//! than nine deliveries in ten are duplicates and the dedup test is the
//! node's hottest operation. The set of `(origin, statement, accept)`
//! triples is therefore stored per *statement*, in a flat copy-on-write
//! [`Table`]: a run pledges a few dozen statements however many processes
//! pledge them, so a lookup is one binary search over a few dozen
//! contiguous keys and then one bit test on an inline
//! [`ProcessSet`]. Duplicates are answered by that read alone; only a new
//! envelope takes the write, which copies the table if a fork still
//! shares it (at most 6 statements in any explored system — see
//! [`crate::table`]).
//!
//! The set's contribution to the state fingerprint is its size and an XOR
//! multiset digest over the triples (see [`crate::fingerprint`]), kept
//! incrementally. Both are functions of the triples alone, not of how
//! they are stored.
//!
//! # Relation to the vote tally
//!
//! At every actor-callback boundary the node's
//! [`VoteTracker`](crate::voting::VoteTracker) holds the same pledges:
//! for each statement `s`, `tracker.accepted[s] = seen.accepts[s]` and
//! `tracker.voted[s] = seen.votes[s] ∪ seen.accepts[s]` (an accept implies
//! a vote; own pledges enter the tally first and this set when they are
//! broadcast, inside the same callback). One table could serve both. They
//! stay apart because `VoteTracker` is a public type with no notion of an
//! envelope — and the benchmark's probe surface for federated voting.

use scup_graph::{ProcessId, ProcessSet};
use scup_sim::{Perm, StateHasher};

use crate::fingerprint::hash_statement;
use crate::statement::Statement;
use crate::table::Table;

/// The origins whose pledge for one statement has been seen, by level.
#[derive(Clone, Default)]
struct Pledgers {
    votes: ProcessSet,
    accepts: ProcessSet,
}

impl Pledgers {
    fn level(&self, accept: bool) -> &ProcessSet {
        if accept {
            &self.accepts
        } else {
            &self.votes
        }
    }
}

/// The digest contribution of one `(origin, statement, accept)` envelope.
fn entry_digest(origin: ProcessId, stmt: &Statement, accept: bool) -> u128 {
    let mut h = StateHasher::new();
    h.write_u32(origin.as_u32());
    hash_statement(&mut h, stmt);
    h.write_bool(accept);
    h.finish()
}

/// Envelopes already processed, as a set of `(origin, statement, accept)`
/// triples. Exploration forks a node per visited state: a fork is an `Arc`
/// bump, and the first new envelope after it copies the table.
#[derive(Clone, Default)]
pub(crate) struct SeenEnvelopes {
    by_stmt: Table<Statement, Pledgers>,
    /// Number of triples.
    len: usize,
    /// XOR of [`entry_digest`] over the triples.
    digest: u128,
}

impl SeenEnvelopes {
    /// `true` when the envelope has been recorded.
    pub(crate) fn contains(&self, origin: ProcessId, stmt: &Statement, accept: bool) -> bool {
        self.by_stmt
            .get(stmt)
            .is_some_and(|p| p.level(accept).contains(origin))
    }

    /// Records an envelope. Returns `true` when it is new.
    pub(crate) fn note(&mut self, origin: ProcessId, stmt: Statement, accept: bool) -> bool {
        if self.contains(origin, &stmt, accept) {
            return false;
        }
        let pledgers = self.by_stmt.get_or_default(stmt);
        if accept {
            pledgers.accepts.insert(origin);
        } else {
            pledgers.votes.insert(origin);
        }
        self.len += 1;
        self.digest ^= entry_digest(origin, &stmt, accept);
        true
    }

    /// Number of recorded envelopes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The multiset digest of the recorded envelopes.
    pub(crate) fn digest(&self) -> u128 {
        self.digest
    }

    /// [`SeenEnvelopes::digest`] of the set with every origin renamed
    /// through `perm`. XOR is order-independent, so renaming each entry and
    /// folding needs no re-sorting pass.
    pub(crate) fn digest_perm(&self, perm: &Perm) -> u128 {
        let mut digest = 0;
        for (stmt, pledgers) in self.by_stmt.iter() {
            for accept in [false, true] {
                for origin in pledgers.level(accept) {
                    digest ^= entry_digest(perm.apply(origin), stmt, accept);
                }
            }
        }
        digest
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

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
        /// The reference is the representation this type replaced: an
        /// ordered set of the triples themselves.
        #[test]
        fn matches_a_set_of_triples(
            envelopes in proptest::collection::vec(
                (0u32..N, statement(), proptest::bool::ANY),
                0..200,
            ),
            swaps in proptest::collection::vec(0u32..N, (N - 1) as usize),
        ) {
            let perm = perm_from(&swaps);
            let mut subject = SeenEnvelopes::default();
            let mut oracle: BTreeSet<(ProcessId, Statement, bool)> = BTreeSet::new();
            for (origin, stmt, accept) in envelopes {
                let origin = ProcessId::new(origin);
                prop_assert_eq!(subject.contains(origin, &stmt, accept),
                                oracle.contains(&(origin, stmt, accept)));
                prop_assert_eq!(subject.note(origin, stmt, accept),
                                oracle.insert((origin, stmt, accept)));
                prop_assert!(subject.contains(origin, &stmt, accept));
                prop_assert_eq!(subject.len(), oracle.len());
            }
            let from_scratch = |rename: &dyn Fn(ProcessId) -> ProcessId| {
                oracle.iter().fold(0u128, |acc, (origin, stmt, accept)| {
                    acc ^ entry_digest(rename(*origin), stmt, *accept)
                })
            };
            prop_assert_eq!(subject.digest(), from_scratch(&|i| i));
            prop_assert_eq!(subject.digest_perm(&perm), from_scratch(&|i| perm.apply(i)));
            prop_assert_eq!(subject.digest_perm(&Perm::identity(N as usize)), subject.digest());
        }
    }

    #[test]
    fn a_fork_is_isolated_from_later_envelopes() {
        let mut a = SeenEnvelopes::default();
        let p = ProcessId::new(3);
        assert!(a.note(p, Statement::Nominate(1), false));
        let b = a.clone();
        assert!(a.note(p, Statement::Nominate(1), true));
        assert!(!b.contains(p, &Statement::Nominate(1), true));
        assert_eq!((a.len(), b.len()), (2, 1));
        assert_ne!(a.digest(), b.digest());
    }
}
