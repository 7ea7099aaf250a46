//! The naive quorum predicates: the reference the compiled `QuorumEngine`
//! is pinned against.
//!
//! Every function here reads the paper's definitions literally, off the
//! declared `SliceFamily` values and through their enum dispatch, and
//! none of them touches `Fbqs::engine`:
//!
//! - [`is_quorum`] is Definition 1 / Algorithm 1, member by member;
//! - [`quorum_closure`] is the greatest fixed point by full rescans: every
//!   round re-tests every survivor against the current candidate set;
//! - [`enumerate_quorums`] tests every non-empty subset with [`is_quorum`];
//! - [`is_v_blocking`] / [`blocked_processes`] ask each family whether a
//!   set meets every slice;
//! - [`intertwined_violation_exists`] is Definition 2 (or its threshold
//!   form) over *every* pair of quorums of the members, not only the
//!   minimal ones the product checker walks.
//!
//! So an engine check that compares against this file cannot compare the
//! engine with itself, as a check against `quorum::is_quorum` (which asks
//! the engine) would.
//!
//! The file is a module, not a suite: `tests/proptests.rs` includes it with
//! `mod reference;`, and the crate's unit tests with a `#[path]` module in
//! `src/lib.rs`. Compiled as a test target of its own it holds no tests.

use scup_fbqs::Fbqs;
use scup_graph::{ProcessId, ProcessSet};

/// Definition 1: `q` is non-empty and each member has a slice inside `q`.
pub fn is_quorum(sys: &Fbqs, q: &ProcessSet) -> bool {
    !q.is_empty() && q.iter().all(|i| sys.slices(i).has_slice_within(q))
}

/// The largest quorum inside `u` (or the empty set): discard every member
/// without a slice inside the current set, all at once, until none is
/// discarded.
pub fn quorum_closure(sys: &Fbqs, u: &ProcessSet) -> ProcessSet {
    let mut current = u.clone();
    loop {
        let losers: Vec<ProcessId> = current
            .iter()
            .filter(|&i| !sys.slices(i).has_slice_within(&current))
            .collect();
        if losers.is_empty() {
            return current;
        }
        for i in losers {
            current.remove(i);
        }
    }
}

/// Every quorum inside `universe`, in the order of the subset masks over
/// `universe`'s ascending ids (the order `quorum::enumerate_quorums`
/// returns them in).
pub fn enumerate_quorums(sys: &Fbqs, universe: &ProcessSet) -> Vec<ProcessSet> {
    let ids = universe.to_vec();
    (1usize..1 << ids.len())
        .map(|mask| {
            ids.iter()
                .enumerate()
                .filter(|(b, _)| mask & (1 << b) != 0)
                .map(|(_, &id)| id)
                .collect::<ProcessSet>()
        })
        .filter(|q| is_quorum(sys, q))
        .collect()
}

/// `b` meets every slice of `i` (vacuously true for a process without
/// slices).
pub fn is_v_blocking(sys: &Fbqs, i: ProcessId, b: &ProcessSet) -> bool {
    sys.slices(i).is_v_blocked_by(b)
}

/// The processes of `sys` for which `b` is v-blocking.
pub fn blocked_processes(sys: &Fbqs, b: &ProcessSet) -> ProcessSet {
    sys.processes()
        .filter(|&i| is_v_blocking(sys, i, b))
        .collect()
}

/// Whether some pair of quorums inside `universe`, each containing a
/// member of `members`, fails `ok` — the property an intertwined check
/// must report a violation for.
pub fn intertwined_violation_exists<P>(
    sys: &Fbqs,
    members: &ProcessSet,
    universe: &ProcessSet,
    ok: P,
) -> bool
where
    P: Fn(&ProcessSet, &ProcessSet) -> bool,
{
    let theirs: Vec<ProcessSet> = enumerate_quorums(sys, universe)
        .into_iter()
        .filter(|q| q.intersects(members))
        .collect();
    theirs.iter().any(|qi| theirs.iter().any(|qj| !ok(qi, qj)))
}
