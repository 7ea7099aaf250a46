//! Quorum predicates and discovery: Algorithm 1 of the paper, quorum
//! closure, minimal quorums and bounded enumeration.
//!
//! Definition 1: *a set of processes `Q` is a quorum if each process
//! `i ∈ Q` has at least a slice contained within `Q`*. We additionally
//! require quorums to be non-empty (the empty set satisfies the definition
//! vacuously but is useless and excluded, as in the Stellar literature).

use scup_graph::{ProcessId, ProcessSet};

use crate::Fbqs;

/// Algorithm 1 — `is_quorum(Q, S_Q)`: returns `true` iff every member of
/// `q` has a slice contained in `q`, per the system's declared slices.
/// The empty set is not a quorum.
pub fn is_quorum(sys: &Fbqs, q: &ProcessSet) -> bool {
    sys.engine().is_quorum(q)
}

/// Returns `true` if `q` is a quorum *for process `i`* (Definition 1's
/// follow-up): `q` is a quorum and `i ∈ q`.
pub fn is_quorum_for(sys: &Fbqs, q: &ProcessSet, i: ProcessId) -> bool {
    q.contains(i) && is_quorum(sys, q)
}

/// Computes the **quorum closure** of `u`: the greatest fixed point obtained
/// by repeatedly discarding members of `u` that have no slice inside the
/// remaining set. The result is the largest quorum contained in `u` (the
/// union of all quorums `⊆ u`), or the empty set if none exists.
///
/// Quorum availability checks reduce to this closure: a set `I` owns a
/// quorum for each of its members iff `quorum_closure(I) == I`.
pub fn quorum_closure(sys: &Fbqs, u: &ProcessSet) -> ProcessSet {
    sys.engine().quorum_closure(u)
}

/// Returns `true` if some (non-empty) quorum is contained in `u`.
pub fn contains_quorum(sys: &Fbqs, u: &ProcessSet) -> bool {
    sys.engine().contains_quorum(u)
}

/// Returns the largest quorum of process `i` contained in `u`, if any:
/// the quorum closure of `u`, provided it still contains `i`.
pub fn largest_quorum_of_within(sys: &Fbqs, i: ProcessId, u: &ProcessSet) -> Option<ProcessSet> {
    let c = quorum_closure(sys, u);
    c.contains(i).then_some(c)
}

/// Greedily shrinks a quorum of `i` to an inclusion-minimal quorum of `i`.
///
/// Starting from the closure of `u`, repeatedly tries to drop one member
/// (re-closing after each drop) while `i` survives. The result is a minimal
/// quorum containing `i` (no proper sub-quorum contains `i`), though not
/// necessarily one of minimum cardinality.
pub fn minimal_quorum_of_within(sys: &Fbqs, i: ProcessId, u: &ProcessSet) -> Option<ProcessSet> {
    let mut q = largest_quorum_of_within(sys, i, u)?;
    loop {
        let mut shrunk = false;
        for cand in q.clone().iter() {
            if cand == i {
                continue;
            }
            let mut trial = q.clone();
            trial.remove(cand);
            let closed = quorum_closure(sys, &trial);
            if closed.contains(i) && closed.len() < q.len() {
                q = closed;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return Some(q);
        }
    }
}

/// Enumerates **all** quorums contained in `universe`.
///
/// Exponential in `|universe|`; returns `None` when `2^|universe|` exceeds
/// `limit` so callers must opt into the cost. Intended for verification on
/// small systems (the paper's figures have `n ≤ 8`).
pub fn enumerate_quorums(
    sys: &Fbqs,
    universe: &ProcessSet,
    limit: usize,
) -> Option<Vec<ProcessSet>> {
    let ids = universe.to_vec();
    let n = ids.len();
    if n >= usize::BITS as usize - 1 || (1usize << n) > limit {
        return None;
    }
    let engine = sys.engine();
    let mut scratch = engine.scratch();
    let mut out = Vec::new();
    for mask in 1usize..(1 << n) {
        let q: ProcessSet = ids
            .iter()
            .enumerate()
            .filter(|(b, _)| mask & (1 << b) != 0)
            .map(|(_, &id)| id)
            .collect();
        if engine.is_quorum_in(&q, &mut scratch) {
            out.push(q);
        }
    }
    Some(out)
}

/// Enumerates the inclusion-minimal quorums contained in `universe`
/// (exponential; see [`enumerate_quorums`]).
pub fn minimal_quorums(sys: &Fbqs, universe: &ProcessSet, limit: usize) -> Option<Vec<ProcessSet>> {
    let all = enumerate_quorums(sys, universe, limit)?;
    Some(minimal_elements(all.iter()))
}

/// Enumerates the inclusion-minimal quorums **of process `i`** (minimal
/// elements of `{Q : Q quorum, i ∈ Q}`) within `universe`.
///
/// Note these are not just "minimal quorums containing `i`": a non-minimal
/// quorum may be a minimal *quorum of `i`* when no smaller quorum contains
/// `i`.
pub fn minimal_quorums_of(
    sys: &Fbqs,
    i: ProcessId,
    universe: &ProcessSet,
    limit: usize,
) -> Option<Vec<ProcessSet>> {
    let all = enumerate_quorums(sys, universe, limit)?;
    Some(minimal_containing(&all, i))
}

/// The inclusion-minimal elements of `all` that contain `i` — shared by
/// the per-process minimal-quorum queries and the intertwined sweeps
/// (which enumerate the universe once and slice it per member).
pub(crate) fn minimal_containing(all: &[ProcessSet], i: ProcessId) -> Vec<ProcessSet> {
    minimal_elements(all.iter().filter(|q| q.contains(i)))
}

/// The inclusion-minimal sets among `sets`.
fn minimal_elements<'a>(sets: impl Iterator<Item = &'a ProcessSet> + Clone) -> Vec<ProcessSet> {
    sets.clone()
        .filter(|q| !sets.clone().any(|other| other != *q && other.is_subset(q)))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// The slice assignment of Section III-D over Fig. 1 (0-based).
    fn fig1() -> Fbqs {
        paper::fig1_system()
    }

    #[test]
    fn paper_quorum_567() {
        // Q5 = Q6 = Q7 = {5,6,7} → 0-based {4,5,6}.
        let sys = fig1();
        let q = ProcessSet::from_ids([4, 5, 6]);
        assert!(is_quorum(&sys, &q));
        assert!(is_quorum_for(&sys, &q, p(4)));
        assert!(is_quorum_for(&sys, &q, p(5)));
        assert!(is_quorum_for(&sys, &q, p(6)));
        assert!(!is_quorum_for(&sys, &q, p(0)));
    }

    #[test]
    fn paper_non_quorums() {
        let sys = fig1();
        // {5,6} (0-based {4,5}): 4 needs {5,6}={4's slice {6,7}... }
        assert!(!is_quorum(&sys, &ProcessSet::from_ids([4, 5])));
        assert!(!is_quorum(&sys, &ProcessSet::new()));
        // Process 2 (paper) alone: S2 = {{4}}, {1} has no slice inside.
        assert!(!is_quorum(&sys, &ProcessSet::from_ids([1])));
    }

    #[test]
    fn whole_correct_set_is_quorum_in_fig1() {
        // The paper: C2 = {1,...,7} (0-based {0..6}) is a consensus cluster,
        // hence a quorum.
        let sys = fig1();
        let w = ProcessSet::from_ids([0, 1, 2, 3, 4, 5, 6]);
        assert!(is_quorum(&sys, &w));
    }

    #[test]
    fn closure_finds_largest_quorum() {
        let sys = fig1();
        let all = sys.universe();
        // Closure of everything: every process keeps a slice (8 declared
        // nothing usable? paper gives no S_8 — see paper::fig1_system).
        let c = quorum_closure(&sys, &all);
        assert!(is_quorum(&sys, &c));
        // Closure of the correct processes is exactly the correct set.
        let w = ProcessSet::from_ids([0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(quorum_closure(&sys, &w), w);
        // Closure of {5,6} (0-based {4,5}) is empty: no quorum inside.
        assert!(quorum_closure(&sys, &ProcessSet::from_ids([4, 5])).is_empty());
        assert!(!contains_quorum(&sys, &ProcessSet::from_ids([4, 5])));
    }

    #[test]
    fn closure_is_monotone() {
        let sys = fig1();
        let small = ProcessSet::from_ids([4, 5, 6]);
        let big = ProcessSet::from_ids([2, 4, 5, 6]);
        assert!(quorum_closure(&sys, &small).is_subset(&quorum_closure(&sys, &big)));
    }

    #[test]
    fn minimal_quorum_of_members() {
        let sys = fig1();
        let w = ProcessSet::from_ids([0, 1, 2, 3, 4, 5, 6]);
        // For sink member 5 (0-based 4), the minimal quorum is {4,5,6}.
        let q = minimal_quorum_of_within(&sys, p(4), &w).unwrap();
        assert_eq!(q, ProcessSet::from_ids([4, 5, 6]));
        // For process 1 (0-based 0): the paper's shaded quorum is
        // {1,2,4,5,6,7} (0-based {0,1,3,4,5,6}).
        let q0 = minimal_quorum_of_within(&sys, p(0), &w).unwrap();
        assert!(is_quorum_for(&sys, &q0, p(0)));
        assert_eq!(q0, ProcessSet::from_ids([0, 1, 3, 4, 5, 6]));
    }

    #[test]
    fn enumerate_quorums_on_fig1() {
        let sys = fig1();
        let w = ProcessSet::from_ids([0, 1, 2, 3, 4, 5, 6]);
        let quorums = enumerate_quorums(&sys, &w, 1 << 12).unwrap();
        assert!(quorums.contains(&ProcessSet::from_ids([4, 5, 6])));
        assert!(quorums.contains(&w));
        // Every enumerated set must satisfy Algorithm 1.
        assert!(quorums.iter().all(|q| is_quorum(&sys, q)));
        // The unique minimal quorum among correct processes is the sink core.
        let minimal = minimal_quorums(&sys, &w, 1 << 12).unwrap();
        assert_eq!(minimal, vec![ProcessSet::from_ids([4, 5, 6])]);
    }

    #[test]
    fn minimal_quorums_of_process() {
        let sys = fig1();
        let w = ProcessSet::from_ids([0, 1, 2, 3, 4, 5, 6]);
        let m3 = minimal_quorums_of(&sys, p(2), &w, 1 << 12).unwrap();
        // Process 2 (paper 3) needs its slice {4, 6}, 4 then needs {5, 6},
        // and {4, 5, 6} is closed: the one minimal quorum of 2 is
        // {2, 4, 5, 6}.
        assert_eq!(m3, vec![ProcessSet::from_ids([2, 4, 5, 6])]);
        assert!(is_quorum_for(&sys, &m3[0], p(2)));
    }

    #[test]
    fn enumeration_respects_limit() {
        let sys = fig1();
        assert!(enumerate_quorums(&sys, &sys.universe(), 16).is_none());
    }
}
