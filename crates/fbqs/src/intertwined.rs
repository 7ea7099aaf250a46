//! Intertwined sets: Definition 2 and the threshold form of Section III-F.
//!
//! A set `I` of correct processes is **intertwined** when for any two
//! members `i, j` and any quorums `Q ∈ Q_i`, `Q' ∈ Q_j`, the intersection
//! `Q ∩ Q'` contains a correct process (Definition 2). For the
//! threshold-based analysis the paper strengthens this to `|Q ∩ Q'| > f`
//! (Section III-F).
//!
//! Both checks quantify over *all* quorums of the members. Since every
//! quorum contains an inclusion-minimal quorum and intersections only grow
//! with supersets, it suffices to check pairs of **minimal quorums of the
//! members**, which is what the exhaustive checkers below do.

use scup_graph::{ProcessId, ProcessSet};

use crate::{quorum, Fbqs};

/// A witness that two processes are *not* intertwined: a pair of quorums
/// whose intersection misses the requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The first process and one of its quorums.
    pub i: ProcessId,
    /// The quorum of `i`.
    pub qi: ProcessSet,
    /// The second process and one of its quorums.
    pub j: ProcessId,
    /// The quorum of `j`.
    pub qj: ProcessSet,
    /// `|qi ∩ qj|`.
    pub intersection_len: usize,
}

/// Exhaustively checks the **threshold** intertwined property of Section
/// III-F over `members`: every pair of quorums of members must satisfy
/// `|Q ∩ Q'| > f`. Quorums are drawn from subsets of `universe`.
///
/// Returns `Ok(Some(violation))` with a witness if the property fails and
/// `Ok(None)` if it holds.
///
/// # Errors
///
/// Returns `Err(EnumerationTooLarge)` when `2^|universe| > limit`.
pub fn check_threshold_intertwined(
    sys: &Fbqs,
    members: &ProcessSet,
    universe: &ProcessSet,
    f: usize,
    limit: usize,
) -> Result<Option<Violation>, EnumerationTooLarge> {
    check_with(sys, members, universe, limit, |qi, qj| {
        qi.intersection_len(qj) > f
    })
}

/// Exhaustively checks Definition 2 over `members`: every pair of quorums
/// of members must intersect in at least one process of `correct`.
///
/// # Errors
///
/// Returns `Err(EnumerationTooLarge)` when `2^|universe| > limit`.
pub fn check_intertwined(
    sys: &Fbqs,
    members: &ProcessSet,
    universe: &ProcessSet,
    correct: &ProcessSet,
    limit: usize,
) -> Result<Option<Violation>, EnumerationTooLarge> {
    check_with(sys, members, universe, limit, |qi, qj| {
        !qi.intersection(qj).is_disjoint(correct)
    })
}

/// The quorum enumeration needed by an exhaustive intertwined check would
/// exceed the caller's limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationTooLarge;

impl std::fmt::Display for EnumerationTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "quorum enumeration exceeds the requested limit")
    }
}

impl std::error::Error for EnumerationTooLarge {}

fn check_with<P>(
    sys: &Fbqs,
    members: &ProcessSet,
    universe: &ProcessSet,
    limit: usize,
    ok: P,
) -> Result<Option<Violation>, EnumerationTooLarge>
where
    P: Fn(&ProcessSet, &ProcessSet) -> bool,
{
    // Minimal quorums of each member; pairs of minimal quorums realize the
    // minimum intersection over all quorum pairs. One enumeration of the
    // universe serves every member (the system's compiled engine makes the
    // 2^n subset sweep itself cheap).
    let all = quorum::enumerate_quorums(sys, universe, limit).ok_or(EnumerationTooLarge)?;
    let mut min_quorums: Vec<(ProcessId, Vec<ProcessSet>)> = Vec::new();
    for i in members {
        min_quorums.push((i, quorum::minimal_containing(&all, i)));
    }
    for (i, qis) in &min_quorums {
        for (j, qjs) in &min_quorums {
            for qi in qis {
                for qj in qjs {
                    if !ok(qi, qj) {
                        return Ok(Some(Violation {
                            i: *i,
                            qi: qi.clone(),
                            j: *j,
                            qj: qj.clone(),
                            intersection_len: qi.intersection_len(qj),
                        }));
                    }
                }
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn fig1_correct_processes_are_intertwined() {
        let sys = paper::fig1_system();
        let w = paper::fig1_correct();
        // Definition 2 with W as the correct set.
        let r = check_intertwined(&sys, &w, &w, &w, 1 << 12).unwrap();
        assert_eq!(
            r, None,
            "paper: every two correct processes are intertwined"
        );
    }

    #[test]
    fn fig1_threshold_intertwined_with_f1() {
        let sys = paper::fig1_system();
        let w = paper::fig1_correct();
        let r = check_threshold_intertwined(&sys, &w, &w, 1, 1 << 12).unwrap();
        assert_eq!(
            r, None,
            "all minimal quorums share the sink core {{5,6,7}}, so |Q ∩ Q'| ≥ 3 > 1"
        );
        // f = 2 still holds (core has 3 members)...
        let r2 = check_threshold_intertwined(&sys, &w, &w, 2, 1 << 12).unwrap();
        assert_eq!(r2, None);
        // ...but f = 3 fails: the core itself has only 3 members.
        let r3 = check_threshold_intertwined(&sys, &w, &w, 3, 1 << 12).unwrap();
        assert!(r3.is_some());
    }

    #[test]
    fn disjoint_quorums_violate() {
        use crate::SliceFamily;
        // Two independent cliques: {0,1} and {2,3}, each self-sufficient.
        let sys = Fbqs::new(vec![
            SliceFamily::explicit([ProcessSet::from_ids([0, 1])]),
            SliceFamily::explicit([ProcessSet::from_ids([0, 1])]),
            SliceFamily::explicit([ProcessSet::from_ids([2, 3])]),
            SliceFamily::explicit([ProcessSet::from_ids([2, 3])]),
        ]);
        let all = sys.universe();
        let v = check_intertwined(&sys, &all, &all, &all, 1 << 8)
            .unwrap()
            .expect("cliques are not intertwined");
        assert_eq!(v.intersection_len, 0);
        assert!(v.qi.is_disjoint(&v.qj));
    }

    #[test]
    fn limit_is_reported() {
        let sys = paper::fig1_system();
        let w = paper::fig1_correct();
        assert_eq!(
            check_intertwined(&sys, &w, &w, &w, 4),
            Err(EnumerationTooLarge)
        );
    }
}
