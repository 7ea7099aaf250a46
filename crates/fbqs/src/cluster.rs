//! Consensus clusters (Definitions 3–4).
//!
//! A subset `I ⊆ W` of the correct processes is a **consensus cluster**
//! when:
//!
//! - *Quorum Intersection*: `I` is intertwined, and
//! - *Quorum Availability*: every `i ∈ I` has a quorum `Q ⊆ I`.
//!
//! Availability has a convenient closed form: since the union of quorums is
//! a quorum, *every member of `I` owns a quorum inside `I` iff `I` is itself
//! a quorum* (the closure of `I` equals `I`).
//!
//! Stellar solves consensus for all correct processes iff there is exactly
//! one **maximal** consensus cluster `C` and `C = W` (\[16\], as used by the
//! paper in Section III-D).

use scup_graph::ProcessSet;

use crate::{intertwined, Fbqs};

pub use crate::intertwined::EnumerationTooLarge;

/// Which intertwined notion a cluster check should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntertwinedMode {
    /// Definition 2: quorum intersections must contain a correct process
    /// (correctness taken from the `correct` argument of the check).
    CorrectWitness,
    /// Section III-F: quorum intersections must have more than `f` members.
    Threshold(
        /// The fault threshold `f`.
        usize,
    ),
}

/// Detailed outcome of a consensus-cluster check.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Quorum availability: `I` is itself a quorum (closure fixed point).
    pub availability: bool,
    /// Quorum intersection: `None` when intertwined, else a witness.
    pub intersection_violation: Option<intertwined::Violation>,
}

impl ClusterReport {
    /// `true` iff both properties of Definition 3 hold.
    pub fn is_consensus_cluster(&self) -> bool {
        self.availability && self.intersection_violation.is_none()
    }
}

/// Checks whether `candidate ⊆ correct` is a consensus cluster
/// (Definition 3) of `sys`, drawing quorums from subsets of `universe`.
/// Both halves — the availability closure and the intertwined sweep — run
/// on the system's compiled engine.
///
/// # Errors
///
/// Returns [`EnumerationTooLarge`] when the exhaustive intertwined check
/// would enumerate more than `limit` subsets.
pub fn check_consensus_cluster(
    sys: &Fbqs,
    candidate: &ProcessSet,
    correct: &ProcessSet,
    universe: &ProcessSet,
    mode: IntertwinedMode,
    limit: usize,
) -> Result<ClusterReport, EnumerationTooLarge> {
    let availability = !candidate.is_empty()
        && candidate.is_subset(correct)
        && sys.engine().quorum_closure(candidate) == *candidate;
    let intersection_violation = match mode {
        IntertwinedMode::CorrectWitness => {
            intertwined::check_intertwined(sys, candidate, universe, correct, limit)?
        }
        IntertwinedMode::Threshold(f) => {
            intertwined::check_threshold_intertwined(sys, candidate, universe, f, limit)?
        }
    };
    Ok(ClusterReport {
        availability,
        intersection_violation,
    })
}

/// Returns `true` iff `candidate` is a consensus cluster.
///
/// # Errors
///
/// Returns [`EnumerationTooLarge`] when the check exceeds `limit`.
pub fn is_consensus_cluster(
    sys: &Fbqs,
    candidate: &ProcessSet,
    correct: &ProcessSet,
    universe: &ProcessSet,
    mode: IntertwinedMode,
    limit: usize,
) -> Result<bool, EnumerationTooLarge> {
    Ok(
        check_consensus_cluster(sys, candidate, correct, universe, mode, limit)?
            .is_consensus_cluster(),
    )
}

/// Enumerates **all** consensus clusters among subsets of `correct`
/// (exponential — intended for the paper's small figures).
///
/// # Errors
///
/// Returns [`EnumerationTooLarge`] when `2^|correct|` or the per-candidate
/// checks exceed `limit`.
pub fn all_consensus_clusters(
    sys: &Fbqs,
    correct: &ProcessSet,
    universe: &ProcessSet,
    mode: IntertwinedMode,
    limit: usize,
) -> Result<Vec<ProcessSet>, EnumerationTooLarge> {
    let ids = correct.to_vec();
    let n = ids.len();
    if n >= usize::BITS as usize - 1 || (1usize << n) > limit {
        return Err(EnumerationTooLarge);
    }
    let mut out = Vec::new();
    for mask in 1usize..(1 << n) {
        let candidate: ProcessSet = ids
            .iter()
            .enumerate()
            .filter(|(b, _)| mask & (1 << b) != 0)
            .map(|(_, &id)| id)
            .collect();
        let report = check_consensus_cluster(sys, &candidate, correct, universe, mode, limit)?;
        if report.is_consensus_cluster() {
            out.push(candidate);
        }
    }
    Ok(out)
}

/// Returns the **maximal** consensus clusters (Definition 4): clusters that
/// are not strict subsets of another cluster.
///
/// # Errors
///
/// Returns [`EnumerationTooLarge`] when enumeration exceeds `limit`.
pub fn maximal_consensus_clusters(
    sys: &Fbqs,
    correct: &ProcessSet,
    universe: &ProcessSet,
    mode: IntertwinedMode,
    limit: usize,
) -> Result<Vec<ProcessSet>, EnumerationTooLarge> {
    let all = all_consensus_clusters(sys, correct, universe, mode, limit)?;
    Ok(all
        .iter()
        .filter(|c| !all.iter().any(|o| *o != **c && c.is_subset(o)))
        .cloned()
        .collect())
}

/// The solvability condition used throughout the paper: there is exactly one
/// maximal consensus cluster and it is the whole correct set `W`.
///
/// Because every consensus cluster is a subset of `W`, this is equivalent to
/// `W` itself being a consensus cluster — checked directly, without
/// enumeration over candidates.
///
/// # Errors
///
/// Returns [`EnumerationTooLarge`] when the intertwined check exceeds
/// `limit`.
pub fn all_correct_form_unique_maximal_cluster(
    sys: &Fbqs,
    correct: &ProcessSet,
    universe: &ProcessSet,
    mode: IntertwinedMode,
    limit: usize,
) -> Result<bool, EnumerationTooLarge> {
    is_consensus_cluster(sys, correct, correct, universe, mode, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn fig1_clusters_match_paper() {
        // Paper: "there are a few consensus clusters, such as C1 = {5,6,7}
        // and C2 = {1,...,7}, but C2 is the only maximal consensus cluster."
        let sys = paper::fig1_system();
        let w = paper::fig1_correct();
        let mode = IntertwinedMode::CorrectWitness;

        let c1 = ProcessSet::from_ids([4, 5, 6]);
        assert!(is_consensus_cluster(&sys, &c1, &w, &w, mode, 1 << 12).unwrap());
        assert!(is_consensus_cluster(&sys, &w, &w, &w, mode, 1 << 12).unwrap());

        let maximal = maximal_consensus_clusters(&sys, &w, &w, mode, 1 << 12).unwrap();
        assert_eq!(maximal, vec![w.clone()], "C2 is the unique maximal cluster");

        assert!(all_correct_form_unique_maximal_cluster(&sys, &w, &w, mode, 1 << 12).unwrap());
    }

    #[test]
    fn availability_is_closure_fixed_point() {
        let sys = paper::fig1_system();
        let w = paper::fig1_correct();
        // {4,5} is not a quorum: no availability.
        let report = check_consensus_cluster(
            &sys,
            &ProcessSet::from_ids([4, 5]),
            &w,
            &w,
            IntertwinedMode::CorrectWitness,
            1 << 12,
        )
        .unwrap();
        assert!(!report.availability);
        assert!(!report.is_consensus_cluster());
    }

    #[test]
    fn candidate_outside_correct_is_rejected() {
        let sys = paper::fig1_system();
        let w = paper::fig1_correct();
        // Candidate includes the Byzantine process 7.
        let candidate = ProcessSet::from_ids([4, 5, 6, 7]);
        let report = check_consensus_cluster(
            &sys,
            &candidate,
            &w,
            &sys.universe(),
            IntertwinedMode::CorrectWitness,
            1 << 12,
        )
        .unwrap();
        assert!(!report.availability, "cluster must be a subset of W");
    }

    #[test]
    fn split_system_has_two_maximal_clusters() {
        use crate::SliceFamily;
        let sys = Fbqs::new(vec![
            SliceFamily::explicit([ProcessSet::from_ids([0, 1])]),
            SliceFamily::explicit([ProcessSet::from_ids([0, 1])]),
            SliceFamily::explicit([ProcessSet::from_ids([2, 3])]),
            SliceFamily::explicit([ProcessSet::from_ids([2, 3])]),
        ]);
        let all = sys.universe();
        // Each clique is available but the union is not intertwined — the
        // situation of Theorem 2.
        let maximal =
            maximal_consensus_clusters(&sys, &all, &all, IntertwinedMode::Threshold(0), 1 << 10)
                .unwrap();
        assert_eq!(maximal.len(), 2);
        assert!(!all_correct_form_unique_maximal_cluster(
            &sys,
            &all,
            &all,
            IntertwinedMode::Threshold(0),
            1 << 10
        )
        .unwrap());
    }
}
