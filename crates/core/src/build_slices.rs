//! Algorithm 2 — `build_slices(PD_i, f)`: slice construction from a sink
//! detector.
//!
//! Given `⟨flag, V⟩ = get_sink(PD_i, f)`:
//!
//! - sink members (`flag = true`) take **all subsets of `V` of size
//!   `⌈(|V| + f + 1) / 2⌉`** as slices — majority-style slices inside the
//!   sink, guaranteeing pairwise quorum intersections of more than `f`
//!   sink members (Lemma 3);
//! - non-sink members take **all subsets of `V` of size `f + 1`** — every
//!   slice then contains at least one correct sink member, which chains
//!   the non-sink member's quorums through the sink (Lemmas 4–5).
//!
//! The slice families are returned symbolically
//! ([`SliceFamily::AllSubsets`]); materializing them is exponential and
//! never needed by the quorum logic.

use scup_fbqs::{Fbqs, SliceFamily};
use scup_graph::KnowledgeGraph;

use crate::oracle::{SinkDetection, SinkDetector};

/// The sink-member slice size `⌈(|V| + f + 1) / 2⌉` of Algorithm 2, line 3.
pub fn sink_slice_size(v_len: usize, f: usize) -> usize {
    (v_len + f + 1).div_ceil(2)
}

/// Algorithm 2 for one process: builds `S_i` from its sink detection.
pub fn build_slices(detection: &SinkDetection, f: usize) -> SliceFamily {
    let v = detection.sink.clone();
    if detection.is_sink_member {
        let size = sink_slice_size(v.len(), f);
        SliceFamily::all_subsets(v, size)
    } else {
        SliceFamily::all_subsets(v, f + 1)
    }
}

/// Runs Algorithm 2 for every process of a knowledge graph against a sink
/// detector, yielding the resulting FBQS (the global object Theorems 3–5
/// reason about).
pub fn build_system<D: SinkDetector>(kg: &KnowledgeGraph, sd: &D, f: usize) -> Fbqs {
    let families = kg
        .processes()
        .map(|i| build_slices(&sd.get_sink(i, f), f))
        .collect();
    Fbqs::new(families)
}

/// Lower bound on the size of any quorum produced by Algorithm 2 slices
/// (Section V's observation): every quorum of a correct process contains at
/// least `⌈(|V_sink| + f + 1) / 2⌉` sink members.
pub fn quorum_sink_lower_bound(v_sink_len: usize, f: usize) -> usize {
    sink_slice_size(v_sink_len, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::PerfectSinkDetector;
    use scup_fbqs::quorum;
    use scup_graph::{generators, ProcessSet};

    #[test]
    fn slice_sizes_match_algorithm2() {
        // |V| = 4, f = 1: sink slices of size ⌈6/2⌉ = 3; non-sink of 2.
        let sink_det = SinkDetection {
            is_sink_member: true,
            sink: ProcessSet::from_ids([0, 1, 2, 3]),
        };
        let s = build_slices(&sink_det, 1);
        assert_eq!(s.min_slice_size(), Some(3));
        assert_eq!(s.slice_count(), 4); // C(4,3)

        let non_sink = SinkDetection {
            is_sink_member: false,
            sink: ProcessSet::from_ids([0, 1, 2, 3]),
        };
        let s = build_slices(&non_sink, 1);
        assert_eq!(s.min_slice_size(), Some(2));
        assert_eq!(s.slice_count(), 6); // C(4,2)
    }

    #[test]
    fn sink_slice_size_formula() {
        assert_eq!(sink_slice_size(4, 1), 3);
        assert_eq!(sink_slice_size(5, 1), 4); // ⌈7/2⌉
        assert_eq!(sink_slice_size(7, 2), 5);
        assert_eq!(sink_slice_size(3, 0), 2);
    }

    #[test]
    fn built_system_on_fig2_has_sink_quorums() {
        let kg = generators::fig2();
        let sd = PerfectSinkDetector::new(&kg).unwrap();
        let sys = build_system(&kg, &sd, 1);
        // The sink {0,1,2,3} with slice size 3: any 3 sink members plus the
        // rest form quorums; the minimal quorum is any 3-subset of the sink
        // closed under itself — e.g. {0,1,2}.
        assert!(quorum::is_quorum(&sys, &ProcessSet::from_ids([0, 1, 2])));
        assert!(!quorum::is_quorum(&sys, &ProcessSet::from_ids([0, 1])));
        // The outer ring alone is NOT a quorum any more (the Theorem 2
        // violation is repaired): 4's slices need 2 sink members.
        assert!(!quorum::is_quorum(&sys, &ProcessSet::from_ids([4, 5, 6])));
        // A non-sink member with f + 1 sink members... needs those sink
        // members' slices inside too: {4} ∪ {0,1} is not a quorum, but
        // {4} ∪ {0,1,2} is.
        assert!(!quorum::is_quorum(&sys, &ProcessSet::from_ids([0, 1, 4])));
        assert!(quorum::is_quorum(&sys, &ProcessSet::from_ids([0, 1, 2, 4])));
    }

    #[test]
    fn every_quorum_meets_the_sink_bound() {
        let kg = generators::fig2();
        let sd = PerfectSinkDetector::new(&kg).unwrap();
        let sys = build_system(&kg, &sd, 1);
        let v_sink = ProcessSet::from_ids([0, 1, 2, 3]);
        let bound = quorum_sink_lower_bound(4, 1);
        let quorums = quorum::enumerate_quorums(&sys, &sys.universe(), 1 << 12).unwrap();
        assert!(!quorums.is_empty());
        for q in quorums {
            assert!(
                q.intersection_len(&v_sink) >= bound,
                "quorum {q} has fewer than {bound} sink members"
            );
        }
    }
}
