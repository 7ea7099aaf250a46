//! Every theorem of the paper as an executable check.
//!
//! | Paper | Function |
//! |---|---|
//! | Lemma 1 | [`crate::attempts::lemma1_holds`] |
//! | Lemma 2 | [`crate::attempts::lemma2_holds`] |
//! | Theorem 2 / Corollary 1 | [`theorem2_violation`] |
//! | Lemma 3 | [`lemma3_sink_pairs_intertwined`] |
//! | Lemma 4 | [`lemma4_mixed_pairs_intertwined`] |
//! | Lemma 5 | [`lemma5_nonsink_pairs_intertwined`] |
//! | Theorem 3 | [`theorem3_all_intertwined`] |
//! | Theorem 4 | [`theorem4_quorum_availability`] |
//! | Theorem 5 / Corollary 2 | [`theorem5_consensus_cluster`] |
//! | Theorem 6 | tested in [`crate::sink_detector`] (simulation) |
//!
//! The intertwined checks come in two strengths: *structural* (polynomial,
//! via the sink lower bound of Section V — usable at any scale) and
//! *exhaustive* (explicit quorum enumeration on small systems, used to
//! validate the structural argument).

use scup_fbqs::intertwined::{EnumerationTooLarge, Violation};
use scup_fbqs::{cluster, intertwined, quorum, Fbqs};
use scup_graph::{sink, KnowledgeGraph, ProcessSet};

use crate::attempts::{build_local_system, LocalSliceStrategy};
use crate::build_slices::sink_slice_size;

/// A Theorem 2 witness: two quorums whose intersection is at most `f`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumIntersectionViolation {
    /// First quorum.
    pub q1: ProcessSet,
    /// Second quorum.
    pub q2: ProcessSet,
    /// `|q1 ∩ q2|`.
    pub intersection_len: usize,
}

/// **Theorem 2**: with slices built locally from `PD_i` and `f`, quorum
/// intersection can fail. Searches for two quorums with `|Q1 ∩ Q2| ≤ f`
/// in the locally built system and returns the witness.
///
/// On the paper's Fig. 2 with [`LocalSliceStrategy::AllButOne`] and
/// `f = 1`, the witness is `Q1 = {5,6,7}`, `Q2 = {1,2,3,4}` (1-based).
///
/// The proof's structural split (the largest quorums inside the non-sink
/// members and inside the sink) is tried first and costs two closures;
/// when it finds no witness — or the graph has no unique sink — every
/// pair of quorums is searched. `Ok(None)` means that search found none.
///
/// # Errors
///
/// Returns [`EnumerationTooLarge`] when the split finds no witness and the
/// graph has more than 20 processes, too many to enumerate.
pub fn theorem2_violation(
    kg: &KnowledgeGraph,
    strategy: LocalSliceStrategy,
    f: usize,
) -> Result<Option<QuorumIntersectionViolation>, EnumerationTooLarge> {
    let sys = build_local_system(kg, strategy, f);
    let all = kg.graph().vertex_set();

    // The structural split the proof uses: the sink closes on itself, and
    // the non-sink members may close among themselves.
    if let Some(v_sink) = sink::unique_sink(kg.graph()) {
        let q1 = quorum::quorum_closure(&sys, &all.difference(&v_sink));
        let q2 = quorum::quorum_closure(&sys, &v_sink);
        if !q1.is_empty() && !q2.is_empty() && q1.intersection_len(&q2) <= f {
            return Ok(Some(QuorumIntersectionViolation {
                intersection_len: q1.intersection_len(&q2),
                q1,
                q2,
            }));
        }
    }
    let quorums = quorum::enumerate_quorums(&sys, &all, 1 << 20).ok_or(EnumerationTooLarge)?;
    for (i, q1) in quorums.iter().enumerate() {
        for q2 in &quorums[i + 1..] {
            if q1.intersection_len(q2) <= f {
                return Ok(Some(QuorumIntersectionViolation {
                    q1: q1.clone(),
                    q2: q2.clone(),
                    intersection_len: q1.intersection_len(q2),
                }));
            }
        }
    }
    Ok(None)
}

/// Structural intertwinedness (Section V): in an Algorithm-2 system every
/// quorum of a correct process contains at least
/// `m = ⌈(|V_sink| + f + 1)/2⌉` sink members, so any two quorums share at
/// least `2m − |V_sink| > f` sink members. Returns the guaranteed minimum
/// pairwise intersection.
pub fn structural_intersection_bound(v_sink_len: usize, f: usize) -> usize {
    let m = sink_slice_size(v_sink_len, f);
    (2 * m).saturating_sub(v_sink_len)
}

/// **Lemma 3** (exhaustive): any two correct sink members of the
/// Algorithm-2 system are intertwined (`|Q ∩ Q'| > f`).
pub fn lemma3_sink_pairs_intertwined(
    sys: &Fbqs,
    v_sink: &ProcessSet,
    correct: &ProcessSet,
    f: usize,
    limit: usize,
) -> Result<Option<Violation>, EnumerationTooLarge> {
    let members = v_sink.intersection(correct);
    intertwined::check_threshold_intertwined(sys, &members, &sys.universe(), f, limit)
}

/// **Lemma 4** (exhaustive): any correct sink member and any correct
/// non-sink member are intertwined.
pub fn lemma4_mixed_pairs_intertwined(
    sys: &Fbqs,
    v_sink: &ProcessSet,
    correct: &ProcessSet,
    f: usize,
    limit: usize,
) -> Result<Option<Violation>, EnumerationTooLarge> {
    // The pairwise check over the union covers mixed pairs; restricted
    // variants keep the lemma structure visible in reports.
    let sink_members = v_sink.intersection(correct);
    let nonsink_members = correct.difference(v_sink);
    for i in &sink_members {
        for j in &nonsink_members {
            let pair = ProcessSet::from_ids([i.as_u32(), j.as_u32()]);
            if let Some(v) =
                intertwined::check_threshold_intertwined(sys, &pair, &sys.universe(), f, limit)?
            {
                return Ok(Some(v));
            }
        }
    }
    Ok(None)
}

/// **Lemma 5** (exhaustive): any two correct non-sink members are
/// intertwined.
pub fn lemma5_nonsink_pairs_intertwined(
    sys: &Fbqs,
    v_sink: &ProcessSet,
    correct: &ProcessSet,
    f: usize,
    limit: usize,
) -> Result<Option<Violation>, EnumerationTooLarge> {
    let members = correct.difference(v_sink);
    intertwined::check_threshold_intertwined(sys, &members, &sys.universe(), f, limit)
}

/// **Theorem 3** (exhaustive): any two correct processes of the
/// Algorithm-2 system are intertwined.
pub fn theorem3_all_intertwined(
    sys: &Fbqs,
    correct: &ProcessSet,
    f: usize,
    limit: usize,
) -> Result<Option<Violation>, EnumerationTooLarge> {
    intertwined::check_threshold_intertwined(sys, correct, &sys.universe(), f, limit)
}

/// **Theorem 4**: every correct process has a quorum composed entirely of
/// correct processes — equivalently the correct set is quorum-closed.
/// Returns the correct processes *without* such a quorum (empty = theorem
/// holds).
pub fn theorem4_quorum_availability(sys: &Fbqs, correct: &ProcessSet) -> ProcessSet {
    correct.difference(&quorum::quorum_closure(sys, correct))
}

/// **Theorem 5 / Corollary 2**: with PD, `f` and a sink detector, all
/// correct processes form a single maximal consensus cluster.
pub fn theorem5_consensus_cluster(
    sys: &Fbqs,
    correct: &ProcessSet,
    f: usize,
    limit: usize,
) -> Result<bool, EnumerationTooLarge> {
    cluster::all_correct_form_unique_maximal_cluster(
        sys,
        correct,
        &sys.universe(),
        cluster::IntertwinedMode::Threshold(f),
        limit,
    )
}

/// Builds the Algorithm-2 system for `kg` with a perfect sink detector and
/// returns it with the sink (convenience for tests and benches).
pub fn algorithm2_system(kg: &KnowledgeGraph, f: usize) -> Option<(Fbqs, ProcessSet)> {
    let sd = crate::oracle::PerfectSinkDetector::new(kg)?;
    let v_sink = sd.v_sink().clone();
    Some((crate::build_slices::build_system(kg, &sd, f), v_sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scup_graph::{generators, kosr, DiGraph};

    const LIMIT: usize = 1 << 16;

    #[test]
    fn theorem2_on_fig2_matches_paper() {
        let kg = generators::fig2();
        let v = theorem2_violation(&kg, LocalSliceStrategy::AllButOne, 1)
            .unwrap()
            .expect("Theorem 2: the violation must exist");
        // Paper: Q1 = {5,6,7} (0-based {4,5,6}), Q2 = {1,2,3,4} ({0,1,2,3}).
        assert_eq!(v.q1, ProcessSet::from_ids([4, 5, 6]));
        assert_eq!(v.q2, ProcessSet::from_ids([0, 1, 2, 3]));
        assert_eq!(v.intersection_len, 0);
    }

    #[test]
    fn theorem2_on_generalized_family() {
        for (s, r) in [(3, 3), (4, 5), (5, 6)] {
            let kg = generators::fig2_family(s, r);
            let v = theorem2_violation(&kg, LocalSliceStrategy::AllButOne, 1)
                .unwrap()
                .unwrap_or_else(|| panic!("violation must exist for family ({s}, {r})"));
            assert!(v.intersection_len <= 1);
        }
    }

    #[test]
    fn theorem2_answers_none_only_after_a_search() {
        let search = |g| {
            theorem2_violation(
                &KnowledgeGraph::from_graph(g),
                LocalSliceStrategy::AllButOne,
                1,
            )
        };
        // On a complete graph every process is in the sink, so the
        // structural split has no non-sink quorum and the search enumerates
        // every quorum: it finds none failing on K4 (any two of its quorums
        // share at least two members), and cannot search K21.
        assert_eq!(search(generators::complete(4)), Ok(None));
        assert_eq!(search(generators::complete(21)), Err(EnumerationTooLarge));
        // Two disjoint triangles have no unique sink, and no split to try;
        // the search finds their disjoint quorums.
        let triangles = DiGraph::from_edges(
            6,
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
                .into_iter()
                .flat_map(|(u, v)| [(u, v), (v, u)]),
        );
        let v = search(triangles).unwrap().expect("the triangles split");
        assert!(v.intersection_len <= 1);
    }

    #[test]
    fn algorithm2_repairs_fig2() {
        // The same graph, with sink-detector slices: no violation possible.
        let kg = generators::fig2();
        let (sys, _) = algorithm2_system(&kg, 1).unwrap();
        let all = kg.graph().vertex_set();
        for faulty_id in 0..7u32 {
            let faulty = ProcessSet::from_ids([faulty_id]);
            let correct = all.difference(&faulty);
            assert_eq!(kosr::satisfies_theorem1(kg.graph(), 1, &faulty), Ok(()));
            assert_eq!(
                theorem3_all_intertwined(&sys, &correct, 1, LIMIT).unwrap(),
                None,
                "Theorem 3, faulty = {faulty_id}"
            );
            assert!(
                theorem4_quorum_availability(&sys, &correct).is_empty(),
                "Theorem 4, faulty = {faulty_id}"
            );
            assert!(
                theorem5_consensus_cluster(&sys, &correct, 1, LIMIT).unwrap(),
                "Theorem 5, faulty = {faulty_id}"
            );
        }
    }

    #[test]
    fn lemmata_3_4_5_on_fig2() {
        let kg = generators::fig2();
        let (sys, v_sink) = algorithm2_system(&kg, 1).unwrap();
        let correct = kg
            .graph()
            .vertex_set()
            .difference(&ProcessSet::from_ids([3]));
        assert_eq!(
            lemma3_sink_pairs_intertwined(&sys, &v_sink, &correct, 1, LIMIT).unwrap(),
            None
        );
        assert_eq!(
            lemma4_mixed_pairs_intertwined(&sys, &v_sink, &correct, 1, LIMIT).unwrap(),
            None
        );
        assert_eq!(
            lemma5_nonsink_pairs_intertwined(&sys, &v_sink, &correct, 1, LIMIT).unwrap(),
            None
        );
    }

    #[test]
    fn structural_bound_exceeds_f() {
        // 2m - |V| > f whenever m = ⌈(|V|+f+1)/2⌉.
        for v in 3..40 {
            for f in 0..v / 2 {
                assert!(
                    structural_intersection_bound(v, f) > f,
                    "v={v} f={f}: bound {} must exceed f",
                    structural_intersection_bound(v, f)
                );
            }
        }
    }

    #[test]
    fn theorem4_fails_without_enough_correct_sink() {
        // Make 2 of the 4 sink members faulty with f = 1: the premise
        // |correct sink| >= 2f + 1 = 3 fails and availability may break.
        let kg = generators::fig2();
        let (sys, v_sink) = algorithm2_system(&kg, 1).unwrap();
        let faulty = ProcessSet::from_ids([0, 1]);
        let correct = kg.graph().vertex_set().difference(&faulty);
        assert_eq!(v_sink.intersection_len(&correct), 2);
        // Sink slices need 3 of {0,1,2,3}; only {2,3} are correct: no
        // correct process can assemble a correct quorum.
        assert!(!theorem4_quorum_availability(&sys, &correct).is_empty());
    }

    #[test]
    fn random_kosr_graphs_satisfy_theorems() {
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (kg, faulty) = generators::random_byzantine_safe(5, 3, 1, &mut rng);
            let (sys, _) = algorithm2_system(&kg, 1).unwrap();
            let correct = kg.graph().vertex_set().difference(&faulty);
            assert_eq!(kosr::satisfies_theorem1(kg.graph(), 1, &faulty), Ok(()));
            assert_eq!(
                theorem3_all_intertwined(&sys, &correct, 1, LIMIT).unwrap(),
                None
            );
            assert!(theorem4_quorum_availability(&sys, &correct).is_empty());
            assert!(theorem5_consensus_cluster(&sys, &correct, 1, LIMIT).unwrap());
        }
    }
}
