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

use scup_fbqs::{cluster, intertwined, quorum, Fbqs, QuorumEngine};
use scup_graph::{sink, KnowledgeGraph, ProcessSet};

use crate::attempts::{build_local_system, LocalSliceStrategy};
use crate::build_slices::quorum_sink_lower_bound;

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
pub fn theorem2_violation(
    kg: &KnowledgeGraph,
    strategy: LocalSliceStrategy,
    f: usize,
) -> Option<QuorumIntersectionViolation> {
    let sys = build_local_system(kg, strategy, f);
    let v_sink = sink::unique_sink(kg.graph())?;
    let all = kg.graph().vertex_set();
    let nonsink = all.difference(&v_sink);

    // One compiled engine serves the structural closures and the
    // exhaustive fallback sweep (the naive predicates remain the proptest
    // oracle).
    let engine = QuorumEngine::from_system(&sys);

    // The structural split the proof uses: the sink closes on itself, and
    // the non-sink members may close among themselves.
    let q1 = engine.quorum_closure(&nonsink);
    let q2 = engine.quorum_closure(&v_sink);
    if !q1.is_empty() && !q2.is_empty() && q1.intersection_len(&q2) <= f {
        return Some(QuorumIntersectionViolation {
            intersection_len: q1.intersection_len(&q2),
            q1,
            q2,
        });
    }
    // Fall back to exhaustive search on small systems.
    let quorums = quorum::enumerate_quorums_compiled(&engine, &all, 1 << 20)?;
    for (i, q1) in quorums.iter().enumerate() {
        for q2 in &quorums[i + 1..] {
            if q1.intersection_len(q2) <= f {
                return Some(QuorumIntersectionViolation {
                    q1: q1.clone(),
                    q2: q2.clone(),
                    intersection_len: q1.intersection_len(q2),
                });
            }
        }
    }
    None
}

/// Structural intertwinedness (Section V): in an Algorithm-2 system every
/// quorum of a correct process contains at least
/// `m = ⌈(|V_sink| + f + 1)/2⌉` sink members, so any two quorums share at
/// least `2m − |V_sink| > f` sink members. Returns the guaranteed minimum
/// pairwise intersection.
pub fn structural_intersection_bound(v_sink_len: usize, f: usize) -> usize {
    let m = quorum_sink_lower_bound(v_sink_len, f);
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
) -> Result<Option<intertwined::Violation>, intertwined::EnumerationTooLarge> {
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
) -> Result<Option<intertwined::Violation>, intertwined::EnumerationTooLarge> {
    // The pairwise check over the union covers mixed pairs; restricted
    // variants keep the lemma structure visible in reports. One compiled
    // engine serves every pair.
    let engine = QuorumEngine::from_system(sys);
    let sink_members = v_sink.intersection(correct);
    let nonsink_members = correct.difference(v_sink);
    for i in &sink_members {
        for j in &nonsink_members {
            let pair = ProcessSet::from_ids([i.as_u32(), j.as_u32()]);
            if let Some(v) = intertwined::check_threshold_intertwined_compiled(
                &engine,
                &pair,
                &sys.universe(),
                f,
                limit,
            )? {
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
) -> Result<Option<intertwined::Violation>, intertwined::EnumerationTooLarge> {
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
) -> Result<Option<intertwined::Violation>, intertwined::EnumerationTooLarge> {
    intertwined::check_threshold_intertwined(sys, correct, &sys.universe(), f, limit)
}

/// **Theorem 4**: every correct process has a quorum composed entirely of
/// correct processes — equivalently the correct set is quorum-closed.
/// Returns the correct processes *without* such a quorum (empty = theorem
/// holds).
///
/// Runs on a compiled [`QuorumEngine`] (worklist closure); the naive
/// [`quorum::quorum_closure`] remains the proptest oracle.
pub fn theorem4_quorum_availability(sys: &Fbqs, correct: &ProcessSet) -> ProcessSet {
    let closure = QuorumEngine::from_system(sys).quorum_closure(correct);
    correct.difference(&closure)
}

/// **Theorem 5 / Corollary 2**: with PD, `f` and a sink detector, all
/// correct processes form a single maximal consensus cluster.
pub fn theorem5_consensus_cluster(
    sys: &Fbqs,
    correct: &ProcessSet,
    f: usize,
    limit: usize,
) -> Result<bool, cluster::EnumerationTooLarge> {
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
    use scup_graph::{generators, kosr};

    const LIMIT: usize = 1 << 16;

    #[test]
    fn theorem2_on_fig2_matches_paper() {
        let kg = generators::fig2();
        let v = theorem2_violation(&kg, LocalSliceStrategy::AllButOne, 1)
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
                .unwrap_or_else(|| panic!("violation must exist for family ({s}, {r})"));
            assert!(v.intersection_len <= 1);
        }
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
