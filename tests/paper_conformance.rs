//! Paper conformance suite: every concrete, checkable sentence of the
//! paper asserted in one place, with section references.

use scup_fbqs::{cluster, paper, quorum, SliceFamily};
use scup_graph::{generators, kosr, sink, ProcessId, ProcessSet};
use stellar_cup::attempts::{lemma1_holds, lemma2_holds, LocalSliceStrategy};
use stellar_cup::theorems;

/// §I / Fig. 1: "Participants 5, 6, 7, and 8 form the sink component."
#[test]
fn fig1_sink_is_5678() {
    let kg = generators::fig1();
    assert_eq!(
        sink::unique_sink(kg.graph()),
        Some(ProcessSet::from_ids([4, 5, 6, 7]))
    );
}

/// §III-D: "with these slices, there is a quorum for each correct process"
/// and "all those quorums intersect at quorums of 5, 6, and 7 (i.e.,
/// Q5 = Q6 = Q7 = {5,6,7})".
#[test]
fn fig1_every_correct_process_has_a_quorum_through_the_core() {
    let sys = paper::fig1_system();
    let w = paper::fig1_correct();
    let core = ProcessSet::from_ids([4, 5, 6]);
    for i in &w {
        let q = quorum::minimal_quorum_of_within(&sys, i, &w)
            .unwrap_or_else(|| panic!("correct {i} must have a quorum"));
        assert!(
            core.is_subset(&q) || q == core,
            "quorum {q} of {i} must contain the core"
        );
    }
    // Q5 = Q6 = Q7 = {5,6,7}: the minimal quorum of each core member is the core.
    for i in [4u32, 5, 6] {
        assert_eq!(
            quorum::minimal_quorum_of_within(&sys, ProcessId::new(i), &w).unwrap(),
            core
        );
    }
}

/// §III-D: "there are a few consensus clusters, such as C1 = {5,6,7} and
/// C2 = {1,2,...,7}, but C2 is the only maximal consensus cluster."
#[test]
fn fig1_c2_is_the_unique_maximal_cluster() {
    let sys = paper::fig1_system();
    let w = paper::fig1_correct();
    let mode = cluster::IntertwinedMode::CorrectWitness;
    let all = cluster::all_consensus_clusters(&sys, &w, &w, mode, 1 << 12).unwrap();
    assert!(
        all.contains(&ProcessSet::from_ids([4, 5, 6])),
        "C1 is a cluster"
    );
    assert!(all.contains(&w), "C2 is a cluster");
    assert!(all.len() > 2, "\"a few consensus clusters\"");
    assert_eq!(
        cluster::maximal_consensus_clusters(&sys, &w, &w, mode, 1 << 12).unwrap(),
        vec![w]
    );
}

/// §IV, Lemma 1: "every slice S of i is a subset of PD_i".
/// §IV, Lemma 2: "each correct process i must have at least one slice
/// composed entirely of correct processes".
#[test]
fn lemmas_1_and_2_hold_for_the_counterexample_slices() {
    let kg = generators::fig2();
    let sys = stellar_cup::attempts::build_local_system(&kg, LocalSliceStrategy::AllButOne, 1);
    assert!(lemma1_holds(&kg, &sys));
    assert!(lemma2_holds(&kg, &sys, &kg.graph().vertex_set(), 1));
}

/// §IV, Theorem 2's proof: "This graph represents a 3-OSR PD ... which
/// provides enough knowledge for solving consensus with f = 1"; "Set
/// Q1 = {5,6,7} is a quorum ... Likewise, Q2 = {1,2,3,4} is also a quorum.
/// Since Q1 ∩ Q2 = ∅, the quorum intersection property is violated."
#[test]
fn theorem2_proof_steps() {
    let kg = generators::fig2();
    assert!(kosr::is_k_osr(kg.graph(), 3));
    assert_eq!(kosr::satisfies_theorem1_for_all(kg.graph(), 1), Ok(()));
    let sys = stellar_cup::attempts::build_local_system(&kg, LocalSliceStrategy::AllButOne, 1);
    let q1 = ProcessSet::from_ids([4, 5, 6]);
    let q2 = ProcessSet::from_ids([0, 1, 2, 3]);
    assert!(quorum::is_quorum(&sys, &q1));
    assert!(quorum::is_quorum(&sys, &q2));
    assert!(q1.is_disjoint(&q2));
}

/// §V, Algorithm 2: sink slices have size ⌈(|V|+f+1)/2⌉, non-sink slices
/// size f+1; §V's quorum-size observations.
#[test]
fn algorithm2_shapes() {
    let kg = generators::fig2();
    let (sys, v_sink) = theorems::algorithm2_system(&kg, 1).unwrap();
    for i in kg.processes() {
        let family = sys.slices(i);
        let expected = if v_sink.contains(i) { 3 } else { 2 };
        assert_eq!(family.min_slice_size(), Some(expected), "{i}");
        match family {
            SliceFamily::AllSubsets { of, .. } => assert_eq!(of, &v_sink),
            _ => panic!("Algorithm 2 yields symbolic families"),
        }
    }
    // "Qi's size is greater than or equal to ⌈(|V_sink|+f+1)/2⌉."
    let quorums = quorum::enumerate_quorums(&sys, &sys.universe(), 1 << 12).unwrap();
    for q in &quorums {
        assert!(q.intersection_len(&v_sink) >= 3);
    }
}

/// §V, Theorems 3–5 on the paper's own graph.
#[test]
fn theorems_3_4_5_on_fig2() {
    let kg = generators::fig2();
    let (sys, _) = theorems::algorithm2_system(&kg, 1).unwrap();
    let faulty = ProcessSet::from_ids([1]);
    assert_eq!(kosr::satisfies_theorem1(kg.graph(), 1, &faulty), Ok(()));
    let correct = kg.graph().vertex_set().difference(&faulty);
    assert_eq!(
        theorems::theorem3_all_intertwined(&sys, &correct, 1, 1 << 18).unwrap(),
        None
    );
    assert!(theorems::theorem4_quorum_availability(&sys, &correct).is_empty());
    assert!(theorems::theorem5_consensus_cluster(&sys, &correct, 1, 1 << 18).unwrap());
}

/// §V, Definition 8's non-member contract: V ⊆ V_sink with ≥ f+1 correct
/// members — "V might contain faulty processes".
#[test]
fn definition8_tolerates_faulty_members_in_v() {
    use stellar_cup::oracle::{validate_detection, SinkDetection};
    let v_sink = ProcessSet::from_ids([0, 1, 2, 3]);
    let correct = ProcessSet::from_ids([0, 1, 2, 4, 5]); // 3 faulty
    let d = SinkDetection {
        is_sink_member: false,
        sink: ProcessSet::from_ids([0, 1, 3]), // includes faulty 3
    };
    assert!(validate_detection(ProcessId::new(5), &d, &v_sink, &correct, 1).is_ok());
}

/// §VII (conclusion): the two headline results, as one assertion each.
#[test]
fn headline_results() {
    let kg = generators::fig2();
    // "We show that SCP cannot solve consensus when each participant has
    // only the minimum knowledge required to solve consensus."
    assert!(matches!(
        theorems::theorem2_violation(&kg, LocalSliceStrategy::AllButOne, 1),
        Ok(Some(_))
    ));
    // "We propose an oracle – sink detector – by which participants can
    // solve consensus using SCP."
    let (sys, _) = theorems::algorithm2_system(&kg, 1).unwrap();
    assert!(
        theorems::theorem5_consensus_cluster(&sys, &kg.graph().vertex_set(), 1, 1 << 18).unwrap()
    );
}
