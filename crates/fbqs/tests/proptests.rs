//! Property-based tests for `scup-fbqs`.
//!
//! Invariants checked on random slice systems:
//! - symbolic (`AllSubsets`) and enumerated families agree on every query;
//! - the quorum closure is a quorum (or empty), is contained in its input,
//!   is a fixed point, and contains every quorum inside the input;
//! - unions of quorums are quorums;
//! - v-blocking and `has_slice_within` are complementary through the
//!   correct/faulty partition;
//! - the compiled engine every `Fbqs` carries — batch-compiled or filled
//!   row by row — and the analyses on it (enumeration, the consensus-cluster
//!   check in both intertwined modes) agree with the naive predicates of
//!   `reference.rs`, never with another function that asks the engine.

mod reference;

use proptest::prelude::*;
use scup_fbqs::{quorum, Fbqs, QuorumEngine, SliceFamily};
use scup_graph::{ProcessId, ProcessSet};

const N: usize = 8;

fn arb_subset(n: usize) -> impl Strategy<Value = ProcessSet> {
    proptest::collection::vec(proptest::bool::ANY, n).prop_map(|bits| {
        bits.iter()
            .enumerate()
            .filter(|(_, b)| **b)
            .map(|(i, _)| ProcessId::new(i as u32))
            .collect()
    })
}

fn arb_family(n: usize) -> impl Strategy<Value = SliceFamily> {
    prop_oneof![
        proptest::collection::vec(arb_subset(n), 0..4).prop_map(SliceFamily::explicit),
        (arb_subset(n), 0usize..=n).prop_map(|(of, size)| SliceFamily::all_subsets(of, size)),
    ]
}

fn arb_system() -> impl Strategy<Value = Fbqs> {
    proptest::collection::vec(arb_family(N), N).prop_map(Fbqs::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn symbolic_and_enumerated_agree(of in arb_subset(N), size in 0usize..=N, q in arb_subset(N), b in arb_subset(N)) {
        let sym = SliceFamily::all_subsets(of.clone(), size);
        let slices = sym.enumerate(usize::MAX).expect("small family");
        let exp = SliceFamily::explicit(slices);
        prop_assert_eq!(sym.has_slice_within(&q), exp.has_slice_within(&q));
        prop_assert_eq!(sym.is_v_blocked_by(&b), exp.is_v_blocked_by(&b));
        prop_assert_eq!(sym.slice_count(), exp.slice_count());
        prop_assert_eq!(sym.min_slice_size(), exp.min_slice_size());
        prop_assert_eq!(sym.members(), exp.members());
    }

    #[test]
    fn closure_properties(sys in arb_system(), u in arb_subset(N)) {
        let c = quorum::quorum_closure(&sys, &u);
        prop_assert!(c.is_subset(&u), "closure shrinks");
        prop_assert!(c.is_empty() || quorum::is_quorum(&sys, &c), "closure is a quorum");
        prop_assert_eq!(quorum::quorum_closure(&sys, &c).clone(), c.clone(), "closure is idempotent");
        // Closure contains every quorum inside u.
        if let Some(quorums) = quorum::enumerate_quorums(&sys, &u, 1 << N) {
            for q in quorums {
                prop_assert!(q.is_subset(&c), "quorum {} escapes closure {}", q, c);
            }
        }
    }

    #[test]
    fn union_of_quorums_is_quorum(sys in arb_system(), a in arb_subset(N), b in arb_subset(N)) {
        let qa = quorum::quorum_closure(&sys, &a);
        let qb = quorum::quorum_closure(&sys, &b);
        if !qa.is_empty() && !qb.is_empty() {
            prop_assert!(quorum::is_quorum(&sys, &qa.union(&qb)));
        }
    }

    #[test]
    fn minimal_quorum_is_minimal(sys in arb_system(), u in arb_subset(N)) {
        for i in &u {
            if let Some(q) = quorum::minimal_quorum_of_within(&sys, i, &u) {
                prop_assert!(quorum::is_quorum_for(&sys, &q, i));
                // No single-member removal (followed by closure) retains i.
                for v in &q {
                    if v == i { continue; }
                    let mut trial = q.clone();
                    trial.remove(v);
                    let closed = quorum::quorum_closure(&sys, &trial);
                    prop_assert!(!(closed.contains(i) && closed.len() < q.len()));
                }
            }
        }
    }

    #[test]
    fn blocking_complements_correct_slices(family in arb_family(N), correct in arb_subset(N)) {
        let faulty = ProcessSet::full(N).difference(&correct);
        // has_slice_within(correct) ⟺ faulty is NOT v-blocking, provided all
        // slices only mention processes 0..N.
        prop_assert_eq!(
            family.has_slice_within(&correct),
            !family.is_v_blocked_by(&faulty)
        );
    }

    #[test]
    fn is_quorum_matches_definition(sys in arb_system(), q in arb_subset(N)) {
        prop_assert_eq!(quorum::is_quorum(&sys, &q), reference::is_quorum(&sys, &q));
    }

    #[test]
    fn engine_agrees_with_naive_predicates(sys in arb_system(), q in arb_subset(N), b in arb_subset(N)) {
        let engine = sys.engine();
        let mut scratch = engine.scratch();
        prop_assert_eq!(
            engine.is_quorum_in(&q, &mut scratch),
            reference::is_quorum(&sys, &q),
            "is_quorum disagrees on {}", q
        );
        let mut closed = ProcessSet::new();
        engine.quorum_closure_in(&q, &mut scratch, &mut closed);
        let expected = reference::quorum_closure(&sys, &q);
        prop_assert_eq!(&closed, &expected, "quorum_closure disagrees on {}", q);
        prop_assert_eq!(engine.contains_quorum_in(&q, &mut scratch), !expected.is_empty());
        for i in sys.processes() {
            prop_assert_eq!(
                engine.is_v_blocking(i, &b),
                reference::is_v_blocking(&sys, i, &b),
                "v-blocking disagrees for {} on {}", i, b
            );
        }
        prop_assert_eq!(engine.blocked_processes(&b), reference::blocked_processes(&sys, &b));
    }

    #[test]
    fn incremental_engine_agrees_with_batch(sys in arb_system(), q in arb_subset(N)) {
        // Rows recorded one at a time (protocol-style), in reverse order
        // and with an interleaved overwrite, must match batch compilation
        // and the reference.
        let mut engine = QuorumEngine::new(0);
        for i in (0..sys.n() as u32).rev().map(ProcessId::new) {
            engine.set_slices(i, &SliceFamily::empty());
            engine.set_slices(i, sys.slices(i));
        }
        prop_assert_eq!(engine.is_quorum(&q), reference::is_quorum(&sys, &q));
        let closed = engine.quorum_closure(&q);
        prop_assert_eq!(&closed, &reference::quorum_closure(&sys, &q));
        prop_assert_eq!(closed, sys.engine().quorum_closure(&q));
    }

    #[test]
    fn compiled_enumeration_matches_naive(sys in arb_system(), u in arb_subset(N)) {
        // The global analyses run on the system's compiled engine; the
        // naive subset sweep of the reference is their oracle.
        prop_assert_eq!(
            quorum::enumerate_quorums(&sys, &u, 1 << N),
            Some(reference::enumerate_quorums(&sys, &u))
        );
    }

    #[test]
    fn compiled_cluster_check_matches_naive(
        sys in arb_system(),
        cand in arb_subset(N),
        correct in arb_subset(N),
        f in 0usize..3,
    ) {
        use scup_fbqs::cluster::{self, IntertwinedMode};
        let all = sys.universe();
        // Definition 3 straight off the reference: availability is the
        // closure fixed point, and the intersection half must report a
        // violation iff some pair of quorums of the candidates fails the
        // mode's test — and then a real one.
        let closed = !cand.is_empty() && reference::quorum_closure(&sys, &cand) == cand;
        let threshold = |qi: &ProcessSet, qj: &ProcessSet| qi.intersection_len(qj) > f;
        let witness = |qi: &ProcessSet, qj: &ProcessSet| !qi.intersection(qj).is_disjoint(&correct);
        // The threshold mode is checked with every process correct.
        let modes: [(IntertwinedMode, &ProcessSet, &dyn Fn(&ProcessSet, &ProcessSet) -> bool); 2] = [
            (IntertwinedMode::Threshold(f), &all, &threshold),
            (IntertwinedMode::CorrectWitness, &correct, &witness),
        ];
        for (mode, correct_arg, ok) in modes {
            let report = cluster::check_consensus_cluster(&sys, &cand, correct_arg, &all, mode, 1 << N)
                .expect("within limit");
            prop_assert_eq!(report.availability, closed && cand.is_subset(correct_arg));
            prop_assert_eq!(
                report.intersection_violation.is_some(),
                reference::intertwined_violation_exists(&sys, &cand, &all, ok),
                "{:?} on candidates {}", mode, cand
            );
            if let Some(v) = &report.intersection_violation {
                prop_assert!(reference::is_quorum(&sys, &v.qi));
                prop_assert!(reference::is_quorum(&sys, &v.qj));
                prop_assert!(v.qi.contains(v.i) && v.qj.contains(v.j));
                prop_assert!(cand.contains(v.i) && cand.contains(v.j));
                prop_assert_eq!(v.intersection_len, v.qi.intersection_len(&v.qj));
                prop_assert!(!ok(&v.qi, &v.qj));
            }
        }
    }
}
