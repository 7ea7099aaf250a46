//! Ablation tests: are the paper's design constants tight?
//!
//! Algorithm 2 sets the sink slice size to `m = ⌈(|V| + f + 1) / 2⌉` and
//! the non-sink slice size to `f + 1`. These tests show both choices are
//! *tight*: shrinking either by one breaks a theorem, which is exactly the
//! kind of check DESIGN.md calls for.

use scup_fbqs::{Fbqs, SliceFamily};
use scup_graph::{generators, sink, ProcessSet};
use stellar_cup::build_slices::sink_slice_size;
use stellar_cup::theorems;

/// Builds an Algorithm-2-like system with custom slice sizes.
fn custom_system(
    kg: &scup_graph::KnowledgeGraph,
    v_sink: &ProcessSet,
    sink_size: usize,
    nonsink_size: usize,
) -> Fbqs {
    let families = kg
        .processes()
        .map(|i| {
            if v_sink.contains(i) {
                SliceFamily::all_subsets(v_sink.clone(), sink_size)
            } else {
                SliceFamily::all_subsets(v_sink.clone(), nonsink_size)
            }
        })
        .collect();
    Fbqs::new(families)
}

/// Algorithm 1 with caller-provided slices `S_Q`: what a process evaluates
/// when the slices of remote processes are whatever arrived attached to
/// their messages (possibly lies, for Byzantine senders).
fn is_quorum_with<F>(q: &ProcessSet, mut slices_of: F) -> bool
where
    F: FnMut(scup_graph::ProcessId) -> SliceFamily,
{
    !q.is_empty() && q.iter().all(|i| slices_of(i).has_slice_within(q))
}

#[test]
fn is_quorum_with_custom_slices() {
    // A Byzantine process can claim slices that make anything a quorum.
    let q = ProcessSet::from_ids([0, 1]);
    let anything = |_| SliceFamily::all_subsets(q.clone(), 1);
    assert!(is_quorum_with(&q, anything));
    assert!(!is_quorum_with(&q, |_| SliceFamily::empty()));
}

#[test]
fn sink_slice_size_is_tight() {
    // Fig. 2: |V_sink| = 4, f = 1, m = 3. With m the pairs intertwine;
    // with m - 1 = 2 two sink quorums can intersect in ≤ f processes.
    let kg = generators::fig2();
    let v_sink = sink::unique_sink(kg.graph()).unwrap();
    let f = 1;
    let m = sink_slice_size(v_sink.len(), f);
    let correct = kg.graph().vertex_set();

    let good = custom_system(&kg, &v_sink, m, f + 1);
    assert_eq!(
        theorems::theorem3_all_intertwined(&good, &correct, f, 1 << 18).unwrap(),
        None,
        "paper's m must intertwine"
    );

    let bad = custom_system(&kg, &v_sink, m - 1, f + 1);
    let violation = theorems::theorem3_all_intertwined(&bad, &correct, f, 1 << 18).unwrap();
    assert!(
        violation.is_some(),
        "m - 1 must break the threshold intertwined property"
    );
    let v = violation.unwrap();
    assert!(v.intersection_len <= f);
}

#[test]
fn nonsink_slice_size_is_tight_against_slice_lies() {
    // Lemma 4's content: every size-(f+1) non-sink slice contains at least
    // one CORRECT sink member, whose honest m-sized slices anchor the
    // quorum in the sink. With size-f slices, a slice can consist entirely
    // of faulty sink members, who may *claim* arbitrary slices in their
    // messages (Algorithm 1 evaluates the attached S_Q!) — a non-sink
    // member can then be talked into a tiny fake quorum.
    let kg = generators::fig2();
    let v_sink = sink::unique_sink(kg.graph()).unwrap();
    let f = 1;
    let m = sink_slice_size(v_sink.len(), f);
    let byz = v_sink.first().unwrap(); // faulty sink member
    let nonsink = scup_graph::ProcessId::new(4);

    // From the non-sink member's view, with size-f slices: Q = {x, byz}
    // where byz claims the slice {byz}... slices must be subsets of V (no
    // self-reference needed): byz claims {x} — anything goes.
    let fake_q = ProcessSet::from_ids([nonsink.as_u32(), byz.as_u32()]);
    let with_size_f = |i: scup_graph::ProcessId| -> SliceFamily {
        if i == byz {
            // The lie: a single-member slice inside the fake quorum.
            SliceFamily::explicit([ProcessSet::singleton(nonsink)])
        } else if v_sink.contains(i) {
            SliceFamily::all_subsets(v_sink.clone(), m)
        } else {
            SliceFamily::all_subsets(v_sink.clone(), f) // the ablated size
        }
    };
    assert!(
        is_quorum_with(&fake_q, with_size_f),
        "size-f slices let a lying faulty member fabricate a 2-process quorum"
    );
    // That fake quorum intersects a legitimate sink quorum in ≤ f members.
    let legit = ProcessSet::from_ids([1, 2, 3]);
    assert!(fake_q.intersection_len(&legit) <= f);

    // With the paper's f + 1, the same lie does not help: every slice of
    // the non-sink member has at least one *correct* sink member, whose
    // honest slices drag m sink members into any quorum.
    let with_size_f1 = |i: scup_graph::ProcessId| -> SliceFamily {
        if i == byz {
            SliceFamily::explicit([ProcessSet::singleton(nonsink)])
        } else if v_sink.contains(i) {
            SliceFamily::all_subsets(v_sink.clone(), m)
        } else {
            SliceFamily::all_subsets(v_sink.clone(), f + 1)
        }
    };
    // Enumerate candidate quorums containing the non-sink member over the
    // whole universe and check the anchor property, counting only correct
    // sink members (byz can always be dragged in).
    let correct_sink = v_sink.difference(&ProcessSet::singleton(byz));
    let n = kg.n();
    for mask in 1u32..(1 << n) {
        let q: ProcessSet = (0..n as u32)
            .filter(|b| mask & (1 << b) != 0)
            .map(scup_graph::ProcessId::new)
            .collect();
        if !q.contains(nonsink) || !is_quorum_with(&q, with_size_f1) {
            continue;
        }
        assert!(
            q.intersection_len(&correct_sink) + f >= m,
            "quorum {q} of the non-sink member escaped the sink anchor"
        );
    }
}

#[test]
fn theorem4_premise_is_tight() {
    // 2f + 1 correct sink members are required; 2f exactly must fail for
    // some configuration (Inequality 1 becomes unsatisfiable when
    // |V_sink| < f + 1 + 2|F_sink|).
    let kg = generators::fig2();
    let (sys, v_sink) = theorems::algorithm2_system(&kg, 1).unwrap();
    // 3 correct sink members (= 2f + 1): holds.
    let correct3 = kg
        .graph()
        .vertex_set()
        .difference(&ProcessSet::from_ids([0]));
    assert_eq!(v_sink.intersection_len(&correct3), 3);
    assert!(theorems::theorem4_quorum_availability(&sys, &correct3).is_empty());
    // 2 correct sink members (= 2f): fails.
    let correct2 = kg
        .graph()
        .vertex_set()
        .difference(&ProcessSet::from_ids([0, 1]));
    assert_eq!(v_sink.intersection_len(&correct2), 2);
    assert!(!theorems::theorem4_quorum_availability(&sys, &correct2).is_empty());
}

#[test]
fn structural_bound_is_exact_on_sink_only_systems() {
    // On a pure sink system the minimal pairwise quorum intersection equals
    // the structural bound 2m - |V| exactly (not just ≥).
    let n = 5usize;
    let f = 1usize;
    let v = ProcessSet::full(n);
    let m = sink_slice_size(n, f);
    let sys = Fbqs::new(vec![SliceFamily::all_subsets(v.clone(), m); n]);
    let quorums = scup_fbqs::quorum::enumerate_quorums(&sys, &v, 1 << 10).unwrap();
    let min_intersection = quorums
        .iter()
        .flat_map(|a| quorums.iter().map(move |b| a.intersection_len(b)))
        .min()
        .unwrap();
    assert_eq!(
        min_intersection,
        theorems::structural_intersection_bound(n, f),
        "bound must be attained"
    );
}
