//! Integration tests tying the static theory (fbqs checks) to the dynamic
//! protocols: slices built from *distributed* sink detections must satisfy
//! Theorems 3–5, and the BFT-CUP baseline must agree wherever SCP+SD does.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scup_fbqs::Fbqs;
use scup_graph::{generators, ProcessSet};
use scup_harness::scenario::{ChurnSpec, FaultSpec, Named, NetworkSpec, ProtocolSpec};
use scup_harness::{oracle, protocol, AdversaryKind};
use stellar_cup::consensus::{self, EndToEndConfig};
use stellar_cup::{build_slices, theorems};

#[test]
fn distributed_detections_feed_theorem_checks() {
    // Run phase 1 (Algorithm 3) for real, build Algorithm 2 slices from the
    // actual detections, then validate Theorems 3-5 on the result.
    let kg = generators::fig2();
    let faulty = ProcessSet::from_ids([5]);
    let (detections, _) =
        consensus::run_sink_detection(&kg, 1, &faulty, &EndToEndConfig::default());

    let families: Vec<_> = kg
        .processes()
        .map(|i| match &detections[i.index()] {
            Some(d) => build_slices(d, 1),
            None => scup_fbqs::SliceFamily::empty(),
        })
        .collect();
    let sys = Fbqs::new(families);
    let correct = kg.graph().vertex_set().difference(&faulty);

    assert_eq!(
        theorems::theorem3_all_intertwined(&sys, &correct, 1, 1 << 18).unwrap(),
        None,
        "Theorem 3 on distributed detections"
    );
    assert!(
        theorems::theorem4_quorum_availability(&sys, &correct).is_empty(),
        "Theorem 4 on distributed detections"
    );
    assert!(
        theorems::theorem5_consensus_cluster(&sys, &correct, 1, 1 << 18).unwrap(),
        "Theorem 5 on distributed detections"
    );
}

#[test]
fn bftcup_and_scp_sd_agree_on_solvability() {
    // Theorem 1 vs Theorem 5: on Byzantine-safe graphs with ≥ 2f+1 correct
    // sink members, both the baseline and the sink-detector pipeline solve
    // consensus — and with unanimous inputs, strong validity pins the value.
    for seed in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (kg, faulty) = generators::random_byzantine_safe(5, 4, 1, &mut rng);
        let inputs = vec![7; kg.n()];
        for protocol in [ProtocolSpec::BftCup, ProtocolSpec::StellarMinimal] {
            let out = protocol::execute(
                protocol,
                &kg,
                1,
                &faulty,
                AdversaryKind::Silent,
                &NetworkSpec::default(),
                &FaultSpec::default(),
                &ChurnSpec::default(),
                inputs.clone(),
                seed,
            );
            let r = oracle::evaluate(
                &kg,
                1,
                &faulty,
                &inputs,
                &out.decisions,
                AdversaryKind::Silent,
            );
            let at = format!("{}, seed {seed}", protocol.name());
            assert!(r.premise && r.holds(), "{at}: {:?}", r.violations);
            assert!(
                kg.processes()
                    .filter(|i| !faulty.contains(*i))
                    .all(|i| out.decisions[i.index()] == Some(7)),
                "{at}"
            );
        }
    }
}

#[test]
fn structural_and_exhaustive_intertwined_agree() {
    // The polynomial bound must never claim more than the exhaustive check
    // delivers on small instances.
    for (s, ns) in [(5usize, 3usize), (6, 2)] {
        let mut rng = StdRng::seed_from_u64((s + ns) as u64);
        let (kg, faulty) = generators::random_byzantine_safe(s, ns, 1, &mut rng);
        let (sys, v_sink) = theorems::algorithm2_system(&kg, 1).unwrap();
        let correct = kg.graph().vertex_set().difference(&faulty);
        let bound = theorems::structural_intersection_bound(v_sink.len(), 1);
        assert!(bound > 1, "bound must exceed f");
        assert_eq!(
            theorems::theorem3_all_intertwined(&sys, &correct, bound - 1, 1 << 18).unwrap(),
            None,
            "pairwise intersections must reach the structural bound"
        );
    }
}

#[test]
fn paper_quote_pipeline_order_matters() {
    // "processes need to run some distributed knowledge-increasing protocol
    // before building their slices" — building slices from the *initial* PD
    // (no knowledge increase) fails; after Algorithm 3 it works. Both paths
    // exercised above; this asserts the contrast on one graph.
    let kg = generators::fig2();
    let violation =
        theorems::theorem2_violation(&kg, stellar_cup::attempts::LocalSliceStrategy::AllButOne, 1);
    assert!(
        matches!(violation, Ok(Some(_))),
        "before: quorum intersection fails"
    );
    let (sys, _) = theorems::algorithm2_system(&kg, 1).unwrap();
    let correct = kg.graph().vertex_set();
    assert!(
        theorems::theorem5_consensus_cluster(&sys, &correct, 1, 1 << 18).unwrap(),
        "after: single maximal consensus cluster"
    );
}
