//! Cross-crate integration tests: the full paper pipeline
//! (graph → sink detector → slices → SCP) and its negative counterpart,
//! composed by the harness on caller-built graphs and judged by its
//! oracle.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scup_graph::{generators, sink, KnowledgeGraph, ProcessSet};
use scup_harness::oracle::{self, InvariantReport};
use scup_harness::protocol;
use scup_harness::scenario::{ChurnSpec, FaultSpec, NetworkSpec, ProtocolSpec};
use scup_harness::AdversaryKind;
use stellar_cup::attempts::LocalSliceStrategy;
use stellar_cup::consensus::{self, default_inputs, EndToEndConfig};
use stellar_cup::sink_detector::GetSinkMode;

/// The positive pipeline on `kg` under the default network, judged.
fn positive(
    kg: &KnowledgeGraph,
    f: usize,
    faulty: &ProcessSet,
    adversary: AdversaryKind,
    seed: u64,
) -> InvariantReport {
    let inputs = default_inputs(kg.n());
    let out = protocol::execute(
        ProtocolSpec::StellarMinimal,
        kg,
        f,
        faulty,
        adversary,
        &NetworkSpec::default(),
        &FaultSpec::default(),
        &ChurnSpec::default(),
        inputs.clone(),
        seed,
    );
    oracle::evaluate(kg, f, faulty, &inputs, &out.decisions, adversary)
}

#[test]
fn positive_pipeline_across_graphs_and_seeds() {
    for graph_seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let (kg, faulty) = generators::random_byzantine_safe(5, 4, 1, &mut rng);
        for run_seed in 0..2u64 {
            let r = positive(&kg, 1, &faulty, AdversaryKind::Silent, run_seed);
            let at = format!("graph {graph_seed} run {run_seed}");
            assert!(r.premise, "{at}");
            assert!(r.termination && r.agreement, "{at}");
            assert_eq!(r.validity, Some(true), "{at}");
        }
    }
}

#[test]
fn positive_pipeline_on_fig2() {
    let kg = generators::fig2();
    for faulty_id in [0u32, 5] {
        for seed in 0..2 {
            let faulty = ProcessSet::from_ids([faulty_id]);
            let r = positive(&kg, 1, &faulty, AdversaryKind::Silent, seed);
            let at = format!("faulty={faulty_id} seed={seed}");
            assert!(r.termination && r.agreement, "{at}");
            assert_eq!(r.validity, Some(true), "{at}");
        }
    }
}

#[test]
fn positive_pipeline_survives_equivocation() {
    let kg = generators::fig2();
    let faulty = ProcessSet::from_ids([1]);
    let r = positive(&kg, 1, &faulty, AdversaryKind::Equivocate, 0);
    assert!(r.termination && r.agreement, "{:?}", r.violations);
}

#[test]
fn positive_pipeline_with_rrb_get_sink() {
    // The harness always disseminates `GET_SINK` directly, so this run
    // composes the public phases itself.
    let kg = generators::fig2();
    let faulty = ProcessSet::from_ids([6]);
    let inputs = default_inputs(kg.n());
    let config = EndToEndConfig {
        get_sink_mode: GetSinkMode::ReachableBroadcast,
        ..EndToEndConfig::default()
    };
    let (detections, _) = consensus::run_sink_detection(&kg, 1, &faulty, &config);
    let slices = consensus::slices_from_detections(&detections, 1);
    let scp = consensus::run_scp_with_slices_observed(&kg, &faulty, slices, &inputs, &config);
    let r = oracle::evaluate(
        &kg,
        1,
        &faulty,
        &inputs,
        &scp.decisions,
        AdversaryKind::Silent,
    );
    assert!(r.holds(), "{:?}", r.violations);
}

#[test]
fn positive_pipeline_under_equivocation_everywhere() {
    let kg = generators::fig2();
    let v_sink = sink::unique_sink(kg.graph()).unwrap();
    for faulty_id in [0u32, 4] {
        let faulty = ProcessSet::from_ids([faulty_id]);
        let in_sink = v_sink.contains(scup_graph::ProcessId::new(faulty_id));
        let r = positive(&kg, 1, &faulty, AdversaryKind::Equivocate, 99);
        assert!(
            r.termination && r.agreement,
            "equivocating faulty {faulty_id} (in_sink = {in_sink})"
        );
    }
}

#[test]
fn detections_match_the_global_sink() {
    let kg = generators::fig2();
    let v_sink = sink::unique_sink(kg.graph()).unwrap();
    let (detections, _) =
        consensus::run_sink_detection(&kg, 1, &ProcessSet::new(), &EndToEndConfig::default());
    for (i, d) in detections.iter().enumerate() {
        let d = d.as_ref().expect("every correct process detects");
        assert_eq!(d.sink, v_sink, "process {i}");
        assert_eq!(
            d.is_sink_member,
            v_sink.contains(scup_graph::ProcessId::new(i as u32))
        );
    }
}

#[test]
fn negative_pipeline_reproduces_corollary1() {
    let kg = generators::fig2();
    let network = NetworkSpec {
        gst: 80,
        ..NetworkSpec::default()
    };
    let inputs = vec![1, 1, 1, 1, 104, 105, 106];
    let disagreement = (0..30u64).any(|seed| {
        let out = protocol::execute(
            ProtocolSpec::StellarLocal(LocalSliceStrategy::AllButOne),
            &kg,
            1,
            &ProcessSet::new(),
            AdversaryKind::Silent,
            &network,
            &FaultSpec::default(),
            &ChurnSpec::default(),
            inputs.clone(),
            seed,
        );
        let r = oracle::evaluate(
            &kg,
            1,
            &ProcessSet::new(),
            &inputs,
            &out.decisions,
            AdversaryKind::Silent,
        );
        r.termination && !r.agreement
    });
    assert!(
        disagreement,
        "Corollary 1: some schedule must split the quorums"
    );
}

#[test]
fn larger_network_decides() {
    let mut rng = StdRng::seed_from_u64(1);
    let (kg, faulty) = generators::random_byzantine_safe(8, 16, 2, &mut rng);
    let r = positive(&kg, 2, &faulty, AdversaryKind::Silent, 0);
    assert!(
        r.termination && r.agreement,
        "n = {} with f = 2: {:?}",
        kg.n(),
        r.violations
    );
}
