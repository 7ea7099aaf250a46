//! Quickstart: the paper's Fig. 1 example, end to end.
//!
//! Builds the 8-participant knowledge connectivity graph, inspects its sink,
//! checks the hand-crafted slices of Section III-D form a single maximal
//! consensus cluster, runs SCP on it to externalize a value, and judges the
//! run with the campaign oracle.
//!
//! Run: `cargo run --release --example quickstart`

use scup_fbqs::{cluster, paper, quorum};
use scup_graph::{generators, sink, ProcessSet};
use scup_harness::{oracle, AdversaryKind};
use stellar_cup::consensus::{self, EndToEndConfig};

fn main() {
    // 1. The knowledge connectivity graph of Fig. 1 (0-based ids).
    let kg = generators::fig1();
    println!(
        "knowledge graph: {} processes, {} edges",
        kg.n(),
        kg.graph().edge_count()
    );

    let v_sink = sink::unique_sink(kg.graph()).expect("Fig. 1 has a unique sink");
    println!("sink component (0-based): {v_sink}");

    // 2. The Section III-D slice assignment, and the quorums it induces.
    let sys = paper::fig1_system();
    let w = paper::fig1_correct();
    let core = ProcessSet::from_ids([4, 5, 6]);
    println!("is_quorum({core}) = {}", quorum::is_quorum(&sys, &core));

    let maximal = cluster::maximal_consensus_clusters(
        &sys,
        &w,
        &w,
        cluster::IntertwinedMode::CorrectWitness,
        1 << 12,
    )
    .expect("Fig. 1 is small enough for the exhaustive check");
    println!("maximal consensus clusters: {maximal:?}");
    assert_eq!(
        maximal,
        vec![w.clone()],
        "all correct processes form the unique maximal cluster"
    );

    // 3. Run SCP: 7 correct nodes with the paper's slices, process 8 silent.
    let slices = kg.processes().map(|i| sys.slices(i).clone()).collect();
    let inputs: Vec<u64> = (0..kg.n() as u64).map(|i| 40 + i).collect();
    let config = EndToEndConfig {
        seed: 1,
        ..EndToEndConfig::default()
    };
    let scp = consensus::run_scp_with_slices_observed(
        &kg,
        &paper::fig1_faulty(),
        slices,
        &inputs,
        &config,
    );
    let verdict = oracle::evaluate(
        &kg,
        1,
        &paper::fig1_faulty(),
        &inputs,
        &scp.decisions,
        AdversaryKind::Silent,
    );
    assert!(verdict.holds(), "{:?}", verdict.violations);

    for i in w.iter() {
        let v = scp.decisions[i.index()].expect("every correct node externalizes");
        println!("node {} externalized {v}", i.as_u32() + 1);
    }
    println!(
        "consensus reached on {} in {}",
        scp.decisions[w.iter().next().unwrap().index()].unwrap(),
        scp.report.end_time
    );
}
