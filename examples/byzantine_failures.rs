//! Byzantine-failure scenarios: the pipeline under silent and equivocating
//! adversaries, at the sink and outside it.
//!
//! Run: `cargo run --release --example byzantine_failures`

use scup_graph::{generators, sink, ProcessSet};
use scup_harness::scenario::{ChurnSpec, FaultSpec, NetworkSpec, ProtocolSpec};
use scup_harness::{oracle, protocol, AdversaryKind};
use stellar_cup::consensus::default_inputs;

fn main() {
    let kg = generators::fig2();
    let v_sink = sink::unique_sink(kg.graph()).unwrap();
    println!("Fig. 2 graph; sink = {v_sink} (0-based)");
    let inputs = default_inputs(kg.n());

    for faulty_id in 0..kg.n() as u32 {
        let faulty = ProcessSet::from_ids([faulty_id]);
        let where_ = if v_sink.contains(scup_graph::ProcessId::new(faulty_id)) {
            "sink"
        } else {
            "non-sink"
        };
        for adversary in [AdversaryKind::Silent, AdversaryKind::Equivocate] {
            let out = protocol::execute(
                ProtocolSpec::StellarMinimal,
                &kg,
                1,
                &faulty,
                adversary,
                &NetworkSpec::default(),
                &FaultSpec::default(),
                &ChurnSpec::default(),
                inputs.clone(),
                faulty_id as u64,
            );
            let verdict = oracle::evaluate(&kg, 1, &faulty, &inputs, &out.decisions, adversary);
            assert!(
                verdict.holds(),
                "faulty {faulty_id} ({where_}, {adversary:?}) must not break consensus: {:?}",
                verdict.violations
            );
            let value = kg.processes().find_map(|i| out.decisions[i.index()]);
            println!(
                "faulty p{} ({where_:8}, {adversary:?}): agreement, value {value:?}",
                faulty_id + 1
            );
        }
    }
    println!("one Byzantine process (f = 1) never breaks the sink-detector pipeline");
}
