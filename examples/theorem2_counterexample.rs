//! The Theorem 2 counterexample, both statically (disjoint quorums) and
//! dynamically (SCP runs that externalize different values).
//!
//! Run: `cargo run --release --example theorem2_counterexample`

use scup_graph::{generators, ProcessSet};
use scup_harness::scenario::{ChurnSpec, FaultSpec, NetworkSpec, ProtocolSpec};
use scup_harness::{oracle, protocol, AdversaryKind};
use stellar_cup::attempts::LocalSliceStrategy;
use stellar_cup::theorems;

fn main() {
    let kg = generators::fig2();

    // Static: the violation witness of Theorem 2.
    let v = theorems::theorem2_violation(&kg, LocalSliceStrategy::AllButOne, 1)
        .expect("Fig. 2 is small enough to search")
        .expect("Fig. 2 must exhibit the violation");
    println!("Theorem 2 witness on Fig. 2 (0-based ids):");
    println!(
        "  Q1 = {}  Q2 = {}  |Q1 ∩ Q2| = {}",
        v.q1, v.q2, v.intersection_len
    );

    // Dynamic: run SCP with those local slices until a schedule splits the
    // two quorums.
    println!("searching for a disagreeing schedule...");
    let network = NetworkSpec {
        gst: 80,
        ..NetworkSpec::default()
    };
    let inputs = vec![1, 1, 1, 1, 104, 105, 106];
    let none = ProcessSet::new();
    for seed in 0..40u64 {
        let out = protocol::execute(
            ProtocolSpec::StellarLocal(LocalSliceStrategy::AllButOne),
            &kg,
            1,
            &none,
            AdversaryKind::Silent,
            &network,
            &FaultSpec::default(),
            &ChurnSpec::default(),
            inputs.clone(),
            seed,
        );
        let verdict = oracle::evaluate(
            &kg,
            1,
            &none,
            &inputs,
            &out.decisions,
            AdversaryKind::Silent,
        );
        if verdict.termination && !verdict.agreement {
            println!("  seed {seed}: AGREEMENT VIOLATED");
            for (i, d) in out.decisions.iter().enumerate() {
                println!("    node {} externalized {:?}", i + 1, d.unwrap());
            }
            println!("Stellar cannot solve consensus from PD_i and f alone (Corollary 1).");
            return;
        }
    }
    panic!("no disagreement found — increase the seed range");
}
