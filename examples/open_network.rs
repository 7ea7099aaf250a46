//! Open-network scenario: a random Byzantine-safe knowledge graph (the
//! CUP-minimal initial knowledge), the full paper pipeline — distributed
//! sink detection (Algorithm 3), slice construction (Algorithm 2), SCP —
//! and the resulting agreement.
//!
//! Run: `cargo run --release --example open_network`

use rand::rngs::StdRng;
use rand::SeedableRng;
use scup_graph::generators;
use scup_harness::scenario::{ChurnSpec, FaultSpec, NetworkSpec, ProtocolSpec};
use scup_harness::{oracle, protocol, AdversaryKind};
use stellar_cup::consensus::default_inputs;

fn main() {
    let f = 1;
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Sink of 6, 10 outer processes; one random Byzantine process.
        let (kg, faulty) = generators::random_byzantine_safe(6, 10, f, &mut rng);
        let inputs = default_inputs(kg.n());
        let out = protocol::execute(
            ProtocolSpec::StellarMinimal,
            &kg,
            f,
            &faulty,
            AdversaryKind::Silent,
            &NetworkSpec::default(),
            &FaultSpec::default(),
            &ChurnSpec::default(),
            inputs.clone(),
            seed,
        );
        let verdict = oracle::evaluate(
            &kg,
            f,
            &faulty,
            &inputs,
            &out.decisions,
            AdversaryKind::Silent,
        );

        println!("seed {seed}: n = {}, faulty = {}", kg.n(), faulty);
        println!(
            "  sink detection + SCP: {} messages, {} bytes, decided at tick {}",
            out.messages_sent, out.bytes_sent, out.end_ticks
        );
        assert!(
            verdict.premise,
            "the generator builds Byzantine-safe graphs"
        );
        assert!(verdict.holds(), "Theorem 5: consensus must hold");
        let value = kg
            .processes()
            .find_map(|i| out.decisions[i.index()])
            .expect("correct processes decide");
        println!(
            "  agreement = {}, termination = {}, value = {value}, validity = {:?}",
            verdict.agreement, verdict.termination, verdict.validity
        );
    }
    println!("all seeds agreed — PD + f + sink detector suffice (Corollary 2)");
}
