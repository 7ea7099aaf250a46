//! The roster matrix: every protocol × every adversary, sampled on Fig. 2
//! with one Byzantine sink member and `f = 1` — each cell is one arm of
//! `stellar_cup::roster::seat` under one protocol description, including
//! the BFT-CUP echo / crash / equivocating-leader arms no checked-in
//! campaign samples.

use scup::harness::campaign::{Campaign, CampaignMode, RunRecord};
use scup::harness::scenario::{FaultPlacement, OracleMode, ProtocolSpec, Scenario, TopologySpec};
use scup::harness::AdversaryRegistry;
use stellar_cup::attempts::LocalSliceStrategy;

const ADVERSARIES: [&str; 5] = ["silent", "echo", "crash:4", "equivocate", "forged-slice"];
const SEEDS: u64 = 4;

fn sample(protocol: ProtocolSpec) -> Vec<RunRecord> {
    let scenarios = ADVERSARIES
        .iter()
        .map(|adversary| {
            Scenario::builder(format!("{}-{adversary}", protocol.name()))
                .topology(TopologySpec::Fig2)
                .f(1)
                .protocol(protocol)
                .adversary(*adversary)
                .faults(FaultPlacement::Sink { count: 1 })
                // The assertions below judge each cell; the campaign's own
                // pass/fail stays out of the way.
                .oracle(OracleMode::Observe)
                .seeds(0, SEEDS)
                .build()
        })
        .collect();
    let report = Campaign {
        name: "roster-matrix".into(),
        mode: CampaignMode::Sample,
        threads: 2,
        scenarios,
    }
    .run();
    assert_eq!(report.runs.len(), ADVERSARIES.len() * SEEDS as usize);
    report.runs
}

#[test]
fn every_protocol_adversary_cell_runs_through_the_roster() {
    // Theorems 1 and 5: on a Byzantine-safe graph both protocols owe
    // agreement, validity (where the adversary cannot inject values) and
    // termination, whatever the faulty sink member does.
    let registry = AdversaryRegistry::builtin();
    for protocol in [ProtocolSpec::StellarMinimal, ProtocolSpec::BftCup] {
        for run in sample(protocol) {
            let cell = format!("{} seed {}", run.scenario, run.seed);
            let inv = &run.invariants;
            assert_eq!(run.error, None, "{cell}");
            assert!(inv.premise, "{cell}: one sink fault keeps Fig. 2 safe");
            assert!(inv.agreement, "{cell}: {:?}", inv.violations);
            let judged = registry
                .resolve(&run.adversary)
                .unwrap()
                .preserves_validity();
            assert_eq!(inv.validity, judged.then_some(true), "{cell}");
            // A BFT-CUP run with an echoing sink member can end with every
            // correct process undecided (20 of seeds 0..48 at this PR) — a
            // Theorem-1 liveness gap recorded under ROADMAP direction 1,
            // not fixed here. Safety only for that cell.
            if !(protocol == ProtocolSpec::BftCup && run.adversary == "echo") {
                assert!(inv.termination, "{cell}: {:?}", inv.violations);
            }
        }
    }

    // The Theorem-2 exhibit: local slices may split the decision, so
    // agreement is deliberately not asserted — but every cell must run to
    // completion with every correct process decided.
    for run in sample(ProtocolSpec::StellarLocal(LocalSliceStrategy::AllButOne)) {
        let cell = format!("{} seed {}", run.scenario, run.seed);
        assert_eq!(run.error, None, "{cell}");
        let inv = &run.invariants;
        assert!(inv.termination, "{cell}: {:?}", inv.violations);
    }
}
