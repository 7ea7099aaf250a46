//! The roster matrix: every protocol × every adversary, sampled on Fig. 2
//! with one Byzantine sink member and `f = 1` — each cell is one arm of
//! `stellar_cup::roster::seat` under one protocol description, including
//! the BFT-CUP echo / crash / equivocating-leader arms no checked-in
//! campaign samples — once on reliable links and once under a healing
//! loss plan, where every actor the roster builds retransmits.

use scup::harness::campaign::{Campaign, CampaignMode, RunRecord};
use scup::harness::scenario::{
    FaultPlacement, FaultSpec, Named, OracleMode, ProtocolSpec, Scenario,
};
use scup::harness::AdversaryRegistry;
use stellar_cup::attempts::LocalSliceStrategy;

const ADVERSARIES: [&str; 5] = ["silent", "echo", "crash:4", "equivocate", "forged-slice"];
const SEEDS: u64 = 4;

fn sample(protocol: ProtocolSpec, plan: &FaultSpec, seeds: u64) -> Vec<RunRecord> {
    let scenarios = ADVERSARIES
        .iter()
        .map(|adversary| {
            Scenario {
                name: format!("{}-{adversary}", protocol.name()),
                protocol,
                adversary: adversary.to_string(),
                faults: FaultPlacement::Sink { count: 1 },
                fault_plan: plan.clone(),
                // The assertions below judge each cell; the campaign's own
                // pass/fail stays out of the way.
                oracle: OracleMode::Observe,
                seeds,
                ..Scenario::default()
            }
        })
        .collect();
    let report = Campaign {
        name: "roster-matrix".into(),
        mode: CampaignMode::Sample,
        threads: 2,
        scenarios,
    }
    .run();
    assert_eq!(report.runs.len(), ADVERSARIES.len() * seeds as usize);
    report.runs
}

/// Agreement, and validity exactly where the adversary cannot inject
/// values (Theorems 1 and 5 on a Byzantine-safe graph).
fn assert_safe(registry: &AdversaryRegistry, run: &RunRecord) -> String {
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
    cell
}

#[test]
fn every_protocol_adversary_cell_runs_through_the_roster() {
    // Theorems 1 and 5: on a Byzantine-safe graph both protocols owe
    // agreement, validity (where the adversary cannot inject values) and
    // termination, whatever the faulty sink member does.
    let registry = AdversaryRegistry::builtin();
    let reliable = FaultSpec::default();
    for protocol in [ProtocolSpec::StellarMinimal, ProtocolSpec::BftCup] {
        for run in sample(protocol, &reliable, SEEDS) {
            let cell = assert_safe(&registry, &run);
            let inv = &run.invariants;
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
    for run in sample(
        ProtocolSpec::StellarLocal(LocalSliceStrategy::AllButOne),
        &reliable,
        SEEDS,
    ) {
        let cell = format!("{} seed {}", run.scenario, run.seed);
        assert_eq!(run.error, None, "{cell}");
        let inv = &run.invariants;
        assert!(inv.termination, "{cell}: {:?}", inv.violations);
    }
}

#[test]
fn every_cell_stays_safe_under_a_healing_loss_plan() {
    // Loss until tick 2 000 switches retransmission on for every actor the
    // roster builds from a correct one — the crash seats included — which
    // no checked-in campaign combines with these adversaries. Safety is
    // owed in every cell; termination is only recorded, since liveness
    // under faults is an open ROADMAP item (direction 1).
    let registry = AdversaryRegistry::builtin();
    let lossy = FaultSpec {
        loss: 0.3,
        loss_until: 2_000,
        ..FaultSpec::default()
    };
    let mut undecided = Vec::new();
    for protocol in [ProtocolSpec::StellarMinimal, ProtocolSpec::BftCup] {
        for run in sample(protocol, &lossy, 2) {
            let cell = assert_safe(&registry, &run);
            assert!(
                !run.retransmit_delay_buckets.is_empty(),
                "{cell}: the plan must switch retransmission on"
            );
            if !run.invariants.termination {
                undecided.push(cell);
            }
        }
    }
    // The Theorem-2 exhibit owes neither agreement nor termination; it
    // must still run through the roster without an error.
    for run in sample(
        ProtocolSpec::StellarLocal(LocalSliceStrategy::AllButOne),
        &lossy,
        2,
    ) {
        assert_eq!(run.error, None, "{} seed {}", run.scenario, run.seed);
    }
    eprintln!("cells with an undecided correct process under loss: {undecided:?}");
}
