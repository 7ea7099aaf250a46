//! Property: sampling ⊆ exploration. Any agreement/validity verdict that
//! 200 seeded campaign runs can reach on a scenario must also be reachable
//! by the explorer — a sampled schedule is one point of the space the
//! explorer covers. (The converse is false by design: the explorer finds
//! interleavings sampling misses.)

use proptest::prelude::*;
use scup_harness::campaign::run_one;
use scup_harness::scenario::{ExploreSpec, FaultPlacement, ProtocolSpec, Scenario, TopologySpec};
use scup_harness::AdversaryRegistry;
use scup_mc::campaign::explore_scenario;
use stellar_cup::attempts::LocalSliceStrategy;

/// The pool of small scenarios where the explorer's bounds demonstrably
/// cover the whole space (`complete = true`), so the subset claim is
/// meaningful for both violating and agreeing verdicts. All three are the
/// non-intertwined clustered system under different input assignments:
/// split inputs (every schedule disagrees), a common input (agreement
/// holds despite the broken structure), and mixed inputs (sampling only
/// ever sees agreement on the max value; the explorer additionally finds
/// the disagreeing interleavings).
fn pool(which: usize, seed_base: u64) -> Scenario {
    // Split inputs both ways and the common-input case; the fully mixed
    // assignment ([1, 2] in *both* cliques) is a 3-million-state space —
    // real, but not property-test material.
    let inputs = match which % 3 {
        0 => vec![1, 1, 2, 2],
        1 => vec![5],
        _ => vec![2, 2, 1, 1],
    };
    Scenario {
        name: "split22".into(),
        topology: TopologySpec::Clustered {
            clusters: 2,
            cluster_size: 2,
            bridges: 0,
            intra_extra_prob: 0.0,
            inter_extra_prob: 0.0,
        },
        f: 0,
        protocol: ProtocolSpec::StellarLocal(LocalSliceStrategy::SurviveF),
        inputs: Some(inputs),
        seed_base,
        seeds: 200,
        explore: ExploreSpec {
            max_steps: 64,
            timer_budget: 0,
            ..Default::default()
        },
        ..Scenario::default()
    }
}

/// The BFT-CUP pool: the fig1-style 2-member-sink system with silent
/// outsiders, in the two configurations the differential suite proves the
/// explorer exhausts (`complete = true`). Case 0 splits the sink's
/// proposals and explores with a timer budget, so sampled view-change
/// timeouts have explored counterparts; case 1 gives both members the
/// same proposal (the only sampled-or-explored decision is that value).
fn bftcup_pool(which: usize, seed_base: u64) -> Scenario {
    let (inputs, max_steps, timer_budget) = match which % 2 {
        0 => (vec![3, 9], 96, 1),
        _ => (vec![5, 5], 64, 0),
    };
    Scenario {
        name: "bftcup-sink2".into(),
        topology: TopologySpec::RandomKosr {
            sink: 2,
            nonsink: 2,
            k: 1,
            extra_edge_prob: 0.0,
        },
        f: 0,
        faults: FaultPlacement::Ids(vec![2, 3]),
        protocol: ProtocolSpec::BftCup,
        inputs: Some(inputs),
        seed_base,
        seeds: 200,
        explore: ExploreSpec {
            max_steps,
            timer_budget,
            ..Default::default()
        },
        ..Scenario::default()
    }
}

/// The shared property body: 200 seeded sampled runs, then one
/// exploration; every sampled verdict class must be present in the
/// explored (exhaustive) space.
fn assert_sampling_subset_of_exploration(scenario: &Scenario) {
    let registry = AdversaryRegistry::builtin();

    let mut sampled_violation = false;
    let mut sampled_agreed_values = Vec::new();
    for seed in scenario.seed_base..scenario.seed_base + scenario.seeds {
        let run = run_one(scenario, seed, &registry);
        prop_assert_eq!(run.error, None);
        let inv = &run.invariants;
        if !inv.agreement || inv.validity == Some(false) {
            sampled_violation = true;
        } else if let Some(v) = run.decided_value {
            if !sampled_agreed_values.contains(&v) {
                sampled_agreed_values.push(v);
            }
        }
    }

    let record = explore_scenario(scenario, 2, &registry);
    prop_assert_eq!(record.error, None);
    prop_assert!(record.complete, "pool scenarios must be exhaustible");

    // Sampling ⊆ exploration, per verdict class:
    if sampled_violation {
        prop_assert!(
            record.violating > 0,
            "a sampled violation must exist in the explored space"
        );
    }
    for v in sampled_agreed_values {
        prop_assert!(
            record.decided_values.contains(&v),
            "sampled agreed value {v} missing from explored terminals {:?}",
            record.decided_values
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    // ~20k explored states per violating case; affordable in release, slow
    // unoptimized (the explore-smoke CI job runs with --include-ignored).
    #[cfg_attr(debug_assertions, ignore = "release-only; see explore-smoke CI job")]
    fn sampled_verdicts_are_reachable_by_exploration(which in 0usize..3, seed_base in 0u64..1000) {
        assert_sampling_subset_of_exploration(&pool(which, seed_base));
    }

    #[test]
    // BFT-CUP twin of the property above: the sampled full-stack runs
    // (discovery + consensus + dissemination) land inside the explored
    // schedule space.
    #[cfg_attr(debug_assertions, ignore = "release-only; see explore-smoke CI job")]
    fn sampled_bftcup_verdicts_are_reachable_by_exploration(
        which in 0usize..2,
        seed_base in 0u64..1000,
    ) {
        assert_sampling_subset_of_exploration(&bftcup_pool(which, seed_base));
    }
}
