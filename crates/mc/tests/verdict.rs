//! Differential test of the two judges of one decision vector: the
//! explorer's per-state verdict ([`Setup::judge`]) against the sampler's
//! oracle ([`oracle::evaluate`]). The explorer classifies a state
//! `Violating`, `Decided(v)` or neither; the oracle reports agreement,
//! validity and termination. For every generated vector — undecided, one
//! value, two values, a faulty proposer's value, an unproposed value —
//! under every adversary, on Fig. 1, Fig. 2 and random Byzantine-safe
//! graphs with varying faulty sets, the two must say the same thing. The
//! explorer's premise must equal the oracle's on every scenario of
//! `campaigns/explore.toml`.

use std::collections::BTreeSet;

use proptest::prelude::*;
use scup_harness::oracle::{self, InvariantReport};
use scup_harness::scenario::{FaultPlacement, ProtocolSpec, Scenario, TopologySpec};
use scup_harness::AdversaryRegistry;
use scup_mc::build::Setup;
use scup_mc::Class;
use scup_scp::Value;
use stellar_cup::attempts::LocalSliceStrategy;

const ADVERSARIES: [&str; 5] = ["silent", "crash", "echo", "equivocate", "forged-slice"];

/// A value nobody proposes (every input is `100 + i`).
const UNPROPOSED: Value = 7;

/// The judged system: Fig. 1, Fig. 2 or a random Byzantine-safe graph,
/// with `faulty` (ids past the graph are dropped) or, on the generated
/// graph, the generator's faulty set. The local-slice pipeline keeps
/// setup cheap; the verdict does not depend on the protocol.
fn setup(topology: usize, adversary: &str, faulty: &[u32], seed: u64) -> Setup {
    let (topology, n) = match topology {
        0 => (TopologySpec::Fig1, 8),
        1 => (TopologySpec::Fig2, 7),
        _ => (
            TopologySpec::ByzantineSafe {
                sink: 5,
                nonsink: 3,
            },
            8,
        ),
    };
    let mut ids: Vec<u32> = faulty.iter().copied().filter(|&i| i < n).collect();
    ids.sort_unstable();
    ids.dedup();
    let placement = match (&topology, ids.is_empty()) {
        (TopologySpec::ByzantineSafe { .. }, true) => FaultPlacement::Generator,
        _ => FaultPlacement::Ids(ids),
    };
    let scenario = Scenario {
        name: "verdict".into(),
        topology,
        adversary: adversary.into(),
        faults: placement,
        protocol: ProtocolSpec::StellarLocal(LocalSliceStrategy::AllButOne),
        seed_base: seed,
        seeds: 1,
        ..Scenario::default()
    };
    Setup::from_scenario(&scenario, &AdversaryRegistry::builtin()).expect("the system resolves")
}

/// A decision vector of one of seven shapes, drawn from a palette of a
/// correct proposer's value, a second proposal, a faulty proposer's value
/// and an unproposed one. Faulty slots get arbitrary values: both judges
/// must ignore them.
fn decisions(setup: &Setup, shape: usize, picks: &[usize]) -> Vec<Option<Value>> {
    let inputs = setup.inputs();
    let correct: Vec<usize> = setup.correct.iter().map(|i| i.index()).collect();
    let faulty_input = setup.faulty.iter().next().map(|i| inputs[i.index()]);
    let a = inputs[correct[picks[0] % correct.len()]];
    let b = inputs[picks[1] % inputs.len()];
    let palette = [
        None,
        Some(a),
        Some(b),
        faulty_input.or(Some(a)),
        Some(UNPROPOSED),
    ];
    (0..inputs.len())
        .map(|i| {
            let pick = picks[i % picks.len()];
            if setup.faulty.contains(scup_graph::ProcessId::new(i as u32)) {
                return palette[pick % palette.len()];
            }
            match shape {
                0 => None,
                1 => Some(a),
                2 => pick.is_multiple_of(2).then_some(a),
                3 => Some(if pick.is_multiple_of(2) { a } else { b }),
                4 => faulty_input,
                5 => Some(UNPROPOSED),
                _ => palette[pick % palette.len()],
            }
        })
        .collect()
}

/// Asserts that the explorer's class and the oracle's report agree.
fn assert_agree(
    class: Option<Class>,
    r: &InvariantReport,
    decisions: &[Option<Value>],
    setup: &Setup,
) {
    let safe = r.agreement && r.validity != Some(false);
    match class {
        Some(Class::Violating) => assert!(!safe, "{decisions:?}: {r:?}"),
        Some(Class::Decided(v)) => {
            assert!(safe && r.termination, "{decisions:?}: {r:?}");
            assert!(
                setup
                    .correct
                    .iter()
                    .all(|i| decisions[i.index()] == Some(v)),
                "{decisions:?} decided {v}"
            );
        }
        None => assert!(safe && !r.termination, "{decisions:?}: {r:?}"),
        Some(other) => panic!("the judge never answers {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn explorer_verdict_matches_the_oracle(
        topology in 0usize..3,
        adversary in 0usize..5,
        seed in 0u64..64,
        faulty in proptest::collection::vec(0u32..8, 0..=2),
        shape in 0usize..7,
        picks in proptest::collection::vec(0usize..64, 8),
    ) {
        let setup = setup(topology, ADVERSARIES[adversary], &faulty, seed);
        let decisions = decisions(&setup, shape, &picks);
        let r = oracle::evaluate(
            &setup.kg,
            setup.f,
            &setup.faulty,
            setup.inputs(),
            &decisions,
            setup.config.adversary,
        );
        assert_agree(setup.judge(&decisions), &r, &decisions, &setup);
        prop_assert_eq!(setup.premise, r.premise);
    }
}

#[test]
fn the_shapes_reach_every_class() {
    // Under every adversary the shapes reach all three classes; a
    // generator that stopped doing so would make the property vacuous.
    for adversary in ADVERSARIES {
        let setup = setup(1, adversary, &[5], 0);
        let mut classes = BTreeSet::new();
        for shape in 0..7 {
            for pick in 0..16 {
                let picks: Vec<usize> = (pick..pick + 8).collect();
                classes.insert(match setup.judge(&decisions(&setup, shape, &picks)) {
                    Some(Class::Violating) => "violating",
                    Some(Class::Decided(_)) => "decided",
                    _ => "neither",
                });
            }
        }
        assert_eq!(classes.len(), 3, "{adversary}: {classes:?}");
        // An unproposed value violates exactly where validity is judged.
        let unproposed = vec![Some(UNPROPOSED); 7];
        let expected = if setup.config.adversary.preserves_validity() {
            Class::Violating
        } else {
            Class::Decided(UNPROPOSED)
        };
        assert_eq!(setup.judge(&unproposed), Some(expected), "{adversary}");
    }
}

#[test]
fn a_crashed_proposers_value_is_valid() {
    // A fail-stop process proposes honestly before crashing, so under the
    // crash adversary every correct process deciding its input is a valid
    // run — and a silent process's input, never transmitted, is not.
    for (adversary, valid) in [("crash", true), ("crash:1", true), ("silent", false)] {
        let setup = setup(1, adversary, &[5], 0);
        let crashed = setup.inputs()[5];
        let decisions: Vec<Option<Value>> = (0..7).map(|i| (i != 5).then_some(crashed)).collect();
        let r = oracle::evaluate(
            &setup.kg,
            setup.f,
            &setup.faulty,
            setup.inputs(),
            &decisions,
            setup.config.adversary,
        );
        assert_eq!(r.validity, Some(valid), "{adversary}");
        assert!(r.agreement && r.termination, "{adversary}");
        let expected = if valid {
            Class::Decided(crashed)
        } else {
            Class::Violating
        };
        assert_eq!(setup.judge(&decisions), Some(expected), "{adversary}");
    }
}

#[test]
fn explore_campaign_premises_match_the_oracle() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../campaigns/explore.toml"),
    )
    .expect("campaigns/explore.toml");
    let campaign = scup_harness::campaign_from_str(&text).expect("the campaign parses");
    let registry = AdversaryRegistry::builtin();
    for scenario in &campaign.scenarios {
        let setup = Setup::from_scenario(scenario, &registry).expect("explorable");
        let r = oracle::evaluate(
            &setup.kg,
            setup.f,
            &setup.faulty,
            setup.inputs(),
            &vec![None; setup.kg.n()],
            setup.config.adversary,
        );
        assert_eq!(setup.premise, r.premise, "{}", scenario.name);
    }
}
