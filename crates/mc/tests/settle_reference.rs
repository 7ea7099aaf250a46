//! `Engine::settle` asks only what the last fire touched: the events at
//! the recipient it wrote and the ones past the index it fired at. This
//! pins it to the settle it replaced, kept here as the reference — drain
//! every absorbed event, fire the lowest-index forcible threshold-inert
//! delivery, and start over from index 0 until nothing is left to force.
//!
//! Along seeded random branching paths, the engine replays each prefix
//! (`Engine::replay`: one full settle, then the incremental one after
//! every fire) and a reference simulation takes the same steps through
//! `build_sim` and [`reference_settle`]. After every settle both must hold
//! the same pending events in the same order, the same fired-event count
//! and the same state hash — so the forced-fire sequence, the drain's
//! compaction and the event log's length are all pinned.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use scup_harness::scenario::{ProtocolSpec, Scenario};
use scup_harness::AdversaryRegistry;
use scup_mc::build::{Driver, Explored, Setup};
use scup_mc::Engine;
use scup_sim::{ExploreEvent, ExploreSim};

/// The scenarios of `campaigns/explore.toml`.
fn campaign_scenarios() -> Vec<Scenario> {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../campaigns/explore.toml"),
    )
    .expect("campaigns/explore.toml");
    scup_harness::campaign_from_str(&text)
        .expect("the campaign parses")
        .scenarios
}

/// The settle `Engine::settle` replaced: a full drain, then the first
/// forcible threshold-inert delivery from index 0, fired, drained, and
/// the scan restarted.
fn reference_settle<P: Explored>(
    driver: &Driver<'_, P>,
    eager_inert: bool,
    sim: &mut ExploreSim<P::Msg>,
) {
    sim.drain_absorbed();
    if !eager_inert {
        return;
    }
    'outer: loop {
        let pending = sim.pending().len();
        for idx in 0..pending {
            let forcible = match sim.pending_at(idx) {
                ExploreEvent::Deliver { from, msg, .. } => {
                    let origin = P::msg_origin(*from, msg);
                    P::inert_origin_ok(!driver.setup().faulty.contains(origin), msg)
                }
                ExploreEvent::Timer { .. } => false,
            };
            if forcible && sim.is_threshold_inert(idx) {
                sim.fire_uncounted(idx);
                sim.drain_absorbed();
                continue 'outer;
            }
        }
        return;
    }
}

/// What the two settles must agree on: the pending events in order, the
/// fired-event count, the state hash.
fn view<M: scup_sim::SimMessage>(sim: &ExploreSim<M>) -> (Vec<u128>, u64, u128) {
    let pending = (0..sim.pending().len())
        .map(|idx| sim.pending_hash(idx))
        .collect();
    (pending, sim.events_fired(), sim.state_hash())
}

/// Walks `seeds` random branching paths per adversary variant, each to
/// quiescence or `max_fires` fires; returns the fires walked in total.
fn walk<P: Explored>(
    scenario: &Scenario,
    driver: &Driver<'_, P>,
    seeds: u64,
    max_fires: usize,
) -> usize {
    let engine = Engine::new(driver, scenario.explore);
    let eager_inert = scenario.explore.eager_inert;
    let mut fired = 0;
    for variant in 0..driver.setup().variants() {
        for seed in 0..seeds {
            let mut reference = driver.build_sim(variant);
            reference.start();
            reference_settle(driver, eager_inert, &mut reference);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut path: Vec<u32> = Vec::new();
            loop {
                assert_eq!(
                    view(&engine.replay(variant, &path)),
                    view(&reference),
                    "{}: variant {variant}, seed {seed}, path {path:?}: incremental settle \
                     (left) vs reference settle (right)",
                    scenario.name
                );
                if reference.is_quiescent() || path.len() == max_fires {
                    break;
                }
                let choices = reference.choices();
                let choice = choices[rng.random_range(0..choices.len())];
                reference.fire(choice);
                reference_settle(driver, eager_inert, &mut reference);
                path.push(choice as u32);
                fired += 1;
            }
        }
    }
    fired
}

/// Resolves `scenario` and walks it under the driver the campaign runner
/// would pick.
fn check(scenario: &Scenario, seeds: u64, max_fires: usize) -> usize {
    let setup = Setup::from_scenario(scenario, &AdversaryRegistry::builtin())
        .expect("scenario must resolve");
    match (setup.protocol, setup.explore_discovery) {
        (ProtocolSpec::BftCup, _) => {
            let driver = Driver::new(&setup, setup.bft());
            walk(scenario, &driver, seeds, max_fires)
        }
        (ProtocolSpec::StellarMinimal, true) => {
            let driver = Driver::new(&setup, setup.stack());
            walk(scenario, &driver, seeds, max_fires)
        }
        _ => {
            let driver = Driver::new(&setup, setup.scp());
            walk(scenario, &driver, seeds, max_fires)
        }
    }
}

#[test]
fn incremental_settle_equals_the_full_rescan() {
    // The three-proposer cycle (long forced-fire chains), the Theorem-2
    // split system and the equivocating sink2 system (faulty origins the
    // origin gate refuses, every adversary variant).
    let campaign = campaign_scenarios();
    for name in ["sink3-proposers", "split-quorums-bad", "sink2-equivocate"] {
        let scenario = campaign
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("`{name}` ships in the campaign"));
        assert!(
            scenario.explore.eager_inert,
            "{name}: settle forces nothing"
        );
        let fired = check(scenario, 16, 64);
        assert!(fired > 20, "{name}: walked only {fired} fires");
    }
}

#[test]
// Every scenario of the campaign, 256 paths per variant.
#[cfg_attr(debug_assertions, ignore = "release-only; see explore-smoke CI job")]
fn incremental_settle_equals_the_full_rescan_on_the_whole_campaign() {
    for scenario in &campaign_scenarios() {
        check(scenario, 256, 64);
    }
}
