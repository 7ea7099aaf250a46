//! The contract the symmetry quotient rests on, checked directly: hashing
//! a state under a group element `π` gives the hash of the `π`-renamed
//! state.
//!
//! For every element `(π, shift)` of a scenario's verified group, and
//! every adversary variant `v`, two simulations are walked in lockstep:
//! `A` (variant `v`) takes a seeded random schedule, `B` (variant
//! `v + shift`) takes its `π`-image — the pending event of `B` whose hash
//! is the *renamed* hash of the event `A` fires. If every fingerprint
//! writes its process ids through `StateHasher::write_id` / `write_set`,
//! `A.state_hash_perm(k, π) == B.state_hash()` holds from the start state
//! on; an id written as a plain integer breaks it within a few steps (or
//! leaves `B` without a matching event).
//!
//! Run this after adding or changing any explorable actor or message.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use scup_harness::scenario::{FaultPlacement, ProtocolSpec, Scenario};
use scup_harness::AdversaryRegistry;
use scup_mc::build::{Driver, Explored, Setup};
use scup_mc::Symmetry;
use scup_sim::StateHasher;

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

/// Walks `A` and its image `B` for at most `max_steps` fires per
/// `(group element, variant, seed)`; returns the fires walked in total.
fn walk<P: Explored>(
    name: &str,
    driver: &Driver<'_, P>,
    symmetry: &Symmetry,
    max_steps: usize,
    seeds: u64,
) -> usize {
    let variants = driver.setup().variants();
    let mut fired = 0;
    for (k, (perm, shift)) in symmetry.elements().enumerate() {
        for (variant, seed) in (0..variants).flat_map(|v| (0..seeds).map(move |s| (v, s))) {
            let at = |step: usize| format!("{name}: element {k}, variant {variant}, step {step}");
            let mut a = driver.build_sim(variant);
            let mut b = driver.build_sim((variant + shift) % variants);
            a.start();
            b.start();
            assert_eq!(a.state_hash_perm(k, perm), b.state_hash(), "{}", at(0));
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 1..=max_steps {
                assert_eq!(a.drain_absorbed(), b.drain_absorbed(), "{}", at(step));
                if a.is_quiescent() {
                    break;
                }
                let idx = rng.random_range(0..a.pending().len());
                let mut h = StateHasher::with_renaming(perm);
                a.pending_at(idx).fingerprint(&mut h);
                let image = h.finish();
                let twin = (0..b.pending().len())
                    .find(|&j| b.pending_hash(j) == image)
                    .unwrap_or_else(|| panic!("{}: no image of {:?}", at(step), a.pending_at(idx)));
                a.fire(idx);
                b.fire(twin);
                assert_eq!(a.state_hash_perm(k, perm), b.state_hash(), "{}", at(step));
                fired += 1;
            }
        }
    }
    fired
}

/// Resolves `scenario`, computes its group and walks it under the driver
/// the campaign runner would pick. Returns `(group order, fires walked)`.
fn check(scenario: &Scenario, max_steps: usize, seeds: u64) -> (u64, usize) {
    let setup = Setup::from_scenario(scenario, &AdversaryRegistry::builtin())
        .expect("scenario must resolve");
    let symmetry = Symmetry::compute(&setup);
    let name = scenario.name.as_str();
    let fired = match (setup.protocol, setup.explore_discovery) {
        (ProtocolSpec::BftCup, _) => {
            let driver = Driver::new(&setup, setup.bft());
            walk(name, &driver, &symmetry, max_steps, seeds)
        }
        (ProtocolSpec::StellarMinimal, true) => {
            let driver = Driver::new(&setup, setup.stack());
            walk(name, &driver, &symmetry, max_steps, seeds)
        }
        _ => {
            let driver = Driver::new(&setup, setup.scp());
            walk(name, &driver, &symmetry, max_steps, seeds)
        }
    };
    (symmetry.group_order(), fired)
}

/// `scenario` with nobody faulty, the two outsiders of its 2 + 2 system
/// proposing alike, and one timer each: the swap of the outsiders then
/// moves *correct* processes, so their own ids, their queries, their
/// envelopes and their timers pass through the id-writing lines of the
/// CUP-stack fingerprints (a silent outsider only ever shows up inside
/// sets and as a recipient).
fn with_correct_outsiders(scenario: &Scenario) -> Scenario {
    let mut scenario = scenario.clone();
    scenario.name.push_str("+correct-outsiders");
    scenario.faults = FaultPlacement::None;
    scenario.inputs = Some(vec![3, 9, 5, 5]);
    scenario.explore.timer_budget = 1;
    scenario
}

/// The BFT-CUP and full-stack scenarios of the campaign, each as shipped
/// and [`with_correct_outsiders`].
fn cup_stack_scenarios(campaign: &[Scenario]) -> Vec<Scenario> {
    ["bftcup-sink2-outsiders", "sink2-discovery-interleaved"]
        .iter()
        .flat_map(|name| {
            let shipped = campaign
                .iter()
                .find(|s| s.name == *name)
                .unwrap_or_else(|| panic!("`{name}` ships in the campaign"));
            [shipped.clone(), with_correct_outsiders(shipped)]
        })
        .collect()
}

#[test]
fn renamed_hashes_track_the_renamed_run() {
    // One roster each: SCP (the 3-cycle's two rotations), BFT-CUP and the
    // full stack (the swap of their two outsiders, silent as shipped and
    // correct).
    let campaign = campaign_scenarios();
    let scp = campaign
        .iter()
        .find(|s| s.name == "sink3-proposers")
        .expect("`sink3-proposers` ships in the campaign");
    for scenario in std::iter::once(scp).chain(&cup_stack_scenarios(&campaign)) {
        // At most 4 × 50 = 200 fires per group element and variant.
        let (order, fired) = check(scenario, 50, 4);
        let name = &scenario.name;
        assert!(order > 1, "{name}: the group must be nontrivial");
        assert!(fired > 20, "{name}: walked only {fired} steps");
    }
}

#[test]
// Every scenario of the campaign and the correct-outsider variants, every
// group element, 256 schedules each, walked to quiescence.
#[cfg_attr(debug_assertions, ignore = "release-only; see explore-smoke CI job")]
fn renamed_hashes_track_the_renamed_run_on_the_whole_campaign() {
    let campaign = campaign_scenarios();
    for scenario in campaign.iter().chain(&cup_stack_scenarios(&campaign)) {
        check(scenario, 10_000, 256);
    }
}
