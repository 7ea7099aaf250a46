//! Integration tests for the bounded model checker: determinism across
//! worker counts, exhaustive verdicts on the campaign systems, and the
//! seeded counterexample.

use scup_harness::campaign::{run_one, Campaign, CampaignMode};
use scup_harness::scenario::{
    ExploreSpec, FaultPlacement, NetworkSpec, ProtocolSpec, Scenario, TopologySpec,
};
use scup_harness::AdversaryRegistry;
use scup_mc::campaign::explore_scenario;
use scup_mc::{run_explore_campaign, ExploreRecord};
use stellar_cup::attempts::LocalSliceStrategy;

/// The n = 4 positive system of `campaigns/explore.toml`: a 2-member
/// sink with two silent Byzantine outsiders.
fn sink2(steps: u32, timer_budget: u32, adversary: &str, inputs: Vec<u64>) -> Scenario {
    Scenario {
        name: "sink2".into(),
        topology: TopologySpec::RandomKosr {
            sink: 2,
            nonsink: 2,
            k: 1,
            extra_edge_prob: 0.0,
        },
        f: 0,
        adversary: adversary.into(),
        faults: FaultPlacement::Ids(vec![2, 3]),
        inputs: Some(inputs),
        explore: ExploreSpec {
            max_steps: steps,
            timer_budget,
            ..Default::default()
        },
        ..Scenario::default()
    }
}

/// The seeded known-bad system: two disjoint 2-cliques with local slices.
fn split22() -> Scenario {
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
        inputs: Some(vec![1, 1, 2, 2]),
        explore: ExploreSpec {
            max_steps: 48,
            timer_budget: 0,
            ..Default::default()
        },
        expect_violation: true,
        ..Scenario::default()
    }
}

/// A step-bounded cut of the bad system: still finds the depth-16
/// violation, at a small fraction of the full 20 880-state space (keeps
/// the debug-mode suite fast and stresses truncated-state merging).
fn split22_bounded() -> Scenario {
    let mut s = split22();
    s.explore.max_steps = 17;
    s
}

/// Strips the fields outside the bit-identical contract: wall-clock time
/// and the traversal-effort counters (how hard this particular worker
/// partition worked — not what it found). The `obs` block is effort
/// telemetry end to end — timings, occupancy, re-expansions — so it is
/// excluded wholesale.
fn deterministic_view(mut r: ExploreRecord) -> ExploreRecord {
    r.wall_micros = 0;
    r.transitions = 0;
    r.obs = None;
    // Forensics is opt-in annotation on the rendered counterexample;
    // like `obs`, it is outside the bit-identity contract.
    if let Some(v) = &mut r.violation {
        v.forensics = None;
    }
    r
}

#[test]
fn exhaustive_pass_on_the_positive_system() {
    let r = explore_scenario(
        &sink2(64, 0, "silent", vec![3, 9]),
        2,
        &AdversaryRegistry::builtin(),
    );
    assert_eq!(r.error, None);
    assert!(r.complete, "the state space must be exhausted");
    assert_eq!(r.truncated, 0);
    assert_eq!(r.violating, 0);
    // Both proposals are reachable decisions (nomination order picks the
    // winner), but no schedule ever splits them.
    assert_eq!(r.decided_values, vec![3, 9]);
    assert!(r.decided > 0);
    // Silent Byzantines beyond f = 0: the structural premise does not
    // hold — yet safety holds on every schedule, which is the point.
    assert!(!r.premise);
    assert!(r.passed);
    // The canonical state count is part of the deterministic contract; a
    // change here means the protocol or the reductions changed. (1 785
    // without reductions — see tests/differential.rs, which pins that the
    // verdicts agree; eager-inert flood-tail collapsing plus the
    // interchangeable-outsider quotient bring it to 287.)
    assert_eq!(r.states, 287);
}

#[test]
fn sampling_only_keys_are_an_error_not_a_silent_no_op() {
    // A fault plan, a churn plan or a non-strong validity mode must fail
    // an explored scenario, not explore the plain 287-state system and
    // print `ok`. One validator, two entry paths: the parser for
    // `mode = "explore"` files, the setup for `--mode explore` and
    // programmatic scenarios (which bypass the parser's check).
    let registry = AdversaryRegistry::builtin();
    let file = |mode: &str, line: &str| {
        format!(
            "name = \"x\"\nmode = \"{mode}\"\n[[scenario]]\nname = \"sink2\"\ntopology = \"random-kosr\"\n\
             sink = 2\nnonsink = 2\nk = 1\nf = 0\nfaulty = [2, 3]\ninputs = [3, 9]\ntimer_budget = 0\n{line}\n"
        )
    };
    for (key, line) in [
        (
            "faults",
            "faults = { loss = 1.0, crash = [0], crash_at = 1 }",
        ),
        ("churn", "churn = { leaves = [1], leave_at = 1 }"),
        ("validity", "validity = \"weak\""),
    ] {
        let expect = |err: &str| {
            assert!(err.contains("`sink2`"), "{err}");
            assert!(err.contains(&format!("key `{key}`")), "{err}");
        };
        expect(&scup_harness::campaign_from_str(&file("explore", line)).unwrap_err());
        let sampled = scup_harness::campaign_from_str(&file("sample", line)).unwrap();
        let r = explore_scenario(&sampled.scenarios[0], 1, &registry);
        expect(r.error.as_deref().expect("the scenario must be rejected"));
        assert!(!r.passed && r.states == 0);
    }
    // The zero plans and the default validity mode explore fine.
    let zero = file("explore", "faults = {}\nchurn = {}\nvalidity = \"strong\"");
    let campaign = scup_harness::campaign_from_str(&zero).unwrap();
    let r = explore_scenario(&campaign.scenarios[0], 1, &registry);
    assert_eq!((r.error, r.states, r.passed), (None, 287, true));
}

#[test]
fn timer_choices_stay_safe_and_exhaustive() {
    let no_timers = explore_scenario(
        &sink2(96, 0, "silent", vec![7]),
        2,
        &AdversaryRegistry::builtin(),
    );
    let r = explore_scenario(
        &sink2(96, 1, "silent", vec![7]),
        2,
        &AdversaryRegistry::builtin(),
    );
    assert_eq!(r.error, None);
    assert!(r.complete);
    assert_eq!(r.violating, 0);
    assert_eq!(r.decided_values, vec![7]);
    assert_eq!(r.states, 208);
    assert!(
        r.states > no_timers.states,
        "timer choice points must enlarge the space"
    );
}

#[test]
fn equivocation_explores_both_victim_splits() {
    let r = explore_scenario(
        &sink2(6, 0, "equivocate", vec![7]),
        2,
        &AdversaryRegistry::builtin(),
    );
    assert_eq!(r.error, None);
    assert_eq!(r.variants, 2, "both adversary splits are choice points");
    assert_eq!(r.violating, 0, "agreement survives the equivocator");
    assert!(
        !r.complete,
        "the bounded run is transparent about truncation"
    );
    assert!(r.truncated > 0);
}

#[test]
fn seeded_bad_system_yields_minimal_counterexample() {
    let r = explore_scenario(&split22(), 2, &AdversaryRegistry::builtin());
    assert_eq!(r.error, None);
    assert!(r.complete);
    assert!(
        r.violating > 0,
        "every maximal schedule splits the decision"
    );
    assert_eq!(r.min_violation_depth, Some(16));
    assert!(!r.premise, "two sinks: the structural premise fails");
    let cex = r.violation.expect("minimal counterexample rendered");
    assert_eq!(cex.depth, 16);
    assert!(
        cex.violations.iter().any(|v| v.starts_with("agreement:")),
        "{:?}",
        cex.violations
    );
    assert!(
        cex.schedule.len() >= cex.depth as usize,
        "the schedule includes every fired event"
    );
    // The split decision is visible in the final state.
    let decided: Vec<_> = cex.decisions.iter().flatten().collect();
    assert!(decided.contains(&&1) && decided.contains(&&2));
    assert!(r.passed, "expect_violation makes the find a pass");
}

/// A scenario built in code carries one exhibit flag, and both hosts read
/// it: the sampler passes each seed because its agreement break is
/// caught, the explorer because it finds the counterexample.
#[test]
fn an_exhibit_built_in_code_passes_sampled_and_explored() {
    let scenario = Scenario {
        network: NetworkSpec {
            max_ticks: 50_000,
            ..NetworkSpec::default()
        },
        seeds: 2,
        ..split22_bounded()
    };
    assert!(scenario.expect_violation);
    let registry = AdversaryRegistry::builtin();
    for seed in scenario.seed_base..scenario.seed_base + scenario.seeds {
        let record = run_one(&scenario, seed, &registry);
        assert_eq!(record.error, None);
        assert!(!record.invariants.agreement, "seed {seed} splits");
        assert!(record.passed, "seed {seed}: the caught split passes");
    }
    let explored = explore_scenario(&scenario, 1, &registry);
    assert_eq!(explored.error, None);
    assert!(explored.violation.is_some(), "the split is reachable");
    assert!(explored.passed, "the found split passes");
}

/// The fig1-style BFT-CUP system of `campaigns/explore.toml`.
fn bftcup_sink2(steps: u32, timer_budget: u32) -> Scenario {
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
        inputs: Some(vec![3, 9]),
        explore: ExploreSpec {
            max_steps: steps,
            timer_budget,
            ..Default::default()
        },
        ..Scenario::default()
    }
}

#[test]
fn bftcup_explores_exhaustively_with_no_agreement_split() {
    let r = explore_scenario(&bftcup_sink2(64, 0), 2, &AdversaryRegistry::builtin());
    assert_eq!(r.error, None, "BFT-CUP now has exploration support");
    assert!(r.complete, "the fig1-style system must be exhausted");
    assert_eq!(r.violating, 0, "no schedule splits a decision");
    // Leader-based consensus: every deciding schedule decides the view-0
    // leader's proposal (contrast SCP, where nomination order makes both
    // proposals reachable).
    assert_eq!(r.decided_values, vec![3]);
    assert!(r.decided > 0);
    // Schedules where consensus messages outran the receivers' discovery
    // quiesce undecided without timers — surfaced, not hidden.
    assert!(r.quiescent_undecided > 0);
    assert!(r.passed);
    // Deterministic canonical state count (see campaigns/explore.toml).
    assert_eq!(r.states, 145);
}

#[test]
fn bftcup_timer_choices_recover_stalled_schedules() {
    let no_timers = explore_scenario(&bftcup_sink2(64, 0), 2, &AdversaryRegistry::builtin());
    let r = explore_scenario(&bftcup_sink2(96, 1), 2, &AdversaryRegistry::builtin());
    assert_eq!(r.error, None);
    assert!(r.complete);
    assert_eq!(r.violating, 0);
    assert!(
        r.states > no_timers.states,
        "view-change timers enlarge the space"
    );
    // View rotation makes the second member's proposal reachable too: a
    // schedule where view 0 stalls hands the proposer role to member 1.
    assert_eq!(r.decided_values, vec![3, 9]);
}

#[test]
fn bftcup_forged_slice_explores_both_victim_splits() {
    // BFT-CUP has no slices to forge: `forged-slice` maps onto the same
    // split-parameterized equivocating leader as `equivocate`, so both
    // adversary names must enumerate BOTH victim-split variants and
    // produce the identical record (a `variants() == 1` regression would
    // silently halve the explored attack schedules while still reporting
    // `complete`).
    let scenario = |adversary: &str| {
        let mut s = bftcup_sink2(4, 0);
        s.topology = TopologySpec::RandomKosr {
            sink: 4,
            nonsink: 0,
            k: 3,
            extra_edge_prob: 0.0,
        };
        s.f = 1;
        s.adversary = adversary.into();
        s.faults = FaultPlacement::Ids(vec![0]);
        s.inputs = Some(vec![7]);
        s
    };
    let registry = AdversaryRegistry::builtin();
    let equiv = explore_scenario(&scenario("equivocate"), 2, &registry);
    let forged = explore_scenario(&scenario("forged-slice"), 2, &registry);
    assert_eq!(equiv.error, None);
    assert_eq!(forged.error, None);
    assert_eq!(equiv.variants, 2, "both split parities are choice points");
    assert_eq!(forged.variants, 2, "forged-slice is the same BFT adversary");
    // Only the adversary *name* may differ between the two records.
    let mut forged = deterministic_view(forged);
    forged.adversary = "equivocate".into();
    assert_eq!(
        forged,
        deterministic_view(equiv),
        "identical rosters must explore identically"
    );
}

#[test]
fn preresolved_sink_makes_view_changes_explorable() {
    // The `bftcup-equiv-viewchange` campaign scenario, at a depth the
    // debug suite can afford. `preresolve_sink = true` fixes the sink
    // membership before exploration, so the SINK discovery exchange never
    // enters the schedule and the view-0 timers are armed from step 0 —
    // without it the discovery phase swallows the whole depth budget and
    // a timer budget changes nothing (the knob exists because the
    // campaign-bound probe showed identical state counts at budgets 0 and
    // 2). With it, the budget is the difference between "view 0 only" and
    // "view changes past the equivocating leader are choice points".
    let scenario = |timer_budget: u32| {
        let mut s = bftcup_sink2(6, timer_budget);
        s.topology = TopologySpec::RandomKosr {
            sink: 4,
            nonsink: 0,
            k: 3,
            extra_edge_prob: 0.0,
        };
        s.f = 1;
        s.adversary = "equivocate".into();
        s.faults = FaultPlacement::Ids(vec![0]);
        s.inputs = Some(vec![7]);
        s.explore.preresolve_sink = true;
        s
    };
    let registry = AdversaryRegistry::builtin();
    let view0_only = explore_scenario(&scenario(0), 2, &registry);
    let r = explore_scenario(&scenario(2), 2, &registry);
    assert_eq!(r.error, None);
    assert_eq!(r.violating, 0, "no schedule splits across the handoff");
    assert_eq!(r.variants, 2, "both victim-split parities still explored");
    assert!(r.passed);
    // Pinned canonical counts: budget 2 explores every interleaving of
    // view timeouts, ViewChange deliveries (carrying view-0 locks) and
    // the view-1 leader's re-proposal alongside the view-0 traffic.
    assert_eq!(view0_only.states, 1_122);
    assert_eq!(r.states, 28_846);
    // Determinism rides along: the preset-membership boot path must not
    // leak worker scheduling into the report.
    let campaign = |threads: usize| Campaign {
        name: "preresolve-det".into(),
        mode: CampaignMode::Explore,
        threads,
        scenarios: vec![scenario(2)],
    };
    let base = run_explore_campaign(&campaign(1));
    assert!(base.all_passed());
    for threads in [2, 8] {
        let other = run_explore_campaign(&campaign(threads));
        assert_eq!(
            deterministic_view(base.records[0].clone()),
            deterministic_view(other.records[0].clone()),
            "threads=1 vs threads={threads}"
        );
    }
}

#[test]
fn reports_are_bit_identical_across_worker_counts() {
    // The acceptance bar: 1, 2 and 8 workers must produce identical
    // deterministic fields — visited maps merge by minimal depth and the
    // counterexample is recomputed canonically, so sharding cannot leak
    // into the report.
    let campaign = |threads: usize| {
        // Default reductions (symmetry + eager-inert) everywhere. The
        // full-stack drivers ride the same contract: BFT-CUP (with
        // its two equivocation variants) and the discovery-interleaved
        // stack, bounded to keep the debug suite quick.
        let mut discovery = sink2(12, 0, "silent", vec![3, 9]);
        discovery.explore.explore_discovery = true;
        let mut bft_equiv = bftcup_sink2(3, 0);
        bft_equiv.topology = TopologySpec::RandomKosr {
            sink: 4,
            nonsink: 0,
            k: 3,
            extra_edge_prob: 0.0,
        };
        bft_equiv.f = 1;
        bft_equiv.adversary = "equivocate".into();
        bft_equiv.faults = FaultPlacement::Ids(vec![0]);
        bft_equiv.inputs = Some(vec![7]);
        Campaign {
            name: "det".into(),
            mode: CampaignMode::Explore,
            threads,
            scenarios: vec![
                // A bounded (truncated) scenario stresses the min-depth merge.
                sink2(10, 0, "silent", vec![3, 9]),
                sink2(5, 0, "equivocate", vec![7]),
                split22_bounded(),
                bftcup_sink2(64, 0),
                bft_equiv,
                discovery,
            ],
        }
    };
    let base = run_explore_campaign(&campaign(1));
    assert!(base.all_passed());
    assert!(
        base.records.iter().any(|r| r.symmetry_group > 1),
        "the determinism bar must be cleared with reductions actually engaged"
    );
    for threads in [2, 8] {
        let other = run_explore_campaign(&campaign(threads));
        for (a, b) in base.records.iter().zip(&other.records) {
            assert_eq!(
                deterministic_view(a.clone()),
                deterministic_view(b.clone()),
                "threads=1 vs threads={threads}"
            );
        }
    }
}

#[test]
// Runs the three new campaign scenarios at their full campaign bounds
// across 1/2/8 workers; affordable in release, slow unoptimized.
#[cfg_attr(debug_assertions, ignore = "release-only; see explore-smoke CI job")]
fn new_campaign_scenarios_are_bit_identical_across_worker_counts() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../campaigns/explore.toml"),
    )
    .expect("campaigns/explore.toml");
    let parsed = scup_harness::campaign_from_str(&text).unwrap();
    let new_names = [
        "bftcup-sink2-outsiders",
        "bftcup-equiv-leader",
        "sink2-discovery-interleaved",
    ];
    let scenarios: Vec<_> = parsed
        .scenarios
        .iter()
        .filter(|s| new_names.contains(&s.name.as_str()))
        .cloned()
        .collect();
    assert_eq!(scenarios.len(), 3, "all three new scenarios must ship");
    let campaign = |threads: usize| Campaign {
        name: "det-full".into(),
        mode: CampaignMode::Explore,
        threads,
        scenarios: scenarios.clone(),
    };
    let base = run_explore_campaign(&campaign(1));
    assert!(base.all_passed());
    // The campaign-documented state counts, pinned here so a semantics
    // change cannot slip through as a silent count drift (the
    // equivocating-leader bound rose to depth 7 under the PR 10
    // fingerprint table and its raised valve).
    let states: Vec<u64> = base.records.iter().map(|r| r.states).collect();
    assert_eq!(states, vec![145, 346_252, 1_487]);
    for threads in [2, 8] {
        let other = run_explore_campaign(&campaign(threads));
        for (a, b) in base.records.iter().zip(&other.records) {
            assert_eq!(
                deterministic_view(a.clone()),
                deterministic_view(b.clone()),
                "threads=1 vs threads={threads}"
            );
        }
    }
}

#[test]
fn observability_never_changes_a_verdict() {
    // The observability acceptance bar: profiling, trace collection and
    // causal forensics ride alongside the search — same verdicts, same
    // state census, same minimal counterexample depth, bit-identical
    // deterministic fields — at every worker count. Only the `obs`
    // block, the Chrome events and the counterexample's `forensics`
    // annotation may differ from an unobserved run.
    use scup_mc::{run_explore_campaign_obs, ObsConfig};
    let campaign = |threads: usize| Campaign {
        name: "obs-diff".into(),
        mode: CampaignMode::Explore,
        threads,
        scenarios: vec![
            sink2(64, 0, "silent", vec![3, 9]),
            split22_bounded(),
            bftcup_sink2(64, 0),
        ],
    };
    let off = run_explore_campaign(&campaign(1));
    assert!(off.all_passed());
    assert!(off.records.iter().all(|r| r.obs.is_none()));
    assert!(
        off.records
            .iter()
            .filter_map(|r| r.violation.as_ref())
            .all(|v| v.forensics.is_none()),
        "forensics stays off by default"
    );
    let full = ObsConfig {
        profile: true,
        trace: true,
        forensics: true,
    };
    for threads in [1, 2, 8] {
        let (on, events) = run_explore_campaign_obs(&campaign(threads), full);
        assert!(!events.is_empty(), "tracing must emit worker timelines");
        let mut saw_forensics = false;
        for (a, b) in off.records.iter().zip(&on.records) {
            let obs = b.obs.as_ref().expect("profiling populates the obs block");
            assert!(
                obs.phases.iter().map(|p| p.laps).sum::<u64>() > 0,
                "phase laps must be attributed"
            );
            assert_eq!(obs.visited_len, a.states, "occupancy matches the census");
            if let Some(v) = &b.violation {
                saw_forensics |= v.forensics.is_some();
            }
            // Everything inside the bit-identity contract is unchanged.
            assert_eq!(
                deterministic_view(a.clone()),
                deterministic_view(b.clone()),
                "obs-off/1 vs obs-on/{threads}"
            );
        }
        assert!(
            saw_forensics,
            "forensics-on must annotate the split22 counterexample"
        );
    }
}

#[test]
fn split22_cex_forensics_explains_the_violation() {
    // The forensic acceptance bar on the canonical split-quorum
    // counterexample: the causal cone is a strict subset of the full
    // event log, and every provenance chain walks back to initial
    // proposals.
    use scup_mc::{run_explore_campaign_obs, ObsConfig};
    let campaign = Campaign {
        name: "forensics".into(),
        mode: CampaignMode::Explore,
        threads: 2,
        scenarios: vec![split22()],
    };
    let obs = ObsConfig {
        forensics: true,
        ..Default::default()
    };
    let (report, _) = run_explore_campaign_obs(&campaign, obs);
    let record = &report.records[0];
    assert!(record.passed, "split22 expects its violation");
    let cex = record.violation.as_ref().expect("a counterexample");
    let forensics = cex
        .forensics
        .as_ref()
        .expect("forensics-on annotates the counterexample");
    assert!(!forensics.violations.is_empty());
    assert!(
        !forensics.anchors.is_empty(),
        "the agreement finding names the disagreeing processes"
    );
    assert!(
        !forensics.cone.is_empty() && forensics.cone.len() < forensics.total_events,
        "cone ({}) must be a strict subset of the event log ({})",
        forensics.cone.len(),
        forensics.total_events
    );
    assert!(!forensics.chains.is_empty());
    for chain in &forensics.chains {
        assert!(
            chain.rooted,
            "chain for p{} must terminate at proposals: {:?}",
            chain.process, chain.unresolved
        );
        assert!(
            chain.roots.iter().any(|r| r.contains("propose")),
            "roots must be initial proposals: {:?}",
            chain.roots
        );
    }
    assert!(
        forensics.dot.starts_with("digraph") && forensics.dot.contains("cluster_p0"),
        "the DOT render clusters events by process"
    );
    // The analysis is embedded in the report JSON under the violation.
    let json = report.to_json();
    let rec = &json.get("records").unwrap().as_arr().unwrap()[0];
    let block = rec.get("violation").unwrap().get("forensics").unwrap();
    assert!(block.get("chains").is_some());
    assert_eq!(
        block.get("events").unwrap().get("cone").unwrap().as_i64(),
        Some(forensics.cone.len() as i64)
    );
}

#[test]
fn explore_campaign_json_round_trips() {
    let campaign = Campaign {
        name: "json".into(),
        mode: CampaignMode::Explore,
        threads: 2,
        scenarios: vec![split22_bounded()],
    };
    let report = run_explore_campaign(&campaign);
    let json = report.to_json();
    assert_eq!(json.get("mode").unwrap().as_str(), Some("explore"));
    let rec = &json.get("records").unwrap().as_arr().unwrap()[0];
    assert_eq!(rec.get("complete").unwrap().as_bool(), Some(false));
    assert!(rec.get("violation").unwrap().get("schedule").is_some());
    assert!(scup_harness::json::parse(&json.pretty()).is_ok());
}

#[test]
fn campaign_file_parses_into_explore_mode() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../campaigns/explore.toml"),
    )
    .expect("campaigns/explore.toml");
    let campaign = scup_harness::campaign_from_str(&text).unwrap();
    assert_eq!(campaign.mode, CampaignMode::Explore);
    assert_eq!(campaign.scenarios.len(), 10);
    let handoff = campaign
        .scenarios
        .iter()
        .find(|s| s.name == "bftcup-equiv-viewchange")
        .expect("the lock-handoff scenario ships in the campaign");
    assert!(handoff.explore.preresolve_sink);
    assert_eq!(handoff.explore.timer_budget, 2);
    assert_eq!(handoff.explore.max_states, 700_000);
    let bftcup = campaign
        .scenarios
        .iter()
        .find(|s| s.name == "bftcup-sink2-outsiders")
        .expect("the BFT-CUP scenario ships in the campaign");
    assert_eq!(bftcup.protocol, ProtocolSpec::BftCup);
    let stack = campaign
        .scenarios
        .iter()
        .find(|s| s.name == "sink2-discovery-interleaved")
        .expect("the discovery-interleaved scenario ships in the campaign");
    assert!(stack.explore.explore_discovery);
    let sink3 = campaign
        .scenarios
        .iter()
        .find(|s| s.name == "sink3-proposers")
        .expect("the three-active-proposer scenario ships in the campaign");
    assert!(sink3.explore.eager_inert && sink3.explore.symmetry);
    let bad = campaign
        .scenarios
        .iter()
        .find(|s| s.name == "split-quorums-bad")
        .unwrap();
    assert!(bad.expect_violation);
    assert_eq!(bad.inputs.as_deref(), Some(&[1, 1, 2, 2][..]));
}
