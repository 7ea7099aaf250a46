//! Causal-forensics acceptance tests: failing runs get self-explaining
//! reports (cone strictly inside the event log, provenance chains rooted
//! at initial proposals), and arming forensics never changes a run's
//! outcome.

use scup_harness::campaign::{run_one, Campaign, CampaignMode};
use scup_harness::forensics::{attach_failures, ForensicReport};
use scup_harness::scenario::{
    FaultPlacement, FaultSpec, NetworkSpec, ProtocolSpec, Scenario, TopologySpec,
};
use scup_harness::{protocol, AdversaryRegistry, System};
use stellar_cup::attempts::LocalSliceStrategy;

/// The split-quorum disaster, sampled: two bridgeless 2-clusters with
/// local survive-f slices and conflicting inputs — agreement fails on
/// every seed.
fn split_quorums_bad() -> Scenario {
    Scenario {
        name: "split-quorums-bad".into(),
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
        network: NetworkSpec {
            max_ticks: 50_000,
            ..Default::default()
        },
        // Seeds pinned to the pair `campaigns/forensics.toml` samples: on
        // some seeds the agreement anchors' cones cover the whole (tiny)
        // event log, which is legal but makes a dull exhibit.
        seeds: 2,
        ..Scenario::default()
    }
}

/// The nemesis pledge violation: process 2 crashes mid-ballot and
/// recovers with amnesia, then contradicts its journaled prepare votes
/// (seed 1 is pinned failing; see `campaigns/forensics.toml`).
fn amnesia_pledge() -> Scenario {
    Scenario {
        name: "amnesia-pledge".into(),
        faults: FaultPlacement::Ids(vec![5]),
        fault_plan: FaultSpec {
            crash: vec![2],
            crash_at: 600,
            recover_at: Some(3000),
            amnesia: vec![2],
            ..Default::default()
        },
        network: NetworkSpec {
            max_ticks: 150_000,
            ..Default::default()
        },
        seed_base: 1,
        seeds: 1,
        ..Scenario::default()
    }
}

fn assert_explains(forensics: &ForensicReport) {
    assert!(
        !forensics.cone.is_empty() && forensics.cone.len() < forensics.total_events,
        "{}: cone ({}) must be a strict subset of the event log ({})",
        forensics.scenario,
        forensics.cone.len(),
        forensics.total_events
    );
    assert!(!forensics.chains.is_empty(), "chains for every anchor");
    for chain in &forensics.chains {
        assert!(
            chain.rooted,
            "{} p{}: unresolved {:?}",
            forensics.scenario, chain.process, chain.unresolved
        );
        assert!(
            chain.roots.iter().any(|r| r.contains("propose")),
            "{} p{}: roots must be initial proposals, got {:?}",
            forensics.scenario,
            chain.process,
            chain.roots
        );
    }
    assert!(forensics.dot.starts_with("digraph"), "DOT render present");
}

#[test]
fn split_quorum_failure_yields_a_rooted_forensic_cone() {
    let campaign = Campaign {
        name: "forensics-split".into(),
        mode: CampaignMode::Sample,
        threads: 1,
        scenarios: vec![split_quorums_bad()],
    };
    let mut report = campaign.run();
    assert!(!report.all_passed(), "the split must violate agreement");
    let attached = attach_failures(&campaign, &mut report);
    assert_eq!(attached, report.runs.len(), "every failure gets analyzed");
    for run in &report.runs {
        let forensics = run.forensics.as_ref().expect("attached analysis");
        assert_eq!(forensics.scenario, "split-quorums-bad");
        assert_eq!(forensics.seed, run.seed);
        // The agreement finding names the two disagreeing processes and
        // both decision islands get provenance chains.
        assert_eq!(forensics.anchors.len(), 2);
        assert_eq!(forensics.chains.len(), 2);
        assert_explains(forensics);
        // The two clusters decided different values from different roots.
        let roots: Vec<&String> = forensics.chains.iter().flat_map(|c| &c.roots).collect();
        assert!(roots.iter().any(|r| r.contains("nominate(1)")));
        assert!(roots.iter().any(|r| r.contains("nominate(2)")));
    }
    // The analyses are embedded in the report JSON.
    let json = report.to_json();
    let first = &json.get("runs").unwrap().as_arr().unwrap()[0];
    let block = first.get("forensics").unwrap();
    assert!(block.get("chains").is_some());
}

#[test]
fn amnesia_pledge_violation_is_explained() {
    let scenario = amnesia_pledge();
    let record = run_one(&scenario, 1, &AdversaryRegistry::builtin());
    assert!(!record.passed);
    assert!(
        record
            .invariants
            .violations
            .iter()
            .any(|v| v.starts_with("durability") && v.contains("contradictory")),
        "got {:?}",
        record.invariants.violations
    );
    let forensics = ForensicReport::analyze_run(&scenario, 1, &record.invariants.violations)
        .expect("the scenario reconfigures deterministically");
    assert_eq!(forensics.anchors, vec![2], "the amnesiac anchors the cone");
    assert_explains(&forensics);
    // The crash and the amnesiac recovery are inside the cone — the DOT
    // render names them on process 2's track.
    assert!(forensics.dot.contains("crash p2"), "crash event in cone");
    assert!(forensics.dot.contains("recover p2"), "recovery in cone");
}

#[test]
fn forensics_never_changes_the_outcome() {
    // Arming forensics must be invisible to everything but the causal
    // graph and provenance fields: identical decisions, identical
    // traffic, identical pledge findings — on a passing scenario and on
    // both failing ones.
    let registry = AdversaryRegistry::builtin();
    let fig2 = Scenario {
        name: "fig2".into(),
        faults: FaultPlacement::Ids(vec![5]),
        ..Scenario::default()
    };
    for scenario in [fig2, split_quorums_bad(), amnesia_pledge()] {
        for seed in [scenario.seed_base, scenario.seed_base + 1] {
            let mut system = System::of(&scenario, seed, &registry).unwrap();
            let mut run = |forensics: bool| {
                system.config.forensics = forensics;
                protocol::execute_observed(&system).0
            };
            let off = run(false);
            let on = run(true);
            assert_eq!(off.decisions, on.decisions, "{} seed {seed}", scenario.name);
            assert_eq!(off.inputs, on.inputs);
            assert_eq!(off.messages_sent, on.messages_sent);
            assert_eq!(off.messages_delivered, on.messages_delivered);
            assert_eq!(off.messages_dropped, on.messages_dropped);
            assert_eq!(off.retransmissions, on.retransmissions);
            assert_eq!(off.pledge_violations, on.pledge_violations);
            assert_eq!(off.retransmit_delay_buckets, on.retransmit_delay_buckets);
            assert_eq!(off.link_drops, on.link_drops);
            // Off really is off: nothing recorded, nothing allocated.
            assert!(off.causal.is_empty() && !off.causal.is_enabled());
            assert!(off.provenance.iter().all(|log| log.entries().is_empty()));
            assert!(!on.causal.is_empty(), "on really records");
        }
    }
}

#[test]
fn forensics_campaign_file_fails_every_run_and_attaches() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../campaigns/forensics.toml"),
    )
    .expect("campaigns/forensics.toml");
    let mut campaign = scup_harness::campaign_from_str(&text).unwrap();
    campaign.threads = 2;
    assert_eq!(campaign.mode, CampaignMode::Sample);
    let mut report = campaign.run();
    assert_eq!(report.failed(), report.runs.len(), "failing is its job");
    let attached = attach_failures(&campaign, &mut report);
    assert_eq!(attached, report.runs.len());
    for run in &report.runs {
        assert_explains(run.forensics.as_ref().expect("analysis attached"));
    }
}

#[test]
fn equivocation_pairs_are_attributed_in_the_cone() {
    // Fig. 2 with an equivocating process 5: the consensus phase records
    // same-slot/different-payload send pairs, and the forensic cone must
    // name the equivocator even though the sibling sends share no causal
    // edge with the anchors.
    let scenario = Scenario {
        name: "equivocation-attribution".into(),
        adversary: "equivocate".into(),
        faults: FaultPlacement::Ids(vec![5]),
        ..Scenario::default()
    };
    let seed = 0;
    let mut system = System::of(&scenario, seed, &AdversaryRegistry::builtin()).unwrap();
    system.config.forensics = true;
    let (output, _) = protocol::execute_observed(&system);
    assert!(
        !output.causal.equivocations().is_empty(),
        "the equivocator's same-slot splits must be recorded"
    );
    // Anchor the cone on every acting process (a violation text that
    // names nobody), so the delivered half of each pair is inside it.
    let report = ForensicReport::build(
        "equivocation-attribution",
        seed,
        &["staged: agreement stressed by an equivocator".to_string()],
        &output,
    );
    assert!(
        !report.equivocations.is_empty(),
        "pairs intersecting the cone must be attributed"
    );
    for line in &report.equivocations {
        assert!(line.contains("p5"), "attribution names the origin: {line}");
    }
    let json = report.to_json().pretty();
    assert!(
        json.contains("equivocations"),
        "pairs land in the JSON block"
    );
}
