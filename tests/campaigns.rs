//! Integration tests for the checked-in campaign files: every file must
//! parse, and the Fig. 1 campaign (the repo's acceptance scenario) must
//! run green end to end with a well-formed JSON report.

use std::path::PathBuf;

use scup::harness::campaign::Campaign;
use scup::harness::{campaign_from_str, json, Named};

fn campaign_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("campaigns")
}

fn load(name: &str) -> Campaign {
    let path = campaign_dir().join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    campaign_from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn every_checked_in_campaign_parses() {
    let mut files: Vec<String> = std::fs::read_dir(campaign_dir())
        .expect("campaigns/ exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert!(files.len() >= 4, "expected the four stock campaigns");
    let mut families = std::collections::BTreeSet::new();
    let mut adversaries = std::collections::BTreeSet::new();
    for file in &files {
        let campaign = load(file);
        assert!(!campaign.scenarios.is_empty(), "{file}");
        for s in &campaign.scenarios {
            families.insert(s.topology.family().name());
            adversaries.insert(s.adversary.clone());
        }
    }
    // The acceptance bar: at least 4 topology families and 3 adversary
    // strategies selectable from scenario files.
    assert!(families.len() >= 4, "families: {families:?}");
    assert!(adversaries.len() >= 3, "adversaries: {adversaries:?}");
}

#[test]
fn fig1_campaign_is_green() {
    let campaign = load("fig1.toml");
    assert!(campaign.scenarios.iter().all(|s| s.seeds > 1));
    let report = campaign.run();
    for run in &report.runs {
        assert!(
            run.passed,
            "{}/seed {}: {:?} {:?}",
            run.scenario, run.seed, run.invariants.violations, run.error
        );
        assert!(run.invariants.termination && run.invariants.agreement);
    }
    // The JSON report round-trips.
    let text = report.to_json().pretty();
    let parsed = json::parse(&text).expect("report JSON parses");
    assert_eq!(
        parsed.get("failed").and_then(json::Json::as_i64),
        Some(0),
        "report agrees nothing failed"
    );
    assert_eq!(
        parsed
            .get("runs")
            .and_then(json::Json::as_arr)
            .map(<[_]>::len),
        Some(report.runs.len())
    );
}

#[test]
fn theorem3_campaign_spotcheck() {
    // Run a thinned version of the Theorem-3 sweep (2 seeds per scenario)
    // so the premise-holding families stay exercised in CI time.
    let mut campaign = load("theorem3.toml");
    for s in &mut campaign.scenarios {
        s.seeds = 2;
    }
    let report = campaign.run();
    assert!(
        report.all_passed(),
        "{:?}",
        report
            .runs
            .iter()
            .filter(|r| !r.passed)
            .map(|r| (&r.scenario, r.seed))
            .collect::<Vec<_>>()
    );
}
