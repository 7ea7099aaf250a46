//! Edge hardening: every stock campaign file, mutated line by line and
//! byte by byte, must come out of the parser as a campaign or an `Err` —
//! never a panic — and every scenario that parses must instantiate
//! ([`System::of`]) and run ([`run_one`]) without a panic or a record
//! error that is a caught panic (`configuration panic: …`). A contract a
//! generator or the simulator asserts must be a validation error naming
//! the scenario instead. Each file is mutated twice over: as the TOML it
//! is checked in as, and rendered as the JSON document
//! [`campaign_from_str`] also accepts.
//!
//! Only scenarios the mutation changed are run, on their first seed,
//! with the time horizon cut to keep the test fast; topologies past 64
//! processes are parsed but not instantiated (a mutated `n = 24` can
//! become `n = 2400000`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use scup_harness::campaign::run_one;
use scup_harness::parse::toml_to_json;
use scup_harness::scenario::{Scenario, TopologySpec};
use scup_harness::{campaign_from_str, AdversaryRegistry, System};

const CAMPAIGNS: [&str; 8] = [
    "churn",
    "explore",
    "families",
    "fig1",
    "fig2",
    "forensics",
    "nemesis",
    "theorem3",
];

/// Characters a byte-level mutation writes: TOML and JSON structure,
/// digits, a sign, a decimal point, letters.
const ALPHABET: &[char] = &[
    '0', '1', '9', '-', '.', '"', '=', '[', ']', '{', '}', ',', '#', ' ', 'x', 'e', ':',
];

/// Numbers a mutation substitutes for a number: the edges of every
/// integer and float key, and integers just past `i64` either way.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "-1",
    "0.5",
    "1.5",
    "1e400",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999",
    "-9223372036854775809",
];

/// Stock campaign `name`, as TOML or rendered as JSON.
fn campaign_text(name: &str, json: bool) -> String {
    let toml = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../campaigns")
            .join(format!("{name}.toml")),
    )
    .expect("stock campaign file");
    if json {
        toml_to_json(&toml).expect("stock campaigns parse").pretty()
    } else {
        toml
    }
}

/// One mutation of `text`, aimed at its non-comment lines: `kind` picks
/// it, `a` and `b` place it.
fn mutate(text: &str, kind: usize, a: usize, b: usize) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let code: Vec<usize> = (0..lines.len())
        .filter(|&i| !lines[i].trim().is_empty() && !lines[i].trim_start().starts_with('#'))
        .collect();
    let (la, lb) = (code[a % code.len()], code[b % code.len()]);
    let mut line: Vec<char> = lines[la].chars().collect();
    let at = b % (line.len() + 1);
    match kind {
        0 => {
            lines.remove(la);
        }
        1 => lines.insert(la, lines[lb].clone()),
        2 => lines.swap(la, lb),
        // Cut the value off a `key = value` or `"key": value` line.
        3 => line.truncate(
            line.iter()
                .position(|&c| c == '=' || c == ':')
                .map_or(0, |e| e + 1),
        ),
        4 => line.insert(at, ALPHABET[a % ALPHABET.len()]),
        5 if at < line.len() => line[at] = ALPHABET[a % ALPHABET.len()],
        6 if at < line.len() => {
            line.remove(at);
        }
        _ => {
            // The first number at or after `at`, swapped for an edge value.
            if let Some(start) = (at..line.len()).find(|&i| line[i].is_ascii_digit()) {
                let end = (start..line.len())
                    .find(|&i| !line[i].is_ascii_digit() && line[i] != '.')
                    .unwrap_or(line.len());
                line.splice(start..end, NUMBERS[a % NUMBERS.len()].chars());
            }
        }
    }
    if kind >= 3 {
        lines[la] = line.into_iter().collect();
    }
    lines.join("\n")
}

/// Whether instantiating `t` stays small (≤ 64 processes).
fn small(t: &TopologySpec) -> bool {
    let n = match *t {
        TopologySpec::Fig1
        | TopologySpec::Fig2
        | TopologySpec::PerturbedFig1 { .. }
        | TopologySpec::PerturbedFig2 { .. } => 8,
        TopologySpec::Fig2Family { sink, outer } => sink.saturating_add(outer),
        TopologySpec::RandomKosr { sink, nonsink, .. }
        | TopologySpec::ByzantineSafe { sink, nonsink } => sink.saturating_add(nonsink),
        TopologySpec::ErdosRenyi { n, .. } | TopologySpec::ScaleFree { n, .. } => n,
        TopologySpec::Clustered {
            clusters,
            cluster_size,
            ..
        } => clusters.saturating_mul(cluster_size),
    };
    let attempts = match *t {
        TopologySpec::PerturbedFig1 {
            additions,
            deletions,
        }
        | TopologySpec::PerturbedFig2 {
            additions,
            deletions,
        } => additions.saturating_add(deletions),
        _ => 0,
    };
    n <= 64 && attempts <= 1_000
}

/// Instantiates and runs `scenario` on its first seed; `Err` names what
/// went wrong.
fn run(scenario: &Scenario) -> Result<(), String> {
    if !small(&scenario.topology) {
        return Ok(());
    }
    let mut scenario = scenario.clone();
    scenario.network.max_ticks = scenario.network.max_ticks.min(5_000);
    let registry = AdversaryRegistry::builtin();
    let seed = scenario.seed_base;
    catch_unwind(AssertUnwindSafe(|| {
        let _ = System::of(&scenario, seed, &registry);
        run_one(&scenario, seed, &registry)
    }))
    .map_err(|_| format!("`{}` panicked", scenario.name))
    .and_then(|record| match record.error {
        Some(e) if e.starts_with("configuration panic:") => Err(e),
        _ => Ok(()),
    })
}

/// Parses a mutation of campaign `file` (its TOML, or its JSON rendering
/// if `json`), then runs up to two of the scenarios it changed.
fn check(file: usize, json: bool, kind: usize, a: usize, b: usize) -> Result<(), String> {
    let original = campaign_text(CAMPAIGNS[file], json);
    let stock = campaign_from_str(&original).expect("stock campaigns parse");
    let text = mutate(&original, kind, a, b);
    let parsed = catch_unwind(|| campaign_from_str(&text))
        .map_err(|_| format!("the parser panicked on:\n{text}"))?;
    let Ok(campaign) = parsed else {
        return Ok(());
    };
    let changed = campaign.scenarios.iter().enumerate().filter(|(i, s)| {
        stock
            .scenarios
            .get(*i)
            .is_none_or(|o| format!("{o:?}") != format!("{s:?}"))
    });
    for (_, scenario) in changed.take(2) {
        run(scenario).map_err(|e| format!("{e}\nmutated file:\n{text}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_campaigns_never_panic(
        file in 0usize..8,
        kind in 0usize..8,
        a in 0usize..1 << 20,
        b in 0usize..1 << 20,
    ) {
        if let Err(e) = check(file, false, kind, a, b) {
            panic!("{} mutation {kind} at ({a}, {b}): {e}", CAMPAIGNS[file]);
        }
    }

    #[test]
    fn mutated_json_campaigns_never_panic(
        file in 0usize..8,
        kind in 0usize..8,
        a in 0usize..1 << 20,
        b in 0usize..1 << 20,
    ) {
        if let Err(e) = check(file, true, kind, a, b) {
            panic!("{} (JSON) mutation {kind} at ({a}, {b}): {e}", CAMPAIGNS[file]);
        }
    }
}

/// Every stock campaign loads to the same campaign from its JSON
/// rendering as from its TOML, so the JSON mutations start from the same
/// scenarios.
#[test]
fn json_renderings_load_like_the_toml() {
    for name in CAMPAIGNS {
        let toml = campaign_from_str(&campaign_text(name, false)).expect("stock campaigns parse");
        let json = campaign_from_str(&campaign_text(name, true)).expect("rendered JSON parses");
        assert_eq!(format!("{json:?}"), format!("{toml:?}"), "{name}");
    }
}

/// The minimal inputs of the panics this test found, kept as regression
/// cases.
#[test]
fn regressions() {
    // fig1.toml with `f = 0` mutated to a huge `f`: the threshold
    // saturated, and the sink detector's `4 (f + 1)` quota overflowed.
    // The input found was `f = 18446744073709551616`, which is a parse
    // error now that integers past `i64` no longer saturate.
    let text = "name = \"r\"\n[[scenario]]\nname = \"huge-f\"\ntopology = \"fig1\"\n\
                f = 9223372036854775807\n";
    let campaign = campaign_from_str(text).expect("parses");
    let record = run_one(&campaign.scenarios[0], 0, &AdversaryRegistry::builtin());
    assert_eq!(
        record.error.as_deref(),
        Some("scenario `huge-f`: `f` must be below n = 8")
    );
    let found = text.replace("9223372036854775807", "18446744073709551616");
    let err = campaign_from_str(&found).expect_err("an integer past i64 is rejected");
    assert!(err.contains("out of range"), "{err}");
}
