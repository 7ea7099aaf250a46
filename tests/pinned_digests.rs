//! Pins the deterministic report fields of the checked-in campaigns across
//! commits: a refactor that is meant to change no behaviour must leave
//! every digest below untouched, and a PR that means to move them
//! (a protocol fix, a new report field) re-pins deliberately — the
//! failure message prints the table to paste.
//!
//! Covered: `fig1`, `fig2`, `nemesis`, `churn`, `forensics`, `families`
//! (its `scale-free-f0` is `n = 24`, the only checked-in campaign whose
//! ticks run hundreds of events deep) and `theorem3`, thinned to two seeds
//! per scenario (failing runs re-executed with forensics armed, DOT cone
//! included), and five scenarios of `campaigns/explore.toml` at
//! one worker — one per protocol description plus the seeded
//! counterexample, replayed with forensics on. A digest covers every
//! record field except `wall_micros`, `transitions`, `threads` and `obs`.

use std::path::PathBuf;

use scup::harness::campaign::Campaign;
use scup::harness::forensics::attach_failures;
use scup::harness::json::Json;
use scup::harness::{campaign_from_str, AdversaryRegistry};
use scup::mc::{explore_scenario_obs, ObsConfig};
use scup_obs::chrome::TraceClock;

/// Captured at `9bc770e` (the parent of the roster refactor); the `families`
/// and `theorem3` rows at `6219372` (the parent of the chunked event queue).
/// `churn/fig2-join-crash` and `churn/fig2-join-storm-crash` re-pinned when
/// SCP crash recovery started filing replayed accepts as the node's own
/// (ROADMAP direction 1(d)): a recovered node no longer re-derives, and
/// re-broadcasts, an accept its journal already holds. The two `forensics`
/// rows and `explore/split-quorums-bad` re-pinned when the event log
/// dropped its per-event vector clocks: their DOT cones lost each node
/// label's clock line, and nothing else moved.
const PINNED: &[(&str, u64)] = &[
    ("fig1/minimal-f0", 0x97ce39d97ffbba1d),
    ("fig1/bftcup-f0", 0xf8cef0f6257295ea),
    ("fig1/minimal-sink-fault", 0x3542fb4ecb46ff96),
    ("fig1/minimal-equivocate", 0xe281506581340179),
    ("fig1/minimal-crash", 0x7da0001d9728c5a5),
    ("fig1/perturbed-f0", 0x2329fb7e197e5171),
    ("fig2/minimal-silent-sink", 0xcde821f4d3097965),
    ("fig2/minimal-silent-nonsink", 0xc7464e4e84c432ee),
    ("fig2/minimal-crash", 0xfc4683a7fe958e2a),
    ("fig2/minimal-echo", 0x02c4cb5e633bcbf6),
    ("fig2/minimal-equivocate", 0x435ea5f347994123),
    ("fig2/minimal-forged-slice", 0xee89ba6f927e1632),
    ("fig2/bftcup-baseline", 0x6e5d3517d6a4bdb8),
    ("fig2/local-slices-negative", 0x34ecb7b2ea0f3ddb),
    ("fig2/fig2-family", 0xbc8e48314607fe6e),
    ("fig2/perturbed", 0x760ce434f12ab40e),
    ("nemesis/fig2-loss-light", 0x56bcd7ec0040c8a7),
    ("nemesis/fig2-loss-heavy", 0x70b987492662dee0),
    ("nemesis/fig2-dup-delay", 0x620036144ca53b29),
    ("nemesis/fig2-partition-short", 0xb55865cb11befd43),
    ("nemesis/fig2-partition-loss", 0x9efaac2c9b16fb8f),
    ("nemesis/fig2-crash-recover", 0x7b68d901f43dc70b),
    ("nemesis/fig1-bft-loss", 0x852a38b6bfb870e7),
    ("nemesis/fig1-bft-crash-recover", 0x8ff723f5e5ce12ad),
    ("nemesis/fig2-loss-unhealed", 0x423d4d0391821252),
    ("nemesis/fig2-family-loss", 0xf7ffc6b48758a654),
    ("nemesis/kosr-crash-loss", 0xc92a7ae57d6c1a86),
    ("churn/fig2-zero-churn", 0xe1711f32fb2d2339),
    ("churn/fig2-join-loss", 0xf20722e3b0a8997a),
    ("churn/fig2-join-crash", 0x8a0e839bf06cc27f),
    ("churn/fig2-join-storm-crash", 0x0d1ccb5d025af855),
    ("churn/bft-join-storm-loss", 0xaded71b4db35f19e),
    ("churn/bft-leave-partition", 0xcd24cab741169fc9),
    ("churn/bft-churn-storm-partition", 0xcbb4f0890ed6fa50),
    ("churn/fig2-family-join-loss", 0xff6c83edee8ab80b),
    ("churn/fig2-weak-validity-unanimous", 0xf9692eb8cebe914a),
    ("churn/bft-external-validity-churn", 0xf48a3f5fb6249c0a),
    ("churn/bft-stale-joiner-exhibit", 0x694373a315940094),
    ("forensics/split-quorums-bad", 0xb45bffb0dfcff4ec),
    ("forensics/amnesia-pledge", 0xad53a459233af770),
    ("families/scale-free-f0", 0xa62ae741a6efecd1),
    ("families/scale-free-m2-straggler", 0x423ce86d03787a76),
    ("families/clustered-tiered-f0", 0x064899aa0b6256e6),
    ("families/clustered-partitioned", 0x19c48b1a4f8a688f),
    ("families/erdos-renyi-sparse", 0xafc6b4e2b14bfb04),
    ("families/erdos-renyi-dense", 0xf6f34a816bd80381),
    ("theorem3/bsafe-5-3", 0x19a5a86b81ba922e),
    ("theorem3/bsafe-6-6", 0x3de4af95d0b51d25),
    ("theorem3/bsafe-8-8", 0x25fa69c296a33ea4),
    ("theorem3/bsafe-equivocate", 0x1a0a3fd7bb91b533),
    ("theorem3/bsafe-crash", 0xf880bcf31b9c47d4),
    ("theorem3/bsafe-bftcup", 0x3da57a5f9ac9a0c6),
    ("theorem3/kosr3-random-fault", 0x28b54fb7c9c9a79a),
    ("explore/sink2-outsiders-silent", 0xa95a292de8d856d1),
    ("explore/sink2-timers", 0x7139a7314ab26afe),
    ("explore/bftcup-sink2-outsiders", 0x1edffce9f51d781b),
    ("explore/sink2-discovery-interleaved", 0x24ae7c70bfd706a4),
    ("explore/split-quorums-bad", 0xa0107635160f8806),
];

const SAMPLED: [&str; 7] = [
    "fig1",
    "fig2",
    "nemesis",
    "churn",
    "forensics",
    "families",
    "theorem3",
];

const EXPLORED: [&str; 5] = [
    "sink2-outsiders-silent",
    "sink2-timers",
    "bftcup-sink2-outsiders",
    "sink2-discovery-interleaved",
    "split-quorums-bad",
];

fn load(name: &str) -> Campaign {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("campaigns")
        .join(format!("{name}.toml"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    campaign_from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Drops the effort and wall-clock keys, at any depth.
fn deterministic(json: Json) -> Json {
    match json {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "wall_micros" | "transitions" | "threads" | "obs"
                    )
                })
                .map(|(k, v)| (k, deterministic(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(deterministic).collect()),
        other => other,
    }
}

/// FNV-1a over the rendered text, continuing from `state`.
fn fnv1a(state: u64, text: &str) -> u64 {
    text.bytes().fold(state, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn sampled_digests(file: &str, out: &mut Vec<(String, u64)>) {
    let mut campaign = load(file);
    campaign.threads = 1;
    for s in &mut campaign.scenarios {
        s.seeds = 2;
    }
    let mut report = campaign.run();
    attach_failures(&campaign, &mut report);
    for s in &campaign.scenarios {
        let mut digest = FNV_OFFSET;
        for run in report.runs.iter().filter(|r| r.scenario == s.name) {
            digest = fnv1a(digest, &deterministic(run.to_json()).pretty());
            if let Some(f) = &run.forensics {
                digest = fnv1a(digest, &f.dot);
            }
        }
        out.push((format!("{file}/{}", s.name), digest));
    }
}

fn explored_digests(out: &mut Vec<(String, u64)>) {
    let campaign = load("explore");
    let registry = AdversaryRegistry::builtin();
    let obs = ObsConfig {
        forensics: true,
        ..ObsConfig::off()
    };
    for name in EXPLORED {
        let scenario = campaign
            .scenarios
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("campaigns/explore.toml lost `{name}`"));
        let record = explore_scenario_obs(
            scenario,
            1,
            &registry,
            obs,
            &TraceClock::start(),
            1,
            &mut Vec::new(),
        );
        let mut digest = fnv1a(FNV_OFFSET, &deterministic(record.to_json()).pretty());
        if let Some(f) = record.violation.as_ref().and_then(|v| v.forensics.as_ref()) {
            digest = fnv1a(digest, &f.dot);
        }
        out.push((format!("explore/{name}"), digest));
    }
}

#[test]
fn deterministic_report_fields_match_the_pinned_digests() {
    let mut actual = Vec::new();
    for file in SAMPLED {
        sampled_digests(file, &mut actual);
    }
    explored_digests(&mut actual);

    let table: String = actual
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", {digest:#018x}),\n"))
        .collect();
    let moved: Vec<&str> = actual
        .iter()
        .zip(PINNED)
        .filter(|((name, digest), (pinned_name, pinned))| name != pinned_name || digest != pinned)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        moved.is_empty() && actual.len() == PINNED.len(),
        "deterministic report fields moved in {moved:?} ({} scenarios run, {} pinned).\n\
         If the move is intended, replace PINNED with:\n{table}",
        actual.len(),
        PINNED.len(),
    );
}
