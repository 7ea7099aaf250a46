//! The frozen workload definitions under `benchmark/workloads/`.
//!
//! Each file is a harness campaign file (parsed by
//! [`scup_harness::parse`]) with a few extra per-scenario keys the harness
//! ignores and the benchmark reads: `seeds` / `pool` / `warmup` for the
//! sampled workloads, `warmup` / `expect_*` for the explorer workload. The
//! files are compiled into the binary, so a run never depends on the
//! working directory.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use scup_harness::json::Json;
use scup_harness::parse::{campaign_from_json, toml_to_json};
use scup_harness::{CampaignMode, Scenario};

/// The five workloads, in the order every listing prints them.
pub const NAMES: [&str; 5] = [
    "fig_small",
    "scale_n",
    "bftcup_scale",
    "adversity",
    "explore",
];

/// The frozen text of a workload file.
pub fn text(name: &str) -> Option<&'static str> {
    Some(match name {
        "fig_small" => include_str!("../workloads/fig_small.toml"),
        "scale_n" => include_str!("../workloads/scale_n.toml"),
        "bftcup_scale" => include_str!("../workloads/bftcup_scale.toml"),
        "adversity" => include_str!("../workloads/adversity.toml"),
        "explore" => include_str!("../workloads/explore.toml"),
        _ => return None,
    })
}

/// The explorer census a scenario must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Census {
    pub states: u64,
    pub decided: u64,
    pub violating: u64,
    pub complete: bool,
    /// Depth of the minimal counterexample (`None` = no violation).
    pub cex_depth: Option<u32>,
}

/// One scenario of a workload with its benchmark keys.
#[derive(Debug, Clone)]
pub struct Entry {
    pub scenario: Scenario,
    /// Runs per slice (sampled workloads).
    pub seeds: u64,
    /// Size of the frozen seed pool (sampled workloads).
    pub pool: u64,
    /// Runs (sampled) or explorations (explorer: 0 or 1) per set-up pass.
    pub warmup: u64,
    /// The frozen census (explorer workload only).
    pub expect: Option<Census>,
}

/// A parsed workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub mode: CampaignMode,
    pub entries: Vec<Entry>,
}

/// Parses the named workload.
pub fn load(name: &str) -> Result<Workload, String> {
    let (name, text) = NAMES
        .iter()
        .find(|n| **n == name)
        .and_then(|n| text(n).map(|t| (*n, t)))
        .ok_or_else(|| format!("unknown workload `{name}`; known: {}", NAMES.join(", ")))?;
    let doc = toml_to_json(text).map_err(|e| format!("{name}.toml: {e}"))?;
    let campaign = campaign_from_json(&doc).map_err(|e| format!("{name}.toml: {e}"))?;
    let docs = doc
        .get("scenario")
        .and_then(Json::as_arr)
        .expect("campaign_from_json accepted the scenario array");
    let mut entries = Vec::with_capacity(docs.len());
    for (scenario, doc) in campaign.scenarios.into_iter().zip(docs) {
        let at = |e: String| format!("{name}.toml, scenario `{}`: {e}", scenario.name);
        let expect = if campaign.mode == CampaignMode::Explore {
            Some(census(doc).map_err(at)?)
        } else {
            None
        };
        let seeds = scenario.seeds;
        let pool = key_u64(doc, "pool").map_err(at)?.unwrap_or(seeds);
        let warmup = key_u64(doc, "warmup").map_err(at)?.unwrap_or(0);
        if campaign.mode == CampaignMode::Sample && pool < seeds {
            return Err(at(format!("`pool` {pool} is smaller than `seeds` {seeds}")));
        }
        entries.push(Entry {
            scenario,
            seeds,
            pool,
            warmup,
            expect,
        });
    }
    Ok(Workload {
        name,
        mode: campaign.mode,
        entries,
    })
}

fn key_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_i64()
            .and_then(|i| u64::try_from(i).ok())
            .map(Some)
            .ok_or(format!("`{key}` must be a non-negative integer")),
    }
}

fn census(doc: &Json) -> Result<Census, String> {
    let need = |key: &str| key_u64(doc, key)?.ok_or(format!("missing `{key}`"));
    Ok(Census {
        states: need("expect_states")?,
        decided: need("expect_decided")?,
        violating: need("expect_violating")?,
        complete: doc
            .get("expect_complete")
            .and_then(Json::as_bool)
            .ok_or("missing boolean `expect_complete`")?,
        cex_depth: key_u64(doc, "expect_cex_depth")?
            .map(|d| u32::try_from(d).map_err(|_| "`expect_cex_depth` out of range"))
            .transpose()?,
    })
}

impl Workload {
    /// Where each scenario enters its seed pool for base seed `base`: one
    /// offset per entry, a pure function of `(base, entry order)`.
    pub fn pool_offsets(&self, base: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(base);
        self.entries
            .iter()
            .map(|e| rng.next_u64() % e.pool.max(1))
            .collect()
    }
}

impl Entry {
    /// The `k`-th seed of slice `slice`: the pool is walked cyclically
    /// from `offset`, so slices use disjoint seeds until the pool wraps.
    pub fn run_seed(&self, offset: u64, slice: u64, k: u64) -> u64 {
        self.scenario.seed_base + (offset + slice * self.seeds + k) % self.pool
    }

    /// The `k`-th set-up seed: just past the pool, so set-up never
    /// touches a measured seed and does the same work for every `--seed`.
    pub fn warmup_seed(&self, k: u64) -> u64 {
        self.scenario.seed_base + self.pool + k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_frozen_workload_file_parses() {
        for name in NAMES {
            let w = load(name).unwrap_or_else(|e| panic!("{e}"));
            assert!(!w.entries.is_empty(), "{name} has scenarios");
            let explore = name == "explore";
            assert_eq!(w.mode == CampaignMode::Explore, explore);
            for e in &w.entries {
                assert_eq!(e.expect.is_some(), explore, "{name}/{}", e.scenario.name);
            }
            assert!(
                w.entries.iter().any(|e| e.warmup > 0),
                "{name} has a set-up pass"
            );
        }
        assert!(load("nope").is_err());
    }

    #[test]
    fn scenario_names_are_unique_within_a_workload() {
        for name in NAMES {
            let w = load(name).unwrap();
            let mut names: Vec<_> = w.entries.iter().map(|e| &e.scenario.name).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), w.entries.len(), "{name}");
        }
    }

    #[test]
    fn seeds_stay_inside_the_pool_and_set_up_stays_outside() {
        let w = load("scale_n").unwrap();
        let offsets = w.pool_offsets(7);
        assert_eq!(offsets, w.pool_offsets(7), "same seed, same inputs");
        assert_ne!(offsets, w.pool_offsets(8), "another seed, other inputs");
        for (e, &off) in w.entries.iter().zip(&offsets) {
            let base = e.scenario.seed_base;
            for slice in 0..40 {
                for k in 0..e.seeds {
                    let s = e.run_seed(off, slice, k);
                    assert!((base..base + e.pool).contains(&s));
                }
            }
            for k in 0..e.warmup {
                assert!(e.warmup_seed(k) >= base + e.pool);
            }
        }
    }
}
