//! Explorer throughput: canonical states per second on the explore-campaign
//! systems.
//!
//! Two kinds of rows, both tracked in `BENCH_PR10.json`:
//!
//! - `*-unreduced` rows run with every reduction off and count their own
//!   visited states — the *per-state* throughput of the explorer core
//!   (fork/fire/hash), comparable state-for-state with `BENCH_PR3.json`;
//! - plain rows run with the default reductions (symmetry + eager-inert)
//!   but keep the **unreduced** state count as the element denominator:
//!   the run certifies the same full schedule space, so elements/second
//!   measures how fast the explorer buys the *verification task* — the
//!   number the PR 4 ≥ 5× target is scored on (`split22-cex` verifies the
//!   same 20 880-state space; the reductions collapse what must be
//!   materialized to do it).
//!
//! The unreduced counts are re-derived here at bench start (not
//! hard-coded), so a semantics change shows up as a changed element count
//! in the row name rather than a silently wrong rate.
//!
//! Run: `cargo bench -p scup-bench --bench explorer_states`

use criterion::{
    criterion_group, criterion_main, custom_entry, BenchmarkId, Criterion, Throughput,
};
use scup_harness::scenario::{ExploreSpec, FaultPlacement, ProtocolSpec, Scenario, TopologySpec};
use scup_harness::AdversaryRegistry;
use scup_mc::campaign::{explore_scenario, explore_scenario_obs};
use scup_mc::ObsConfig;
use scup_obs::chrome::TraceClock;
use stellar_cup::attempts::LocalSliceStrategy;

/// The n = 4 fig1-style system (2-member sink + silent outsiders).
fn sink2(max_steps: u32, adversary: &str) -> Scenario {
    Scenario::builder("sink2")
        .topology(TopologySpec::RandomKosr {
            sink: 2,
            nonsink: 2,
            k: 1,
            extra_edge_prob: 0.0,
        })
        .f(0)
        .adversary(adversary)
        .faults(FaultPlacement::Ids(vec![2, 3]))
        .inputs(vec![3, 9])
        .explore(ExploreSpec {
            max_steps,
            timer_budget: 0,
            ..Default::default()
        })
        .build()
}

/// The seeded non-intertwined system (counterexample search included).
fn split22() -> Scenario {
    Scenario::builder("split22")
        .topology(TopologySpec::Clustered {
            clusters: 2,
            cluster_size: 2,
            bridges: 0,
            intra_extra_prob: 0.0,
            inter_extra_prob: 0.0,
        })
        .f(0)
        .protocol(ProtocolSpec::StellarLocal(LocalSliceStrategy::SurviveF))
        .faults(FaultPlacement::None)
        .inputs(vec![1, 1, 2, 2])
        .explore(ExploreSpec {
            max_steps: 48,
            timer_budget: 0,
            ..Default::default()
        })
        .build()
}

/// The bounded equivocating-leader BFT-CUP system (4-member clique sink,
/// f = 1, the view-0 leader lies; both victim splits are explored).
fn bftcup_equiv(max_steps: u32) -> Scenario {
    Scenario::builder("bftcup-equiv")
        .topology(TopologySpec::RandomKosr {
            sink: 4,
            nonsink: 0,
            k: 3,
            extra_edge_prob: 0.0,
        })
        .f(1)
        .adversary("equivocate")
        .faults(FaultPlacement::Ids(vec![0]))
        .protocol(ProtocolSpec::BftCup)
        .inputs(vec![7])
        .explore(ExploreSpec {
            max_steps,
            timer_budget: 0,
            ..Default::default()
        })
        .build()
}

/// The discovery-interleaved full stack on the fig1-style 4-node system.
fn sink2_discovery() -> Scenario {
    let mut s = sink2(64, "silent");
    s.explore.explore_discovery = true;
    s
}

/// The three-active-proposer system from `campaigns/explore.toml`: a
/// 3-member complete sink, no outsiders, one shared proposal — the
/// largest exhaustible space in the campaign and the obs-overhead
/// stress case (deep schedules, heavy settle phase).
fn sink3_proposers() -> Scenario {
    Scenario::builder("sink3-proposers")
        .topology(TopologySpec::RandomKosr {
            sink: 3,
            nonsink: 0,
            k: 1,
            extra_edge_prob: 0.0,
        })
        .f(0)
        .adversary("silent")
        .faults(FaultPlacement::None)
        .inputs(vec![7])
        .explore(ExploreSpec {
            max_steps: 96,
            timer_budget: 0,
            ..Default::default()
        })
        .build()
}

fn without_reductions(mut s: Scenario) -> Scenario {
    s.explore.symmetry = false;
    s.explore.eager_inert = false;
    s
}

fn bench_explorer(c: &mut Criterion) {
    let registry = AdversaryRegistry::builtin();

    let cases = [
        ("sink2-full", sink2(64, "silent"), 1usize),
        ("sink2-equiv-s7", sink2(7, "equivocate"), 1),
        ("split22-cex", split22(), 1),
        // The PR 5 full-stack baselines: the bounded BFT-CUP
        // equivocating-leader space and the discovery-interleaved
        // positive pipeline.
        ("bftcup-equiv-d5", bftcup_equiv(5), 1),
        ("sink2-discovery", sink2_discovery(), 1),
    ];
    for (name, scenario, threads) in cases {
        // The deterministic unreduced state count: the size of the
        // schedule space every row below certifies.
        let unreduced = without_reductions(scenario.clone());
        let space = explore_scenario(&unreduced, threads, &registry).states;

        let mut group = c.benchmark_group("explore_states");
        group.sample_size(10);
        group.throughput(Throughput::Elements(space));
        group.bench_with_input(
            BenchmarkId::new(format!("{name}-unreduced"), space),
            &unreduced,
            |b, scenario| {
                b.iter(|| explore_scenario(scenario, threads, &registry).states);
            },
        );
        group.bench_with_input(BenchmarkId::new(name, space), &scenario, |b, scenario| {
            b.iter(|| explore_scenario(scenario, threads, &registry).states);
        });
        group.finish();
    }
}

/// The uniform-cost search under the default reductions, scored on its
/// own canonical state census: `explore_ucs/<case>-ucs`. (The rows were
/// born paired with a second search discipline; the suffix stays because
/// `BENCH_PR10.json` gates them by name.)
fn bench_ucs(c: &mut Criterion) {
    let registry = AdversaryRegistry::builtin();
    let threads = 1usize;

    let cases = [
        ("sink3-proposers", sink3_proposers()),
        ("split22-cex", split22()),
        ("bftcup-equiv-d5", bftcup_equiv(5)),
    ];
    for (name, scenario) in cases {
        let states = explore_scenario(&scenario, threads, &registry).states;

        let mut group = c.benchmark_group("explore_ucs");
        group.sample_size(10);
        group.throughput(Throughput::Elements(states));
        group.bench_with_input(
            BenchmarkId::new(format!("{name}-ucs"), states),
            &scenario,
            |b, s| {
                b.iter(|| explore_scenario(s, threads, &registry).states);
            },
        );
        group.finish();
    }
}

/// Observability overhead: the same exhaustive exploration with
/// profiling off vs on, plus per-phase wall-time rows from one profiled
/// run.
///
/// Three kinds of rows, all tracked in `BENCH_PR10.json`:
///
/// - `explore_obs/<case>-off` — the unobserved explorer (the gated
///   throughput rows above stay the regression oracle; this row is the
///   like-for-like denominator measured in the same session);
/// - `explore_obs/<case>-on` — full profiling (phase laps, occupancy,
///   depth sampling). The acceptance bar is ≤ 10% below `-off` on
///   `split22-cex`;
/// - `explore_phases/<case>/<phase>` — per-phase nanos from one profiled
///   run, reported via [`custom_entry`]. Warn-only in CI: phase splits
///   shift with the allocator and machine, so they inform rather than
///   gate.
fn bench_obs_overhead(c: &mut Criterion) {
    let registry = AdversaryRegistry::builtin();
    let threads = 1usize;

    // sink3-proposers runs ~30 s per exploration; three samples bound the
    // bench-smoke job while still giving a median.
    let cases = [
        ("split22-cex", split22(), 10usize),
        ("sink3-proposers", sink3_proposers(), 3),
    ];
    for (name, scenario, samples) in cases {
        let states = explore_scenario(&scenario, threads, &registry).states;

        let mut group = c.benchmark_group("explore_obs");
        group.sample_size(samples);
        group.throughput(Throughput::Elements(states));
        group.bench_with_input(
            BenchmarkId::new(format!("{name}-off"), states),
            &scenario,
            |b, scenario| {
                b.iter(|| explore_scenario(scenario, threads, &registry).states);
            },
        );
        let profile = ObsConfig {
            profile: true,
            trace: false,
            forensics: false,
        };
        group.bench_with_input(
            BenchmarkId::new(format!("{name}-on"), states),
            &scenario,
            |b, scenario| {
                b.iter(|| {
                    let clock = TraceClock::start();
                    let mut events = Vec::new();
                    explore_scenario_obs(
                        scenario,
                        threads,
                        &registry,
                        profile,
                        &clock,
                        1,
                        &mut events,
                    )
                    .states
                });
            },
        );
        group.finish();

        // One profiled run feeds the per-phase rows.
        let clock = TraceClock::start();
        let mut events = Vec::new();
        let record = explore_scenario_obs(
            &scenario,
            threads,
            &registry,
            profile,
            &clock,
            1,
            &mut events,
        );
        let obs = record.obs.expect("profiling populates the obs block");
        for row in &obs.phases {
            custom_entry(
                &format!("explore_phases/{name}/{}", row.phase),
                row.nanos as u128,
                None,
            );
        }
    }
}

/// Forensics overhead on the counterexample search: `forensics = true`
/// only touches the deterministic cex *replay* (causal recording +
/// provenance + cone analysis on one re-run), never the exploration
/// itself, so `forensics/split22-cex-{off,on}` must sit within noise of
/// each other — the acceptance bar is ≤ 10%. Both rows are gated in CI
/// (`--prefix forensics/` in `check_bench_regression.py`).
fn bench_forensics_overhead(c: &mut Criterion) {
    let registry = AdversaryRegistry::builtin();
    let threads = 1usize;
    let scenario = split22();
    let states = explore_scenario(&scenario, threads, &registry).states;

    let mut group = c.benchmark_group("forensics");
    group.sample_size(10);
    group.throughput(Throughput::Elements(states));
    for (suffix, forensics) in [("off", false), ("on", true)] {
        let config = ObsConfig {
            profile: false,
            trace: false,
            forensics,
        };
        group.bench_with_input(
            BenchmarkId::new(format!("split22-cex-{suffix}"), states),
            &scenario,
            |b, scenario| {
                b.iter(|| {
                    let clock = TraceClock::start();
                    let mut events = Vec::new();
                    let record = explore_scenario_obs(
                        scenario,
                        threads,
                        &registry,
                        config,
                        &clock,
                        1,
                        &mut events,
                    );
                    let cex = record.violation.as_ref().expect("split22 violates");
                    assert_eq!(cex.forensics.is_some(), forensics);
                    record.states
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_explorer,
    bench_ucs,
    bench_obs_overhead,
    bench_forensics_overhead
);
criterion_main!(benches);
