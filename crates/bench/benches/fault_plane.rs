//! Bench A7 — overhead of the fault-injection plane.
//!
//! Four flavours of the fig. 2 sampling run, one `run_one` end to end
//! per iteration:
//!
//! - `fig2-no-plane`: no fault plan at all (the pre-PR-7 baseline);
//! - `fig2-zero-plan`: `faults = {}` — must cost the same as no plane
//!   (zero extra RNG draws, retransmission disabled);
//! - `fig2-loss-retransmit`: 30% loss until tick 1500, healed by the
//!   retransmission + backoff layer — the price of robustness;
//! - `fig2-crash-recover`: a sink member crashes at tick 300 and replays
//!   its journal at tick 2000.
//!
//! The rows are compared warn-only in CI (`fault_plane/` prefix in
//! `check_bench_regression.py`): loss healing is seed-sensitive, so the
//! numbers inform rather than gate.
//!
//! `CRITERION_JSON=BENCH_PR7.json cargo bench -p scup-bench --bench
//! fault_plane` appends the rows to the checked-in baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use scup_harness::campaign::run_one;
use scup_harness::scenario::{FaultPlacement, FaultSpec, NetworkSpec, Scenario, TopologySpec};
use scup_harness::{protocol, AdversaryRegistry, System};

fn fig2(spec: Option<FaultSpec>) -> Scenario {
    let mut b = Scenario::builder("bench")
        .topology(TopologySpec::Fig2)
        .faults(FaultPlacement::Ids(vec![5]))
        .network(NetworkSpec {
            max_ticks: 100_000,
            ..Default::default()
        });
    if let Some(spec) = spec {
        b = b.fault_plan(spec);
    }
    b.build()
}

fn bench_fault_plane(c: &mut Criterion) {
    let registry = AdversaryRegistry::builtin();
    let cases: [(&str, Scenario); 4] = [
        ("fig2-no-plane", fig2(None)),
        ("fig2-zero-plan", fig2(Some(FaultSpec::default()))),
        (
            "fig2-loss-retransmit",
            fig2(Some(FaultSpec {
                loss: 0.3,
                loss_until: 1_500,
                ..Default::default()
            })),
        ),
        (
            "fig2-crash-recover",
            fig2(Some(FaultSpec {
                crash: vec![2],
                crash_at: 300,
                recover_at: Some(2_000),
                ..Default::default()
            })),
        ),
    ];
    let mut group = c.benchmark_group("fault_plane");
    group.sample_size(10);
    for (name, scenario) in cases {
        group.bench_function(name, |b| {
            b.iter(|| {
                // Rotate seeds so one lucky schedule cannot dominate.
                let mut ticks = 0;
                for seed in 0..4 {
                    let run = run_one(&scenario, seed, &registry);
                    assert!(run.passed, "{name}/{seed}: {:?}", run.invariants.violations);
                    ticks += run.end_ticks;
                }
                ticks
            })
        });
    }
    group.finish();
}

/// Forensics overhead on the sampled crash–recover run: the same
/// simulation with the causal event graph + decision provenance
/// disarmed vs armed. The `-off` row must cost the same as the plain
/// `fault_plane/fig2-crash-recover` row (one branch per event); the
/// `-on` row prices full recording. Both rows are gated in CI
/// (`--prefix forensics/` in `check_bench_regression.py`).
fn bench_forensics_sample(c: &mut Criterion) {
    let registry = AdversaryRegistry::builtin();
    let scenario = fig2(Some(FaultSpec {
        crash: vec![2],
        crash_at: 300,
        recover_at: Some(2_000),
        ..Default::default()
    }));
    let mut systems: Vec<System> = (0..4)
        .map(|seed| System::of(&scenario, seed, &registry).unwrap())
        .collect();
    // Element denominator: delivered messages per iteration (4 seeds),
    // deterministic for a fixed scenario + seed set.
    let delivered: u64 = systems
        .iter()
        .map(|system| protocol::execute_observed(system).0.messages_delivered)
        .sum();

    let mut group = c.benchmark_group("forensics");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(delivered));
    for (suffix, forensics) in [("off", false), ("on", true)] {
        for system in &mut systems {
            system.config.forensics = forensics;
        }
        group.bench_function(format!("fig2-crash-recover-{suffix}/{delivered}"), |b| {
            b.iter(|| {
                let mut total = 0u64;
                for system in &systems {
                    let out = protocol::execute_observed(system).0;
                    assert_eq!(out.causal.is_enabled(), forensics);
                    total += out.messages_delivered;
                }
                assert_eq!(total, delivered);
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fault_plane, bench_forensics_sample);
criterion_main!(benches);
