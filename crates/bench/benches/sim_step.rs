//! Bench — `Simulation::step` under a load that fills the event queue: one
//! stellar-minimal run (sink detection, then SCP) on a Byzantine-safe
//! graph with an 8-member sink and 16 outsiders. SCP's flood keeps several
//! hundred thousand deliveries pending at once, which the ping-style
//! simulator micro-loads never do. Throughput is simulated deliveries per
//! host second.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scup_graph::generators;
use stellar_cup::consensus::{self, EndToEndConfig, Outcome};

fn deliveries(outcome: &Outcome) -> u64 {
    outcome.sd_report.messages_delivered + outcome.scp_report.messages_delivered
}

fn bench_sim_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(24);
    let (kg, faulty) = generators::random_byzantine_safe(8, 16, 1, &mut rng);
    let config = EndToEndConfig {
        seed: 1,
        ..EndToEndConfig::default()
    };
    // The run is a pure function of (graph, seed): count once, time after.
    let delivered = deliveries(&consensus::run_end_to_end(&kg, 1, &faulty, &config));

    let mut group = c.benchmark_group("sim_step");
    group.sample_size(10);
    group.throughput(Throughput::Elements(delivered));
    group.bench_function("scp_n24", |b| {
        b.iter(|| {
            let outcome = consensus::run_end_to_end(&kg, 1, &faulty, &config);
            assert!(outcome.agreement());
            assert_eq!(deliveries(&outcome), delivered);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sim_step);
criterion_main!(benches);
