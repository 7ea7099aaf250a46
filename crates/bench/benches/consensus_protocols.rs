//! Bench T1/T5 — end-to-end consensus: the SCP + sink-detector pipeline
//! (Theorem 5) vs the BFT-CUP baseline (Theorem 1), full simulated runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scup_graph::generators;
use stellar_cup::consensus::{self, EndToEndConfig};

fn bench_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("consensus");
    group.sample_size(10);
    for (sink, out) in [(5usize, 3usize), (6, 6), (8, 10)] {
        let mut rng = StdRng::seed_from_u64(13);
        let (kg, faulty) = generators::random_byzantine_safe(sink, out, 1, &mut rng);
        let n = kg.n();
        // Both arms: a synchronous network (GST 0), same graph and inputs.
        let config = |seed| EndToEndConfig {
            seed,
            gst: 0,
            ..EndToEndConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("scp_plus_sd", n), &n, |b, _| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let outcome = consensus::run_end_to_end(&kg, 1, &faulty, &config(seed));
                assert!(outcome.agreement());
            })
        });
        group.bench_with_input(BenchmarkId::new("bftcup", n), &n, |b, _| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let phase = consensus::run_bftcup(&kg, 1, &faulty, &config(seed), None);
                assert!(consensus::agreed_value(&phase.decisions, &faulty).is_some());
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);
