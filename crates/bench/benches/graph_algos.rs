//! Bench — graph substrate: Tarjan SCC/sink detection, vertex-disjoint
//! paths (Menger via Dinic), the full `k`-OSR check (Definition 6), and
//! the Theorem-1 premise the campaign oracle evaluates per run, across
//! graph sizes.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scup_graph::{flow, generators, kosr, scc, ProcessId};

fn kg(n_sink: usize, n_out: usize, k: usize, seed: u64) -> scup_graph::KnowledgeGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = generators::KosrConfig::new(n_sink, n_out, k).with_extra_edges(0.1);
    generators::random_kosr(&config, &mut rng)
}

fn bench_scc(c: &mut Criterion) {
    let mut group = c.benchmark_group("scc_decompose");
    for n in [16usize, 64, 256, 1024] {
        let g = kg(n / 2, n / 2, 2, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| scc::decompose_full(black_box(g.graph())))
        });
    }
    group.finish();
}

fn bench_disjoint_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("vertex_disjoint_paths");
    for n in [16usize, 64, 256] {
        let g = kg(n / 2, n / 2, 3, 2);
        let within = g.graph().vertex_set();
        let s = ProcessId::new((n - 1) as u32); // non-sink
        let t = ProcessId::new(0); // sink member
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| flow::max_vertex_disjoint_paths(black_box(g.graph()), s, t, &within))
        });
    }
    group.finish();
}

fn bench_kosr_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("kosr_check");
    group.sample_size(10);
    for n in [12usize, 20, 32] {
        let g = kg(n / 2, n / 2, 2, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| kosr::is_k_osr(black_box(g.graph()), 2))
        });
    }
    group.finish();
}

/// The premise oracle's cost on the BFT-CUP scaling graphs: Byzantine-safe,
/// 8-member sink, f = 1, so every check asks `k = 2` of O(n²) pairs.
fn bench_premise(c: &mut Criterion) {
    let mut group = c.benchmark_group("satisfies_theorem1");
    group.sample_size(10);
    for n in [24usize, 64, 128] {
        let mut rng = StdRng::seed_from_u64(4);
        let (g, faulty) = generators::random_byzantine_safe(8, n - 8, 1, &mut rng);
        assert!(kosr::satisfies_theorem1(g.graph(), 1, &faulty));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| kosr::satisfies_theorem1(black_box(g.graph()), 1, &faulty))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scc,
    bench_disjoint_paths,
    bench_kosr_check,
    bench_premise
);
criterion_main!(benches);
