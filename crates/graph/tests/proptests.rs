//! Property-based tests for `scup-graph`.
//!
//! - `ProcessSet` is checked against a `BTreeSet<u32>` oracle, built once
//!   and through mutation sequences that cross the inline/heap line;
//! - Tarjan SCC output is checked against reachability-defined equivalence;
//! - Dinic disjoint-path counts are checked against structural bounds and a
//!   brute-force path-packing lower bound on small graphs;
//! - the reusable `SplitNetwork` is checked against those Dinic counts;
//! - generated `k`-OSR graphs must pass the Definition 6 checker;
//! - the premise judge `kosr::satisfies_theorem1` is checked against the
//!   composition campaigns used before it named clauses, rebuilt from
//!   Definition 6's primitives.

use std::collections::BTreeSet;

use proptest::prelude::*;
use scup_graph::{
    connectivity, flow, generators, kosr, scc, traversal, DiGraph, ProcessId, ProcessSet,
};

/// The premise as the campaign oracle composed it before one judge named
/// its clause: Definition 7 (`|F| ≤ f`, `F` a proper subset, `G \ F`
/// `(f+1)`-OSR with all four conditions of Definition 6 evaluated in full),
/// then the unique sink of `G` keeping `2f + 1` correct members — twice,
/// once inside the old `satisfies_theorem1` and once in the oracle.
fn reference_premise(g: &DiGraph, f: usize, gone: &ProcessSet) -> bool {
    let all = g.vertex_set();
    let correct = all.difference(gone);
    let k = f + 1;
    let sinks = scup_graph::sink::sink_components(g, &correct);
    let (sink_k_connected, nonsink_paths_ok) = match sinks.as_slice() {
        [sink] => (
            connectivity::is_k_strongly_connected(g, k, sink),
            correct.difference(sink).iter().all(|i| {
                sink.iter()
                    .all(|j| flow::max_vertex_disjoint_paths(g, i, j, &correct) >= k)
            }),
        ),
        _ => (false, false),
    };
    let byzantine_safe = gone.len() <= f
        && gone.is_subset(&all)
        && gone != &all
        && connectivity::is_undirected_connected(g, &correct)
        && sinks.len() == 1
        && sink_k_connected
        && nonsink_paths_ok;
    let margin = || {
        scup_graph::sink::unique_sink(g)
            .is_some_and(|v_sink| v_sink.intersection_len(&correct) >= 2 * f + 1)
    };
    byzantine_safe && margin() && margin()
}

fn small_ids() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..200, 0..40)
}

fn default_hash(set: &ProcessSet) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    set.hash(&mut h);
    h.finish()
}

fn arb_digraph(max_n: usize, max_m: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m).prop_map(move |edges| {
            let mut g = DiGraph::new(n);
            for (u, v) in edges {
                if u != v {
                    g.add_edge(ProcessId::new(u), ProcessId::new(v));
                }
            }
            g
        })
    })
}

proptest! {
    #[test]
    fn set_matches_btreeset_oracle(ids_a in small_ids(), ids_b in small_ids()) {
        let a: ProcessSet = ProcessSet::from_ids(ids_a.iter().copied());
        let b: ProcessSet = ProcessSet::from_ids(ids_b.iter().copied());
        let oa: BTreeSet<u32> = ids_a.into_iter().collect();
        let ob: BTreeSet<u32> = ids_b.into_iter().collect();

        prop_assert_eq!(a.len(), oa.len());
        let union: BTreeSet<u32> = oa.union(&ob).copied().collect();
        let inter: BTreeSet<u32> = oa.intersection(&ob).copied().collect();
        let diff: BTreeSet<u32> = oa.difference(&ob).copied().collect();
        prop_assert_eq!(a.union(&b), ProcessSet::from_ids(union));
        prop_assert_eq!(a.intersection(&b), ProcessSet::from_ids(inter.iter().copied()));
        prop_assert_eq!(a.difference(&b), ProcessSet::from_ids(diff));
        prop_assert_eq!(a.intersection_len(&b), inter.len());
        prop_assert_eq!(a.is_subset(&b), oa.is_subset(&ob));
        prop_assert_eq!(a.is_disjoint(&b), oa.is_disjoint(&ob));
        let ids: Vec<u32> = a.iter().map(|p| p.as_u32()).collect();
        let oracle_ids: Vec<u32> = oa.iter().copied().collect();
        prop_assert_eq!(ids, oracle_ids, "iteration must be ascending");
    }

    /// Mutation sequences, not build-then-query: ids reach 300 while the
    /// inline words end at 128, so the subject and the operand each sit on
    /// either side of the inline/heap line and cross it both ways. After
    /// every step the set, its words, its hash and every relation to the
    /// operand must be those of the oracle, whichever form backs them.
    #[test]
    fn set_operation_sequences_match_btreeset_oracle(
        steps in proptest::collection::vec(
            (0u32..10, 0u32..300, proptest::collection::vec(0u32..300, 0..6),
             proptest::bool::ANY, proptest::bool::ANY),
            1..60,
        ),
    ) {
        let mut set = ProcessSet::new();
        let mut oracle: BTreeSet<u32> = BTreeSet::new();
        for (op, id, operand_ids, small, shrunk) in steps {
            // The operand: below the line, across it, or spilled and shrunk
            // back under it.
            let operand_oracle: BTreeSet<u32> = operand_ids
                .into_iter()
                .map(|i| if small { i % 128 } else { i })
                .collect();
            let mut operand = ProcessSet::from_ids(operand_oracle.iter().copied());
            if shrunk {
                operand.insert(ProcessId::new(299));
                if !operand_oracle.contains(&299) {
                    operand.remove(ProcessId::new(299));
                }
            }
            let pid = ProcessId::new(id);
            match op {
                0 => prop_assert_eq!(set.insert(pid), oracle.insert(id)),
                1 => prop_assert_eq!(set.remove(pid), oracle.remove(&id)),
                2 => prop_assert_eq!(set.pop_first().map(|p| p.as_u32()), oracle.pop_first()),
                3 => {
                    set.retain(|p| p.as_u32() < id);
                    oracle.retain(|i| *i < id);
                }
                4 => {
                    set.union_with(&operand);
                    oracle.extend(&operand_oracle);
                }
                5 => {
                    set.intersect_with(&operand);
                    oracle.retain(|i| operand_oracle.contains(i));
                }
                6 => {
                    set.difference_with(&operand);
                    oracle.retain(|i| !operand_oracle.contains(i));
                }
                7 => {
                    set.clone_from(&operand);
                    oracle.clone_from(&operand_oracle);
                }
                8 => {
                    let mut padded = operand.as_words().to_vec();
                    padded.push(0);
                    set.copy_from_words(&padded);
                    oracle.clone_from(&operand_oracle);
                }
                _ => set = ProcessSet::from_words(set.as_words().to_vec()),
            }

            prop_assert_eq!(set.len(), oracle.len());
            prop_assert_eq!(set.is_empty(), oracle.is_empty());
            prop_assert!(set.iter().map(|p| p.as_u32()).eq(oracle.iter().copied()));
            prop_assert_eq!(set.first().map(|p| p.as_u32()), oracle.first().copied());
            prop_assert_eq!(set.contains(pid), oracle.contains(&id));
            prop_assert!(set.as_words().last() != Some(&0), "trailing zero word");

            prop_assert_eq!(set.is_subset(&operand), oracle.is_subset(&operand_oracle));
            prop_assert_eq!(operand.is_subset(&set), operand_oracle.is_subset(&oracle));
            prop_assert_eq!(set.is_disjoint(&operand), oracle.is_disjoint(&operand_oracle));
            prop_assert_eq!(set.intersection_len(&operand),
                            oracle.intersection(&operand_oracle).count());
            prop_assert_eq!(set.difference_len(&operand),
                            oracle.difference(&operand_oracle).count());
            prop_assert_eq!(operand.difference_len(&set),
                            operand_oracle.difference(&oracle).count());
            prop_assert_eq!(set.cmp(&operand), oracle.cmp(&operand_oracle));

            let rebuilt = ProcessSet::from_ids(oracle.iter().copied());
            prop_assert_eq!(&set, &rebuilt);
            prop_assert_eq!(set.as_words(), rebuilt.as_words());
            prop_assert_eq!(set.cmp(&rebuilt), std::cmp::Ordering::Equal);
            prop_assert_eq!(default_hash(&set), default_hash(&rebuilt));
            prop_assert_eq!(&set.clone(), &rebuilt);
        }
    }

    #[test]
    fn scc_components_are_mutually_reachable(g in arb_digraph(12, 40)) {
        let all = g.vertex_set();
        let d = scc::decompose_full(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                let same = d.component_of(u) == d.component_of(v);
                let mutually_reachable = traversal::has_path(&g, u, v, &all)
                    && traversal::has_path(&g, v, u, &all);
                prop_assert_eq!(same, mutually_reachable, "u={} v={}", u, v);
            }
        }
    }

    #[test]
    fn sink_components_cannot_reach_outside(g in arb_digraph(12, 40)) {
        let all = g.vertex_set();
        let d = scc::decompose_full(&g);
        for c in d.sink_components() {
            let members = d.component(c);
            for u in members {
                let reach = traversal::reachable_set(&g, u, &all);
                prop_assert!(reach.is_subset(members),
                    "sink member {} escapes its component", u);
            }
        }
    }

    #[test]
    fn disjoint_paths_bounded_by_degrees(g in arb_digraph(10, 30)) {
        let all = g.vertex_set();
        for s in g.vertices() {
            for t in g.vertices() {
                if s == t { continue; }
                let k = flow::max_vertex_disjoint_paths(&g, s, t, &all);
                prop_assert!(k <= g.out_degree(s));
                prop_assert!(k <= g.in_degree(t));
                if k > 0 {
                    prop_assert!(traversal::has_path(&g, s, t, &all));
                }
                // Removing any single internal vertex kills at most one path.
                for x in g.vertices() {
                    if x == s || x == t { continue; }
                    let without = all.difference(&ProcessSet::singleton(x));
                    let k2 = flow::max_vertex_disjoint_paths(&g, s, t, &without);
                    prop_assert!(k2 + 1 >= k, "removing {} lost more than one path", x);
                }
            }
        }
    }

    /// One reusable split network answers every `(s, t, k)` query as the
    /// per-pair max flow does — across pairs (so stale capacities would
    /// show), with endpoints inside and outside `within`.
    #[test]
    fn split_network_matches_max_flow_threshold(
        g in arb_digraph(10, 45),
        mask in proptest::collection::vec(0u32..4, 10),
    ) {
        let within: ProcessSet = g
            .vertices()
            .filter(|v| mask[v.index()] != 0)
            .collect();
        let mut net = flow::SplitNetwork::new(&g, &within);
        for s in g.vertices() {
            for t in g.vertices() {
                if s == t { continue; }
                let exact = flow::max_vertex_disjoint_paths(&g, s, t, &within);
                for k in 0..=4usize {
                    prop_assert_eq!(net.has_k_disjoint_paths(s, t, k), exact >= k,
                        "s={} t={} k={} exact={} within={:?}", s, t, k, exact, within);
                }
                prop_assert!(flow::has_k_vertex_disjoint_paths(&g, s, t, exact, &within));
                prop_assert!(!flow::has_k_vertex_disjoint_paths(&g, s, t, exact + 1, &within));
            }
        }
    }

    #[test]
    fn strong_connectivity_is_monotone_in_k(g in arb_digraph(9, 40)) {
        let all = g.vertex_set();
        let kappa = connectivity::strong_connectivity(&g, &all);
        if all.len() >= 2 {
            prop_assert!(connectivity::is_k_strongly_connected(&g, kappa, &all));
            prop_assert!(!connectivity::is_k_strongly_connected(&g, kappa + 1, &all));
        }
    }

    #[test]
    fn random_kosr_passes_checker(seed in 0u64..500, sink in 4usize..8, extra in 0usize..8, k in 1usize..3) {
        use rand::{rngs::StdRng, SeedableRng};
        prop_assume!(sink > k);
        let mut rng = StdRng::seed_from_u64(seed);
        let config = generators::KosrConfig::new(sink, extra, k).with_extra_edges(0.15);
        let g = generators::random_kosr(&config, &mut rng);
        prop_assert!(kosr::is_k_osr(g.graph(), k));
    }

    #[test]
    fn undirected_reachability_is_symmetric(g in arb_digraph(10, 30)) {
        let all = g.vertex_set();
        for u in g.vertices() {
            let ru = traversal::undirected_reachable_set(&g, u, &all);
            for v in &ru {
                let rv = traversal::undirected_reachable_set(&g, v, &all);
                prop_assert!(rv.contains(u));
            }
        }
    }

    #[test]
    fn erdos_renyi_respects_parameters(seed in 0u64..1_000, n in 2usize..16, p_milli in 0usize..=1_000) {
        use rand::{rngs::StdRng, SeedableRng};
        let p = p_milli as f64 / 1_000.0;
        let g = generators::erdos_renyi(n, p, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(g.vertex_count(), n);
        prop_assert!(g.edge_count() <= n * (n - 1));
        for (u, v) in g.edges() {
            prop_assert!(u != v, "no self-loops");
        }
        // Seeded generation must be reproducible.
        let h = generators::erdos_renyi(n, p, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(g, h);
    }

    #[test]
    fn scale_free_respects_parameters(seed in 0u64..1_000, n_extra in 0usize..20, m in 1usize..4) {
        use rand::{rngs::StdRng, SeedableRng};
        let n = m + 1 + n_extra;
        let kg = generators::scale_free(n, m, &mut StdRng::seed_from_u64(seed));
        let g = kg.graph();
        prop_assert_eq!(g.vertex_count(), n);
        // Core is complete; every joiner knows exactly m earlier processes.
        let core = ProcessSet::from_ids(0..=(m as u32));
        prop_assert_eq!(scup_graph::sink::unique_sink(g), Some(core));
        for v in (m + 1)..n {
            let pid = ProcessId::new(v as u32);
            prop_assert_eq!(g.out_degree(pid), m);
            for w in g.successors(pid).iter() {
                prop_assert!(w.as_u32() < v as u32, "joiners only know earlier processes");
            }
        }
        prop_assert!(kosr::is_k_osr(g, 1));
        let again = generators::scale_free(n, m, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(kg.graph(), again.graph());
    }

    #[test]
    fn clustered_respects_parameters(seed in 0u64..1_000, clusters in 1usize..5, size in 2usize..6, bridges in 0usize..4) {
        use rand::{rngs::StdRng, SeedableRng};
        let config = generators::ClusteredConfig::new(clusters, size, bridges)
            .with_extra_edges(0.2, 0.1);
        let kg = generators::clustered(&config, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(kg.n(), clusters * size);
        let sinks = scup_graph::sink::sink_components(kg.graph(), &kg.graph().vertex_set());
        if bridges >= 1 {
            // Core cluster is the unique sink.
            prop_assert_eq!(sinks.len(), 1);
            prop_assert_eq!(&sinks[0], &ProcessSet::from_ids(0..size as u32));
        } else if config.inter_extra_prob == 0.0 {
            prop_assert_eq!(sinks.len(), clusters, "partitioned: one sink per cluster");
        }
        let again = generators::clustered(&config, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(kg.graph(), again.graph());
    }

    #[test]
    fn perturb_kosr_preserves_kosr(seed in 0u64..500, additions in 0usize..10, deletions in 0usize..6) {
        use rand::{rngs::StdRng, SeedableRng};
        let base = generators::fig2();
        let config = generators::PerturbConfig { k: 3, additions, deletions };
        let p = generators::perturb_kosr(&base, &config, &mut StdRng::seed_from_u64(seed));
        prop_assert!(kosr::is_k_osr(p.graph(), 3));
        let again = generators::perturb_kosr(&base, &config, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(p.graph(), again.graph());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The judge's verdict is the old composition's on `k`-OSR draws of
    /// every shape around the threshold (so each clause fails somewhere)
    /// and on Erdős–Rényi draws (usually several sinks).
    #[test]
    fn the_premise_judge_matches_the_oracles_old_composition(
        seed in 0u64..1_000,
        er in proptest::bool::ANY,
        sink in 2usize..7,
        nonsink in 0usize..5,
        k in 1usize..4,
        f in 0usize..3,
        gone in proptest::collection::vec(0u32..11, 0..3),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = if er {
            generators::erdos_renyi(sink + nonsink, 0.35, &mut rng)
        } else {
            prop_assume!(sink > k);
            let config = generators::KosrConfig::new(sink, nonsink, k).with_extra_edges(0.1);
            generators::random_kosr(&config, &mut rng).graph().clone()
        };
        // Id 10 lies outside every graph drawn: not a proper subset.
        let gone = ProcessSet::from_ids(gone);
        let verdict = kosr::satisfies_theorem1(&g, f, &gone);
        prop_assert_eq!(verdict.is_ok(), reference_premise(&g, f, &gone), "{:?}", verdict);
    }
}
