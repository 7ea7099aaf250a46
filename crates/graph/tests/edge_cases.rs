//! Edge-case tests for the graph substrate: degenerate sizes, boundary `k`
//! and `f` values, and malformed inputs.

use scup_graph::{
    connectivity, flow, generators, kosr, reachability, scc, sink, traversal, DiGraph,
    KnowledgeGraph, ProcessId, ProcessSet,
};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn empty_and_singleton_graphs() {
    let g0 = DiGraph::new(0);
    assert_eq!(g0.vertex_count(), 0);
    assert!(scc::decompose_full(&g0).components().is_empty());
    assert!(connectivity::is_undirected_connected(
        &g0,
        &ProcessSet::new()
    ));
    assert_eq!(sink::unique_sink(&g0), None, "no components, no sink");

    let g1 = DiGraph::new(1);
    let d = scc::decompose_full(&g1);
    assert_eq!(d.count(), 1);
    assert_eq!(sink::unique_sink(&g1), Some(ProcessSet::from_ids([0])));
}

#[test]
fn two_vertex_graphs() {
    // One edge: sink is the target.
    let g = DiGraph::from_edges(2, [(0, 1)]);
    assert_eq!(sink::unique_sink(&g), Some(ProcessSet::from_ids([1])));
    // Both edges: one SCC.
    let g = DiGraph::from_edges(2, [(0, 1), (1, 0)]);
    assert_eq!(sink::unique_sink(&g), Some(ProcessSet::from_ids([0, 1])));
    assert!(connectivity::is_k_strongly_connected(
        &g,
        1,
        &g.vertex_set()
    ));
    assert!(!connectivity::is_k_strongly_connected(
        &g,
        2,
        &g.vertex_set()
    ));
}

#[test]
fn f_zero_everywhere() {
    // f = 0: 1-OSR suffices; Fig. 1 qualifies.
    let kg = generators::fig1();
    assert_eq!(
        kosr::satisfies_theorem1(kg.graph(), 0, &ProcessSet::new()),
        Ok(())
    );
    // 0-reachability = plain reachability.
    let all = kg.graph().vertex_set();
    for i in kg.processes() {
        let r = traversal::reachable_set(kg.graph(), i, &all);
        let fr = reachability::f_reachable_set(kg.graph(), 0, i, &all);
        assert_eq!(r, fr, "0-reachable must equal reachable from {i}");
    }
}

#[test]
fn faulty_set_equal_to_everything_is_rejected() {
    let g = generators::complete(3);
    let all = g.vertex_set();
    assert_eq!(
        kosr::satisfies_theorem1(&g, 3, &all),
        Err(kosr::PremiseFailure::NoCorrectProcess),
        "F must be a strict subset"
    );
}

#[test]
fn disjoint_paths_boundary() {
    // Paths to an unreachable vertex.
    let g = DiGraph::from_edges(3, [(0, 1)]);
    assert_eq!(
        flow::max_vertex_disjoint_paths(&g, p(0), p(2), &g.vertex_set()),
        0
    );
    // Max paths bounded by min(out(s), in(t)).
    let star = DiGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]);
    assert_eq!(
        flow::max_vertex_disjoint_paths(&star, p(0), p(4), &star.vertex_set()),
        3
    );
}

#[test]
fn kosr_with_k_larger_than_sink() {
    // Sink K3: (s-1) = 2-strongly-connected at most; 5-OSR must fail.
    let kg = generators::fig2_family(3, 3);
    assert!(kosr::is_k_osr(kg.graph(), 2));
    assert!(!kosr::is_k_osr(kg.graph(), 5));
}

#[test]
fn knowledge_graph_roundtrip() {
    let kg = generators::fig2();
    let pds = kg.pds();
    let rebuilt = KnowledgeGraph::from_pds(pds);
    assert_eq!(rebuilt.graph(), kg.graph());
    let as_graph = kg.clone().into_graph();
    assert_eq!(&as_graph, rebuilt.graph());
}

#[test]
fn generators_reject_bad_parameters() {
    assert!(std::panic::catch_unwind(|| generators::circulant(3, 3)).is_err());
    assert!(std::panic::catch_unwind(|| generators::cycle(1)).is_err());
    assert!(std::panic::catch_unwind(|| {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        // sink_size < 3f + 2.
        generators::random_byzantine_safe(4, 2, 1, &mut rng)
    })
    .is_err());
}

#[test]
fn masked_operations_ignore_outside_vertices() {
    let g = generators::complete(6);
    let within = ProcessSet::from_ids([0, 1, 2]);
    // Strong connectivity of the masked K3.
    assert_eq!(connectivity::strong_connectivity(&g, &within), 2);
    // Reachability stays inside.
    let r = traversal::reachable_set(&g, p(0), &within);
    assert_eq!(r, within);
}

#[test]
fn condensation_structure_of_fig1() {
    let kg = generators::fig1();
    let d = scc::decompose_full(kg.graph());
    // Fig. 1: sink {4,5,6,7} plus four singleton non-sink components.
    assert_eq!(d.count(), 5);
    let sink_idx = d.component_of(p(4)).unwrap();
    assert_eq!(d.component(sink_idx).len(), 4);
    assert!(d.condensation_successors(sink_idx).is_empty());
    // Every other component reaches the sink in the condensation.
    for c in 0..d.count() {
        if c != sink_idx {
            assert!(!d.condensation_successors(c).is_empty());
        }
    }
}
