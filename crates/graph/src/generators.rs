//! Knowledge-connectivity graph generators.
//!
//! Includes the paper's two concrete graphs (Fig. 1 and Fig. 2), a
//! generalized counterexample family for Theorem 2, seeded random `k`-OSR
//! graphs for simulation and benchmarking, and small structural helpers.
//!
//! All ids are 0-based; the paper's figures use 1-based labels, so the
//! paper's process `k` is id `k - 1` here.

use rand::seq::IteratorRandom;
use rand::{Rng, RngExt as _};

use crate::{kosr, sink, DiGraph, KnowledgeGraph, ProcessId, ProcessSet};

/// The 8-participant knowledge connectivity graph of **Fig. 1**.
///
/// Participant detectors (paper labels): `PD_1 = {2,5}`, `PD_2 = {4}`,
/// `PD_3 = {5,7}`, `PD_4 = {5,6,8}`, `PD_5 = {6,7}`, `PD_6 = {5,7,8}`,
/// `PD_7 = {5,6,8}`, `PD_8 = {6,7}`. The sink component is `{5,6,7,8}`
/// (ids `{4,5,6,7}`).
pub fn fig1() -> KnowledgeGraph {
    KnowledgeGraph::from_paper_pds(
        8,
        &[
            (1, &[2, 5]),
            (2, &[4]),
            (3, &[5, 7]),
            (4, &[5, 6, 8]),
            (5, &[6, 7]),
            (6, &[5, 7, 8]),
            (7, &[5, 6, 8]),
            (8, &[6, 7]),
        ],
    )
}

/// The 7-participant graph of **Fig. 2**, used as the counterexample in
/// Theorem 2.
///
/// Participant detectors (paper labels): `PD_1 = {2,3,4}`, `PD_2 = {1,3,4}`,
/// `PD_3 = {1,2,4}`, `PD_4 = {1,2,3}`, `PD_5 = {1,6,7}`, `PD_6 = {4,5,7}`,
/// `PD_7 = {3,5,6}`. This graph is 3-OSR with sink `{1,2,3,4}`
/// (ids `{0,1,2,3}`), yet locally defined slices admit the two disjoint
/// quorums `{5,6,7}` and `{1,2,3,4}`.
pub fn fig2() -> KnowledgeGraph {
    KnowledgeGraph::from_paper_pds(
        7,
        &[
            (1, &[2, 3, 4]),
            (2, &[1, 3, 4]),
            (3, &[1, 2, 4]),
            (4, &[1, 2, 3]),
            (5, &[1, 6, 7]),
            (6, &[4, 5, 7]),
            (7, &[3, 5, 6]),
        ],
    )
}

/// A generalized Fig. 2 counterexample family.
///
/// The sink is a complete digraph on ids `0..sink_size`; `outer_size`
/// non-sink processes `s, s+1, ..., s+r-1` sit on a directed cycle where
/// each outer process knows the next two outer processes and one sink
/// member. For `sink_size ≥ 3` and `outer_size ≥ 3` the result is 2-OSR,
/// and with `f = 1` the locally defined slices of Theorem 2 yield two
/// disjoint quorums (the whole sink, and the whole outer ring).
///
/// # Panics
///
/// Panics if `sink_size < 3` or `outer_size < 3`.
pub fn fig2_family(sink_size: usize, outer_size: usize) -> KnowledgeGraph {
    assert!(sink_size >= 3, "sink must have at least 3 members");
    assert!(outer_size >= 3, "outer ring must have at least 3 members");
    let s = sink_size;
    let r = outer_size;
    let mut g = DiGraph::new(s + r);
    // Complete sink.
    for u in 0..s {
        for v in 0..s {
            if u != v {
                g.add_edge(ProcessId::new(u as u32), ProcessId::new(v as u32));
            }
        }
    }
    // Outer ring: o_i knows o_{i+1}, o_{i+2} and sink member i mod s.
    for i in 0..r {
        let o = |j: usize| ProcessId::new((s + j % r) as u32);
        g.add_edge(o(i), o(i + 1));
        g.add_edge(o(i), o(i + 2));
        g.add_edge(o(i), ProcessId::new((i % s) as u32));
    }
    KnowledgeGraph::from_graph(g)
}

/// A complete digraph on `n` vertices (every process knows every other).
pub fn complete(n: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                g.add_edge(ProcessId::new(u as u32), ProcessId::new(v as u32));
            }
        }
    }
    g
}

/// A directed cycle `0 → 1 → ... → n-1 → 0`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn cycle(n: usize) -> DiGraph {
    assert!(n >= 2, "cycle needs at least 2 vertices");
    DiGraph::from_edges(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)))
}

/// The circulant digraph `C(n; 1..=k)`: vertex `i` has edges to
/// `i+1, ..., i+k (mod n)`. For `n > k` this graph is `k`-strongly
/// connected, which makes it the canonical sink skeleton for random `k`-OSR
/// graphs.
///
/// # Panics
///
/// Panics if `n <= k` or `k == 0`.
pub fn circulant(n: usize, k: usize) -> DiGraph {
    assert!(k >= 1, "circulant needs k >= 1");
    assert!(n > k, "circulant needs n > k");
    let mut g = DiGraph::new(n);
    for i in 0..n {
        for j in 1..=k {
            g.add_edge(
                ProcessId::new(i as u32),
                ProcessId::new(((i + j) % n) as u32),
            );
        }
    }
    g
}

/// Configuration for [`random_kosr`].
#[derive(Debug, Clone)]
pub struct KosrConfig {
    /// Number of sink members (ids `0..sink_size`).
    pub sink_size: usize,
    /// Number of non-sink members (ids `sink_size..sink_size+nonsink_size`).
    pub nonsink_size: usize,
    /// Connectivity parameter `k` of Definition 6.
    pub k: usize,
    /// Probability of adding each candidate extra knowledge edge
    /// (non-sink → anyone, sink → sink); adds realism without breaking
    /// any `k`-OSR condition.
    pub extra_edge_prob: f64,
}

impl KosrConfig {
    /// A configuration with the given sizes and `k`, no extra edges.
    pub fn new(sink_size: usize, nonsink_size: usize, k: usize) -> Self {
        KosrConfig {
            sink_size,
            nonsink_size,
            k,
            extra_edge_prob: 0.0,
        }
    }

    /// Sets the extra-edge probability.
    pub fn with_extra_edges(mut self, p: f64) -> Self {
        self.extra_edge_prob = p;
        self
    }

    /// Total number of processes.
    pub fn n(&self) -> usize {
        self.sink_size + self.nonsink_size
    }
}

/// Generates a random `k`-OSR knowledge connectivity graph (Definition 6).
///
/// Construction: the sink is the circulant `C(sink_size; 1..=k)` (hence
/// `k`-strongly connected); every non-sink process knows `k` distinct
/// uniformly chosen sink members (hence `k` node-disjoint paths to every
/// sink member, by the directed fan lemma), plus random extra edges per
/// [`KosrConfig::extra_edge_prob`]. The result is `k`-OSR by construction;
/// debug builds assert it.
///
/// # Panics
///
/// Panics if `sink_size <= k` or `k == 0`.
pub fn random_kosr<R: Rng + ?Sized>(config: &KosrConfig, rng: &mut R) -> KnowledgeGraph {
    let s = config.sink_size;
    let n = config.n();
    let k = config.k;
    let mut g = crate::DiGraph::new(n);

    // Sink skeleton.
    let skeleton = circulant(s, k);
    for (u, v) in skeleton.edges() {
        g.add_edge(u, v);
    }

    // Non-sink processes: k distinct sink contacts each.
    for v in s..n {
        let contacts = (0..s as u32).sample(rng, k);
        for c in contacts {
            g.add_edge(ProcessId::new(v as u32), ProcessId::new(c));
        }
    }

    // Extra knowledge edges that cannot break k-OSR: from sink only to
    // sink; from non-sink to anyone.
    if config.extra_edge_prob > 0.0 {
        for u in 0..n {
            let limit = if u < s { s } else { n };
            for v in 0..limit {
                if u != v
                    && !g.has_edge(ProcessId::new(u as u32), ProcessId::new(v as u32))
                    && rng.random_bool(config.extra_edge_prob)
                {
                    g.add_edge(ProcessId::new(u as u32), ProcessId::new(v as u32));
                }
            }
        }
    }

    debug_assert!(
        kosr::is_k_osr(&g, k),
        "random_kosr construction must be {k}-OSR"
    );
    KnowledgeGraph::from_graph(g)
}

/// Generates a random knowledge graph that is **Byzantine-safe**
/// (Definition 7) for a randomly drawn failure set of size `f`, together
/// with that failure set, satisfying Theorem 1's premise.
///
/// The graph is built with redundancy `2f + 1` (sink circulant
/// `C(·; 1..=2f+1)`, `2f + 1` sink contacts per non-sink process), so after
/// removing any `f` vertices at least `f + 1` disjoint paths survive and the
/// sink stays `(f+1)`-strongly connected. The sink keeps at least `2f + 1`
/// correct members.
///
/// # Panics
///
/// Panics if `sink_size < 3f + 2` (needed for `2f+1` correct members plus a
/// `(2f+1)`-connected circulant after up to `f` sink failures).
pub fn random_byzantine_safe<R: Rng + ?Sized>(
    sink_size: usize,
    nonsink_size: usize,
    f: usize,
    rng: &mut R,
) -> (KnowledgeGraph, ProcessSet) {
    assert!(
        sink_size >= 3 * f + 2,
        "sink_size must be at least 3f + 2 = {}",
        3 * f + 2
    );
    let config = KosrConfig::new(sink_size, nonsink_size, 2 * f + 1).with_extra_edges(0.05);
    let kg = random_kosr(&config, rng);
    let n = config.n();

    // Draw f faulty processes, keeping at least 2f + 1 correct in the sink.
    let mut faulty = ProcessSet::new();
    let max_sink_faults = sink_size - (2 * f + 1);
    let mut sink_faults = 0usize;
    while faulty.len() < f {
        let v = rng.random_range(0..n as u32);
        let in_sink = (v as usize) < sink_size;
        if in_sink && sink_faults >= max_sink_faults {
            continue;
        }
        if faulty.insert(ProcessId::new(v)) && in_sink {
            sink_faults += 1;
        }
    }
    debug_assert_eq!(kosr::satisfies_theorem1(kg.graph(), f, &faulty), Ok(()));
    (kg, faulty)
}

/// Generates an Erdős–Rényi random digraph `G(n, p)`: each of the
/// `n(n - 1)` ordered pairs becomes an edge independently with
/// probability `p`.
///
/// ER digraphs carry no `k`-OSR guarantee — most draws have several sink
/// components — which is exactly what makes them useful as a *negative*
/// scenario family: they exercise the solvability analysis and the
/// harness's conditional oracles rather than the happy path.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> DiGraph {
    let mut g = DiGraph::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.random_bool(p) {
                g.add_edge(ProcessId::new(u as u32), ProcessId::new(v as u32));
            }
        }
    }
    g
}

/// Generates a scale-free knowledge graph by directed preferential
/// attachment.
///
/// Construction: the initial core is a complete digraph on `m + 1`
/// mutually-knowing processes; every later process joins knowing `m`
/// distinct earlier processes, drawn with probability proportional to
/// `in_degree + 1` (Barabási–Albert with add-one smoothing). Models the
/// "well-known bootstrap nodes" shape of open networks: a few hubs end up
/// known by almost everyone.
///
/// By construction the core is the unique sink component and every later
/// process reaches it, so the result is always 1-OSR; higher `k` is not
/// guaranteed.
///
/// # Panics
///
/// Panics if `m == 0` or `n < m + 1`.
pub fn scale_free<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> KnowledgeGraph {
    assert!(m >= 1, "scale_free needs m >= 1");
    assert!(n >= m + 1, "scale_free needs n >= m + 1");
    let mut g = DiGraph::new(n);
    for u in 0..=m {
        for v in 0..=m {
            if u != v {
                g.add_edge(ProcessId::new(u as u32), ProcessId::new(v as u32));
            }
        }
    }
    for v in (m + 1)..n {
        let mut chosen = ProcessSet::new();
        while chosen.len() < m {
            // Weighted draw over 0..v by in_degree + 1, via total-weight
            // inversion; v is small in practice so the scan is fine.
            let total: usize = (0..v)
                .map(|u| g.in_degree(ProcessId::new(u as u32)) + 1)
                .sum();
            let mut ticket = rng.random_range(0..total);
            for u in 0..v {
                let w = g.in_degree(ProcessId::new(u as u32)) + 1;
                if ticket < w {
                    chosen.insert(ProcessId::new(u as u32));
                    break;
                }
                ticket -= w;
            }
        }
        for u in chosen.iter() {
            g.add_edge(ProcessId::new(v as u32), u);
        }
    }
    debug_assert!(kosr::is_k_osr(&g, 1), "scale_free must be 1-OSR");
    KnowledgeGraph::from_graph(g)
}

/// Configuration for [`clustered`].
#[derive(Debug, Clone)]
pub struct ClusteredConfig {
    /// Number of clusters; cluster 0 is the core.
    pub clusters: usize,
    /// Processes per cluster.
    pub cluster_size: usize,
    /// Probability of each extra intra-cluster edge (beyond the cycle that
    /// keeps every cluster strongly connected).
    pub intra_extra_prob: f64,
    /// Knowledge edges from each non-core cluster into the core. With
    /// `bridges >= 1` the core is the unique sink; with `bridges == 0` and
    /// `inter_extra_prob == 0.0` the graph is fully partitioned into
    /// `clusters` sink components.
    pub bridges: usize,
    /// Probability of extra cross-cluster edges (from non-core clusters to
    /// any other cluster; the core never points outward).
    pub inter_extra_prob: f64,
}

impl ClusteredConfig {
    /// A configuration with the given shape and no extra randomness.
    pub fn new(clusters: usize, cluster_size: usize, bridges: usize) -> Self {
        ClusteredConfig {
            clusters,
            cluster_size,
            intra_extra_prob: 0.0,
            bridges,
            inter_extra_prob: 0.0,
        }
    }

    /// Sets the intra- and inter-cluster extra-edge probabilities.
    pub fn with_extra_edges(mut self, intra: f64, inter: f64) -> Self {
        self.intra_extra_prob = intra;
        self.inter_extra_prob = inter;
        self
    }

    /// Total number of processes.
    pub fn n(&self) -> usize {
        self.clusters * self.cluster_size
    }
}

/// Generates a clustered (community-structured) knowledge graph.
///
/// Each cluster is a directed cycle plus random intra-cluster edges, so
/// every cluster is strongly connected. Cluster 0 is the **core**: it has
/// no outgoing knowledge, and every other cluster sends `bridges` edges
/// into it (plus optional random cross-cluster edges). Consequences:
///
/// - `bridges >= 1`: the core is the unique sink component — a federated
///   "tiered" topology (Stellar's real deployment shape);
/// - `bridges == 0`, `inter_extra_prob == 0.0`: a fully partitioned
///   system with one sink per cluster — the pathological case the SINK
///   detector must *not* silently accept.
///
/// # Panics
///
/// Panics if `clusters == 0` or `cluster_size < 2`.
pub fn clustered<R: Rng + ?Sized>(config: &ClusteredConfig, rng: &mut R) -> KnowledgeGraph {
    assert!(config.clusters >= 1, "clustered needs at least one cluster");
    assert!(
        config.cluster_size >= 2,
        "clustered needs cluster_size >= 2 (intra-cluster cycle)"
    );
    let s = config.cluster_size;
    let n = config.n();
    let mut g = DiGraph::new(n);
    let member = |c: usize, j: usize| ProcessId::new((c * s + j) as u32);

    for c in 0..config.clusters {
        // Strongly connected skeleton.
        for j in 0..s {
            g.add_edge(member(c, j), member(c, (j + 1) % s));
        }
        // Extra intra-cluster knowledge.
        if config.intra_extra_prob > 0.0 {
            for j in 0..s {
                for l in 0..s {
                    if j != l
                        && !g.has_edge(member(c, j), member(c, l))
                        && rng.random_bool(config.intra_extra_prob)
                    {
                        g.add_edge(member(c, j), member(c, l));
                    }
                }
            }
        }
        if c == 0 {
            continue;
        }
        // Bridges into the core.
        let mut added = 0usize;
        while added < config.bridges && added < s * s {
            let from = member(c, rng.random_range(0..s as u32) as usize);
            let to = member(0, rng.random_range(0..s as u32) as usize);
            if g.add_edge(from, to) {
                added += 1;
            }
        }
        // Extra cross-cluster knowledge (never out of the core).
        if config.inter_extra_prob > 0.0 {
            for j in 0..s {
                for v in 0..n {
                    let target = ProcessId::new(v as u32);
                    let from = member(c, j);
                    if v / s != c
                        && from != target
                        && !g.has_edge(from, target)
                        && rng.random_bool(config.inter_extra_prob)
                    {
                        g.add_edge(from, target);
                    }
                }
            }
        }
    }
    KnowledgeGraph::from_graph(g)
}

/// Configuration for [`perturb_kosr`].
#[derive(Debug, Clone)]
pub struct PerturbConfig {
    /// The `k` whose `k`-OSR property must survive the perturbation.
    pub k: usize,
    /// Number of random edge additions to attempt.
    pub additions: usize,
    /// Number of random edge deletions to attempt (each deletion is
    /// validated with the full Definition-6 checker and reverted if it
    /// breaks `k`-OSR).
    pub deletions: usize,
}

/// Randomly perturbs a `k`-OSR knowledge graph while provably preserving
/// `k`-OSR, yielding scenario variety around a known-good topology (e.g.
/// the paper's Fig. 1 and Fig. 2).
///
/// Additions only draw from edges that cannot break `k`-OSR (sink members
/// only gain knowledge of other sink members; non-sink members may gain
/// knowledge of anyone) — the same closure property [`random_kosr`] uses.
/// Deletions are attempted on random existing edges and kept only if the
/// Definition-6 checker still accepts the graph *and* the sink component
/// is unchanged.
///
/// # Panics
///
/// Panics if `kg` is not `k`-OSR for `config.k` to begin with.
pub fn perturb_kosr<R: Rng + ?Sized>(
    kg: &KnowledgeGraph,
    config: &PerturbConfig,
    rng: &mut R,
) -> KnowledgeGraph {
    let mut g = kg.graph().clone();
    let k = config.k;
    assert!(
        kosr::is_k_osr(&g, k),
        "perturb_kosr input must already be {k}-OSR"
    );
    let sink = sink::unique_sink(&g).expect("k-OSR graphs have a unique sink");
    let n = g.vertex_count();

    for _ in 0..config.additions {
        let u = ProcessId::new(rng.random_range(0..n as u32));
        let v = ProcessId::new(rng.random_range(0..n as u32));
        if u == v || g.has_edge(u, v) {
            continue;
        }
        if sink.contains(u) && !sink.contains(v) {
            continue; // would give the sink an outgoing edge
        }
        g.add_edge(u, v);
    }

    for _ in 0..config.deletions {
        let all: Vec<(ProcessId, ProcessId)> = g.edges().collect();
        if all.is_empty() {
            break;
        }
        let (u, v) = all[rng.random_range(0..all.len())];
        g.remove_edge(u, v);
        // k-OSR alone is not enough: stripping a sink member's out-edges
        // can split it off into a smaller sink that still checks out
        // (singletons are vacuously k-strongly-connected). The sink set
        // itself must survive.
        if !kosr::is_k_osr(&g, k) || sink::unique_sink(&g).as_ref() != Some(&sink) {
            g.add_edge(u, v);
        }
    }

    debug_assert!(kosr::is_k_osr(&g, k));
    debug_assert_eq!(sink::unique_sink(&g), Some(sink));
    KnowledgeGraph::from_graph(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connectivity, sink};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fig1_matches_paper_pds() {
        let g = fig1();
        assert_eq!(g.n(), 8);
        // PD_1 = {2, 5} → pd(0) = {1, 4}.
        assert_eq!(*g.pd(ProcessId::new(0)), ProcessSet::from_ids([1, 4]));
        // PD_2 = {4} → pd(1) = {3}.
        assert_eq!(*g.pd(ProcessId::new(1)), ProcessSet::from_ids([3]));
        // PD_8 = {6, 7} → pd(7) = {5, 6}.
        assert_eq!(*g.pd(ProcessId::new(7)), ProcessSet::from_ids([5, 6]));
        // Sink is {5,6,7,8} → {4,5,6,7}.
        assert_eq!(
            sink::unique_sink(g.graph()),
            Some(ProcessSet::from_ids([4, 5, 6, 7]))
        );
    }

    #[test]
    fn fig2_matches_paper_pds() {
        let g = fig2();
        assert_eq!(g.n(), 7);
        assert_eq!(*g.pd(ProcessId::new(4)), ProcessSet::from_ids([0, 5, 6]));
        assert_eq!(
            sink::unique_sink(g.graph()),
            Some(ProcessSet::from_ids([0, 1, 2, 3]))
        );
        // Paper: "This graph represents a 3-OSR PD".
        assert!(kosr::is_k_osr(g.graph(), 3));
    }

    #[test]
    fn fig2_family_is_2_osr() {
        for (s, r) in [(3, 3), (4, 5), (5, 8)] {
            let g = fig2_family(s, r);
            assert!(
                kosr::is_k_osr(g.graph(), 2),
                "fig2_family({s}, {r}) must be 2-OSR"
            );
            assert_eq!(
                sink::unique_sink(g.graph()).unwrap().len(),
                s,
                "sink must be the complete core"
            );
        }
    }

    #[test]
    fn circulant_connectivity() {
        for (n, k) in [(5, 1), (7, 2), (9, 3)] {
            let g = circulant(n, k);
            assert_eq!(
                connectivity::strong_connectivity(&g, &g.vertex_set()),
                k,
                "C({n}; 1..={k})"
            );
        }
    }

    #[test]
    fn random_kosr_is_kosr_across_seeds() {
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = KosrConfig::new(7, 6, 2).with_extra_edges(0.2);
            let g = random_kosr(&config, &mut rng);
            assert!(kosr::is_k_osr(g.graph(), 2), "seed {seed}");
            assert_eq!(sink::unique_sink(g.graph()), Some(ProcessSet::full(7)));
        }
    }

    #[test]
    fn random_byzantine_safe_satisfies_theorem1() {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, faulty) = random_byzantine_safe(5, 4, 1, &mut rng);
            assert_eq!(faulty.len(), 1);
            assert_eq!(
                kosr::satisfies_theorem1(g.graph(), 1, &faulty),
                Ok(()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn helpers_shapes() {
        assert_eq!(complete(4).edge_count(), 12);
        assert_eq!(cycle(5).edge_count(), 5);
        assert_eq!(circulant(6, 2).edge_count(), 12);
    }

    #[test]
    #[should_panic(expected = "sink must have at least 3")]
    fn fig2_family_validates() {
        fig2_family(2, 5);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(11);
        let empty = erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(empty.vertex_count(), 10);
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(full.edge_count(), 90);
    }

    #[test]
    fn erdos_renyi_is_reproducible() {
        let a = erdos_renyi(20, 0.3, &mut StdRng::seed_from_u64(5));
        let b = erdos_renyi(20, 0.3, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        let c = erdos_renyi(20, 0.3, &mut StdRng::seed_from_u64(6));
        assert_ne!(a, c, "different seeds should give different graphs");
    }

    #[test]
    fn scale_free_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let kg = scale_free(30, 3, &mut rng);
        let g = kg.graph();
        assert_eq!(g.vertex_count(), 30);
        // Core of m + 1 = 4 complete; every later process has out-degree m.
        assert_eq!(
            sink::unique_sink(g),
            Some(ProcessSet::from_ids([0, 1, 2, 3]))
        );
        for v in 4..30u32 {
            assert_eq!(g.out_degree(ProcessId::new(v)), 3, "joiner {v}");
        }
        assert!(kosr::is_k_osr(g, 1));
    }

    #[test]
    fn scale_free_prefers_high_degree_targets() {
        // With strong preferential attachment, the core must collect far
        // more knowledge than the median joiner.
        let mut rng = StdRng::seed_from_u64(3);
        let kg = scale_free(120, 2, &mut rng);
        let g = kg.graph();
        let core_in: usize = (0..3u32).map(|v| g.in_degree(ProcessId::new(v))).sum();
        let tail_in: usize = (60..120u32).map(|v| g.in_degree(ProcessId::new(v))).sum();
        assert!(
            core_in > tail_in,
            "core in-degree {core_in} vs late-joiner total {tail_in}"
        );
    }

    #[test]
    fn clustered_with_bridges_has_core_sink() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = ClusteredConfig::new(4, 5, 2).with_extra_edges(0.3, 0.05);
        let kg = clustered(&config, &mut rng);
        assert_eq!(kg.n(), 20);
        assert_eq!(
            sink::unique_sink(kg.graph()),
            Some(ProcessSet::from_ids(0..5u32)),
            "core cluster must be the unique sink"
        );
    }

    #[test]
    fn clustered_without_bridges_is_partitioned() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = ClusteredConfig::new(3, 4, 0);
        let kg = clustered(&config, &mut rng);
        let sinks = sink::sink_components(kg.graph(), &kg.graph().vertex_set());
        assert_eq!(sinks.len(), 3, "each cluster is its own sink");
    }

    #[test]
    fn perturb_kosr_preserves_property_on_figures() {
        for (kg, k) in [(fig1(), 1), (fig2(), 3)] {
            let orig_sink = sink::unique_sink(kg.graph()).unwrap();
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let config = PerturbConfig {
                    k,
                    additions: 6,
                    deletions: 4,
                };
                let p = perturb_kosr(&kg, &config, &mut rng);
                assert!(kosr::is_k_osr(p.graph(), k), "k={k} seed={seed}");
                assert_eq!(
                    sink::unique_sink(p.graph()),
                    Some(orig_sink.clone()),
                    "perturbation must not move the sink"
                );
            }
        }
    }

    #[test]
    fn perturb_kosr_deletion_heavy_keeps_sink() {
        // Regression: deleting a sink member's out-edges one by one can
        // pass the bare k-OSR check (a shrunken sink is vacuously
        // k-strongly-connected), so the deletion loop must also pin the
        // sink set. Seed 0 with 12 deletions used to shrink Fig. 1's sink
        // to {5, 7}.
        let kg = fig1();
        let orig_sink = sink::unique_sink(kg.graph()).unwrap();
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = PerturbConfig {
                k: 1,
                additions: 0,
                deletions: 12,
            };
            let p = perturb_kosr(&kg, &config, &mut rng);
            assert_eq!(
                sink::unique_sink(p.graph()),
                Some(orig_sink.clone()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn perturb_kosr_actually_perturbs() {
        let kg = fig2();
        let mut rng = StdRng::seed_from_u64(9);
        let config = PerturbConfig {
            k: 3,
            // Attempts, not guaranteed insertions: most draws are rejected
            // on Fig. 2 (the sink is already complete), so use plenty.
            additions: 60,
            deletions: 0,
        };
        let p = perturb_kosr(&kg, &config, &mut rng);
        assert!(
            p.graph().edge_count() > kg.graph().edge_count(),
            "additions should land on a sparse graph"
        );
    }
}
