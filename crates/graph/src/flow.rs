//! Dinic max-flow and Menger-style vertex-disjoint path counting.
//!
//! The paper's connectivity requirements are all phrased in terms of
//! *node-disjoint paths* (Definition 6 conditions 3–4, Definition 9). By
//! Menger's theorem the maximum number of internally node-disjoint `s → t`
//! paths equals the max flow in the node-split unit-capacity network, which
//! is what [`max_vertex_disjoint_paths`] computes.

use std::collections::VecDeque;

use crate::{DiGraph, ProcessId, ProcessSet};

/// A max-flow network with integer capacities solved by Dinic's algorithm.
///
/// Exposed publicly so that other crates (e.g. the reachable-reliable
/// broadcast's path-disjointness accounting) can build bespoke networks.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    // Edge lists: to[e], cap[e]; reverse edge is e ^ 1.
    to: Vec<u32>,
    cap: Vec<i64>,
    head: Vec<Vec<u32>>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); n],
        }
    }

    /// Adds a directed edge `u → v` with capacity `cap` (and the implicit
    /// residual reverse edge with capacity 0).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64) {
        assert!(
            u < self.head.len() && v < self.head.len(),
            "flow edge out of range"
        );
        let e = self.to.len() as u32;
        self.to.push(v as u32);
        self.cap.push(cap);
        self.to.push(u as u32);
        self.cap.push(0);
        self.head[u].push(e);
        self.head[v].push(e + 1);
    }

    /// Computes the max flow from `s` to `t`, consuming the capacities.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        assert!(
            s < self.head.len() && t < self.head.len(),
            "terminal out of range"
        );
        assert_ne!(s, t, "max_flow requires distinct terminals");
        let n = self.head.len();
        let mut flow = 0i64;
        let mut level = vec![-1i32; n];
        let mut it = vec![0usize; n];

        loop {
            // BFS level graph.
            level.iter_mut().for_each(|l| *l = -1);
            level[s] = 0;
            let mut q = VecDeque::from([s]);
            while let Some(u) = q.pop_front() {
                for &e in &self.head[u] {
                    let v = self.to[e as usize] as usize;
                    if self.cap[e as usize] > 0 && level[v] < 0 {
                        level[v] = level[u] + 1;
                        q.push_back(v);
                    }
                }
            }
            if level[t] < 0 {
                return flow;
            }
            it.iter_mut().for_each(|i| *i = 0);
            // Iterative DFS blocking flow.
            loop {
                let pushed = self.dfs_push(s, t, i64::MAX, &level, &mut it);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
    }

    fn dfs_push(&mut self, u: usize, t: usize, limit: i64, level: &[i32], it: &mut [usize]) -> i64 {
        if u == t {
            return limit;
        }
        while it[u] < self.head[u].len() {
            let e = self.head[u][it[u]] as usize;
            let v = self.to[e] as usize;
            if self.cap[e] > 0 && level[v] == level[u] + 1 {
                let pushed = self.dfs_push(v, t, limit.min(self.cap[e]), level, it);
                if pushed > 0 {
                    self.cap[e] -= pushed;
                    self.cap[e ^ 1] += pushed;
                    return pushed;
                }
            }
            it[u] += 1;
        }
        0
    }
}

/// Maximum number of internally node-disjoint directed paths `s → t` in `g`,
/// restricted to vertices in `within`.
///
/// Paths may share only their endpoints; a direct edge `s → t` counts as one
/// path. Returns `0` if either endpoint is outside `within`.
///
/// # Panics
///
/// Panics if `s == t`.
pub fn max_vertex_disjoint_paths(
    g: &DiGraph,
    s: ProcessId,
    t: ProcessId,
    within: &ProcessSet,
) -> usize {
    assert_ne!(s, t, "disjoint paths require distinct endpoints");
    if !within.contains(s) || !within.contains(t) {
        return 0;
    }
    let n = g.vertex_count();
    // Node splitting: v_in = 2v, v_out = 2v + 1.
    let mut net = FlowNetwork::new(2 * n);
    let big = n as i64 + 1;
    for v in within {
        let capv = if v == s || v == t { big } else { 1 };
        net.add_edge(2 * v.index(), 2 * v.index() + 1, capv);
    }
    for u in within {
        for v in &g.successors(u).intersection(within) {
            net.add_edge(2 * u.index() + 1, 2 * v.index(), 1);
        }
    }
    net.max_flow(2 * s.index() + 1, 2 * t.index()) as usize
}

/// "Are there at least `k` internally node-disjoint `s → t` paths?" for many
/// pairs over one graph and one vertex restriction — the shape of the
/// `k`-OSR and `k`-strong-connectivity checks, which ask it O(n²) times.
///
/// The node-split unit-capacity network is built once, in compressed
/// adjacency form. One network serves every pair: a query runs from
/// `s_out` to `t_in`, and flow through either endpoint's own split edge
/// can only be part of a cycle through that endpoint, which adds nothing
/// to the flow value — so the endpoints need no per-pair capacities. A
/// query restores the capacities with one slice copy and stops after `k`
/// augmenting paths.
///
/// [`max_vertex_disjoint_paths`] stays the reference implementation.
#[derive(Debug, Clone)]
pub struct SplitNetwork {
    within: ProcessSet,
    /// Edges leaving node `u` are `first[u]..first[u + 1]`; `v_in = 2v`,
    /// `v_out = 2v + 1`.
    first: Vec<u32>,
    to: Vec<u32>,
    /// The paired residual edge of each edge.
    rev: Vec<u32>,
    /// Capacities before any flow: 1 on split and graph edges, 0 on
    /// their residual twins.
    untouched: Vec<u8>,
    cap: Vec<u8>,
    /// Search scratch: the edge each node was reached by, and the BFS
    /// queue.
    via: Vec<u32>,
    queue: Vec<u32>,
}

/// "Not reached" in [`SplitNetwork::via`]; the search root carries its own
/// marker so it is never re-entered.
const UNREACHED: u32 = u32::MAX;
const ROOT: u32 = u32::MAX - 1;

impl SplitNetwork {
    /// Builds the network of `g` restricted to the vertices in `within`.
    pub fn new(g: &DiGraph, within: &ProcessSet) -> Self {
        let nodes = 2 * g.vertex_count();
        let mut forward: Vec<(usize, usize)> = Vec::new();
        for v in within {
            forward.push((2 * v.index(), 2 * v.index() + 1));
        }
        for u in within {
            for v in g.successors(u).iter().filter(|&v| within.contains(v)) {
                forward.push((2 * u.index() + 1, 2 * v.index()));
            }
        }
        let mut first = vec![0u32; nodes + 1];
        for &(a, b) in &forward {
            first[a + 1] += 1;
            first[b + 1] += 1;
        }
        for u in 0..nodes {
            first[u + 1] += first[u];
        }
        let edges = 2 * forward.len();
        let mut to = vec![0u32; edges];
        let mut rev = vec![0u32; edges];
        let mut untouched = vec![0u8; edges];
        let mut cursor = first.clone();
        for &(a, b) in &forward {
            let e = cursor[a] as usize;
            let r = cursor[b] as usize;
            cursor[a] += 1;
            cursor[b] += 1;
            (to[e], rev[e], untouched[e]) = (b as u32, r as u32, 1);
            (to[r], rev[r]) = (a as u32, e as u32);
        }
        SplitNetwork {
            within: within.clone(),
            first,
            to,
            rev,
            cap: untouched.clone(),
            untouched,
            via: vec![UNREACHED; nodes],
            queue: Vec::with_capacity(nodes),
        }
    }

    /// `true` iff at least `k` internally node-disjoint directed paths lead
    /// from `s` to `t` — the same answer as
    /// `max_vertex_disjoint_paths(g, s, t, within) >= k`, at the cost of at
    /// most `k` path searches.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`.
    pub fn has_k_disjoint_paths(&mut self, s: ProcessId, t: ProcessId, k: usize) -> bool {
        assert_ne!(s, t, "disjoint paths require distinct endpoints");
        if k == 0 {
            return true;
        }
        if !self.within.contains(s) || !self.within.contains(t) {
            return false;
        }
        self.cap.copy_from_slice(&self.untouched);
        let (source, sink) = (2 * s.index() + 1, 2 * t.index());
        (0..k).all(|_| self.augment(source, sink))
    }

    /// Finds one residual `source → sink` path by BFS and pushes a unit of
    /// flow along it; `false` when the sink is unreachable.
    fn augment(&mut self, source: usize, sink: usize) -> bool {
        self.via.fill(UNREACHED);
        self.via[source] = ROOT;
        self.queue.clear();
        self.queue.push(source as u32);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            for e in self.first[u]..self.first[u + 1] {
                let v = self.to[e as usize] as usize;
                if self.cap[e as usize] == 0 || self.via[v] != UNREACHED {
                    continue;
                }
                self.via[v] = e;
                if v == sink {
                    let mut at = sink;
                    while at != source {
                        let e = self.via[at] as usize;
                        let r = self.rev[e] as usize;
                        self.cap[e] -= 1;
                        self.cap[r] += 1;
                        at = self.to[r] as usize;
                    }
                    return true;
                }
                self.queue.push(v as u32);
            }
        }
        false
    }
}

/// Like [`max_vertex_disjoint_paths`], but stops once `k` paths are known
/// to exist: `k` path searches instead of a full max flow. Builds a
/// [`SplitNetwork`] for the one query; callers asking about many pairs of
/// the same `(g, within)` should build it once themselves.
pub fn has_k_vertex_disjoint_paths(
    g: &DiGraph,
    s: ProcessId,
    t: ProcessId,
    k: usize,
    within: &ProcessSet,
) -> bool {
    SplitNetwork::new(g, within).has_k_disjoint_paths(s, t, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn single_path() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        assert_eq!(
            max_vertex_disjoint_paths(&g, p(0), p(2), &g.vertex_set()),
            1
        );
    }

    #[test]
    fn two_disjoint_paths() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3.
        let g = DiGraph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        assert_eq!(
            max_vertex_disjoint_paths(&g, p(0), p(3), &g.vertex_set()),
            2
        );
    }

    #[test]
    fn shared_internal_vertex_limits_to_one() {
        // Two edge-disjoint paths that share vertex 2: only 1 node-disjoint.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4)]);
        assert_eq!(
            max_vertex_disjoint_paths(&g, p(0), p(4), &g.vertex_set()),
            1
        );
    }

    #[test]
    fn direct_edge_counts_as_a_path() {
        // Direct 0 -> 2 plus 0 -> 1 -> 2 = 2 internally disjoint paths.
        let g = DiGraph::from_edges(3, [(0, 2), (0, 1), (1, 2)]);
        assert_eq!(
            max_vertex_disjoint_paths(&g, p(0), p(2), &g.vertex_set()),
            2
        );
    }

    #[test]
    fn complete_graph_has_n_minus_one_paths() {
        let n = 6u32;
        let mut g = DiGraph::new(n as usize);
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    g.add_edge(p(u), p(v));
                }
            }
        }
        assert_eq!(
            max_vertex_disjoint_paths(&g, p(0), p(5), &g.vertex_set()),
            n as usize - 1
        );
    }

    #[test]
    fn mask_restricts_paths() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        let within = ProcessSet::from_ids([0, 1, 3]);
        assert_eq!(max_vertex_disjoint_paths(&g, p(0), p(3), &within), 1);
        // Endpoint outside the mask.
        assert_eq!(
            max_vertex_disjoint_paths(&g, p(0), p(3), &ProcessSet::from_ids([0, 1])),
            0
        );
    }

    #[test]
    fn no_path_is_zero() {
        let g = DiGraph::from_edges(3, [(1, 0), (2, 1)]);
        assert_eq!(
            max_vertex_disjoint_paths(&g, p(0), p(2), &g.vertex_set()),
            0
        );
    }

    #[test]
    fn threshold_variant_agrees() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        let w = g.vertex_set();
        assert!(has_k_vertex_disjoint_paths(&g, p(0), p(3), 2, &w));
        assert!(!has_k_vertex_disjoint_paths(&g, p(0), p(3), 3, &w));
    }

    #[test]
    fn raw_network_max_flow() {
        // Classic 4-node diamond with bottleneck.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 3);
        net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn same_endpoints_panic() {
        let g = DiGraph::new(2);
        max_vertex_disjoint_paths(&g, p(0), p(0), &g.vertex_set());
    }
}
