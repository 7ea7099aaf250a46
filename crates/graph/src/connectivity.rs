//! Connectivity predicates: undirected connectivity, strong connectivity,
//! and `k`-strong-connectivity.
//!
//! Footnote 1 of the paper: *a graph `G` is `k`-strongly connected if, for
//! any pair `(i, j)` of nodes in `G`, `i` can reach `j` through at least `k`
//! node-disjoint paths in `G`*.

use crate::{flow, scc, traversal, DiGraph, ProcessSet};

/// Returns `true` if the undirected graph obtained from `g` (restricted to
/// `within`) is connected. The empty graph is considered connected.
pub fn is_undirected_connected(g: &DiGraph, within: &ProcessSet) -> bool {
    match within.first() {
        None => true,
        Some(start) => traversal::undirected_reachable_set(g, start, within) == *within,
    }
}

/// Returns `true` if `g` restricted to `within` is strongly connected.
/// The empty graph is considered strongly connected.
pub fn is_strongly_connected(g: &DiGraph, within: &ProcessSet) -> bool {
    within.is_empty() || scc::decompose(g, within).is_strongly_connected()
}

/// Returns `true` if `g` restricted to `within` is `k`-strongly connected:
/// every ordered pair of distinct vertices is joined by at least `k`
/// internally node-disjoint paths (footnote 1).
///
/// Note that a complete digraph on `s` vertices is exactly
/// `(s-1)`-strongly connected under this definition, so `within` must have
/// more than `k` vertices for the predicate to hold (unless it has ≤ 1
/// vertex, which holds vacuously).
pub fn is_k_strongly_connected(g: &DiGraph, k: usize, within: &ProcessSet) -> bool {
    if k == 0 {
        return true;
    }
    let n = within.len();
    if n <= 1 {
        return true;
    }
    if n <= k {
        // At most n - 1 internally disjoint paths can exist between a pair.
        return false;
    }
    if !is_strongly_connected(g, within) {
        return false;
    }
    let verts = within.to_vec();
    let mut net = flow::SplitNetwork::new(g, within);
    for &s in &verts {
        for &t in &verts {
            if s != t && !net.has_k_disjoint_paths(s, t, k) {
                return false;
            }
        }
    }
    true
}

/// Returns the strong connectivity of `g` restricted to `within`: the
/// largest `k ≤ |within| - 1` such that the graph is `k`-strongly connected
/// (`0` if not strongly connected, or if fewer than two vertices exist and
/// no pair constrains the value).
pub fn strong_connectivity(g: &DiGraph, within: &ProcessSet) -> usize {
    let n = within.len();
    if n <= 1 {
        return 0;
    }
    if !is_strongly_connected(g, within) {
        return 0;
    }
    let verts = within.to_vec();
    let mut k = usize::MAX;
    for &s in &verts {
        for &t in &verts {
            if s != t {
                k = k.min(flow::max_vertex_disjoint_paths(g, s, t, within));
                if k == 0 {
                    return 0;
                }
            }
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessId;

    fn complete(n: u32) -> DiGraph {
        let mut g = DiGraph::new(n as usize);
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    g.add_edge(ProcessId::new(u), ProcessId::new(v));
                }
            }
        }
        g
    }

    fn cycle(n: u32) -> DiGraph {
        DiGraph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn undirected_connectivity() {
        let g = DiGraph::from_edges(4, [(0, 1), (2, 1), (3, 2)]);
        assert!(is_undirected_connected(&g, &g.vertex_set()));
        let g2 = DiGraph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(!is_undirected_connected(&g2, &g2.vertex_set()));
        assert!(is_undirected_connected(&g2, &ProcessSet::from_ids([0, 1])));
        assert!(is_undirected_connected(&g2, &ProcessSet::new()));
    }

    #[test]
    fn strong_connectivity_of_cycle_is_one() {
        let g = cycle(5);
        assert!(is_strongly_connected(&g, &g.vertex_set()));
        assert!(is_k_strongly_connected(&g, 1, &g.vertex_set()));
        assert!(!is_k_strongly_connected(&g, 2, &g.vertex_set()));
        assert_eq!(strong_connectivity(&g, &g.vertex_set()), 1);
    }

    #[test]
    fn complete_graph_connectivity() {
        let g = complete(5);
        let w = g.vertex_set();
        assert_eq!(strong_connectivity(&g, &w), 4);
        assert!(is_k_strongly_connected(&g, 4, &w));
        assert!(!is_k_strongly_connected(&g, 5, &w));
    }

    #[test]
    fn k_zero_always_holds() {
        let g = DiGraph::new(3);
        assert!(is_k_strongly_connected(&g, 0, &g.vertex_set()));
    }

    #[test]
    fn small_masks() {
        let g = complete(4);
        // Pair {0,1}: n = 2 <= k = 2 → false; k = 1 → true.
        let w = ProcessSet::from_ids([0, 1]);
        assert!(is_k_strongly_connected(&g, 1, &w));
        assert!(!is_k_strongly_connected(&g, 2, &w));
        // Singleton and empty are vacuously k-connected.
        assert!(is_k_strongly_connected(&g, 3, &ProcessSet::from_ids([2])));
        assert!(is_k_strongly_connected(&g, 3, &ProcessSet::new()));
    }

    #[test]
    fn non_strongly_connected_graph() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        assert!(!is_strongly_connected(&g, &g.vertex_set()));
        assert_eq!(strong_connectivity(&g, &g.vertex_set()), 0);
    }

    #[test]
    fn circulant_has_expected_connectivity() {
        // Circulant C(7; 1, 2): i -> i+1, i+2 — 2-strongly-connected.
        let n = 7u32;
        let mut g = DiGraph::new(n as usize);
        for i in 0..n {
            g.add_edge(ProcessId::new(i), ProcessId::new((i + 1) % n));
            g.add_edge(ProcessId::new(i), ProcessId::new((i + 2) % n));
        }
        assert_eq!(strong_connectivity(&g, &g.vertex_set()), 2);
    }
}
