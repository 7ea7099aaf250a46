//! `k`-One-Sink-Reducibility (Definition 6) and safe Byzantine failure
//! patterns (Definition 7).
//!
//! A participant detector belongs to the `k`-OSR class iff its knowledge
//! connectivity graph `G_di` satisfies:
//!
//! 1. the undirected graph obtained from `G_di` is connected;
//! 2. the condensation of `G_di` has exactly one sink component `G_sink`;
//! 3. `G_sink` is `k`-strongly connected;
//! 4. for every non-sink `i` and sink `j`, there are at least `k`
//!    node-disjoint paths from `i` to `j` in `G_di`.
//!
//! Definition 7 then calls `G_di` **Byzantine-safe for `F`** when
//! `F ⊂ G_di`, `|F| ≤ f`, and `G_di \ F` is `(f+1)`-OSR. Theorem 1 adds the
//! BFT-CUP solvability condition that the sink contains at least `2f + 1`
//! correct processes.

use crate::{connectivity, flow, scc, DiGraph, ProcessSet};

/// Detailed outcome of a `k`-OSR check, exposing which of the four
/// conditions hold and the computed witnesses.
#[derive(Debug, Clone)]
pub struct KosrReport {
    /// Condition 1: the undirected version of the graph is connected.
    pub undirected_connected: bool,
    /// All sink components of the condensation (condition 2 requires
    /// exactly one).
    pub sinks: Vec<ProcessSet>,
    /// Condition 3: the unique sink is `k`-strongly connected
    /// (`false` when there is no unique sink).
    pub sink_k_connected: bool,
    /// Condition 4: every non-sink member has `k` node-disjoint paths to
    /// every sink member (`false` when there is no unique sink).
    pub nonsink_paths_ok: bool,
    /// The `k` that was checked.
    pub k: usize,
}

impl KosrReport {
    /// `true` iff all four conditions of Definition 6 hold.
    pub fn is_k_osr(&self) -> bool {
        self.undirected_connected
            && self.sinks.len() == 1
            && self.sink_k_connected
            && self.nonsink_paths_ok
    }

    /// The unique sink component, if condition 2 holds.
    pub fn unique_sink(&self) -> Option<&ProcessSet> {
        match self.sinks.as_slice() {
            [s] => Some(s),
            _ => None,
        }
    }
}

/// Checks all four conditions of Definition 6 for `g` restricted to
/// `within`, returning a detailed report.
pub fn check_kosr_within(g: &DiGraph, k: usize, within: &ProcessSet) -> KosrReport {
    let undirected_connected = connectivity::is_undirected_connected(g, within);
    let d = scc::decompose(g, within);
    let sinks: Vec<ProcessSet> = d
        .sink_components()
        .into_iter()
        .map(|c| d.component(c).clone())
        .collect();

    let (sink_k_connected, nonsink_paths_ok) = match sinks.as_slice() {
        [sink] => {
            let k_conn = connectivity::is_k_strongly_connected(g, k, sink);
            let nonsink = within.difference(sink);
            let mut net = flow::SplitNetwork::new(g, within);
            let mut paths_ok = true;
            'outer: for i in &nonsink {
                for j in sink {
                    if !net.has_k_disjoint_paths(i, j, k) {
                        paths_ok = false;
                        break 'outer;
                    }
                }
            }
            (k_conn, paths_ok)
        }
        _ => (false, false),
    };

    KosrReport {
        undirected_connected,
        sinks,
        sink_k_connected,
        nonsink_paths_ok,
        k,
    }
}

/// Checks Definition 6 on the full graph.
pub fn check_kosr(g: &DiGraph, k: usize) -> KosrReport {
    check_kosr_within(g, k, &g.vertex_set())
}

/// Returns `true` iff `g` is `k`-OSR (Definition 6).
pub fn is_k_osr(g: &DiGraph, k: usize) -> bool {
    check_kosr(g, k).is_k_osr()
}

/// Definition 7: returns `true` iff `g` is Byzantine-safe for the concrete
/// failure set `faulty` with threshold `f`, i.e. `|faulty| ≤ f`, `faulty` is
/// a strict subset of the vertices, and `g \ faulty` is `(f+1)`-OSR.
pub fn is_byzantine_safe(g: &DiGraph, f: usize, faulty: &ProcessSet) -> bool {
    if faulty.len() > f {
        return false;
    }
    let all = g.vertex_set();
    if !faulty.is_subset(&all) || faulty == &all {
        return false;
    }
    let correct = all.difference(faulty);
    check_kosr_within(g, f + 1, &correct).is_k_osr()
}

/// Theorem 1's solvability premise: `g` is Byzantine-safe for `faulty`
/// *and* the sink component of `g` contains at least `2f + 1` correct
/// processes.
pub fn satisfies_theorem1(g: &DiGraph, f: usize, faulty: &ProcessSet) -> bool {
    if !is_byzantine_safe(g, f, faulty) {
        return false;
    }
    match crate::sink::unique_sink(g) {
        Some(sink) => sink.difference(faulty).len() >= 2 * f + 1,
        None => false,
    }
}

/// Exhaustively checks [`is_byzantine_safe`] for **every** failure set of
/// size at most `f` drawn from `candidates`. Exponential in `f`; intended
/// for small verification instances and tests.
pub fn is_byzantine_safe_for_all(g: &DiGraph, f: usize, candidates: &ProcessSet) -> bool {
    let ids = candidates.to_vec();
    let mut chosen = ProcessSet::new();
    fn rec(
        g: &DiGraph,
        f: usize,
        ids: &[crate::ProcessId],
        start: usize,
        left: usize,
        chosen: &mut ProcessSet,
    ) -> bool {
        if !crate::kosr::is_byzantine_safe(g, f, chosen) {
            return false;
        }
        if left == 0 {
            return true;
        }
        for idx in start..ids.len() {
            chosen.insert(ids[idx]);
            let ok = rec(g, f, ids, idx + 1, left - 1, chosen);
            chosen.remove(ids[idx]);
            if !ok {
                return false;
            }
        }
        true
    }
    rec(g, f, &ids, 0, f, &mut chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn fig2_is_3_osr() {
        // The paper states Fig. 2 satisfies the 3-OSR PD definition with
        // sink {1,2,3,4} (0-based {0,1,2,3}).
        let g = generators::fig2();
        let report = check_kosr(g.graph(), 3);
        assert!(report.undirected_connected);
        assert_eq!(
            report.unique_sink().cloned(),
            Some(ProcessSet::from_ids([0, 1, 2, 3]))
        );
        assert!(report.sink_k_connected, "sink K4 is 3-strongly-connected");
        assert!(report.nonsink_paths_ok);
        assert!(report.is_k_osr());
    }

    #[test]
    fn fig1_is_1_osr_but_not_2_osr() {
        // Fig. 1 is the paper's *illustrative* knowledge graph (its slices
        // are hand-crafted in Section III-D); it is 1-OSR, but paper process
        // 2 has PD_2 = {4}, a single outgoing edge, so it is not 2-OSR.
        let g = generators::fig1();
        assert!(is_k_osr(g.graph(), 1));
        assert!(
            !is_k_osr(g.graph(), 2),
            "PD_2 = {{4}} gives only one path out of paper's p2"
        );
    }

    #[test]
    fn fig1_is_not_byzantine_safe() {
        // Consequently Fig. 1 does not satisfy Definition 7 for f = 1: that
        // would need G \ F to be 2-OSR for F = {8} (0-based {7}).
        let g = generators::fig1();
        let f8 = ProcessSet::from_ids([7]);
        assert!(!is_byzantine_safe(g.graph(), 1, &f8));
        assert!(!satisfies_theorem1(g.graph(), 1, &f8));
    }

    #[test]
    fn fig2_satisfies_theorem1_for_every_single_fault() {
        // Fig. 2 is 3-OSR with a 4-member sink, so for f = 1 every single
        // faulty process leaves a 2-OSR graph with ≥ 3 correct sink members.
        let g = generators::fig2();
        for v in g.graph().vertices() {
            let faulty = ProcessSet::singleton(v);
            assert!(
                satisfies_theorem1(g.graph(), 1, &faulty),
                "faulty = {faulty}"
            );
        }
    }

    #[test]
    fn disconnected_graph_fails_condition_1() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        let report = check_kosr(&g, 1);
        assert!(!report.undirected_connected);
        assert!(!report.is_k_osr());
    }

    #[test]
    fn two_sinks_fail_condition_2() {
        // 0 -> {1<->2}, 0 -> {3<->4}: two sinks.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 1), (0, 3), (3, 4), (4, 3)]);
        let report = check_kosr(&g, 1);
        assert!(report.undirected_connected);
        assert_eq!(report.sinks.len(), 2);
        assert!(!report.is_k_osr());
    }

    #[test]
    fn weak_sink_fails_condition_3() {
        // Sink is a 4-cycle: only 1-strongly-connected; ask for 2.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)]);
        let report = check_kosr(&g, 2);
        assert_eq!(report.sinks.len(), 1);
        assert!(!report.sink_k_connected);
        assert!(!report.is_k_osr());
        assert!(is_k_osr(&g, 1));
    }

    #[test]
    fn missing_paths_fail_condition_4() {
        // Sink {1,2,3} complete (2-strongly-connected); 0 has a single edge
        // into the sink, so only 1 disjoint path with k = 2.
        let g = DiGraph::from_edges(4, [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (0, 1)]);
        let report = check_kosr(&g, 2);
        assert!(report.sink_k_connected);
        assert!(!report.nonsink_paths_ok);
        assert!(!report.is_k_osr());
    }

    #[test]
    fn byzantine_safe_rejects_oversized_f() {
        let g = generators::fig1();
        assert!(!is_byzantine_safe(
            g.graph(),
            1,
            &ProcessSet::from_ids([6, 7])
        ));
    }

    #[test]
    fn exhaustive_check_on_fig2() {
        // Fig. 2 is 3-OSR; with f = 1 it must be Byzantine-safe for every
        // single faulty process (the paper argues "whether the faulty
        // process is a sink member or not").
        let g = generators::fig2();
        assert!(is_byzantine_safe_for_all(
            g.graph(),
            1,
            &g.graph().vertex_set()
        ));
    }
}
