//! `k`-One-Sink-Reducibility (Definition 6), safe Byzantine failure
//! patterns (Definition 7) and the premise of the paper's positive theorems.
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
//!
//! [`satisfies_theorem1`] is the one judge of that premise: the campaign
//! oracle, the explorer and `stellar_cup::report::verify_network` all call
//! it, and a failure names its clause ([`PremiseFailure`]).
//! [`satisfies_theorem1_for_all`] is the same judge over every fault set.

use std::fmt;

use crate::{connectivity, flow, scc, sink, DiGraph, ProcessId, ProcessSet};

/// The clause of Definition 6, Definition 7 or Theorem 1 that fails. It
/// carries numbers only: the judge runs on every sampled run, so text is
/// built in `Display`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PremiseFailure {
    /// Definition 7: more than `f` processes are faulty.
    TooManyFaulty {
        /// `|F|`.
        faulty: usize,
        /// The fault threshold.
        f: usize,
    },
    /// Definition 7: `F` is not a proper subset of the processes — it is
    /// every process, or names one outside the graph.
    NoCorrectProcess,
    /// Definition 6 condition 1: the undirected graph is disconnected.
    Disconnected,
    /// Definition 6 condition 2: the condensation has no unique sink.
    NoUniqueSink,
    /// Definition 6 condition 3: the sink is not `k`-strongly connected.
    WeakSink {
        /// The connectivity asked for.
        k: usize,
    },
    /// Definition 6 condition 4: some non-sink process has fewer than `k`
    /// node-disjoint paths to some sink member.
    TooFewPaths {
        /// The path count asked for.
        k: usize,
    },
    /// Theorem 1: the sink keeps fewer than `2f + 1` correct members.
    SinkMargin {
        /// Correct sink members.
        correct: usize,
        /// `2f + 1`.
        needed: usize,
    },
}

impl fmt::Display for PremiseFailure {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PremiseFailure::TooManyFaulty { faulty, f } => {
                write!(out, "{faulty} faulty processes exceed f = {f} (Def. 7)")
            }
            PremiseFailure::NoCorrectProcess => {
                write!(out, "F is not a proper subset of the processes (Def. 7)")
            }
            PremiseFailure::Disconnected => {
                write!(out, "the undirected graph is disconnected (Def. 6 cond. 1)")
            }
            PremiseFailure::NoUniqueSink => {
                write!(out, "no unique sink component (Def. 6 cond. 2)")
            }
            PremiseFailure::WeakSink { k } => {
                write!(
                    out,
                    "the sink is not {k}-strongly connected (Def. 6 cond. 3)"
                )
            }
            PremiseFailure::TooFewPaths { k } => write!(
                out,
                "a non-sink process lacks {k} node-disjoint paths to the sink (Def. 6 cond. 4)"
            ),
            PremiseFailure::SinkMargin { correct, needed } => write!(
                out,
                "the sink keeps {correct} correct members; {needed} needed (Thm 1)"
            ),
        }
    }
}

/// Checks the four conditions of Definition 6, in order, for `g`
/// restricted to `within`: the unique sink, or the first condition that
/// fails.
pub fn check_kosr_within(
    g: &DiGraph,
    k: usize,
    within: &ProcessSet,
) -> Result<ProcessSet, PremiseFailure> {
    if !connectivity::is_undirected_connected(g, within) {
        return Err(PremiseFailure::Disconnected);
    }
    let sink = scc::decompose(g, within)
        .unique_sink()
        .cloned()
        .ok_or(PremiseFailure::NoUniqueSink)?;
    if !connectivity::is_k_strongly_connected(g, k, &sink) {
        return Err(PremiseFailure::WeakSink { k });
    }
    let mut net = flow::SplitNetwork::new(g, within);
    for i in &within.difference(&sink) {
        if !sink.iter().all(|j| net.has_k_disjoint_paths(i, j, k)) {
            return Err(PremiseFailure::TooFewPaths { k });
        }
    }
    Ok(sink)
}

/// Checks Definition 6 on the full graph.
pub fn check_kosr(g: &DiGraph, k: usize) -> Result<ProcessSet, PremiseFailure> {
    check_kosr_within(g, k, &g.vertex_set())
}

/// Returns `true` iff `g` is `k`-OSR (Definition 6).
pub fn is_k_osr(g: &DiGraph, k: usize) -> bool {
    check_kosr(g, k).is_ok()
}

/// The premise of Theorems 1 and 5 for the concrete faulty set `faulty`:
/// `g` is Byzantine-safe for it (Definition 7: `|faulty| ≤ f`, `faulty` a
/// proper subset of the processes, `g \ faulty` `(f+1)`-OSR) and the unique
/// sink of `g` keeps at least `2f + 1` correct members. The cheap clauses
/// are judged first; an error names the first one that fails.
pub fn satisfies_theorem1(
    g: &DiGraph,
    f: usize,
    faulty: &ProcessSet,
) -> Result<(), PremiseFailure> {
    if faulty.len() > f {
        return Err(PremiseFailure::TooManyFaulty {
            faulty: faulty.len(),
            f,
        });
    }
    let all = g.vertex_set();
    if !faulty.is_subset(&all) || faulty == &all {
        return Err(PremiseFailure::NoCorrectProcess);
    }
    let correct = all.difference(faulty);
    let v_sink = sink::unique_sink(g).ok_or(PremiseFailure::NoUniqueSink)?;
    let kept = v_sink.intersection_len(&correct);
    if kept < 2 * f + 1 {
        return Err(PremiseFailure::SinkMargin {
            correct: kept,
            needed: 2 * f + 1,
        });
    }
    check_kosr_within(g, f + 1, &correct).map(drop)
}

/// [`satisfies_theorem1`] for **every** faulty set of at most `f`
/// processes, enumerated depth-first in ascending id order; an error is the
/// first failing set and its clause. Exponential in `f`; intended for
/// verification instances and tests.
pub fn satisfies_theorem1_for_all(
    g: &DiGraph,
    f: usize,
) -> Result<(), (ProcessSet, PremiseFailure)> {
    fn rec(
        g: &DiGraph,
        f: usize,
        ids: &[ProcessId],
        chosen: &mut ProcessSet,
    ) -> Result<(), (ProcessSet, PremiseFailure)> {
        satisfies_theorem1(g, f, chosen).map_err(|clause| (chosen.clone(), clause))?;
        if chosen.len() == f {
            return Ok(());
        }
        for (idx, &v) in ids.iter().enumerate() {
            chosen.insert(v);
            let verdict = rec(g, f, &ids[idx + 1..], chosen);
            chosen.remove(v);
            verdict?;
        }
        Ok(())
    }
    rec(g, f, &g.vertex_set().to_vec(), &mut ProcessSet::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    use PremiseFailure::*;

    /// A complete sink `{0, 1, 2, 3}` (3-strongly connected).
    fn k4_edges() -> Vec<(u32, u32)> {
        (0..4u32)
            .flat_map(|u| (0..4u32).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect()
    }

    #[test]
    fn fig2_is_3_osr() {
        // The paper states Fig. 2 satisfies the 3-OSR PD definition with
        // sink {1,2,3,4} (0-based {0,1,2,3}).
        let g = generators::fig2();
        assert_eq!(
            check_kosr(g.graph(), 3),
            Ok(ProcessSet::from_ids([0, 1, 2, 3]))
        );
        assert_eq!(check_kosr(g.graph(), 4), Err(WeakSink { k: 4 }));
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
        assert!(matches!(
            satisfies_theorem1(g.graph(), 1, &f8),
            Err(Disconnected | NoUniqueSink | WeakSink { k: 2 } | TooFewPaths { k: 2 })
        ));
        assert!(satisfies_theorem1_for_all(g.graph(), 1).is_err());
    }

    #[test]
    fn fig2_satisfies_theorem1_for_every_single_fault() {
        // Fig. 2 is 3-OSR with a 4-member sink, so for f = 1 every single
        // faulty process leaves a 2-OSR graph with ≥ 3 correct sink members.
        let g = generators::fig2();
        for v in g.graph().vertices() {
            let faulty = ProcessSet::singleton(v);
            assert_eq!(
                satisfies_theorem1(g.graph(), 1, &faulty),
                Ok(()),
                "faulty = {faulty}"
            );
        }
    }

    #[test]
    fn disconnected_graph_fails_condition_1() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        assert_eq!(check_kosr(&g, 1), Err(Disconnected));
        // Under the premise: K4 sink, 4 -> 5 -> 0. Losing 5 cuts 4 off.
        let mut edges = k4_edges();
        edges.extend([(4, 5), (5, 0)]);
        let g = DiGraph::from_edges(6, edges);
        assert_eq!(
            satisfies_theorem1(&g, 1, &ProcessSet::from_ids([5])),
            Err(Disconnected)
        );
    }

    #[test]
    fn two_sinks_fail_condition_2() {
        // 0 -> {1<->2}, 0 -> {3<->4}: two sinks.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 1), (0, 3), (3, 4), (4, 3)]);
        assert_eq!(check_kosr(&g, 1), Err(NoUniqueSink));
        assert_eq!(
            satisfies_theorem1(&g, 0, &ProcessSet::new()),
            Err(NoUniqueSink)
        );
    }

    #[test]
    fn weak_sink_fails_condition_3() {
        // Sink is a 4-cycle: only 1-strongly-connected; ask for 2.
        let g = DiGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)]);
        assert_eq!(check_kosr(&g, 2), Err(WeakSink { k: 2 }));
        assert!(is_k_osr(&g, 1));
        let cycle = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(
            satisfies_theorem1(&cycle, 1, &ProcessSet::new()),
            Err(WeakSink { k: 2 })
        );
    }

    #[test]
    fn missing_paths_fail_condition_4() {
        // Sink {1,2,3} complete (2-strongly-connected); 0 has a single edge
        // into the sink, so only 1 disjoint path with k = 2.
        let g = DiGraph::from_edges(4, [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (0, 1)]);
        assert_eq!(check_kosr(&g, 2), Err(TooFewPaths { k: 2 }));
        let mut edges = k4_edges();
        edges.push((4, 0));
        let g = DiGraph::from_edges(5, edges);
        assert_eq!(
            satisfies_theorem1(&g, 1, &ProcessSet::new()),
            Err(TooFewPaths { k: 2 })
        );
    }

    #[test]
    fn byzantine_safe_rejects_oversized_f() {
        let g = generators::fig1();
        assert_eq!(
            satisfies_theorem1(g.graph(), 1, &ProcessSet::from_ids([6, 7])),
            Err(TooManyFaulty { faulty: 2, f: 1 })
        );
    }

    #[test]
    fn a_faulty_set_of_every_process_leaves_no_correct_one() {
        let g = DiGraph::new(1);
        assert_eq!(
            satisfies_theorem1(&g, 1, &ProcessSet::from_ids([0])),
            Err(NoCorrectProcess)
        );
        assert_eq!(
            satisfies_theorem1(&g, 1, &ProcessSet::from_ids([3])),
            Err(NoCorrectProcess)
        );
    }

    #[test]
    fn a_sink_short_of_2f_plus_1_correct_members_fails_the_margin() {
        // Sink K3 at f = 1: one faulty sink member leaves 2 of 3 needed.
        let g = generators::fig2_family(3, 3);
        assert_eq!(
            satisfies_theorem1(g.graph(), 1, &ProcessSet::from_ids([0])),
            Err(SinkMargin {
                correct: 2,
                needed: 3
            })
        );
        assert_eq!(
            satisfies_theorem1_for_all(g.graph(), 1),
            Err((
                ProcessSet::from_ids([0]),
                SinkMargin {
                    correct: 2,
                    needed: 3
                }
            ))
        );
    }

    #[test]
    fn every_clause_renders_its_numbers() {
        let texts = [
            TooManyFaulty { faulty: 3, f: 2 }.to_string(),
            NoCorrectProcess.to_string(),
            Disconnected.to_string(),
            NoUniqueSink.to_string(),
            WeakSink { k: 3 }.to_string(),
            TooFewPaths { k: 3 }.to_string(),
            SinkMargin {
                correct: 4,
                needed: 5,
            }
            .to_string(),
        ];
        assert_eq!(
            texts,
            [
                "3 faulty processes exceed f = 2 (Def. 7)",
                "F is not a proper subset of the processes (Def. 7)",
                "the undirected graph is disconnected (Def. 6 cond. 1)",
                "no unique sink component (Def. 6 cond. 2)",
                "the sink is not 3-strongly connected (Def. 6 cond. 3)",
                "a non-sink process lacks 3 node-disjoint paths to the sink (Def. 6 cond. 4)",
                "the sink keeps 4 correct members; 5 needed (Thm 1)",
            ]
        );
    }

    #[test]
    fn exhaustive_check_on_fig2() {
        // Fig. 2 is 3-OSR; with f = 1 it must satisfy the premise for every
        // single faulty process (the paper argues "whether the faulty
        // process is a sink member or not").
        let g = generators::fig2();
        assert_eq!(satisfies_theorem1_for_all(g.graph(), 1), Ok(()));
    }
}
