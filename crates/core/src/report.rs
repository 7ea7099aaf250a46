//! One-call verification: *can this network run Stellar with minimal
//! knowledge?*
//!
//! [`verify_network`] takes a knowledge connectivity graph and a fault
//! threshold and renders the paper's verdict as a structured
//! [`NetworkReport`]:
//!
//! 1. the premise of Theorems 1 and 5 for **every** faulty set of at most
//!    `f` processes — a unique sink, `G \ F` `(f+1)`-OSR (Definitions 6
//!    and 7), and `2f + 1` correct sink members — judged by
//!    [`kosr::satisfies_theorem1_for_all`], the campaign oracle's judge;
//!    a failure names the first failing `F` and its clause;
//! 2. when the premise holds, with Algorithm-2 slices: quorum availability
//!    with `f` sink failures (Theorem 4), and intertwined quorums —
//!    exhaustive on small systems, the structural bound beyond (Theorem 3).

use scup_graph::kosr::{self, PremiseFailure};
use scup_graph::{sink, KnowledgeGraph, ProcessSet};

use crate::theorems;

/// Outcome of a single verification step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// The condition holds.
    Pass,
    /// The condition fails; the string explains why.
    Fail(
        /// Human-readable reason.
        String,
    ),
    /// The condition was not checked; the string says why.
    Skipped(
        /// Why the check was skipped.
        String,
    ),
}

impl Check {
    /// `true` for [`Check::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, Check::Pass)
    }

    fn fail(reason: impl Into<String>) -> Self {
        Check::Fail(reason.into())
    }
}

/// The structured result of [`verify_network`].
#[derive(Debug, Clone)]
pub struct NetworkReport {
    /// The fault threshold the report is for.
    pub f: usize,
    /// The unique sink component, if any.
    pub sink: Option<ProcessSet>,
    /// Step 1: the premise for every faulty set of at most `f` processes,
    /// or the first that fails and its clause.
    pub premise: Result<(), (ProcessSet, PremiseFailure)>,
    /// Step 2a: Theorem 4 availability with `f` sink failures.
    pub availability: Check,
    /// Step 2b: Theorem 3 intertwinedness (exhaustive on small systems).
    pub intertwined: Check,
}

impl NetworkReport {
    /// `true` iff the premise holds and no theorem check failed (skipped
    /// checks don't fail the verdict but are visible in the report).
    pub fn solvable(&self) -> bool {
        self.premise.is_ok()
            && ![&self.availability, &self.intertwined]
                .iter()
                .any(|c| matches!(c, Check::Fail(_)))
    }
}

impl std::fmt::Display for NetworkReport {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn line(out: &mut std::fmt::Formatter<'_>, name: &str, c: &Check) -> std::fmt::Result {
            match c {
                Check::Pass => writeln!(out, "  [pass] {name}"),
                Check::Fail(r) => writeln!(out, "  [FAIL] {name}: {r}"),
                Check::Skipped(r) => writeln!(out, "  [skip] {name}: {r}"),
            }
        }
        writeln!(out, "network verification (f = {}):", self.f)?;
        if let Some(sink) = &self.sink {
            writeln!(out, "  sink component: {sink}")?;
        }
        let premise = "premise for every |F| <= f (Def. 6/7, Thm 1)";
        match &self.premise {
            Ok(()) => writeln!(out, "  [pass] {premise}")?,
            Err((faulty, clause)) => writeln!(out, "  [FAIL] {premise}: F = {faulty}: {clause}")?,
        }
        line(out, "quorum availability (Thm 4)", &self.availability)?;
        line(out, "intertwined quorums (Thm 3)", &self.intertwined)?;
        writeln!(
            out,
            "  verdict: {}",
            if self.solvable() {
                "consensus solvable with PD + f + sink detector"
            } else {
                "NOT solvable with this knowledge graph"
            }
        )
    }
}

/// Size cap for the exhaustive intertwined check (2^n quorum enumeration).
const EXHAUSTIVE_LIMIT_N: usize = 14;

/// Verifies the premise and, where it holds, the theorems for `kg` and
/// `f`. See the module docs for the steps.
pub fn verify_network(kg: &KnowledgeGraph, f: usize) -> NetworkReport {
    let g = kg.graph();
    let sink = sink::unique_sink(g);
    let premise = kosr::satisfies_theorem1_for_all(g, f);
    let (Ok(()), Some(v_sink)) = (&premise, &sink) else {
        let skipped = || Check::Skipped("the premise fails".into());
        return NetworkReport {
            f,
            sink,
            premise,
            availability: skipped(),
            intertwined: skipped(),
        };
    };
    let (sys, _) = theorems::algorithm2_system(kg, f).expect("the premise includes a unique sink");
    let all = g.vertex_set();

    // 2a: availability for the worst sampled failure sets: all-f in the
    // sink (the binding case of Theorem 4's Inequality 1).
    let mut availability = Check::Pass;
    let sink_ids = v_sink.to_vec();
    if f > 0 && sink_ids.len() >= f {
        let faulty: ProcessSet = sink_ids[..f].iter().copied().collect();
        let correct = all.difference(&faulty);
        let missing = theorems::theorem4_quorum_availability(&sys, &correct);
        if !missing.is_empty() {
            availability = Check::fail(format!(
                "with sink failures {faulty}, processes {missing} lack an all-correct quorum"
            ));
        }
    }
    if availability.passed() {
        let missing = theorems::theorem4_quorum_availability(&sys, &all);
        if !missing.is_empty() {
            availability =
                Check::fail(format!("processes {missing} lack a quorum even fault-free"));
        }
    }

    // 2b: intertwined (exhaustive on small systems only).
    let intertwined = if kg.n() <= EXHAUSTIVE_LIMIT_N {
        match theorems::theorem3_all_intertwined(&sys, &all, f, 1 << EXHAUSTIVE_LIMIT_N.min(20)) {
            Ok(None) => Check::Pass,
            Ok(Some(v)) => Check::fail(format!(
                "quorums {} and {} intersect in only {} processes",
                v.qi, v.qj, v.intersection_len
            )),
            Err(_) => Check::Skipped("enumeration limit exceeded".into()),
        }
    } else {
        // The structural bound is a theorem for Algorithm-2 systems; report
        // it instead of enumerating.
        let bound = theorems::structural_intersection_bound(v_sink.len(), f);
        if bound > f {
            Check::Pass
        } else {
            Check::fail(format!("structural bound {bound} does not exceed f = {f}"))
        }
    };

    NetworkReport {
        f,
        sink,
        premise,
        availability,
        intertwined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use scup_graph::generators;

    #[test]
    fn fig2_verifies_for_f1() {
        let kg = generators::fig2();
        let report = verify_network(&kg, 1);
        assert_eq!(report.premise, Ok(()));
        assert!(report.availability.passed(), "{:?}", report.availability);
        assert!(report.intertwined.passed(), "{:?}", report.intertwined);
        assert!(report.solvable());
        let text = report.to_string();
        assert!(text.contains("[pass]"));
        assert!(text.contains("solvable"));
    }

    #[test]
    fn fig1_fails_for_f1() {
        // Fig. 1 is only 1-OSR: a Definition 6 clause must fail for f = 1.
        let kg = generators::fig1();
        let report = verify_network(&kg, 1);
        assert!(matches!(
            report.premise,
            Err((
                _,
                PremiseFailure::Disconnected
                    | PremiseFailure::NoUniqueSink
                    | PremiseFailure::WeakSink { .. }
                    | PremiseFailure::TooFewPaths { .. }
            ))
        ));
        assert!(matches!(report.availability, Check::Skipped(_)));
        assert!(!report.solvable());
        assert!(report.to_string().contains("[FAIL]"));
    }

    #[test]
    fn fig1_verifies_for_f0() {
        let kg = generators::fig1();
        let report = verify_network(&kg, 0);
        assert!(report.solvable(), "{report}");
    }

    #[test]
    fn multi_sink_graph_fails_early() {
        let g = scup_graph::DiGraph::from_edges(3, [(0, 1), (0, 2)]);
        let report = verify_network(&KnowledgeGraph::from_graph(g), 1);
        assert_eq!(
            report.premise,
            Err((ProcessSet::new(), PremiseFailure::NoUniqueSink))
        );
        assert_eq!(report.sink, None);
        assert!(!report.solvable());
        assert!(matches!(report.intertwined, Check::Skipped(_)));
    }

    #[test]
    fn undersized_sink_fails_margin() {
        // Sink K3 with f = 1: one faulty sink member leaves 2 correct.
        let kg = generators::fig2_family(3, 3);
        let report = verify_network(&kg, 1);
        assert_eq!(
            report.premise,
            Err((
                ProcessSet::from_ids([0]),
                PremiseFailure::SinkMargin {
                    correct: 2,
                    needed: 3
                }
            ))
        );
        assert!(!report.solvable());
        assert!(report
            .to_string()
            .contains("F = {0}: the sink keeps 2 correct members; 3 needed"));
    }

    #[test]
    fn large_network_uses_structural_bound() {
        // n = 16 is past the exhaustive limit, so Theorem 3 is judged by
        // the structural bound; the graph is Byzantine-safe for f = 1.
        let mut rng = StdRng::seed_from_u64(5);
        let config = generators::KosrConfig::new(8, 8, 3);
        let kg = generators::random_kosr(&config, &mut rng);
        assert!(kg.n() > EXHAUSTIVE_LIMIT_N);
        let report = verify_network(&kg, 1);
        assert!(report.solvable(), "{report}");
    }

    /// `verify_network` is a rendering of the judge: it calls the network
    /// solvable exactly when `kosr::satisfies_theorem1` holds for every
    /// faulty set of at most `f` processes, enumerated here independently.
    #[test]
    fn verify_network_is_solvable_iff_the_premise_holds_for_every_fault_set() {
        fn premise_everywhere(kg: &KnowledgeGraph, f: usize) -> bool {
            let ids = kg.graph().vertex_set().to_vec();
            let n = ids.len();
            (0u64..1 << n)
                .filter(|mask| mask.count_ones() as usize <= f)
                .all(|mask| {
                    let faulty: ProcessSet = (0..n)
                        .filter(|b| mask >> b & 1 == 1)
                        .map(|b| ids[b])
                        .collect();
                    kosr::satisfies_theorem1(kg.graph(), f, &faulty).is_ok()
                })
        }
        let mut graphs = vec![generators::fig1(), generators::fig2()];
        for (sink_size, nonsink, k) in [(4, 3, 2), (5, 4, 2), (6, 4, 3)] {
            for seed in 0..30 {
                let mut rng = StdRng::seed_from_u64(seed);
                let config = generators::KosrConfig::new(sink_size, nonsink, k);
                graphs.push(generators::random_kosr(&config, &mut rng));
            }
        }
        let (mut solvable, mut unsolvable) = (0, 0);
        for kg in &graphs {
            let report = verify_network(kg, 1);
            let holds = premise_everywhere(kg, 1);
            assert_eq!(report.solvable(), holds, "{report}");
            assert_eq!(report.premise.is_ok(), holds, "{report}");
            if holds {
                solvable += 1;
            } else {
                unsolvable += 1;
            }
        }
        // Both verdicts occur, so the pin tests both directions.
        assert!(solvable > 0 && unsolvable > 0, "{solvable} / {unsolvable}");
    }
}
