//! Causal forensics: self-explaining violation reports.
//!
//! When an oracle fails, the interesting question is never "did it fail"
//! but *why*: which deliveries, drops, and recoveries led the violating
//! processes to their decisions, and which quorums those decisions were
//! premised on. This module answers both from one forensics-enabled
//! re-execution:
//!
//! * the **causal cone** — the backward closure of the violating
//!   processes' final events over the event log's parent edges
//!   ([`scup_obs::causal::CausalGraph`]), i.e. everything that could have
//!   influenced the bad decisions and nothing that could not;
//! * the **provenance chains** — each violating decision walked backward
//!   through its justifying quorums and v-blocking sets
//!   ([`scup_obs::causal::walk_to_roots`]) until the chains terminate at
//!   initial proposals or journal replays.
//!
//! The report renders three ways: a JSON block for the campaign report,
//! a Graphviz DOT digraph of the cone, and (via
//! [`crate::perfetto::sim_trace_to_chrome`]) flow arrows in the Perfetto
//! timeline.

use std::collections::BTreeSet;

use scup_obs::causal::{walk_to_roots, CausalGraph, EventId, ProvenanceLog};
use scup_scp::Value;

use crate::adversary::AdversaryRegistry;
use crate::campaign::{Campaign, CampaignReport};
use crate::json::Json;
use crate::protocol;
use crate::scenario::Scenario;
use crate::system::System;

/// One violating decision walked backward to its provenance roots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvChain {
    /// The deciding process.
    pub process: u32,
    /// The pledge the walk started from, e.g. `externalize 1`.
    pub label: String,
    /// `true` when every chain terminated at a proposal or replay and
    /// nothing was unresolved.
    pub rooted: bool,
    /// Provenance entries reached by the walk.
    pub entries: usize,
    /// The root pledges reached, rendered `p{process} {label}`.
    pub roots: Vec<String>,
    /// References no log resolves (Byzantine supporters log nothing),
    /// rendered `p{process} {label}`.
    pub unresolved: Vec<String>,
}

/// The forensic analysis of one violating run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForensicReport {
    /// Scenario name.
    pub scenario: String,
    /// The violating seed.
    pub seed: u64,
    /// The oracle findings that triggered the analysis.
    pub violations: Vec<String>,
    /// Processes whose decisions anchor the causal cone.
    pub anchors: Vec<u32>,
    /// Events in the full causal graph.
    pub total_events: usize,
    /// The causal cone: event ids of the backward closure of the
    /// anchors' final events.
    pub cone: Vec<EventId>,
    /// The cone rendered as a Graphviz DOT digraph.
    pub dot: String,
    /// Equivocation pairs attributed inside the cone — two sends by the
    /// same process claiming the same protocol slot with different
    /// payloads — rendered `p{id} equivocated on slot ...`. The sibling
    /// send of each pair is pulled into the cone even when only one side
    /// was delivered to the anchors.
    pub equivocations: Vec<String>,
    /// One provenance walk per anchored decision.
    pub chains: Vec<ProvChain>,
}

impl ForensicReport {
    /// Builds the report from a forensics-enabled run's captures: the
    /// consensus phase's event log, provenance logs and decisions (a
    /// sampled run's [`Phase`](stellar_cup::consensus::Phase), or the explorer's counterexample replay).
    ///
    /// Anchors are the processes the violations name (`p{id}` tokens in
    /// the oracle findings); when a violation names nobody (pure
    /// termination stalls), every process that acted anchors the cone.
    pub fn from_parts(
        scenario: &str,
        seed: u64,
        violations: &[String],
        causal: &CausalGraph,
        provenance: &[ProvenanceLog],
        decisions: &[Option<Value>],
    ) -> ForensicReport {
        let n = decisions.len() as u32;
        let mut anchors: BTreeSet<u32> = violations
            .iter()
            .flat_map(|v| v.split(|c: char| !c.is_ascii_alphanumeric()))
            .filter_map(|tok| tok.strip_prefix('p').and_then(|d| d.parse::<u32>().ok()))
            .filter(|&p| p < n)
            .collect();
        if anchors.is_empty() {
            anchors.extend((0..n).filter(|&p| causal.last_of(p).is_some()));
        }

        let mut roots: Vec<EventId> = anchors.iter().map(|&p| causal.last_of(p)).collect();
        let mut cone = causal.cone(&roots);
        // Equivocation attribution: the cone is a backward closure over
        // parent edges, so it reaches the faulty sender's *delivered*
        // split but never the sibling send that contradicts it — the two
        // sends share no causal edge. Pull both sends of every pair that
        // intersects the cone (and their own histories), so the report
        // names the equivocation instead of leaving a one-sided branch.
        let mut equivocations = Vec::new();
        for pair in causal.equivocations() {
            if cone.binary_search(&pair.first).is_ok() || cone.binary_search(&pair.second).is_ok() {
                roots.push(pair.first);
                roots.push(pair.second);
                equivocations.push(format!(
                    "p{} equivocated on slot {:#x}: events e{} / e{}",
                    pair.process, pair.slot, pair.first.0, pair.second.0
                ));
            }
        }
        if !equivocations.is_empty() {
            cone = causal.cone(&roots);
        }
        let dot = causal.to_dot(
            &cone,
            &format!("{scenario} seed {seed}: causal cone of the violation"),
        );

        let chains = anchors
            .iter()
            .filter_map(|&p| {
                let v = decisions.get(p as usize).copied().flatten()?;
                let label = format!("externalize {v}");
                let walk = walk_to_roots(provenance, p, &label);
                let roots = walk
                    .visited
                    .iter()
                    .filter_map(|&(wp, idx)| {
                        let entry = &provenance[wp as usize].entries()[idx];
                        entry
                            .rule
                            .is_root()
                            .then(|| format!("p{wp} {}", entry.label()))
                    })
                    .collect();
                Some(ProvChain {
                    process: p,
                    label,
                    rooted: walk.rooted,
                    entries: walk.visited.len(),
                    roots,
                    unresolved: walk
                        .unresolved
                        .iter()
                        .map(|(up, ul)| format!("p{up} {ul}"))
                        .collect(),
                })
            })
            .collect();

        ForensicReport {
            scenario: scenario.to_string(),
            seed,
            violations: violations.to_vec(),
            anchors: anchors.into_iter().collect(),
            total_events: causal.len(),
            cone,
            dot,
            equivocations,
            chains,
        }
    }

    /// A stable artifact-file stem for this analysis,
    /// e.g. `split-quorums-bad-seed7`.
    pub fn artifact_stem(&self) -> String {
        format!("{}-seed{}", self.scenario, self.seed)
    }

    /// Re-runs one sampled scenario/seed with forensics armed and builds
    /// the analysis for the given oracle findings. `None` when the
    /// scenario cannot be configured (the original record already
    /// carries that error).
    ///
    /// The re-run is deterministic (same seed, same schedule), so the
    /// forensic capture explains exactly the run that failed — the
    /// sampling loop itself never pays the recording cost.
    pub fn analyze_run(scenario: &Scenario, seed: u64, violations: &[String]) -> Option<Self> {
        let output = std::panic::catch_unwind(|| {
            let mut system = System::of(scenario, seed, &AdversaryRegistry::builtin()).ok()?;
            system.config.forensics = true;
            Some(protocol::execute_observed(&system))
        })
        .ok()
        .flatten()?;
        let phase = output.consensus();
        Some(ForensicReport::from_parts(
            &scenario.name,
            seed,
            violations,
            &phase.causal,
            &phase.provenance,
            &phase.decisions,
        ))
    }

    /// The JSON block embedded in campaign reports (the DOT graph is
    /// written as its own artifact, not inlined here).
    pub fn to_json(&self) -> Json {
        let strings = |items: &[String]| items.iter().cloned().collect::<Json>();
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            ("seed", Json::from(self.seed)),
            ("violations", strings(&self.violations)),
            ("anchors", self.anchors.iter().copied().collect()),
            (
                "events",
                Json::obj([
                    ("total", Json::from(self.total_events)),
                    ("cone", Json::from(self.cone.len())),
                ]),
            ),
            ("equivocations", strings(&self.equivocations)),
            (
                "chains",
                self.chains
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("process", Json::from(c.process)),
                            ("label", Json::Str(c.label.clone())),
                            ("rooted", Json::Bool(c.rooted)),
                            ("entries", Json::from(c.entries)),
                            ("roots", strings(&c.roots)),
                            ("unresolved", strings(&c.unresolved)),
                        ])
                    })
                    .collect(),
            ),
        ])
    }
}

/// Attaches a forensic analysis to every oracle failure of a sampled
/// campaign report: each failing (configured) run is re-executed with
/// forensics armed and its [`ForensicReport`] lands in the record's
/// `forensics` field (hence the report JSON). Returns how many analyses
/// were attached.
///
/// Runs that failed to *configure* (`error` set) are skipped — there is
/// no schedule to explain.
pub fn attach_failures(campaign: &Campaign, report: &mut CampaignReport) -> usize {
    let mut attached = 0;
    for run in report
        .runs
        .iter_mut()
        .filter(|r| !r.passed && r.error.is_none())
    {
        let Some(scenario) = campaign.scenarios.iter().find(|s| s.name == run.scenario) else {
            continue;
        };
        if let Some(analysis) =
            ForensicReport::analyze_run(scenario, run.seed, &run.invariants.violations)
        {
            run.forensics = Some(analysis);
            attached += 1;
        }
    }
    attached
}
