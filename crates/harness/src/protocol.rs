//! Protocol execution: one flow that takes an instantiated
//! [`System`] — or, for callers that bring their own graph, the pieces of
//! one — through its protocol's phases and produces the per-process
//! decision vector the oracles judge.
//!
//! Nothing here knows an actor type. Who stands at process `i` is the
//! roster's decision ([`stellar_cup::roster`]); how a phase is dressed,
//! when it may stop and how it is read out is the sampled phase runner's
//! ([`stellar_cup::consensus`]); what a scenario means is
//! [`System::of`]'s. This module picks the phases a [`ProtocolSpec`]
//! consists of ([`slices_of`] is the one place a protocol turns into
//! slices) and keeps each phase's record, in order, in one
//! [`ProtocolOutput`].

use scup_fbqs::SliceFamily;
use scup_graph::{KnowledgeGraph, ProcessSet};
use scup_scp::Value;
use scup_sim::{Journal, SimReport};
use stellar_cup::consensus::{self, Phase};
use stellar_cup::oracle::SinkDetection;

use crate::adversary::AdversaryKind;
use crate::campaign::RunRecord;
use crate::scenario::{ChurnSpec, FaultSpec, NetworkSpec, ProtocolSpec};
use crate::system::{self, System};

/// What a `stellar-minimal` run's knowledge-increase phase produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Knowledge {
    /// Each process's sink detection (`None` where it detected nothing).
    pub detections: Vec<Option<SinkDetection>>,
    /// The Algorithm-2 families built from them, one per process — the
    /// slices the consensus phase ran on.
    pub slices: Vec<SliceFamily>,
}

/// What one protocol execution produced: the record of each simulation
/// it ran, and what the oracles read beside them. Totals are not stored:
/// [`ProtocolOutput::total`] folds them from the phases.
#[derive(Debug, Clone)]
pub struct ProtocolOutput {
    /// Per-process proposals.
    pub inputs: Vec<Value>,
    /// The run's simulations in order: `[knowledge, consensus]` for
    /// `stellar-minimal`, `[consensus]` for every other protocol.
    pub phases: Vec<Phase>,
    /// The detections and the slices built from them (`stellar-minimal`
    /// only).
    pub knowledge: Option<Knowledge>,
    /// Durability-oracle findings: a correct process whose post-recovery
    /// journal contradicts its pre-crash pledges (always a safety bug,
    /// regardless of oracle mode).
    pub pledge_violations: Vec<String>,
}

impl ProtocolOutput {
    /// The consensus phase, the last one: the run's decisions, its event
    /// log under forensics, and its provenance.
    pub fn consensus(&self) -> &Phase {
        self.phases.last().expect("every run has a consensus phase")
    }

    /// Every phase's report folded into one ([`SimReport::absorb`]):
    /// counters sum across phases, per-process rows element-wise.
    pub fn total(&self) -> SimReport {
        let mut total = SimReport::default();
        for phase in &self.phases {
            total.absorb(&phase.report);
        }
        total
    }
}

/// The flat view [`execute`] returns: the consensus phase's decisions,
/// the pledge findings, and — through `Deref` — the [`RunRecord`]
/// counters, derived from the phases by the function that fills a
/// campaign's records. It is the shape the benchmark reads, and it is
/// deleted together with `execute` when the benchmark moves to
/// [`execute_observed`].
#[derive(Debug, Clone)]
pub struct Executed {
    /// Per-process decisions (`None` = undecided or faulty).
    pub decisions: Vec<Option<Value>>,
    /// See [`ProtocolOutput::pledge_violations`].
    pub pledge_violations: Vec<String>,
    counters: RunRecord,
}

impl std::ops::Deref for Executed {
    type Target = RunRecord;

    fn deref(&self) -> &RunRecord {
        &self.counters
    }
}

/// Runs one protocol execution from its pieces. `inputs` must have one
/// proposal per process (see
/// [`Scenario::resolved_inputs`](crate::Scenario::resolved_inputs)); the
/// plans are lowered against `kg` but not validated — [`System::of`]
/// followed by [`execute_observed`] is the checked path.
#[allow(clippy::too_many_arguments)] // mirrors the scenario's fields
pub fn execute(
    protocol: ProtocolSpec,
    kg: &KnowledgeGraph,
    f: usize,
    faulty: &ProcessSet,
    adversary: AdversaryKind,
    network: &NetworkSpec,
    fault_plan: &FaultSpec,
    churn: &ChurnSpec,
    inputs: Vec<Value>,
    seed: u64,
) -> Executed {
    let system = System {
        kg: kg.clone(),
        f,
        faulty: faulty.clone(),
        protocol,
        config: system::end_to_end_config(kg, adversary, network, fault_plan, churn, inputs, seed),
        stale_joiner: system::stale_joiner(churn, faulty),
    };
    let mut output = execute_observed(&system);
    let mut counters = RunRecord::default();
    counters.count(&output);
    let consensus = output
        .phases
        .pop()
        .expect("every run has a consensus phase");
    Executed {
        decisions: consensus.decisions,
        pledge_violations: output.pledge_violations,
        counters,
    }
}

/// Runs an instantiated system. Under `system.config.trace` every phase
/// keeps its event log (each on its own sim clock, from tick 0) for
/// Perfetto export — the log renders every message payload to a string,
/// so use it for one-off exports, not inside sampling loops. Under
/// `system.config.forensics` the consensus phase is logged as well, and
/// carries per-node decision provenance. Neither switch perturbs the
/// schedule: decisions, reports and logs are bit-identical whichever
/// turned the log on.
pub fn execute_observed(system: &System) -> ProtocolOutput {
    let (kg, f, faulty, config) = (&system.kg, system.f, &system.faulty, &system.config);
    let inputs = system.inputs();
    debug_assert_eq!(inputs.len(), kg.n());
    let (knowledge_phase, knowledge, slices) = slices_of(system);
    let consensus = match system.protocol {
        ProtocolSpec::BftCup => {
            consensus::run_bftcup(kg, f, faulty, inputs, config, system.stale_joiner)
        }
        _ => consensus::run_scp_with_slices_observed(kg, faulty, slices, inputs, config),
    };
    // The durability oracle: each correct process's journal re-read for
    // pledges a crash–recovery cycle made it betray.
    let contradictions: fn(&dyn Journal) -> Vec<String> = match system.protocol {
        ProtocolSpec::BftCup => scup_cup::bftcup::journal_contradictions,
        _ => scup_scp::journal_contradictions,
    };
    let pledge_violations = kg
        .processes()
        .filter(|i| !faulty.contains(*i))
        .flat_map(|i| {
            contradictions(&consensus.journals[i.index()])
                .into_iter()
                .map(move |v| format!("process {i}: {v}"))
        })
        .collect();
    ProtocolOutput {
        inputs: inputs.to_vec(),
        phases: knowledge_phase.into_iter().chain([consensus]).collect(),
        knowledge,
        pledge_violations,
    }
}

/// The knowledge phase, the [`Knowledge`] it produced and the slices the
/// system's SCP phase runs on — the one place a protocol turns into
/// slices, for sampled runs and the explorer alike. `stellar-minimal`
/// runs sink detection and then Algorithm 2 on each detection;
/// `stellar-local` applies its strategy to each `PD_i`; `bft-cup` runs no
/// SCP and gets no slices.
pub fn slices_of(system: &System) -> (Option<Phase>, Option<Knowledge>, Vec<SliceFamily>) {
    let (kg, f, faulty, config) = (&system.kg, system.f, &system.faulty, &system.config);
    match system.protocol {
        ProtocolSpec::StellarMinimal => {
            let (detections, phase) = consensus::run_knowledge_phase(kg, f, faulty, config);
            let slices = consensus::slices_from_detections(&detections, f);
            let knowledge = Knowledge {
                detections,
                slices: slices.clone(),
            };
            (Some(phase), Some(knowledge), slices)
        }
        ProtocolSpec::StellarLocal(strategy) => {
            (None, None, consensus::local_slices(kg, f, strategy))
        }
        ProtocolSpec::BftCup => (None, None, Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryRegistry;
    use crate::scenario::{FaultPlacement, Scenario, TopologySpec};
    use crate::topology;
    use stellar_cup::attempts::LocalSliceStrategy;

    fn run(scenario: Scenario, seed: u64) -> ProtocolOutput {
        let system = System::of(&scenario, seed, &AdversaryRegistry::builtin()).unwrap();
        execute_observed(&system)
    }

    #[test]
    fn stellar_minimal_on_fig2_decides() {
        let fig2 = Scenario {
            name: "fig2".into(),
            faults: FaultPlacement::Ids(vec![5]),
            ..Scenario::default()
        };
        let out = run(fig2, 0);
        let scp = out.consensus();
        for i in 0..7usize {
            if i == 5 {
                continue;
            }
            assert!(scp.decisions[i].is_some(), "process {i} must decide");
        }
        assert!(out.total().messages_sent > 0 && scp.report.end_time.ticks() > 0);
    }

    #[test]
    fn bftcup_on_fig1_decides() {
        // Fig. 1 is 1-OSR: process 2 (id 1) has a single disjoint path to
        // the sink, so BFT-CUP is only guaranteed fault-free (f = 0).
        let (kg, _) = topology::instantiate(&TopologySpec::Fig1, 0, 3);
        let out = execute(
            ProtocolSpec::BftCup,
            &kg,
            0,
            &ProcessSet::new(),
            AdversaryKind::Silent,
            &NetworkSpec::default(),
            &FaultSpec::default(),
            &ChurnSpec::default(),
            stellar_cup::consensus::default_inputs(8),
            3,
        );
        let decided: Vec<Value> = out.decisions.iter().flatten().copied().collect();
        assert_eq!(decided.len(), 8, "all processes decide");
        assert!(decided.windows(2).all(|w| w[0] == w[1]));
        // The piecewise entry and the instantiated system are one path.
        let fig1 = Scenario {
            name: "fig1".into(),
            topology: TopologySpec::Fig1,
            f: 0,
            protocol: ProtocolSpec::BftCup,
            ..Scenario::default()
        };
        let same = run(fig1, 3);
        let (scp, sent) = (same.consensus(), same.total().messages_sent);
        let end = scp.report.end_time.ticks();
        assert_eq!(
            (&out.decisions, out.messages_sent, out.end_ticks),
            (&scp.decisions, sent, end)
        );
    }

    #[test]
    fn stellar_local_runs() {
        let local = Scenario {
            name: "local".into(),
            protocol: ProtocolSpec::StellarLocal(LocalSliceStrategy::AllButOne),
            ..Scenario::default()
        };
        assert_eq!(run(local, 1).inputs.len(), 7);
    }
}
