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
//! consists of and folds their reports into one [`ProtocolOutput`].

use std::collections::BTreeMap;

use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};
use scup_obs::causal::{CausalGraph, ProvenanceLog};
use scup_scp::{NodeStats, Value};
use scup_sim::{Journal, ProcessStats, SimReport};
use stellar_cup::consensus::{self, EndToEndConfig, Phase};

use crate::adversary::AdversaryKind;
use crate::scenario::{ChurnSpec, FaultSpec, NetworkSpec, ProtocolSpec};
use crate::system::{self, System};

/// What one protocol execution produced.
#[derive(Debug, Clone)]
pub struct ProtocolOutput {
    /// Per-process proposals.
    pub inputs: Vec<Value>,
    /// Per-process decisions (`None` = undecided or faulty).
    pub decisions: Vec<Option<Value>>,
    /// Messages sent across all phases.
    pub messages_sent: u64,
    /// Messages delivered across all phases.
    pub messages_delivered: u64,
    /// Bytes (per `size_hint`) handed to the network across all phases.
    pub bytes_sent: u64,
    /// Timers fired across all phases.
    pub timers_fired: u64,
    /// Simulated end time of the last phase.
    pub end_ticks: u64,
    /// Per-process traffic breakdown, summed across phases (indexed by
    /// process id).
    pub per_process: Vec<ProcessStats>,
    /// Per-node SCP counters (message traffic, ballot-phase
    /// confirmations); empty for protocols without an SCP phase.
    pub node_stats: Vec<NodeStats>,
    /// Messages lost to the fault plan across all phases (0 without one).
    pub messages_dropped: u64,
    /// Extra deliveries injected by duplication faults.
    pub messages_duplicated: u64,
    /// Crash events executed.
    pub crashes: u64,
    /// Recovery events executed.
    pub recoveries: u64,
    /// Messages re-sent by the protocol's retransmission layer.
    pub retransmissions: u64,
    /// Durability-oracle findings: a correct process whose post-recovery
    /// journal contradicts its pre-crash pledges (always a safety bug,
    /// regardless of oracle mode).
    pub pledge_violations: Vec<String>,
    /// log₂ histogram of retransmission delays, summed across phases:
    /// bucket `0` counts retransmit timers armed with delay `0`, bucket
    /// `k ≥ 1` those armed `[2^(k-1), 2^k)` ticks ahead
    /// ([`scup_sim::bucket_of`]).
    pub retransmit_delay_buckets: Vec<u64>,
    /// Per-link fault-plane drop counters, keyed `(from, to)`, summed
    /// across phases.
    pub link_drops: BTreeMap<(u32, u32), u64>,
    /// Join events executed by the churn plane (0 without one), summed
    /// across phases.
    pub joins: u64,
    /// Leave events executed by the churn plane, summed across phases.
    pub departures: u64,
    /// Messages lost because an endpoint was dormant or departed; a
    /// subset of `messages_dropped`, summed across phases.
    pub churn_drops: u64,
    /// Event log of the consensus phase (disabled unless the run asked
    /// for a trace or for forensics).
    pub causal: CausalGraph,
    /// Per-process decision-provenance logs of the consensus phase
    /// (disabled unless the run asked for forensics).
    pub provenance: Vec<ProvenanceLog>,
}

impl ProtocolOutput {
    /// Folds a run's phases into one output: traffic and fault counters
    /// sum over the knowledge-increase phase (the default report for
    /// protocols without one) and the consensus phase; everything else is
    /// the consensus phase's.
    fn new(
        inputs: Vec<Value>,
        knowledge: SimReport,
        consensus: Phase,
        pledge_violations: Vec<String>,
    ) -> ProtocolOutput {
        let end_ticks = consensus.report.end_time.ticks();
        let mut total = knowledge;
        total.absorb(&consensus.report);
        ProtocolOutput {
            inputs,
            decisions: consensus.decisions,
            messages_sent: total.messages_sent,
            messages_delivered: total.messages_delivered,
            bytes_sent: total.bytes_sent,
            timers_fired: total.timers_fired,
            end_ticks,
            per_process: total.per_process,
            node_stats: consensus.node_stats,
            messages_dropped: total.messages_dropped,
            messages_duplicated: total.messages_duplicated,
            crashes: total.crashes,
            recoveries: total.recoveries,
            retransmissions: consensus.retransmissions,
            pledge_violations,
            retransmit_delay_buckets: total.retransmit_delay_buckets,
            link_drops: total.link_drops,
            joins: total.joins,
            departures: total.departures,
            churn_drops: total.churn_drops,
            causal: consensus.causal,
            provenance: consensus.provenance,
        }
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
) -> ProtocolOutput {
    let config = system::end_to_end_config(kg, adversary, network, fault_plan, churn, inputs, seed);
    let stale_joiner = system::stale_joiner(churn, faulty);
    run(protocol, kg, f, faulty, &config, stale_joiner).0
}

/// Runs an instantiated system. Also returns the event log of the
/// knowledge-increase phase (disabled unless `system.config.trace`; the
/// consensus phase's is [`ProtocolOutput::causal`]) for Perfetto export —
/// the log renders every message payload to a string, so use it for
/// one-off exports, not inside sampling loops; the two logs are on
/// independent sim clocks (each phase restarts at tick 0). Under
/// `system.config.forensics` the consensus phase is logged as well, and
/// the output carries per-node decision provenance. Neither switch
/// perturbs the schedule: decisions, reports and logs are bit-identical
/// whichever turned the log on.
pub fn execute_observed(system: &System) -> (ProtocolOutput, CausalGraph) {
    run(
        system.protocol,
        &system.kg,
        system.f,
        &system.faulty,
        &system.config,
        system.stale_joiner,
    )
}

fn run(
    protocol: ProtocolSpec,
    kg: &KnowledgeGraph,
    f: usize,
    faulty: &ProcessSet,
    config: &EndToEndConfig,
    stale_joiner: Option<ProcessId>,
) -> (ProtocolOutput, CausalGraph) {
    let inputs = config
        .inputs
        .as_deref()
        .expect("a run's configuration carries its inputs");
    debug_assert_eq!(inputs.len(), kg.n());
    let scp = |slices| consensus::run_scp_with_slices_observed(kg, faulty, slices, inputs, config);
    let (knowledge, knowledge_log, phase) = match protocol {
        ProtocolSpec::StellarMinimal => {
            let (detections, report, log) =
                consensus::run_sink_detection_traced(kg, f, faulty, config);
            let slices = consensus::slices_from_detections(&detections, f);
            (report, log, scp(slices))
        }
        ProtocolSpec::StellarLocal(strategy) => (
            SimReport::default(),
            CausalGraph::disabled(),
            scp(consensus::local_slices(kg, f, strategy)),
        ),
        ProtocolSpec::BftCup => (
            SimReport::default(),
            CausalGraph::disabled(),
            consensus::run_bftcup(kg, f, faulty, config, stale_joiner),
        ),
    };
    // The durability oracle: each correct process's journal re-read for
    // pledges a crash–recovery cycle made it betray.
    let contradictions: fn(&dyn Journal) -> Vec<String> = match protocol {
        ProtocolSpec::BftCup => scup_cup::bftcup::journal_contradictions,
        _ => scup_scp::journal_contradictions,
    };
    let pledge_violations = kg
        .processes()
        .filter(|i| !faulty.contains(*i))
        .flat_map(|i| {
            contradictions(&phase.journals[i.index()])
                .into_iter()
                .map(move |v| format!("process {i}: {v}"))
        })
        .collect();
    let output = ProtocolOutput::new(inputs.to_vec(), knowledge, phase, pledge_violations);
    (output, knowledge_log)
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
        execute_observed(&system).0
    }

    #[test]
    fn stellar_minimal_on_fig2_decides() {
        let fig2 = Scenario {
            name: "fig2".into(),
            faults: FaultPlacement::Ids(vec![5]),
            ..Scenario::default()
        };
        let out = run(fig2, 0);
        for i in 0..7usize {
            if i == 5 {
                continue;
            }
            assert!(out.decisions[i].is_some(), "process {i} must decide");
        }
        assert!(out.messages_sent > 0 && out.end_ticks > 0);
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
        assert_eq!(
            (out.decisions, out.messages_sent, out.end_ticks),
            (same.decisions, same.messages_sent, same.end_ticks)
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
