//! The pipeline's phases: PD + `f` + sink detector ⟹ Stellar consensus.
//!
//! The paper's conclusion: *"to make Stellar solve consensus in such
//! conditions, processes need to run some distributed knowledge-increasing
//! protocol before building their slices."* This module runs each phase
//! on the simulator; `scup_harness::protocol` composes them:
//!
//! 1. **knowledge increase** — every correct process runs Algorithm 3
//!    ([`crate::sink_detector`]) until `get_sink` returns
//!    ([`run_knowledge_phase`]; [`run_sink_detection`] projects it);
//! 2. **slice construction** — Algorithm 2 on each process's own
//!    detection ([`slices_from_detections`]), or, for the negative
//!    pipeline of Theorem 2, from `PD_i` and `f` alone ([`local_slices`]);
//! 3. **SCP** — [`run_scp_with_slices_observed`] externalizes with those
//!    slices; [`run_bftcup`] runs the BFT-CUP baseline instead.
//!
//! Each phase's simulation is recorded as one [`Phase`]; the harness keeps
//! them in order (`scup_harness::protocol::ProtocolOutput::phases`).

use scup_fbqs::SliceFamily;
use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};
use scup_obs::causal::{CausalGraph, ProvenanceLog};
use scup_scp::{NodeStats, Value};
use scup_sim::adversary::CrashActor;
use scup_sim::{
    ChurnPlan, FaultPlan, MemJournal, NetworkConfig, RetransmitConfig, SimReport, Simulation,
};

use crate::attempts::LocalSliceStrategy;
use crate::build_slices::build_slices;
use crate::oracle::SinkDetection;
use crate::roster::{self, AdversaryKind, BftProtocol, Protocol, ScpProtocol, SdProtocol};
use crate::sink_detector::{GetSinkMode, SinkDetectorActor};

/// Configuration of an end-to-end run.
#[derive(Debug, Clone)]
pub struct EndToEndConfig {
    /// Seed for both simulation phases.
    pub seed: u64,
    /// Global stabilization time for both phases.
    pub gst: u64,
    /// Post-GST delivery bound.
    pub delta: u64,
    /// `GET_SINK` dissemination mode.
    pub get_sink_mode: GetSinkMode,
    /// Byzantine behaviour: `Silent`, `Equivocate` and `ForgedSlice` keep
    /// faulty processes silent during the knowledge-increasing phase (the
    /// behaviour Lemma 2 relies on); `Crash` and `Echo` act in both phases.
    pub adversary: AdversaryKind,
    /// Per-process inputs, as the run's host resolved them; the phase
    /// functions take theirs as an argument.
    pub inputs: Option<Vec<Value>>,
    /// Time horizons for the two phases.
    pub max_ticks: u64,
    /// Turn on the event log of *both* phases (each one's
    /// [`Phase::causal`]) — what a timeline export reads. Off by
    /// default: the log renders every message payload to a string, once,
    /// at its send. Off the bit-identity surface like
    /// [`EndToEndConfig::forensics`].
    pub trace: bool,
    /// Deterministic fault injection, applied to *both* phases (each phase
    /// runs its own simulation clock, so a crash at tick `t` happens at
    /// `t` of the sink-detector phase and again at `t` of the SCP phase).
    /// The default zero plan is bit-identical to a fault-free run.
    pub faults: FaultPlan,
    /// Retransmission schedule handed to every actor the roster builds
    /// from the protocol's correct one, in both phases — the crash seats
    /// included. Every such actor retransmits natively: the sink detectors
    /// and the BFT-CUP actors re-send their logs, the SCP nodes re-flood
    /// their envelope backlogs. Disabled by default — fault-free runs keep
    /// their exact historical schedules.
    pub retransmit: RetransmitConfig,
    /// Deterministic membership churn, applied to *both* phases like
    /// [`EndToEndConfig::faults`]: joiners start dormant and materialize
    /// at their join tick in each phase's clock; leavers depart
    /// permanently. The default zero plan is bit-identical to a
    /// churn-free run.
    pub churn: ChurnPlan,
    /// Turn on the event log of the consensus phase
    /// ([`Phase::causal`] — the same log [`EndToEndConfig::trace`]
    /// turns on, in that phase only) and per-node decision provenance
    /// ([`Phase::provenance`]). Off by default and off the
    /// bit-identity surface: the schedule, reports, and decisions are
    /// unchanged by enabling it.
    pub forensics: bool,
}

impl Default for EndToEndConfig {
    fn default() -> Self {
        EndToEndConfig {
            seed: 0,
            gst: 150,
            delta: 10,
            get_sink_mode: GetSinkMode::Direct,
            adversary: AdversaryKind::Silent,
            inputs: None,
            max_ticks: 3_000_000,
            trace: false,
            faults: FaultPlan::default(),
            retransmit: RetransmitConfig::disabled(),
            churn: ChurnPlan::default(),
            forensics: false,
        }
    }
}

/// The default proposals of an `n`-process run: process `i` proposes
/// `100 + i`, so every input is distinct.
pub fn default_inputs(n: usize) -> Vec<Value> {
    (0..n).map(|i| 100 + i as Value).collect()
}

/// The dressing every sampled phase shares: a [`Simulation`] on the
/// configured network with the event log switched on under
/// [`EndToEndConfig::trace`], the fault and churn plans installed, and
/// `protocol` seated through the [`roster`].
fn seated<P: Protocol>(
    protocol: &P,
    kg: &KnowledgeGraph,
    faulty: &ProcessSet,
    config: &EndToEndConfig,
    seed: u64,
) -> Simulation<P::Msg> {
    let net = NetworkConfig::partially_synchronous(config.gst, config.delta, seed);
    let mut sim = Simulation::new(kg.clone(), net);
    if config.trace {
        sim.enable_causal();
    }
    if !config.faults.is_zero() {
        sim.set_fault_plan(config.faults.clone());
    }
    if !config.churn.is_zero() {
        sim.set_churn_plan(config.churn.clone());
    }
    for i in kg.processes() {
        // The sampler fixes the equivocators' victim split at 0; the
        // explorer enumerates it.
        let is_faulty = faulty.contains(i);
        sim.add_actor(roster::seat(protocol, i, is_faulty, config.adversary, 0));
    }
    sim
}

/// What each process's seat reads as after a phase: `get` of the correct
/// actor, `None` for any other seat.
fn read<'a, P: Protocol, T>(
    sim: &'a Simulation<P::Msg>,
    get: impl Fn(&'a P::Actor) -> T + 'a,
) -> impl Iterator<Item = Option<T>> + 'a {
    sim.knowledge_graph()
        .processes()
        .map(move |i| sim.actor_as::<P::Actor>(i).map(&get))
}

/// The one sampled consensus phase: [`seated`], the event log and
/// provenance armed under [`EndToEndConfig::forensics`], run to the stop
/// rule, and [`readout`]; the caller fills [`Phase::node_stats`] from the
/// returned simulation.
///
/// The phase may stop once every planned recovery, join and leave has
/// executed **and** every correct non-departing process has decided.
/// Crash–recover cycles and churn must actually run (and the recovered
/// node rejoin) first — otherwise early decisions would skip the very
/// events the scenario schedules, and the scenario that ran would not be
/// the scenario that was written. Departing processes owe no decision:
/// waiting on them would burn the whole tick budget on a node the churn
/// plan removed mid-run.
fn run_consensus<P: Protocol>(
    protocol: &P,
    kg: &KnowledgeGraph,
    faulty: &ProcessSet,
    config: &EndToEndConfig,
    seed: u64,
) -> (Phase, Simulation<P::Msg>) {
    let mut sim = seated(protocol, kg, faulty, config, seed);
    if config.forensics {
        sim.enable_causal();
        for i in kg.processes() {
            if let Some(actor) = sim.actor_as_mut::<P::Actor>(i) {
                P::enable_provenance(actor);
            }
        }
    }
    let want_recoveries = config
        .faults
        .crashes
        .iter()
        .filter(|c| c.recover_at.is_some())
        .count() as u64;
    let want_joins = config.churn.joins.len() as u64;
    let want_leaves = config.churn.leaves.len() as u64;
    let departing = config.churn.departing();
    let owing: Vec<ProcessId> = kg
        .processes()
        .filter(|i| !faulty.contains(*i) && !departing.contains(*i))
        .collect();
    let report = sim.run_while(
        |s| {
            s.report().recoveries < want_recoveries
                || s.report().joins < want_joins
                || s.report().departures < want_leaves
                || !owing.iter().all(|&i| {
                    s.actor_as::<P::Actor>(i)
                        .is_some_and(|a| P::decision(a).is_some())
                })
        },
        config.max_ticks,
    );
    (readout::<P>(PhaseKind::Consensus, &mut sim, report), sim)
}

/// A finished phase's record, read out through the roster description;
/// only [`Phase::node_stats`] is left to the caller.
fn readout<P: Protocol>(kind: PhaseKind, sim: &mut Simulation<P::Msg>, report: SimReport) -> Phase {
    let journals = sim.take_journals();
    Phase {
        kind,
        decisions: read::<P, _>(sim, P::decision)
            .map(Option::flatten)
            .collect(),
        report,
        node_stats: Vec::new(),
        // A crash seat re-sends like the correct actor it wraps until it
        // stops, so its rounds count too. Only this counter reads through
        // the wrapper: a crash seat's decision and provenance are not a
        // correct process's.
        retransmissions: sim
            .knowledge_graph()
            .processes()
            .filter_map(|i| {
                sim.actor_as::<P::Actor>(i).or_else(|| {
                    sim.actor_as::<CrashActor<P::Actor>>(i)
                        .map(CrashActor::inner)
                })
            })
            .map(P::retransmissions)
            .sum(),
        journals,
        causal: sim.causal().clone(),
        provenance: read::<P, _>(sim, P::provenance)
            .map(Option::unwrap_or_default)
            .collect(),
    }
}

/// Phase 1: runs Algorithm 3 for every correct process and returns the
/// detections. Faulty processes stay silent, except under the `Crash`
/// adversary (correct until fail-stop) and the `Echo` adversary.
pub fn run_sink_detection(
    kg: &KnowledgeGraph,
    f: usize,
    faulty: &ProcessSet,
    config: &EndToEndConfig,
) -> (Vec<Option<SinkDetection>>, SimReport) {
    let (detections, phase) = run_knowledge_phase(kg, f, faulty, config);
    (detections, phase.report)
}

/// [`run_sink_detection`], returning the whole [`Phase`] record. Nobody
/// decides here, so the phase runs to quiescence, its decisions are all
/// `None`, and forensics never records it.
pub fn run_knowledge_phase(
    kg: &KnowledgeGraph,
    f: usize,
    faulty: &ProcessSet,
    config: &EndToEndConfig,
) -> (Vec<Option<SinkDetection>>, Phase) {
    let mut sim = seated(
        &SdProtocol::new(kg, f, config),
        kg,
        faulty,
        config,
        config.seed,
    );
    let report = sim.run_until_quiet(config.max_ticks);
    // A crash seat's detection counts too: it feeds the slices its SCP
    // node runs with until its own crash point.
    let detections = kg
        .processes()
        .map(|i| {
            sim.actor_as::<SinkDetectorActor>(i)
                .or_else(|| {
                    sim.actor_as::<CrashActor<SinkDetectorActor>>(i)
                        .map(CrashActor::inner)
                })
                .and_then(SinkDetectorActor::detection)
        })
        .collect();
    let phase = readout::<SdProtocol>(PhaseKind::Knowledge, &mut sim, report);
    (detections, phase)
}

/// Algorithm 2 applied to every detection of phase 1 (the empty family
/// where a process detected nothing).
pub fn slices_from_detections(detections: &[Option<SinkDetection>], f: usize) -> Vec<SliceFamily> {
    detections
        .iter()
        .map(|d| match d {
            Some(d) => build_slices(d, f),
            None => SliceFamily::empty(),
        })
        .collect()
}

/// The negative pipeline's slices: `strategy` applied to every `PD_i`.
pub fn local_slices(
    kg: &KnowledgeGraph,
    f: usize,
    strategy: LocalSliceStrategy,
) -> Vec<SliceFamily> {
    kg.processes()
        .map(|i| strategy.build(kg.pd(i), f))
        .collect()
}

/// Which of a run's simulations a [`Phase`] records. The discriminant is
/// the phase's lane in a trace's flow ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// The knowledge-increase phase ([`run_knowledge_phase`]).
    Knowledge = 0,
    /// The consensus phase ([`run_scp_with_slices_observed`], [`run_bftcup`]).
    Consensus = 1,
}

impl PhaseKind {
    /// The phase's name, as trace categories spell it.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Knowledge => "sink-detect",
            PhaseKind::Consensus => "consensus",
        }
    }
}

/// Everything observable from one simulation of a run — the one record
/// of a phase, from the simulator to the report. Each phase runs on its
/// own sim clock, starting at tick 0.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Which phase this is.
    pub kind: PhaseKind,
    /// Decided values (`None` if undecided, for faulty processes, and
    /// everywhere in the knowledge phase).
    pub decisions: Vec<Option<Value>>,
    /// Simulator metrics of the phase.
    pub report: SimReport,
    /// Per-node SCP message/ballot counters (defaults for faulty/non-SCP
    /// actors; empty for phases that run no SCP).
    pub node_stats: Vec<NodeStats>,
    /// Messages re-sent in this phase by the correct actors'
    /// retransmission layers, the ones crash seats wrap included.
    pub retransmissions: u64,
    /// Per-process durable journals.
    pub journals: Vec<MemJournal>,
    /// The phase's event log (disabled unless [`EndToEndConfig::trace`] or,
    /// in the consensus phase, [`EndToEndConfig::forensics`]).
    pub causal: CausalGraph,
    /// Per-process provenance logs (disabled unless
    /// [`EndToEndConfig::forensics`], and always in the knowledge phase).
    pub provenance: Vec<ProvenanceLog>,
}

/// Phase 3: runs SCP to externalization on `slices` (one family per
/// process), returning the phase's decisions and report, each correct
/// node's [`NodeStats`] counters (defaults for faulty/non-SCP actors), its
/// journals, its event log (under [`EndToEndConfig::trace`] or
/// [`EndToEndConfig::forensics`]) and — under the latter — the
/// decision-provenance logs.
pub fn run_scp_with_slices_observed(
    kg: &KnowledgeGraph,
    faulty: &ProcessSet,
    slices: Vec<SliceFamily>,
    inputs: &[Value],
    config: &EndToEndConfig,
) -> Phase {
    let protocol = ScpProtocol::new(&slices, inputs, config);
    let (mut phase, sim) = run_consensus(&protocol, kg, faulty, config, config.seed ^ 0x5eed);
    phase.node_stats = read::<ScpProtocol, _>(&sim, |node| *node.stats())
        .map(Option::unwrap_or_default)
        .collect();
    phase
}

/// The BFT-CUP baseline (Theorem 1) on the same graph, inputs and
/// configuration as the Stellar pipelines: discovery + quorum consensus
/// in the sink, dissemination to the outside. `stale_joiner` seats the
/// misconfiguration exhibit of [`BftProtocol::stale_joiner`].
pub fn run_bftcup(
    kg: &KnowledgeGraph,
    f: usize,
    faulty: &ProcessSet,
    inputs: &[Value],
    config: &EndToEndConfig,
    stale_joiner: Option<ProcessId>,
) -> Phase {
    let mut protocol = BftProtocol::new(kg, f, inputs, config);
    protocol.stale_joiner = stale_joiner;
    run_consensus(&protocol, kg, faulty, config, config.seed).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use scup_graph::generators;

    /// Agreement and termination: every correct process decided, and on
    /// one value.
    fn correct_agree(decisions: &[Option<Value>], faulty: &ProcessSet) -> bool {
        let mut correct = decisions
            .iter()
            .enumerate()
            .filter(|(i, _)| !faulty.contains(ProcessId::new(*i as u32)))
            .map(|(_, d)| *d);
        let first = correct.next().flatten();
        first.is_some() && correct.all(|d| d == first)
    }

    #[test]
    fn positive_pipeline_on_random_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..2u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (kg, faulty) = generators::random_byzantine_safe(5, 3, 1, &mut rng);
            let config = EndToEndConfig {
                seed,
                ..EndToEndConfig::default()
            };
            let (detections, _) = run_sink_detection(&kg, 1, &faulty, &config);
            let slices = slices_from_detections(&detections, 1);
            let inputs = default_inputs(kg.n());
            let scp = run_scp_with_slices_observed(&kg, &faulty, slices, &inputs, &config);
            assert!(correct_agree(&scp.decisions, &faulty), "seed={seed}");
        }
    }

    #[test]
    fn detector_crash_seat_retransmits_under_a_fault_plan() {
        use scup_graph::sink;
        use scup_sim::{bucket_of, LossFault};
        let kg = generators::fig2();
        let member = sink::unique_sink(kg.graph()).unwrap().to_vec()[0];
        let faulty = ProcessSet::singleton(member);
        let heal = 2_000;
        // Past every delivery of the phase: the seat runs the detector
        // to quiescence and never stops.
        let after = 100_000;
        let config = EndToEndConfig {
            seed: 3,
            adversary: AdversaryKind::Crash { after },
            faults: FaultPlan {
                loss: Some(LossFault {
                    prob: 0.3,
                    until: heal,
                    links: None,
                }),
                ..FaultPlan::default()
            },
            retransmit: RetransmitConfig::covering(heal, 10),
            ..EndToEndConfig::default()
        };
        let (detections, report) = run_sink_detection(&kg, 1, &faulty, &config);
        assert!(report.messages_delivered < after);
        assert!(report.messages_dropped > 0, "loss must bite");
        assert!(detections.iter().all(Option::is_some));
        // Every seat arms its first round once, at `base + jitter`; later
        // rounds double past that bucket.
        let base = config.retransmit.base;
        let first = bucket_of(base);
        assert_eq!(first, bucket_of(base + config.retransmit.jitter));
        assert!(bucket_of(2 * base) > first);
        assert_eq!(
            report.retransmit_delay_buckets[first],
            kg.n() as u64,
            "the crash seat arms its first round like every correct seat"
        );
    }

    #[test]
    fn negative_pipeline_can_disagree() {
        // Corollary 1 in execution: across seeds, local slices must
        // produce at least one disagreement on Fig. 2.
        let kg = generators::fig2();
        let none = ProcessSet::new();
        let mut disagreements = 0;
        for seed in 0..12 {
            let config = EndToEndConfig {
                seed,
                gst: 80,
                inputs: Some(vec![1, 1, 1, 1, 104, 105, 106]),
                ..EndToEndConfig::default()
            };
            let slices = local_slices(&kg, 1, LocalSliceStrategy::AllButOne);
            let inputs = config.inputs.as_deref().unwrap();
            let scp = run_scp_with_slices_observed(&kg, &none, slices, inputs, &config);
            let decided = scp.decisions.iter().flatten().count();
            if decided == kg.n() && !correct_agree(&scp.decisions, &none) {
                disagreements += 1;
            }
        }
        assert!(
            disagreements > 0,
            "local slices must break agreement on some schedule"
        );
    }
}
