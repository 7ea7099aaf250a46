//! Scenario → system: the one instantiation path.
//!
//! [`System::of`] turns a declarative [`Scenario`] and a seed into the
//! concrete system a host runs — resolve the adversary, instantiate the
//! topology, place the faults, lower and validate both plans (once),
//! resolve the inputs, build the [`EndToEndConfig`]. The sampling runner,
//! the forensic re-run, the Perfetto export and the explorer's setup all
//! start here, so they cannot disagree about what a scenario means.

use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};
use scup_scp::Value;
use stellar_cup::consensus::EndToEndConfig;
use stellar_cup::sink_detector::GetSinkMode;

use crate::adversary::{AdversaryKind, AdversaryRegistry};
use crate::scenario::{retransmit_for, ChurnSpec, FaultSpec, NetworkSpec, ProtocolSpec, Scenario};
use crate::topology;

/// One `(scenario, seed)` instantiated.
#[derive(Debug, Clone)]
pub struct System {
    /// The knowledge graph.
    pub kg: KnowledgeGraph,
    /// Fault threshold.
    pub f: usize,
    /// The faulty processes.
    pub faulty: ProcessSet,
    /// The protocol to run.
    pub protocol: ProtocolSpec,
    /// Adversary, inputs, network timing, the lowered (and validated)
    /// fault and churn plans, and the retransmission schedule. `trace`
    /// and `forensics` are off; callers that want them switch them on.
    pub config: EndToEndConfig,
    /// The churn spec's `stale_joiner` exhibit, resolved to its process.
    pub stale_joiner: Option<ProcessId>,
}

impl System {
    /// Instantiates `scenario` for one seed.
    ///
    /// # Errors
    ///
    /// Returns a description when the scenario cannot be configured: an
    /// unknown adversary, an unsatisfiable fault placement, a fault
    /// threshold no smaller than the system, or network timing, topology
    /// parameters, a fault plan or a churn plan the simulator or a
    /// generator would reject (they panic on a bad one; validating here
    /// turns `delta = 0`, `sink <= k` or an out-of-range id into an error).
    pub fn of(
        scenario: &Scenario,
        seed: u64,
        registry: &AdversaryRegistry,
    ) -> Result<System, String> {
        let adversary = registry.resolve(&scenario.adversary)?;
        scenario
            .network
            .validate()
            .and_then(|()| scenario.topology.validate(scenario.f))
            .map_err(|e| format!("scenario `{}`: {e}", scenario.name))?;
        let (kg, generated) = topology::instantiate(&scenario.topology, scenario.f, seed);
        if scenario.f >= kg.n() {
            // Thresholds like `4 (f + 1)` would overflow on a huge one.
            let name = &scenario.name;
            return Err(format!(
                "scenario `{name}`: `f` must be below n = {}",
                kg.n()
            ));
        }
        let faulty = topology::place_faults(&scenario.faults, &kg, generated, seed)?;
        let config = end_to_end_config(
            &kg,
            adversary,
            &scenario.network,
            &scenario.fault_plan,
            &scenario.churn,
            scenario.resolved_inputs(kg.n()),
            seed,
        );
        config.faults.validate(kg.n())?;
        config.churn.validate(kg.n())?;
        Ok(System {
            stale_joiner: stale_joiner(&scenario.churn, &faulty),
            kg,
            f: scenario.f,
            faulty,
            protocol: scenario.protocol,
            config,
        })
    }

    /// The per-process proposals.
    pub fn inputs(&self) -> &[Value] {
        self.config
            .inputs
            .as_deref()
            .expect("`System::of` resolves the inputs")
    }
}

/// The run configuration of one `(scenario, seed)`: each plan lowered
/// exactly once.
pub(crate) fn end_to_end_config(
    kg: &KnowledgeGraph,
    adversary: AdversaryKind,
    network: &NetworkSpec,
    fault_plan: &FaultSpec,
    churn: &ChurnSpec,
    inputs: Vec<Value>,
    seed: u64,
) -> EndToEndConfig {
    let faults = fault_plan.to_plan();
    EndToEndConfig {
        seed,
        gst: network.gst,
        delta: network.delta,
        get_sink_mode: GetSinkMode::Direct,
        adversary,
        inputs: Some(inputs),
        max_ticks: network.max_ticks,
        trace: false,
        retransmit: retransmit_for(&faults, network),
        faults,
        churn: churn.to_plan(kg),
        forensics: false,
    }
}

/// The `stale_joiner` exhibit's seat: the first scheduled joiner, unless
/// it is faulty anyway.
pub(crate) fn stale_joiner(churn: &ChurnSpec, faulty: &ProcessSet) -> Option<ProcessId> {
    churn
        .stale_joiner
        .then(|| churn.joins.first().copied().map(ProcessId::new))
        .flatten()
        .filter(|j| !faulty.contains(*j))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delta_is_an_error_not_a_panic_in_every_run() {
        let scenario = Scenario {
            name: "instant".into(),
            network: NetworkSpec {
                delta: 0,
                ..NetworkSpec::default()
            },
            ..Scenario::default()
        };
        let err = System::of(&scenario, 0, &AdversaryRegistry::builtin()).unwrap_err();
        assert_eq!(err, "scenario `instant`: `delta` must be at least 1");
    }

    #[test]
    fn bad_topology_parameters_are_an_error_not_a_panic_in_every_run() {
        use crate::scenario::TopologySpec as T;
        let cases = [
            (
                T::ByzantineSafe {
                    sink: 0,
                    nonsink: 2,
                },
                "topology `byzantine-safe` needs sink >= 3f + 2 = 5",
            ),
            (
                T::RandomKosr {
                    sink: 3,
                    nonsink: 2,
                    k: 5,
                    extra_edge_prob: 0.0,
                },
                "topology `random-kosr` needs sink > k",
            ),
            // Used to pass vacuously: no process, no message, no violation.
            (
                T::ErdosRenyi { n: 0, p: 0.5 },
                "topology `erdos-renyi` needs n >= 1",
            ),
        ];
        for (topology, needle) in cases {
            let scenario = Scenario {
                name: "typo".into(),
                topology,
                ..Scenario::default()
            };
            let err = System::of(&scenario, 0, &AdversaryRegistry::builtin()).unwrap_err();
            assert_eq!(err, format!("scenario `typo`: {needle}"));
        }
    }
}
