//! Topology instantiation and fault placement.
//!
//! [`instantiate`] turns a [`TopologySpec`] into a concrete
//! [`KnowledgeGraph`] using the run's seed, and [`place_faults`] turns a
//! [`FaultPlacement`] into a concrete faulty [`ProcessSet`] — both fully
//! deterministic in `(spec, seed)`, independent of thread scheduling.

use rand::rngs::StdRng;
use rand::seq::IteratorRandom as _;
use rand::SeedableRng as _;
use scup_graph::{generators, sink, KnowledgeGraph, ProcessSet};

use crate::scenario::{FaultPlacement, TopologySpec};

/// Instantiates a topology for one run. Returns the knowledge graph and,
/// for generator families that draw one, the generator's faulty set.
pub fn instantiate(
    spec: &TopologySpec,
    f: usize,
    seed: u64,
) -> (KnowledgeGraph, Option<ProcessSet>) {
    // Decorrelate topology randomness from protocol-schedule randomness.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0070_9010_7090);
    match spec {
        TopologySpec::Fig1 => (generators::fig1(), None),
        TopologySpec::Fig2 => (generators::fig2(), None),
        TopologySpec::Fig2Family { sink, outer } => (generators::fig2_family(*sink, *outer), None),
        TopologySpec::RandomKosr {
            sink,
            nonsink,
            k,
            extra_edge_prob,
        } => {
            let config =
                generators::KosrConfig::new(*sink, *nonsink, *k).with_extra_edges(*extra_edge_prob);
            (generators::random_kosr(&config, &mut rng), None)
        }
        TopologySpec::ByzantineSafe { sink, nonsink } => {
            let (kg, faulty) = generators::random_byzantine_safe(*sink, *nonsink, f, &mut rng);
            (kg, Some(faulty))
        }
        TopologySpec::ErdosRenyi { n, p } => (
            KnowledgeGraph::from_graph(generators::erdos_renyi(*n, *p, &mut rng)),
            None,
        ),
        TopologySpec::ScaleFree { n, m } => (generators::scale_free(*n, *m, &mut rng), None),
        TopologySpec::Clustered {
            clusters,
            cluster_size,
            bridges,
            intra_extra_prob,
            inter_extra_prob,
        } => {
            let config = generators::ClusteredConfig::new(*clusters, *cluster_size, *bridges)
                .with_extra_edges(*intra_extra_prob, *inter_extra_prob);
            (generators::clustered(&config, &mut rng), None)
        }
        TopologySpec::PerturbedFig1 {
            additions,
            deletions,
        } => {
            let config = generators::PerturbConfig {
                k: 1,
                additions: *additions,
                deletions: *deletions,
            };
            (
                generators::perturb_kosr(&generators::fig1(), &config, &mut rng),
                None,
            )
        }
        TopologySpec::PerturbedFig2 {
            additions,
            deletions,
        } => {
            let config = generators::PerturbConfig {
                k: 3,
                additions: *additions,
                deletions: *deletions,
            };
            (
                generators::perturb_kosr(&generators::fig2(), &config, &mut rng),
                None,
            )
        }
    }
}

/// Resolves a fault placement against a concrete graph.
///
/// # Errors
///
/// Returns a description when the placement is unsatisfiable (more faults
/// than candidates, fixed ids out of range, or `Generator` on a family
/// that draws no faulty set).
pub fn place_faults(
    placement: &FaultPlacement,
    kg: &KnowledgeGraph,
    generated: Option<ProcessSet>,
    seed: u64,
) -> Result<ProcessSet, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00FA_0175);
    let n = kg.n();
    match placement {
        FaultPlacement::None => Ok(ProcessSet::new()),
        FaultPlacement::Generator => generated.ok_or_else(|| {
            "fault placement `generator` needs a topology family that draws a faulty set \
             (byzantine-safe)"
                .to_string()
        }),
        FaultPlacement::Random { count } => {
            pick(kg.graph().vertex_set(), *count, &mut rng, "processes")
        }
        FaultPlacement::Sink { count } => {
            let s = sink::unique_sink(kg.graph())
                .ok_or_else(|| "fault placement `sink` needs a unique sink".to_string())?;
            pick(s, *count, &mut rng, "sink members")
        }
        FaultPlacement::NonSink { count } => {
            let s = sink::unique_sink(kg.graph())
                .ok_or_else(|| "fault placement `nonsink` needs a unique sink".to_string())?;
            pick(
                kg.graph().vertex_set().difference(&s),
                *count,
                &mut rng,
                "non-sink members",
            )
        }
        FaultPlacement::Ids(ids) => {
            let mut set = ProcessSet::new();
            for &id in ids {
                if id as usize >= n {
                    return Err(format!("faulty id {id} out of range (n = {n})"));
                }
                set.insert(scup_graph::ProcessId::new(id));
            }
            Ok(set)
        }
    }
}

fn pick(
    candidates: ProcessSet,
    count: usize,
    rng: &mut StdRng,
    what: &str,
) -> Result<ProcessSet, String> {
    if candidates.len() < count {
        return Err(format!(
            "cannot place {count} faults among {} {what}",
            candidates.len()
        ));
    }
    Ok(candidates.iter().sample(rng, count).into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TopologySpec as T;

    #[test]
    fn instantiation_is_deterministic_per_seed() {
        let spec = T::RandomKosr {
            sink: 6,
            nonsink: 5,
            k: 2,
            extra_edge_prob: 0.1,
        };
        let (a, _) = instantiate(&spec, 1, 42);
        let (b, _) = instantiate(&spec, 1, 42);
        assert_eq!(a.graph(), b.graph());
        let (c, _) = instantiate(&spec, 1, 43);
        assert_ne!(a.graph(), c.graph());
    }

    #[test]
    fn every_family_instantiates() {
        let specs = [
            T::Fig1,
            T::Fig2,
            T::Fig2Family { sink: 4, outer: 4 },
            T::RandomKosr {
                sink: 5,
                nonsink: 4,
                k: 2,
                extra_edge_prob: 0.0,
            },
            T::ByzantineSafe {
                sink: 5,
                nonsink: 3,
            },
            T::ErdosRenyi { n: 10, p: 0.25 },
            T::ScaleFree { n: 20, m: 2 },
            T::Clustered {
                clusters: 3,
                cluster_size: 4,
                bridges: 1,
                intra_extra_prob: 0.2,
                inter_extra_prob: 0.0,
            },
            T::PerturbedFig1 {
                additions: 5,
                deletions: 2,
            },
            T::PerturbedFig2 {
                additions: 5,
                deletions: 2,
            },
        ];
        for spec in specs {
            let (kg, generated) = instantiate(&spec, 1, 7);
            assert!(kg.n() >= 7, "{spec:?}");
            assert_eq!(
                generated.is_some(),
                matches!(spec, T::ByzantineSafe { .. }),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn fault_placements_resolve() {
        let (kg, _) = instantiate(&T::Fig1, 1, 1);
        let sink_set = sink::unique_sink(kg.graph()).unwrap();

        assert!(place_faults(&FaultPlacement::None, &kg, None, 1)
            .unwrap()
            .is_empty());
        let r = place_faults(&FaultPlacement::Random { count: 2 }, &kg, None, 1).unwrap();
        assert_eq!(r.len(), 2);
        let s = place_faults(&FaultPlacement::Sink { count: 1 }, &kg, None, 1).unwrap();
        assert!(s.is_subset(&sink_set));
        let ns = place_faults(&FaultPlacement::NonSink { count: 2 }, &kg, None, 1).unwrap();
        assert!(ns.is_disjoint(&sink_set));
        let ids = place_faults(&FaultPlacement::Ids(vec![0, 3]), &kg, None, 1).unwrap();
        assert_eq!(ids.len(), 2);

        assert!(place_faults(&FaultPlacement::Ids(vec![99]), &kg, None, 1).is_err());
        assert!(place_faults(&FaultPlacement::Generator, &kg, None, 1).is_err());
        assert!(place_faults(&FaultPlacement::Random { count: 100 }, &kg, None, 1).is_err());
    }

    #[test]
    fn fault_placement_is_deterministic() {
        let (kg, _) = instantiate(&T::Fig2, 1, 5);
        let a = place_faults(&FaultPlacement::Random { count: 3 }, &kg, None, 9).unwrap();
        let b = place_faults(&FaultPlacement::Random { count: 3 }, &kg, None, 9).unwrap();
        assert_eq!(a, b);
    }
}
