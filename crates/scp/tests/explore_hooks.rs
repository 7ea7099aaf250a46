//! Exploration-hook honesty for `ScpNode`, the SCP twin of the BFT-CUP
//! test in `scup-cup`: the explorer retires deliveries an actor declares
//! absorbed *without calling the actor*, so the declaration has to be
//! true. Every event `is_absorbed` reports is delivered here through the
//! ordinary `fire` path — which always runs `on_message` — and must emit
//! nothing and leave every actor fingerprint and the rest of the pending
//! multiset bit-identical.

use scup_fbqs::SliceFamily;
use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};
use scup_scp::{ScpConfig, ScpMsg, ScpNode};
use scup_sim::{Actor, ExploreSim, StateHasher};

/// Three proposers on the directed 3-cycle, Algorithm-2 slices of a
/// 3-member sink at `f = 0` — `sink3-proposers` of `campaigns/explore.toml`.
fn scp_cycle_sim() -> ExploreSim<ScpMsg> {
    let kg = KnowledgeGraph::from_pds(
        (0..3)
            .map(|i| ProcessSet::from_ids([(i + 1) % 3]))
            .collect(),
    );
    let mut sim = ExploreSim::new(kg, 0);
    for _ in 0..3 {
        let slices = SliceFamily::all_subsets(ProcessSet::from_ids([0, 1, 2]), 2);
        sim.add_actor(Box::new(ScpNode::new(ScpConfig::new(slices, 7))));
    }
    sim.start();
    sim
}

fn actor_prints(sim: &ExploreSim<ScpMsg>) -> Vec<u128> {
    (0..3u32)
        .map(|i| {
            let node = sim.actor_as::<ScpNode>(ProcessId::new(i)).unwrap();
            let mut h = StateHasher::new();
            Actor::fingerprint(node, &mut h);
            h.finish()
        })
        .collect()
}

fn pending_hashes(sim: &ExploreSim<ScpMsg>) -> Vec<u128> {
    (0..sim.pending().len())
        .map(|i| sim.pending_hash(i))
        .collect()
}

#[test]
fn absorbed_scp_deliveries_are_noops_when_actually_delivered() {
    let mut sim = scp_cycle_sim();
    let mut absorbed = 0;
    let mut guard = 0;
    while !sim.is_quiescent() {
        let mut idx = 0;
        while idx < sim.pending().len() {
            if !sim.is_absorbed(idx) {
                idx += 1;
                continue;
            }
            let prints = actor_prints(&sim);
            let knowledge: Vec<ProcessSet> = (0..3)
                .map(|i| sim.known(ProcessId::new(i)).clone())
                .collect();
            let mut rest = pending_hashes(&sim);
            rest.remove(idx);
            assert_eq!(sim.fire(idx), 0, "absorbed delivery must emit nothing");
            assert_eq!(actor_prints(&sim), prints, "absorbed delivery is a no-op");
            assert_eq!(pending_hashes(&sim), rest);
            for (i, known) in knowledge.iter().enumerate() {
                assert_eq!(sim.known(ProcessId::new(i as u32)), known);
            }
            absorbed += 1;
        }
        // Rotate through the choices so the schedule is not one node's
        // flood drained to the end before the next node moves.
        let choices = sim.choices();
        if !choices.is_empty() {
            sim.fire(choices[guard % choices.len()]);
        }
        guard += 1;
        assert!(guard < 100_000);
    }
    assert!(
        absorbed > 50,
        "the 3-cycle flood is mostly duplicates, saw {absorbed}"
    );
    for i in 0..3u32 {
        let node = sim.actor_as::<ScpNode>(ProcessId::new(i)).unwrap();
        assert_eq!(node.externalized(), Some(7), "process {i} decides");
    }
}
