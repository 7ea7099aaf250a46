//! Exploration-hook unit tests for the CUP stack, mirroring the SCP ones
//! in `scup-sim`: `Actor::fork` round-trip isolation (mutating a fork
//! never perturbs the parent), state-hash stability across independent
//! rebuilds (the determinism regression test for the dispatch path), and
//! `absorbs` correctness for duplicate sink messages (an absorbed
//! delivery is a complete no-op on the fingerprinted state).

use scup_cup::bftcup::{BftConfig, BftCupActor, BftMsg, EquivocatingLeader};
use scup_cup::discovery::{SinkActor, SinkCore, SinkMsg};
use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};
use scup_sim::{Actor, ExploreSim, StateHasher};

fn clique(n: u32) -> KnowledgeGraph {
    KnowledgeGraph::from_pds(
        (0..n)
            .map(|i| ProcessSet::from_ids((0..n).filter(move |&j| j != i)))
            .collect(),
    )
}

/// A 3-clique of correct BFT-CUP processes, `f = 0`.
fn bftcup_sim() -> ExploreSim<BftMsg> {
    let kg = clique(3);
    let mut sim = ExploreSim::new(kg.clone(), 0);
    for i in kg.processes() {
        sim.add_actor(Box::new(BftCupActor::new(
            kg.pd(i).clone(),
            100 + i.as_u32() as u64,
            BftConfig::new(0, 400),
        )));
    }
    sim.start();
    sim
}

/// A 4-clique sink with the view-0 leader (process 0) equivocating,
/// `f = 1` — the adversary's fork/fingerprint hooks ride along.
fn equiv_leader_sim() -> ExploreSim<BftMsg> {
    let kg = clique(4);
    let mut sim = ExploreSim::new(kg.clone(), 0);
    for i in kg.processes() {
        if i.as_u32() == 0 {
            sim.add_actor(Box::new(EquivocatingLeader::new(
                kg.pd(i).clone(),
                1,
                (666, 777),
            )));
        } else {
            sim.add_actor(Box::new(BftCupActor::new(
                kg.pd(i).clone(),
                100 + i.as_u32() as u64,
                BftConfig::new(1, 400),
            )));
        }
    }
    sim.start();
    sim
}

/// A 3-clique of correct `SINK` processes, `f = 0` (everyone is a sink
/// member and reaches a verdict).
fn sink_sim() -> ExploreSim<SinkMsg> {
    let kg = clique(3);
    let mut sim = ExploreSim::new(kg.clone(), 0);
    for i in kg.processes() {
        sim.add_actor(Box::new(SinkActor::new(kg.pd(i).clone(), 0)));
    }
    sim.start();
    sim
}

fn canonical_step<M: scup_sim::SimMessage>(sim: &mut ExploreSim<M>) {
    sim.drain_absorbed();
    if let Some(&idx) = sim.choices().first() {
        sim.fire(idx);
    }
}

#[test]
fn bftcup_fork_round_trip_isolation() {
    // Snapshot mid-run, drive the restored fork well past the snapshot
    // point (mutating every forked actor), then restore again: the
    // snapshot must be untouched by the fork's mutations.
    let mut sim = equiv_leader_sim();
    for _ in 0..6 {
        canonical_step(&mut sim);
    }
    let snap = sim.snapshot();
    let h0 = sim.state_hash();
    for _ in 0..10 {
        canonical_step(&mut sim);
    }
    assert_ne!(sim.state_hash(), h0, "the fork must actually diverge");
    sim.restore(&snap);
    assert_eq!(sim.state_hash(), h0, "restore rewinds bit-identically");
    // And the restored state evolves exactly like the first fork did.
    canonical_step(&mut sim);
    let h1 = sim.state_hash();
    sim.restore(&snap);
    canonical_step(&mut sim);
    assert_eq!(sim.state_hash(), h1);
}

#[test]
fn bftcup_state_hash_is_stable_across_rebuilds() {
    let mut a = bftcup_sim();
    let mut b = bftcup_sim();
    let mut guard = 0;
    while !a.is_quiescent() {
        assert_eq!(a.state_hash(), b.state_hash());
        a.drain_absorbed();
        b.drain_absorbed();
        assert_eq!(a.state_hash(), b.state_hash());
        let (ca, cb) = (a.choices(), b.choices());
        assert_eq!(ca, cb);
        if ca.is_empty() {
            break;
        }
        a.fire(ca[0]);
        b.fire(cb[0]);
        guard += 1;
        assert!(guard < 100_000);
    }
    // The canonical schedule carries the clique to a decision.
    for i in 0..3u32 {
        assert!(
            a.actor_as::<BftCupActor>(ProcessId::new(i))
                .unwrap()
                .decision()
                .is_some(),
            "process {i} must decide on the canonical schedule"
        );
    }
}

#[test]
fn sink_state_hash_is_stable_across_rebuilds() {
    let mut a = sink_sim();
    let mut b = sink_sim();
    let mut guard = 0;
    while !a.is_quiescent() {
        assert_eq!(a.state_hash(), b.state_hash());
        a.drain_absorbed();
        b.drain_absorbed();
        assert_eq!(a.state_hash(), b.state_hash());
        let (ca, cb) = (a.choices(), b.choices());
        assert_eq!(ca, cb);
        if ca.is_empty() {
            break;
        }
        a.fire(ca[0]);
        b.fire(cb[0]);
        guard += 1;
        assert!(guard < 100_000);
    }
    for i in 0..3u32 {
        assert!(
            a.actor_as::<SinkActor>(ProcessId::new(i))
                .unwrap()
                .verdict()
                .is_some(),
            "sink member {i} must reach a verdict"
        );
    }
}

fn core_fingerprint(core: &SinkCore) -> u128 {
    let mut h = StateHasher::new();
    core.fingerprint(&mut h);
    h.finish()
}

#[test]
fn duplicate_sink_messages_absorb_as_noops() {
    let p = ProcessId::new;
    let mut core = SinkCore::new(p(0), ProcessSet::from_ids([1, 2]), 0);
    core.start();

    // A fresh reply is NOT absorbed (it grows `replied`).
    let reply1 = SinkMsg::DiscoverReply(ProcessSet::from_ids([0, 2]));
    assert!(!core.absorbs_msg(p(1), &reply1));
    core.on_message(p(1), reply1.clone());

    // The exact duplicate absorbs: sender counted, payload known — and
    // absorption means a genuine no-op on the fingerprinted state.
    assert!(core.absorbs_msg(p(1), &reply1));
    let h = core_fingerprint(&core);
    let out = core.on_message(p(1), reply1.clone());
    assert!(out.is_empty(), "absorbed delivery must emit nothing");
    assert_eq!(core_fingerprint(&core), h, "absorbed delivery is a no-op");

    // A known-subset payload from the counted sender also absorbs; the
    // same payload from a sender that has NOT replied does not.
    let subset = SinkMsg::DiscoverReply(ProcessSet::from_ids([2]));
    assert!(core.absorbs_msg(p(1), &subset));
    assert!(!core.absorbs_msg(p(2), &subset));

    // Complete discovery; the termination rule fires the check phase.
    core.on_message(p(2), SinkMsg::DiscoverReply(ProcessSet::from_ids([0, 1])));
    let all = ProcessSet::from_ids([0, 1, 2]);

    // Pre-verdict check replies are live state — never absorbed.
    assert!(!core.absorbs_msg(p(1), &SinkMsg::CheckReply(all.clone())));
    core.on_message(p(1), SinkMsg::CheckReply(all.clone()));
    core.on_message(p(2), SinkMsg::CheckReply(all.clone()));
    assert!(core.verdict().is_some(), "3 matching echoes, f = 0");

    // Post-verdict, every check reply (even a lying one) absorbs: the
    // verdict is write-once and `echoes` is dead state.
    let h = core_fingerprint(&core);
    for echo in [all, ProcessSet::from_ids([0])] {
        let msg = SinkMsg::CheckReply(echo);
        assert!(core.absorbs_msg(p(2), &msg));
        let out = core.on_message(p(2), msg);
        assert!(out.is_empty());
        assert_eq!(core_fingerprint(&core), h);
    }
}

#[test]
fn absorbed_bftcup_deliveries_leave_actor_fingerprints_unchanged() {
    // End-to-end absorption soundness on the composite actor. The
    // explorer retires absorbed deliveries without calling the actor, so
    // the claim is checked here the explicit way: every event
    // `is_absorbed` reports is delivered through the ordinary `fire`
    // path — which always runs `on_message` — and must emit nothing and
    // leave every actor fingerprint and the rest of the pending multiset
    // bit-identical.
    let actor_prints = |sim: &ExploreSim<BftMsg>| -> Vec<u128> {
        (0..3u32)
            .map(|i| {
                let a = sim.actor_as::<BftCupActor>(ProcessId::new(i)).unwrap();
                let mut h = StateHasher::new();
                Actor::fingerprint(a, &mut h);
                h.finish()
            })
            .collect()
    };
    let pending_hashes = |sim: &ExploreSim<BftMsg>| -> Vec<u128> {
        (0..sim.pending().len())
            .map(|i| sim.pending_hash(i))
            .collect()
    };
    let mut sim = bftcup_sim();
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
            let mut rest = pending_hashes(&sim);
            rest.remove(idx);
            assert_eq!(sim.fire(idx), 0, "absorbed delivery must emit nothing");
            assert_eq!(actor_prints(&sim), prints, "absorbed delivery is a no-op");
            assert_eq!(pending_hashes(&sim), rest);
            absorbed += 1;
        }
        if let Some(&idx) = sim.choices().first() {
            sim.fire(idx);
        }
        guard += 1;
        assert!(guard < 100_000);
    }
    assert!(
        absorbed > 0,
        "the clique schedule must produce duplicate discovery traffic"
    );
}
