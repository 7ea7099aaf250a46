//! Pins for the explorer's copy-on-write slots and hash memos: along
//! random interleavings of every operation that reads or writes an
//! [`ExploreSim`], the memoised `state_hash` / `state_hash_perm` equal the
//! from-scratch oracle at every step, and a delivery after a restore
//! leaves every slot but the recipient's the very one the snapshot holds.
//!
//! Run on a toy flooding actor over Fig. 1 (8 processes, arbitrary
//! renamings) and on real `ScpNode`s over the directed 3-cycle with its
//! rotation group — the `sink3-proposers` configuration of
//! `campaigns/explore.toml`.

use proptest::prelude::*;
use scup_fbqs::SliceFamily;
use scup_graph::{generators, KnowledgeGraph, ProcessId, ProcessSet};
use scup_scp::{ScpConfig, ScpMsg, ScpNode};
use scup_sim::{Actor, Context, ExploreSim, Perm, SimMessage, SimState, StateHasher};

#[derive(Clone, Debug, PartialEq)]
struct Gossip(u32);

impl SimMessage for Gossip {
    fn fingerprint(&self, h: &mut StateHasher) {
        h.write_id(ProcessId::new(self.0));
    }
}

/// Floods every newly seen process id to all known processes once. Its
/// state mentions process ids, so they go in through `write_set`.
#[derive(Clone, Default)]
struct Flooder {
    seen: ProcessSet,
}

impl Actor<Gossip> for Flooder {
    fn on_start(&mut self, ctx: &mut Context<'_, Gossip>) {
        self.seen.insert(ctx.self_id());
        ctx.broadcast_known(Gossip(ctx.self_id().as_u32()));
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Gossip>, _from: ProcessId, msg: Gossip) {
        if self.seen.insert(ProcessId::new(msg.0)) {
            ctx.broadcast_known(msg);
        }
    }
    fn fork(&self) -> Option<Box<dyn Actor<Gossip>>> {
        Some(Box::new(self.clone()))
    }
    fn fingerprint(&self, h: &mut StateHasher) {
        h.write_set(&self.seen);
    }
    fn absorbs(&self, _: ProcessId, _: &ProcessSet, _: ProcessId, msg: &Gossip) -> bool {
        self.seen.contains(ProcessId::new(msg.0))
    }
}

fn flooder_sim() -> ExploreSim<Gossip> {
    let mut sim = ExploreSim::new(generators::fig1(), 0);
    for _ in 0..8 {
        sim.add_actor(Box::new(Flooder::default()));
    }
    sim
}

/// Three `ScpNode`s on the directed 3-cycle, each proposing 7 with the
/// Algorithm-2 slices of a 3-member sink at `f = 0` (any 2 of the 3), and
/// one timer each so timer events and budgets are on the hashed path.
fn scp_cycle_sim() -> ExploreSim<ScpMsg> {
    let kg = KnowledgeGraph::from_pds(
        (0..3)
            .map(|i| ProcessSet::from_ids([(i + 1) % 3]))
            .collect(),
    );
    let mut sim = ExploreSim::new(kg, 1);
    for _ in 0..3 {
        let slices = SliceFamily::all_subsets(ProcessSet::from_ids([0, 1, 2]), 2);
        sim.add_actor(Box::new(ScpNode::new(ScpConfig::new(slices, 7))));
    }
    sim
}

/// Every hash the explorer can ask for equals its from-scratch oracle.
fn assert_memo_matches_oracle<M: SimMessage>(sim: &ExploreSim<M>, group: &[Perm], step: usize) {
    assert_eq!(
        sim.state_hash(),
        sim.state_hash_from_scratch(None),
        "identity hash after op {step}"
    );
    for (k, perm) in group.iter().enumerate() {
        assert_eq!(
            sim.state_hash_perm(k, perm),
            sim.state_hash_from_scratch(Some(perm)),
            "hash under group element {k} after op {step}"
        );
    }
}

/// Applies `ops` — `(kind, argument)` pairs — to `sim`, checking the memo
/// against the oracle after every one and the sharing invariant after
/// every restore. `write` is the test's `actor_as_mut` operation on
/// process `i`.
fn drive<M: SimMessage>(
    mut sim: ExploreSim<M>,
    group: &[Perm],
    ops: &[(u32, u32)],
    write: impl Fn(&mut ExploreSim<M>, ProcessId),
) {
    let n = sim.n();
    let mut saved: Vec<(SimState<M>, u128)> = Vec::new();
    sim.start();
    assert_memo_matches_oracle(&sim, group, 0);
    for (step, &(kind, arg)) in ops.iter().enumerate() {
        let arg = arg as usize;
        let pending = sim.pending().len();
        match kind {
            0 | 1 if pending > 0 => {
                if kind == 0 {
                    sim.fire(arg % pending);
                } else {
                    sim.fire_uncounted(arg % pending);
                }
            }
            2 => {
                sim.drain_absorbed();
            }
            3 => saved.push((sim.snapshot(), sim.state_hash())),
            4 if !saved.is_empty() => {
                let (state, hash) = &saved[arg % saved.len()];
                sim.restore(state);
                assert_eq!(sim.state_hash(), *hash, "restore rewinds bit-identically");
                assert!((0..n).all(|i| sim.shares_slot(state, ProcessId::new(i as u32))));
                // One delivery writes — and so un-shares — one slot.
                if !sim.is_quiescent() {
                    let idx = arg % sim.pending().len();
                    let to = sim.pending_at(idx).recipient();
                    sim.fire(idx);
                    for i in (0..n).map(|i| ProcessId::new(i as u32)) {
                        assert_eq!(
                            sim.shares_slot(state, i),
                            i != to,
                            "slot {i} after op {step}"
                        );
                    }
                }
            }
            5 => write(&mut sim, ProcessId::new((arg % n) as u32)),
            _ => {}
        }
        assert_memo_matches_oracle(&sim, group, step + 1);
    }
    // No write through the live simulation ever reached a saved state.
    for (state, hash) in &saved {
        sim.restore(state);
        assert_eq!(sim.state_hash(), *hash);
        assert_eq!(sim.state_hash_from_scratch(None), *hash);
    }
}

fn ops() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..6, 0u32..1000), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flooder_memo_and_sharing_match_the_oracle(ops in ops()) {
        // Arbitrary renamings (the memo is sound for any permutation, not
        // only automorphisms), an explicit identity among them.
        let group = [
            Perm::from_map(vec![1, 2, 3, 4, 5, 6, 7, 0]),
            Perm::from_map(vec![1, 0, 2, 3, 4, 5, 6, 7]),
            Perm::identity(8),
            Perm::from_map(vec![7, 6, 5, 4, 3, 2, 1, 0]),
        ];
        drive(flooder_sim(), &group, &ops, |sim, i| {
            // A real state change behind the simulation's back: the memo
            // must not survive it.
            let flooder = sim.actor_as_mut::<Flooder>(i).expect("a flooder");
            flooder.seen.insert(ProcessId::new(7 - i.as_u32()));
        });
    }

    #[test]
    fn scp_node_memo_and_sharing_match_the_oracle(ops in ops()) {
        let rotations = [Perm::from_map(vec![1, 2, 0]), Perm::from_map(vec![2, 0, 1])];
        drive(scp_cycle_sim(), &rotations, &ops, |sim, i| {
            // What the counterexample replay does through `actor_as_mut`.
            sim.actor_as_mut::<ScpNode>(i).expect("an scp node").enable_provenance();
        });
    }
}
