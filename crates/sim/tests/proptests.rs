//! Property-based tests for the simulator: determinism, the partial
//! synchrony delivery bound, knowledge monotonicity, and the log₂ bucket
//! layout of the retransmit-delay histogram.

use proptest::prelude::*;
use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};
use scup_sim::{
    bucket_bounds, bucket_of, Actor, Context, NetworkConfig, SimMessage, Simulation, TraceEvent,
    HIST_BUCKETS,
};

#[derive(Clone, Debug, PartialEq)]
struct Tick(u32);
impl SimMessage for Tick {}

/// Every actor floods a counter `rounds` times (re-flooding on receipt up
/// to the bound), generating enough traffic to exercise the scheduler.
struct Chatter {
    remaining: u32,
    seen: u32,
}

impl Chatter {
    fn new(rounds: u32) -> Self {
        Chatter {
            remaining: rounds,
            seen: 0,
        }
    }
}

impl Actor<Tick> for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.broadcast_known(Tick(0));
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Tick>, _from: ProcessId, msg: Tick) {
        self.seen += 1;
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.broadcast_known(Tick(msg.0 + 1));
        }
    }
}

fn ring_kg(n: usize) -> KnowledgeGraph {
    let pds = (0..n)
        .map(|i| ProcessSet::from_ids([((i + 1) % n) as u32]))
        .collect();
    KnowledgeGraph::from_pds(pds)
}

fn run(n: usize, gst: u64, delta: u64, seed: u64, rounds: u32) -> Simulation<Tick> {
    let mut sim = Simulation::new(
        ring_kg(n),
        NetworkConfig::partially_synchronous(gst, delta, seed),
    );
    for _ in 0..n {
        sim.add_actor(Box::new(Chatter::new(rounds)));
    }
    sim.enable_trace();
    sim.run_until_quiet(1_000_000);
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn deliveries_respect_partial_synchrony(
        n in 2usize..8, gst in 0u64..200, delta in 1u64..30, seed in 0u64..5000, rounds in 0u32..5
    ) {
        let sim = run(n, gst, delta, seed, rounds);
        let mut sent: Vec<(ProcessId, ProcessId, u64, u64)> = Vec::new();
        for e in sim.trace().events() {
            match e {
                TraceEvent::Sent { at, from, to, deliver_at, .. } => {
                    // Bound: deliver_at ∈ (at, max(at, gst) + delta].
                    prop_assert!(deliver_at.ticks() > at.ticks());
                    prop_assert!(deliver_at.ticks() <= at.ticks().max(gst) + delta);
                    sent.push((*from, *to, at.ticks(), deliver_at.ticks()));
                }
                TraceEvent::Delivered { at, from, to, .. } => {
                    // Reliable channels: the delivery matches a send.
                    let idx = sent
                        .iter()
                        .position(|(f, t, _, d)| f == from && t == to && *d == at.ticks());
                    prop_assert!(idx.is_some(), "delivery without a matching send");
                    sent.swap_remove(idx.unwrap());
                }
                TraceEvent::Timer { .. } => {}
                // No fault or churn plan is installed here, so neither
                // family of events can occur.
                TraceEvent::Dropped { .. }
                | TraceEvent::Crashed { .. }
                | TraceEvent::Recovered { .. }
                | TraceEvent::Joined { .. }
                | TraceEvent::Left { .. } => {
                    prop_assert!(false, "fault/churn event without a plan: {e:?}");
                }
            }
        }
        prop_assert!(sent.is_empty(), "{} sends were never delivered", sent.len());
    }

    #[test]
    fn runs_are_deterministic_per_seed(
        n in 2usize..7, gst in 0u64..100, seed in 0u64..5000
    ) {
        let a = run(n, gst, 10, seed, 3);
        let b = run(n, gst, 10, seed, 3);
        prop_assert_eq!(a.report(), b.report());
        prop_assert_eq!(a.trace().events().len(), b.trace().events().len());
        for i in 0..n as u32 {
            let pa = a.actor_as::<Chatter>(ProcessId::new(i)).unwrap().seen;
            let pb = b.actor_as::<Chatter>(ProcessId::new(i)).unwrap().seen;
            prop_assert_eq!(pa, pb);
        }
    }

    #[test]
    fn knowledge_grows_monotonically_with_traffic(
        n in 3usize..8, seed in 0u64..5000
    ) {
        let sim = run(n, 0, 10, seed, 2);
        for i in 0..n {
            let id = ProcessId::new(i as u32);
            let initial = sim.knowledge_graph().pd(id);
            prop_assert!(initial.is_subset(sim.known(id)),
                "knowledge must only grow");
            // In a ring with traffic, the predecessor is learned.
            let pred = ProcessId::new(((i + n - 1) % n) as u32);
            prop_assert!(sim.known(id).contains(pred), "sender must be learned");
        }
    }
}

/// Values that exercise every bucket-size regime: small ints land in the
/// dense low buckets, the full range stresses the wide high buckets and
/// the `u64::MAX` edge of bucket 64.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..=16, 0u64..1000, 0u64..u64::MAX, Just(u64::MAX),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_value_lands_in_a_bucket_that_contains_it(v in value()) {
        let b = bucket_of(v);
        prop_assert!(b < HIST_BUCKETS);
        let (low, high) = bucket_bounds(b);
        prop_assert!(low <= v && v <= high, "{v} outside bucket {b} = [{low}, {high}]");
    }
}
