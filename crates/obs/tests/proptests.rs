//! Vector-clock laws and causal-cone laws (the forensics substrate).

use proptest::collection::vec;
use proptest::prelude::*;
use scup_obs::causal::{CausalGraph, CausalKind, EventId, VectorClock};

fn clock_of(components: &[u64]) -> VectorClock {
    let mut c = VectorClock::new(components.len());
    for (i, &ticks) in components.iter().enumerate() {
        for _ in 0..ticks {
            c.tick(i);
        }
    }
    c
}

fn merged_clocks(a: &VectorClock, b: &VectorClock) -> VectorClock {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// A random schedule over `N_PROCS` processes, interpreted against a
/// [`CausalGraph`]: sends enqueue, delivers consume the oldest in-flight
/// send (FIFO, like the simulator), timers and crash/recover are local
/// steps.
#[derive(Debug, Clone)]
enum CausalOp {
    Send { from: u32, to: u32 },
    DeliverOldest,
    Timer { process: u32, tag: u64 },
    Crash { process: u32 },
}

const N_PROCS: u32 = 4;

fn causal_op() -> impl Strategy<Value = CausalOp> {
    prop_oneof![
        (0..N_PROCS, 0..N_PROCS).prop_map(|(from, to)| CausalOp::Send { from, to }),
        (0..N_PROCS, 0..N_PROCS).prop_map(|(from, to)| CausalOp::Send { from, to }),
        Just(CausalOp::DeliverOldest),
        Just(CausalOp::DeliverOldest),
        (0..N_PROCS, 0u64..4).prop_map(|(process, tag)| CausalOp::Timer { process, tag }),
        (0..N_PROCS).prop_map(|process| CausalOp::Crash { process }),
    ]
}

fn graph_of(ops: &[CausalOp]) -> CausalGraph {
    let mut g = CausalGraph::disabled();
    g.enable(N_PROCS as usize);
    let mut in_flight: std::collections::VecDeque<(u32, u32, EventId)> =
        std::collections::VecDeque::new();
    for (at, op) in ops.iter().enumerate() {
        let at = at as u64;
        match *op {
            CausalOp::Send { from, to } => {
                let id = g.record(at, CausalKind::Send { from, to }, EventId::NONE);
                in_flight.push_back((from, to, id));
            }
            CausalOp::DeliverOldest => {
                if let Some((from, to, cause)) = in_flight.pop_front() {
                    g.record(at, CausalKind::Deliver { from, to }, cause);
                }
            }
            CausalOp::Timer { process, tag } => {
                g.record(at, CausalKind::Timer { process, tag }, EventId::NONE);
            }
            CausalOp::Crash { process } => {
                g.record(at, CausalKind::Crash { process }, EventId::NONE);
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn clock_merge_is_commutative(
        xs in vec(0u64..6, 4),
        ys in vec(0u64..6, 4),
    ) {
        let (a, b) = (clock_of(&xs), clock_of(&ys));
        prop_assert_eq!(merged_clocks(&a, &b), merged_clocks(&b, &a));
    }

    #[test]
    fn clock_merge_is_associative_and_idempotent(
        xs in vec(0u64..6, 4),
        ys in vec(0u64..6, 4),
        zs in vec(0u64..6, 4),
    ) {
        let (a, b, c) = (clock_of(&xs), clock_of(&ys), clock_of(&zs));
        prop_assert_eq!(
            merged_clocks(&merged_clocks(&a, &b), &c),
            merged_clocks(&a, &merged_clocks(&b, &c)),
        );
        prop_assert_eq!(merged_clocks(&a, &a), a.clone());
        // The merge is an upper bound of both operands.
        let m = merged_clocks(&a, &b);
        prop_assert!(a.leq(&m) && b.leq(&m));
    }

    #[test]
    fn cone_is_a_causally_closed_subset_containing_its_roots(
        ops in vec(causal_op(), 1..120),
        anchor in 0..N_PROCS,
    ) {
        let g = graph_of(&ops);
        let root = g.last_of(anchor);
        let cone = g.cone(&[root]);
        // Subset of the full graph, each id at most once.
        let mut seen = std::collections::BTreeSet::new();
        for &id in &cone {
            prop_assert!((id.0 as usize) < g.len(), "cone id inside the graph");
            prop_assert!(seen.insert(id), "no duplicates in the cone");
        }
        // Contains the violation anchor's final event.
        if root.is_some() {
            prop_assert!(cone.contains(&root), "cone contains its root");
        } else {
            prop_assert!(cone.is_empty());
        }
        // Causally closed: every parent of a cone event is in the cone.
        for &id in &cone {
            for parent in g.events()[id.0 as usize].parents {
                if parent.is_some() {
                    prop_assert!(
                        cone.contains(&parent),
                        "parent {:?} of cone event {:?} escaped the cone", parent, id
                    );
                }
            }
        }
    }

    #[test]
    fn cone_members_happen_before_or_equal_the_root(
        ops in vec(causal_op(), 1..120),
        anchor in 0..N_PROCS,
    ) {
        let g = graph_of(&ops);
        let root = g.last_of(anchor);
        prop_assume!(root.is_some());
        for &id in &g.cone(&[root]) {
            prop_assert!(
                id == root || g.happens_before(id, root),
                "cone event {:?} does not happen-before the root {:?}", id, root
            );
        }
    }
}
