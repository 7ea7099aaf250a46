//! Causal-cone laws (the forensics substrate), against a vector-clock
//! reference computed from the log's parent edges.

use proptest::collection::vec;
use proptest::prelude::*;
use scup_obs::causal::{CausalEvent, CausalGraph, CausalKind, EventId};

/// A random schedule over `N_PROCS` processes, interpreted against a
/// [`CausalGraph`]: sends enqueue, delivers consume the oldest in-flight
/// send (FIFO, like the simulator), the network drops it or duplicates it
/// (the copy re-enters the queue under the same send), and timers and
/// crashes are local steps.
#[derive(Debug, Clone)]
enum CausalOp {
    Send { from: u32, to: u32 },
    DeliverOldest,
    DropOldest,
    DuplicateOldest,
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
        Just(CausalOp::DropOldest),
        Just(CausalOp::DuplicateOldest),
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
            CausalOp::DropOldest => {
                if let Some((from, to, cause)) = in_flight.pop_front() {
                    g.record(at, CausalKind::Drop { from, to }, cause);
                }
            }
            CausalOp::DuplicateOldest => {
                if let Some(&(from, to, cause)) = in_flight.front() {
                    g.record(at, CausalKind::Duplicate { from, to }, cause);
                    in_flight.push_back((from, to, cause));
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

/// `true` for a step of a process; `false` for a drop or duplicate, which
/// the network does to a message in flight.
fn is_step(event: &CausalEvent) -> bool {
    !matches!(
        event.kind,
        CausalKind::Drop { .. } | CausalKind::Duplicate { .. }
    )
}

/// The vector clock of every event, computed forward in recording order
/// from the parent edges alone: a step merges its parents' clocks and
/// ticks its own process's component; a drop or duplicate carries its
/// send's clock. This is the recurrence the log used to store per event.
fn reference_clocks(g: &CausalGraph) -> Vec<Vec<u64>> {
    let mut clocks: Vec<Vec<u64>> = Vec::with_capacity(g.len());
    for event in g.events() {
        let mut clock = vec![0; N_PROCS as usize];
        for parent in event.parents.into_iter().filter(|p| p.is_some()) {
            for (c, &p) in clock.iter_mut().zip(&clocks[parent.0 as usize]) {
                *c = (*c).max(p);
            }
        }
        if is_step(event) {
            clock[event.kind.acting_process() as usize] += 1;
        }
        clocks.push(clock);
    }
    clocks
}

/// Strict happens-before between two clocks: `a ≤ b` component-wise and
/// `a ≠ b`.
fn precedes(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a != b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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

    /// For a step `e` of any process, `e` is in the root's cone exactly
    /// when it is the root or happens before it by the reference clocks.
    #[test]
    fn cone_members_happen_before_or_equal_the_root(
        ops in vec(causal_op(), 1..120),
        anchor in 0..N_PROCS,
    ) {
        let g = graph_of(&ops);
        let root = g.last_of(anchor);
        prop_assume!(root.is_some());
        let clocks = reference_clocks(&g);
        let cone = g.cone(&[root]);
        for event in g.events().iter().filter(|e| is_step(e)) {
            let id = event.id;
            let before = id == root || precedes(&clocks[id.0 as usize], &clocks[root.0 as usize]);
            prop_assert_eq!(
                cone.contains(&id),
                before,
                "event {:?} against root {:?}: in the cone iff it happens before it", id, root
            );
        }
    }
}
