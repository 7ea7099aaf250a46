//! Property-based tests for the simulator: determinism, the partial
//! synchrony delivery bound, the one event log against the always-on
//! counters, knowledge monotonicity, and the log₂ bucket layout of the
//! retransmit-delay histogram.

use proptest::prelude::*;
use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};
use scup_obs::causal::CausalKind;
use scup_sim::{
    bucket_bounds, bucket_of, Actor, ChurnPlan, Context, CrashFault, DupFault, FaultPlan,
    JoinEvent, LeaveEvent, LossFault, NetworkConfig, Partition, SimMessage, Simulation,
    HIST_BUCKETS, RETRANSMIT_TAG,
};

#[derive(Clone, Debug, PartialEq)]
struct Tick(u32);
impl SimMessage for Tick {}

/// Every actor floods a counter `rounds` times (re-flooding on receipt
/// and on its timers up to the bound), generating enough traffic to
/// exercise the scheduler. It arms one protocol timer and one retransmit
/// timer at start, and greets a joiner it is introduced to.
#[derive(Debug, PartialEq)]
struct Chatter {
    remaining: u32,
    seen: u32,
    timers: u32,
}

impl Chatter {
    fn new(rounds: u32) -> Self {
        Chatter {
            remaining: rounds,
            seen: 0,
            timers: 0,
        }
    }

    fn flood(&mut self, ctx: &mut Context<'_, Tick>, value: u32) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.broadcast_known(Tick(value));
        }
    }
}

impl Actor<Tick> for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
        self.flood(ctx, 0);
        ctx.set_timer(5, 1);
        ctx.set_timer(7, RETRANSMIT_TAG);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Tick>, _from: ProcessId, msg: Tick) {
        self.seen += 1;
        self.flood(ctx, msg.0 + 1);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Tick>, _tag: u64) {
        self.timers += 1;
        self.flood(ctx, 0);
    }
    fn on_peer_joined(&mut self, ctx: &mut Context<'_, Tick>, peer: ProcessId) {
        ctx.send(peer, Tick(0));
    }
}

fn ring_kg(n: usize) -> KnowledgeGraph {
    let pds = (0..n)
        .map(|i| ProcessSet::from_ids([((i + 1) % n) as u32]))
        .collect();
    KnowledgeGraph::from_pds(pds)
}

/// What a generated run is made of: the network, the traffic bound and
/// the fault and churn plans (both zero for the plan-free properties).
#[derive(Debug, Clone)]
struct Setup {
    n: usize,
    gst: u64,
    delta: u64,
    seed: u64,
    rounds: u32,
    faults: FaultPlan,
    churn: ChurnPlan,
}

fn plain(n: usize, gst: u64, delta: u64, seed: u64, rounds: u32) -> Setup {
    Setup {
        n,
        gst,
        delta,
        seed,
        rounds,
        faults: FaultPlan::default(),
        churn: ChurnPlan::default(),
    }
}

/// A run over four to seven processes under loss, duplication, one
/// partition, one crash (recovering or not), one join and one leave.
fn adverse() -> impl Strategy<Value = Setup> {
    let net = (4usize..8, 0u64..100, 1u64..20, 0u64..5000, 1u32..5);
    let link_faults = (0u32..40, 0u32..40, 0u32..4, 0u64..30);
    let crash = (0u32..4, 1u64..40, 0u64..60);
    let churn = (1u64..40, 1u64..60);
    (net, link_faults, crash, churn).prop_map(|(net, link_faults, crash, churn)| {
        let (n, gst, delta, seed, rounds) = net;
        let (loss_pct, dup_pct, cut, cut_from) = link_faults;
        let (crashed, crash_at, down_for) = crash;
        let (join_at, leave_at) = churn;
        let last = n as u32 - 1;
        Setup {
            faults: FaultPlan {
                loss: Some(LossFault {
                    prob: loss_pct as f64 / 100.0,
                    until: 80,
                    links: None,
                }),
                duplication: Some(DupFault {
                    prob: dup_pct as f64 / 100.0,
                    until: 80,
                }),
                partitions: vec![Partition {
                    side: ProcessSet::from_ids([cut]),
                    from: cut_from,
                    until: cut_from + 20,
                }],
                // `down_for = 0` is a crash that never recovers.
                crashes: vec![CrashFault {
                    process: ProcessId::new(crashed),
                    at: crash_at,
                    recover_at: (down_for > 0).then_some(crash_at + down_for),
                }],
                ..FaultPlan::default()
            },
            // The last process joins late; its ring predecessor leaves.
            churn: ChurnPlan {
                joins: vec![JoinEvent {
                    process: ProcessId::new(last),
                    at: join_at,
                    contacts: ProcessSet::from_ids([0]),
                    introduce_to: ProcessSet::from_ids([0, 1]),
                }],
                leaves: vec![LeaveEvent {
                    process: ProcessId::new(last - 1),
                    at: leave_at,
                }],
            },
            ..plain(n, gst, delta, seed, rounds)
        }
    })
}

fn run(setup: &Setup, log: bool) -> Simulation<Tick> {
    let mut sim = Simulation::new(
        ring_kg(setup.n),
        NetworkConfig::partially_synchronous(setup.gst, setup.delta, setup.seed),
    );
    for _ in 0..setup.n {
        sim.add_actor(Box::new(Chatter::new(setup.rounds)));
    }
    sim.set_fault_plan(setup.faults.clone());
    sim.set_churn_plan(setup.churn.clone());
    if log {
        sim.enable_causal();
    }
    sim.run_until_quiet(1_000_000);
    sim
}

fn chatters(sim: &Simulation<Tick>) -> Vec<&Chatter> {
    (0..sim.n() as u32)
        .map(|i| sim.actor_as::<Chatter>(ProcessId::new(i)).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn deliveries_respect_partial_synchrony(
        n in 2usize..8, gst in 0u64..200, delta in 1u64..30, seed in 0u64..5000, rounds in 0u32..5
    ) {
        let sim = run(&plain(n, gst, delta, seed, rounds), true);
        let log = sim.causal().events();
        let mut deliveries = vec![0u32; log.len()];
        for e in log {
            match e.kind {
                CausalKind::Send { .. } | CausalKind::Timer { .. } | CausalKind::Retransmit { .. } => {}
                CausalKind::Deliver { from, to } => {
                    // Reliable channels: the delivery is of a send on its link.
                    prop_assert!(e.cause().is_some(), "delivery without a send");
                    let send = &log[e.cause().0 as usize];
                    prop_assert_eq!(send.kind, CausalKind::Send { from, to });
                    // Bound: delivered in (send.at, max(send.at, gst) + delta].
                    prop_assert!(e.at > send.at);
                    prop_assert!(e.at <= send.at.max(gst) + delta);
                    deliveries[send.id.0 as usize] += 1;
                }
                // No fault or churn plan is installed here, so neither
                // family of events can occur.
                _ => prop_assert!(false, "fault/churn event without a plan: {e:?}"),
            }
        }
        for e in log.iter().filter(|e| matches!(e.kind, CausalKind::Send { .. })) {
            prop_assert_eq!(deliveries[e.id.0 as usize], 1, "{:?} not delivered exactly once", e);
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed(setup in adverse()) {
        let a = run(&setup, true);
        let b = run(&setup, true);
        prop_assert_eq!(a.report(), b.report());
        prop_assert_eq!(a.causal().events(), b.causal().events());
        prop_assert_eq!(chatters(&a), chatters(&b));
        // The log is pure observability: off, the run is the same run.
        let quiet = run(&setup, false);
        prop_assert!(quiet.causal().is_empty());
        prop_assert_eq!(a.report(), quiet.report());
        prop_assert_eq!(chatters(&a), chatters(&quiet));
    }

    #[test]
    fn the_log_counts_what_the_report_counts(setup in adverse()) {
        let sim = run(&setup, true);
        let (log, report) = (sim.causal(), sim.report());
        let count = |pred: fn(&CausalKind) -> bool| {
            log.events().iter().filter(|e| pred(&e.kind)).count() as u64
        };
        prop_assert_eq!(count(|k| matches!(k, CausalKind::Send { .. })), report.messages_sent);
        prop_assert_eq!(count(|k| matches!(k, CausalKind::Deliver { .. })), report.messages_delivered);
        prop_assert_eq!(count(|k| matches!(k, CausalKind::Drop { .. })), report.messages_dropped);
        prop_assert_eq!(count(|k| matches!(k, CausalKind::Duplicate { .. })), report.messages_duplicated);
        prop_assert_eq!(
            count(|k| matches!(k, CausalKind::Timer { .. } | CausalKind::Retransmit { .. })),
            report.timers_fired
        );
        prop_assert_eq!(count(|k| matches!(k, CausalKind::Crash { .. })), report.crashes);
        prop_assert_eq!(count(|k| matches!(k, CausalKind::Recover { .. })), report.recoveries);
        prop_assert_eq!(count(|k| matches!(k, CausalKind::Join { .. })), report.joins);
        prop_assert_eq!(count(|k| matches!(k, CausalKind::Leave { .. })), report.departures);
        // Whatever the network did to a message, it did to a send on the
        // same link, and the payload is the send's.
        for e in log.events() {
            if let CausalKind::Deliver { from, to }
            | CausalKind::Drop { from, to }
            | CausalKind::Duplicate { from, to } = e.kind
            {
                prop_assert!(e.cause().is_some(), "{:?} without a send", e);
                let send = &log.events()[e.cause().0 as usize];
                prop_assert_eq!(send.kind, CausalKind::Send { from, to });
                prop_assert!(send.at <= e.at);
                prop_assert!(send.payload.is_some());
                prop_assert_eq!(log.payload(e.id), send.payload.as_deref());
            }
        }
        // A message ends exactly once per copy: delivered or dropped.
        prop_assert_eq!(
            report.messages_delivered + report.messages_dropped,
            report.messages_sent + report.messages_duplicated,
            "every copy was resolved at quiescence"
        );
    }

    #[test]
    fn knowledge_grows_monotonically_with_traffic(
        n in 3usize..8, seed in 0u64..5000
    ) {
        let sim = run(&plain(n, 0, 10, seed, 2), false);
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
