//! Property-based tests for the fault-injection plane.
//!
//! The graceful-degradation contract, stated over *arbitrary* fault
//! plans rather than the hand-picked nemesis scenarios:
//!
//! - a plan whose every window heals by some tick (and whose crashes all
//!   recover) still terminates AND agrees — retransmission + the durable
//!   journal owe full liveness once the network is civil again;
//! - a plan that never heals owes safety only: agreement and the pledge
//!   discipline must hold on whatever the survivors managed, and the
//!   oracle must not demand termination;
//! - the all-zero plan is not merely "no observable faults" but
//!   *bit-identical* to a run with no fault plane at all — zero extra
//!   RNG draws, zero retransmission timers, identical schedules — across
//!   every worker count.

use proptest::prelude::*;
use scup_harness::campaign::{run_one, Campaign, CampaignMode};
use scup_harness::scenario::{FaultPlacement, FaultSpec, NetworkSpec, Scenario};
use scup_harness::AdversaryRegistry;

/// The fig. 2 system (7 processes, 4-member sink {0..3}), one silent
/// Byzantine outsider — the workhorse sampling scenario.
fn fig2(spec: Option<FaultSpec>, max_ticks: u64) -> Scenario {
    Scenario {
        name: "fig2-prop".into(),
        faults: FaultPlacement::Ids(vec![5]),
        fault_plan: spec.unwrap_or_default(),
        network: NetworkSpec {
            max_ticks,
            ..Default::default()
        },
        ..Scenario::default()
    }
}

/// A fault spec whose every window closes by tick ~2000 and whose
/// crashes recover: `to_plan().heal_tick()` is always `Some`.
fn healing_spec() -> impl Strategy<Value = FaultSpec> {
    let knobs = (
        (0u32..=4, 100u64..=900),  // loss tenths, loss_until
        (0u32..=3, 100u64..=900),  // dup tenths, dup_until
        (0u64..=25, 100u64..=900), // extra delay ticks, until
    );
    let partition = prop_oneof![
        Just(Vec::new()),
        Just(vec![0u32, 1]),
        Just(vec![2u32]),
        Just(vec![4u32, 6]),
    ];
    let crash = prop_oneof![
        Just(Vec::new()),
        Just(vec![0u32]),
        Just(vec![2u32]),
        Just(vec![6u32]),
    ];
    (knobs, partition, (0u64..=300), crash, (0u64..=400)).prop_map(
        |(((loss, loss_until), (dup, dup_until), (delay, delay_until)), part, from, crash, at)| {
            FaultSpec {
                loss: loss as f64 * 0.1,
                loss_until,
                dup: dup as f64 * 0.1,
                dup_until,
                extra_delay: delay,
                extra_delay_until: delay_until,
                partition: part,
                partition_from: from,
                partition_until: from + 700,
                crash,
                crash_at: at,
                recover_at: Some(at + 1200),
                ..Default::default()
            }
        },
    )
}

/// A fault spec with at least one window that never closes.
fn unhealed_spec() -> impl Strategy<Value = FaultSpec> {
    prop_oneof![
        // Lossy forever.
        (3u32..=7).prop_map(|tenths| FaultSpec {
            loss: tenths as f64 * 0.1,
            ..Default::default()
        }),
        // A sink member crashes and never comes back.
        (0u64..=400).prop_map(|at| FaultSpec {
            crash: vec![2],
            crash_at: at,
            recover_at: None,
            ..Default::default()
        }),
        // A permanent partition cutting two sink members off.
        (0u64..=200).prop_map(|from| FaultSpec {
            partition: vec![0, 1],
            partition_from: from,
            ..Default::default()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn healing_plans_still_terminate_and_agree(
        spec in healing_spec(),
        seed in 0u64..1_000,
    ) {
        let plan = spec.to_plan();
        prop_assert!(
            plan.heal_tick().is_some() || plan.is_zero(),
            "generator contract: every window closes"
        );
        let run = run_one(&fig2(Some(spec), 100_000), seed, &AdversaryRegistry::builtin());
        prop_assert_eq!(&run.error, &None);
        prop_assert!(
            run.invariants.termination_required,
            "a healing plan owes termination"
        );
        prop_assert!(
            run.passed,
            "seed {} violated {:?}",
            seed,
            run.invariants.violations
        );
        prop_assert!(run.invariants.termination && run.invariants.agreement);
        prop_assert!(run.invariants.pledges_ok);
    }

    #[test]
    fn unhealed_plans_still_owe_safety(
        spec in unhealed_spec(),
        seed in 0u64..1_000,
    ) {
        let plan = spec.to_plan();
        prop_assert!(plan.heal_tick().is_none() && !plan.is_zero());
        let run = run_one(&fig2(Some(spec), 20_000), seed, &AdversaryRegistry::builtin());
        prop_assert_eq!(&run.error, &None);
        prop_assert!(
            !run.invariants.termination_required,
            "an unhealed plan owes safety only"
        );
        // Whatever the survivors decided must agree and honor pledges;
        // non-termination alone must not fail the run.
        prop_assert!(
            run.passed,
            "seed {} violated {:?}",
            seed,
            run.invariants.violations
        );
        prop_assert!(run.invariants.agreement && run.invariants.pledges_ok);
    }

    #[test]
    fn zero_plan_is_bit_identical_to_no_plan(seed in 0u64..10_000) {
        // `faults = {}`: a fault plane that injects nothing must not
        // perturb the run at all — same schedule, same counters, same
        // bytes. The spec explicitly asks for retransmission, but a zero
        // plan disables it (no extra timers), preserving the identity.
        let zero = FaultSpec::default();
        prop_assert!(zero.to_plan().is_zero());
        let registry = AdversaryRegistry::builtin();
        let mut with_plane = run_one(&fig2(Some(zero), 3_000_000), seed, &registry);
        let mut without = run_one(&fig2(None, 3_000_000), seed, &registry);
        with_plane.wall_micros = 0;
        without.wall_micros = 0;
        prop_assert_eq!(&with_plane, &without);
        prop_assert_eq!(with_plane.messages_dropped, 0);
        prop_assert_eq!(with_plane.messages_duplicated, 0);
        prop_assert_eq!(with_plane.crashes + with_plane.recoveries, 0);
        prop_assert_eq!(with_plane.retransmissions, 0);
    }
}

#[test]
fn zero_plan_campaign_reports_are_bit_identical_across_worker_counts() {
    // The campaign-level statement of the same contract, across 1/2/8
    // workers: a zero-fault campaign and a fault-free campaign produce
    // the same report, and sharding leaks into neither.
    let campaign = |spec: Option<FaultSpec>, threads: usize| {
        let mut scenario = fig2(spec, 3_000_000);
        scenario.seeds = 4;
        Campaign {
            name: "zero-plan-diff".into(),
            mode: CampaignMode::Sample,
            threads,
            scenarios: vec![scenario],
        }
    };
    let strip = |report: scup_harness::CampaignReport| -> Vec<scup_harness::RunRecord> {
        report
            .runs
            .into_iter()
            .map(|mut r| {
                r.wall_micros = 0;
                r
            })
            .collect()
    };
    let baseline = strip(campaign(None, 1).run());
    assert_eq!(baseline.len(), 4);
    assert!(baseline.iter().all(|r| r.passed));
    for threads in [1, 2, 8] {
        let zeroed = strip(campaign(Some(FaultSpec::default()), threads).run());
        assert_eq!(baseline, zeroed, "threads={threads}");
    }
}

/// The BFT-CUP fig. 2 system, fault-free placement, with a churn plan —
/// the configuration whose join/leave recovery paths (discovery
/// re-probes, Decide vouchers, AskDecision) are all exercised.
fn fig2_bft_churn(churn: scup_harness::scenario::ChurnSpec) -> Scenario {
    Scenario {
        name: "fig2-bft-churn-prop".into(),
        protocol: scup_harness::scenario::ProtocolSpec::BftCup,
        churn,
        network: NetworkSpec {
            max_ticks: 300_000,
            ..Default::default()
        },
        ..Scenario::default()
    }
}

/// An arbitrary quiescing churn plan on fig. 2: joiners drawn from a
/// sink member (3) and/or the outsiders, an optional permanent leave of
/// outsider 6, staggered join ticks. Every plan quiesces by
/// construction (each event is one-shot), so termination is always owed
/// by the correct non-departing processes.
fn churn_spec() -> impl Strategy<Value = scup_harness::scenario::ChurnSpec> {
    let joins = prop_oneof![
        Just(Vec::new()),
        Just(vec![5u32]),
        Just(vec![3u32]),
        Just(vec![3u32, 5]),
    ];
    let leaves = prop_oneof![Just(Vec::new()), Just(vec![6u32])];
    (joins, 5_000u64..=30_000, 0u64..=600, leaves, 500u64..=2_000).prop_map(
        |(joins, join_at, join_stagger, leaves, leave_at)| scup_harness::scenario::ChurnSpec {
            joins,
            join_at,
            join_stagger,
            leaves,
            leave_at,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn quiesced_churn_still_terminates_and_agrees(
        churn in churn_spec(),
        seed in 0u64..1_000,
    ) {
        let run = run_one(&fig2_bft_churn(churn.clone()), seed, &AdversaryRegistry::builtin());
        prop_assert_eq!(&run.error, &None);
        prop_assert!(
            run.invariants.termination_required,
            "churn always quiesces, so termination is owed"
        );
        prop_assert!(
            run.passed,
            "seed {} churn {:?} violated {:?}",
            seed,
            churn,
            run.invariants.violations
        );
        prop_assert!(run.invariants.termination && run.invariants.agreement);
        prop_assert!(run.invariants.pledges_ok);
        prop_assert_eq!(run.joins, churn.joins.len() as u64);
        prop_assert_eq!(run.departures, churn.leaves.len() as u64);
    }
}

#[test]
fn zero_churn_campaign_reports_are_bit_identical_across_worker_counts() {
    // The churn-plane twin of the zero-fault differential, stated over
    // the full parse → run pipeline: a campaign whose scenario spells
    // out `churn = { }` produces the same report as one without the key,
    // across 1/2/8 workers — the plane is free until a plan is non-zero.
    let toml = |churn_line: &str| {
        format!(
            "name = \"zero-churn-diff\"\nthreads = 0\n\n[[scenario]]\n\
             name = \"fig2\"\ntopology = \"fig2\"\nf = 1\nadversary = \"silent\"\n\
             faulty = [5]\nprotocol = \"stellar-minimal\"\n{churn_line}\
             seeds = 4\noracle = \"require\"\n"
        )
    };
    let strip = |report: scup_harness::CampaignReport| -> Vec<scup_harness::RunRecord> {
        report
            .runs
            .into_iter()
            .map(|mut r| {
                r.wall_micros = 0;
                r
            })
            .collect()
    };
    let baseline_campaign = scup_harness::campaign_from_str(&toml("")).unwrap();
    let baseline = strip(baseline_campaign.run());
    assert_eq!(baseline.len(), 4);
    assert!(baseline.iter().all(|r| r.passed));
    for threads in [1usize, 2, 8] {
        let mut campaign = scup_harness::campaign_from_str(&toml("churn = { }\n")).unwrap();
        campaign.threads = threads;
        assert!(campaign.scenarios[0].churn.is_zero());
        let zeroed = strip(campaign.run());
        assert_eq!(baseline, zeroed, "threads={threads}");
        for (b, z) in baseline.iter().zip(&zeroed) {
            assert_eq!(b.joins + b.departures + b.churn_drops, 0);
            assert_eq!(z.joins + z.departures + z.churn_drops, 0);
        }
    }
}
