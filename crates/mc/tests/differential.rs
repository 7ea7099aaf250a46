//! Differential soundness tests: reduced and unreduced exploration must
//! agree on every verdict, for every small system in the suite — and the
//! unreduced exploration must equal a reference search that shares none
//! of the explorer's code.
//!
//! Two layers:
//!
//! - **Engine vs reference.** With symmetry and eager-inert off, the
//!   explorer visits the raw state graph. [`reference_bfs`] walks the
//!   same graph with a queue and a hash set — no engine, no symmetry
//!   group, no fingerprint table, no memoised hashing — and the two must
//!   produce the identical census (state count, per-class counts, minimal
//!   violation depth, decided values, completeness) on every system,
//!   complete or bounded.
//! - **Reductions vs unreduced.** Every reduction — symmetry quotient,
//!   eager-inert (persistent-set) firing, and both together — must
//!   preserve the verdict tuple of that unreduced base run: violation
//!   found or not, minimal counterexample depth, completeness, decided
//!   values, pass/fail. None of them may *grow* the state space. The raw
//!   census is deliberately not required to match: both reductions
//!   shrink it by design.
//!
//! One scoping note: the eager-inert comparison runs on *complete*
//! (untruncated) systems only. Inert fires are free moves, so on a
//! step-truncated space the same step budget legitimately reaches
//! deeper under the reduction — the two runs then explore different
//! cuts of the space and their verdicts are incomparable by
//! construction, not unsound.

use std::collections::{BTreeSet, HashSet, VecDeque};

use scup_harness::scenario::{ExploreSpec, FaultPlacement, ProtocolSpec, Scenario, TopologySpec};
use scup_harness::AdversaryRegistry;
use scup_mc::build::{Driver, Explored, Setup};
use scup_mc::campaign::{explore_scenario, explore_scenario_obs, ObsConfig};
use scup_mc::{Class, ExploreRecord};
use scup_obs::chrome::TraceClock;
use scup_sim::{ExploreSim, SimState};
use stellar_cup::attempts::LocalSliceStrategy;

fn sink2(steps: u32, timer_budget: u32, adversary: &str, inputs: Vec<u64>) -> Scenario {
    Scenario {
        name: "sink2".into(),
        topology: TopologySpec::RandomKosr {
            sink: 2,
            nonsink: 2,
            k: 1,
            extra_edge_prob: 0.0,
        },
        f: 0,
        adversary: adversary.into(),
        faults: FaultPlacement::Ids(vec![2, 3]),
        inputs: Some(inputs),
        explore: ExploreSpec {
            max_steps: steps,
            timer_budget,
            ..Default::default()
        },
        ..Scenario::default()
    }
}

fn split22(steps: u32) -> Scenario {
    Scenario {
        name: "split22".into(),
        topology: TopologySpec::Clustered {
            clusters: 2,
            cluster_size: 2,
            bridges: 0,
            intra_extra_prob: 0.0,
            inter_extra_prob: 0.0,
        },
        f: 0,
        protocol: ProtocolSpec::StellarLocal(LocalSliceStrategy::SurviveF),
        inputs: Some(vec![1, 1, 2, 2]),
        explore: ExploreSpec {
            max_steps: steps,
            timer_budget: 0,
            ..Default::default()
        },
        expect_violation: true,
        ..Scenario::default()
    }
}

/// The fig1-style BFT-CUP system (2-member sink, silent outsiders).
fn bftcup_sink2(steps: u32, timer_budget: u32) -> Scenario {
    Scenario {
        name: "bftcup-sink2".into(),
        topology: TopologySpec::RandomKosr {
            sink: 2,
            nonsink: 2,
            k: 1,
            extra_edge_prob: 0.0,
        },
        f: 0,
        faults: FaultPlacement::Ids(vec![2, 3]),
        protocol: ProtocolSpec::BftCup,
        inputs: Some(vec![3, 9]),
        explore: ExploreSpec {
            max_steps: steps,
            timer_budget,
            ..Default::default()
        },
        ..Scenario::default()
    }
}

/// The bounded equivocating-leader BFT-CUP system (4-member clique sink,
/// f = 1, the view-0 leader lies).
fn bftcup_equiv_leader(steps: u32) -> Scenario {
    Scenario {
        name: "bftcup-equiv-leader".into(),
        topology: TopologySpec::RandomKosr {
            sink: 4,
            nonsink: 0,
            k: 3,
            extra_edge_prob: 0.0,
        },
        adversary: "equivocate".into(),
        faults: FaultPlacement::Ids(vec![0]),
        protocol: ProtocolSpec::BftCup,
        inputs: Some(vec![7]),
        explore: ExploreSpec {
            max_steps: steps,
            timer_budget: 0,
            ..Default::default()
        },
        ..Scenario::default()
    }
}

/// The discovery-interleaved full-stack system: same graph as `sink2`,
/// but Algorithm 3 runs inside the explored schedule.
fn sink2_discovery(steps: u32) -> Scenario {
    let mut s = sink2(steps, 0, "silent", vec![3, 9]);
    s.explore.explore_discovery = true;
    s
}

fn explore_with(mut s: Scenario, symmetry: bool, eager: bool) -> ExploreRecord {
    s.explore.symmetry = symmetry;
    s.explore.eager_inert = eager;
    let r = explore_scenario(&s, 2, &AdversaryRegistry::builtin());
    assert_eq!(r.error, None, "scenario must explore cleanly");
    r
}

/// The verdict tuple every sound reduction must preserve.
fn verdict(r: &ExploreRecord) -> (bool, Option<u32>, bool, Vec<u64>, bool) {
    (
        r.violating > 0,
        r.min_violation_depth,
        r.complete,
        r.decided_values.clone(),
        r.passed,
    )
}

/// Everything an exploration *found*: which states exist, how each is
/// classified at its minimal depth, and the verdict fields derived from
/// that. The unreduced engine and the reference BFS must agree on all
/// of it.
#[derive(Debug, Default, PartialEq, Eq)]
struct Census {
    states: u64,
    expanded: u64,
    decided: u64,
    quiescent_undecided: u64,
    truncated: u64,
    violating: u64,
    min_violation_depth: Option<u32>,
    decided_values: Vec<u64>,
    complete: bool,
}

impl Census {
    fn of(r: &ExploreRecord) -> Census {
        Census {
            states: r.states,
            expanded: r.expanded,
            decided: r.decided,
            quiescent_undecided: r.quiescent_undecided,
            truncated: r.truncated,
            violating: r.violating,
            min_violation_depth: r.min_violation_depth,
            decided_values: r.decided_values.clone(),
            complete: r.complete,
        }
    }
}

/// The reference search: breadth-first over raw `(variant, state)` pairs.
/// Every edge is one fired choice, so FIFO order reaches each state at
/// its minimal depth first; a state is identified by its from-scratch
/// hash (no memo), classified once, and expanded through every entry of
/// `choices()`. Nothing from the explorer's search is reused — only the
/// scenario-to-roster builders and the per-state verdict
/// ([`Setup::judge`], the sampler's safety rule; `tests/verdict.rs` pins
/// it against the oracle).
fn reference_bfs<P: Explored>(driver: &Driver<'_, P>, max_steps: u32) -> Census {
    let setup = driver.setup();
    let mut census = Census::default();
    let mut decided_values = BTreeSet::new();
    let mut seen: HashSet<(u32, u128)> = HashSet::new();
    let mut queue: VecDeque<(u32, u32, SimState<P::Msg>)> = VecDeque::new();

    // Records the state `sim` is in unless it is already known; inner
    // nodes go on the queue.
    let mut visit = |sim: &ExploreSim<P::Msg>,
                     variant: u32,
                     depth: u32,
                     queue: &mut VecDeque<(u32, u32, SimState<P::Msg>)>| {
        if !seen.insert((variant, sim.state_hash_from_scratch(None))) {
            return;
        }
        census.states += 1;
        match setup.judge(&driver.decisions(sim)) {
            Some(Class::Violating) => {
                census.violating += 1;
                census.min_violation_depth.get_or_insert(depth);
                return;
            }
            Some(Class::Decided(value)) => {
                census.decided += 1;
                decided_values.insert(value);
                return;
            }
            _ => {}
        }
        if sim.is_quiescent() {
            census.quiescent_undecided += 1;
        } else if depth >= max_steps {
            census.truncated += 1;
        } else {
            census.expanded += 1;
            queue.push_back((variant, depth, sim.snapshot()));
        }
    };

    let mut sims: Vec<ExploreSim<P::Msg>> = (0..setup.variants())
        .map(|variant| driver.build_sim(variant))
        .collect();
    for (variant, sim) in sims.iter_mut().enumerate() {
        sim.start();
        sim.drain_absorbed();
        visit(sim, variant as u32, 0, &mut queue);
    }
    while let Some((variant, depth, state)) = queue.pop_front() {
        let sim = &mut sims[variant as usize];
        sim.restore(&state);
        for choice in sim.choices() {
            sim.restore(&state);
            sim.fire(choice);
            sim.drain_absorbed();
            visit(sim, variant, depth + 1, &mut queue);
        }
    }
    census.decided_values = decided_values.into_iter().collect();
    census.complete = census.truncated == 0;
    census
}

/// Resolves the scenario and runs [`reference_bfs`] under the driver the
/// campaign runner would pick for it.
fn reference_census(scenario: &Scenario) -> Census {
    let setup = Setup::from_scenario(scenario, &AdversaryRegistry::builtin())
        .expect("scenario must resolve");
    let max_steps = scenario.explore.max_steps;
    match (setup.protocol, setup.explore_discovery) {
        (ProtocolSpec::BftCup, _) => reference_bfs(&Driver::new(&setup, setup.bft()), max_steps),
        (ProtocolSpec::StellarMinimal, true) => {
            reference_bfs(&Driver::new(&setup, setup.stack()), max_steps)
        }
        _ => reference_bfs(&Driver::new(&setup, setup.scp()), max_steps),
    }
}

/// The unreduced engine run, checked against the reference BFS.
fn unreduced_base(name: &str, scenario: &Scenario) -> ExploreRecord {
    let base = explore_with(scenario.clone(), false, false);
    assert_eq!(
        Census::of(&base),
        reference_census(scenario),
        "{name}: unreduced engine census (left) vs reference BFS (right)"
    );
    base
}

/// Strips the fields outside the bit-identical contract (wall-clock
/// time, traversal-effort counters, the obs block, opt-in forensics).
fn deterministic_view(mut r: ExploreRecord) -> ExploreRecord {
    r.wall_micros = 0;
    r.transitions = 0;
    r.obs = None;
    if let Some(v) = &mut r.violation {
        v.forensics = None;
    }
    r
}

/// On a *complete* (untruncated) system: the unreduced engine equals the
/// reference, and every reduction combination agrees with it on the
/// verdict and never grows the space.
fn check_complete_system(name: &str, scenario: Scenario) {
    let base = unreduced_base(name, &scenario);
    assert!(base.complete, "{name}: baseline must exhaust");
    for (symmetry, eager) in [(true, false), (false, true), (true, true)] {
        let r = explore_with(scenario.clone(), symmetry, eager);
        assert_eq!(
            verdict(&r),
            verdict(&base),
            "{name}: verdict drifted under symmetry={symmetry} eager={eager}"
        );
        assert!(
            r.states <= base.states,
            "{name}: a reduction cannot grow the space"
        );
    }
}

/// The two complete systems small enough for an unoptimized build, so
/// the default test run exercises the reference on exhausted spaces too.
#[test]
fn reductions_agree_on_small_complete_systems() {
    check_complete_system("sink2-silent", sink2(64, 0, "silent", vec![3, 9]));
    check_complete_system("bftcup-sink2", bftcup_sink2(64, 0));
}

/// Every complete system, the 20 k-state ones included.
#[test]
// Exhausts split22's full 20 880-state unreduced space five ways;
// affordable in release, slow unoptimized (the explore-smoke CI job runs
// with --include-ignored).
#[cfg_attr(debug_assertions, ignore = "release-only; see explore-smoke CI job")]
fn reductions_agree_on_complete_systems() {
    let systems: Vec<(&str, Scenario)> = vec![
        ("sink2-silent", sink2(64, 0, "silent", vec![3, 9])),
        ("sink2-timers", sink2(96, 1, "silent", vec![7])),
        ("split22-full", split22(48)),
        // The full-stack systems: BFT-CUP (with and without view-change
        // timers) and the discovery-interleaved positive pipeline.
        ("bftcup-sink2", bftcup_sink2(64, 0)),
        ("bftcup-sink2-timers", bftcup_sink2(96, 1)),
        ("sink2-discovery", sink2_discovery(64)),
    ];
    for (name, scenario) in systems {
        check_complete_system(name, scenario);
    }
}

/// On step-truncated spaces the free-move depth metric of `eager_inert`
/// legitimately diverges, so only the metric-compatible reduction —
/// symmetry — is compared there. The reference BFS truncates at exactly
/// the same depth cut as the unreduced engine, so their censuses must
/// still match bit for bit.
#[test]
fn metric_compatible_reductions_agree_on_bounded_systems() {
    let systems: Vec<(&str, Scenario)> = vec![
        ("sink2-equivocate", sink2(6, 0, "equivocate", vec![7])),
        ("split22-bounded", split22(17)),
        ("sink2-crash", sink2(7, 0, "crash:3", vec![3, 9])),
        // Both BFT-CUP equivocation variants and a truncated cut of the
        // discovery-interleaved stack.
        ("bftcup-equiv-leader", bftcup_equiv_leader(4)),
        ("bftcup-crash", {
            let mut s = bftcup_sink2(7, 0);
            s.adversary = "crash:3".into();
            s
        }),
        ("sink2-discovery-bounded", sink2_discovery(12)),
    ];
    for (name, scenario) in systems {
        let base = unreduced_base(name, &scenario);
        let r = explore_with(scenario, true, false);
        assert_eq!(
            verdict(&r),
            verdict(&base),
            "{name}: verdict drifted under symmetry"
        );
        assert!(
            r.states <= base.states,
            "{name}: a reduction cannot grow the space"
        );
    }
}

/// The unreduced engine's and the reference BFS's census of one system,
/// labelled for assertion messages.
fn both_censuses(scenario: Scenario) -> [(&'static str, Census); 2] {
    [
        ("reference", reference_census(&scenario)),
        ("engine", Census::of(&explore_with(scenario, false, false))),
    ]
}

/// The pinned unreduced counts: the representation and reduction work
/// must not have changed the *full* semantics. These are the PR 3
/// exhaustive counts, reproduced with every reduction off and by the
/// reference BFS.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only; see explore-smoke CI job")]
fn unreduced_counts_match_the_pr3_semantics() {
    for (who, c) in both_censuses(sink2(64, 0, "silent", vec![3, 9])) {
        assert_eq!(c.states, 1_785, "{who}");
    }
    for (who, c) in both_censuses(sink2(96, 1, "silent", vec![7])) {
        assert_eq!(c.states, 1_116, "{who}");
    }
    for (who, c) in both_censuses(split22(48)) {
        assert_eq!(c.states, 20_880, "{who}");
        assert_eq!(c.violating, 3_240, "{who}");
        assert_eq!(c.min_violation_depth, Some(16), "{who}");
    }
}

/// The full (unreduced) semantics of the new full-stack systems, pinned:
/// a change here means the protocol models themselves changed, not just a
/// reduction.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only; see explore-smoke CI job")]
fn unreduced_counts_pin_the_full_stack_semantics() {
    for (who, c) in both_censuses(bftcup_sink2(64, 0)) {
        assert_eq!(c.states, 180, "{who}");
        assert!(c.complete && c.violating == 0, "{who}");
    }
    for (who, c) in both_censuses(sink2_discovery(64)) {
        assert_eq!(c.states, 21_516, "{who}");
        assert!(c.complete && c.violating == 0, "{who}");
        assert_eq!(c.decided_values, vec![3, 9], "{who}");
    }
}

/// 1/2/8-worker bit-identity under the uniform-cost frontier: the
/// strided root sharding and the compact-table merge must not leak the
/// worker count into any deterministic report field, including on
/// systems with live adversary variants (where the victim-split index
/// is part of the visited key).
#[test]
fn uniform_cost_reports_are_bit_identical_across_worker_counts() {
    let systems = vec![
        sink2(6, 0, "equivocate", vec![7]),
        split22(17),
        bftcup_equiv_leader(4),
        sink2_discovery(12),
    ];
    let registry = AdversaryRegistry::builtin();
    for s in systems {
        let base = explore_scenario(&s, 1, &registry);
        assert_eq!(base.error, None, "{}", s.name);
        for threads in [2, 8] {
            let other = explore_scenario(&s, threads, &registry);
            assert_eq!(
                deterministic_view(base.clone()),
                deterministic_view(other),
                "{}: workers=1 vs workers={threads}",
                s.name
            );
        }
    }
}

/// The local-transition memo on the product path. For SCP every worker
/// memoises its own restore targets (one per victim split): the census
/// must not notice, at any worker count, while the step counters show
/// replays did happen. BFT-CUP is fenced off (`SinkCore`'s fingerprint is
/// no congruence): nothing is replayed and the census is the one the
/// executed path has always produced — a hash-keyed memo would make it
/// 2 144.
#[test]
fn step_memo_serves_scp_per_worker_and_is_fenced_off_bftcup() {
    let registry = AdversaryRegistry::builtin();
    let clock = TraceClock::start();
    let profiled = |s: &Scenario, threads: usize| {
        let obs = ObsConfig {
            profile: true,
            trace: false,
            forensics: false,
        };
        let r = explore_scenario_obs(s, threads, &registry, obs, &clock, 1, &mut Vec::new());
        assert_eq!(r.error, None, "{}", s.name);
        let obs = r.obs.as_ref().expect("profiling populates the obs block");
        (Census::of(&r), obs.steps_replayed, obs.steps_executed)
    };

    let scp = sink2(6, 0, "equivocate", vec![7]);
    let (census, replayed, executed) = profiled(&scp, 1);
    assert!(
        replayed > executed,
        "{replayed} replayed, {executed} executed"
    );
    for threads in [2, 8] {
        let (other, replayed, _) = profiled(&scp, threads);
        assert_eq!(other, census, "workers=1 vs workers={threads}");
        assert!(replayed > 0, "workers={threads} memoise too");
    }

    let (census, replayed, executed) = profiled(&bftcup_equiv_leader(3), 1);
    assert_eq!(census.states, 2_048);
    assert_eq!((replayed, executed > 0), (0, true));
}
