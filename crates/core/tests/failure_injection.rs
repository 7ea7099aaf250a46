//! Failure injection: processes that crash *mid-protocol* (fail-stop after
//! participating partially) are strictly weaker than the silent Byzantine
//! processes the theorems assume — the pipeline must survive them at every
//! crash point.

use scup_graph::{generators, sink, ProcessId, ProcessSet};
use scup_obs::causal::CausalKind;
use scup_sim::adversary::CrashActor;
use scup_sim::{CrashFault, FaultPlan, LossFault, NetworkConfig, RetransmitConfig, Simulation};
use stellar_cup::consensus::{run_knowledge_phase, EndToEndConfig, PhaseKind};
use stellar_cup::oracle::validate_detection;
use stellar_cup::sink_detector::{GetSinkMode, SdMsg, SinkDetectorActor};

fn run_with_crash(crash_victim: u32, crash_after: u64, seed: u64) -> bool {
    let kg = generators::fig2();
    let f = 1;
    let v_sink = sink::unique_sink(kg.graph()).unwrap();
    let faulty = ProcessSet::from_ids([crash_victim]);
    let correct = kg.graph().vertex_set().difference(&faulty);

    let mut sim: Simulation<SdMsg> = Simulation::new(
        kg.clone(),
        NetworkConfig::partially_synchronous(120, 10, seed),
    );
    for i in kg.processes() {
        let actor = SinkDetectorActor::new(
            kg.pd(i).clone(),
            f,
            GetSinkMode::Direct,
            RetransmitConfig::disabled(),
        );
        if i.as_u32() == crash_victim {
            sim.add_actor(Box::new(CrashActor::new(actor, crash_after)));
        } else {
            sim.add_actor(Box::new(actor));
        }
    }
    sim.run_until_quiet(2_000_000);

    for i in kg.processes() {
        if i.as_u32() == crash_victim {
            continue;
        }
        let Some(d) = sim.actor_as::<SinkDetectorActor>(i).unwrap().detection() else {
            return false;
        };
        if validate_detection(i, &d, &v_sink, &correct, f).is_err() {
            return false;
        }
    }
    true
}

#[test]
fn sink_detector_survives_crashes_at_every_point() {
    // Crash a sink member and a non-sink member after 0, 1, 2, 5, 10, 50
    // deliveries: every crash point must leave the others able to detect.
    for victim in [0u32, 5] {
        for crash_after in [0u64, 1, 2, 5, 10, 50] {
            assert!(
                run_with_crash(victim, crash_after, crash_after ^ 0x9e37),
                "victim {victim} crashing after {crash_after} deliveries broke detection"
            );
        }
    }
}

#[test]
fn end_to_end_survives_scp_phase_crash() {
    use scup_scp::{ScpConfig, ScpMsg, ScpNode};
    use stellar_cup::build_slices;
    use stellar_cup::consensus::{run_sink_detection, EndToEndConfig};

    let kg = generators::fig2();
    let faulty = ProcessSet::from_ids([2]);
    let config = EndToEndConfig::default();
    let (detections, _) = run_sink_detection(&kg, 1, &faulty, &config);

    // Process 2 participated in detection? No — it was silent there too in
    // run_sink_detection. Instead crash it *during SCP* after 3 messages.
    let mut sim: Simulation<ScpMsg> =
        Simulation::new(kg.clone(), NetworkConfig::partially_synchronous(150, 10, 5));
    for i in kg.processes() {
        if faulty.contains(i) {
            // A crash-after-3 node running the real protocol.
            let slices = build_slices(detections[0].as_ref().unwrap(), 1);
            let node = ScpNode::new(ScpConfig::new(slices, 999));
            sim.add_actor(Box::new(CrashActor::new(node, 3)));
        } else {
            let slices = build_slices(detections[i.index()].as_ref().unwrap(), 1);
            sim.add_actor(Box::new(ScpNode::new(ScpConfig::new(
                slices,
                100 + i.as_u32() as u64,
            ))));
        }
    }
    let correct: Vec<_> = kg.processes().filter(|i| !faulty.contains(*i)).collect();
    sim.run_while(
        |s| {
            !correct.iter().all(|&i| {
                s.actor_as::<ScpNode>(i)
                    .is_some_and(|n| n.externalized().is_some())
            })
        },
        3_000_000,
    );
    let mut value = None;
    for &i in &correct {
        let d = sim.actor_as::<ScpNode>(i).unwrap().externalized();
        assert!(
            d.is_some(),
            "correct {i} must externalize despite the crash"
        );
        match value {
            None => value = d,
            Some(prev) => assert_eq!(d, Some(prev), "agreement at {i}"),
        }
    }
}

#[test]
fn knowledge_phase_counts_every_re_send_across_a_crash() {
    // The detector's retransmission count survives a pause-crash: the
    // crashed process re-sends before its crash and after its recovery.
    let kg = generators::fig2();
    let faulty = ProcessSet::singleton(ProcessId::new(5));
    let heal = 2_000;
    let crashed = 2;
    let config = EndToEndConfig {
        seed: 1,
        trace: true,
        faults: FaultPlan {
            loss: Some(LossFault {
                prob: 0.3,
                until: heal,
                links: None,
            }),
            crashes: vec![CrashFault {
                process: ProcessId::new(crashed),
                at: 300,
                recover_at: Some(heal),
            }],
            ..FaultPlan::default()
        },
        retransmit: RetransmitConfig::covering(heal, 10),
        ..EndToEndConfig::default()
    };
    let (_, phase) = run_knowledge_phase(&kg, 1, &faulty, &config);
    assert_eq!(phase.kind, PhaseKind::Knowledge);
    assert!(phase.decisions.iter().all(Option::is_none));
    // A round's re-sends follow its `Retransmit` event in the
    // process's program order, up to the process's next step; count
    // them from the log. (Drops and duplicates are the network's
    // events, not steps.)
    let mut in_round = vec![false; kg.n()];
    let mut resent = 0;
    // The crashed process's rounds: before its crash, after its recovery.
    let (mut epoch, mut rounds) = (0, [0; 3]);
    for e in phase.causal.events() {
        let p = e.kind.acting_process() as usize;
        match e.kind {
            CausalKind::Send { .. } => resent += in_round[p] as u64,
            CausalKind::Drop { .. } | CausalKind::Duplicate { .. } => {}
            CausalKind::Retransmit { .. } => {
                in_round[p] = true;
                if p == crashed as usize {
                    rounds[epoch] += 1;
                }
            }
            CausalKind::Crash { .. } | CausalKind::Recover { .. } => {
                epoch += 1;
                in_round[p] = false;
            }
            _ => in_round[p] = false,
        }
    }
    assert_eq!(epoch, 2, "one crash, one recovery");
    assert!(
        rounds[0] > 0 && rounds[2] > 0,
        "the crashed seat re-sends on both sides of its crash: {rounds:?}"
    );
    assert!(resent > 0);
    assert_eq!(phase.retransmissions, resent, "every logged re-send counts");
}
