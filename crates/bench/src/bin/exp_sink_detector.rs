//! Experiment A3/T6 — **Algorithm 3 / Theorem 6**: the distributed sink
//! detector on the simulator. Reports detection correctness, messages,
//! bytes and completion time across graph sizes, adversaries, and
//! `GET_SINK` dissemination modes (direct vs reachable-reliable broadcast).
//!
//! Run: `cargo run --release -p scup-bench --bin exp_sink_detector`

use scup_bench::{table, workloads};
use scup_graph::sink;
use scup_sim::{NetworkConfig, Simulation};
use stellar_cup::consensus::EndToEndConfig;
use stellar_cup::oracle::validate_detection;
use stellar_cup::roster::{self, AdversaryKind, SdProtocol};
use stellar_cup::sink_detector::{GetSinkMode, LyingSinkValueActor, SinkDetectorActor};

fn run_one(
    sc: &workloads::Scenario,
    mode: GetSinkMode,
    lying: bool,
    seed: u64,
) -> (bool, u64, u64, u64) {
    let mut sim = Simulation::new(
        sc.kg.clone(),
        NetworkConfig::partially_synchronous(150, 10, seed),
    );
    let config = EndToEndConfig {
        get_sink_mode: mode,
        ..EndToEndConfig::default()
    };
    let detectors = SdProtocol::new(&sc.kg, sc.f, &config);
    for i in sc.kg.processes() {
        let faulty = sc.faulty.contains(i);
        // The lying actor is an attack on this protocol only, so it is
        // not an adversary kind the roster seats.
        sim.add_actor(if faulty && lying {
            Box::new(LyingSinkValueActor {
                fake_sink: scup_graph::ProcessSet::from_ids([0, 1]),
            })
        } else {
            roster::seat(&detectors, i, faulty, AdversaryKind::Silent, 0)
        });
    }
    let report = sim.run_until_quiet(5_000_000);
    let v_sink = sink::unique_sink(sc.kg.graph()).unwrap();
    let correct = sc.kg.graph().vertex_set().difference(&sc.faulty);
    let mut ok = true;
    for i in sc.kg.processes() {
        if sc.faulty.contains(i) {
            continue;
        }
        match sim.actor_as::<SinkDetectorActor>(i).unwrap().detection() {
            Some(d) => {
                if validate_detection(i, &d, &v_sink, &correct, sc.f).is_err() {
                    ok = false;
                }
            }
            None => ok = false,
        }
    }
    (
        ok,
        report.messages_sent,
        report.bytes_sent,
        report.end_time.ticks(),
    )
}

fn main() {
    println!("Experiment A3/T6: distributed sink detector (Algorithm 3).");

    let sizes = [
        (5usize, 3usize),
        (5, 8),
        (6, 12),
        (8, 16),
        (10, 24),
        (12, 36),
    ];
    for (mode, mode_name) in [
        (GetSinkMode::Direct, "direct"),
        (GetSinkMode::ReachableBroadcast, "rrb"),
    ] {
        for lying in [false, true] {
            table::section(&format!(
                "mode = {mode_name}, adversary = {}",
                if lying { "lying sink values" } else { "silent" }
            ));
            table::header(
                &["scenario", "n", "thm6", "msgs", "bytes", "ticks"],
                &[22, 5, 6, 9, 11, 8],
            );
            for sc in workloads::scaling_scenarios(1, &sizes, 11) {
                let mut all_ok = true;
                let (mut msgs, mut bytes, mut ticks) = (0u64, 0u64, 0u64);
                const SEEDS: u64 = 3;
                for seed in 0..SEEDS {
                    let (ok, m, b, t) = run_one(&sc, mode, lying, seed);
                    all_ok &= ok;
                    msgs += m;
                    bytes += b;
                    ticks += t;
                }
                table::row(
                    &[
                        sc.name.clone(),
                        sc.kg.n().to_string(),
                        if all_ok { "ok".into() } else { "FAIL".into() },
                        (msgs / SEEDS).to_string(),
                        (bytes / SEEDS).to_string(),
                        (ticks / SEEDS).to_string(),
                    ],
                    &[22, 5, 6, 9, 11, 8],
                );
            }
        }
    }
}
