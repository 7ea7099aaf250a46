//! Experiment T1 — the **BFT-CUP baseline** (Theorem 1): the protocol the
//! paper compares Stellar against solves consensus under the same minimal
//! knowledge, without a sink detector. Reports decision latency and message
//! counts side by side with the SCP + sink-detector pipeline.
//!
//! Run: `cargo run --release -p scup-bench --bin exp_bftcup`

use scup_bench::{table, workloads};
use stellar_cup::consensus::{self, EndToEndConfig};

fn main() {
    println!("Experiment T1: BFT-CUP baseline vs SCP + sink detector.");
    const SEEDS: u64 = 5;

    table::section("Consensus under minimal knowledge (silent adversary)");
    table::header(
        &["scenario", "n", "protocol", "agree", "msgs", "ticks"],
        &[22, 4, 10, 6, 9, 8],
    );
    let mut scenarios = workloads::fig2_scenarios();
    scenarios.extend(workloads::scaling_scenarios(
        1,
        &[(5, 3), (6, 6), (8, 8), (10, 14)],
        5,
    ));
    for sc in &scenarios {
        // BFT-CUP: same graph, faulty set, inputs and network as below.
        let mut agree = 0u64;
        let (mut msgs, mut ticks) = (0u64, 0u64);
        for seed in 0..SEEDS {
            let config = EndToEndConfig {
                seed,
                ..EndToEndConfig::default()
            };
            let phase = consensus::run_bftcup(&sc.kg, sc.f, &sc.faulty, &config, None);
            agree += consensus::agreed_value(&phase.decisions, &sc.faulty).is_some() as u64;
            msgs += phase.report.messages_sent;
            ticks += phase.report.end_time.ticks();
        }
        table::row(
            &[
                sc.name.clone(),
                sc.kg.n().to_string(),
                "bft-cup".into(),
                format!("{agree}/{SEEDS}"),
                (msgs / SEEDS).to_string(),
                (ticks / SEEDS).to_string(),
            ],
            &[22, 4, 10, 6, 9, 8],
        );
        // SCP + SD (messages of both phases summed: the knowledge-increase
        // cost is part of Stellar's bill — that is the paper's point).
        let mut agree = 0u64;
        let (mut msgs, mut ticks) = (0u64, 0u64);
        for seed in 0..SEEDS {
            let config = EndToEndConfig {
                seed,
                ..EndToEndConfig::default()
            };
            let outcome = consensus::run_end_to_end(&sc.kg, sc.f, &sc.faulty, &config);
            agree += outcome.agreement() as u64;
            msgs += outcome.sd_report.messages_sent + outcome.scp_report.messages_sent;
            ticks += outcome.sd_report.end_time.ticks() + outcome.scp_report.end_time.ticks();
        }
        table::row(
            &[
                sc.name.clone(),
                sc.kg.n().to_string(),
                "scp+sd".into(),
                format!("{agree}/{SEEDS}"),
                (msgs / SEEDS).to_string(),
                (ticks / SEEDS).to_string(),
            ],
            &[22, 4, 10, 6, 9, 8],
        );
    }
}
