//! A run keeps one record per simulation: the `RunRecord` counters derived
//! from `ProtocolOutput::phases` must equal the fold the record used to be
//! built by, and `ProtocolOutput::knowledge` must be exactly what the
//! knowledge phase's functions return.

use scup_harness::campaign::run_one;
use scup_harness::protocol::{self, ProtocolOutput};
use scup_harness::scenario::{FaultPlacement, Scenario};
use scup_harness::{campaign_from_str, AdversaryRegistry, System};
use scup_sim::SimReport;
use stellar_cup::consensus;

/// The counters a `RunRecord` carries, in its field order.
#[derive(Debug, PartialEq)]
struct Counters {
    messages_sent: u64,
    messages_delivered: u64,
    bytes_sent: u64,
    timers_fired: u64,
    ballots_started: u64,
    nominations_confirmed: u64,
    prepares_confirmed: u64,
    commits_confirmed: u64,
    hot_process: u32,
    hot_sent: u64,
    messages_dropped: u64,
    messages_duplicated: u64,
    crashes: u64,
    recoveries: u64,
    joins: u64,
    departures: u64,
    churn_drops: u64,
    retransmissions: u64,
    retransmit_delay_buckets: Vec<u64>,
    link_drops: Vec<(u32, u32, u64)>,
    end_ticks: u64,
}

/// The old fold, kept as the reference: the knowledge phase's report (the
/// default one for protocols without that phase) absorbs the consensus
/// phase's, and the counters are copied out of the sum field by field;
/// the end time, the retransmissions and the ballot counters are the
/// consensus phase's.
fn reference(output: &ProtocolOutput) -> Counters {
    let (knowledge, consensus) = match output.phases.as_slice() {
        [knowledge, consensus] => (knowledge.report.clone(), consensus),
        [consensus] => (SimReport::default(), consensus),
        phases => panic!("a run has one or two phases, not {}", phases.len()),
    };
    let mut total = knowledge;
    total.absorb(&consensus.report);
    let mut c = Counters {
        messages_sent: total.messages_sent,
        messages_delivered: total.messages_delivered,
        bytes_sent: total.bytes_sent,
        timers_fired: total.timers_fired,
        ballots_started: 0,
        nominations_confirmed: 0,
        prepares_confirmed: 0,
        commits_confirmed: 0,
        hot_process: 0,
        hot_sent: 0,
        messages_dropped: total.messages_dropped,
        messages_duplicated: total.messages_duplicated,
        crashes: total.crashes,
        recoveries: total.recoveries,
        joins: total.joins,
        departures: total.departures,
        churn_drops: total.churn_drops,
        retransmissions: consensus.retransmissions,
        retransmit_delay_buckets: total.retransmit_delay_buckets.clone(),
        link_drops: total
            .link_drops
            .iter()
            .map(|(&(from, to), &dropped)| (from, to, dropped))
            .collect(),
        end_ticks: consensus.report.end_time.ticks(),
    };
    for ns in &consensus.node_stats {
        c.ballots_started += ns.ballots_started;
        c.nominations_confirmed += ns.nominations_confirmed;
        c.prepares_confirmed += ns.prepares_confirmed;
        c.commits_confirmed += ns.commits_confirmed;
    }
    if let Some((id, stats)) = total
        .per_process
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.sent)
    {
        c.hot_process = id as u32;
        c.hot_sent = stats.sent;
    }
    c
}

fn campaign_scenarios(file: &str) -> Vec<Scenario> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../campaigns")
        .join(file);
    let text = std::fs::read_to_string(&path).expect("campaign file");
    campaign_from_str(&text).unwrap().scenarios
}

#[test]
fn run_records_match_the_folded_reference() {
    let registry = AdversaryRegistry::builtin();
    for file in ["fig2.toml", "nemesis.toml"] {
        let scenarios = campaign_scenarios(file);
        assert!(!scenarios.is_empty(), "{file} has scenarios");
        for scenario in scenarios {
            for seed in [scenario.seed_base, scenario.seed_base + 1] {
                let system = System::of(&scenario, seed, &registry).unwrap();
                let output = protocol::execute_observed(&system);
                let r = run_one(&scenario, seed, &registry);
                assert_eq!(r.error, None);
                let derived = Counters {
                    messages_sent: r.messages_sent,
                    messages_delivered: r.messages_delivered,
                    bytes_sent: r.bytes_sent,
                    timers_fired: r.timers_fired,
                    ballots_started: r.ballots_started,
                    nominations_confirmed: r.nominations_confirmed,
                    prepares_confirmed: r.prepares_confirmed,
                    commits_confirmed: r.commits_confirmed,
                    hot_process: r.hot_process,
                    hot_sent: r.hot_sent,
                    messages_dropped: r.messages_dropped,
                    messages_duplicated: r.messages_duplicated,
                    crashes: r.crashes,
                    recoveries: r.recoveries,
                    joins: r.joins,
                    departures: r.departures,
                    churn_drops: r.churn_drops,
                    retransmissions: r.retransmissions,
                    retransmit_delay_buckets: r.retransmit_delay_buckets.clone(),
                    link_drops: r.link_drops.clone(),
                    end_ticks: r.end_ticks,
                };
                assert_eq!(
                    derived,
                    reference(&output),
                    "{file}: {} seed {seed}",
                    scenario.name
                );
            }
        }
    }
}

#[test]
fn knowledge_is_what_the_phase_functions_return() {
    let scenario = Scenario {
        name: "fig2-echo".into(),
        adversary: "echo".into(),
        faults: FaultPlacement::Ids(vec![0]),
        ..Scenario::default()
    };
    for seed in 0..3 {
        let system = System::of(&scenario, seed, &AdversaryRegistry::builtin()).unwrap();
        let output = protocol::execute_observed(&system);
        let (detections, report) =
            consensus::run_sink_detection(&system.kg, system.f, &system.faulty, &system.config);
        let slices = consensus::slices_from_detections(&detections, system.f);
        let knowledge = output
            .knowledge
            .expect("stellar-minimal keeps its knowledge");
        assert_eq!(knowledge.detections, detections, "seed {seed}");
        assert_eq!(knowledge.slices, slices, "seed {seed}");
        assert_eq!(output.phases.len(), 2);
        assert_eq!(output.phases[0].report.messages_sent, report.messages_sent);
    }
}
