//! Campaigns: a scenario matrix, a parallel runner, and structured
//! reports.
//!
//! A [`Campaign`] expands every scenario into `(scenario, seed)` run
//! specs and fans them out across worker threads. Each run is
//! deterministic in `(scenario, seed)` — topology, fault placement, and
//! the simulation schedule all derive from the seed — so the report is
//! identical whatever the thread count.
//!
//! Runs are **batched per worker**: worker `w` of `T` takes specs
//! `w, w + T, w + 2T, …` (a deterministic stride — no shared cursor, no mutex
//! on the results, and clusters of slow scenarios spread across workers
//! instead of landing on one). Allocation reuse happens *inside* each run,
//! where the time goes: the simulator recycles its dispatch buffers across
//! every event and each SCP node's compiled quorum engine reuses one
//! scratch for the whole run.

use std::time::Instant;

use scup_obs::progress::{ProgressCounter, Ticker};
use scup_scp::Value;

use crate::adversary::AdversaryRegistry;
use crate::json::Json;
use crate::oracle::{self, InvariantReport};
use crate::protocol;
use crate::scenario::{Named, Scenario};
use crate::system::System;

/// How a campaign executes its scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CampaignMode {
    /// Run `(scenario, seed)` samples through the timed simulator
    /// ([`Campaign::run`]).
    #[default]
    Sample,
    /// Exhaustively explore every schedule up to the scenario's
    /// [`ExploreSpec`](crate::scenario::ExploreSpec) bounds. Executed by
    /// the `scup-mc` crate (which depends on this one); [`Campaign::run`]
    /// always samples — the `scup-campaign` CLI dispatches on this flag.
    Explore,
}

impl Named for CampaignMode {
    const ALL: &'static [Self] = &[CampaignMode::Sample, CampaignMode::Explore];

    fn name(&self) -> &'static str {
        match self {
            CampaignMode::Sample => "sample",
            CampaignMode::Explore => "explore",
        }
    }
}

/// A named batch of scenarios.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name (used in the report and default output path).
    pub name: String,
    /// Execution mode (sampling or exhaustive exploration).
    pub mode: CampaignMode,
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// The scenarios to run.
    pub scenarios: Vec<Scenario>,
}

/// The outcome of one `(scenario, seed)` run. The default is a run not
/// yet started: nothing counted, the verdict unjudged, not passed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Scenario name.
    pub scenario: String,
    /// Topology family name.
    pub family: String,
    /// Adversary reference.
    pub adversary: String,
    /// Protocol name.
    pub protocol: String,
    /// The run's seed.
    pub seed: u64,
    /// Number of processes.
    pub n: usize,
    /// Fault threshold.
    pub f: usize,
    /// The faulty processes.
    pub faulty: Vec<u32>,
    /// Oracle verdict.
    pub invariants: InvariantReport,
    /// The agreed value when agreement held and someone decided.
    pub decided_value: Option<Value>,
    /// Messages sent across phases.
    pub messages_sent: u64,
    /// Messages delivered across phases.
    pub messages_delivered: u64,
    /// Bytes (per message `size_hint`) sent across phases.
    pub bytes_sent: u64,
    /// Timers fired across phases.
    pub timers_fired: u64,
    /// SCP ballot protocols started, summed over nodes (0 for BFT-CUP).
    pub ballots_started: u64,
    /// SCP nomination-phase confirmations, summed over nodes.
    pub nominations_confirmed: u64,
    /// SCP prepare-phase confirmations, summed over nodes.
    pub prepares_confirmed: u64,
    /// SCP commit-phase confirmations, summed over nodes.
    pub commits_confirmed: u64,
    /// The process that sent the most messages (traffic hotspot).
    pub hot_process: u32,
    /// Messages sent by that process.
    pub hot_sent: u64,
    /// Messages lost to the fault plan (0 without one).
    pub messages_dropped: u64,
    /// Extra deliveries injected by duplication faults.
    pub messages_duplicated: u64,
    /// Crash events executed by the fault plan.
    pub crashes: u64,
    /// Recovery events executed by the fault plan.
    pub recoveries: u64,
    /// Join events executed by the churn plan (0 without one).
    pub joins: u64,
    /// Leave events executed by the churn plan.
    pub departures: u64,
    /// Messages lost because an endpoint was dormant or departed (a
    /// subset of `messages_dropped`).
    pub churn_drops: u64,
    /// Messages re-sent by the protocols' retransmission layer.
    pub retransmissions: u64,
    /// log₂ histogram of retransmission delays, summed across phases:
    /// bucket `0` counts retransmit rounds armed with delay `0`, bucket
    /// `k ≥ 1` those armed `[2^(k-1), 2^k)` ticks ahead
    /// ([`scup_sim::bucket_of`]).
    pub retransmit_delay_buckets: Vec<u64>,
    /// Per-link fault-plane drop counters, sorted `(from, to, dropped)`.
    pub link_drops: Vec<(u32, u32, u64)>,
    /// Forensic analysis of the violation, when the run failed and the
    /// campaign ran with forensics on.
    pub forensics: Option<crate::forensics::ForensicReport>,
    /// Simulated end time.
    pub end_ticks: u64,
    /// Wall-clock duration of the run, microseconds.
    pub wall_micros: u64,
    /// Pass/fail under the scenario's oracle mode.
    pub passed: bool,
    /// A configuration error, if the run could not even start (bad
    /// adversary name, unsatisfiable fault placement).
    pub error: Option<String>,
}

/// The aggregated outcome of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Worker threads actually used.
    pub threads: usize,
    /// Every run, ordered by (scenario declaration order, seed).
    pub runs: Vec<RunRecord>,
    /// Wall-clock duration of the whole campaign, microseconds.
    pub wall_micros: u64,
}

impl Campaign {
    /// Runs every `(scenario, seed)` pair, in parallel.
    pub fn run(&self) -> CampaignReport {
        self.run_observed(false)
    }

    /// Like [`Campaign::run`], with an optional live progress ticker on
    /// stderr (`runs done/total`, once a second) for long campaigns.
    /// Progress output never touches stdout, so piped report JSON stays
    /// clean; the report is identical either way.
    pub fn run_observed(&self, progress: bool) -> CampaignReport {
        let started = Instant::now();
        let registry = AdversaryRegistry::builtin();

        let specs: Vec<(usize, &Scenario, u64)> = self
            .scenarios
            .iter()
            .enumerate()
            .flat_map(|(idx, s)| {
                (s.seed_base..s.seed_base + s.seeds).map(move |seed| (idx, s, seed))
            })
            .collect();

        // Strided batches: worker `w` runs specs `w, w + T, w + 2T, …` into its
        // own vector; records are re-slotted by spec index afterwards, so
        // the report is byte-identical whatever the thread count.
        let threads = if self.threads == 0 {
            worker_threads(0).min(specs.len().max(1))
        } else {
            self.threads
        };
        let counter = ProgressCounter::new();
        let ticker = progress.then(|| {
            Ticker::spawn(
                &format!("campaign `{}`", self.name),
                specs.len() as u64,
                counter.clone(),
                std::time::Duration::from_secs(1),
            )
        });
        let mut slots: Vec<Option<RunRecord>> = vec![None; specs.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let specs = &specs;
                    let registry = &registry;
                    let counter = counter.clone();
                    scope.spawn(move || {
                        let mut records = Vec::with_capacity(specs.len() / threads + 1);
                        for &(_, scenario, seed) in specs.iter().skip(w).step_by(threads) {
                            records.push(run_one(scenario, seed, registry));
                            counter.add(1);
                        }
                        records
                    })
                })
                .collect();
            for (w, handle) in handles.into_iter().enumerate() {
                let records = handle.join().expect("campaign worker panicked");
                for (k, record) in records.into_iter().enumerate() {
                    slots[w + k * threads] = Some(record);
                }
            }
        });
        if let Some(t) = ticker {
            t.finish();
        }
        let runs = slots
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect();

        CampaignReport {
            name: self.name.clone(),
            threads,
            runs,
            wall_micros: started.elapsed().as_micros() as u64,
        }
    }
}

/// The worker count a campaign's `threads` setting asks for: itself, or
/// one per available CPU when it is `0`.
pub fn worker_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    }
}

/// Renders a caught panic as a configuration error. The net under
/// [`System::of`](crate::system::System::of)'s validation: generators and
/// the simulator assert their parameter contracts, and a contract no
/// validator mirrors yet must become that record's error, not abort the
/// whole campaign process.
pub fn configuration_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("configuration panic: {msg}")
}

/// Executes one `(scenario, seed)` run.
pub fn run_one(scenario: &Scenario, seed: u64, registry: &AdversaryRegistry) -> RunRecord {
    let started = Instant::now();
    let mut record = RunRecord {
        scenario: scenario.name.clone(),
        family: scenario.topology.family().name().to_string(),
        adversary: scenario.adversary.clone(),
        protocol: scenario.protocol.name().to_string(),
        seed,
        f: scenario.f,
        ..RunRecord::default()
    };

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_configured(scenario, seed, registry, &mut record)
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => record.error = Some(e),
        Err(payload) => record.error = Some(configuration_panic(payload)),
    }
    record.wall_micros = started.elapsed().as_micros() as u64;
    record
}

fn run_configured(
    scenario: &Scenario,
    seed: u64,
    registry: &AdversaryRegistry,
    record: &mut RunRecord,
) -> Result<(), String> {
    let system = System::of(scenario, seed, registry)?;
    let (kg, faulty, plan) = (&system.kg, &system.faulty, &system.config.faults);
    let adversary = system.config.adversary;
    record.n = kg.n();
    record.faulty = faulty.iter().map(|p| p.as_u32()).collect();
    let (output, _) = protocol::execute_observed(&system);

    // Graceful degradation: a plan that heals (or injects nothing) must
    // still terminate; an unhealed plan only owes safety. Churn itself
    // always quiesces (every join/leave is a one-shot event), so it never
    // waives termination on its own.
    let termination_required = plan.is_zero() || plan.heal_tick().is_some();
    let departed = scenario.churn.departed();
    let invariants = oracle::evaluate_churned(
        kg,
        scenario.f,
        faulty,
        &departed,
        &output.inputs,
        &output.decisions,
        adversary,
        termination_required,
        &output.pledge_violations,
        scenario.validity,
    );

    record.decided_value = if invariants.agreement {
        kg.processes()
            .filter(|i| !faulty.contains(*i))
            .find_map(|i| output.decisions[i.index()])
    } else {
        None
    };
    // `expect_violation` scenarios are exhibits: they pass exactly when
    // the oracle *catches* the staged misconfiguration. Runs that errored
    // out never pass either way.
    let ok = invariants.passes(scenario.oracle);
    record.passed = if scenario.expect_violation { !ok } else { ok };
    record.invariants = invariants;
    record.messages_sent = output.messages_sent;
    record.messages_delivered = output.messages_delivered;
    record.bytes_sent = output.bytes_sent;
    record.timers_fired = output.timers_fired;
    for ns in &output.node_stats {
        record.ballots_started += ns.ballots_started;
        record.nominations_confirmed += ns.nominations_confirmed;
        record.prepares_confirmed += ns.prepares_confirmed;
        record.commits_confirmed += ns.commits_confirmed;
    }
    if let Some((id, stats)) = output
        .per_process
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.sent)
    {
        record.hot_process = id as u32;
        record.hot_sent = stats.sent;
    }
    record.messages_dropped = output.messages_dropped;
    record.messages_duplicated = output.messages_duplicated;
    record.crashes = output.crashes;
    record.recoveries = output.recoveries;
    record.joins = output.joins;
    record.departures = output.departures;
    record.churn_drops = output.churn_drops;
    record.retransmissions = output.retransmissions;
    record.retransmit_delay_buckets = output.retransmit_delay_buckets.clone();
    record.link_drops = output
        .link_drops
        .iter()
        .map(|(&(from, to), &dropped)| (from, to, dropped))
        .collect();
    record.end_ticks = output.end_ticks;
    Ok(())
}

impl CampaignReport {
    /// Number of passing runs.
    pub fn passed(&self) -> usize {
        self.runs.iter().filter(|r| r.passed).count()
    }

    /// Number of failing runs.
    pub fn failed(&self) -> usize {
        self.runs.len() - self.passed()
    }

    /// `true` when every run passed its oracle mode.
    pub fn all_passed(&self) -> bool {
        self.failed() == 0
    }

    /// The report as structured JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("campaign", Json::Str(self.name.clone())),
            ("threads", Json::from(self.threads)),
            ("total_runs", Json::from(self.runs.len())),
            ("passed", Json::from(self.passed())),
            ("failed", Json::from(self.failed())),
            ("wall_micros", Json::from(self.wall_micros)),
            ("runs", self.runs.iter().map(RunRecord::to_json).collect()),
        ])
    }
}

impl RunRecord {
    /// The record as structured JSON.
    pub fn to_json(&self) -> Json {
        let inv = &self.invariants;
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            ("family", Json::Str(self.family.clone())),
            ("adversary", Json::Str(self.adversary.clone())),
            ("protocol", Json::Str(self.protocol.clone())),
            ("seed", Json::from(self.seed)),
            ("n", Json::from(self.n)),
            ("f", Json::from(self.f)),
            ("faulty", self.faulty.iter().copied().collect()),
            (
                "oracles",
                Json::obj([
                    ("termination", Json::Bool(inv.termination)),
                    ("termination_required", Json::Bool(inv.termination_required)),
                    ("agreement", Json::Bool(inv.agreement)),
                    ("pledges_ok", Json::Bool(inv.pledges_ok)),
                    ("validity", Json::from(inv.validity)),
                    ("premise", Json::Bool(inv.premise)),
                    ("violations", inv.violations.iter().cloned().collect()),
                ]),
            ),
            (
                "decided_value",
                // A value is an opaque 64-bit word: its two's-complement i64
                // is lossless, where `Json::from` would round the forged
                // values u64::MAX and u64::MAX - 1 to one f64.
                self.decided_value
                    .map(|v| Json::Int(v as i64))
                    .unwrap_or(Json::Null),
            ),
            ("messages_sent", Json::from(self.messages_sent)),
            (
                "metrics",
                Json::obj([
                    ("messages_delivered", Json::from(self.messages_delivered)),
                    ("bytes_sent", Json::from(self.bytes_sent)),
                    ("timers_fired", Json::from(self.timers_fired)),
                    ("ballots_started", Json::from(self.ballots_started)),
                    (
                        "nominations_confirmed",
                        Json::from(self.nominations_confirmed),
                    ),
                    ("prepares_confirmed", Json::from(self.prepares_confirmed)),
                    ("commits_confirmed", Json::from(self.commits_confirmed)),
                    ("hot_process", Json::from(self.hot_process)),
                    ("hot_sent", Json::from(self.hot_sent)),
                    ("messages_dropped", Json::from(self.messages_dropped)),
                    ("messages_duplicated", Json::from(self.messages_duplicated)),
                    ("crashes", Json::from(self.crashes)),
                    ("recoveries", Json::from(self.recoveries)),
                    ("joins", Json::from(self.joins)),
                    ("departures", Json::from(self.departures)),
                    ("churn_drops", Json::from(self.churn_drops)),
                    ("retransmissions", Json::from(self.retransmissions)),
                    (
                        "retransmit_delay_buckets",
                        self.retransmit_delay_buckets.iter().copied().collect(),
                    ),
                    (
                        "link_drops",
                        self.link_drops
                            .iter()
                            .map(|&(from, to, dropped)| {
                                Json::obj([
                                    ("from", Json::from(from)),
                                    ("to", Json::from(to)),
                                    ("dropped", Json::from(dropped)),
                                ])
                            })
                            .collect(),
                    ),
                ]),
            ),
            (
                "forensics",
                Json::from(self.forensics.as_ref().map(|f| f.to_json())),
            ),
            ("end_ticks", Json::from(self.end_ticks)),
            ("wall_micros", Json::from(self.wall_micros)),
            ("passed", Json::Bool(self.passed)),
            ("error", Json::from(self.error.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        FaultPlacement, FaultSpec, NetworkSpec, OracleMode, ProtocolSpec, TopologySpec,
    };

    fn tiny_campaign(threads: usize) -> Campaign {
        Campaign {
            name: "test".into(),
            mode: CampaignMode::Sample,
            threads,
            scenarios: vec![
                Scenario {
                    name: "fig2-silent".into(),
                    faults: FaultPlacement::Ids(vec![5]),
                    seeds: 3,
                    ..Scenario::default()
                },
                // Fig. 1 is 1-OSR, so BFT-CUP needs f = 0 there.
                Scenario {
                    name: "fig1-bft".into(),
                    topology: TopologySpec::Fig1,
                    f: 0,
                    protocol: ProtocolSpec::BftCup,
                    seeds: 2,
                    ..Scenario::default()
                },
                // A healing fault plan: loss + a crash–recover cycle, so
                // the fault-plane counters are live in these tests.
                Scenario {
                    name: "fig2-nemesis".into(),
                    faults: FaultPlacement::Ids(vec![5]),
                    fault_plan: FaultSpec {
                        loss: 0.3,
                        loss_until: 1_500,
                        crash: vec![2],
                        crash_at: 300,
                        recover_at: Some(2_000),
                        ..FaultSpec::default()
                    },
                    network: NetworkSpec {
                        max_ticks: 100_000,
                        ..NetworkSpec::default()
                    },
                    seeds: 2,
                    ..Scenario::default()
                },
            ],
        }
    }

    #[test]
    fn campaign_runs_and_passes() {
        let report = tiny_campaign(2).run();
        assert_eq!(report.runs.len(), 7);
        for run in &report.runs {
            assert!(
                run.passed,
                "{}/{} failed: {:?} {:?}",
                run.scenario, run.seed, run.invariants.violations, run.error
            );
            assert!(run.messages_delivered > 0, "delivery metrics populate");
            assert!(run.bytes_sent > 0, "byte metrics populate");
            assert!(run.hot_sent > 0, "hotspot metrics populate");
            if run.scenario == "fig2-silent" {
                // The SCP phase ran: ballot-phase counters must show it.
                assert!(run.ballots_started > 0, "scp ballot counters populate");
                assert!(run.commits_confirmed > 0);
            }
            if run.scenario == "fig2-nemesis" {
                // The fault plane ran: its counters must show it, and the
                // healing plan still owes (and delivers) termination.
                assert!(run.messages_dropped > 0, "loss counters populate");
                // One planned crash–recover cycle, but the two pipeline
                // phases (knowledge-increase, consensus) run on
                // independent sim clocks and each installs the plan — so
                // the cycle fires once per phase.
                assert_eq!((run.crashes, run.recoveries), (2, 2));
                assert!(run.retransmissions > 0, "retransmission populates");
                // Backoff observability: every retransmit round lands in
                // some log₂ delay bucket, and every fault-plane drop is
                // attributed to its link.
                assert!(
                    run.retransmit_delay_buckets.iter().sum::<u64>() > 0,
                    "retransmit delay histogram populates"
                );
                assert_eq!(
                    run.link_drops.iter().map(|&(_, _, d)| d).sum::<u64>(),
                    run.messages_dropped,
                    "per-link drops account for every dropped message"
                );
                assert!(run.invariants.termination_required);
                assert!(run.invariants.termination);
            } else {
                // Fault-free scenarios never touch the fault plane.
                assert_eq!(run.messages_dropped + run.messages_duplicated, 0);
                assert_eq!(run.crashes + run.recoveries + run.retransmissions, 0);
                assert!(run.retransmit_delay_buckets.is_empty());
                assert!(run.link_drops.is_empty());
            }
        }
        assert!(report.all_passed());
    }

    #[test]
    fn report_is_independent_of_thread_count() {
        // The batched runner must produce bit-identical deterministic
        // fields whatever the worker count (1 = one batch, 2 = even split,
        // 8 = more workers than specs).
        let a = tiny_campaign(1).run();
        for threads in [2, 4, 8] {
            let b = tiny_campaign(threads).run();
            assert_eq!(a.runs.len(), b.runs.len());
            for (x, y) in a.runs.iter().zip(&b.runs) {
                assert_eq!((&x.scenario, x.seed), (&y.scenario, y.seed), "ordering");
                assert_eq!(x.family, y.family);
                assert_eq!(x.faulty, y.faulty);
                assert_eq!(x.decided_value, y.decided_value);
                assert_eq!(x.messages_sent, y.messages_sent);
                assert_eq!(x.messages_delivered, y.messages_delivered);
                assert_eq!(x.bytes_sent, y.bytes_sent);
                assert_eq!(x.timers_fired, y.timers_fired);
                assert_eq!(
                    (x.ballots_started, x.nominations_confirmed),
                    (y.ballots_started, y.nominations_confirmed)
                );
                assert_eq!((x.hot_process, x.hot_sent), (y.hot_process, y.hot_sent));
                assert_eq!(x.end_ticks, y.end_ticks);
                // The fault plane draws from the per-run RNG stream, so
                // its counters are part of the determinism contract too.
                assert_eq!(x.messages_dropped, y.messages_dropped);
                assert_eq!(x.messages_duplicated, y.messages_duplicated);
                assert_eq!((x.crashes, x.recoveries), (y.crashes, y.recoveries));
                assert_eq!(x.retransmissions, y.retransmissions);
                assert_eq!(x.retransmit_delay_buckets, y.retransmit_delay_buckets);
                assert_eq!(x.link_drops, y.link_drops);
                assert_eq!(x.invariants, y.invariants);
                assert_eq!(x.passed, y.passed);
                assert_eq!(x.error, y.error);
            }
        }
    }

    #[test]
    fn bad_adversary_is_a_run_error_not_a_panic() {
        let mut c = tiny_campaign(1);
        c.scenarios[0].adversary = "wat".into();
        let report = c.run();
        let bad: Vec<_> = report.runs.iter().filter(|r| r.error.is_some()).collect();
        assert_eq!(bad.len(), 3);
        assert!(!report.all_passed());
        // An errored record is the unjudged default plus what the scenario
        // names.
        let errored = RunRecord {
            wall_micros: 0,
            ..bad[0].clone()
        };
        let expected = concat!(
            r#"{"scenario":"fig2-silent","family":"fig2","adversary":"wat","#,
            r#""protocol":"stellar-minimal","seed":0,"n":0,"f":1,"faulty":[],"#,
            r#""oracles":{"termination":false,"termination_required":true,"#,
            r#""agreement":false,"pledges_ok":true,"validity":null,"premise":false,"#,
            r#""violations":[]},"decided_value":null,"messages_sent":0,"#,
            r#""metrics":{"messages_delivered":0,"bytes_sent":0,"timers_fired":0,"#,
            r#""ballots_started":0,"nominations_confirmed":0,"prepares_confirmed":0,"#,
            r#""commits_confirmed":0,"hot_process":0,"hot_sent":0,"messages_dropped":0,"#,
            r#""messages_duplicated":0,"crashes":0,"recoveries":0,"joins":0,"#,
            r#""departures":0,"churn_drops":0,"retransmissions":0,"#,
            r#""retransmit_delay_buckets":[],"link_drops":[]},"forensics":null,"#,
            r#""end_ticks":0,"wall_micros":0,"passed":false,"#,
            r#""error":"unknown adversary `wat`; known: crash, echo, equivocate, "#,
            r#"forged-slice, silent"}"#,
        );
        assert_eq!(errored.to_json().compact(), expected);
    }

    #[test]
    fn invalid_topology_parameters_are_a_run_error_not_a_process_abort() {
        // `System::of` validates the parameters (the generator would
        // panic on them): each run carries the error, none a caught panic.
        let report = Campaign {
            name: "bad-params".into(),
            mode: CampaignMode::Sample,
            threads: 2,
            scenarios: vec![Scenario {
                name: "impossible".into(),
                topology: TopologySpec::ScaleFree { n: 3, m: 4 },
                seeds: 2,
                ..Scenario::default()
            }],
        }
        .run();
        assert_eq!(report.runs.len(), 2);
        for run in &report.runs {
            let err = run.error.as_ref().expect("run carries the error");
            assert_eq!(
                err,
                "scenario `impossible`: topology `scale-free` needs n >= m + 1"
            );
            assert!(!run.passed);
        }
    }

    #[test]
    fn json_report_shape() {
        let report = Campaign {
            name: "shape".into(),
            mode: CampaignMode::Sample,
            threads: 1,
            scenarios: vec![Scenario {
                name: "s".into(),
                faults: FaultPlacement::Ids(vec![0]),
                seeds: 1,
                ..Scenario::default()
            }],
        }
        .run();
        let json = report.to_json();
        assert_eq!(json.get("campaign").unwrap().as_str(), Some("shape"));
        assert_eq!(json.get("total_runs").unwrap().as_i64(), Some(1));
        let run = &json.get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(run.get("family").unwrap().as_str(), Some("fig2"));
        let oracles = run.get("oracles").unwrap();
        assert_eq!(oracles.get("agreement").unwrap().as_bool(), Some(true));
        // The JSON must parse back.
        assert!(crate::json::parse(&json.pretty()).is_ok());
    }

    #[test]
    fn seeds_past_i64_max_render_non_negative() {
        // `seed_base = 9223372036854775807, seeds = 2` reaches 2^63, which
        // a cast to i64 would render as -9223372036854775808.
        let report = Campaign {
            name: "top-seeds".into(),
            mode: CampaignMode::Sample,
            threads: 1,
            scenarios: vec![Scenario {
                name: "s".into(),
                faults: FaultPlacement::Ids(vec![0]),
                seed_base: i64::MAX as u64,
                seeds: 2,
                ..Scenario::default()
            }],
        }
        .run();
        let seeds: Vec<u64> = report.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, [i64::MAX as u64, 1 << 63]);
        // Past i64 the seed renders as the nearest f64, in exponent form
        // so that it reads back as a float, not an out-of-range integer.
        let json = report.runs[1].to_json();
        assert_eq!(json.get("seed").unwrap().as_f64(), Some(2f64.powi(63)));
        let text = json.compact();
        assert!(text.contains("\"seed\":9.223372036854776e18,"), "{text}");
        let back = crate::json::parse(&report.to_json().pretty()).unwrap();
        let runs = back.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs[1].get("seed").unwrap().as_f64(), Some(2f64.powi(63)));
    }

    #[test]
    fn observe_mode_never_fails() {
        // Non-converging runs burn events until `max_ticks` (SCP ballot
        // timers re-arm forever), so exploratory sweeps get a small
        // horizon.
        let report = Campaign {
            name: "er".into(),
            mode: CampaignMode::Sample,
            threads: 0,
            scenarios: vec![Scenario {
                name: "er".into(),
                topology: TopologySpec::ErdosRenyi { n: 8, p: 0.2 },
                network: NetworkSpec {
                    max_ticks: 30_000,
                    ..NetworkSpec::default()
                },
                oracle: OracleMode::Observe,
                seeds: 4,
                ..Scenario::default()
            }],
        }
        .run();
        assert!(report.all_passed());
    }
}
