//! The four sampled workloads: the untraced measured loop over
//! `campaign::run_one`, and the traced pass that re-executes the same
//! `(scenario, seed)` runs through the public phase functions with one span
//! per call.

use std::time::Instant;

use scup_fbqs::SliceFamily;
use scup_graph::ProcessId;
use scup_harness::campaign::{run_one, RunRecord};
use scup_harness::oracle::{self, InvariantReport};
use scup_harness::scenario::ProtocolSpec;
use scup_harness::{topology, AdversaryRegistry, Scenario};
use scup_scp::{NodeStats, Value};
use stellar_cup::build_slices;
use stellar_cup::consensus::{self, EndToEndConfig};
use stellar_cup::sink_detector::GetSinkMode;

use crate::stats;
use crate::trace::Tracer;
use crate::workload::Workload;
use crate::{time_is_up, Run, Tally};

/// Slices every measured part runs at least, and the slices the simulated
/// counts are taken over: a fixed prefix, so the counts depend on the
/// seed only and never on how fast the host is.
pub const MIN_SLICES: u64 = 5;

/// The `(entry index, seed)` runs of one slice, scenarios interleaved
/// round-robin so every part of a slice has the same scenario mix.
fn slice_runs(w: &Workload, offsets: &[u64], slice: u64, smoke: bool) -> Vec<(usize, u64)> {
    let per = |seeds: u64| if smoke { 1 } else { seeds };
    let most = w.entries.iter().map(|e| per(e.seeds)).max().unwrap_or(0);
    let mut runs = Vec::new();
    for k in 0..most {
        for (idx, e) in w.entries.iter().enumerate() {
            if k < per(e.seeds) {
                runs.push((idx, e.run_seed(offsets[idx], slice, k)));
            }
        }
    }
    runs
}

/// The set-up pass over the scenario list, on seeds outside every pool.
pub fn warm_up(w: &Workload, run: &mut Run) {
    let smoke = run.smoke;
    let per = |warmup: u64| if smoke { warmup.min(1) } else { warmup };
    let most = w.entries.iter().map(|e| per(e.warmup)).max().unwrap_or(0);
    for k in 0..most {
        for e in &w.entries {
            if k < per(e.warmup) {
                let record = run_one(&e.scenario, e.warmup_seed(k), &run.registry);
                run.tally.record(&record);
            }
        }
    }
}

impl Tally {
    /// Counts one sampled run against its oracle: exhibits
    /// (`expect_violation`) pass exactly when they are caught, which
    /// `RunRecord::passed` already folds in.
    pub fn record(&mut self, r: &RunRecord) {
        let ok = r.passed && r.error.is_none();
        self.note(ok, || {
            format!(
                "{} seed {}: {}",
                r.scenario,
                r.seed,
                r.error
                    .clone()
                    .unwrap_or_else(|| r.invariants.violations.join("; "))
            )
        });
    }
}

/// The untraced measured part: slices of `run_one` until `seconds` have
/// passed (at least [`MIN_SLICES`]).
pub fn measure(w: &Workload, run: &mut Run) -> Result<(), String> {
    let Run {
        registry,
        seed: base_seed,
        seconds,
        smoke,
        rows,
        tally,
        notes,
    } = run;
    let (base_seed, seconds, smoke) = (*base_seed, *seconds, *smoke);
    let offsets = w.pool_offsets(base_seed);
    let min_slices = if smoke { 1 } else { MIN_SLICES };
    let mut runs_per_s = Vec::new();
    let mut run_ms_p50 = Vec::new();
    let mut deliveries_per_s = Vec::new();
    let (mut msgs, mut bytes, mut decisions) = (0u64, 0u64, 0u64);
    let mut total_runs = 0u64;

    let started = Instant::now();
    let mut slice = 0u64;
    loop {
        let runs = slice_runs(w, &offsets, slice, smoke);
        let mut run_ms = Vec::with_capacity(runs.len());
        let mut delivered = 0u64;
        let slice_started = Instant::now();
        for &(idx, seed) in &runs {
            let t = Instant::now();
            let record = run_one(&w.entries[idx].scenario, seed, registry);
            run_ms.push(t.elapsed().as_secs_f64() * 1e3);
            delivered += record.messages_delivered;
            if slice < min_slices {
                msgs += record.messages_sent;
                bytes += record.bytes_sent;
                decisions += u64::from(record.invariants.termination);
            }
            tally.record(&record);
        }
        let wall = slice_started.elapsed().as_secs_f64();
        runs_per_s.push(runs.len() as f64 / wall);
        deliveries_per_s.push(delivered as f64 / wall);
        run_ms_p50.push(stats::median(&run_ms));
        total_runs += runs.len() as u64;
        slice += 1;

        if slice >= min_slices && (smoke || time_is_up(started, slice, seconds)) {
            break;
        }
    }
    if decisions == 0 {
        return Err("no run reached a decision; msgs_per_decision is undefined".into());
    }

    rows.set_median("runs_per_s", &runs_per_s);
    rows.set_median("run_ms_p50", &run_ms_p50);
    rows.set_median("deliveries_per_s", &deliveries_per_s);
    rows.set("msgs_per_decision", msgs as f64 / decisions as f64);
    rows.set("bytes_per_decision", bytes as f64 / decisions as f64);
    notes.push(format!(
        "{slice} slices, {total_runs} runs in {:.2} s; timings are medians over slices, \
         simulated counts cover the first {min_slices} slices ({decisions} decisions)",
        started.elapsed().as_secs_f64()
    ));
    Ok(())
}

/// What the decomposed path observed for one `(scenario, seed)`.
pub struct Decomposed {
    pub invariants: InvariantReport,
    decided_value: Option<Value>,
    passed: bool,
    pub messages_sent: u64,
    messages_delivered: u64,
    bytes_sent: u64,
    timers_fired: u64,
    end_ticks: u64,
    messages_dropped: u64,
    retransmissions: u64,
    recoveries: u64,
    joins: u64,
    /// Messages the sink-detector phase sent (0 without one).
    pub sd_messages_sent: u64,
    /// Messages the SCP phase delivered (0 for BFT-CUP).
    pub scp_messages_delivered: u64,
    /// Per-node SCP counters (empty for BFT-CUP).
    node_stats: Vec<NodeStats>,
    /// Index of the run's root span.
    pub root: usize,
}

/// Re-executes what `campaign::run_one` does for `(scenario, seed)` through
/// the public phase functions, one span per call. Mirrors
/// `harness::campaign::run_configured` and `harness::protocol::execute`;
/// [`traced`] checks the mirror against `run_one`'s own record on every
/// run it covers.
pub fn decomposed(
    scenario: &Scenario,
    seed: u64,
    registry: &AdversaryRegistry,
    tracer: &mut Tracer,
    run: u64,
) -> Result<Decomposed, String> {
    let root = tracer.open("run", None, run);
    let adversary = registry.resolve(&scenario.adversary)?;
    let (kg, generated) = tracer.child("graph.instantiate", root, || {
        topology::instantiate(&scenario.topology, scenario.f, seed)
    });
    let faulty = tracer.child("harness.place_faults", root, || {
        topology::place_faults(&scenario.faults, &kg, generated, seed)
    })?;
    let plan = scenario.fault_plan.to_plan();
    plan.validate(kg.n())?;
    let churn = scenario.churn.to_plan(&kg);
    churn.validate(kg.n())?;
    let inputs = scenario.resolved_inputs(kg.n());
    let f = scenario.f;

    // `harness::protocol::pipeline_config`, field for field.
    let config = EndToEndConfig {
        seed,
        gst: scenario.network.gst,
        delta: scenario.network.delta,
        get_sink_mode: GetSinkMode::Direct,
        adversary: adversary.to_scp(),
        inputs: Some(inputs.clone()),
        max_ticks: scenario.network.max_ticks,
        trace: false,
        faults: plan.clone(),
        retransmit: scenario.fault_plan.retransmit_config(&scenario.network),
        churn,
        forensics: false,
    };

    let mut out = Decomposed {
        invariants: InvariantReport {
            termination: false,
            termination_required: true,
            agreement: false,
            validity: None,
            pledges_ok: true,
            premise: false,
            violations: Vec::new(),
        },
        decided_value: None,
        passed: false,
        messages_sent: 0,
        messages_delivered: 0,
        bytes_sent: 0,
        timers_fired: 0,
        end_ticks: 0,
        messages_dropped: 0,
        retransmissions: 0,
        recoveries: 0,
        joins: 0,
        sd_messages_sent: 0,
        scp_messages_delivered: 0,
        node_stats: Vec::new(),
        root,
    };
    let decisions: Vec<Option<Value>>;
    let pledge_violations: Vec<String>;
    match scenario.protocol {
        ProtocolSpec::StellarMinimal | ProtocolSpec::StellarLocal(_) => {
            let mut report = scup_sim::SimReport::default();
            let slices: Vec<SliceFamily> = match scenario.protocol {
                ProtocolSpec::StellarLocal(strategy) => {
                    tracer.child("core.build_slices", root, || {
                        kg.processes()
                            .map(|i| strategy.build(kg.pd(i), f))
                            .collect()
                    })
                }
                _ => {
                    let (detections, sd_report) = tracer.child("core.sink_detection", root, || {
                        consensus::run_sink_detection(&kg, f, &faulty, &config)
                    });
                    out.sd_messages_sent = sd_report.messages_sent;
                    report = sd_report;
                    tracer.child("core.build_slices", root, || {
                        detections
                            .iter()
                            .map(|d| match d {
                                Some(d) => build_slices(d, f),
                                None => SliceFamily::empty(),
                            })
                            .collect()
                    })
                }
            };
            let scp = tracer.child("scp.phase", root, || {
                consensus::run_scp_with_slices_observed(&kg, &faulty, slices, &inputs, &config)
            });
            report.absorb(&scp.report);
            out.scp_messages_delivered = scp.report.messages_delivered;
            out.end_ticks = scp.report.end_time.ticks();
            out.retransmissions = scp.node_stats.iter().map(|s| s.retransmissions).sum();
            pledge_violations = kg
                .processes()
                .filter(|i| !faulty.contains(*i))
                .flat_map(|i| {
                    scup_scp::journal_contradictions(&scp.journals[i.index()])
                        .into_iter()
                        .map(move |v| format!("process {i}: {v}"))
                })
                .collect();
            out.messages_sent = report.messages_sent;
            out.messages_delivered = report.messages_delivered;
            out.bytes_sent = report.bytes_sent;
            out.timers_fired = report.timers_fired;
            out.messages_dropped = report.messages_dropped;
            out.recoveries = report.recoveries;
            out.joins = report.joins;
            out.node_stats = scp.node_stats;
            decisions = scp.decisions;
        }
        ProtocolSpec::BftCup => {
            let output = tracer.child("cup.phase", root, || {
                scup_harness::protocol::execute(
                    scenario.protocol,
                    &kg,
                    f,
                    &faulty,
                    adversary,
                    &scenario.network,
                    &scenario.fault_plan,
                    &scenario.churn,
                    inputs.clone(),
                    seed,
                )
            });
            out.end_ticks = output.end_ticks;
            out.retransmissions = output.retransmissions;
            out.messages_sent = output.messages_sent;
            out.messages_delivered = output.messages_delivered;
            out.bytes_sent = output.bytes_sent;
            out.timers_fired = output.timers_fired;
            out.messages_dropped = output.messages_dropped;
            out.recoveries = output.recoveries;
            out.joins = output.joins;
            pledge_violations = output.pledge_violations;
            decisions = output.decisions;
        }
    }

    let termination_required = plan.is_zero() || plan.heal_tick().is_some();
    let departed = scenario.churn.departed();
    let invariants = tracer.child("harness.oracle", root, || {
        oracle::evaluate_churned(
            &kg,
            f,
            &faulty,
            &departed,
            &inputs,
            &decisions,
            adversary,
            termination_required,
            &pledge_violations,
            scenario.validity,
        )
    });
    tracer.close(root);

    out.decided_value = if invariants.agreement {
        kg.processes()
            .filter(|i: &ProcessId| !faulty.contains(*i))
            .find_map(|i| decisions[i.index()])
    } else {
        None
    };
    let ok = invariants.passes(scenario.oracle);
    out.passed = if scenario.expect_violation { !ok } else { ok };
    out.invariants = invariants;
    Ok(out)
}

/// Where the decomposed path and `run_one` disagree, if anywhere.
fn mismatch(d: &Decomposed, r: &RunRecord) -> Option<String> {
    let fields = [
        ("messages_sent", d.messages_sent, r.messages_sent),
        ("bytes_sent", d.bytes_sent, r.bytes_sent),
        ("end_ticks", d.end_ticks, r.end_ticks),
    ];
    for (name, ours, theirs) in fields {
        if ours != theirs {
            return Some(format!("{name} {ours} != run_one's {theirs}"));
        }
    }
    if d.decided_value != r.decided_value {
        return Some(format!(
            "decided {:?} != run_one's {:?}",
            d.decided_value, r.decided_value
        ));
    }
    if d.invariants != r.invariants || d.passed != r.passed {
        return Some("oracle verdict differs from run_one's".into());
    }
    None
}

/// The traced pass: for each covered `(scenario, seed)`, `run_one` whole
/// (the untraced reference) and then the decomposed path, compared field
/// by field. Covers the measured part's first slices until about half of
/// `seconds` is spent — each covered run executes twice.
pub fn traced(w: &Workload, run: &mut Run, tracer: &mut Tracer) {
    let Run {
        registry,
        seed: base_seed,
        seconds,
        smoke,
        rows,
        tally,
        notes,
    } = run;
    let (base_seed, seconds, smoke) = (*base_seed, *seconds, *smoke);
    let offsets = w.pool_offsets(base_seed);
    let mut run_one_ns = 0u128;
    let mut decomposed_ns = 0u128;
    let mut covered = Vec::new();
    let mut end_ticks = Vec::new();
    let mut scp_decisions = 0u64;
    let mut scp = NodeStats::default();
    let mut scp_runs = 0u64;
    let (mut bft_runs, mut bft_timers) = (0u64, 0u64);
    let (mut events, mut timers, mut dropped, mut retransmitted, mut recoveries, mut joins) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);

    let started = Instant::now();
    let mut slice = 0u64;
    loop {
        for (idx, seed) in slice_runs(w, &offsets, slice, smoke) {
            let scenario = &w.entries[idx].scenario;
            let run = covered.len() as u64;
            let whole = || {
                let t = Instant::now();
                let record = run_one(scenario, seed, registry);
                (record, t.elapsed().as_nanos())
            };
            let split = |tracer: &mut Tracer| {
                let t = Instant::now();
                let result = decomposed(scenario, seed, registry, tracer, run);
                (result, t.elapsed().as_nanos())
            };
            // Whichever path runs second finds warm caches; alternate.
            let ((record, whole_ns), (result, split_ns)) = if run.is_multiple_of(2) {
                let first = whole();
                (first, split(tracer))
            } else {
                let second = split(tracer);
                (whole(), second)
            };
            run_one_ns += whole_ns;
            decomposed_ns += split_ns;
            tally.record(&record);
            let d = match result {
                Ok(d) => d,
                Err(e) => {
                    tally.note(false, || {
                        format!("{} seed {seed}: traced path: {e}", scenario.name)
                    });
                    continue;
                }
            };
            let diff = mismatch(&d, &record);
            tally.note(diff.is_none(), || {
                format!(
                    "{} seed {seed}: traced path: {}",
                    scenario.name,
                    diff.clone().unwrap_or_default()
                )
            });

            covered.push(d.root);
            end_ticks.push(d.end_ticks as f64);
            events += d.messages_delivered + d.timers_fired;
            timers += d.timers_fired;
            dropped += d.messages_dropped;
            retransmitted += d.retransmissions;
            recoveries += d.recoveries;
            joins += d.joins;
            if scenario.protocol == ProtocolSpec::BftCup {
                bft_runs += 1;
                bft_timers += d.timers_fired;
            } else {
                scp_runs += 1;
                scp_decisions += u64::from(d.invariants.termination);
                for s in &d.node_stats {
                    scp.envelopes_delivered += s.envelopes_delivered;
                    scp.envelopes_duplicate += s.envelopes_duplicate;
                    scp.ballots_started += s.ballots_started;
                    scp.catchup_envelopes += s.catchup_envelopes;
                }
            }
        }
        slice += 1;
        if smoke || started.elapsed().as_secs_f64() >= seconds / 2.0 {
            break;
        }
    }

    let runs = covered.len().max(1) as f64;
    // Phase rows: mean over the runs that executed the phase.
    let spans = tracer.spans();
    let phase_mean_ns = |name: &str| {
        let ns: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64)
            .collect();
        (!ns.is_empty()).then(|| stats::mean(&ns))
    };
    for (span, metric, per) in [
        ("graph.instantiate", "graph.instantiate_us", 1e3),
        ("harness.place_faults", "harness.place_faults_us", 1e3),
        ("core.sink_detection", "core.sink_detection_ms", 1e6),
        ("core.build_slices", "core.build_slices_us", 1e3),
        ("scp.phase", "scp.phase_ms", 1e6),
        ("cup.phase", "cup.phase_ms", 1e6),
        ("harness.oracle", "harness.oracle_us", 1e3),
    ] {
        if let Some(ns) = phase_mean_ns(span) {
            rows.set(metric, ns / per);
        }
    }
    let root_ns: u64 = covered.iter().map(|&r| spans[r].nanos()).sum();
    let phases_ns: u64 = covered.iter().map(|&r| tracer.children_nanos(r)).sum();
    rows.set(
        "harness.run_one_glue_us",
        (run_one_ns as f64 - phases_ns as f64) / runs / 1e3,
    );
    rows.set(
        "obs.span_coverage",
        phases_ns as f64 / root_ns.max(1) as f64,
    );
    // Traced ÷ untraced runs per second over the same runs.
    rows.set(
        "obs.trace_overhead",
        run_one_ns as f64 / decomposed_ns.max(1) as f64,
    );

    rows.set("sim.events_per_run", events as f64 / runs);
    rows.set("sim.timers_fired", timers as f64 / runs);
    rows.set("sim.msgs_dropped", dropped as f64 / runs);
    rows.set("sim.retransmissions", retransmitted as f64 / runs);
    rows.set("sim.recoveries", recoveries as f64 / runs);
    rows.set("sim.joins", joins as f64 / runs);
    if !end_ticks.is_empty() {
        rows.set("sim.ticks_to_decide_p50", stats::median(&end_ticks));
    }
    if scp_runs > 0 {
        rows.set(
            "scp.dup_share",
            scp.envelopes_duplicate as f64 / scp.envelopes_delivered.max(1) as f64,
        );
        rows.set(
            "scp.envelopes_per_decision",
            scp.envelopes_delivered as f64 / scp_decisions.max(1) as f64,
        );
        rows.set(
            "scp.ballots_per_run",
            scp.ballots_started as f64 / scp_runs as f64,
        );
        rows.set(
            "scp.catchup_envelopes",
            scp.catchup_envelopes as f64 / scp_runs as f64,
        );
    }
    if bft_runs > 0 {
        rows.set(
            "cup.bft_timers_per_run",
            bft_timers as f64 / bft_runs as f64,
        );
    }
    notes.push(format!(
        "traced pass: {} runs ({slice} of the measured part's slices), each also run whole \
         through run_one and compared; {scp_runs} scp runs, {bft_runs} bft-cup runs",
        covered.len()
    ));
}
