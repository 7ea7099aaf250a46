//! Explore-mode campaign execution: one record per scenario, workers
//! sharded over frontier subtrees within each scenario.
//!
//! Observability is opt-in via [`ObsConfig`]: profiling adds phase
//! timing, re-expansion counts and visited-set occupancy to each record
//! (`obs` field), and tracing emits a Chrome-trace-event timeline —
//! one Perfetto process track per scenario, one thread track per worker,
//! one span per worker's uniform-cost search with per-phase breakdown,
//! plus the serial frontier/merge/counterexample sections on thread 0.
//! Neither mode may change any deterministic record field (pinned by the
//! differential obs test in `tests/explore.rs`).

use std::collections::BTreeSet;
use std::time::Instant;

use scup_graph::ProcessSet;
use scup_harness::campaign::{configuration_panic, worker_threads, Campaign};
use scup_harness::forensics::ForensicReport;
use scup_harness::scenario::{Named, ProtocolSpec, ValidityMode};
use scup_harness::{oracle, AdversaryRegistry, Scenario};
use scup_obs::causal::CausalKind;
use scup_obs::chrome::{ArgValue, ChromeEvent, TraceBuffer, TraceClock};
use scup_obs::profile::Phase;

use crate::build::{Driver, Explored, Setup};
use crate::explorer::{Class, Engine, StateCapExceeded, WorkerStats};
use crate::report::{CexReport, ExploreObs, ExploreRecord, ExploreReport};
use crate::visited::{FpEntry, FpTable};

/// What an explore campaign should observe about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsConfig {
    /// Collect phase timing, re-expansion counts, visited-set occupancy
    /// and the frontier-depth series into each record's `obs` field.
    pub profile: bool,
    /// Emit Chrome-trace-event worker timelines (implies `profile` costs
    /// for the per-root phase breakdown).
    pub trace: bool,
    /// Attach a causal-forensics block to rendered counterexamples: the
    /// minimal schedule is replayed a second time with the causal event
    /// graph and decision provenance armed, and the violation's causal
    /// cone plus per-decision provenance chains land in the record's
    /// `violation.forensics` field. Exploration itself is untouched —
    /// forensics only ever runs on the (deterministic) replay, so every
    /// other record field is bit-identical with forensics off.
    pub forensics: bool,
}

impl ObsConfig {
    /// Everything off — the zero-overhead default.
    pub fn off() -> Self {
        ObsConfig::default()
    }

    /// `true` when per-worker phase profiles must be collected.
    fn profiling(self) -> bool {
        self.profile || self.trace
    }
}

/// Observability context threaded through one scenario's exploration.
struct ObsCtx<'a> {
    config: ObsConfig,
    clock: &'a TraceClock,
    pid: u32,
    events: &'a mut Vec<ChromeEvent>,
}

impl ObsCtx<'_> {
    /// Timestamp for a serial span about to start.
    fn span_start(&self) -> u64 {
        self.clock.now_us()
    }

    /// Closes a serial (thread-0) span opened at `ts`.
    fn span_end(&mut self, name: &'static str, ts: u64, args: Vec<(&'static str, ArgValue)>) {
        if self.config.trace {
            self.events.push(ChromeEvent::Complete {
                name: name.to_string(),
                cat: "serial",
                ts,
                dur: self.clock.now_us().saturating_sub(ts),
                pid: self.pid,
                tid: 0,
                args,
            });
        }
    }
}

/// Runs an explore-mode campaign: every scenario is exhaustively explored
/// up to its [`ExploreSpec`](scup_harness::scenario::ExploreSpec) bounds.
///
/// Scenarios run serially; within each, frontier subtrees are sharded
/// across `campaign.threads` workers (0 = one per CPU). All deterministic
/// record fields are identical for any worker count.
pub fn run_explore_campaign(campaign: &Campaign) -> ExploreReport {
    run_explore_campaign_obs(campaign, ObsConfig::off()).0
}

/// Runs an explore-mode campaign with observability: like
/// [`run_explore_campaign`], but additionally returns the Chrome trace
/// events collected under `obs.trace` (empty when tracing is off) and
/// fills each record's `obs` field under `obs.profile`.
pub fn run_explore_campaign_obs(
    campaign: &Campaign,
    obs: ObsConfig,
) -> (ExploreReport, Vec<ChromeEvent>) {
    let started = Instant::now();
    let clock = TraceClock::start();
    let registry = AdversaryRegistry::builtin();
    let threads = worker_threads(campaign.threads);

    let mut events = Vec::new();
    let records = campaign
        .scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            // Perfetto track per scenario: pids are 1-based.
            explore_scenario_obs(
                s,
                threads,
                &registry,
                obs,
                &clock,
                i as u32 + 1,
                &mut events,
            )
        })
        .collect();

    let report = ExploreReport {
        name: campaign.name.clone(),
        threads,
        records,
        wall_micros: started.elapsed().as_micros() as u64,
    };
    (report, events)
}

/// Explores one scenario (observability off).
pub fn explore_scenario(
    scenario: &Scenario,
    threads: usize,
    registry: &AdversaryRegistry,
) -> ExploreRecord {
    let clock = TraceClock::start();
    let mut events = Vec::new();
    explore_scenario_obs(
        scenario,
        threads,
        registry,
        ObsConfig::off(),
        &clock,
        1,
        &mut events,
    )
}

/// Explores one scenario, collecting profiling and trace events per
/// `obs`. Trace events land in `events` on the `pid` process track,
/// timestamped against the shared `clock`.
pub fn explore_scenario_obs(
    scenario: &Scenario,
    threads: usize,
    registry: &AdversaryRegistry,
    obs: ObsConfig,
    clock: &TraceClock,
    pid: u32,
    events: &mut Vec<ChromeEvent>,
) -> ExploreRecord {
    let started = Instant::now();
    let mut record = ExploreRecord {
        scenario: scenario.name.clone(),
        family: scenario.topology.family().name().to_string(),
        adversary: scenario.adversary.clone(),
        protocol: scenario.protocol.name().to_string(),
        f: scenario.f,
        symmetry_group: 1,
        ..ExploreRecord::default()
    };

    if obs.trace {
        events.push(ChromeEvent::ProcessName {
            pid,
            name: scenario.name.clone(),
        });
        events.push(ChromeEvent::ThreadName {
            pid,
            tid: 0,
            name: "serial".to_string(),
        });
    }
    let mut ctx = ObsCtx {
        config: obs,
        clock,
        pid,
        events,
    };

    // Topology generators assert their parameter contracts; contain any
    // panic as this scenario's error, like the sampling runner does.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        explore_configured(scenario, threads, registry, &mut record, &mut ctx)
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => record.error = Some(e),
        Err(payload) => record.error = Some(configuration_panic(payload)),
    }
    record.wall_micros = started.elapsed().as_micros() as u64;
    record
}

fn explore_configured(
    scenario: &Scenario,
    threads: usize,
    registry: &AdversaryRegistry,
    record: &mut ExploreRecord,
    ctx: &mut ObsCtx<'_>,
) -> Result<(), String> {
    let setup = Setup::from_scenario(scenario, registry)?;
    record.n = setup.kg.n();
    record.faulty = setup.faulty.iter().map(|p| p.as_u32()).collect();
    record.premise = setup.premise;
    record.variants = setup.variants();

    // Protocol dispatch: one generic exploration, one driver, three
    // roster descriptions.
    match (setup.protocol, setup.explore_discovery) {
        (ProtocolSpec::BftCup, _) => {
            let driver = Driver::new(&setup, setup.bft());
            explore_with_driver(&driver, scenario, threads, record, ctx)
        }
        (ProtocolSpec::StellarMinimal, true) => {
            let driver = Driver::new(&setup, setup.stack());
            explore_with_driver(&driver, scenario, threads, record, ctx)
        }
        _ => {
            let driver = Driver::new(&setup, setup.scp());
            explore_with_driver(&driver, scenario, threads, record, ctx)
        }
    }
}

fn explore_with_driver<P: Explored>(
    driver: &Driver<'_, P>,
    scenario: &Scenario,
    threads: usize,
    record: &mut ExploreRecord,
    ctx: &mut ObsCtx<'_>,
) -> Result<(), String> {
    let setup = driver.setup();
    let variants = setup.variants();

    let engine = Engine::new(driver, scenario.explore);
    record.symmetry_group = engine.symmetry().group_order();
    record.symmetry_classes = engine.symmetry().class_sizes().to_vec();
    record.symmetry_dropped_classes = engine.symmetry().dropped_classes();
    record.symmetry_dropped_arrangements = engine.symmetry().dropped_arrangements();
    {
        let mut probe = driver.build_sim(0);
        probe.start();
        probe.drain_absorbed();
        record.state_bytes_estimate = probe.state_size_estimate();
    }
    let cap_error = |_: StateCapExceeded| {
        format!(
            "state cap exceeded ({} states); raise `max_states` or tighten \
             `max_steps`/`timer_budget`",
            scenario.explore.max_states
        )
    };

    // Serial prefix: the first branch decisions of every variant,
    // recorded into the shared ancestor table. Prefix states carry their
    // global minimal depths (the serial frontier is layered
    // min-depth-first) — the invariant the workers' layered expansion
    // relies on.
    let frontier_ts = ctx.span_start();
    let mut prefix = FpTable::new();
    let mut prefix_stats = if ctx.config.profiling() {
        WorkerStats::profiled()
    } else {
        WorkerStats::default()
    };
    let mut roots: Vec<(u32, Vec<u32>)> = Vec::new();
    for variant in 0..variants {
        for path in engine
            .frontier(variant, &mut prefix, &mut prefix_stats)
            .map_err(cap_error)?
        {
            roots.push((variant, path));
        }
    }
    record.frontier_roots = roots.len() as u64;
    ctx.span_end(
        "frontier",
        frontier_ts,
        vec![("roots", ArgValue::U64(roots.len() as u64))],
    );

    // Sharded subtree exploration: worker `w` takes roots `w, w+T, …`,
    // each starting from a copy of the ancestor table. Merging by minimal
    // depth makes the union partition-independent.
    let workers = threads.min(roots.len()).max(1);
    let obs = ctx.config;
    let clock = ctx.clock;
    let pid = ctx.pid;
    let explore_ts = ctx.span_start();
    let (merged, stats, buffers) = std::thread::scope(
        |scope| -> Result<(FpTable, WorkerStats, Vec<TraceBuffer>), StateCapExceeded> {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let roots = &roots;
                    let engine = &engine;
                    let prefix = &prefix;
                    scope.spawn(
                        move || -> Result<(FpTable, WorkerStats, TraceBuffer), StateCapExceeded> {
                            let mut visited = prefix.clone();
                            let mut stats = if obs.profiling() {
                                WorkerStats::profiled()
                            } else {
                                WorkerStats::default()
                            };
                            let mut buf = if obs.trace {
                                TraceBuffer::enabled()
                            } else {
                                TraceBuffer::disabled()
                            };
                            let tid = w as u32 + 1;
                            scup_obs::obs_event!(
                                buf,
                                ChromeEvent::ThreadName {
                                    pid,
                                    tid,
                                    name: format!("worker {w}"),
                                }
                            );
                            // All of this worker's roots seed one layered
                            // expansion: they share a single depth, so one
                            // frontier keeps the whole stride in global
                            // depth order.
                            let my_roots: Vec<(u32, Vec<u32>)> =
                                roots.iter().skip(w).step_by(workers).cloned().collect();
                            let span_ts = clock.now_us();
                            let before = Phase::ALL.map(|p| stats.profile.nanos(p));
                            engine.ucs(&my_roots, &mut visited, &mut stats)?;
                            if buf.is_enabled() {
                                push_phase_spans(
                                    &mut buf,
                                    &stats,
                                    before,
                                    span_ts,
                                    clock,
                                    pid,
                                    tid,
                                    my_roots.len() as u64,
                                );
                                buf.push(ChromeEvent::Counter {
                                    name: format!("visited (worker {w})"),
                                    ts: clock.now_us(),
                                    pid,
                                    series: vec![("states", visited.len() as u64)],
                                });
                            }
                            stats.visited_peak = visited.len() as u64;
                            Ok((visited, stats, buf))
                        },
                    )
                })
                .collect();
            let mut merged = prefix.clone();
            let mut stats = prefix_stats;
            let mut buffers = Vec::new();
            for handle in handles {
                let (visited, worker_stats, buf) =
                    handle.join().expect("explore worker panicked")?;
                merged.merge(&visited);
                stats.absorb(worker_stats);
                buffers.push(buf);
            }
            // The per-worker checks are early aborts; this is the actual
            // valve. A worker table is a subset of the union, so whether
            // the scenario errors depends only on the
            // (partition-independent) union size — never on the worker
            // count.
            if merged.len() as u64 > scenario.explore.max_states {
                return Err(StateCapExceeded);
            }
            Ok((merged, stats, buffers))
        },
    )
    .map_err(cap_error)?;
    ctx.span_end(
        "explore+merge",
        explore_ts,
        vec![("states", ArgValue::U64(merged.len() as u64))],
    );
    if ctx.config.profile {
        record.obs = Some(ExploreObs {
            phases: ExploreObs::phase_rows(&stats.profile),
            reexpansions: stats.reexpansions,
            steps_replayed: stats.steps_replayed,
            steps_executed: stats.steps_executed,
            settle_queries: stats.settle_queries,
            settle_forced: stats.settle_forced,
            visited_len: merged.len() as u64,
            visited_capacity: merged.capacity() as u64,
            worker_visited_peak: stats.visited_peak,
            frontier_peak: stats.frontier_peak,
            depth_samples: stats.depth_samples.clone(),
        });
    }
    // Every census statistic is a commutative fold over the merged table.
    let mut decided: BTreeSet<u64> = BTreeSet::new();
    let mut min_violation: Option<u32> = None;
    for (_, entry) in merged.iter() {
        tally(record, &mut decided, &mut min_violation, &entry);
    }
    // A deterministic size model, not a measured peak: every visited state
    // counted at the initial state's size, plus the flat table's 32-byte
    // slots (capacity is a pure function of the state count).
    record.peak_memory_bytes = record.states * record.state_bytes_estimate
        + merged.capacity() as u64 * FpTable::SLOT_BYTES;
    for buf in buffers {
        ctx.events.extend(buf.into_events());
    }
    record.transitions = stats.transitions;
    record.decided_values = decided.into_iter().collect();
    record.complete = record.truncated == 0;
    record.min_violation_depth = min_violation;

    if let Some(d_star) = min_violation {
        let cex_ts = ctx.span_start();
        let (variant, path) = engine
            .find_cex(variants, d_star)
            .expect("a violating state at depth d* is reachable by construction");
        record.violation = Some(render_cex(
            driver,
            &engine,
            variant,
            &path,
            &scenario.name,
            ctx.config.forensics,
        ));
        ctx.span_end(
            "find_cex",
            cex_ts,
            vec![("depth", ArgValue::U64(d_star as u64))],
        );
    }

    record.passed = if scenario.expect_violation {
        record.violation.is_some()
    } else {
        oracle::passes(scenario.oracle, record.premise, record.violating == 0)
    };
    Ok(())
}

/// Accumulates one visited entry into the record's census. The census is
/// a commutative fold over `(depth, class, symmetric)` — identical for
/// any iteration order.
fn tally(
    record: &mut ExploreRecord,
    decided: &mut BTreeSet<u64>,
    min_violation: &mut Option<u32>,
    entry: &FpEntry,
) {
    record.states += 1;
    if entry.symmetric {
        record.symmetric_states += 1;
    }
    match entry.class {
        Class::Expanded => record.expanded += 1,
        Class::Truncated => record.truncated += 1,
        Class::QuiescentUndecided => record.quiescent_undecided += 1,
        Class::Decided(v) => {
            record.decided += 1;
            decided.insert(v);
        }
        Class::Violating => {
            record.violating += 1;
            *min_violation = Some(min_violation.map_or(entry.depth, |d| d.min(entry.depth)));
        }
    }
}

/// Emits one span covering a worker's whole ucs frontier and, nested
/// within it, one child span per phase whose attributed time grew during
/// the search, laid out sequentially from the span's start (the real
/// interleaving is sub-microsecond; the sequential layout shows the
/// proportions, which is what the viewer is for).
#[allow(clippy::too_many_arguments)]
fn push_phase_spans(
    buf: &mut TraceBuffer,
    stats: &WorkerStats,
    before: [u64; Phase::COUNT],
    span_ts: u64,
    clock: &TraceClock,
    pid: u32,
    tid: u32,
    roots: u64,
) {
    let end = clock.now_us();
    buf.push(ChromeEvent::Complete {
        name: format!("ucs ({roots} roots)"),
        cat: "ucs",
        ts: span_ts,
        dur: end.saturating_sub(span_ts),
        pid,
        tid,
        args: vec![
            ("roots", ArgValue::U64(roots)),
            ("transitions", ArgValue::U64(stats.transitions)),
        ],
    });
    let mut cursor = span_ts;
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let dur = stats.profile.nanos(*phase).saturating_sub(before[i]) / 1_000;
        if dur == 0 {
            continue;
        }
        buf.push(ChromeEvent::Complete {
            name: phase.name().to_string(),
            cat: "phase",
            ts: cursor,
            dur,
            pid,
            tid,
            args: Vec::new(),
        });
        cursor += dur;
    }
}

/// Replays the counterexample path with the event log on and renders its
/// deliveries and timer fires as the schedule. With `forensics`, the
/// replay also records per-process decision provenance, and the report
/// gains the violation's causal cone over that log and its provenance
/// chains.
fn render_cex<P: Explored>(
    driver: &Driver<'_, P>,
    engine: &Engine<'_, P>,
    variant: u32,
    path: &[u32],
    scenario: &str,
    forensics: bool,
) -> CexReport {
    let setup = driver.setup();
    let mut sim = driver.build_sim(variant);
    sim.enable_causal();
    if forensics {
        driver.enable_provenance(&mut sim);
    }
    engine.replay_into(&mut sim, path);
    let decisions = driver.decisions(&sim);

    let log = sim.causal();
    let schedule = log
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            CausalKind::Deliver { from, to } => {
                let payload = log.payload(e.id).unwrap_or_default();
                Some(format!("deliver p{from}->p{to}: {payload}"))
            }
            CausalKind::Timer { process, tag } => Some(format!("timer p{process} tag {tag}")),
            // The sends are the schedule's consequences, not its choices.
            _ => None,
        })
        .collect();

    // Termination is a liveness property; mid-schedule states are
    // legitimately undecided, so only safety is owed.
    let violations = oracle::evaluate_churned(
        &setup.kg,
        setup.f,
        &setup.faulty,
        &ProcessSet::new(),
        setup.inputs(),
        &decisions,
        setup.config.adversary,
        false,
        &[],
        ValidityMode::Strong,
    )
    .violations;

    let forensic = forensics.then(|| {
        let provenance = driver.provenance(&sim);
        ForensicReport::from_parts(
            scenario,
            variant as u64,
            &violations,
            log,
            &provenance,
            &decisions,
        )
    });

    CexReport {
        depth: path.len() as u32,
        variant,
        violations,
        schedule,
        decisions,
        forensics: forensic,
    }
}

/// Human-readable summary of an explore report (mirrors the sampling
/// CLI's rollup).
pub fn summary(report: &ExploreReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let passed = report.records.iter().filter(|r| r.passed).count();
    let _ = writeln!(
        out,
        "campaign `{}` (explore): {} scenarios on {} threads in {:.2}s — {} passed, {} failed",
        report.name,
        report.records.len(),
        report.threads,
        report.wall_micros as f64 / 1e6,
        passed,
        report.records.len() - passed,
    );
    let _ = writeln!(
        out,
        "  {:<26} {:>9} {:>9} {:>7} {:>6} {:>9} {:>6}",
        "scenario", "states", "decided", "quiet", "trunc", "violating", "pass"
    );
    for r in &report.records {
        let _ = writeln!(
            out,
            "  {:<26} {:>9} {:>9} {:>7} {:>6} {:>9} {:>6}",
            r.scenario,
            r.states,
            r.decided,
            r.quiescent_undecided,
            r.truncated,
            r.violating,
            if r.passed { "ok" } else { "FAIL" },
        );
        if r.error.is_none() {
            let classes = r
                .symmetry_classes
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("+");
            let _ = writeln!(
                out,
                "    reductions: symmetry group {} (classes {}), {} symmetric states, \
                 {} transitions; size model {:.1} MiB ({} B/state × {} states)",
                r.symmetry_group,
                if classes.is_empty() {
                    "-".to_string()
                } else {
                    classes
                },
                r.symmetric_states,
                r.transitions,
                r.peak_memory_bytes as f64 / (1024.0 * 1024.0),
                r.state_bytes_estimate,
                r.states,
            );
            if r.symmetry_dropped_classes > 0 {
                let _ = writeln!(
                    out,
                    "    symmetry cap: {} candidate class(es) dropped \
                     ({} arrangements left unexplored)",
                    r.symmetry_dropped_classes, r.symmetry_dropped_arrangements,
                );
            }
        }
        if let Some(e) = &r.error {
            let _ = writeln!(out, "    error: {e}");
        }
        if let Some(cex) = &r.violation {
            let _ = writeln!(
                out,
                "    minimal counterexample (depth {}, variant {}): {}",
                cex.depth,
                cex.variant,
                cex.violations.join("; ")
            );
            for line in &cex.schedule {
                let _ = writeln!(out, "      {line}");
            }
        }
    }
    out
}
