//! The `explore` workload: `scup_mc::explore_scenario` at one worker over
//! the frozen scenario list, every census checked against the file.

use std::time::Instant;

use scup_harness::AdversaryRegistry;
use scup_mc::{explore_scenario, explore_scenario_obs, ExploreRecord, ObsConfig};
use scup_obs::chrome::{ChromeEvent, TraceClock};
use scup_obs::profile::Phase;

use crate::stats;
use crate::workload::{Entry, Workload};
use crate::{time_is_up, Run, Tally};

/// The worker count of every exploration: one thread everywhere.
const WORKERS: usize = 1;

/// In a smoke run every scenario is cut at this depth: seconds become
/// milliseconds, the census no longer applies, and only the plumbing (names,
/// shapes, files) is under test.
const SMOKE_MAX_STEPS: u32 = 4;

fn scenario_of(entry: &Entry, smoke: bool) -> scup_harness::Scenario {
    let mut scenario = entry.scenario.clone();
    if smoke {
        scenario.explore.max_steps = scenario.explore.max_steps.min(SMOKE_MAX_STEPS);
    }
    scenario
}

impl Tally {
    /// Counts one exploration against the frozen census.
    fn record_census(&mut self, entry: &Entry, r: &ExploreRecord, smoke: bool) {
        let expect = entry
            .expect
            .as_ref()
            .expect("explorer entries carry a census");
        let diff = if let Some(e) = &r.error {
            Some(e.clone())
        } else if smoke {
            None
        } else if !r.passed {
            Some("verdict: the scenario did not pass".to_string())
        } else {
            [
                ("states", r.states, expect.states),
                ("decided", r.decided, expect.decided),
                ("violating", r.violating, expect.violating),
                (
                    "complete",
                    u64::from(r.complete),
                    u64::from(expect.complete),
                ),
                (
                    "counterexample depth",
                    u64::from(r.min_violation_depth.unwrap_or(0)),
                    u64::from(expect.cex_depth.unwrap_or(0)),
                ),
            ]
            .into_iter()
            .find(|(_, got, want)| got != want)
            .map(|(what, got, want)| format!("{what} {got}, frozen census says {want}"))
        };
        self.note(diff.is_none(), || {
            format!("{}: {}", r.scenario, diff.clone().unwrap_or_default())
        });
    }
}

/// The set-up pass: the scenarios flagged `warmup = 1`.
pub fn warm_up(w: &Workload, run: &mut Run) {
    for e in w.entries.iter().filter(|e| e.warmup > 0) {
        let record = explore_scenario(&scenario_of(e, run.smoke), WORKERS, &run.registry);
        run.tally.record_census(e, &record, run.smoke);
    }
}

/// One pass over the scenario list; per scenario, the record and its wall
/// time in seconds.
fn pass(
    w: &Workload,
    registry: &AdversaryRegistry,
    smoke: bool,
    tally: &mut Tally,
) -> Vec<(ExploreRecord, f64)> {
    w.entries
        .iter()
        .map(|e| {
            let scenario = scenario_of(e, smoke);
            let t = Instant::now();
            let record = explore_scenario(&scenario, WORKERS, registry);
            let wall = t.elapsed().as_secs_f64();
            tally.record_census(e, &record, smoke);
            (record, wall)
        })
        .collect()
}

/// The untraced measured part: passes over the list until `seconds` have
/// passed. The simulated counts come from the first pass (every pass
/// explores the same spaces).
pub fn measure(w: &Workload, run: &mut Run) -> Result<(), String> {
    let Run {
        registry,
        seconds,
        smoke,
        rows,
        tally,
        notes,
        ..
    } = run;
    let (seconds, smoke) = (*seconds, *smoke);
    let mut runs_per_s = Vec::new();
    let mut run_ms_p50 = Vec::new();
    let mut deliveries_per_s = Vec::new();
    let mut counts = None;

    let started = Instant::now();
    let mut passes = 0u64;
    loop {
        let records = pass(w, registry, smoke, tally);
        let wall: f64 = records.iter().map(|(_, s)| s).sum();
        let transitions: u64 = records.iter().map(|(r, _)| r.transitions).sum();
        runs_per_s.push(records.len() as f64 / wall);
        deliveries_per_s.push(transitions as f64 / wall);
        let ms: Vec<f64> = records.iter().map(|(_, s)| s * 1e3).collect();
        run_ms_p50.push(stats::median(&ms));
        counts.get_or_insert_with(|| {
            let decided: u64 = records.iter().map(|(r, _)| r.decided).sum();
            let bytes: u64 = records.iter().map(|(r, _)| r.peak_memory_bytes).sum();
            (transitions, bytes, decided)
        });
        passes += 1;

        if smoke || time_is_up(started, passes, seconds) {
            break;
        }
    }
    let (transitions, bytes, mut decided) = counts.expect("at least one pass ran");
    if smoke {
        // Cut this shallow, nothing decides; keep the ratios defined.
        decided = decided.max(1);
    }
    if decided == 0 {
        return Err("no explored state decided; msgs_per_decision is undefined".into());
    }

    rows.set_median("runs_per_s", &runs_per_s);
    rows.set_median("run_ms_p50", &run_ms_p50);
    rows.set_median("deliveries_per_s", &deliveries_per_s);
    rows.set("msgs_per_decision", transitions as f64 / decided as f64);
    rows.set("bytes_per_decision", bytes as f64 / decided as f64);
    notes.push(format!(
        "{passes} passes over {} scenarios in {:.2} s; a run is one exploration, a delivery one \
         explored transition, a decision one decided terminal state ({decided} per pass)",
        w.entries.len(),
        started.elapsed().as_secs_f64()
    ));
    Ok(())
}

/// The traced part: one untraced reference pass, then one pass through
/// `explore_scenario_obs` with profiling and worker timelines on. Returns
/// the timeline events for the trace file.
pub fn traced(w: &Workload, run: &mut Run) -> Vec<ChromeEvent> {
    let Run {
        registry,
        smoke,
        rows,
        tally,
        notes,
        ..
    } = run;
    let smoke = *smoke;
    let reference = pass(w, registry, smoke, tally);
    let reference_wall: f64 = reference.iter().map(|(_, s)| s).sum();
    let states: u64 = reference.iter().map(|(r, _)| r.states).sum();
    rows.set("mc.states_per_s", states as f64 / reference_wall);
    for (r, wall) in &reference {
        rows.set(
            &format!("mc.{}.states_per_s", r.scenario),
            r.states as f64 / wall,
        );
        rows.set(&format!("mc.{}.states", r.scenario), r.states as f64);
    }

    let obs = ObsConfig {
        profile: true,
        trace: true,
        forensics: false,
    };
    let clock = TraceClock::start();
    let mut events = Vec::new();
    let mut phase_ns = [0u64; Phase::COUNT];
    let mut reexpansions = 0u64;
    let mut peak_memory = 0u64;
    let mut traced_wall = 0.0;
    for (i, e) in w.entries.iter().enumerate() {
        let scenario = scenario_of(e, smoke);
        let t = Instant::now();
        let record = explore_scenario_obs(
            &scenario,
            WORKERS,
            registry,
            obs,
            &clock,
            i as u32 + 1,
            &mut events,
        );
        traced_wall += t.elapsed().as_secs_f64();
        tally.record_census(e, &record, smoke);
        peak_memory = peak_memory.max(record.peak_memory_bytes);
        let Some(profile) = &record.obs else {
            tally.note(false, || format!("{}: no obs block", record.scenario));
            continue;
        };
        tally.note(profile.reexpansions == 0, || {
            format!(
                "{}: {} re-expansions",
                record.scenario, profile.reexpansions
            )
        });
        reexpansions += profile.reexpansions;
        // `ExploreObs::phases` is in `Phase::ALL` order.
        for (slot, row) in phase_ns.iter_mut().zip(&profile.phases) {
            *slot += row.nanos;
        }
    }
    let profiled: u64 = phase_ns.iter().sum();
    for (phase, ns) in Phase::ALL.iter().zip(phase_ns) {
        rows.set(
            &format!("mc.phase.{}_share", phase.name()),
            ns as f64 / profiled.max(1) as f64,
        );
    }
    rows.set("mc.reexpansions", reexpansions as f64);
    rows.set("mc.peak_memory_bytes", peak_memory as f64);
    // Traced ÷ untraced states per second over the same scenarios.
    rows.set("obs.trace_overhead", reference_wall / traced_wall);
    notes.push(format!(
        "traced pass: the whole scenario list once untraced ({reference_wall:.2} s) and once \
         through explore_scenario_obs ({traced_wall:.2} s)"
    ));
    events
}
