//! Perfetto export of sampled simulation runs: a run's event log
//! ([`CausalGraph`]) rendered as Chrome trace events, one process track
//! per scenario, one thread track per simulated process.
//!
//! Simulated ticks map 1:1 to trace microseconds — the exported
//! timeline is the *logical* network schedule, not wall time, which is
//! exactly what makes message flight times and timer cadences readable
//! in the viewer. A message in flight is a `Complete` span on its
//! sender's track (send tick → the tick it was delivered or dropped);
//! deliveries and timer fires are instants on the receiving process's
//! track.

use scup_obs::causal::{CausalGraph, CausalKind, EventId};
use scup_obs::chrome::{ArgValue, ChromeEvent};

use crate::adversary::AdversaryRegistry;
use crate::campaign::Campaign;
use crate::protocol;
use crate::system::System;

/// Converts one phase's event log to Chrome events on process track
/// `pid`. Thread `tid = i + 1` is simulated process `i`; ticks shift by
/// `offset_us` so multi-phase pipelines lay out sequentially.
///
/// Each send additionally starts a flow arrow (Perfetto draws it from the
/// in-flight span to the delivery instant) that ends at the delivery the
/// log names as caused by that send. Its id is `flow_base` plus the send's
/// event id — callers combining multiple phases into one document must
/// pass bases further apart than the logs are long.
pub fn sim_trace_to_chrome(
    log: &CausalGraph,
    pid: u32,
    offset_us: u64,
    cat: &'static str,
    flow_base: u64,
) -> Vec<ChromeEvent> {
    let events = log.events();
    // Per send, the event that took it out of flight: its first delivery
    // or drop (a fault-plane duplicate may land a second copy later).
    let mut landing = vec![EventId::NONE; events.len()];
    for e in events {
        if matches!(e.kind, CausalKind::Deliver { .. } | CausalKind::Drop { .. }) {
            match landing.get_mut(e.cause().0 as usize) {
                Some(first) if !first.is_some() => *first = e.id,
                _ => {}
            }
        }
    }
    let horizon = events.last().map_or(0, |e| e.at);
    let payload = |e| ArgValue::Str(log.payload(e).unwrap_or_default().to_string());
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        let ts = offset_us + e.at;
        let tid = e.kind.acting_process() + 1;
        let instant = |name: String, cat, args| ChromeEvent::Instant {
            name,
            cat,
            ts,
            pid,
            tid,
            args,
        };
        let fault = |what: &str, from: u32, to: u32| {
            instant(
                format!("{what} p{from}->p{to}"),
                "fault",
                vec![("payload", payload(e.id)), ("to", ArgValue::U64(to as u64))],
            )
        };
        match e.kind {
            CausalKind::Send { from, to } => {
                // A send the run ended on stays in flight to the end.
                let until = match landing[e.id.0 as usize] {
                    EventId::NONE => horizon,
                    end => events[end.0 as usize].at,
                };
                out.push(ChromeEvent::Complete {
                    name: format!("p{from}->p{to}"),
                    cat,
                    ts,
                    // Zero-length spans vanish in the viewer; clamp to 1 µs.
                    dur: until.saturating_sub(e.at).max(1),
                    pid,
                    tid,
                    args: vec![("payload", payload(e.id)), ("to", ArgValue::U64(to as u64))],
                });
                out.push(ChromeEvent::FlowStart {
                    name: format!("p{from}->p{to}"),
                    cat,
                    id: flow_base + e.id.0 as u64,
                    ts,
                    pid,
                    tid,
                });
            }
            CausalKind::Deliver { from, to } => {
                out.push(instant(
                    format!("deliver p{from}->p{to}"),
                    cat,
                    vec![("payload", payload(e.id))],
                ));
                // The arrow ends where the span does; a later copy of the
                // same send gets its instant and no arrow.
                if landing.get(e.cause().0 as usize) == Some(&e.id) {
                    out.push(ChromeEvent::FlowEnd {
                        name: format!("p{from}->p{to}"),
                        cat,
                        id: flow_base + e.cause().0 as u64,
                        ts,
                        pid,
                        tid,
                    });
                }
            }
            CausalKind::Timer { tag, .. } => out.push(instant(
                format!("timer {tag}"),
                "timer",
                vec![("tag", ArgValue::U64(tag))],
            )),
            CausalKind::Retransmit { .. } => {
                out.push(instant("retransmit".into(), "timer", Vec::new()))
            }
            CausalKind::Drop { from, to } => out.push(fault("drop", from, to)),
            CausalKind::Duplicate { from, to } => out.push(fault("duplicate", from, to)),
            CausalKind::Crash { .. } => out.push(instant("crash".into(), "fault", Vec::new())),
            CausalKind::Recover { .. } => out.push(instant("recover".into(), "fault", Vec::new())),
            CausalKind::Join { .. } => out.push(instant("join".into(), "churn", Vec::new())),
            CausalKind::Leave { .. } => out.push(instant("leave".into(), "churn", Vec::new())),
        }
    }
    out
}

/// Re-runs the **first seed** of every scenario in `campaign` with the
/// event log on and returns the combined Chrome events —
/// one Perfetto process track per scenario (pid = declaration index +
/// 1), one thread track per simulated process. Scenarios that fail to
/// configure are skipped (the campaign report is where errors belong).
///
/// One seed per scenario keeps the export bounded: a trace is a
/// schedule to *look at*, not a statistic, and every extra seed would
/// only overlay another copy of the same topology. `seed_override` (the
/// `--trace-seed` flag), when set, makes every scenario re-run that seed
/// instead of its `seed_base` — the way to export the exact schedule a
/// failing seed produced.
pub fn trace_seeds(campaign: &Campaign, seed_override: Option<u64>) -> Vec<ChromeEvent> {
    let registry = AdversaryRegistry::builtin();
    let mut events = Vec::new();
    for (idx, scenario) in campaign.scenarios.iter().enumerate() {
        let pid = idx as u32 + 1;
        let seed = seed_override.unwrap_or(scenario.seed_base);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut system = System::of(scenario, seed, &registry).ok()?;
            system.config.trace = true;
            let (output, phase1) = protocol::execute_observed(&system);
            Some((system.kg.n(), phase1, output.causal))
        }));
        let Ok(Some((n, phase1, phase2))) = outcome else {
            continue;
        };
        events.push(ChromeEvent::ProcessName {
            pid,
            name: format!("{} (seed {seed})", scenario.name),
        });
        for i in 0..n as u32 {
            events.push(ChromeEvent::ThreadName {
                pid,
                tid: i + 1,
                name: format!("process {i}"),
            });
        }
        // The phases' logs run on independent sim clocks; lay phase 2 out
        // after phase 1's last event so the pipeline reads left to right.
        let phase1_end = phase1.events().last().map_or(0, |e| e.at);
        // Disjoint flow-id ranges: pid in the high bits, phase below, the
        // send's 32-bit event id lowest.
        let base = (pid as u64) << 40;
        events.extend(sim_trace_to_chrome(&phase1, pid, 0, "sink-detect", base));
        events.extend(sim_trace_to_chrome(
            &phase2,
            pid,
            phase1_end,
            "consensus",
            base | (1 << 32),
        ));
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignMode;
    use crate::scenario::{FaultPlacement, Scenario, TopologySpec};
    use scup_obs::chrome::write_trace_json;

    #[test]
    fn first_seed_trace_covers_both_phases() {
        let campaign = Campaign {
            name: "trace".into(),
            mode: CampaignMode::Sample,
            threads: 1,
            scenarios: vec![Scenario {
                name: "fig2-silent".into(),
                faults: FaultPlacement::Ids(vec![5]),
                seed_base: 7,
                seeds: 1,
                ..Scenario::default()
            }],
        };
        let events = trace_seeds(&campaign, None);
        let sends = events
            .iter()
            .filter(|e| matches!(e, ChromeEvent::Complete { cat, .. } if *cat == "sink-detect"))
            .count();
        let scp_sends = events
            .iter()
            .filter(|e| matches!(e, ChromeEvent::Complete { cat, .. } if *cat == "consensus"))
            .count();
        assert!(sends > 0, "knowledge-increase phase traffic exported");
        assert!(scp_sends > 0, "SCP phase traffic exported");
        assert!(events
            .iter()
            .any(|e| matches!(e, ChromeEvent::ProcessName { name, .. } if name.contains("fig2"))));
        // And the whole thing serializes to loadable JSON.
        let json = write_trace_json(&events);
        assert!(json.contains("\"traceEvents\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn flow_arrows_follow_the_cause_not_the_payload() {
        use CausalKind::{Deliver, Duplicate};
        let (from, to) = (0, 1);
        let mut log = CausalGraph::disabled();
        log.enable(2);
        let vote = || ("Vote(1)".to_string(), None);
        // The same payload twice on one link, the first copy duplicated in
        // flight; the second send overtakes it, then both copies land.
        let first = log.record_send(1, from, to, vote);
        log.record(1, Duplicate { from, to }, first);
        let second = log.record_send(2, from, to, vote);
        log.record(3, Deliver { from, to }, second);
        log.record(5, Deliver { from, to }, first);
        log.record(6, Deliver { from, to }, first);

        let events = sim_trace_to_chrome(&log, 1, 0, "net", 100);
        let starts: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                ChromeEvent::FlowStart { id, ts, .. } => Some((*ts, *id)),
                _ => None,
            })
            .collect();
        let ends: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                ChromeEvent::FlowEnd { id, ts, .. } => Some((*ts, *id)),
                _ => None,
            })
            .collect();
        let (first, second) = (100 + first.0 as u64, 100 + second.0 as u64);
        assert_eq!(starts, [(1, first), (2, second)], "one flow id per send");
        // Each arrow ends at the delivery its send caused; the duplicate's
        // late copy takes nobody's arrow.
        assert_eq!(ends, [(3, second), (5, first)]);
        let spans: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                ChromeEvent::Complete { ts, dur, .. } => Some((*ts, *dur)),
                _ => None,
            })
            .collect();
        assert_eq!(spans, [(1, 4), (2, 1)], "in flight until the first landing");
        let payloads = events
            .iter()
            .filter(|e| {
                matches!(e, ChromeEvent::Instant { args, .. }
                if args.contains(&("payload", ArgValue::Str("Vote(1)".into()))))
            })
            .count();
        assert_eq!(
            payloads, 4,
            "deliveries and the duplicate read the send's payload"
        );
    }

    #[test]
    fn bad_scenarios_are_skipped_not_fatal() {
        let campaign = Campaign {
            name: "bad".into(),
            mode: CampaignMode::Sample,
            threads: 1,
            scenarios: vec![Scenario {
                name: "impossible".into(),
                topology: TopologySpec::ScaleFree { n: 3, m: 4 },
                seeds: 1,
                ..Scenario::default()
            }],
        };
        assert!(trace_seeds(&campaign, None).is_empty());
    }
}
