//! Perfetto export of sampled simulation runs: simulator event traces
//! rendered as Chrome trace events, one process track per scenario, one
//! thread track per simulated process.
//!
//! Simulated ticks map 1:1 to trace microseconds — the exported
//! timeline is the *logical* network schedule, not wall time, which is
//! exactly what makes message flight times and timer cadences readable
//! in the viewer. A message in flight is a `Complete` span on its
//! sender's track (send tick → delivery tick); deliveries and timer
//! fires are instants on the receiving process's track.

use std::collections::{HashMap, VecDeque};

use scup_obs::chrome::{ArgValue, ChromeEvent};
use scup_sim::TraceEvent;

use crate::adversary::AdversaryRegistry;
use crate::campaign::Campaign;
use crate::protocol;
use crate::system::System;

/// Converts one phase's simulator trace to Chrome events on process
/// track `pid`. Thread `tid = i + 1` is simulated process `i`; ticks
/// shift by `offset_us` so multi-phase pipelines lay out sequentially.
///
/// Each send→deliver pair additionally emits a flow arrow (Perfetto
/// draws it from the in-flight span to the delivery instant), with ids
/// allocated upward from `flow_base` — callers combining multiple
/// phases into one document must pass disjoint bases.
pub fn sim_trace_to_chrome(
    events: &[TraceEvent],
    pid: u32,
    offset_us: u64,
    cat: &'static str,
    flow_base: u64,
) -> Vec<ChromeEvent> {
    let mut out = Vec::with_capacity(events.len());
    // Pending flow ids keyed by (from, to, payload), FIFO: the simulator
    // delivers same-link same-payload messages in send order, so the
    // front of the queue is the matching send.
    let mut pending: HashMap<(u32, u32, &str), VecDeque<u64>> = HashMap::new();
    let mut next_flow = flow_base;
    for event in events {
        match event {
            TraceEvent::Sent {
                at,
                from,
                to,
                deliver_at,
                payload,
            } => {
                let id = next_flow;
                next_flow += 1;
                pending
                    .entry((from.as_u32(), to.as_u32(), payload.as_str()))
                    .or_default()
                    .push_back(id);
                out.push(ChromeEvent::Complete {
                    name: format!("{from}->{to}"),
                    cat,
                    ts: offset_us + at.ticks(),
                    // Zero-length spans vanish in the viewer; clamp to 1 µs.
                    dur: deliver_at.ticks().saturating_sub(at.ticks()).max(1),
                    pid,
                    tid: from.as_u32() + 1,
                    args: vec![
                        ("payload", ArgValue::Str(payload.clone())),
                        ("to", ArgValue::U64(to.as_u32() as u64)),
                    ],
                });
                out.push(ChromeEvent::FlowStart {
                    name: format!("{from}->{to}"),
                    cat,
                    id,
                    ts: offset_us + at.ticks(),
                    pid,
                    tid: from.as_u32() + 1,
                });
            }
            TraceEvent::Delivered {
                at,
                from,
                to,
                payload,
            } => {
                // Unmatched deliveries (fault-plane duplicates) get no
                // arrow — only the original send is in flight.
                let flow = pending
                    .get_mut(&(from.as_u32(), to.as_u32(), payload.as_str()))
                    .and_then(VecDeque::pop_front);
                out.push(ChromeEvent::Instant {
                    name: format!("deliver {from}->{to}"),
                    cat,
                    ts: offset_us + at.ticks(),
                    pid,
                    tid: to.as_u32() + 1,
                    args: vec![("payload", ArgValue::Str(payload.clone()))],
                });
                if let Some(id) = flow {
                    out.push(ChromeEvent::FlowEnd {
                        name: format!("{from}->{to}"),
                        cat,
                        id,
                        ts: offset_us + at.ticks(),
                        pid,
                        tid: to.as_u32() + 1,
                    });
                }
            }
            TraceEvent::Timer { at, process, tag } => out.push(ChromeEvent::Instant {
                name: format!("timer {tag}"),
                cat: "timer",
                ts: offset_us + at.ticks(),
                pid,
                tid: process.as_u32() + 1,
                args: vec![("tag", ArgValue::U64(*tag))],
            }),
            TraceEvent::Dropped {
                at,
                from,
                to,
                payload,
            } => out.push(ChromeEvent::Instant {
                name: format!("drop {from}->{to}"),
                cat: "fault",
                ts: offset_us + at.ticks(),
                pid,
                tid: from.as_u32() + 1,
                args: vec![
                    ("payload", ArgValue::Str(payload.clone())),
                    ("to", ArgValue::U64(to.as_u32() as u64)),
                ],
            }),
            TraceEvent::Crashed { at, process } => out.push(ChromeEvent::Instant {
                name: "crash".into(),
                cat: "fault",
                ts: offset_us + at.ticks(),
                pid,
                tid: process.as_u32() + 1,
                args: Vec::new(),
            }),
            TraceEvent::Recovered { at, process } => out.push(ChromeEvent::Instant {
                name: "recover".into(),
                cat: "fault",
                ts: offset_us + at.ticks(),
                pid,
                tid: process.as_u32() + 1,
                args: Vec::new(),
            }),
            TraceEvent::Joined { at, process } => out.push(ChromeEvent::Instant {
                name: "join".into(),
                cat: "churn",
                ts: offset_us + at.ticks(),
                pid,
                tid: process.as_u32() + 1,
                args: Vec::new(),
            }),
            TraceEvent::Left { at, process } => out.push(ChromeEvent::Instant {
                name: "leave".into(),
                cat: "churn",
                ts: offset_us + at.ticks(),
                pid,
                tid: process.as_u32() + 1,
                args: Vec::new(),
            }),
        }
    }
    out
}

/// Re-runs the **first seed** of every scenario in `campaign` with
/// simulator tracing enabled and returns the combined Chrome events —
/// one Perfetto process track per scenario (pid = declaration index +
/// 1), one thread track per simulated process. Scenarios that fail to
/// configure are skipped (the campaign report is where errors belong).
///
/// One seed per scenario keeps the export bounded: a trace is a
/// schedule to *look at*, not a statistic, and every extra seed would
/// only overlay another copy of the same topology.
pub fn trace_first_seeds(campaign: &Campaign) -> Vec<ChromeEvent> {
    trace_seeds(campaign, None)
}

/// [`trace_first_seeds`] with an optional seed override (the
/// `--trace-seed` flag): when set, every scenario re-runs that seed
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
            let (_, phase1, phase2) = protocol::execute_observed(&system);
            Some((system.kg.n(), phase1, phase2))
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
        // Phase traces run on independent sim clocks; lay phase 2 out
        // after phase 1's end so the pipeline reads left to right.
        let phase1_end = phase1
            .iter()
            .map(|e| match e {
                TraceEvent::Sent { deliver_at, .. } => deliver_at.ticks(),
                TraceEvent::Delivered { at, .. }
                | TraceEvent::Timer { at, .. }
                | TraceEvent::Dropped { at, .. }
                | TraceEvent::Crashed { at, .. }
                | TraceEvent::Recovered { at, .. }
                | TraceEvent::Joined { at, .. }
                | TraceEvent::Left { at, .. } => at.ticks(),
            })
            .max()
            .unwrap_or(0);
        // Disjoint flow-id ranges: pid in the high bits, phase below.
        let base = (pid as u64) << 32;
        events.extend(sim_trace_to_chrome(&phase1, pid, 0, "sink-detect", base));
        events.extend(sim_trace_to_chrome(
            &phase2,
            pid,
            phase1_end,
            "consensus",
            base | (1 << 24),
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
            scenarios: vec![Scenario::builder("fig2-silent")
                .topology(TopologySpec::Fig2)
                .faults(FaultPlacement::Ids(vec![5]))
                .seeds(7, 1)
                .build()],
        };
        let events = trace_first_seeds(&campaign);
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
    fn bad_scenarios_are_skipped_not_fatal() {
        let campaign = Campaign {
            name: "bad".into(),
            mode: CampaignMode::Sample,
            threads: 1,
            scenarios: vec![Scenario::builder("impossible")
                .topology(TopologySpec::ScaleFree { n: 3, m: 4 })
                .seeds(0, 1)
                .build()],
        };
        assert!(trace_first_seeds(&campaign).is_empty());
    }
}
