//! The benchmark's declared surface: workload reasons and every metric
//! name with its unit and direction. `BENCHMARK.json` at the repository
//! root states the same thing for the driver; the self-test keeps the two
//! equal in both directions.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which are never gated).
    pub bound: Option<f64>,
}

/// How long one run measures, seconds (the driver passes it back as
/// `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Why each workload exists (one line each, as `BENCHMARK.json` wants).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "fig_small",
        "the paper's figures (n = 7-11, every adversary): quorum sets are tiny, so simulator dispatch and per-run fixed cost do the work",
    ),
    (
        "scale_n",
        "stellar-minimal on Byzantine-safe graphs n = 8..24: the scaling curve; scp voting, flood relaying and the fbqs engine do the work",
    ),
    (
        "bftcup_scale",
        "the BFT-CUP baseline n = 8..128: bypasses scp and fbqs, so a change there must not move it; graph flow checks and cup dominate",
    ),
    (
        "adversity",
        "loss, duplication, partitions, crash-recover and churn plans: the same sim layer on its plan-enabled path, where safety under faults is checked",
    ),
    (
        "explore",
        "exhaustive exploration at 1 worker: the same actors through fork/fingerprint, so fatter node state shows here; only workload of mc and sim/explore",
    ),
];

/// The end-to-end metrics, printed by every workload's untraced run.
///
/// On the sampled workloads a *run* is one `(scenario, seed)` through
/// `campaign::run_one`, a *delivery* a simulated message delivery, and a
/// *decision* a run whose oracle reports termination. On `explore` a run
/// is one scenario exploration, a delivery one explored transition, and a
/// decision one decided terminal state; bytes are the explorer's own
/// deterministic peak-memory estimate.
pub fn end_to_end() -> Vec<Metric> {
    let m = |name: &str, unit, better, bound| Metric {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        m("setup_s", "s", Better::Lower, 0.25),
        m("runs_per_s", "1/s", Better::Higher, 0.25),
        m("run_ms_p50", "ms", Better::Lower, 0.25),
        m("deliveries_per_s", "1/s", Better::Higher, 0.25),
        m("msgs_per_decision", "count", Better::Lower, 0.06),
        m("bytes_per_decision", "count", Better::Lower, 0.06),
        m("peak_rss_mb", "MB", Better::Lower, 0.10),
    ]
}

/// Process counts of the SCP scaling ladder.
pub const SCP_SIZES: [usize; 5] = [8, 12, 16, 20, 24];
/// Process counts of the BFT-CUP scaling ladder.
pub const BFT_SIZES: [usize; 4] = [8, 24, 64, 128];
/// Process counts the micro-kernels run at.
pub const KERNEL_SIZES: [usize; 2] = [8, 24];
/// The scenarios of the `explore` workload (`mc.<scenario>.*`).
pub const MC_SCENARIOS: [&str; 7] = [
    "sink3-proposers",
    "sink2-equivocate",
    "bftcup-equiv-leader",
    "sink2-discovery-interleaved",
    "split-quorums-bad",
    "sink2-discovery-interleaved-unreduced",
    "split-quorums-bad-unreduced",
];

/// The per-layer metrics, printed by every workload's traced run. Layers
/// are the crate names. A value of exactly 0 means the workload never
/// entered that code (for instance every `mc.*` row on a sampled
/// workload); `benchmark/README.md` says which rows each workload fills.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut m = |name: String, unit: &'static str, better| {
        out.push(Metric {
            name,
            unit,
            better,
            bound: None,
        })
    };
    let sized = |stem: &str, sizes: &[usize]| -> Vec<String> {
        sizes.iter().map(|n| format!("{stem}.n{n}")).collect()
    };

    m("graph.instantiate_us".into(), "us", Lower);
    for name in sized("graph.premise_check_ms", &BFT_SIZES) {
        m(name, "ms", Lower);
    }

    for (stem, unit) in [
        ("fbqs.engine_build_us", "us"),
        ("fbqs.is_quorum_ns", "ns"),
        ("fbqs.closure_ns", "ns"),
        ("fbqs.v_blocking_ns", "ns"),
    ] {
        for name in sized(stem, &KERNEL_SIZES) {
            m(name, unit, Lower);
        }
    }

    for name in sized("scp.voting_update_ns", &KERNEL_SIZES) {
        m(name, "ns", Lower);
    }
    m("scp.phase_ms".into(), "ms", Lower);
    for name in sized("scp.ns_per_delivery", &SCP_SIZES) {
        m(name, "ns", Lower);
    }
    for name in sized("scp.self_ns_per_delivery", &KERNEL_SIZES) {
        m(name, "ns", Lower);
    }
    m("scp.dup_share".into(), "ratio", Lower);
    m("scp.envelopes_per_decision".into(), "count", Lower);
    m("scp.ballots_per_run".into(), "count", Lower);
    m("scp.catchup_envelopes".into(), "count", Lower);

    m("cup.sink_core_ns_per_msg".into(), "ns", Lower);
    m("cup.phase_ms".into(), "ms", Lower);
    for name in sized("cup.bft_execute_ms", &BFT_SIZES) {
        m(name, "ms", Lower);
    }
    for name in sized("cup.bft_msgs_per_decision", &BFT_SIZES) {
        m(name, "count", Lower);
    }
    m("cup.bft_timers_per_run".into(), "count", Lower);

    m("core.sink_detection_ms".into(), "ms", Lower);
    for name in sized("core.sd_msgs", &SCP_SIZES) {
        m(name, "count", Lower);
    }
    m("core.build_slices_us".into(), "us", Lower);
    m("core.sd_msgs_rrb_over_direct".into(), "ratio", Lower);

    for name in sized("sim.ns_per_event", &KERNEL_SIZES) {
        m(name, "ns", Lower);
    }
    m("sim.ns_per_event_faultplan".into(), "ns", Lower);
    m("sim.ns_per_event_churn".into(), "ns", Lower);
    m("sim.new_us".into(), "us", Lower);
    m("sim.queue_peak".into(), "count", Lower);
    m("sim.events_per_run".into(), "count", Lower);
    m("sim.timers_fired".into(), "count", Lower);
    m("sim.msgs_dropped".into(), "count", Lower);
    m("sim.retransmissions".into(), "count", Lower);
    m("sim.recoveries".into(), "count", Lower);
    m("sim.joins".into(), "count", Lower);
    m("sim.ticks_to_decide_p50".into(), "ticks", Lower);

    m("harness.parse_us".into(), "us", Lower);
    m("harness.place_faults_us".into(), "us", Lower);
    m("harness.oracle_us".into(), "us", Lower);
    m("harness.report_json_ms".into(), "ms", Lower);
    m("harness.run_one_glue_us".into(), "us", Lower);

    m("mc.states_per_s".into(), "1/s", Higher);
    for s in MC_SCENARIOS {
        m(format!("mc.{s}.states_per_s"), "1/s", Higher);
        m(format!("mc.{s}.states"), "count", Lower);
    }
    for p in scup_obs::profile::Phase::ALL {
        m(format!("mc.phase.{}_share", p.name()), "ratio", Lower);
    }
    m("mc.reexpansions".into(), "count", Lower);
    m("mc.peak_memory_bytes".into(), "bytes", Lower);

    m("obs.trace_overhead".into(), "ratio", Higher);
    m("obs.span_coverage".into(), "ratio", Higher);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scup_harness::json::{self, Json};
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    /// `(name, unit, better, bound)` rows of one `BENCHMARK.json` list.
    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has `{key}`"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn rows(metrics: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_prints() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), rows(&end_to_end()));
        assert_eq!(declared(&doc, "per_layer"), rows(&per_layer()));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_i64),
            Some(RUN_SECONDS as i64)
        );
        let paths: Vec<&str> = doc
            .get("paths")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }

    #[test]
    fn names_units_and_counts_stay_within_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut seen = BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(valid_name(&m.name), "bad metric name `{}`", m.name);
            assert!(valid_unit(m.unit), "bad unit `{}`", m.unit);
            assert!(seen.insert(m.name.clone()), "duplicate `{}`", m.name);
        }
        for m in &e2e {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name.to_string()));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert_eq!(
            WORKLOADS.map(|(n, _)| n),
            crate::workload::NAMES,
            "one reason per workload, same order"
        );
    }

    #[test]
    fn explorer_metric_names_follow_the_frozen_scenarios() {
        let w = crate::workload::load("explore").unwrap();
        let names: Vec<&str> = w.entries.iter().map(|e| e.scenario.name.as_str()).collect();
        assert_eq!(names, MC_SCENARIOS);
    }
}
