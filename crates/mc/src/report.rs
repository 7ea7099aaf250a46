//! Exploration reports: per-scenario records, counterexample rendering,
//! and the JSON shape.
//!
//! Every field except the `wall_micros` timings, the traversal-effort
//! counter (`transitions` — how hard the particular worker partition
//! had to work, not what it found) and the optional
//! `obs` profiling payload is a pure function of the campaign file —
//! identical across runs, machines and worker counts. The determinism
//! test in `tests/explore.rs` pins that down.

use scup_harness::json::Json;
use scup_obs::profile::{Phase, PhaseProfile};
use scup_scp::Value;

/// Time and stamp count attributed to one explorer phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Stable phase name (`restore`, `expand`, `fingerprint`,
    /// `canonicalize`, `dedup`, `settle`).
    pub phase: &'static str,
    /// Total nanoseconds attributed to the phase, summed over workers.
    pub nanos: u64,
    /// Number of lap stamps (≈ occurrences) attributed to the phase.
    pub laps: u64,
}

/// Observability payload for one explored scenario: phase timing,
/// re-expansion effort, visited-set occupancy, and the frontier-depth
/// series. Only present when the campaign ran with profiling on, and
/// **always excluded from the bit-identical report contract** — every
/// value here is timing- or partition-dependent, like `wall_micros`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreObs {
    /// Per-phase wall time, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseRow>,
    /// Re-expansions of already-visited states (label correction).
    pub reexpansions: u64,
    /// Fires the workers answered from their local-transition memos.
    pub steps_replayed: u64,
    /// Fires for which the workers ran an actor callback.
    pub steps_executed: u64,
    /// `absorbs` / `threshold_inert` answers the workers' settles asked
    /// for.
    pub settle_queries: u64,
    /// Threshold-inert deliveries the workers' settles fired as forced
    /// moves.
    pub settle_forced: u64,
    /// Pending entries the workers' actor callbacks emitted.
    pub events_emitted: u64,
    /// Distinct events among them, summed over the workers' simulations
    /// (one allocation each).
    pub events_distinct: u64,
    /// Entries in the merged visited map.
    pub visited_len: u64,
    /// Allocated capacity of the merged visited map.
    pub visited_capacity: u64,
    /// Largest per-worker visited map (entries) before merging.
    pub worker_visited_peak: u64,
    /// Most saved parent states one worker's frontier held alive at
    /// once, the largest over workers.
    pub frontier_peak: u64,
    /// Sampled `(transitions, branching depth)` pairs over the run.
    pub depth_samples: Vec<(u64, u32)>,
}

impl ExploreObs {
    /// Builds the phase rows from a merged worker profile.
    pub fn phase_rows(profile: &PhaseProfile) -> Vec<PhaseRow> {
        Phase::ALL
            .iter()
            .map(|&p| PhaseRow {
                phase: p.name(),
                nanos: profile.nanos(p),
                laps: profile.count(p),
            })
            .collect()
    }

    /// The payload as structured JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "phases",
                self.phases
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("phase", Json::Str(r.phase.to_string())),
                            ("nanos", Json::from(r.nanos)),
                            ("laps", Json::from(r.laps)),
                        ])
                    })
                    .collect(),
            ),
            ("reexpansions", Json::from(self.reexpansions)),
            (
                "step_memo",
                Json::obj([
                    ("replayed", Json::from(self.steps_replayed)),
                    ("executed", Json::from(self.steps_executed)),
                ]),
            ),
            (
                "settle",
                Json::obj([
                    ("queries", Json::from(self.settle_queries)),
                    ("forced", Json::from(self.settle_forced)),
                ]),
            ),
            (
                "events",
                Json::obj([
                    ("emitted", Json::from(self.events_emitted)),
                    ("distinct", Json::from(self.events_distinct)),
                ]),
            ),
            ("visited_len", Json::from(self.visited_len)),
            ("visited_capacity", Json::from(self.visited_capacity)),
            ("worker_visited_peak", Json::from(self.worker_visited_peak)),
            ("frontier_peak", Json::from(self.frontier_peak)),
            (
                "depth_samples",
                self.depth_samples
                    .iter()
                    .map(|&(t, d)| Json::Arr(vec![Json::from(t), Json::from(d)]))
                    .collect(),
            ),
        ])
    }
}

/// A rendered minimal counterexample: the canonical shortest schedule
/// (ties broken lexicographically by choice order) reaching a safety
/// violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CexReport {
    /// Branching depth of the violating state (absorbed no-op deliveries
    /// excluded).
    pub depth: u32,
    /// The adversary variant (victim split) the schedule drives.
    pub variant: u32,
    /// The violated oracles, as human-readable descriptions.
    pub violations: Vec<String>,
    /// The full replayable schedule (every fired event, absorbed ones
    /// included), rendered from the trace module.
    pub schedule: Vec<String>,
    /// Per-process decisions in the violating state.
    pub decisions: Vec<Option<Value>>,
    /// Causal forensics of the violation — the causal cone of the bad
    /// decisions and their provenance chains — when the campaign ran with
    /// forensics on. Deterministic (the replay is), but present only
    /// under the flag, so the forensics-off report shape is unchanged
    /// modulo this one `null`.
    pub forensics: Option<scup_harness::forensics::ForensicReport>,
}

/// The exploration outcome for one scenario.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExploreRecord {
    /// Scenario name.
    pub scenario: String,
    /// Topology family name.
    pub family: String,
    /// Adversary reference.
    pub adversary: String,
    /// Protocol name.
    pub protocol: String,
    /// Number of processes.
    pub n: usize,
    /// Fault threshold.
    pub f: usize,
    /// The faulty processes.
    pub faulty: Vec<u32>,
    /// The structural premise of the positive theorems held.
    pub premise: bool,
    /// Adversary variants explored.
    pub variants: u32,
    /// Distinct canonical states visited (all variants).
    pub states: u64,
    /// Inner (expanded) states.
    pub expanded: u64,
    /// Terminal states where every correct process externalized the same
    /// value (the safety verdict is frozen there, pending flood or not).
    pub decided: u64,
    /// Quiescent states with partial or no decision (agreement intact).
    pub quiescent_undecided: u64,
    /// States cut by the step bound (exploration incomplete past them).
    pub truncated: u64,
    /// States whose decisions violate agreement or validity.
    pub violating: u64,
    /// Every value some fully-decided terminal state agreed on.
    pub decided_values: Vec<Value>,
    /// `true` when no state was truncated: the verdict covers *every*
    /// schedule within the timer budget, not just the bounded prefix.
    pub complete: bool,
    /// Frontier subtree roots sharded across workers (deterministic: the
    /// serial prefix expansion does not depend on the worker count).
    pub frontier_roots: u64,
    /// Order of the symmetry automorphism group (1 = no reduction).
    pub symmetry_group: u64,
    /// Sizes of the interchangeable-process classes the group acts on.
    pub symmetry_classes: Vec<u64>,
    /// Candidate symmetry classes never expanded because of the
    /// permutation-group cap — a dropped class costs coverage of its
    /// arrangements, so it is counted, never silent.
    pub symmetry_dropped_classes: u64,
    /// Non-identity arrangements the dropped classes would have
    /// contributed (Σ (|class|! − 1)).
    pub symmetry_dropped_arrangements: u64,
    /// Visited states whose canonical representative is a *renaming* of
    /// the state as reached — how often the symmetry quotient collapsed
    /// something (a pure function of the visited set: deterministic).
    pub symmetric_states: u64,
    /// Branching events fired during exploration, summed over workers.
    /// Traversal effort — partition-dependent, excluded from the
    /// bit-identical contract (like `wall_micros`).
    pub transitions: u64,
    /// The initial state's size model
    /// ([`scup_sim::ExploreSim::state_size_estimate`]), in bytes.
    pub state_bytes_estimate: u64,
    /// A deterministic size model, not a measured peak: every visited
    /// state counted at the initial state's size (`states ×
    /// state_bytes_estimate`) plus the visited table's slots × slot
    /// bytes. The process's resident peak is neither bounded nor tracked
    /// by it.
    pub peak_memory_bytes: u64,
    /// Minimal branching depth of a violation, if any exists.
    pub min_violation_depth: Option<u32>,
    /// The canonical minimal counterexample, if a violation exists.
    pub violation: Option<CexReport>,
    /// Pass/fail under the scenario's oracle mode and `expect_violation`.
    pub passed: bool,
    /// A configuration error, if the scenario could not be explored.
    pub error: Option<String>,
    /// Wall-clock duration, microseconds (excluded from determinism).
    pub wall_micros: u64,
    /// Profiling payload when the campaign ran with obs profiling on
    /// (excluded from determinism, like `wall_micros`).
    pub obs: Option<ExploreObs>,
}

/// The aggregated outcome of an explore-mode campaign.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Campaign name.
    pub name: String,
    /// Worker threads actually used.
    pub threads: usize,
    /// One record per scenario, in declaration order.
    pub records: Vec<ExploreRecord>,
    /// Wall-clock duration of the whole campaign, microseconds.
    pub wall_micros: u64,
}

impl ExploreReport {
    /// `true` when every scenario passed.
    pub fn all_passed(&self) -> bool {
        self.records.iter().all(|r| r.passed)
    }

    /// The report as structured JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("campaign", Json::Str(self.name.clone())),
            ("mode", Json::Str("explore".into())),
            ("threads", Json::from(self.threads)),
            ("scenarios", Json::from(self.records.len())),
            (
                "passed",
                Json::from(self.records.iter().filter(|r| r.passed).count()),
            ),
            (
                "failed",
                Json::from(self.records.iter().filter(|r| !r.passed).count()),
            ),
            ("wall_micros", Json::from(self.wall_micros)),
            (
                "records",
                self.records.iter().map(ExploreRecord::to_json).collect(),
            ),
        ])
    }
}

impl ExploreRecord {
    /// The record as structured JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            ("family", Json::Str(self.family.clone())),
            ("adversary", Json::Str(self.adversary.clone())),
            ("protocol", Json::Str(self.protocol.clone())),
            ("n", Json::from(self.n)),
            ("f", Json::from(self.f)),
            ("faulty", self.faulty.iter().copied().collect()),
            ("premise", Json::Bool(self.premise)),
            ("variants", Json::from(self.variants)),
            ("states", Json::from(self.states)),
            ("expanded", Json::from(self.expanded)),
            ("decided", Json::from(self.decided)),
            ("quiescent_undecided", Json::from(self.quiescent_undecided)),
            ("truncated", Json::from(self.truncated)),
            ("violating", Json::from(self.violating)),
            (
                "decided_values",
                // Values render as their two's-complement i64, losslessly
                // (as in the sampler's `decided_value`).
                self.decided_values
                    .iter()
                    .map(|&v| Json::Int(v as i64))
                    .collect(),
            ),
            ("complete", Json::Bool(self.complete)),
            ("frontier_roots", Json::from(self.frontier_roots)),
            ("symmetry_group", Json::from(self.symmetry_group)),
            (
                "symmetry_classes",
                self.symmetry_classes.iter().copied().collect(),
            ),
            (
                "symmetry_dropped_classes",
                Json::from(self.symmetry_dropped_classes),
            ),
            (
                "symmetry_dropped_arrangements",
                Json::from(self.symmetry_dropped_arrangements),
            ),
            ("symmetric_states", Json::from(self.symmetric_states)),
            ("transitions", Json::from(self.transitions)),
            (
                "state_bytes_estimate",
                Json::from(self.state_bytes_estimate),
            ),
            ("peak_memory_bytes", Json::from(self.peak_memory_bytes)),
            ("min_violation_depth", Json::from(self.min_violation_depth)),
            (
                "violation",
                Json::from(self.violation.as_ref().map(CexReport::to_json)),
            ),
            ("passed", Json::Bool(self.passed)),
            ("error", Json::from(self.error.clone())),
            ("wall_micros", Json::from(self.wall_micros)),
            (
                "obs",
                Json::from(self.obs.as_ref().map(ExploreObs::to_json)),
            ),
        ])
    }
}

impl CexReport {
    /// The counterexample as structured JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("depth", Json::from(self.depth)),
            ("variant", Json::from(self.variant)),
            ("violations", self.violations.iter().cloned().collect()),
            ("schedule", self.schedule.iter().cloned().collect()),
            (
                "decisions",
                self.decisions
                    .iter()
                    .map(|d| Json::from(d.map(|v| Json::Int(v as i64))))
                    .collect(),
            ),
            (
                "forensics",
                Json::from(self.forensics.as_ref().map(|f| f.to_json())),
            ),
        ])
    }
}
