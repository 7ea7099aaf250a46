//! The declarative scenario model.
//!
//! A [`Scenario`] names everything one experiment needs — topology family,
//! fault threshold, adversary strategy, fault placement, protocol, network
//! timing, seed range, and oracle mode — as plain data.
//! [`Scenario::default`] is the one place the defaults are written:
//! campaign files (TOML or JSON) override the keys they set, and code
//! spells a scenario with struct-update syntax,
//! `Scenario { name, f: 0, ..Scenario::default() }`.

use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};
use scup_sim::{
    ChurnPlan, CrashFault, DelayFault, DupFault, FaultPlan, JoinEvent, LeaveEvent, LossFault,
    Partition, RetransmitConfig, MAX_PROCESSES,
};
use stellar_cup::attempts::LocalSliceStrategy;
use stellar_cup::consensus::{default_inputs, EndToEndConfig};

/// A schema enum with one spelling per variant, shared by campaign files,
/// reports and the CLI: [`Named::name`] is the only place a spelling is
/// written, and parsing ([`Named::from_name`]) and the "use a | b" error
/// texts ([`Named::names`]) derive from it.
pub trait Named: Copy + 'static {
    /// Every variant, in the order error texts list them.
    const ALL: &'static [Self];

    /// The variant's name in campaign files and reports.
    fn name(&self) -> &'static str;

    /// The variant spelled `name`, if any.
    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|v| v.name() == name)
    }

    /// Every name in [`Named::ALL`] order, joined by `sep`.
    fn names(sep: &str) -> String {
        Self::ALL
            .iter()
            .map(Self::name)
            .collect::<Vec<_>>()
            .join(sep)
    }
}

/// A parameterized topology family.
///
/// Every family is instantiated deterministically from a per-run seed (see
/// [`crate::topology::instantiate`]); the paper's fixed figures simply
/// ignore the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The paper's Fig. 1 (8 processes, sink `{5,6,7,8}`).
    Fig1,
    /// The paper's Fig. 2 (7 processes, the Theorem-2 counterexample).
    Fig2,
    /// The generalized Fig. 2 family: complete sink + outer ring.
    Fig2Family {
        /// Sink size (≥ 3).
        sink: usize,
        /// Outer-ring size (≥ 3).
        outer: usize,
    },
    /// Random `k`-OSR graphs (circulant sink + `k` contacts per outsider).
    RandomKosr {
        /// Sink size.
        sink: usize,
        /// Non-sink size.
        nonsink: usize,
        /// Connectivity parameter of Definition 6.
        k: usize,
        /// Extra-edge probability.
        extra_edge_prob: f64,
    },
    /// Random Byzantine-safe graphs together with a generator-drawn
    /// faulty set satisfying Theorem 1's premise (use with
    /// [`FaultPlacement::Generator`]).
    ByzantineSafe {
        /// Sink size (≥ 3f + 2).
        sink: usize,
        /// Non-sink size.
        nonsink: usize,
    },
    /// Erdős–Rényi digraphs `G(n, p)` — no structural guarantee; pair
    /// with [`OracleMode::Conditional`].
    ErdosRenyi {
        /// Number of processes.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Scale-free graphs by preferential attachment (always 1-OSR).
    ScaleFree {
        /// Number of processes.
        n: usize,
        /// Out-degree of each joining process.
        m: usize,
    },
    /// Clustered/partitioned community graphs.
    Clustered {
        /// Number of clusters (cluster 0 is the core).
        clusters: usize,
        /// Processes per cluster.
        cluster_size: usize,
        /// Knowledge edges from each non-core cluster into the core
        /// (0 ⇒ fully partitioned).
        bridges: usize,
        /// Extra intra-cluster edge probability.
        intra_extra_prob: f64,
        /// Extra cross-cluster edge probability.
        inter_extra_prob: f64,
    },
    /// `k`-OSR-preserving random perturbations of Fig. 1 (`k = 1`).
    PerturbedFig1 {
        /// Edge-addition attempts.
        additions: usize,
        /// Edge-deletion attempts (validated, reverted on violation).
        deletions: usize,
    },
    /// `k`-OSR-preserving random perturbations of Fig. 2 (`k = 3`).
    PerturbedFig2 {
        /// Edge-addition attempts.
        additions: usize,
        /// Edge-deletion attempts (validated, reverted on violation).
        deletions: usize,
    },
}

/// A [`TopologySpec`] family without its parameters: the `topology` key
/// of campaign files and the `family` field of reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyFamily {
    /// [`TopologySpec::Fig1`].
    Fig1,
    /// [`TopologySpec::Fig2`].
    Fig2,
    /// [`TopologySpec::Fig2Family`].
    Fig2Family,
    /// [`TopologySpec::RandomKosr`].
    RandomKosr,
    /// [`TopologySpec::ByzantineSafe`].
    ByzantineSafe,
    /// [`TopologySpec::ErdosRenyi`].
    ErdosRenyi,
    /// [`TopologySpec::ScaleFree`].
    ScaleFree,
    /// [`TopologySpec::Clustered`].
    Clustered,
    /// [`TopologySpec::PerturbedFig1`].
    PerturbedFig1,
    /// [`TopologySpec::PerturbedFig2`].
    PerturbedFig2,
}

impl Named for TopologyFamily {
    const ALL: &'static [Self] = &[
        TopologyFamily::Fig1,
        TopologyFamily::Fig2,
        TopologyFamily::Fig2Family,
        TopologyFamily::RandomKosr,
        TopologyFamily::ByzantineSafe,
        TopologyFamily::ErdosRenyi,
        TopologyFamily::ScaleFree,
        TopologyFamily::Clustered,
        TopologyFamily::PerturbedFig1,
        TopologyFamily::PerturbedFig2,
    ];

    fn name(&self) -> &'static str {
        match self {
            TopologyFamily::Fig1 => "fig1",
            TopologyFamily::Fig2 => "fig2",
            TopologyFamily::Fig2Family => "fig2-family",
            TopologyFamily::RandomKosr => "random-kosr",
            TopologyFamily::ByzantineSafe => "byzantine-safe",
            TopologyFamily::ErdosRenyi => "erdos-renyi",
            TopologyFamily::ScaleFree => "scale-free",
            TopologyFamily::Clustered => "clustered",
            TopologyFamily::PerturbedFig1 => "perturbed-fig1",
            TopologyFamily::PerturbedFig2 => "perturbed-fig2",
        }
    }
}

impl TopologySpec {
    /// The family this spec instantiates.
    pub fn family(&self) -> TopologyFamily {
        match self {
            TopologySpec::Fig1 => TopologyFamily::Fig1,
            TopologySpec::Fig2 => TopologyFamily::Fig2,
            TopologySpec::Fig2Family { .. } => TopologyFamily::Fig2Family,
            TopologySpec::RandomKosr { .. } => TopologyFamily::RandomKosr,
            TopologySpec::ByzantineSafe { .. } => TopologyFamily::ByzantineSafe,
            TopologySpec::ErdosRenyi { .. } => TopologyFamily::ErdosRenyi,
            TopologySpec::ScaleFree { .. } => TopologyFamily::ScaleFree,
            TopologySpec::Clustered { .. } => TopologyFamily::Clustered,
            TopologySpec::PerturbedFig1 { .. } => TopologyFamily::PerturbedFig1,
            TopologySpec::PerturbedFig2 { .. } => TopologyFamily::PerturbedFig2,
        }
    }

    /// Rejects parameters the family's generator cannot build: each
    /// generator in `scup_graph::generators` asserts its contract, so an
    /// unchecked typo would panic once per run (or, for an empty
    /// Erdős–Rényi graph, pass vacuously on a system with no process).
    /// `f` is the scenario's fault threshold (`byzantine-safe` sizes its
    /// sink by it). A system past [`MAX_PROCESSES`] is refused too: the
    /// simulator addresses no more.
    ///
    /// # Errors
    ///
    /// Names the family and the violated bound.
    pub fn validate(&self, f: usize) -> Result<(), String> {
        let family = self.family().name();
        let need = |ok: bool, bound: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("topology `{family}` needs {bound}"))
            }
        };
        let probability = |key: &str, p: f64| {
            need(
                (0.0..=1.0).contains(&p),
                &format!("`{key}` in [0, 1], got {p}"),
            )
        };
        let n = match *self {
            TopologySpec::Fig1 | TopologySpec::PerturbedFig1 { .. } => 8,
            TopologySpec::Fig2 | TopologySpec::PerturbedFig2 { .. } => 7,
            TopologySpec::Fig2Family { sink, outer } => sink.saturating_add(outer),
            TopologySpec::RandomKosr { sink, nonsink, .. }
            | TopologySpec::ByzantineSafe { sink, nonsink } => sink.saturating_add(nonsink),
            TopologySpec::ErdosRenyi { n, .. } | TopologySpec::ScaleFree { n, .. } => n,
            TopologySpec::Clustered {
                clusters,
                cluster_size,
                ..
            } => clusters.saturating_mul(cluster_size),
        };
        need(
            n <= MAX_PROCESSES,
            &format!("at most {MAX_PROCESSES} processes, got {n}"),
        )?;
        match *self {
            TopologySpec::Fig1
            | TopologySpec::Fig2
            | TopologySpec::PerturbedFig1 { .. }
            | TopologySpec::PerturbedFig2 { .. } => Ok(()),
            TopologySpec::Fig2Family { sink, outer } => {
                need(sink >= 3, "sink >= 3")?;
                need(outer >= 3, "outer >= 3")
            }
            TopologySpec::RandomKosr {
                sink,
                k,
                extra_edge_prob,
                ..
            } => {
                need(k >= 1, "k >= 1")?;
                need(sink > k, "sink > k")?;
                probability("extra_edge_prob", extra_edge_prob)
            }
            TopologySpec::ByzantineSafe { sink, .. } => {
                let bound = f.saturating_mul(3).saturating_add(2);
                need(sink >= bound, &format!("sink >= 3f + 2 = {bound}"))
            }
            TopologySpec::ErdosRenyi { n, p } => {
                need(n >= 1, "n >= 1")?;
                probability("p", p)
            }
            TopologySpec::ScaleFree { n, m } => {
                need(m >= 1, "m >= 1")?;
                need(n > m, "n >= m + 1")
            }
            TopologySpec::Clustered {
                clusters,
                cluster_size,
                intra_extra_prob,
                inter_extra_prob,
                ..
            } => {
                need(clusters >= 1, "clusters >= 1")?;
                need(cluster_size >= 2, "cluster_size >= 2")?;
                probability("intra_extra_prob", intra_extra_prob)?;
                probability("inter_extra_prob", inter_extra_prob)
            }
        }
    }
}

/// Where the faulty processes sit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlacement {
    /// No faults.
    None,
    /// Use the faulty set drawn by the topology generator
    /// (only [`TopologySpec::ByzantineSafe`] provides one).
    Generator,
    /// `count` faulty processes drawn uniformly per run.
    Random {
        /// How many processes fail.
        count: usize,
    },
    /// `count` faulty processes drawn uniformly from the sink component.
    Sink {
        /// How many processes fail.
        count: usize,
    },
    /// `count` faulty processes drawn uniformly outside the sink.
    NonSink {
        /// How many processes fail.
        count: usize,
    },
    /// A fixed list of (0-based) process ids.
    Ids(Vec<u32>),
}

/// A [`FaultPlacement`] drawn by name: the `fault_placement` key of
/// campaign files (an id list is the `faulty` key instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// [`FaultPlacement::None`].
    None,
    /// [`FaultPlacement::Generator`].
    Generator,
    /// [`FaultPlacement::Random`].
    Random,
    /// [`FaultPlacement::Sink`].
    Sink,
    /// [`FaultPlacement::NonSink`].
    NonSink,
}

impl Named for PlacementKind {
    const ALL: &'static [Self] = &[
        PlacementKind::None,
        PlacementKind::Generator,
        PlacementKind::Random,
        PlacementKind::Sink,
        PlacementKind::NonSink,
    ];

    fn name(&self) -> &'static str {
        match self {
            PlacementKind::None => "none",
            PlacementKind::Generator => "generator",
            PlacementKind::Random => "random",
            PlacementKind::Sink => "sink",
            PlacementKind::NonSink => "nonsink",
        }
    }
}

impl PlacementKind {
    /// Whether `count` sizes a placement of this kind: `none` and
    /// `generator` place no drawn faults.
    pub fn takes_count(self) -> bool {
        !matches!(self, PlacementKind::None | PlacementKind::Generator)
    }

    /// The placement of this kind; `count` sizes the drawn ones.
    pub fn with_count(self, count: usize) -> FaultPlacement {
        match self {
            PlacementKind::None => FaultPlacement::None,
            PlacementKind::Generator => FaultPlacement::Generator,
            PlacementKind::Random => FaultPlacement::Random { count },
            PlacementKind::Sink => FaultPlacement::Sink { count },
            PlacementKind::NonSink => FaultPlacement::NonSink { count },
        }
    }
}

/// Declarative fault-injection spec: the flat, campaign-file-friendly
/// mirror of [`scup_sim::FaultPlan`], written in TOML as an inline table:
///
/// ```toml
/// faults = { loss = 0.3, loss_until = 2000, crash = [2], crash_at = 300, recover_at = 1500 }
/// ```
///
/// Every window field defaults to `u64::MAX` ("never heals") so a fault
/// with no explicit end is deliberately unhealed — the graceful-
/// degradation oracle then requires safety but not termination. The
/// default spec ([`FaultSpec::default`]) maps to the zero plan, which is
/// guaranteed not to perturb the delivery schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probabilistic per-message loss probability (0 = off).
    pub loss: f64,
    /// First tick at which loss heals.
    pub loss_until: u64,
    /// Probabilistic duplication probability (0 = off).
    pub dup: f64,
    /// First tick at which duplication heals.
    pub dup_until: u64,
    /// Extra worst-case delivery latency in ticks (0 = off).
    pub extra_delay: u64,
    /// First tick at which latency returns to the `Δ` contract.
    pub extra_delay_until: u64,
    /// One side of a partition cut (empty = no partition).
    pub partition: Vec<u32>,
    /// First tick of the partition window.
    pub partition_from: u64,
    /// First tick after the partition heals.
    pub partition_until: u64,
    /// Processes that crash (empty = no crashes).
    pub crash: Vec<u32>,
    /// Tick at which the `crash` processes go down.
    pub crash_at: u64,
    /// Recovery tick for the crashed processes (`None` = down forever).
    pub recover_at: Option<u64>,
    /// Crashed processes that lose their durable journal on recovery
    /// (amnesia): they come back with empty state instead of replaying.
    /// Must be a subset of `crash`. Empty = every recovery replays.
    pub amnesia: Vec<u32>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            loss: 0.0,
            loss_until: u64::MAX,
            dup: 0.0,
            dup_until: u64::MAX,
            extra_delay: 0,
            extra_delay_until: u64::MAX,
            partition: Vec::new(),
            partition_from: 0,
            partition_until: u64::MAX,
            crash: Vec::new(),
            crash_at: 0,
            recover_at: None,
            amnesia: Vec::new(),
        }
    }
}

impl FaultSpec {
    /// Lowers the flat spec into the simulator's [`FaultPlan`].
    pub fn to_plan(&self) -> FaultPlan {
        FaultPlan {
            loss: (self.loss > 0.0).then_some(LossFault {
                prob: self.loss,
                until: self.loss_until,
                links: None,
            }),
            duplication: (self.dup > 0.0).then_some(DupFault {
                prob: self.dup,
                until: self.dup_until,
            }),
            extra_delay: (self.extra_delay > 0).then_some(DelayFault {
                ticks: self.extra_delay,
                until: self.extra_delay_until,
            }),
            partitions: if self.partition.is_empty() {
                Vec::new()
            } else {
                vec![Partition {
                    side: ProcessSet::from_ids(self.partition.iter().copied()),
                    from: self.partition_from,
                    until: self.partition_until,
                }]
            },
            crashes: self
                .crash
                .iter()
                .map(|&p| CrashFault {
                    process: ProcessId::new(p),
                    at: self.crash_at,
                    recover_at: self.recover_at,
                })
                .collect(),
            amnesia: ProcessSet::from_ids(self.amnesia.iter().copied()),
        }
    }

    /// The retransmission schedule protocols should run under this spec:
    /// disabled for the zero plan (fault-free schedules stay
    /// bit-identical), otherwise a backoff ladder covering the plan's heal
    /// tick — or GST for unhealed plans, so senders keep trying for a
    /// while but eventually quiesce.
    pub fn retransmit_config(&self, network: &NetworkSpec) -> RetransmitConfig {
        retransmit_for(&self.to_plan(), network)
    }
}

/// [`FaultSpec::retransmit_config`] given the already-lowered `plan`.
pub(crate) fn retransmit_for(plan: &FaultPlan, network: &NetworkSpec) -> RetransmitConfig {
    if plan.is_zero() {
        return RetransmitConfig::disabled();
    }
    let heal = plan.heal_tick().unwrap_or(0).max(network.gst);
    RetransmitConfig::covering(heal, network.delta.max(1))
}

/// Declarative membership-churn spec: the flat, campaign-file-friendly
/// mirror of [`scup_sim::ChurnPlan`], written in TOML as an inline table:
///
/// ```toml
/// churn = { joins = [3, 5], join_at = 20000, leaves = [6], leave_at = 40000 }
/// ```
///
/// Joiners start dormant and materialize at
/// `join_at + index * join_stagger`, with their static participant
/// detector as contacts; every incumbent whose PD names the joiner gets
/// an `on_peer_joined` introduction (the incremental re-discovery hook).
/// Leavers all fall silent for good at `leave_at`.
/// The default spec is the zero plan, which is bit-identical to running
/// without a churn plane at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Processes that join mid-run (dormant until their join tick).
    pub joins: Vec<u32>,
    /// Tick of the first join.
    pub join_at: u64,
    /// Extra delay between consecutive joins (0 = a join storm).
    pub join_stagger: u64,
    /// Processes that leave mid-run (silent from their leave tick on).
    pub leaves: Vec<u32>,
    /// Tick at which the `leaves` processes depart.
    pub leave_at: u64,
    /// Misconfiguration exhibit: the first joiner boots with a stale
    /// forced decision (a value nobody proposed) instead of catching up
    /// properly — the strong-validity oracle must flag it. BFT-CUP only;
    /// pair with `expect_violation = true`.
    pub stale_joiner: bool,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            joins: Vec::new(),
            join_at: 20_000,
            join_stagger: 0,
            leaves: Vec::new(),
            leave_at: 20_000,
            stale_joiner: false,
        }
    }
}

impl ChurnSpec {
    /// `true` when no membership event is scheduled (the zero plan).
    pub fn is_zero(&self) -> bool {
        self.joins.is_empty() && self.leaves.is_empty()
    }

    /// The processes scheduled to leave, as a set — the oracles stop
    /// owing them termination.
    pub fn departed(&self) -> ProcessSet {
        ProcessSet::from_ids(self.leaves.iter().copied())
    }

    /// Lowers the flat spec into the simulator's [`ChurnPlan`] against a
    /// concrete graph: a joiner's contacts are its static participant
    /// detector, and it is introduced to every process whose PD names it.
    /// Out-of-range ids produce events with empty contact sets so
    /// [`ChurnPlan::validate`] can report them as errors instead of this
    /// lowering panicking.
    pub fn to_plan(&self, kg: &KnowledgeGraph) -> ChurnPlan {
        let joins = self
            .joins
            .iter()
            .enumerate()
            .map(|(idx, &p)| {
                let j = ProcessId::new(p);
                let in_range = j.index() < kg.n();
                JoinEvent {
                    process: j,
                    at: self.join_at + idx as u64 * self.join_stagger,
                    contacts: if in_range {
                        kg.pd(j).clone()
                    } else {
                        ProcessSet::new()
                    },
                    introduce_to: if in_range {
                        kg.processes().filter(|&i| kg.pd(i).contains(j)).collect()
                    } else {
                        ProcessSet::new()
                    },
                }
            })
            .collect();
        let leaves = self
            .leaves
            .iter()
            .map(|&p| LeaveEvent {
                process: ProcessId::new(p),
                at: self.leave_at,
            })
            .collect();
        ChurnPlan { joins, leaves }
    }
}

/// Which validity variant the oracle judges decided values against
/// (the hierarchy of Civit et al., arXiv:2301.04920). All three are
/// safety oracles over the same decision vector; they only differ in
/// which decided values count as legitimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidityMode {
    /// A decided value must have been proposed by a *correct* process
    /// (fail-stop proposals count under the crash adversary).
    Strong,
    /// Only binding when every correct process proposed the same value:
    /// then exactly that value may be decided. Distinct proposals make
    /// the oracle vacuous.
    Weak,
    /// A decided value must satisfy the external legitimacy predicate —
    /// here: it was *somebody's* proposal, faulty processes included
    /// (the stand-in for an application-level certificate check).
    External,
}

impl Named for ValidityMode {
    const ALL: &'static [Self] = &[
        ValidityMode::Strong,
        ValidityMode::Weak,
        ValidityMode::External,
    ];

    fn name(&self) -> &'static str {
        match self {
            ValidityMode::Strong => "strong",
            ValidityMode::Weak => "weak",
            ValidityMode::External => "external",
        }
    }
}

/// Which consensus pipeline the scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// The paper's positive pipeline: distributed sink detector →
    /// Algorithm 2 slices → SCP (Theorems 3–5).
    StellarMinimal,
    /// The negative pipeline: local slices from `PD_i` and `f` only
    /// (Theorem 2 / Corollary 1 territory).
    StellarLocal(LocalSliceStrategy),
    /// The BFT-CUP baseline (Theorem 1).
    BftCup,
}

impl Named for ProtocolSpec {
    const ALL: &'static [Self] = &[
        ProtocolSpec::StellarMinimal,
        ProtocolSpec::StellarLocal(LocalSliceStrategy::AllButOne),
        ProtocolSpec::StellarLocal(LocalSliceStrategy::SurviveF),
        ProtocolSpec::StellarLocal(LocalSliceStrategy::FPlusOne),
        ProtocolSpec::BftCup,
    ];

    fn name(&self) -> &'static str {
        match self {
            ProtocolSpec::StellarMinimal => "stellar-minimal",
            ProtocolSpec::StellarLocal(LocalSliceStrategy::AllButOne) => {
                "stellar-local-all-but-one"
            }
            ProtocolSpec::StellarLocal(LocalSliceStrategy::SurviveF) => "stellar-local-survive-f",
            ProtocolSpec::StellarLocal(LocalSliceStrategy::FPlusOne) => "stellar-local-f-plus-one",
            ProtocolSpec::BftCup => "bft-cup",
        }
    }
}

/// Partially synchronous network timing for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkSpec {
    /// Global stabilization time.
    pub gst: u64,
    /// Post-GST delivery bound `Δ`.
    pub delta: u64,
    /// Simulated-time horizon per phase.
    ///
    /// Converging runs stop well before the horizon; runs that *cannot*
    /// converge (e.g. Erdős–Rényi sweeps under `observe`) keep re-arming
    /// protocol timers until it, so give exploratory scenarios a horizon
    /// in the tens of thousands, not the default millions.
    pub max_ticks: u64,
}

/// The timing of [`EndToEndConfig::default`].
impl Default for NetworkSpec {
    fn default() -> Self {
        let config = EndToEndConfig::default();
        NetworkSpec {
            gst: config.gst,
            delta: config.delta,
            max_ticks: config.max_ticks,
        }
    }
}

impl NetworkSpec {
    /// Rejects timing the simulator cannot run: a message is in flight for
    /// at least one tick, so `Δ = 0` is no bound at all (and
    /// `NetworkConfig::partially_synchronous` panics on it).
    ///
    /// # Errors
    ///
    /// Names the offending key.
    pub fn validate(&self) -> Result<(), String> {
        if self.delta == 0 {
            return Err("`delta` must be at least 1".into());
        }
        Ok(())
    }
}

/// How oracle violations affect a run's pass/fail status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Every run must satisfy agreement, validity and termination.
    Require,
    /// Runs must satisfy the oracles only when the structural premise
    /// (Byzantine-safe `k`-OSR with enough correct sink members) holds;
    /// premise-violating runs are recorded but never fail.
    Conditional,
    /// Runs never fail; oracle outcomes are only recorded.
    Observe,
}

impl Named for OracleMode {
    const ALL: &'static [Self] = &[
        OracleMode::Require,
        OracleMode::Conditional,
        OracleMode::Observe,
    ];

    fn name(&self) -> &'static str {
        match self {
            OracleMode::Require => "require",
            OracleMode::Conditional => "conditional",
            OracleMode::Observe => "observe",
        }
    }
}

/// Bounds and expectations for exhaustive exploration (`mode = "explore"`
/// campaigns, run by the `scup-mc` bounded model checker).
///
/// Sampling fields keep their meaning where sensible: the scenario's
/// `seed_base` still seeds topology instantiation, fault placement and the
/// (deterministic) knowledge-increase phase; `seeds` is ignored — the
/// explorer quantifies over schedules, not seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreSpec {
    /// Maximum branching steps per explored schedule (absorbed no-op
    /// deliveries are free). Schedules cut here count as `truncated` and
    /// mark the exploration incomplete.
    pub max_steps: u32,
    /// Safety valve on distinct states; exceeding it aborts the scenario
    /// with an error (raise the bound rather than trusting a capped
    /// exploration).
    pub max_states: u64,
    /// How many timer events each process may fire (the untimed semantics
    /// treats a pending timer as a schedulable choice; re-arming would
    /// otherwise make the space infinite).
    pub timer_budget: u32,
    /// Symmetry reduction: quotient states by renamings of interchangeable
    /// processes (equal slices, inputs and adversary role, verified
    /// against the FBQS). Shrinks the state *count*; sound — reduced and
    /// unreduced exploration agree on every verdict. On by default; turn
    /// off to compare (the differential soundness tests do).
    pub symmetry: bool,
    /// Persistent-set reduction over *threshold-inert* deliveries: an
    /// enabled delivery that provably commutes with every alternative
    /// (a vote for an already-accepted statement from a fully-registered
    /// correct origin — it cannot change any quorum threshold) is fired
    /// eagerly as a forced, uncounted move instead of being a branch
    /// point. Collapses the flood-tail interleavings, shrinking the state
    /// *count* — the lever that makes a third active proposer
    /// exhaustible. Depth bookkeeping treats inert fires as free in both
    /// reduced and unreduced runs of the same spec, so minimal
    /// counterexample depths remain comparable. On by default.
    pub eager_inert: bool,
    /// Explore the knowledge-increase phase too (`stellar-minimal` only):
    /// instead of fixing every process's slices by one deterministic
    /// discovery/sink-detection run, each process runs the full stack —
    /// Algorithm 3 then Algorithm-2 slices then SCP — inside the explored
    /// schedule, so discovery message orderings become choice points.
    /// Off by default (the PR 3 semantics); value-injecting adversaries
    /// are not yet supported with it.
    pub explore_discovery: bool,
    /// Fix BFT-CUP sink membership *before* exploration (`bft-cup` only):
    /// every actor starts with the graph's unique sink as its resolved
    /// member set and skips in-schedule SINK discovery — the dual of the
    /// SCP drivers' pre-computed slices. Discovery orderings stop being
    /// choice points, so the branching budget goes entirely to the
    /// consensus rounds (propose/echo/commit and, with a timer budget,
    /// view changes). Off by default: the full-stack semantics explores
    /// discovery in-schedule.
    pub preresolve_sink: bool,
}

impl Default for ExploreSpec {
    fn default() -> Self {
        ExploreSpec {
            // Conservative: large systems with distinct inputs explode
            // combinatorially, and forcing `--mode explore` onto a
            // sampling campaign must fail fast with the cap message, not
            // grind for hours. Scenarios written for exploration set
            // their own bounds (see campaigns/explore.toml).
            max_steps: 64,
            max_states: 200_000,
            timer_budget: 1,
            symmetry: true,
            eager_inert: true,
            explore_discovery: false,
            preresolve_sink: false,
        }
    }
}

/// One declarative experiment: a topology family × adversary × protocol ×
/// seed range, with the oracle policy to judge it by.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (unique within a campaign).
    pub name: String,
    /// Topology family.
    pub topology: TopologySpec,
    /// Fault threshold `f` the protocols are configured with.
    pub f: usize,
    /// Adversary strategy name, resolved against the
    /// [`registry`](crate::adversary::AdversaryRegistry) (e.g. `"silent"`,
    /// `"equivocate"`, `"crash:5"`).
    pub adversary: String,
    /// Fault placement.
    pub faults: FaultPlacement,
    /// Network/process fault injection (TOML key `faults = { ... }`);
    /// the zero spec by default.
    pub fault_plan: FaultSpec,
    /// Membership churn (TOML key `churn = { ... }`); the zero spec by
    /// default.
    pub churn: ChurnSpec,
    /// Which validity variant the oracle judges (TOML key `validity`);
    /// strong by default.
    pub validity: ValidityMode,
    /// `true` for seeded counterexamples: the scenario *passes* iff a
    /// violation is caught — by the oracles in a sampled run (exhibits
    /// like `stale_joiner`), or as a safety violation with its minimal
    /// trace under exploration. Both modes read this one flag.
    pub expect_violation: bool,
    /// Protocol under test.
    pub protocol: ProtocolSpec,
    /// Network timing.
    pub network: NetworkSpec,
    /// Number of seeds (runs) for this scenario.
    pub seeds: u64,
    /// First seed; runs use `seed_base..seed_base + seeds`.
    pub seed_base: u64,
    /// Oracle policy.
    pub oracle: OracleMode,
    /// Per-process input override (`inputs[i]` is process `i`'s proposal;
    /// shorter lists repeat cyclically). `None` = the default distinct
    /// inputs of [`default_inputs`]. Fewer distinct values shrink the nomination
    /// space — the lever that makes exhaustive exploration of a scenario
    /// tractable.
    pub inputs: Option<Vec<u64>>,
    /// Exploration bounds (used only under `mode = "explore"`).
    pub explore: ExploreSpec,
}

/// The one place the scenario defaults are written: the paper's Fig. 2
/// with `f = 1` and no faulty process, the silent adversary, the positive
/// pipeline, 8 seeds from 0, the `require` oracle under strong validity,
/// and the default plans, timing and exploration bounds. The name is
/// empty: a campaign file must give one, and so should code.
impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: String::new(),
            topology: TopologySpec::Fig2,
            f: 1,
            adversary: "silent".to_string(),
            faults: FaultPlacement::None,
            fault_plan: FaultSpec::default(),
            churn: ChurnSpec::default(),
            validity: ValidityMode::Strong,
            expect_violation: false,
            protocol: ProtocolSpec::StellarMinimal,
            network: NetworkSpec::default(),
            seeds: 8,
            seed_base: 0,
            oracle: OracleMode::Require,
            inputs: None,
            explore: ExploreSpec::default(),
        }
    }
}

impl Scenario {
    /// The concrete per-process inputs for an `n`-process instantiation:
    /// the override repeated cyclically, or [`default_inputs`] (an empty
    /// override — constructible in code, rejected by the campaign-file
    /// parser — falls back to the default rather than dividing by zero).
    pub fn resolved_inputs(&self, n: usize) -> Vec<u64> {
        match self.inputs.as_deref() {
            Some(values) if !values.is_empty() => {
                (0..n).map(|i| values[i % values.len()]).collect()
            }
            _ => default_inputs(n),
        }
    }

    /// Why this scenario cannot run under `mode = "explore"`, if it
    /// cannot, naming the scenario and the offending key. The single
    /// source of truth for the parser (`mode = "explore"` files) and the
    /// explorer's setup (`--mode explore`, programmatic scenarios), so
    /// the error text cannot drift between entry paths. `value_injecting`
    /// classifies the adversary the same way at both: its resolved
    /// `AdversaryKind` does not preserve validity (an unknown name is not
    /// value-injecting here; it fails the run instead).
    pub fn explore_unsupported(&self, value_injecting: bool) -> Option<String> {
        self.explore_discovery_unsupported(value_injecting)
            .or_else(|| self.preresolve_sink_unsupported())
            .or_else(|| self.explore_plans_unsupported())
    }

    /// `explore_discovery = true` applies to the `stellar-minimal`
    /// pipeline only, and value-injecting adversaries are unsupported.
    fn explore_discovery_unsupported(&self, value_injecting: bool) -> Option<String> {
        if !self.explore.explore_discovery {
            return None;
        }
        if self.protocol != ProtocolSpec::StellarMinimal {
            return Some(format!(
                "scenario `{}`: knob `explore_discovery = true` applies to protocol \
                 `stellar-minimal` only (`{}` has no knowledge-increase phase to \
                 explore)",
                self.name,
                self.protocol.name()
            ));
        }
        if value_injecting {
            return Some(format!(
                "scenario `{}`: knob `explore_discovery = true` does not support the \
                 value-injecting adversary `{}` yet; use silent / echo / crash:N",
                self.name, self.adversary
            ));
        }
        None
    }

    /// `preresolve_sink = true` fixes BFT-CUP sink membership ahead of
    /// exploration, so it applies to `bft-cup` only.
    fn preresolve_sink_unsupported(&self) -> Option<String> {
        if !self.explore.preresolve_sink {
            return None;
        }
        if self.protocol != ProtocolSpec::BftCup {
            return Some(format!(
                "scenario `{}`: knob `preresolve_sink = true` applies to protocol \
                 `bft-cup` only (`{}` resolves its sink through pre-computed \
                 slices already)",
                self.name,
                self.protocol.name()
            ));
        }
        None
    }

    /// The explorer quantifies over schedules, not over timed fault or
    /// churn plans (they have no untimed counterpart), and its per-state
    /// safety check judges strong validity only: a scenario setting one
    /// of these keys would silently explore something other than what it
    /// asks for.
    fn explore_plans_unsupported(&self) -> Option<String> {
        let (key, what) = if !self.fault_plan.to_plan().is_zero() {
            ("faults", "a fault plan")
        } else if !self.churn.is_zero() {
            ("churn", "a churn plan")
        } else if self.validity != ValidityMode::Strong {
            ("validity", "a non-`strong` validity mode")
        } else {
            return None;
        };
        Some(format!(
            "scenario `{}`: key `{key}` sets {what}, which exploration does not \
             support (the explorer covers every schedule of the fault-free, \
             churn-free system under strong validity); remove the key or \
             sample the scenario",
            self.name
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_resolve_cyclically_and_tolerate_empty_overrides() {
        let s = Scenario {
            inputs: Some(vec![4, 5]),
            ..Scenario::default()
        };
        assert_eq!(s.resolved_inputs(3), vec![4, 5, 4]);
        // Code (unlike the parser) may set an empty override; it must
        // fall back to the defaults, not divide by zero.
        let empty = Scenario {
            inputs: Some(vec![]),
            ..Scenario::default()
        };
        assert_eq!(empty.resolved_inputs(3), vec![100, 101, 102]);
    }

    #[test]
    fn fault_spec_lowers_to_the_simulator_plan() {
        let spec = FaultSpec {
            loss: 0.25,
            loss_until: 800,
            dup: 0.1,
            dup_until: 600,
            extra_delay: 15,
            extra_delay_until: 700,
            partition: vec![0, 2],
            partition_from: 50,
            partition_until: 900,
            crash: vec![1, 4],
            crash_at: 100,
            recover_at: Some(1200),
            ..Default::default()
        };
        let plan = spec.to_plan();
        assert!(!plan.is_zero());
        // Every window closes: the plan heals at the latest of them.
        assert_eq!(plan.heal_tick(), Some(1200));
        assert_eq!(
            plan.loss.as_ref().map(|l| (l.prob, l.until)),
            Some((0.25, 800))
        );
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.crashes.len(), 2);
        // Dropping the recovery makes the plan unhealed.
        let down_forever = FaultSpec {
            recover_at: None,
            ..spec
        };
        assert_eq!(down_forever.to_plan().heal_tick(), None);
    }

    #[test]
    fn retransmission_covers_the_heal_and_is_inert_on_zero_plans() {
        let network = NetworkSpec::default();
        // The zero plan never retransmits: fault-free schedules stay
        // bit-identical.
        let zero = FaultSpec::default();
        assert!(zero.to_plan().is_zero());
        assert!(!zero.retransmit_config(&network).enabled());
        // A lossy plan healing after GST retransmits until past the heal.
        let lossy = FaultSpec {
            loss: 0.5,
            loss_until: 2_000,
            ..Default::default()
        };
        assert!(lossy.retransmit_config(&network).enabled());
    }
}
