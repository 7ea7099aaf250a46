//! **scup-mc** — a bounded model checker for small FBQS systems.
//!
//! The campaigns of `scup-harness` *sample* schedules: hundreds of seeded
//! runs per scenario. But the paper's safety claims — Theorem 3's
//! intertwined guarantee, agreement and validity of federated voting under
//! Definition 1 quorums — are universally quantified over *all* message
//! schedules and Byzantine choices, and a sampler can miss the one
//! interleaving that breaks them (exactly how "Deconstructing Stellar
//! Consensus" motivates exhaustive exploration of abstract Stellar). This
//! crate closes that gap for small systems:
//!
//! - [`build`] resolves any harness [`Scenario`](scup_harness::Scenario)
//!   (topology family, adversary, protocol) through the sampler's own
//!   instantiation path and seats it through the sampler's own roster
//!   ([`stellar_cup::roster`]) — the knowledge-increase phase runs once,
//!   deterministically, and exploration quantifies over the SCP phase;
//! - [`explorer`] runs a uniform-cost (min-depth-first) search over
//!   *canonical* states (powered by [`scup_sim::ExploreSim`]'s
//!   snapshot/restore and 128-bit state hashing) with verdict-preserving
//!   reductions: a compact [`visited`] fingerprint table, eager firing
//!   of absorbed no-op deliveries, hash-collapsed commutation diamonds
//!   (every pending event is a branch choice — privileging a recipient
//!   would prune real schedules), a [`reduce`] symmetry quotient over
//!   interchangeable processes (full permutations including rotations,
//!   with a victim-split quotient for equivocating adversaries),
//!   and eager-inert persistent sets over threshold-inert deliveries
//!   (the lever that exhausts a third active proposer). Differential
//!   tests pin that every reduction agrees with the unreduced search on
//!   violation/no-violation, minimal counterexample depth, decided
//!   values and completeness — and that the unreduced search itself
//!   equals a test-side reference BFS on the full census. Equivocating
//!   adversaries contribute their victim-split choice points as
//!   explored variants;
//! - [`campaign`] integrates with `mode = "explore"` campaign files: the
//!   first two branch decisions are sharded across workers
//!   (deterministic stride, mutex-free), per-worker tables merge by
//!   minimal depth, and every reported number is a pure function of the
//!   campaign file — bit-identical for 1, 2 or 8 workers;
//! - on a violation, [`report`] renders the **canonical minimal
//!   counterexample**: the shortest schedule (lexicographically first
//!   among equals) reaching a safety violation, replayed through the
//!   trace module so it can be inspected event by event.
//!
//! Soundness notes: the untimed semantics over-approximates partial
//! synchrony, so a clean exhaustive pass covers every delivery timing
//! within the step/timer bounds; truncated states mark the verdict
//! incomplete and are reported. Liveness is out of scope — SCP's
//! termination needs timing assumptions by design.
//!
//! # Example
//!
//! The Theorem-2 pathology, found mechanically: two disjoint 2-cliques
//! build slices locally, and every maximal schedule splits the decision —
//! here bounded to 20 branching steps (deep enough for the proof), the
//! explorer finds it and renders the canonical minimal counterexample
//! (run unbounded, e.g. `max_steps: 48` as in `campaigns/explore.toml`,
//! the same scenario is fully exhausted: 20 880 states, 3 240 violating).
//!
//! ```
//! use scup_harness::scenario::{ExploreSpec, ProtocolSpec, Scenario, TopologySpec};
//! use scup_harness::AdversaryRegistry;
//! use scup_mc::campaign::explore_scenario;
//! use stellar_cup::attempts::LocalSliceStrategy;
//!
//! let scenario = Scenario {
//!     name: "split-quorums".into(),
//!     topology: TopologySpec::Clustered {
//!         clusters: 2,
//!         cluster_size: 2,
//!         bridges: 0,
//!         intra_extra_prob: 0.0,
//!         inter_extra_prob: 0.0,
//!     },
//!     f: 0,
//!     protocol: ProtocolSpec::StellarLocal(LocalSliceStrategy::SurviveF),
//!     inputs: Some(vec![1, 1, 2, 2]),
//!     explore: ExploreSpec {
//!         max_steps: 20,
//!         timer_budget: 0,
//!         ..Default::default()
//!     },
//!     // A seeded counterexample: the scenario passes iff agreement breaks.
//!     expect_violation: true,
//!     ..Scenario::default()
//! };
//! let record = explore_scenario(&scenario, 2, &AdversaryRegistry::builtin());
//! assert!(record.violating > 0, "agreement breaks within the bound");
//! assert!(record.passed, "…which is what the exhibit expects");
//! let cex = record.violation.expect("minimal counterexample");
//! assert_eq!(cex.depth, 16);
//! assert!(cex.violations[0].starts_with("agreement:"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod campaign;
pub mod explorer;
pub mod reduce;
pub mod report;
pub mod visited;

pub use build::{Driver, Explored, Setup};
pub use campaign::{
    explore_scenario, explore_scenario_obs, run_explore_campaign, run_explore_campaign_obs,
    summary, ObsConfig,
};
pub use explorer::{Class, Engine};
pub use reduce::Symmetry;
pub use report::{CexReport, ExploreObs, ExploreRecord, ExploreReport, PhaseRow};
pub use visited::{FpEntry, FpTable, Recorded};
