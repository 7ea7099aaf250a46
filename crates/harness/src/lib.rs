//! **scup-harness** — declarative scenario campaigns for the workspace's
//! consensus protocols.
//!
//! The paper's results are claims over *families* of knowledge graphs and
//! adversaries; this crate makes those families executable at scale:
//!
//! - [`scenario`] — the declarative model: a [`Scenario`]
//!   names a topology family, fault threshold, adversary strategy, fault
//!   placement, protocol, network timing, seed range, and oracle mode;
//!   [`Scenario::default`](scenario::Scenario::default) holds every
//!   default, which code overrides with struct-update syntax and
//!   TOML/JSON campaign files ([`parse`]) key by key, and each mode enum
//!   spells its variants once ([`Named`]);
//! - [`topology`] — deterministic instantiation of the topology families
//!   (the paper's figures, random `k`-OSR / Byzantine-safe graphs, and the
//!   Erdős–Rényi / scale-free / clustered / perturbed families from
//!   [`scup_graph::generators`]);
//! - [`adversary`] — the strategy registry unifying the per-protocol
//!   Byzantine actors (silent, crash, echo, equivocate, forged-slice)
//!   behind one name lookup;
//! - [`system`] — the one `Scenario` → system path: adversary, topology,
//!   fault placement, lowered and validated plans, inputs, run
//!   configuration — shared by the sampler, the forensic re-run, the
//!   Perfetto export and the explorer's setup;
//! - [`protocol`] — runs an instantiated system through its protocol's
//!   phases (the positive Stellar pipeline, the negative local-slices
//!   pipeline, the BFT-CUP baseline), seated by the roster in
//!   [`stellar_cup::roster`];
//! - [`oracle`] — agreement / validity / termination invariant oracles
//!   judged with the `stellar-cup` and `scup-graph` predicates, plus the
//!   structural premise that makes "must this run succeed?" precise;
//! - [`campaign`] — the parallel runner: scenario × seed fan-out across
//!   threads, deterministic per-run results, structured JSON reports;
//! - [`json`] / [`parse`] — the offline JSON/TOML layer ([`json`] is
//!   [`scup_obs::json`], re-exported);
//! - [`perfetto`] — Chrome-trace export of sampled runs (first seed per
//!   scenario, simulator ticks rendered as trace microseconds).
//!
//! # Example
//!
//! ```
//! use scup_harness::campaign::Campaign;
//! use scup_harness::scenario::{FaultPlacement, Scenario};
//!
//! // Fig. 2 with f = 1 is the default system; process 5 fails silently.
//! let campaign = Campaign {
//!     name: "doc".into(),
//!     mode: Default::default(),
//!     threads: 2,
//!     scenarios: vec![Scenario {
//!         name: "fig2".into(),
//!         faults: FaultPlacement::Ids(vec![5]),
//!         seeds: 4,
//!         ..Scenario::default()
//!     }],
//! };
//! let report = campaign.run();
//! assert!(report.all_passed());
//! assert_eq!(report.runs.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod campaign;
pub mod forensics;
pub mod oracle;
pub mod parse;
pub mod perfetto;
pub mod protocol;
pub mod scenario;
pub mod system;
pub mod topology;

pub use scup_obs::json;

pub use adversary::{AdversaryKind, AdversaryRegistry, AdversaryStrategy};
pub use campaign::{Campaign, CampaignMode, CampaignReport, RunRecord};
pub use oracle::InvariantReport;
pub use parse::campaign_from_str;
pub use scenario::{
    ExploreSpec, FaultPlacement, FaultSpec, Named, NetworkSpec, OracleMode, ProtocolSpec, Scenario,
    TopologySpec,
};
pub use system::System;
