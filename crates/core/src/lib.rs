//! **stellar-cup** — the primary contribution of *"On the Minimal Knowledge
//! Required for Solving Stellar Consensus"* (ICDCS 2023), as a library.
//!
//! The paper asks whether Stellar's SCP can solve consensus when each
//! process starts with only the knowledge the CUP model proves minimal: its
//! participant detector output `PD_i` and the fault threshold `f`. The
//! answer is *no* (Theorem 2) — locally built slices can produce disjoint
//! quorums — *unless* the knowledge is augmented by a **sink detector**
//! (Definition 8), after which Algorithm 2 builds slices that make all
//! correct processes one maximal consensus cluster (Theorems 3–5).
//!
//! The crate mirrors that structure:
//!
//! - [`attempts`] — attempt 1: local slice construction from `PD_i` and
//!   `f` alone (Lemmas 1–2), which [`theorems::theorem2_violation`] shows
//!   breaks quorum intersection;
//! - [`oracle`] — the [`oracle::SinkDetector`] abstraction
//!   (Definition 8) with a graph-oracle
//!   [`oracle::PerfectSinkDetector`] specification;
//! - [`sink_detector`] — the distributed implementation (Algorithm 3 +
//!   Theorem 6) on the simulator, composing the `SINK` algorithm and
//!   `GET_SINK` dissemination (direct or over reachable-reliable
//!   broadcast);
//! - [`build_slices`](mod@build_slices) — Algorithm 2: slices from the sink
//!   detector output;
//! - [`theorems`] — every theorem of the paper as an executable check;
//! - [`roster`] — who stands at process `i`: one protocol description
//!   per wire type and the one function that seats correct actors and
//!   Byzantine behaviours, for the sampler and the explorer alike;
//! - [`consensus`] — the pipeline's phases: discover the sink, build
//!   slices, run SCP — the knowledge-increasing phase the paper's
//!   conclusion calls for — and the BFT-CUP baseline through the same
//!   sampled phase runner (`scup_harness::protocol` composes them);
//! - [`report`] — operator-facing one-call verification: *can this
//!   knowledge graph run Stellar with minimal knowledge plus a sink
//!   detector?*
//!
//! # Quickstart
//!
//! ```
//! use scup_graph::generators;
//! use stellar_cup::consensus::{self, EndToEndConfig};
//!
//! // A random Byzantine-safe knowledge graph with f = 1.
//! use rand::{rngs::StdRng, SeedableRng};
//! let mut rng = StdRng::seed_from_u64(7);
//! let (kg, faulty) = generators::random_byzantine_safe(5, 3, 1, &mut rng);
//! let config = EndToEndConfig::default();
//!
//! // Sink detection (Algorithm 3), slices (Algorithm 2), then SCP.
//! let (detections, _) = consensus::run_sink_detection(&kg, 1, &faulty, &config);
//! let slices = consensus::slices_from_detections(&detections, 1);
//! let inputs = consensus::default_inputs(kg.n());
//! let scp = consensus::run_scp_with_slices_observed(&kg, &faulty, slices, &inputs, &config);
//!
//! let mut correct = kg.processes().filter(|i| !faulty.contains(*i));
//! let first = scp.decisions[correct.next().unwrap().index()];
//! assert!(first.is_some(), "correct processes decide");
//! assert!(correct.all(|i| scp.decisions[i.index()] == first), "…the same value");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attempts;
pub mod build_slices;
pub mod consensus;
pub mod explore_stack;
pub mod oracle;
pub mod report;
pub mod roster;
pub mod sink_detector;
pub mod theorems;

pub use build_slices::build_slices;
pub use oracle::{PerfectSinkDetector, SinkDetection, SinkDetector};
