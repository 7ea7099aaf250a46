//! Knowledge-connectivity graphs for the CUP and Stellar models.
//!
//! This crate implements the graph-theoretic substrate of
//! *"On the Minimal Knowledge Required for Solving Stellar Consensus"*
//! (Vassantlal, Heydari, Bessani — ICDCS 2023):
//!
//! - [`ProcessId`] / [`ProcessSet`]: process identifiers and fast bitset
//!   process sets used by every other crate in the workspace;
//! - [`DiGraph`]: directed graphs with set-valued adjacency, supporting the
//!   *knowledge connectivity graph* `G_di` of Definition 5;
//! - [`scc`]: Tarjan strongly connected components and the condensation DAG;
//! - [`sink`]: sink components (the `SINK` of Fig. 1);
//! - [`flow`] / [`connectivity`]: Dinic max-flow, Menger-style vertex-disjoint
//!   path counting and `k`-strong-connectivity (footnote 1 of the paper);
//! - [`kosr`]: the `k`-One-Sink-Reducibility participant-detector class
//!   (Definition 6) and safe Byzantine failure patterns (Definition 7);
//! - [`reachability`]: `f`-reachability (Definition 9);
//! - [`generators`]: the paper's Fig. 1 and Fig. 2 graphs, generalized
//!   counterexample families, and seeded random `k`-OSR graphs.
//!
//! # Example
//!
//! ```
//! use scup_graph::{generators, kosr, sink};
//!
//! // The 8-participant knowledge connectivity graph of Fig. 1.
//! let g = generators::fig1();
//! let s = sink::unique_sink(g.graph()).expect("fig. 1 has a unique sink");
//! // Paper labels 5,6,7,8 are 0-based ids 4,5,6,7.
//! assert_eq!(s, scup_graph::ProcessSet::from_ids([4, 5, 6, 7]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digraph;
mod error;
mod id;
mod knowledge;
mod set;

pub mod connectivity;
pub mod flow;
pub mod generators;
pub mod kosr;
pub mod reachability;
pub mod scc;
pub mod sink;
pub mod traversal;

pub use digraph::DiGraph;
pub use error::GraphError;
pub use id::ProcessId;
pub use knowledge::KnowledgeGraph;
pub use set::ProcessSet;
