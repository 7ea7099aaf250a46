//! Federated Byzantine Quorum Systems (FBQS) for the Stellar model.
//!
//! In the Stellar model (Section III-D of the paper) each process `i` starts
//! with a set of **quorum slices** `S_i`; a set `Q` is a **quorum** when
//! every member has at least one slice contained in `Q` (Definition 1,
//! decided by Algorithm 1 / [`quorum::is_quorum`]). Consensus is solvable
//! when the correct processes form a single maximal **consensus cluster**
//! (Definitions 2–4), i.e. quorums pairwise intersect in correct processes
//! and every correct process owns an all-correct quorum.
//!
//! This crate provides:
//!
//! - [`SliceFamily`]: explicit or symbolic (`all subsets of V of size m`)
//!   slice sets — the symbolic form is what Algorithm 2 of the paper
//!   produces, kept symbolic so quorum checks stay polynomial;
//! - [`Fbqs`]: a system assigning a slice family to every process, which
//!   compiles its [`QuorumEngine`] once when it is built;
//! - [`engine`]: [`QuorumEngine`] — packed slice bitmask rows, a worklist
//!   closure, v-blocking tests and reusable scratch buffers; every analysis
//!   below runs on it, and SCP's federated voting fills one row by row;
//! - [`quorum`]: Algorithm 1, quorum closure (greatest fixed point),
//!   minimal-quorum search and bounded enumeration;
//! - [`intertwined`]: Definition 2 and the threshold form `|Q ∩ Q'| > f` of
//!   Section III-F;
//! - [`cluster`]: consensus clusters and maximal-cluster computation;
//! - [`paper`]: the hand-crafted Fig. 1 slice assignment from Section III-D.
//!
//! The naive per-subset predicates live only in `tests/reference.rs`, the
//! reference the engine is tested against.
//!
//! # Example
//!
//! ```
//! use scup_fbqs::{paper, quorum};
//! use scup_graph::ProcessSet;
//!
//! let sys = paper::fig1_system();
//! // The paper: Q5 = Q6 = Q7 = {5, 6, 7} (0-based {4, 5, 6}).
//! let q = ProcessSet::from_ids([4, 5, 6]);
//! assert!(quorum::is_quorum(&sys, &q));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod slice;
mod system;

pub mod cluster;
pub mod engine;
pub mod intertwined;
pub mod paper;
pub mod quorum;

// The unit tests check the engine against the naive predicates of
// `tests/reference.rs`, which name this crate by its package name.
#[cfg(test)]
extern crate self as scup_fbqs;
#[cfg(test)]
#[allow(dead_code)] // each suite uses a part of the reference
#[path = "../tests/reference.rs"]
mod reference;

pub use engine::{EngineScratch, QuorumEngine};
pub use slice::SliceFamily;
pub use system::Fbqs;
