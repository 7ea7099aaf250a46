//! The Stellar Consensus Protocol (SCP) over federated Byzantine quorum
//! systems.
//!
//! SCP is the protocol the paper's analysis targets: given per-process
//! quorum slices, it solves consensus among the correct processes exactly
//! when they form a single maximal consensus cluster (Definitions 2–4,
//! \[16\]). This crate implements the protocol at the level the paper's
//! results speak to:
//!
//! - [`voting`]: **federated voting** — the vote → accept → confirm cascade
//!   where *accept* requires a quorum of votes through the voter's slices
//!   or a v-blocking set of accepts, and *confirm* requires a quorum of
//!   accepts. Every message carries the sender's declared slices
//!   (Section III-D: "each process `i` attaches `S_i` to all of the
//!   messages it sends"), and quorum checks run Algorithm 1 against those
//!   attached slices;
//! - [`statement`]: the nomination and ballot statements federated voting
//!   ranges over;
//! - [`node`]: the SCP node — echo-based nomination to converge on a
//!   candidate value, then a ballot protocol (prepare → commit →
//!   externalize) with per-ballot timeouts for partial synchrony, plus
//!   Byzantine node implementations (equivocating votes, forged slices).
//!
//! ## Faithfulness notes
//!
//! The ballot protocol is a streamlined rendering of Mazières'15 /
//! \[13\]: it keeps the federated-voting semantics, the prepare/commit
//! cascade, value locking across ballots and timeout-driven ballot bumps,
//! but drops the `(p, p', c, h)` abort bookkeeping of the production
//! wire format — the safety/liveness structure the paper's theorems rely
//! on (quorum intersection and availability of the consensus cluster) is
//! exactly preserved. See DESIGN.md for the substitution table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fingerprint;
pub mod node;
pub mod statement;
mod table;
pub mod voting;

pub use node::{journal_contradictions, Envelope, NodeStats, ScpConfig, ScpMsg, ScpNode};
pub use statement::{Statement, Value};
pub use voting::{QuorumCheck, VoteLevel, VoteTracker};
