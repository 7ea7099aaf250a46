//! Deterministic discrete-event simulation of partially synchronous message
//! passing with a static Byzantine adversary.
//!
//! This crate is the execution substrate for every protocol in the
//! workspace (the `SINK` algorithm, reachable-reliable broadcast, BFT-CUP
//! consensus, SCP). It models the system of Section III-A of the paper:
//!
//! - **partial synchrony** (Dwork–Lynch–Stockmeyer): before an unknown
//!   global stabilization time `GST` message delays are adversarial but
//!   finite; at and after `GST` every message is delivered within a bound
//!   `Δ` ([`NetworkConfig`]);
//! - **authenticated reliable channels**: the simulator stamps the true
//!   sender on every delivery (no spoofing) and never drops messages;
//! - **knowledge-gated addressing**: process `i` may send to `j` only if
//!   `i` knows `j`; receiving a message teaches the receiver the sender
//!   (Section III-A). Initial knowledge comes from a
//!   [`KnowledgeGraph`](scup_graph::KnowledgeGraph);
//! - **static Byzantine adversary**: faulty processes are just adversarial
//!   [`Actor`] implementations, fixed before the run starts; the crate
//!   ships a [`SilentActor`](adversary::SilentActor) (crash-like behaviour,
//!   the one Lemma 2 relies on), with protocol-specific equivocators living
//!   next to their protocols.
//!
//! Runs are reproducible: all nondeterminism flows from the seed in
//! [`NetworkConfig`].
//!
//! A run keeps **one event log**, a [`scup_obs::causal::CausalGraph`]:
//! with [`Simulation::enable_causal`] (or [`ExploreSim::enable_causal`])
//! every send, delivery, drop, duplicate, timer, crash, recovery, join
//! and leave is recorded once, in order, each send with its payload
//! rendered and each delivery linked to the send that caused it.
//! Timelines, counterexample schedules and causal forensics are views of
//! that log. It is off by default, and off it costs one branch per event.
//!
//! # Example
//!
//! ```
//! use scup_sim::{Actor, Context, NetworkConfig, Simulation, SimMessage};
//! use scup_graph::{generators, ProcessId};
//!
//! #[derive(Clone, Debug, PartialEq)]
//! struct Ping(u32);
//! impl SimMessage for Ping {}
//!
//! /// Floods a counter to every known process once.
//! struct Flooder { got: Vec<u32> }
//! impl Actor<Ping> for Flooder {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         for j in ctx.known().clone().iter() {
//!             ctx.send(j, Ping(ctx.self_id().as_u32()));
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Ping>, _from: ProcessId, msg: Ping) {
//!         self.got.push(msg.0);
//!     }
//! }
//!
//! let kg = generators::fig1();
//! let mut sim = Simulation::new(kg, NetworkConfig::default());
//! for _ in 0..8 {
//!     sim.add_actor(Box::new(Flooder { got: Vec::new() }));
//! }
//! let report = sim.run_until_quiet(1_000_000);
//! assert_eq!(report.messages_delivered, 18); // one per knowledge edge
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod metrics;
mod network;
mod queue;
mod runner;
mod time;

pub mod adversary;
pub mod churn;
pub mod explore;
pub mod faults;
pub mod retransmit;

pub use actor::{Actor, Context, SimMessage};
pub use churn::{ChurnPlan, JoinEvent, LeaveEvent};
pub use explore::{ExploreEvent, ExploreSim, Perm, SimState, StateHasher};
pub use faults::{
    CrashFault, DelayFault, DupFault, FaultPlan, Journal, JournalRecord, LossFault, MemJournal,
    Partition,
};
pub use metrics::{bucket_bounds, bucket_of, ProcessStats, SimReport, HIST_BUCKETS};
pub use network::NetworkConfig;
pub use retransmit::{Backoff, RetransmitConfig, Retransmitter, RETRANSMIT_TAG};
pub use runner::{Simulation, MAX_PROCESSES};
pub use time::SimTime;
