//! Facade crate; see the workspace member crates for the actual library.
//! The package's binary, `scup-campaign` (`src/bin/scup_campaign.rs`), is
//! the operator surface.
pub use scup_cup as cup;
pub use scup_fbqs as fbqs;
pub use scup_graph as graph;
pub use scup_harness as harness;
pub use scup_mc as mc;
pub use scup_scp as scp;
pub use scup_sim as sim;
pub use stellar_cup as core;
