//! A replicated ledger on top of the pipeline — the paper's future-work
//! direction ("if the BFT-CUP approach can be used for implementing a
//! permissionless blockchain") prototyped.
//!
//! The knowledge-increasing phase (Algorithm 3) runs **once**; the
//! resulting Algorithm-2 slices are then reused across a sequence of SCP
//! *slots*, each externalizing one block payload. Every correct process
//! assembles the same hash-chained ledger.
//!
//! This is a single-configuration prototype: Π is static during the run
//! (the paper's model assumption) and each slot is an independent consensus
//! instance, like Stellar's slot-per-ledger design.

use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};
use scup_scp::Value;

use crate::consensus::{
    run_scp_with_slices, run_sink_detection, slices_from_detections, EndToEndConfig,
};

/// A block of the replicated ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The slot (height) of the block.
    pub slot: u64,
    /// The externalized payload of the slot.
    pub value: Value,
    /// Hash of the parent block (0 for the genesis parent).
    pub parent: u64,
    /// This block's hash.
    pub hash: u64,
}

/// FNV-1a over the block contents — a stand-in for a cryptographic hash
/// (the simulation carries no real adversarial hash-breaking power).
fn block_hash(slot: u64, value: Value, parent: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [slot, value, parent] {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

impl Block {
    /// Creates the block for `slot` extending `parent`.
    pub fn new(slot: u64, value: Value, parent: u64) -> Self {
        Block {
            slot,
            value,
            parent,
            hash: block_hash(slot, value, parent),
        }
    }
}

/// The outcome of a multi-slot ledger run.
#[derive(Debug, Clone)]
pub struct LedgerOutcome {
    /// Per-process chains (`None` for faulty processes or processes that
    /// missed a slot decision).
    pub chains: Vec<Option<Vec<Block>>>,
    /// The faulty processes.
    pub faulty: ProcessSet,
    /// Total messages across the detection phase and all slots.
    pub total_messages: u64,
}

impl LedgerOutcome {
    /// All correct processes hold identical complete chains of the expected
    /// length.
    pub fn consistent(&self, slots: u64) -> bool {
        let mut reference: Option<&Vec<Block>> = None;
        for (i, chain) in self.chains.iter().enumerate() {
            if self.faulty.contains(ProcessId::new(i as u32)) {
                continue;
            }
            match chain {
                None => return false,
                Some(c) => {
                    if c.len() != slots as usize {
                        return false;
                    }
                    match reference {
                        None => reference = Some(c),
                        Some(r) => {
                            if r != c {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        reference.is_some()
    }

    /// The agreed chain, if [`LedgerOutcome::consistent`] holds.
    pub fn chain(&self) -> Option<&[Block]> {
        self.chains
            .iter()
            .enumerate()
            .find(|(i, c)| !self.faulty.contains(ProcessId::new(*i as u32)) && c.is_some())
            .and_then(|(_, c)| c.as_deref())
    }
}

/// Validates the hash chaining of a ledger.
pub fn validate_chain(chain: &[Block]) -> bool {
    let mut parent = 0u64;
    for (idx, block) in chain.iter().enumerate() {
        if block.slot != idx as u64
            || block.parent != parent
            || block.hash != block_hash(block.slot, block.value, block.parent)
        {
            return false;
        }
        parent = block.hash;
    }
    true
}

/// Runs the knowledge-increasing phase once, then `slots` SCP instances,
/// assembling a chain per correct process. Slot `s` proposes
/// `inputs[i] + 1000 * s` at process `i` (distinct payloads per slot).
pub fn run_ledger(
    kg: &KnowledgeGraph,
    f: usize,
    faulty: &ProcessSet,
    slots: u64,
    config: &EndToEndConfig,
) -> LedgerOutcome {
    let (detections, sd_report) = run_sink_detection(kg, f, faulty, config);
    let slices = slices_from_detections(&detections, f);

    let mut total_messages = sd_report.messages_sent;
    let mut chains: Vec<Option<Vec<Block>>> = kg
        .processes()
        .map(|i| (!faulty.contains(i)).then(Vec::new))
        .collect();

    for slot in 0..slots {
        let inputs: Vec<Value> = (0..kg.n() as u64).map(|i| 100 + i + 1000 * slot).collect();
        let slot_config = EndToEndConfig {
            seed: config.seed ^ (slot << 32),
            ..config.clone()
        };
        let (decisions, report) =
            run_scp_with_slices(kg, faulty, slices.clone(), &inputs, &slot_config);
        total_messages += report.messages_sent;
        for i in kg.processes() {
            let Some(chain) = chains[i.index()].as_mut() else {
                continue;
            };
            match decisions[i.index()] {
                Some(v) => {
                    let parent = chain.last().map_or(0, |b| b.hash);
                    chain.push(Block::new(slot, v, parent));
                }
                None => chains[i.index()] = None,
            }
        }
    }

    LedgerOutcome {
        chains,
        faulty: faulty.clone(),
        total_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scup_graph::generators;

    #[test]
    fn three_slot_ledger_is_consistent() {
        let kg = generators::fig2();
        let faulty = ProcessSet::from_ids([6]);
        let outcome = run_ledger(&kg, 1, &faulty, 3, &EndToEndConfig::default());
        assert!(outcome.consistent(3));
        let chain = outcome.chain().unwrap();
        assert!(validate_chain(chain));
        assert_eq!(chain.len(), 3);
        // Every slot's payload comes from that slot's input space.
        for (s, block) in chain.iter().enumerate() {
            assert!(block.value >= 1000 * s as u64);
        }
    }

    #[test]
    fn chains_link_by_hash() {
        let b0 = Block::new(0, 42, 0);
        let b1 = Block::new(1, 43, b0.hash);
        assert!(validate_chain(&[b0.clone(), b1.clone()]));
        // Corruptions are detected.
        let mut forged = b1.clone();
        forged.value = 99;
        assert!(!validate_chain(&[b0.clone(), forged]));
        let unlinked = Block::new(1, 43, 12345);
        assert!(!validate_chain(&[b0, unlinked]));
    }

    #[test]
    fn ledger_on_random_graph() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let (kg, faulty) = generators::random_byzantine_safe(5, 3, 1, &mut rng);
        let outcome = run_ledger(&kg, 1, &faulty, 2, &EndToEndConfig::default());
        assert!(outcome.consistent(2));
        assert!(validate_chain(outcome.chain().unwrap()));
    }

    #[test]
    fn hash_is_position_sensitive() {
        assert_ne!(block_hash(0, 1, 2), block_hash(0, 2, 1));
        assert_ne!(block_hash(1, 1, 2), block_hash(2, 1, 2));
    }
}
