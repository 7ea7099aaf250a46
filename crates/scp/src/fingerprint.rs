//! Canonical fingerprint helpers shared by the node and voting layers.
//!
//! Exploration hashes every actor once per visited state. The two big
//! per-node collections — the envelope dedup set and the slice registry —
//! only ever *grow* (or overwrite one key), so instead of re-walking them
//! per hash, the node's dedup set (`crate::seen`) and
//! [`QuorumCheck`](crate::voting::QuorumCheck) maintain **XOR multiset digests**: each entry contributes a well-mixed
//! 128-bit value, combined by XOR. Inserting XORs the entry in;
//! overwriting XORs the old entry out and the new one in. XOR is
//! order-independent, so the digest is a canonical function of the set's
//! *contents* — exactly what a state fingerprint needs — at O(1) per
//! mutation and O(1) per state hash instead of O(entries). It is also
//! trivially re-computable under a process-id renaming, which the model
//! checker's symmetry reduction exploits (no re-sorting step: rename each
//! entry, XOR).

use scup_fbqs::SliceFamily;
use scup_graph::ProcessId;
use scup_sim::{Perm, StateHasher};

use crate::statement::Statement;

/// Feeds a canonical fingerprint of a slice family into `h` (exploration
/// state hashing).
pub(crate) fn hash_family(h: &mut StateHasher, family: &SliceFamily) {
    match family {
        SliceFamily::Explicit(slices) => {
            h.write_u8(1);
            h.write_u64(slices.len() as u64);
            for s in slices {
                h.write_set(s);
            }
        }
        SliceFamily::AllSubsets { of, size } => {
            h.write_u8(2);
            h.write_set(of);
            h.write_u64(*size as u64);
        }
    }
}

/// Feeds a canonical fingerprint of a statement into `h`.
pub(crate) fn hash_statement(h: &mut StateHasher, stmt: &Statement) {
    match stmt {
        Statement::Nominate(v) => {
            h.write_u8(1);
            h.write_u64(*v);
        }
        Statement::Prepare(n, v) => {
            h.write_u8(2);
            h.write_u64(*n);
            h.write_u64(*v);
        }
        Statement::Commit(n, v) => {
            h.write_u8(3);
            h.write_u64(*n);
            h.write_u64(*v);
        }
    }
}

/// The digest contribution of one `(process, family)` registry entry.
pub(crate) fn family_entry_digest(i: ProcessId, family: &SliceFamily) -> u128 {
    let mut h = StateHasher::new();
    h.write_u32(i.as_u32());
    hash_family(&mut h, family);
    h.finish()
}

/// Feeds the fingerprint of `family` with every member id renamed through
/// `perm` — identical to `hash_family` of the renamed family (slice order
/// preserved; set words re-normalized by the renamed-set construction).
pub(crate) fn hash_family_perm(h: &mut StateHasher, family: &SliceFamily, perm: &Perm) {
    match family {
        SliceFamily::Explicit(slices) => {
            h.write_u8(1);
            h.write_u64(slices.len() as u64);
            for s in slices {
                h.write_set_perm(s, perm);
            }
        }
        SliceFamily::AllSubsets { of, size } => {
            h.write_u8(2);
            h.write_set_perm(of, perm);
            h.write_u64(*size as u64);
        }
    }
}

/// [`family_entry_digest`] of the renamed entry `(perm(i), perm(family))`.
pub(crate) fn family_entry_digest_perm(i: ProcessId, family: &SliceFamily, perm: &Perm) -> u128 {
    let mut h = StateHasher::new();
    h.write_u32(perm.apply(i).as_u32());
    hash_family_perm(&mut h, family, perm);
    h.finish()
}
