//! Canonical fingerprint helpers shared by the node and voting layers.
//!
//! Exploration hashes every actor once per visited state. The two big
//! per-node collections — the pledge table and the slice registry — only
//! ever *grow* (or overwrite one key), so instead of re-walking them per
//! hash, [`VoteTracker`](crate::voting::VoteTracker) and
//! [`QuorumCheck`](crate::voting::QuorumCheck) maintain **XOR multiset
//! digests**: each entry — one `(origin, statement, accept)` pledge, one
//! `(process, slices)` claim — contributes a well-mixed 128-bit value,
//! combined by XOR. Inserting XORs the entry in; overwriting XORs the old
//! entry out and the new one in. XOR is order-independent, so the digest
//! is a canonical function of the set's *contents* — exactly what a state
//! fingerprint needs — at O(1) per mutation and O(1) per state hash
//! instead of O(entries). It is also trivially re-computable under a
//! process-id renaming, which the model checker's symmetry reduction
//! exploits (no re-sorting step: rename each entry, XOR).
//!
//! Every helper takes the renaming as an `Option<&Perm>`, so the plain
//! and the renamed fingerprint of a value are one body and cannot drift:
//! a field hashed in one and forgotten in the other would break the
//! symmetry reduction silently.

use scup_fbqs::SliceFamily;
use scup_graph::{ProcessId, ProcessSet};
use scup_sim::{Perm, StateHasher};

use crate::statement::Statement;

/// `id` renamed through `perm` when one is given.
pub(crate) fn renamed(id: ProcessId, perm: Option<&Perm>) -> ProcessId {
    perm.map_or(id, |p| p.apply(id))
}

/// Feeds `s`, with every member renamed through `perm` when one is given.
pub(crate) fn hash_set(h: &mut StateHasher, s: &ProcessSet, perm: Option<&Perm>) {
    match perm {
        None => h.write_set(s),
        Some(p) => h.write_set_perm(s, p),
    }
}

/// Feeds a canonical fingerprint of a slice family into `h` (exploration
/// state hashing) — of the renamed family when `perm` is given (slice
/// order preserved; set words re-normalized by the renamed-set
/// construction).
pub(crate) fn hash_family(h: &mut StateHasher, family: &SliceFamily, perm: Option<&Perm>) {
    match family {
        SliceFamily::Explicit(slices) => {
            h.write_u8(1);
            h.write_u64(slices.len() as u64);
            for s in slices {
                hash_set(h, s, perm);
            }
        }
        SliceFamily::AllSubsets { of, size } => {
            h.write_u8(2);
            hash_set(h, of, perm);
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

/// The digest contribution of one `(process, family)` registry entry —
/// of the renamed entry `(perm(i), perm(family))` when `perm` is given.
pub(crate) fn family_entry_digest(i: ProcessId, family: &SliceFamily, perm: Option<&Perm>) -> u128 {
    let mut h = StateHasher::new();
    h.write_u32(renamed(i, perm).as_u32());
    hash_family(&mut h, family, perm);
    h.finish()
}

/// The digest contribution of one `(origin, statement, accept)` pledge —
/// with the origin renamed when `perm` is given.
pub(crate) fn pledge_digest(
    origin: ProcessId,
    stmt: &Statement,
    accept: bool,
    perm: Option<&Perm>,
) -> u128 {
    let mut h = StateHasher::new();
    h.write_u32(renamed(origin, perm).as_u32());
    hash_statement(&mut h, stmt);
    h.write_bool(accept);
    h.finish()
}
