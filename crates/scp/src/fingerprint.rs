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
//! The renaming rides in the [`StateHasher`]: every helper writes process
//! ids through `write_id` / `write_set`, so the plain and the renamed
//! fingerprint of a value are one body. The two entry digests take the
//! (empty) hasher to fill — `StateHasher::new()` for the incrementally
//! kept digests, `StateHasher::with_renaming(π)` for the per-entry recompute.

use scup_fbqs::SliceFamily;
use scup_graph::ProcessId;
use scup_sim::StateHasher;

use crate::statement::Statement;

/// Feeds a canonical fingerprint of a slice family into `h` (exploration
/// state hashing), slice order preserved.
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

/// The digest contribution of one `(process, family)` registry entry,
/// hashed into the empty `h`.
pub(crate) fn family_entry_digest(mut h: StateHasher, i: ProcessId, family: &SliceFamily) -> u128 {
    h.write_id(i);
    hash_family(&mut h, family);
    h.finish()
}

/// The digest contribution of one `(origin, statement, accept)` pledge,
/// hashed into the empty `h`.
pub(crate) fn pledge_digest(
    mut h: StateHasher,
    origin: ProcessId,
    stmt: &Statement,
    accept: bool,
) -> u128 {
    h.write_id(origin);
    hash_statement(&mut h, stmt);
    h.write_bool(accept);
    h.finish()
}
