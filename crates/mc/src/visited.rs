//! The compact visited table behind the uniform-cost explorer: an
//! open-addressed hash table keyed by the 128-bit canonical state
//! fingerprint, with the per-state metadata (minimal depth, class, orbit
//! flag) packed into one word beside the key.
//!
//! The uniform-cost frontier stores exactly one fixed-size record per
//! canonical state, so a flat probe table beats a `HashMap` on both
//! memory (32 bytes per slot against ~96 per entry) and lookup locality
//! — the lever that lets `max_states` valves rise into the millions.
//!
//! Layout per slot: the `u128` fingerprint, a packed meta word
//! (occupancy sentinel, orbit flag, class tag, depth) and the decided
//! value (meaningful only under the `Decided` tag). Probing is linear;
//! the table grows by doubling tiers at 3/4 load, so capacity — and
//! therefore every capacity-derived report field — is a pure function
//! of the number of distinct fingerprints inserted, independent of
//! insertion order and worker count.

use crate::explorer::Class;

/// One visited canonical state, as stored per slot: minimal depth,
/// classification at that depth, and the orbit-nontriviality flag (see
/// [`crate::reduce::Symmetry::canonical_hash`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpEntry {
    /// Minimal branching depth at which the state was reached.
    pub depth: u32,
    /// Classification at the minimal depth.
    pub class: Class,
    /// The state's orbit under the symmetry group is nontrivial.
    pub symmetric: bool,
}

/// Outcome of [`FpTable::record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recorded {
    /// First sighting: the entry was inserted.
    New,
    /// The fingerprint was known, but strictly deeper — depth and class
    /// were corrected downward (what merging worker tables does; never
    /// taken during depth-ordered expansion).
    Shallower,
    /// The fingerprint was known at an equal or smaller depth; nothing
    /// changed.
    Known,
}

const OCCUPIED: u64 = 1 << 63;
const SYMMETRIC: u64 = 1 << 62;
const TAG_SHIFT: u32 = 32;
const TAG_MASK: u64 = 0x7 << TAG_SHIFT;
const DEPTH_MASK: u64 = u32::MAX as u64;

const TAG_EXPANDED: u64 = 0;
const TAG_TRUNCATED: u64 = 1;
const TAG_VIOLATING: u64 = 2;
const TAG_QUIESCENT: u64 = 3;
const TAG_DECIDED: u64 = 4;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u128,
    meta: u64,
    value: u64,
}

const EMPTY: Slot = Slot {
    key: 0,
    meta: 0,
    value: 0,
};

fn pack(entry: FpEntry) -> (u64, u64) {
    let (tag, value) = match entry.class {
        Class::Expanded => (TAG_EXPANDED, 0),
        Class::Truncated => (TAG_TRUNCATED, 0),
        Class::Violating => (TAG_VIOLATING, 0),
        Class::QuiescentUndecided => (TAG_QUIESCENT, 0),
        Class::Decided(v) => (TAG_DECIDED, v),
    };
    let meta = OCCUPIED
        | if entry.symmetric { SYMMETRIC } else { 0 }
        | (tag << TAG_SHIFT)
        | entry.depth as u64;
    (meta, value)
}

fn unpack(meta: u64, value: u64) -> FpEntry {
    let class = match (meta & TAG_MASK) >> TAG_SHIFT {
        TAG_EXPANDED => Class::Expanded,
        TAG_TRUNCATED => Class::Truncated,
        TAG_VIOLATING => Class::Violating,
        TAG_QUIESCENT => Class::QuiescentUndecided,
        TAG_DECIDED => Class::Decided(value),
        _ => unreachable!("invalid class tag"),
    };
    FpEntry {
        depth: (meta & DEPTH_MASK) as u32,
        class,
        symmetric: meta & SYMMETRIC != 0,
    }
}

/// The open-addressed fingerprint table. See the module docs.
#[derive(Debug, Clone)]
pub struct FpTable {
    slots: Box<[Slot]>,
    len: usize,
}

impl Default for FpTable {
    fn default() -> Self {
        FpTable::new()
    }
}

impl FpTable {
    /// Bytes per slot — the constant behind the peak-memory estimate.
    pub const SLOT_BYTES: u64 = std::mem::size_of::<Slot>() as u64;

    /// Smallest tier: 1024 slots (32 KiB).
    const MIN_SLOTS: usize = 1 << 10;

    /// An empty table at the smallest tier.
    pub fn new() -> Self {
        FpTable {
            slots: vec![EMPTY; Self::MIN_SLOTS].into_boxed_slice(),
            len: 0,
        }
    }

    /// Number of distinct fingerprints recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no fingerprint has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot count. A pure function of [`FpTable::len`] (tiers
    /// double at 3/4 load), so it is identical across worker partitions
    /// once tables are merged.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn probe(&self, key: u128) -> usize {
        let mask = self.slots.len() - 1;
        let mut idx = key as u64 as usize & mask;
        loop {
            let slot = &self.slots[idx];
            if slot.meta & OCCUPIED == 0 || slot.key == key {
                return idx;
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Looks up a fingerprint.
    pub fn get(&self, key: u128) -> Option<FpEntry> {
        let slot = &self.slots[self.probe(key)];
        (slot.meta & OCCUPIED != 0).then(|| unpack(slot.meta, slot.value))
    }

    /// Records `entry` under `key` with min-depth semantics: inserts on
    /// first sighting, corrects depth and class downward on a strictly
    /// shallower revisit, and leaves equal-or-deeper revisits untouched.
    /// The orbit flag is a pure function of the canonical state, so a
    /// revisit must agree on it (debug-asserted), as must the class at
    /// equal depth.
    pub fn record(&mut self, key: u128, entry: FpEntry) -> Recorded {
        let idx = self.probe(key);
        let slot = &mut self.slots[idx];
        if slot.meta & OCCUPIED == 0 {
            let (meta, value) = pack(entry);
            *slot = Slot { key, meta, value };
            self.len += 1;
            self.maybe_grow();
            return Recorded::New;
        }
        let existing = unpack(slot.meta, slot.value);
        debug_assert_eq!(
            existing.symmetric, entry.symmetric,
            "orbit flag is a function of the canonical state"
        );
        if entry.depth < existing.depth {
            let (meta, value) = pack(entry);
            slot.meta = meta;
            slot.value = value;
            Recorded::Shallower
        } else {
            if entry.depth == existing.depth {
                debug_assert_eq!(
                    existing.class, entry.class,
                    "state classification must be a function of (state, depth)"
                );
            }
            Recorded::Known
        }
    }

    fn maybe_grow(&mut self) {
        if self.len * 4 <= self.slots.len() * 3 {
            return;
        }
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap].into_boxed_slice());
        let mask = new_cap - 1;
        for slot in old.iter().filter(|s| s.meta & OCCUPIED != 0) {
            let mut idx = slot.key as u64 as usize & mask;
            while self.slots[idx].meta & OCCUPIED != 0 {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = *slot;
        }
    }

    /// Iterates the recorded `(fingerprint, entry)` pairs in slot order.
    /// Callers must aggregate commutatively — slot order depends on
    /// insertion history.
    pub fn iter(&self) -> impl Iterator<Item = (u128, FpEntry)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.meta & OCCUPIED != 0)
            .map(|s| (s.key, unpack(s.meta, s.value)))
    }

    /// Merges another table in by minimal depth (commutative and
    /// associative — the worker count cannot change the result).
    pub fn merge(&mut self, other: &FpTable) {
        for (key, entry) in other.iter() {
            self.record(key, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(depth: u32, class: Class, symmetric: bool) -> FpEntry {
        FpEntry {
            depth,
            class,
            symmetric,
        }
    }

    #[test]
    fn record_keeps_min_depth_and_round_trips_every_class() {
        let mut t = FpTable::new();
        let classes = [
            Class::Expanded,
            Class::Truncated,
            Class::Violating,
            Class::QuiescentUndecided,
            Class::Decided(u64::MAX - 1),
        ];
        for (i, class) in classes.iter().enumerate() {
            let key = (i as u128 + 1) << 64 | 0xdead_beef;
            assert_eq!(t.record(key, e(7, *class, i % 2 == 0)), Recorded::New);
            assert_eq!(t.get(key), Some(e(7, *class, i % 2 == 0)));
        }
        assert_eq!(t.len(), classes.len());
        // Deeper revisit: untouched. Shallower: corrected.
        let key = 1u128 << 64 | 0xdead_beef;
        assert_eq!(t.record(key, e(9, Class::Expanded, true)), Recorded::Known);
        assert_eq!(
            t.record(key, e(3, Class::Expanded, true)),
            Recorded::Shallower
        );
        assert_eq!(t.get(key), Some(e(3, Class::Expanded, true)));
        assert_eq!(t.get(0x1234), None);
    }

    #[test]
    fn growth_is_a_pure_function_of_len() {
        // Insert the same key set in two different orders; len and
        // capacity must agree (the bit-identical report contract leans
        // on this).
        let keys: Vec<u128> = (0..5000u128)
            .map(|i| i.wrapping_mul(0x9e3779b9) | 1)
            .collect();
        let mut a = FpTable::new();
        let mut b = FpTable::new();
        for &k in &keys {
            a.record(k, e(1, Class::Expanded, false));
        }
        for &k in keys.iter().rev() {
            b.record(k, e(1, Class::Expanded, false));
        }
        assert_eq!(a.len(), b.len());
        assert_eq!(a.capacity(), b.capacity());
        assert!(a.capacity() * 3 >= a.len() * 4, "under 3/4 load");
    }

    #[test]
    fn merge_is_min_depth_and_order_independent() {
        let mut a = FpTable::new();
        let mut b = FpTable::new();
        a.record(10, e(4, Class::Expanded, false));
        a.record(20, e(2, Class::Decided(3), false));
        b.record(10, e(2, Class::Expanded, false));
        b.record(30, e(1, Class::Violating, false));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let collect = |t: &FpTable| {
            let mut v: Vec<_> = t.iter().collect();
            v.sort_by_key(|(k, _)| *k);
            v
        };
        assert_eq!(collect(&ab), collect(&ba));
        assert_eq!(ab.get(10).unwrap().depth, 2);
        assert_eq!(ab.len(), 3);
    }
}
