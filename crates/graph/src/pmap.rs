//! Persistent (structurally shared) ordered collections for exploration
//! forking.
//!
//! The bounded model checker forks every actor once per visited state. A
//! `BTreeMap`-backed actor pays a full deep copy per fork even though the
//! fork then mutates at most one entry before the next fork. The
//! collections here make the fork/mutate asymmetry explicit:
//!
//! - **`clone` is O(1)** — an `Arc` bump of the chunk spine;
//! - **mutation path-copies** — [`Arc::make_mut`] clones the spine and the
//!   one touched chunk *only when shared*, so an un-forked collection
//!   mutates fully in place (the sampled-simulation path pays nothing),
//!   and a forked one copies `O(chunk)` entries instead of `O(n)`;
//! - **iteration order is the key order** — identical to the `BTreeMap`s
//!   these replace, so canonical state fingerprints are unchanged by the
//!   representation swap (pinned by the state-hash-stability tests).
//!
//! The shape is a two-level Arc-chunked sorted array rather than a full
//! HAMT/B-tree: the maps these back (vote tallies per statement, slice
//! registries per process, seen-envelope origins per statement) hold tens
//! of entries, so a flat spine of small chunks beats pointer-chased trees
//! on every operation while keeping the same asymptotic sharing behaviour.
//!
//! [`PersistentVec`] is the append-only sibling used for the envelope
//! backlog, where `Arc<Vec<T>>` + `make_mut` would re-clone the entire
//! history on the first append after every fork.

use std::fmt;
use std::sync::Arc;

/// Maximum entries per chunk; full chunks split in half on insert.
const MAX_CHUNK: usize = 12;

/// A persistent sorted map with O(1) clone and path-copying mutation.
/// See the [module docs](self).
pub struct PersistentMap<K, V> {
    /// The spine: sorted, non-empty chunks, each beside a copy of its last
    /// (largest) key, so locating a key's chunk reads the spine alone.
    /// Keys ascend across and within chunks.
    chunks: Arc<Vec<(K, Chunk<K, V>)>>,
    len: usize,
}

type Chunk<K, V> = Arc<Vec<(K, V)>>;

impl<K, V> Clone for PersistentMap<K, V> {
    fn clone(&self) -> Self {
        PersistentMap {
            chunks: Arc::clone(&self.chunks),
            len: self.len,
        }
    }
}

impl<K, V> Default for PersistentMap<K, V> {
    fn default() -> Self {
        PersistentMap::new()
    }
}

impl<K, V> PersistentMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PersistentMap {
            chunks: Arc::new(Vec::new()),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.chunks
            .iter()
            .flat_map(|(_, c)| c.iter())
            .map(|(k, v)| (k, v))
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Ord, V> PersistentMap<K, V> {
    /// The chunk that contains `key` if present (the first chunk whose last
    /// key is `>= key`), or the chunk it belongs in for insertion.
    fn chunk_for(&self, key: &K) -> Option<usize> {
        if self.chunks.is_empty() {
            return None;
        }
        let ci = self.chunks.partition_point(|(last, _)| last < key);
        Some(ci.min(self.chunks.len() - 1))
    }

    /// The value for `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let ci = self.chunk_for(key)?;
        let chunk = &self.chunks[ci].1;
        let i = chunk.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
        Some(&chunk[i].1)
    }

    /// `true` when `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// `true` when every spine key equals its chunk's last key — the
    /// invariant lookups rely on, exposed for the property tests.
    #[doc(hidden)]
    pub fn spine_is_consistent(&self) -> bool {
        self.chunks
            .iter()
            .all(|(last, chunk)| chunk.last().is_some_and(|(k, _)| k == last))
    }
}

impl<K: Ord + Clone, V: Clone> PersistentMap<K, V> {
    /// Inserts `key → value`; returns the displaced value, if any.
    /// Path-copying: only the spine and the touched chunk are cloned, and
    /// only when shared with another map.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some(ci) = self.chunk_for(&key) else {
            self.push_first(key, value);
            return None;
        };
        let chunks = Arc::make_mut(&mut self.chunks);
        let chunk = Arc::make_mut(&mut chunks[ci].1);
        match chunk.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut chunk[i].1, value)),
            Err(i) => {
                chunk.insert(i, (key, value));
                self.len += 1;
                Self::settle(chunks, ci);
                None
            }
        }
    }

    /// The first entry of an empty map.
    fn push_first(&mut self, key: K, value: V) {
        Arc::make_mut(&mut self.chunks).push((key.clone(), Arc::new(vec![(key, value)])));
        self.len += 1;
    }

    /// Restores the spine around the uniquely owned chunk `ci` after an
    /// entry was inserted into it: splits it in half when over-full, and
    /// re-reads the last key of each resulting chunk. Returns the split
    /// point when it split (entries from there on moved to chunk `ci + 1`).
    fn settle(chunks: &mut Vec<(K, Chunk<K, V>)>, ci: usize) -> Option<usize> {
        let chunk = Arc::get_mut(&mut chunks[ci].1).expect("made unique by the caller");
        let mut split = None;
        if chunk.len() > MAX_CHUNK {
            let mid = chunk.len() / 2;
            let tail = chunk.split_off(mid);
            let tail_last = tail.last().expect("half a chunk").0.clone();
            chunks.insert(ci + 1, (tail_last, Arc::new(tail)));
            split = Some(mid);
        }
        let (last, chunk) = &mut chunks[ci];
        let chunk_last = &chunk.last().expect("chunks are non-empty").0;
        if last != chunk_last {
            *last = chunk_last.clone();
        }
        split
    }

    /// Removes `key`; returns its value, if any.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let ci = self.chunk_for(key)?;
        let i = self.chunks[ci]
            .1
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()?;
        let chunks = Arc::make_mut(&mut self.chunks);
        let (last, chunk) = &mut chunks[ci];
        let chunk = Arc::make_mut(chunk);
        let (_, v) = chunk.remove(i);
        match chunk.last() {
            None => {
                chunks.remove(ci);
            }
            Some((new_last, _)) if i == chunk.len() => *last = new_last.clone(),
            Some(_) => {}
        }
        self.len -= 1;
        Some(v)
    }

    /// The value for `key`, inserting `V::default()` first when absent —
    /// the `entry(..).or_default()` of the tally hot path. Single pass:
    /// one chunk location and one in-chunk binary search (instead of the
    /// lookup-insert-relocate round trips of `get` + `insert`), with the
    /// path-copy and any split applied before the slot is borrowed.
    pub fn get_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let Some(ci) = self.chunk_for(&key) else {
            self.push_first(key, V::default());
            let chunks = Arc::make_mut(&mut self.chunks);
            return &mut Arc::make_mut(&mut chunks[0].1)[0].1;
        };
        let chunks = Arc::make_mut(&mut self.chunks);
        let chunk = Arc::make_mut(&mut chunks[ci].1);
        let (slot_ci, slot_i) = match chunk.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => (ci, i),
            Err(i) => {
                chunk.insert(i, (key, V::default()));
                self.len += 1;
                match Self::settle(chunks, ci) {
                    Some(mid) if i >= mid => (ci + 1, i - mid),
                    _ => (ci, i),
                }
            }
        };
        // Uniquely owned by the `make_mut`s above: no copies here.
        &mut Arc::make_mut(&mut chunks[slot_ci].1)[slot_i].1
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for PersistentMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<K: Eq, V: Eq> Eq for PersistentMap<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PersistentMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for PersistentMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = PersistentMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// Append-only chunks per push; full chunks are sealed.
const VEC_CHUNK: usize = 16;

/// A persistent append-only vector with O(1) clone; pushes path-copy at
/// most one tail chunk. See the [module docs](self).
pub struct PersistentVec<T> {
    chunks: Arc<Vec<Arc<Vec<T>>>>,
    len: usize,
}

impl<T> Clone for PersistentVec<T> {
    fn clone(&self) -> Self {
        PersistentVec {
            chunks: Arc::clone(&self.chunks),
            len: self.len,
        }
    }
}

impl<T> Default for PersistentVec<T> {
    fn default() -> Self {
        PersistentVec::new()
    }
}

impl<T> PersistentVec<T> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        PersistentVec {
            chunks: Arc::new(Vec::new()),
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates elements in push order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

impl<T: Clone> PersistentVec<T> {
    /// Appends `value`.
    pub fn push(&mut self, value: T) {
        let chunks = Arc::make_mut(&mut self.chunks);
        match chunks.last_mut() {
            Some(tail) if tail.len() < VEC_CHUNK => Arc::make_mut(tail).push(value),
            _ => chunks.push(Arc::new(vec![value])),
        }
        self.len += 1;
    }
}

impl<T: PartialEq> PartialEq for PersistentVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for PersistentVec<T> {}

impl<T: fmt::Debug> fmt::Debug for PersistentVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_insert_get_remove_round_trip() {
        let mut m = PersistentMap::new();
        for k in [5u32, 1, 9, 3, 7] {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(m.len(), 5);
        assert_eq!(m.get(&9), Some(&90));
        assert_eq!(m.insert(9, 91), Some(90));
        assert_eq!(m.len(), 5);
        assert_eq!(m.remove(&1), Some(10));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![3, 5, 7, 9]);
    }

    #[test]
    fn map_splits_and_stays_sorted() {
        let mut m = PersistentMap::new();
        for k in (0..100u32).rev() {
            m.insert(k, k);
        }
        assert_eq!(m.len(), 100);
        assert!(m.keys().copied().eq(0..100));
        for k in 0..100u32 {
            assert_eq!(m.get(&k), Some(&k));
        }
    }

    #[test]
    fn fork_then_diverge_isolates() {
        let mut a = PersistentMap::new();
        for k in 0..40u32 {
            a.insert(k, k);
        }
        let b = a.clone();
        a.insert(7, 700);
        a.insert(100, 100);
        a.remove(&3);
        assert_eq!(b.get(&7), Some(&7), "fork unaffected by divergence");
        assert_eq!(b.get(&3), Some(&3));
        assert_eq!(b.get(&100), None);
        assert_eq!(a.get(&7), Some(&700));
    }

    #[test]
    fn get_or_default_matches_entry_semantics() {
        let mut m: PersistentMap<u32, Vec<u32>> = PersistentMap::new();
        m.get_or_default(2).push(1);
        m.get_or_default(2).push(2);
        assert_eq!(m.get(&2), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn vec_pushes_in_order_and_forks_cheaply() {
        let mut v = PersistentVec::new();
        for i in 0..50u32 {
            v.push(i);
        }
        let w = v.clone();
        v.push(50);
        assert_eq!(v.len(), 51);
        assert_eq!(w.len(), 50);
        assert!(v.iter().copied().eq(0..51));
        assert!(w.iter().copied().eq(0..50));
    }
}
