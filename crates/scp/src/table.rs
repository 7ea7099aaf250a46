//! The flat copy-on-write table behind an SCP node's keyed state: the
//! pledge table (one row per statement, `{votes, accepts, confirmed}`:
//! who voted, who accepted, whether it is confirmed here — the own level
//! is the own id in those sets; it answers envelope dedup and federated
//! voting alike) and the slice registry (one row per process).
//!
//! A sorted key vector and a parallel row vector behind one [`Arc`]:
//!
//! - **a fork is an `Arc` bump**, and most forked nodes are dropped or
//!   forked again before they write;
//! - **a lookup is one probe of a hashed index** once the table holds
//!   more than [`INDEXED_ABOVE`] keys, and a linear scan of the
//!   contiguous keys below that;
//! - **a write is [`Arc::make_mut`]**: in place when unshared, which is
//!   every sampled run, and one flat copy of the whole table after a fork.
//!
//! The index is open-addressed with linear probing. Each slot holds
//! `row + 1` (0 is empty), the width is a power of two at least twice the
//! key count, and the hash is a fixed multiply–rotate over the key's
//! [`Hash`] — no random state, so a run is a function of its seed alone.
//! Keys crafted to collide (a Byzantine origin's statements) can make a
//! probe walk every row of the table, no more. A slot carries no key: a
//! probe compares against `keys[row]`, and a present key is nearly always
//! found on the first slot. The index is rebuilt on every insert, because
//! an insert shifts the rows behind it. That is cheap because inserts are
//! rare — a statement or a process gets its row once: at most 33 per node
//! at `n = 24`, 188 on non-converging `observe` runs — while lookups come
//! once per delivered envelope, more than nine in ten of them duplicates,
//! and a binary search over a few dozen keys per delivery was the hottest
//! line of the sampled simulator. Small tables allocate no index and are
//! scanned front to back, so no table of the explorer's systems (6 keys or
//! fewer) carries an index.
//!
//! Copying the *whole* table is the design, not a shortcut. Measured on
//! every explorer scenario (`campaigns/explore.toml` and the benchmark's
//! `explore` workload) no node ever holds more than **6** statements, and
//! rows are [`ProcessSet`](scup_graph::ProcessSet)s whose words are inline,
//! so the copy is a few hundred contiguous bytes with nothing to chase. The
//! chunked persistent map this replaced shared nothing at that size — its
//! one chunk *was* the map — and paid a spine, a chunk and a heap bitset
//! per entry on top. Sampled runs grow larger tables but never fork, so
//! they never copy.
//!
//! Iteration is ascending key order, the order of the `BTreeMap`s these
//! tables descend from. Order is behaviour here: the tally's rescan walks
//! it, and the order of the changes it reports is the order of broadcasts.
//! So keys and rows stay sorted, and the position of a new key is still
//! found by binary search.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Key count up to which a lookup is a linear scan and no index is
/// allocated.
const INDEXED_ABOVE: usize = 8;

#[derive(Clone)]
struct Columns<K, R> {
    /// Ascending, no duplicates.
    keys: Vec<K>,
    /// `rows[i]` belongs to `keys[i]`.
    rows: Vec<R>,
    /// Empty while `keys.len() <= INDEXED_ABOVE`; else `row + 1` per
    /// occupied slot and 0 per free one, a power of two at least twice
    /// `keys.len()` wide, so every probe sequence meets a free slot.
    index: Vec<u32>,
}

/// A fixed multiply–rotate word hash (the `FxHash` round): one rotate, one
/// XOR and one multiply per word the key feeds in.
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The first slot of `key`'s probe sequence in an index `mask + 1` wide:
/// the hash's top bits, which the multiply mixes best.
fn home<K: Hash>(key: &K, mask: usize) -> usize {
    let mut h = KeyHasher(0);
    key.hash(&mut h);
    let bits = (mask + 1).trailing_zeros();
    (h.finish() >> (64 - bits)) as usize
}

impl<K: Ord + Hash, R> Columns<K, R> {
    /// The row of `key`, if any. An unindexed table holds at most
    /// [`INDEXED_ABOVE`] keys, few enough to scan front to back.
    fn find(&self, key: &K) -> Option<usize> {
        if self.index.is_empty() {
            return self.keys.iter().position(|k| k == key);
        }
        let mask = self.index.len() - 1;
        let mut s = home(key, mask);
        loop {
            let row = self.index[s].checked_sub(1)? as usize;
            if self.keys[row] == *key {
                return Some(row);
            }
            s = (s + 1) & mask;
        }
    }

    /// `Ok` with the row of `key`, or `Err` with the sorted position it
    /// would be inserted at. Without an index this is one binary search.
    fn locate(&self, key: &K) -> Result<usize, usize> {
        if self.index.is_empty() {
            return self.keys.binary_search(key);
        }
        self.find(key)
            .ok_or_else(|| self.keys.partition_point(|k| k < key))
    }

    /// Inserts `key` with `row` at its sorted position `i` and rebuilds
    /// the index.
    fn insert(&mut self, i: usize, key: K, row: R) {
        self.keys.insert(i, key);
        self.rows.insert(i, row);
        if self.keys.len() <= INDEXED_ABOVE {
            return;
        }
        assert!(
            self.keys.len() < u32::MAX as usize,
            "rows are indexed as u32 + 1"
        );
        let width = (2 * self.keys.len()).next_power_of_two();
        let mask = width - 1;
        self.index.clear();
        self.index.resize(width, 0);
        for (row, key) in self.keys.iter().enumerate() {
            let mut s = home(key, mask);
            while self.index[s] != 0 {
                s = (s + 1) & mask;
            }
            self.index[s] = row as u32 + 1;
        }
    }
}

/// A sorted map with O(1) clone, whole-table copy-on-write and hashed
/// lookup. See the [module docs](self).
pub(crate) struct Table<K, R> {
    columns: Arc<Columns<K, R>>,
}

impl<K, R> Clone for Table<K, R> {
    fn clone(&self) -> Self {
        Table {
            columns: Arc::clone(&self.columns),
        }
    }
}

impl<K, R> Default for Table<K, R> {
    fn default() -> Self {
        Table {
            columns: Arc::new(Columns {
                keys: Vec::new(),
                rows: Vec::new(),
                index: Vec::new(),
            }),
        }
    }
}

impl<K, R> Table<K, R> {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.columns.keys.len()
    }

    /// The keys, ascending.
    pub(crate) fn keys(&self) -> &[K] {
        &self.columns.keys
    }

    /// The `(key, row)` pairs in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &R)> + '_ {
        self.columns.keys.iter().zip(&self.columns.rows)
    }
}

impl<K: Ord + Hash + Clone, R: Clone> Table<K, R> {
    /// The row of `key`, if any.
    pub(crate) fn get(&self, key: &K) -> Option<&R> {
        let i = self.columns.find(key)?;
        Some(&self.columns.rows[i])
    }

    /// The row of `key`, inserted as `R::default()` first when absent.
    pub(crate) fn get_or_default(&mut self, key: K) -> &mut R
    where
        R: Default,
    {
        let columns = Arc::make_mut(&mut self.columns);
        let i = match columns.locate(&key) {
            Ok(i) => i,
            Err(i) => {
                columns.insert(i, key, R::default());
                i
            }
        };
        &mut columns.rows[i]
    }

    /// Sets the row of `key` to a clone of `row` unless it already equals
    /// it. `None` when it did — the table is then not written, so a shared
    /// one is not copied — else the displaced row, if there was one.
    pub(crate) fn replace_if_changed(&mut self, key: K, row: &R) -> Option<Option<R>>
    where
        R: PartialEq,
    {
        let found = self.columns.locate(&key);
        if found.is_ok_and(|i| self.columns.rows[i] == *row) {
            return None;
        }
        let columns = Arc::make_mut(&mut self.columns);
        Some(match found {
            Ok(i) => Some(std::mem::replace(&mut columns.rows[i], row.clone())),
            Err(i) => {
                columns.insert(i, key, row.clone());
                None
            }
        })
    }
}

impl<K: fmt::Debug, R: fmt::Debug> fmt::Debug for Table<K, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// The index exists exactly above [`INDEXED_ABOVE`] keys, is a power
    /// of two at least twice the key count wide, and names every row once.
    fn assert_index<K: Ord + Hash, R>(table: &Table<K, R>) {
        let columns = &table.columns;
        let keys = columns.keys.len();
        if keys <= INDEXED_ABOVE {
            assert!(columns.index.is_empty(), "{keys} keys are searched");
            return;
        }
        let width = columns.index.len();
        assert!(
            width.is_power_of_two() && width >= 2 * keys,
            "width {width}"
        );
        let mut rows: Vec<u32> = columns.index.iter().copied().filter(|&s| s != 0).collect();
        rows.sort_unstable();
        assert!(rows.iter().copied().eq(1..=keys as u32), "{rows:?}");
    }

    proptest! {
        /// Reads, writes and — what fingerprints and broadcast order hang
        /// on — iteration order are a `BTreeMap`'s, and a fork taken
        /// mid-sequence keeps reading the state it was taken at.
        #[test]
        fn matches_btreemap_and_forks_are_isolated(
            ops in proptest::collection::vec((proptest::bool::ANY, 0u32..48, 0u64..1000), 0..120),
            fork_at in 0usize..120,
        ) {
            let mut subject: Table<u32, Vec<u64>> = Table::default();
            let mut oracle: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
            let mut fork = None;
            for (i, (overwrite, k, v)) in ops.into_iter().enumerate() {
                if i == fork_at {
                    fork = Some((subject.clone(), oracle.clone()));
                }
                if overwrite {
                    // Every third overwrite repeats the row on file.
                    let row = match oracle.get(&k) {
                        Some(old) if v % 3 == 0 => old.clone(),
                        _ => vec![v],
                    };
                    let unchanged = oracle.get(&k) == Some(&row);
                    let displaced = subject.replace_if_changed(k, &row);
                    prop_assert_eq!(displaced.is_none(), unchanged);
                    if let Some(displaced) = displaced {
                        prop_assert_eq!(displaced, oracle.insert(k, row));
                    }
                } else {
                    subject.get_or_default(k).push(v);
                    oracle.entry(k).or_default().push(v);
                }
                prop_assert_eq!(subject.len(), oracle.len());
                prop_assert_eq!(subject.get(&k), oracle.get(&k));
                assert_index(&subject);
            }
            let fork = fork.unwrap_or_else(|| (subject.clone(), oracle.clone()));
            for (table, map) in [(subject, oracle), fork] {
                prop_assert!(table.iter().eq(map.iter()));
                prop_assert!(table.keys().iter().eq(map.keys()));
                for k in 0u32..48 {
                    prop_assert_eq!(table.get(&k), map.get(&k));
                }
            }
        }
    }
}
