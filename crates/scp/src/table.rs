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
//! - **a lookup is one binary search over contiguous keys** — keys sit
//!   apart from rows, so the search reads key memory only (33 statements
//!   are 13 cache lines of keys; interleaved with their rows they were 50);
//! - **a write is [`Arc::make_mut`]**: in place when unshared, which is
//!   every sampled run, and one flat copy of the whole table after a fork.
//!
//! Copying the *whole* table is the design, not a shortcut. Measured on
//! every explorer scenario (`campaigns/explore.toml` and the benchmark's
//! `explore` workload) no node ever holds more than **6** statements, and
//! rows are [`ProcessSet`](scup_graph::ProcessSet)s whose words are inline,
//! so the copy is a few hundred contiguous bytes with nothing to chase. The
//! chunked persistent map this replaced shared nothing at that size — its
//! one chunk *was* the map — and paid a spine, a chunk and a heap bitset
//! per entry on top. Sampled runs grow larger tables (33 statements at
//! `n = 24`, 188 on non-converging `observe` runs) but never fork, so they
//! never copy.
//!
//! Iteration is ascending key order, the order of the `BTreeMap`s these
//! tables descend from. Order is behaviour here: the tally's rescan walks
//! it, and the order of the changes it reports is the order of broadcasts.

use std::fmt;
use std::sync::Arc;

#[derive(Clone)]
struct Columns<K, R> {
    /// Ascending, no duplicates.
    keys: Vec<K>,
    /// `rows[i]` belongs to `keys[i]`.
    rows: Vec<R>,
}

/// A sorted map with O(1) clone and whole-table copy-on-write. See the
/// [module docs](self).
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

impl<K: Ord + Clone, R: Clone> Table<K, R> {
    /// The row of `key`, if any.
    pub(crate) fn get(&self, key: &K) -> Option<&R> {
        let i = self.columns.keys.binary_search(key).ok()?;
        Some(&self.columns.rows[i])
    }

    /// The row of `key`, inserted as `R::default()` first when absent.
    pub(crate) fn get_or_default(&mut self, key: K) -> &mut R
    where
        R: Default,
    {
        let columns = Arc::make_mut(&mut self.columns);
        let i = match columns.keys.binary_search(&key) {
            Ok(i) => i,
            Err(i) => {
                columns.keys.insert(i, key);
                columns.rows.insert(i, R::default());
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
        let found = self.columns.keys.binary_search(&key);
        if found.is_ok_and(|i| self.columns.rows[i] == *row) {
            return None;
        }
        let columns = Arc::make_mut(&mut self.columns);
        Some(match found {
            Ok(i) => Some(std::mem::replace(&mut columns.rows[i], row.clone())),
            Err(i) => {
                columns.keys.insert(i, key);
                columns.rows.insert(i, row.clone());
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
