//! Property-based tests for the persistent collections: a `BTreeMap`
//! oracle for operation-by-operation equivalence (the maps replaced
//! `BTreeMap`s on the exploration fork path, so insert/remove/get results
//! and — crucially for canonical state fingerprints — iteration order
//! must coincide exactly), plus fork-then-diverge isolation.

use std::collections::BTreeMap;

use proptest::prelude::*;
use scup_graph::{PersistentMap, PersistentVec};

/// One mutation of the map under test.
#[derive(Clone, Debug)]
enum Op {
    Insert(u32, u64),
    Remove(u32),
    GetOrDefaultPush(u32, u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u32..3, 0u32..48, 0u64..1000).prop_map(|(kind, k, v)| match kind {
            0 => Op::Insert(k, v),
            1 => Op::Remove(k),
            _ => Op::GetOrDefaultPush(k, v),
        }),
        0..120,
    )
}

proptest! {
    #[test]
    fn persistent_map_matches_btreemap(ops in ops()) {
        let mut subject: PersistentMap<u32, Vec<u64>> = PersistentMap::new();
        let mut oracle: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(
                        subject.insert(k, vec![v]),
                        oracle.insert(k, vec![v])
                    );
                }
                Op::Remove(k) => {
                    prop_assert_eq!(subject.remove(&k), oracle.remove(&k));
                }
                Op::GetOrDefaultPush(k, v) => {
                    subject.get_or_default(k).push(v);
                    oracle.entry(k).or_default().push(v);
                }
            }
            prop_assert_eq!(subject.len(), oracle.len());
            // Lookups read the spine's copy of each chunk's last key.
            prop_assert!(subject.spine_is_consistent());
        }
        // Contents and — the fingerprint-critical property — iteration
        // order coincide exactly.
        prop_assert!(subject.iter().eq(oracle.iter()));
        for k in 0u32..48 {
            prop_assert_eq!(subject.get(&k), oracle.get(&k));
            prop_assert_eq!(subject.contains_key(&k), oracle.contains_key(&k));
        }
    }

    #[test]
    fn fork_then_diverge_isolates(ops in ops(), fork_at in 0usize..120) {
        let mut subject: PersistentMap<u32, Vec<u64>> = PersistentMap::new();
        let mut fork: Option<(PersistentMap<u32, Vec<u64>>, BTreeMap<u32, Vec<u64>>)> = None;
        let mut oracle: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (i, op) in ops.into_iter().enumerate() {
            if i == fork_at {
                // O(1) fork: remember the oracle state it must keep.
                fork = Some((subject.clone(), oracle.clone()));
            }
            match op {
                Op::Insert(k, v) => {
                    subject.insert(k, vec![v]);
                    oracle.insert(k, vec![v]);
                }
                Op::Remove(k) => {
                    subject.remove(&k);
                    oracle.remove(&k);
                }
                Op::GetOrDefaultPush(k, v) => {
                    subject.get_or_default(k).push(v);
                    oracle.entry(k).or_default().push(v);
                }
            }
        }
        prop_assert!(subject.iter().eq(oracle.iter()));
        if let Some((forked, frozen)) = fork {
            // The fork still reads exactly the state it was taken at,
            // however the original diverged afterwards.
            prop_assert!(forked.iter().eq(frozen.iter()));
            // ... through its own spine, which the original's splits, chunk
            // removals and last-key updates never touched.
            prop_assert!(forked.spine_is_consistent());
            for k in 0u32..48 {
                prop_assert_eq!(forked.get(&k), frozen.get(&k));
            }
        }
        prop_assert!(subject.spine_is_consistent());
    }

    #[test]
    fn persistent_vec_matches_vec(values in proptest::collection::vec(0u64..1000, 0..200),
                                  fork_at in 0usize..200) {
        let mut subject = PersistentVec::new();
        let mut oracle = Vec::new();
        let mut fork = None;
        for (i, v) in values.iter().enumerate() {
            if i == fork_at {
                fork = Some((subject.clone(), oracle.clone()));
            }
            subject.push(*v);
            oracle.push(*v);
        }
        prop_assert!(subject.iter().eq(oracle.iter()));
        prop_assert_eq!(subject.len(), oracle.len());
        if let Some((forked, frozen)) = fork {
            prop_assert!(forked.iter().eq(frozen.iter()), "fork isolated from later pushes");
        }
    }
}
