//! Property-based test for the persistent vector: a `Vec` oracle for
//! push-by-push equivalence, plus fork-then-diverge isolation.

use proptest::prelude::*;
use scup_graph::PersistentVec;

proptest! {
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
