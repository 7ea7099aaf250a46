//! A persistent (structurally shared) append-only vector for exploration
//! forking.
//!
//! The bounded model checker forks every actor it steps, and the fork then
//! appends at most a few elements before it is forked again. For a log
//! that only grows — the SCP envelope backlog, one entry per distinct
//! envelope a node ever saw — `Arc<Vec<T>>` + `make_mut` would re-clone
//! the entire history on the first append after every fork.
//! [`PersistentVec`] makes the fork/append asymmetry explicit:
//!
//! - **`clone` is O(1)** — an `Arc` bump of the chunk spine;
//! - **`push` path-copies** — [`Arc::make_mut`] clones the spine and the
//!   one tail chunk *only when shared*, so an un-forked vector appends
//!   fully in place (the sampled-simulation path pays nothing), and a
//!   forked one copies at most one chunk's elements instead of `O(n)`;
//! - **iteration is push order.**
//!
//! It is the one persistent collection left. The sorted map that lived
//! here backed per-statement and per-process tables of a few dozen small
//! rows; at those sizes its chunks shared nothing, and flat copy-on-write
//! tables (`scup-scp`'s `table.rs`) replaced it. The backlog is different
//! in kind: it is the one per-node collection whose size is the *history*
//! (hundreds of envelopes, each holding an `Arc`), so sharing its sealed
//! prefix is what keeps a fork's first append O(chunk).

use std::fmt;
use std::sync::Arc;

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
