use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::FromIterator;
use std::ops::{BitAnd, BitOr, Sub};

use crate::ProcessId;

const BITS: usize = 64;

/// Words kept inside the set itself: ids `0..128` never touch the heap.
///
/// A constant, not a knob. 128 covers every system the workspace simulates,
/// explores or benchmarks (`n ≤ 128`), so no set on a measured path owns
/// heap memory, and two words are what fits in the footprint of the
/// `Vec<u64>` they stand in for: the enum below reuses the vector's niche
/// as its tag, so `size_of::<ProcessSet>()` is still 24 bytes (a unit test
/// bounds it at 32, should the layout ever need a separate tag).
const INLINE_WORDS: usize = 2;

/// A set of [`ProcessId`]s backed by a bitset.
///
/// `ProcessSet` is the workhorse collection of the workspace: quorums,
/// slices, participant-detector outputs and fault sets are all process sets,
/// and quorum checks reduce to word-parallel intersection/subset tests.
///
/// # Representation
///
/// The first `INLINE_WORDS` words (ids `0..128`) live inline; a set spills
/// to a `Vec<u64>` only when an id beyond them is inserted, so creating,
/// cloning and dropping a set of small ids never allocates. Which form a
/// set sits in follows from the highest id it has held, and a spilled set
/// that shrinks keeps its allocation (as a `Vec` keeps its capacity), so
/// the form is *not* a function of the contents.
///
/// **The canon rule:** nothing observable may depend on the form.
/// [`ProcessSet::as_words`] is the one normalised view — no trailing
/// all-zero word, whichever form backs it — and `Eq`, `Hash`, `Ord`, the
/// iterator and all set algebra are written over it. A set that spilled and
/// shrank back equals, hashes like and exposes the same words as one built
/// inline; state fingerprints (`StateHasher::write_set` reads `as_words`)
/// therefore cannot tell the forms apart either.
///
/// # Example
///
/// ```
/// use scup_graph::ProcessSet;
///
/// let q1 = ProcessSet::from_ids([0, 1, 2, 3]);
/// let q2 = ProcessSet::from_ids([2, 3, 4]);
/// assert_eq!(q1.intersection(&q2), ProcessSet::from_ids([2, 3]));
/// assert_eq!(q1.intersection_len(&q2), 2);
/// assert!(ProcessSet::from_ids([2]).is_subset(&q2));
/// ```
pub struct ProcessSet {
    repr: Repr,
}

enum Repr {
    /// All `INLINE_WORDS` words, zero-padded: no invariant to maintain.
    Inline([u64; INLINE_WORDS]),
    /// No trailing all-zero word. May be shorter than `INLINE_WORDS` after
    /// shrinking.
    Heap(Vec<u64>),
}

/// `words` without its trailing all-zero words.
#[inline]
fn trimmed(words: &[u64]) -> &[u64] {
    let mut n = words.len();
    while n > 0 && words[n - 1] == 0 {
        n -= 1;
    }
    &words[..n]
}

impl Default for ProcessSet {
    #[inline]
    fn default() -> Self {
        ProcessSet::new()
    }
}

impl Clone for ProcessSet {
    #[inline]
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Inline(words) => ProcessSet {
                repr: Repr::Inline(*words),
            },
            Repr::Heap(words) => ProcessSet::from_normalized(words),
        }
    }

    /// A plain word copy when both sides are inline, and reuses the
    /// existing allocation when `self` has spilled — the workhorse of the
    /// allocation-free hot paths (`x.clone_from(&y)` instead of
    /// `x = y.clone()`).
    fn clone_from(&mut self, source: &Self) {
        match (&mut self.repr, &source.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => *a = *b,
            _ => self.copy_from_words(source.as_words()),
        }
    }
}

impl PartialEq for ProcessSet {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_words() == other.as_words()
    }
}

impl Eq for ProcessSet {}

impl Hash for ProcessSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_words().hash(state);
    }
}

impl ProcessSet {
    /// Creates an empty set.
    #[inline]
    pub fn new() -> Self {
        ProcessSet {
            repr: Repr::Inline([0; INLINE_WORDS]),
        }
    }

    /// Creates an empty set with capacity for ids `0..n` without reallocating.
    pub fn with_capacity(n: usize) -> Self {
        let words = n.div_ceil(BITS);
        if words <= INLINE_WORDS {
            ProcessSet::new()
        } else {
            ProcessSet {
                repr: Repr::Heap(Vec::with_capacity(words)),
            }
        }
    }

    /// The set backed by a copy of `words`, which has no trailing zero word.
    fn from_normalized(words: &[u64]) -> Self {
        if words.len() <= INLINE_WORDS {
            let mut inline = [0; INLINE_WORDS];
            inline[..words.len()].copy_from_slice(words);
            ProcessSet {
                repr: Repr::Inline(inline),
            }
        } else {
            ProcessSet {
                repr: Repr::Heap(words.to_vec()),
            }
        }
    }

    /// Creates the set containing only `id`.
    pub fn singleton(id: ProcessId) -> Self {
        let mut s = ProcessSet::new();
        s.insert(id);
        s
    }

    /// Creates the full set `{0, 1, ..., n-1}`.
    pub fn full(n: usize) -> Self {
        let mut s = ProcessSet::with_capacity(n);
        let words = s.widen(n.div_ceil(BITS));
        words[..n / BITS].fill(!0);
        let rem = n % BITS;
        if rem > 0 {
            words[n / BITS] = (1u64 << rem) - 1;
        }
        s
    }

    /// Creates a set from any iterable of raw `u32` ids.
    ///
    /// Convenience constructor used pervasively in tests and examples.
    pub fn from_ids<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        ids.into_iter().map(ProcessId::new).collect()
    }

    /// Every stored word: the inline form's zero padding included, so
    /// *not* normalised. For in-place edits; follow an edit that may clear
    /// a word with [`ProcessSet::normalize`].
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(words) => words,
            Repr::Heap(words) => words,
        }
    }

    /// [`ProcessSet::words_mut`] widened (zero-filled) to at least `n`
    /// words, spilling to the heap when the inline words do not reach. The
    /// caller sets a bit in word `n - 1` when the view grew, which keeps
    /// the spilled form free of trailing zero words.
    fn widen(&mut self, n: usize) -> &mut [u64] {
        if let Repr::Inline(words) = &self.repr {
            if n > INLINE_WORDS {
                let mut spilled = Vec::with_capacity(n);
                spilled.extend_from_slice(trimmed(words));
                self.repr = Repr::Heap(spilled);
            }
        }
        match &mut self.repr {
            Repr::Inline(words) => words,
            Repr::Heap(words) => {
                if words.len() < n {
                    words.resize(n, 0);
                }
                words
            }
        }
    }

    /// Restores the spilled form's no-trailing-zero-word invariant.
    fn normalize(&mut self) {
        if let Repr::Heap(words) = &mut self.repr {
            while words.last() == Some(&0) {
                words.pop();
            }
        }
    }

    /// Inserts `id`; returns `true` if the set did not already contain it.
    pub fn insert(&mut self, id: ProcessId) -> bool {
        let (b, bit) = (id.index() / BITS, id.index() % BITS);
        let word = &mut self.widen(b + 1)[b];
        let mask = 1u64 << bit;
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Removes `id`; returns `true` if the set contained it.
    pub fn remove(&mut self, id: ProcessId) -> bool {
        let (b, bit) = (id.index() / BITS, id.index() % BITS);
        let Some(word) = self.words_mut().get_mut(b) else {
            return false;
        };
        let mask = 1u64 << bit;
        let present = *word & mask != 0;
        *word &= !mask;
        if present {
            self.normalize();
        }
        present
    }

    /// Returns `true` if the set contains `id`.
    #[inline]
    pub fn contains(&self, id: ProcessId) -> bool {
        let (b, bit) = (id.index() / BITS, id.index() % BITS);
        let words: &[u64] = match &self.repr {
            Repr::Inline(words) => words,
            Repr::Heap(words) => words,
        };
        words.get(b).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.as_words()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Returns `true` if the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_words().is_empty()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline(words) => *words = [0; INLINE_WORDS],
            Repr::Heap(words) => words.clear(),
        }
    }

    /// Returns the union `self ∪ other` as a new set.
    pub fn union(&self, other: &ProcessSet) -> ProcessSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Adds all elements of `other` into `self`.
    pub fn union_with(&mut self, other: &ProcessSet) {
        let other = other.as_words();
        for (a, b) in self.widen(other.len()).iter_mut().zip(other) {
            *a |= b;
        }
    }

    /// Returns the intersection `self ∩ other` as a new set.
    pub fn intersection(&self, other: &ProcessSet) -> ProcessSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Keeps only the elements also present in `other`.
    pub fn intersect_with(&mut self, other: &ProcessSet) {
        let other = other.as_words();
        for (k, a) in self.words_mut().iter_mut().enumerate() {
            *a &= other.get(k).copied().unwrap_or(0);
        }
        self.normalize();
    }

    /// Returns the difference `self \ other` as a new set.
    pub fn difference(&self, other: &ProcessSet) -> ProcessSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Removes all elements of `other` from `self`.
    pub fn difference_with(&mut self, other: &ProcessSet) {
        for (a, b) in self.words_mut().iter_mut().zip(other.as_words()) {
            *a &= !b;
        }
        self.normalize();
    }

    /// Returns `|self ∩ other|` without allocating.
    ///
    /// This is the hot operation behind the paper's threshold-based
    /// intertwined check `|Q ∩ Q'| > f` (Section III-F).
    pub fn intersection_len(&self, other: &ProcessSet) -> usize {
        self.as_words()
            .iter()
            .zip(other.as_words())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &ProcessSet) -> bool {
        let (a, b) = (self.as_words(), other.as_words());
        a.len() <= b.len() && a.iter().zip(b).all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if every element of `other` is in `self`.
    #[inline]
    pub fn is_superset(&self, other: &ProcessSet) -> bool {
        other.is_subset(self)
    }

    /// Returns `true` if `self ∩ other = ∅`.
    pub fn is_disjoint(&self, other: &ProcessSet) -> bool {
        self.as_words()
            .iter()
            .zip(other.as_words())
            .all(|(a, b)| a & b == 0)
    }

    /// Returns `true` if `self ∩ other ≠ ∅` — the word-parallel test behind
    /// explicit-slice v-blocking checks.
    #[inline]
    pub fn intersects(&self, other: &ProcessSet) -> bool {
        !self.is_disjoint(other)
    }

    /// Returns `|self \ other|` without allocating — the non-allocating
    /// form of `self.difference(other).len()` used by discovery wait rules.
    pub fn difference_len(&self, other: &ProcessSet) -> usize {
        let other = other.as_words();
        self.as_words()
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let b = other.get(k).copied().unwrap_or(0);
                (a & !b).count_ones() as usize
            })
            .sum()
    }

    /// Keeps only the elements for which `keep` returns `true`, in place —
    /// the non-allocating counterpart of filter-and-recollect.
    pub fn retain<F: FnMut(ProcessId) -> bool>(&mut self, mut keep: F) {
        for (k, slot) in self.words_mut().iter_mut().enumerate() {
            let mut word = *slot;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let id = ProcessId::new((k * BITS + bit) as u32);
                if !keep(id) {
                    *slot &= !(1u64 << bit);
                }
            }
        }
        self.normalize();
    }

    /// The set as `u64` words, least-significant id first. No trailing
    /// all-zero word is ever present, whichever form backs the set (the
    /// canon rule in the [type docs](ProcessSet)). Exposed for
    /// word-parallel engines (e.g. `scup-fbqs`'s `QuorumEngine`) that pack
    /// sets into fixed-stride rows.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(words) => trimmed(words),
            Repr::Heap(words) => words,
        }
    }

    /// Builds a set directly from backing words (trailing zero words are
    /// stripped to restore the representation invariant).
    pub fn from_words(mut blocks: Vec<u64>) -> Self {
        blocks.truncate(trimmed(&blocks).len());
        if blocks.len() <= INLINE_WORDS {
            ProcessSet::from_normalized(&blocks)
        } else {
            ProcessSet {
                repr: Repr::Heap(blocks),
            }
        }
    }

    /// Replaces the contents with the given words, reusing the existing
    /// allocation (the non-allocating counterpart of
    /// [`ProcessSet::from_words`]).
    pub fn copy_from_words(&mut self, blocks: &[u64]) {
        let blocks = trimmed(blocks);
        match &mut self.repr {
            Repr::Heap(words) => {
                words.clear();
                words.extend_from_slice(blocks);
            }
            Repr::Inline(_) => *self = ProcessSet::from_normalized(blocks),
        }
    }

    /// Returns the smallest id in the set, if any.
    pub fn first(&self) -> Option<ProcessId> {
        self.iter().next()
    }

    /// Returns an arbitrary (the smallest) element and removes it.
    pub fn pop_first(&mut self) -> Option<ProcessId> {
        let id = self.first()?;
        self.remove(id);
        Some(id)
    }

    /// Iterates over the ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        let blocks = self.as_words();
        Iter {
            blocks,
            block_idx: 0,
            current: blocks.first().copied().unwrap_or(0),
        }
    }

    /// Collects the ids into a `Vec`, ascending.
    pub fn to_vec(&self) -> Vec<ProcessId> {
        self.iter().collect()
    }
}

/// Iterator over the elements of a [`ProcessSet`] in ascending order.
#[derive(Clone)]
pub struct Iter<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(ProcessId::new((self.block_idx * BITS + bit) as u32));
            }
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest: usize = self.blocks[self.block_idx.min(self.blocks.len())..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let n = rest + self.current.count_ones() as usize
            - self
                .blocks
                .get(self.block_idx)
                .copied()
                .unwrap_or(0)
                .count_ones() as usize;
        (n, Some(n))
    }
}

impl<'a> IntoIterator for &'a ProcessSet {
    type Item = ProcessId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = ProcessSet::new();
        s.extend(iter);
        s
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl<const N: usize> From<[u32; N]> for ProcessSet {
    fn from(ids: [u32; N]) -> Self {
        ProcessSet::from_ids(ids)
    }
}

impl PartialOrd for ProcessSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ProcessSet {
    /// Lexicographic order on the ascending element sequence, so that e.g.
    /// `{0, 5} < {1}` and `{1} < {1, 2}`.
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl BitOr for &ProcessSet {
    type Output = ProcessSet;
    fn bitor(self, rhs: &ProcessSet) -> ProcessSet {
        self.union(rhs)
    }
}

impl BitAnd for &ProcessSet {
    type Output = ProcessSet;
    fn bitand(self, rhs: &ProcessSet) -> ProcessSet {
        self.intersection(rhs)
    }
}

impl Sub for &ProcessSet {
    type Output = ProcessSet;
    fn sub(self, rhs: &ProcessSet) -> ProcessSet {
        self.difference(rhs)
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, id) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", id.as_u32())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = ProcessSet::new();
        assert!(s.insert(ProcessId::new(3)));
        assert!(!s.insert(ProcessId::new(3)));
        assert!(s.contains(ProcessId::new(3)));
        assert!(!s.contains(ProcessId::new(4)));
        assert!(s.remove(ProcessId::new(3)));
        assert!(!s.remove(ProcessId::new(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn cross_block_elements() {
        let mut s = ProcessSet::new();
        s.insert(ProcessId::new(0));
        s.insert(ProcessId::new(63));
        s.insert(ProcessId::new(64));
        s.insert(ProcessId::new(200));
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.to_vec(),
            vec![
                ProcessId::new(0),
                ProcessId::new(63),
                ProcessId::new(64),
                ProcessId::new(200)
            ]
        );
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = ProcessSet::new();
        a.insert(ProcessId::new(5));
        let mut b = ProcessSet::new();
        b.insert(ProcessId::new(5));
        b.insert(ProcessId::new(300));
        b.remove(ProcessId::new(300));
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn full_set() {
        let s = ProcessSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(ProcessId::new(0)));
        assert!(s.contains(ProcessId::new(69)));
        assert!(!s.contains(ProcessId::new(70)));
        assert!(ProcessSet::full(0).is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = ProcessSet::from_ids([1, 2, 3, 64]);
        let b = ProcessSet::from_ids([3, 64, 100]);
        assert_eq!(a.union(&b), ProcessSet::from_ids([1, 2, 3, 64, 100]));
        assert_eq!(a.intersection(&b), ProcessSet::from_ids([3, 64]));
        assert_eq!(a.difference(&b), ProcessSet::from_ids([1, 2]));
        assert_eq!(a.intersection_len(&b), 2);
        assert!(!a.is_disjoint(&b));
        assert!(a.is_disjoint(&ProcessSet::from_ids([5, 99])));
    }

    #[test]
    fn operator_sugar() {
        let a = ProcessSet::from_ids([1, 2]);
        let b = ProcessSet::from_ids([2, 3]);
        assert_eq!(&a | &b, ProcessSet::from_ids([1, 2, 3]));
        assert_eq!(&a & &b, ProcessSet::from_ids([2]));
        assert_eq!(&a - &b, ProcessSet::from_ids([1]));
    }

    #[test]
    fn subset_relations() {
        let a = ProcessSet::from_ids([1, 2]);
        let b = ProcessSet::from_ids([1, 2, 3]);
        assert!(a.is_subset(&b));
        assert!(b.is_superset(&a));
        assert!(!b.is_subset(&a));
        assert!(ProcessSet::new().is_subset(&a));
        // Subset where self has more blocks but they are trailing zeros.
        let mut c = ProcessSet::from_ids([1]);
        c.insert(ProcessId::new(500));
        c.remove(ProcessId::new(500));
        assert!(c.is_subset(&a));
    }

    #[test]
    fn first_and_pop() {
        let mut s = ProcessSet::from_ids([65, 7, 130]);
        assert_eq!(s.first(), Some(ProcessId::new(7)));
        assert_eq!(s.pop_first(), Some(ProcessId::new(7)));
        assert_eq!(s.pop_first(), Some(ProcessId::new(65)));
        assert_eq!(s.pop_first(), Some(ProcessId::new(130)));
        assert_eq!(s.pop_first(), None);
    }

    #[test]
    fn ordering_is_lexicographic_on_elements() {
        let a = ProcessSet::from_ids([0, 5]);
        let b = ProcessSet::from_ids([1]);
        let c = ProcessSet::from_ids([1, 2]);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn display_formats_ids() {
        let s = ProcessSet::from_ids([4, 5, 6]);
        assert_eq!(s.to_string(), "{4, 5, 6}");
        assert_eq!(ProcessSet::new().to_string(), "{}");
    }

    #[test]
    fn difference_len_matches_difference() {
        let a = ProcessSet::from_ids([1, 2, 3, 64, 200]);
        let b = ProcessSet::from_ids([3, 64, 100]);
        assert_eq!(a.difference_len(&b), a.difference(&b).len());
        assert_eq!(b.difference_len(&a), b.difference(&a).len());
        assert_eq!(a.difference_len(&ProcessSet::new()), a.len());
        assert_eq!(ProcessSet::new().difference_len(&a), 0);
    }

    #[test]
    fn intersects_is_disjoint_complement() {
        let a = ProcessSet::from_ids([1, 65]);
        let b = ProcessSet::from_ids([65]);
        let c = ProcessSet::from_ids([2]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&ProcessSet::new()));
    }

    #[test]
    fn retain_filters_in_place() {
        let mut s = ProcessSet::from_ids([0, 5, 63, 64, 130]);
        s.retain(|id| id.as_u32() % 2 == 0);
        assert_eq!(s, ProcessSet::from_ids([0, 64, 130]));
        s.retain(|_| false);
        assert!(s.is_empty());
        assert_eq!(s.as_words().len(), 0, "retain normalizes");
    }

    #[test]
    fn words_round_trip() {
        let s = ProcessSet::from_ids([3, 64, 190]);
        let rebuilt = ProcessSet::from_words(s.as_words().to_vec());
        assert_eq!(s, rebuilt);
        // Trailing zero words are stripped.
        let padded = ProcessSet::from_words(vec![0b1000, 0, 0]);
        assert_eq!(padded, ProcessSet::from_ids([3]));
        assert_eq!(padded.as_words(), &[0b1000]);
    }

    #[test]
    fn clone_from_reuses_allocation() {
        let big = ProcessSet::from_ids([500]);
        let mut target = big.clone();
        target.clone_from(&ProcessSet::from_ids([1]));
        assert_eq!(target, ProcessSet::from_ids([1]));
        target.clone_from(&big);
        assert_eq!(target, big);
    }

    #[test]
    fn the_inline_words_do_not_grow_the_type() {
        assert!(std::mem::size_of::<ProcessSet>() <= 32);
    }

    #[test]
    fn iter_size_hint_is_exact() {
        let s = ProcessSet::from_ids([0, 63, 64, 127, 128]);
        let it = s.iter();
        assert_eq!(it.size_hint(), (5, Some(5)));
        let mut it2 = s.iter();
        it2.next();
        assert_eq!(it2.size_hint(), (4, Some(4)));
    }
}
