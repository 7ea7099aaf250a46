//! `QuorumEngine`: a compiled, allocation-free form of Definition 1.
//!
//! Every quorum question of the workspace bottoms out here: each
//! [`Fbqs`](crate::Fbqs) compiles one engine when it is built and the
//! global analyses ([`crate::quorum`], [`crate::intertwined`],
//! [`crate::cluster`]) query it, while protocol-local views (SCP's federated
//! voting) fill an engine row by row as slice claims arrive. Walking
//! [`SliceFamily`] values through enum dispatch and re-scanning the whole
//! candidate set every closure round is left to the test-side reference
//! (`tests/reference.rs`), which pins the engine on random systems.
//!
//! The engine compiles a slice view once into **packed bitmask rows**:
//! every slice (and every symbolic `AllSubsets` ground set) becomes a
//! fixed-stride row of `u64` words, so the per-member test of Algorithm 1
//! (`∃ slice ⊆ Q`) is a handful of word-parallel `AND`/`popcount`
//! operations with no pointer chasing and no per-call clones. On top of the
//! rows it keeps a **dependents index** (`deps[j]` = processes whose slices
//! mention `j`), which turns the closure's full-rescan loop into a
//! worklist fixpoint: when a member is discarded, only the processes whose
//! slices touched it are re-examined.
//!
//! The same rows answer **v-blocking**: a set `B` is v-blocking for `i`
//! when `B` intersects every slice of `i`. If all members of a v-blocking
//! set of `i` are faulty, `i` has no all-correct slice left (the
//! quantitative form of the paper's Lemma 2); in SCP's federated voting, a
//! statement accepted by a v-blocking set of `i` can be accepted by `i`
//! even without a quorum.
//!
//! All queries have two forms: a convenience form that allocates a scratch
//! internally, and an `_in` form taking a caller-owned [`EngineScratch`] so
//! long-running consumers (SCP nodes, campaign workers) run allocation-free
//! after warm-up.
//!
//! Rows can be replaced incrementally with [`QuorumEngine::set_slices`] —
//! the shape protocols need, where remote slices arrive attached to
//! messages over time. Replaced storage is compacted automatically once
//! enough of it is garbage.
//!
//! # Example
//!
//! ```
//! use scup_fbqs::{paper, QuorumEngine};
//! use scup_graph::{ProcessId, ProcessSet};
//!
//! let sys = paper::fig1_system();
//! let engine = sys.engine();
//! assert!(engine.is_quorum(&ProcessSet::from_ids([4, 5, 6])));
//! // Process 7 declares no slices, so the largest quorum is W = {0..6}.
//! assert_eq!(engine.quorum_closure(&sys.universe()), paper::fig1_correct());
//! // Process 4 (0-based) has the one slice {5, 6}: {5} blocks it, {3} does not.
//! assert!(engine.is_v_blocking(ProcessId::new(4), &ProcessSet::from_ids([5])));
//! assert!(!engine.is_v_blocking(ProcessId::new(4), &ProcessSet::from_ids([3])));
//!
//! // A protocol-local view knows only the slices that reached it.
//! let mut view = QuorumEngine::new(8);
//! view.set_slices(ProcessId::new(4), sys.slices(ProcessId::new(4)));
//! assert!(!view.is_quorum(&ProcessSet::from_ids([4, 5, 6])));
//! ```

use scup_graph::{ProcessId, ProcessSet};

use crate::SliceFamily;

const BITS: usize = 64;

/// One compiled slice family, pointing into the engine's packed storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    /// No slices at all: never inside a quorum, v-blocked by every set.
    Empty,
    /// `count` explicit slices, each one `stride` words starting at
    /// `start + k * stride`.
    Explicit { start: usize, count: usize },
    /// The symbolic family "all `size`-subsets of the ground set stored at
    /// `start`". `size > |ground set|` (no slices) and `size == 0` (the
    /// empty slice) need no special casing: the popcount threshold tests
    /// degenerate to the right constants.
    Threshold { start: usize, size: usize },
}

impl Row {
    fn word_count(&self, stride: usize) -> usize {
        match self {
            Row::Empty => 0,
            Row::Explicit { count, .. } => count * stride,
            Row::Threshold { .. } => stride,
        }
    }
}

/// Reusable query buffers for [`QuorumEngine`]'s `_in` methods.
///
/// Create one with [`QuorumEngine::scratch`] and reuse it across calls; the
/// buffers grow to the engine's stride once and stay allocated.
#[derive(Debug, Default, Clone)]
pub struct EngineScratch {
    /// The query set, widened to the engine stride.
    cur: Vec<u64>,
    /// Worklist of processes to (re-)examine during closure.
    queue: Vec<u32>,
    /// Bitmap of processes currently enqueued (dedup for the worklist).
    queued: Vec<u64>,
}

impl EngineScratch {
    /// A fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        EngineScratch::default()
    }
}

/// A compiled quorum-query engine over one slice view. See the
/// [module docs](self) for the design.
#[derive(Debug, Clone)]
pub struct QuorumEngine {
    /// Words per packed row. Covers every process id any row mentions.
    stride: usize,
    /// Per-process compiled rows; index = process id.
    rows: Vec<Row>,
    /// Per-process union of slice members (mirrors the deps index).
    members: Vec<ProcessSet>,
    /// Packed row storage.
    words: Vec<u64>,
    /// Words in `words` orphaned by row replacement; triggers compaction.
    garbage: usize,
    /// `deps[j]` = processes whose compiled slices mention `j`.
    deps: Vec<ProcessSet>,
}

impl QuorumEngine {
    /// An engine with `n` processes, all starting with no known slices
    /// (the incremental form used by protocol-local views — fill rows with
    /// [`QuorumEngine::set_slices`] as slice information arrives).
    pub fn new(n: usize) -> Self {
        QuorumEngine {
            stride: n.div_ceil(BITS).max(1),
            rows: vec![Row::Empty; n],
            members: vec![ProcessSet::new(); n],
            words: Vec::new(),
            garbage: 0,
            deps: Vec::new(),
        }
    }

    /// Compiles an engine from per-process families (process `i` gets the
    /// `i`-th family).
    pub fn from_families<'a, I>(n: usize, families: I) -> Self
    where
        I: IntoIterator<Item = &'a SliceFamily>,
    {
        let mut engine = QuorumEngine::new(n);
        for (i, family) in families.into_iter().enumerate() {
            engine.set_slices(ProcessId::new(i as u32), family);
        }
        engine
    }

    /// Number of processes with a row (ids `>= n` can never certify).
    #[inline]
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// A scratch sized for this engine.
    pub fn scratch(&self) -> EngineScratch {
        EngineScratch {
            cur: vec![0; self.stride],
            queue: Vec::with_capacity(self.rows.len()),
            queued: vec![0; self.stride],
        }
    }

    /// Replaces the compiled row of process `i` (growing the engine when
    /// `i` is a new id). Used by protocol views where slice claims arrive
    /// attached to messages.
    pub fn set_slices(&mut self, i: ProcessId, family: &SliceFamily) {
        let idx = i.index();
        if idx >= self.rows.len() {
            self.rows.resize(idx + 1, Row::Empty);
            self.members.resize_with(idx + 1, ProcessSet::new);
            // The row id itself must be addressable in query words.
            self.ensure_stride((idx + 1).div_ceil(BITS));
        }

        // Make sure every id the family mentions fits in a row — BEFORE
        // garbage accounting: a stride-growing repack re-copies the
        // still-live old row and resets the garbage counter, so counting
        // the old row first would leave its repacked words orphaned but
        // untracked.
        self.ensure_stride(family_width(family));

        // Unlink the old row from the dependents index and mark its
        // storage as garbage.
        self.garbage += self.rows[idx].word_count(self.stride);
        let old_members = std::mem::take(&mut self.members[idx]);
        for j in &old_members {
            if let Some(d) = self.deps.get_mut(j.index()) {
                d.remove(i);
            }
        }

        self.rows[idx] = self.append_row(family);
        let members = family.members();
        for j in &members {
            if j.index() >= self.deps.len() {
                self.deps.resize_with(j.index() + 1, ProcessSet::new);
            }
            self.deps[j.index()].insert(i);
        }
        self.members[idx] = members;

        if self.garbage > 256 && self.garbage * 2 > self.words.len() {
            self.repack(self.stride);
        }
    }

    /// Appends the packed words of `family` and returns its row.
    fn append_row(&mut self, family: &SliceFamily) -> Row {
        match family {
            SliceFamily::Explicit(slices) => {
                if slices.is_empty() {
                    return Row::Empty;
                }
                let start = self.words.len();
                for s in slices {
                    push_widened(&mut self.words, s.as_words(), self.stride);
                }
                Row::Explicit {
                    start,
                    count: slices.len(),
                }
            }
            SliceFamily::AllSubsets { of, size } => {
                let start = self.words.len();
                push_widened(&mut self.words, of.as_words(), self.stride);
                Row::Threshold { start, size: *size }
            }
        }
    }

    /// Grows the stride (re-packing every row) so rows span at least
    /// `needed` words.
    fn ensure_stride(&mut self, needed: usize) {
        if needed > self.stride {
            self.repack(needed);
        }
    }

    /// Rewrites `words` with the given stride, dropping garbage.
    fn repack(&mut self, new_stride: usize) {
        let old_stride = self.stride;
        let old_words = std::mem::take(&mut self.words);
        let mut new_words = Vec::with_capacity(old_words.len() - self.garbage.min(old_words.len()));
        for row in &mut self.rows {
            *row = match *row {
                Row::Empty => Row::Empty,
                Row::Explicit { start, count } => {
                    let new_start = new_words.len();
                    for k in 0..count {
                        push_widened(
                            &mut new_words,
                            &old_words[start + k * old_stride..start + (k + 1) * old_stride],
                            new_stride,
                        );
                    }
                    Row::Explicit {
                        start: new_start,
                        count,
                    }
                }
                Row::Threshold { start, size } => {
                    let new_start = new_words.len();
                    push_widened(
                        &mut new_words,
                        &old_words[start..start + old_stride],
                        new_stride,
                    );
                    Row::Threshold {
                        start: new_start,
                        size,
                    }
                }
            };
        }
        self.words = new_words;
        self.stride = new_stride;
        self.garbage = 0;
    }

    /// Loads `set` into `buf` at engine stride, truncating ids the engine
    /// has never seen (they appear in no slice, so they cannot influence
    /// any subset/intersection test) and masking off ids without a row
    /// (processes with unknown slices can never certify a quorum).
    fn load_members(&self, set: &ProcessSet, buf: &mut Vec<u64>) {
        buf.clear();
        buf.resize(self.stride, 0);
        for (k, w) in set.as_words().iter().take(self.stride).enumerate() {
            buf[k] = *w;
        }
        // Mask to ids < n.
        let n = self.rows.len();
        for (k, w) in buf.iter_mut().enumerate() {
            let lo = k * BITS;
            if lo >= n {
                *w = 0;
            } else if n - lo < BITS {
                *w &= (1u64 << (n - lo)) - 1;
            }
        }
    }

    /// The per-member test of Algorithm 1 against the packed candidate
    /// words: does process `i` have a slice inside `cur`?
    #[inline]
    fn row_satisfied(&self, i: usize, cur: &[u64]) -> bool {
        match self.rows[i] {
            Row::Empty => false,
            Row::Explicit { start, count } => (0..count).any(|k| {
                let row = &self.words[start + k * self.stride..start + (k + 1) * self.stride];
                row.iter().zip(cur).all(|(r, q)| r & !q == 0)
            }),
            Row::Threshold { start, size } => {
                let of = &self.words[start..start + self.stride];
                let mut hits = 0usize;
                for (o, q) in of.iter().zip(cur) {
                    hits += (o & q).count_ones() as usize;
                    if hits >= size {
                        return true;
                    }
                }
                hits >= size
            }
        }
    }

    /// Algorithm 1 (`is_quorum`) with caller-provided scratch.
    pub fn is_quorum_in(&self, q: &ProcessSet, scratch: &mut EngineScratch) -> bool {
        // Any member beyond the compiled rows has no slices: not a quorum.
        if q.iter().any(|i| i.index() >= self.rows.len()) {
            return false;
        }
        self.load_members(q, &mut scratch.cur);
        if scratch.cur.iter().all(|w| *w == 0) {
            return false;
        }
        for_each_bit(&scratch.cur, |i| self.row_satisfied(i, &scratch.cur)).is_none()
    }

    /// Algorithm 1 (`is_quorum`); allocates a scratch per call — prefer
    /// [`QuorumEngine::is_quorum_in`] in loops.
    pub fn is_quorum(&self, q: &ProcessSet) -> bool {
        self.is_quorum_in(q, &mut self.scratch())
    }

    /// Worklist quorum closure: writes the largest quorum contained in `u`
    /// (or the empty set) into `out`, reusing `scratch` and `out`'s
    /// allocations.
    ///
    /// Every member is examined once; after that, a member is only
    /// re-examined when a process its slices mention was discarded —
    /// `O(edges)` re-checks instead of the naive `O(rounds × |u|)` rescans.
    pub fn quorum_closure_in(
        &self,
        u: &ProcessSet,
        scratch: &mut EngineScratch,
        out: &mut ProcessSet,
    ) {
        self.closure_fixpoint(u, scratch);
        out.copy_from_words(&scratch.cur);
    }

    /// Runs the worklist fixpoint, leaving the closure in `scratch.cur`.
    fn closure_fixpoint(&self, u: &ProcessSet, scratch: &mut EngineScratch) {
        self.load_members(u, &mut scratch.cur);
        scratch.queue.clear();
        scratch.queued.clear();
        scratch.queued.extend_from_slice(&scratch.cur);
        seed_queue(&scratch.cur, &mut scratch.queue);

        while let Some(i) = scratch.queue.pop() {
            let i = i as usize;
            let (k, bit) = (i / BITS, i % BITS);
            scratch.queued[k] &= !(1u64 << bit);
            if scratch.cur[k] & (1u64 << bit) == 0 {
                continue;
            }
            if self.row_satisfied(i, &scratch.cur) {
                continue;
            }
            // Discard i; re-examine the survivors whose slices mention i.
            scratch.cur[k] &= !(1u64 << bit);
            if let Some(dependents) = self.deps.get(i) {
                for d in dependents {
                    let (dk, dbit) = (d.index() / BITS, d.index() % BITS);
                    if dk < self.stride
                        && scratch.cur[dk] & (1u64 << dbit) != 0
                        && scratch.queued[dk] & (1u64 << dbit) == 0
                    {
                        scratch.queued[dk] |= 1u64 << dbit;
                        scratch.queue.push(d.index() as u32);
                    }
                }
            }
        }
    }

    /// Worklist quorum closure; allocates per call — prefer
    /// [`QuorumEngine::quorum_closure_in`] in loops.
    pub fn quorum_closure(&self, u: &ProcessSet) -> ProcessSet {
        let mut out = ProcessSet::new();
        self.quorum_closure_in(u, &mut self.scratch(), &mut out);
        out
    }

    /// Returns `true` if some (non-empty) quorum is contained in `u`
    /// (allocation-free: the fixpoint result is inspected in the scratch).
    pub fn contains_quorum_in(&self, u: &ProcessSet, scratch: &mut EngineScratch) -> bool {
        self.closure_fixpoint(u, scratch);
        scratch.cur.iter().any(|w| *w != 0)
    }

    /// Returns `true` if some (non-empty) quorum is contained in `u`.
    pub fn contains_quorum(&self, u: &ProcessSet) -> bool {
        !self.quorum_closure(u).is_empty()
    }

    /// Returns `true` if `b` is v-blocking for process `i`: `b` intersects
    /// every compiled slice of `i`. Processes without a row (or with no
    /// slices) are vacuously blocked by every set.
    pub fn is_v_blocking(&self, i: ProcessId, b: &ProcessSet) -> bool {
        let Some(row) = self.rows.get(i.index()) else {
            return true;
        };
        let b_words = b.as_words();
        match *row {
            Row::Empty => true,
            Row::Explicit { start, count } => (0..count).all(|k| {
                let row = &self.words[start + k * self.stride..start + (k + 1) * self.stride];
                row.iter()
                    .zip(b_words.iter().chain(std::iter::repeat(&0)))
                    .any(|(r, q)| r & q != 0)
            }),
            Row::Threshold { start, size } => {
                // Every size-subset of `of` hits b ⟺ |of \ b| < size.
                let of = &self.words[start..start + self.stride];
                let free: usize = of
                    .iter()
                    .zip(b_words.iter().chain(std::iter::repeat(&0)))
                    .map(|(o, q)| (o & !q).count_ones() as usize)
                    .sum();
                free < size
            }
        }
    }

    /// The processes for which `b` is v-blocking.
    pub fn blocked_processes(&self, b: &ProcessSet) -> ProcessSet {
        (0..self.rows.len() as u32)
            .map(ProcessId::new)
            .filter(|&i| self.is_v_blocking(i, b))
            .collect()
    }
}

/// The packed width (in words) needed by a family's widest member id.
fn family_width(family: &SliceFamily) -> usize {
    match family {
        SliceFamily::Explicit(slices) => {
            slices.iter().map(|s| s.as_words().len()).max().unwrap_or(0)
        }
        SliceFamily::AllSubsets { of, .. } => of.as_words().len(),
    }
}

/// Appends `src` to `dst`, zero-padded to `stride` words.
fn push_widened(dst: &mut Vec<u64>, src: &[u64], stride: usize) {
    debug_assert!(src.len() <= stride);
    dst.extend_from_slice(src);
    dst.extend(std::iter::repeat_n(0, stride - src.len()));
}

/// Calls `test` for every set bit; returns the first index failing it.
fn for_each_bit<F: FnMut(usize) -> bool>(words: &[u64], mut test: F) -> Option<usize> {
    for (k, w) in words.iter().enumerate() {
        let mut word = *w;
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            let i = k * BITS + bit;
            if !test(i) {
                return Some(i);
            }
        }
    }
    None
}

/// Seeds the closure worklist with every set bit of `words`.
fn seed_queue(words: &[u64], queue: &mut Vec<u32>) {
    for (k, w) in words.iter().enumerate() {
        let mut word = *w;
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            queue.push((k * BITS + bit) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper, quorum, reference};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn engine_matches_naive_on_fig1() {
        let sys = paper::fig1_system();
        let engine = sys.engine();
        let mut scratch = engine.scratch();
        // Every subset of the 8-process universe.
        for mask in 0u32..256 {
            let q: ProcessSet = (0..8)
                .filter(|b| mask & (1 << b) != 0)
                .collect::<Vec<_>>()
                .into_iter()
                .map(ProcessId::new)
                .collect();
            assert_eq!(
                engine.is_quorum_in(&q, &mut scratch),
                reference::is_quorum(&sys, &q),
                "is_quorum mismatch on {q}"
            );
            let mut closed = ProcessSet::new();
            engine.quorum_closure_in(&q, &mut scratch, &mut closed);
            assert_eq!(
                closed,
                reference::quorum_closure(&sys, &q),
                "closure mismatch on {q}"
            );
            for i in 0..8u32 {
                assert_eq!(
                    engine.is_v_blocking(p(i), &q),
                    reference::is_v_blocking(&sys, p(i), &q),
                    "v-blocking mismatch for {i} on {q}"
                );
            }
        }
        let u = sys.universe();
        assert_eq!(
            quorum::enumerate_quorums(&sys, &u, 1 << 8),
            Some(reference::enumerate_quorums(&sys, &u))
        );
    }

    #[test]
    fn paper_quorums_via_engine() {
        let sys = paper::fig1_system();
        let engine = sys.engine();
        let q = ProcessSet::from_ids([4, 5, 6]);
        assert!(engine.is_quorum(&q));
        assert!(!engine.is_quorum(&ProcessSet::from_ids([4, 5])));
        assert!(!engine.is_quorum(&ProcessSet::new()));
        assert!(engine.contains_quorum(&sys.universe()));
        assert!(!engine.contains_quorum(&ProcessSet::from_ids([4, 5])));
    }

    #[test]
    fn incremental_rows_match_batch_compilation() {
        let sys = paper::fig1_system();
        let batch = sys.engine();
        // Insert rows in reverse order, with one overwrite.
        let mut inc = QuorumEngine::new(0);
        inc.set_slices(p(3), &SliceFamily::empty());
        for i in (0..sys.n() as u32).rev() {
            inc.set_slices(p(i), sys.slices(p(i)));
        }
        let u = sys.universe();
        assert_eq!(inc.quorum_closure(&u), batch.quorum_closure(&u));
        for mask in [0b111_0000u32, 0b101_1011, 0b1111_1111, 0b1] {
            let q: ProcessSet = (0..8)
                .filter(|b| mask & (1 << b) != 0)
                .map(ProcessId::new)
                .collect();
            assert_eq!(inc.is_quorum(&q), batch.is_quorum(&q), "q = {q}");
        }
    }

    #[test]
    fn unknown_slices_cannot_certify() {
        // Only process 4's slices are known: closure drops everyone.
        let sys = paper::fig1_system();
        let mut engine = QuorumEngine::new(8);
        engine.set_slices(p(4), sys.slices(p(4)));
        let q = ProcessSet::from_ids([4, 5, 6]);
        assert!(engine.quorum_closure(&q).is_empty());
        assert!(!engine.is_quorum(&q));
        // Once 5 and 6 are known, {4,5,6} certifies again.
        engine.set_slices(p(5), sys.slices(p(5)));
        engine.set_slices(p(6), sys.slices(p(6)));
        assert!(engine.is_quorum(&q));
    }

    #[test]
    fn out_of_range_members_are_dropped() {
        let sys = paper::fig1_system();
        let engine = sys.engine();
        let mut q = ProcessSet::from_ids([4, 5, 6]);
        q.insert(p(300));
        assert!(!engine.is_quorum(&q), "member without a row");
        assert_eq!(
            engine.quorum_closure(&q),
            ProcessSet::from_ids([4, 5, 6]),
            "closure discards the unknown member"
        );
        assert!(engine.is_v_blocking(p(300), &ProcessSet::new()));
    }

    #[test]
    fn stride_grows_when_wide_ids_appear() {
        let mut engine = QuorumEngine::new(2);
        engine.set_slices(p(0), &SliceFamily::explicit([ProcessSet::from_ids([1])]));
        engine.set_slices(p(1), &SliceFamily::explicit([ProcessSet::from_ids([0])]));
        assert!(engine.is_quorum(&ProcessSet::from_ids([0, 1])));
        // A family mentioning id 400 forces a re-stride of existing rows.
        engine.set_slices(
            p(1),
            &SliceFamily::explicit([ProcessSet::from_ids([0]), ProcessSet::from_ids([400])]),
        );
        assert!(engine.is_quorum(&ProcessSet::from_ids([0, 1])));
        assert!(!engine.is_quorum(&ProcessSet::from_ids([1])));
    }

    #[test]
    fn repeated_overwrites_stay_bounded() {
        // Compaction keeps storage proportional to the live rows even under
        // adversarial re-recording (equivocators re-announcing slices).
        let mut engine = QuorumEngine::new(4);
        let fam_a = SliceFamily::explicit([ProcessSet::from_ids([1, 2])]);
        let fam_b =
            SliceFamily::explicit([ProcessSet::from_ids([2, 3]), ProcessSet::from_ids([1])]);
        for round in 0..10_000 {
            let fam = if round % 2 == 0 { &fam_a } else { &fam_b };
            engine.set_slices(p(0), fam);
        }
        assert!(
            engine.words.len() < 4096,
            "storage must stay bounded, got {} words",
            engine.words.len()
        );
    }

    #[test]
    fn v_blocking_threshold_and_explicit() {
        let f = SliceFamily::all_subsets(ProcessSet::from_ids([0, 1, 2]), 2);
        let mut engine = QuorumEngine::new(1);
        engine.set_slices(p(0), &f);
        assert!(engine.is_v_blocking(p(0), &ProcessSet::from_ids([0, 1])));
        assert!(!engine.is_v_blocking(p(0), &ProcessSet::from_ids([0])));
        // Empty family: vacuously blocked.
        engine.set_slices(p(0), &SliceFamily::empty());
        assert!(engine.is_v_blocking(p(0), &ProcessSet::new()));
    }

    #[test]
    fn blocked_processes_matches_naive() {
        let sys = paper::fig1_system();
        let engine = sys.engine();
        for b in [
            ProcessSet::from_ids([4, 5, 6]),
            ProcessSet::from_ids([3]),
            ProcessSet::new(),
        ] {
            assert_eq!(
                engine.blocked_processes(&b),
                reference::blocked_processes(&sys, &b)
            );
        }
    }

    #[test]
    fn fig1_correct_slices_survive_f8() {
        // With F = {8}, every correct process of the paper's example keeps a
        // fully correct slice (Lemma 2 is satisfiable): F blocks nobody
        // but 8 itself, which declares no slices.
        let sys = paper::fig1_system();
        let blocked = sys.engine().blocked_processes(&paper::fig1_faulty());
        assert_eq!(blocked, ProcessSet::from_ids([7]));
    }

    #[test]
    fn faulty_set_blocks_single_slice_processes() {
        let sys = paper::fig1_system();
        let engine = sys.engine();
        // S2 = {{4}} (0-based {3}): the set {3} is v-blocking for process 1.
        assert!(engine.is_v_blocking(p(1), &ProcessSet::from_ids([3])));
        // S5 = {{6,7}} (0-based {{5,6}}): {5} blocks, {3} does not.
        assert!(engine.is_v_blocking(p(4), &ProcessSet::from_ids([5])));
        assert!(!engine.is_v_blocking(p(4), &ProcessSet::from_ids([3])));
    }

    #[test]
    fn blocked_processes_of_sink_core() {
        // Every slice but 1's {3} meets the sink core {4,5,6}: blocking
        // all three blocks everyone else (7 vacuously, having no slices).
        let sys = paper::fig1_system();
        let blocked = sys
            .engine()
            .blocked_processes(&ProcessSet::from_ids([4, 5, 6]));
        assert_eq!(blocked, ProcessSet::from_ids([0, 2, 3, 4, 5, 6, 7]));
    }

    #[test]
    fn lemma2_violation_detected() {
        // If 5 (paper 6) were faulty too, process 3 (paper 4), with slices
        // {{4,5},{5,7}} (0-based), has no all-correct slice left: the faulty
        // set {5, 7} is v-blocking for it — and for 4 and 6, whose slices
        // all contain 5 as well.
        let sys = paper::fig1_system();
        let faulty = ProcessSet::from_ids([5, 7]);
        let blocked = sys.engine().blocked_processes(&faulty);
        let correct = ProcessSet::from_ids([0, 1, 2, 3, 4, 6]);
        assert_eq!(
            blocked.intersection(&correct),
            ProcessSet::from_ids([3, 4, 6])
        );
    }
}
