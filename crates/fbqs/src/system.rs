use std::fmt;

use scup_graph::{ProcessId, ProcessSet};

use crate::{QuorumEngine, SliceFamily};

/// A Federated Byzantine Quorum System: one [`SliceFamily`] per process.
///
/// This is the *declared* view of the system — the slices processes claim
/// in their messages. Byzantine processes may declare arbitrary slices (the
/// paper notes they "can define \[their\] slices arbitrarily"); protocol-level
/// equivocation about slices is modeled in the simulation crates, while this
/// structure supports the global analyses of Sections IV–V.
///
/// A system is immutable: [`Fbqs::new`] compiles its [`QuorumEngine`] once,
/// and every analysis ([`crate::quorum`], [`crate::intertwined`],
/// [`crate::cluster`]) queries that one engine through [`Fbqs::engine`].
///
/// # Example
///
/// ```
/// use scup_fbqs::{Fbqs, SliceFamily};
/// use scup_graph::ProcessSet;
///
/// let sys = Fbqs::new(vec![
///     SliceFamily::explicit([ProcessSet::from_ids([1])]),
///     SliceFamily::explicit([ProcessSet::from_ids([0])]),
/// ]);
/// assert_eq!(sys.n(), 2);
/// assert!(sys.engine().is_quorum(&ProcessSet::from_ids([0, 1])));
/// ```
#[derive(Clone)]
pub struct Fbqs {
    families: Vec<SliceFamily>,
    engine: QuorumEngine,
}

impl Fbqs {
    /// Creates a system from per-process slice families; process `i` gets
    /// `families[i]`. Compiles the system's [`QuorumEngine`].
    pub fn new(families: Vec<SliceFamily>) -> Self {
        let engine = QuorumEngine::from_families(families.len(), &families);
        Fbqs { families, engine }
    }

    /// Number of processes `|Π|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.families.len()
    }

    /// The slice family `S_i` of process `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn slices(&self, i: ProcessId) -> &SliceFamily {
        &self.families[i.index()]
    }

    /// The compiled engine every quorum analysis of this system runs on.
    #[inline]
    pub fn engine(&self) -> &QuorumEngine {
        &self.engine
    }

    /// Iterates over all process ids.
    pub fn processes(&self) -> impl ExactSizeIterator<Item = ProcessId> + '_ {
        (0..self.n() as u32).map(ProcessId::new)
    }

    /// The full process set `Π`.
    pub fn universe(&self) -> ProcessSet {
        ProcessSet::full(self.n())
    }

    /// `Π_i`: the processes referenced by `i`'s slices (the paper assumes
    /// `⋃ S_i = Π_i`).
    pub fn known_by(&self, i: ProcessId) -> ProcessSet {
        self.slices(i).members()
    }
}

impl fmt::Debug for Fbqs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fbqs(n={})", self.n())?;
        for i in self.processes() {
            writeln!(f, "  S_{} = {:?}", i.as_u32(), self.slices(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let sys = Fbqs::new(vec![
            SliceFamily::explicit([ProcessSet::from_ids([1, 2])]),
            SliceFamily::empty(),
            SliceFamily::all_subsets(ProcessSet::from_ids([0, 1]), 1),
        ]);
        assert_eq!(sys.n(), 3);
        assert_eq!(sys.universe(), ProcessSet::full(3));
        assert_eq!(
            sys.known_by(ProcessId::new(0)),
            ProcessSet::from_ids([1, 2])
        );
        assert_eq!(
            sys.known_by(ProcessId::new(2)),
            ProcessSet::from_ids([0, 1])
        );
        assert!(!sys.slices(ProcessId::new(1)).has_slices());
        assert_eq!(sys.engine().n(), 3);
    }
}
