//! The symmetry reduction: a sound state-space quotient over
//! interchangeable nodes (full permutations, not just transpositions).
//!
//! # Symmetry
//!
//! A permutation `π` of the processes is *admissible* when it is an
//! automorphism of the whole initial configuration: the knowledge graph
//! maps onto itself (`π(PD(u)) = PD(π(u))`), each process's slice family
//! maps onto the image process's family (member ids renamed, slice order
//! preserved), inputs agree, the adversary role is preserved — and, for
//! value-injecting adversaries, the victim-split parity is preserved (see
//! below). Every admissible permutation maps reachable states to
//! reachable states of the *same depth and safety verdict*, because the
//! protocol actors treat process ids opaquely (SCP nodes compare and
//! store ids but never order behaviour on their numeric values) and the
//! explorer's untimed semantics carries no id-dependent scheduling.
//!
//! Candidates are enumerated structurally: processes are grouped into
//! classes by a cheap invariant signature (faulty role, input, PD size,
//! in-degree, self-knowledge, slice shape) that any admissible
//! permutation must preserve, and the product of per-class symmetric
//! groups (capped at `GROUP_CAP`, smallest classes first) is filtered
//! by full verification of **every** candidate. This finds *rotations* —
//! the directed 3-cycle sink has no valid transposition at all, but its
//! two rotations are admissible — where the previous
//! transposition-generated union-find could not. The verified set is the
//! intersection of three groups (the automorphism group, the candidate
//! product group, and the victim-parity-admissible group), hence itself a
//! group; classes dropped by the cap are **counted** and surfaced in the
//! report (`dropped_classes` / `dropped_arrangements`) — never silent.
//!
//! The quotient is taken by hashing: the canonical hash of a state is the
//! **minimum over the group** of the renamed state hashes
//! ([`ExploreSim::state_hash_perm`]), each mixed with the renamed
//! adversary *variant*. Sorting per-node sub-fingerprints alone would
//! *not* be a sound quotient — node A's tally mentions node B's id, so
//! renaming must be applied to the entire state, which the min-over-group
//! does.
//!
//! ## The victim-split quotient
//!
//! Value-injecting adversaries (`equivocate`, `forged-slice`) pick
//! victims by enumeration parity over the adversary's live `known` set:
//! victim at enumeration index `i` receives `values[(i + split) % 2]`,
//! where `split` is the explored variant. Renaming processes permutes
//! enumeration indices, so a permutation is only sound if it shifts
//! every victim's parity by one *constant* `c ∈ {0, 1}` — then the
//! quotient identifies `(state, variant)` with `(π(state),
//! (variant + c) mod 2)`, and the canonical hash permutes the variant
//! index *with* the nodes.
//!
//! The adversary's `known` set is **dynamic** (delivery auto-learns the
//! sender), so the shift must be constant for every reachable knowledge
//! set `K ⊇ F`, where `F = PD(adversary)` is its initial knowledge. The
//! exact admissibility condition (derived from the index-shift algebra
//! `D(K, j) = Σ_{k∈K} inv(k, j)`):
//!
//! 1. every inversion pair of `π` lies inside `F × F` (pairs involving
//!    the adversary itself are exempt when it is outside its own `F` —
//!    it never enters its own knowledge); then later-learned processes
//!    never move any victim's index parity;
//! 2. the parity shift `D(F, j) mod 2` is one constant `c` over the
//!    initial victims `j ∈ F \ {adversary}`;
//! 3. if any process outside `F` can ever be learned (conservatively:
//!    one exists), late victims force `c = 0`.
//!
//! Shifts compose additively mod 2, so the admissible set is a group.
//! For BFT-CUP's equivocating leader the victims are the sink members,
//! which candidate classes exclude (see below) — every victim is fixed
//! and the shift is 0 by construction.
//!
//! Remaining restrictions, each load-bearing for soundness:
//!
//! - **Value-injecting adversaries are fixed pointwise** (excluded from
//!   candidate classes): their in-flight forged messages embed their own
//!   id in slice families.
//! - **Silent/echo faulty pairs ignore inputs** (a silent actor never
//!   reads one); every other pair must agree on inputs.
//! - **BFT-CUP classes exclude the sink**: the view leader is picked by
//!   the numeric order of the member ids (`leader(v) =
//!   sorted(members)[v mod |members|]`), so renaming sink members does
//!   not rename the leader schedule. Processes outside the sink never
//!   enter the leader rotation (discovery, asking and `f + 1` adoption
//!   are all set-based). No unique sink ⇒ no sound class at all.
//! - The candidate enumeration is capped (`GROUP_CAP`); oversized
//!   classes contribute nothing (identity-only), which is always sound —
//!   and now counted.

use scup_graph::{sink, ProcessId, ProcessSet};
use scup_harness::scenario::ProtocolSpec;
use scup_harness::AdversaryKind;
use scup_sim::{ExploreSim, Perm, SimMessage};

use crate::build::Setup;

/// Permutation-group size cap: 6 interchangeable nodes (720 renamed
/// hashes per state) is far beyond what exhaustible systems need, and the
/// cap keeps a degenerate all-symmetric scenario from hashing forever.
const GROUP_CAP: usize = 720;

/// Mixes the adversary variant into a state hash. Variant 0 is the
/// identity (single-variant scenarios hash exactly as before); distinct
/// variants of an otherwise identical state land on distinct hashes —
/// the engine-level replacement for fingerprinting the adversary's
/// `split` field, which the victim-split quotient must be free to
/// permute.
#[inline]
fn mix_variant(h: u128, variant: u32) -> u128 {
    h ^ 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835u128.wrapping_mul(variant as u128)
}

/// The admissible permutation group of one scenario, precomputed by
/// [`Symmetry::compute`]. Trivial (identity-only) when the scenario has
/// no interchangeable nodes or symmetry is disabled.
#[derive(Debug, Clone)]
pub struct Symmetry {
    /// Every non-identity group element.
    perms: Vec<Perm>,
    /// Per-perm variant shift (parallel to `perms`): the canonical hash
    /// of `(state, v)` under perm `i` uses variant `(v + shifts[i]) mod
    /// variants`.
    shifts: Vec<u32>,
    /// Number of adversary variants the scenario explores (hash-mixing
    /// modulus; 1 ⇒ mixing is the identity).
    variants: u32,
    /// Sizes of the node orbits (≥ 2 members) under the verified group.
    class_sizes: Vec<u64>,
    /// Candidate classes never expanded because of [`GROUP_CAP`].
    dropped_classes: u64,
    /// Non-identity arrangements those dropped classes would have
    /// contributed (Σ (|class|! − 1)).
    dropped_arrangements: u64,
}

impl Symmetry {
    /// The trivial (identity-only) group for a single-variant scenario.
    pub fn trivial() -> Self {
        Symmetry {
            perms: Vec::new(),
            shifts: Vec::new(),
            variants: 1,
            class_sizes: Vec::new(),
            dropped_classes: 0,
            dropped_arrangements: 0,
        }
    }

    /// The trivial group for `setup` — identity-only, but still mixing
    /// the scenario's variant count into every hash. Unreduced
    /// (symmetry-off) exploration of a multi-variant scenario must keep
    /// `(state, variant)` pairs distinct even though the adversary's
    /// `split` is no longer part of the actor fingerprint.
    pub fn trivial_for(setup: &Setup) -> Self {
        Symmetry {
            variants: setup.variants(),
            ..Symmetry::trivial()
        }
    }

    /// Computes the admissible permutation group of `setup`: candidate
    /// classes by invariant signature, product-of-symmetric-groups
    /// enumeration (capped at `GROUP_CAP`, drops counted), then full
    /// verification of every candidate — automorphism of graph, slices,
    /// inputs and adversary role, plus victim-split admissibility for
    /// value-injecting adversaries.
    pub fn compute(setup: &Setup) -> Self {
        let variants = setup.variants();
        let value_injecting = !matches!(
            setup.config.adversary,
            AdversaryKind::Silent | AdversaryKind::Crash { .. } | AdversaryKind::Echo
        );
        // BFT-CUP: sink members are pinned (see module docs); no unique
        // sink ⇒ no sound class at all.
        let bft_sink: Option<ProcessSet> = match setup.protocol {
            ProtocolSpec::BftCup => match sink::unique_sink(setup.kg.graph()) {
                Some(v_sink) => Some(v_sink),
                None => return Symmetry::trivial_for(setup),
            },
            _ => None,
        };

        let n = setup.kg.n();
        let mut indegree = vec![0usize; n];
        for u in 0..n {
            for p in setup.kg.pd(ProcessId::new(u as u32)).iter() {
                indegree[p.index()] += 1;
            }
        }

        // Candidate classes: nodes sharing every cheap invariant any
        // admissible permutation must preserve. Verification of each
        // candidate does the exact (graph/slice/parity) work.
        type Signature = (bool, Option<u64>, usize, usize, bool, Vec<u64>);
        let mut classes: Vec<(Signature, Vec<u32>)> = Vec::new();
        for (i, &deg) in indegree.iter().enumerate() {
            let pid = ProcessId::new(i as u32);
            let faulty = setup.faulty.contains(pid);
            // Value-injecting adversaries stay pinned; so do BFT-CUP
            // sink members.
            if (faulty && value_injecting) || bft_sink.as_ref().is_some_and(|s| s.contains(pid)) {
                continue;
            }
            let inputless = faulty
                && matches!(
                    setup.config.adversary,
                    AdversaryKind::Silent | AdversaryKind::Echo
                );
            let input = (!inputless).then(|| setup.inputs()[i]);
            let pd = setup.kg.pd(pid);
            let slice_shape: Vec<u64> = if setup.slices.is_empty() {
                Vec::new()
            } else {
                match &setup.slices[i] {
                    scup_fbqs::SliceFamily::Explicit(slices) => {
                        let mut sizes: Vec<u64> = slices.iter().map(|s| s.len() as u64).collect();
                        sizes.sort_unstable();
                        sizes
                    }
                    scup_fbqs::SliceFamily::AllSubsets { of, size } => {
                        vec![u64::MAX, of.len() as u64, *size as u64]
                    }
                }
            };
            let sig: Signature = (faulty, input, pd.len(), deg, pd.contains(pid), slice_shape);
            match classes.iter_mut().find(|(s, _)| *s == sig) {
                Some((_, members)) => members.push(i as u32),
                None => classes.push((sig, vec![i as u32])),
            }
        }
        let mut classes: Vec<Vec<u32>> = classes
            .into_iter()
            .map(|(_, m)| m)
            .filter(|m| m.len() > 1)
            .collect();

        // Expand the product of symmetric groups, smallest classes first,
        // stopping before the cap. Dropping a class is always sound — and
        // always counted.
        classes.sort_by_key(Vec::len);
        let mut candidates: Vec<Vec<u32>> = vec![(0..n as u32).collect()];
        let mut dropped_classes = 0u64;
        let mut dropped_arrangements = 0u64;
        for class in &classes {
            let factor: usize = (1..=class.len()).product();
            if candidates.len() * factor > GROUP_CAP {
                dropped_classes += 1;
                dropped_arrangements += factor as u64 - 1;
                continue;
            }
            let arrangements = permutations_of(class);
            let mut expanded = Vec::with_capacity(candidates.len() * arrangements.len());
            for base in &candidates {
                for arrangement in &arrangements {
                    let mut map = base.clone();
                    for (slot, &member) in class.iter().zip(arrangement) {
                        map[*slot as usize] = member;
                    }
                    expanded.push(map);
                }
            }
            candidates = expanded;
        }

        // Verify every candidate. The survivors form the intersection of
        // three groups (automorphisms ∩ candidate product ∩
        // parity-admissible), hence a group.
        let mut perms = Vec::new();
        let mut shifts = Vec::new();
        for map in candidates {
            if map.iter().enumerate().all(|(i, &m)| i as u32 == m) {
                continue; // identity
            }
            if !permutation_ok(setup, &map) {
                continue;
            }
            let Some(shift) = victim_shift(setup, &map, variants) else {
                continue;
            };
            perms.push(Perm::from_map(map));
            shifts.push(shift);
        }

        // Interchangeability classes = node orbits of the verified group.
        let mut orbit: Vec<usize> = (0..n).collect();
        for p in &perms {
            for i in 0..n {
                let j = p.apply(ProcessId::new(i as u32)).index();
                let (ri, rj) = (orbit_find(&mut orbit, i), orbit_find(&mut orbit, j));
                if ri != rj {
                    orbit[ri] = rj;
                }
            }
        }
        let mut orbit_sizes = vec![0u64; n];
        for i in 0..n {
            orbit_sizes[orbit_find(&mut orbit, i)] += 1;
        }
        let mut class_sizes: Vec<u64> = orbit_sizes.into_iter().filter(|&s| s > 1).collect();
        class_sizes.sort_unstable();

        Symmetry {
            perms,
            shifts,
            variants,
            class_sizes,
            dropped_classes,
            dropped_arrangements,
        }
    }

    /// Group order, identity included.
    pub fn group_order(&self) -> u64 {
        self.perms.len() as u64 + 1
    }

    /// Sizes of the nontrivial node orbits under the verified group.
    pub fn class_sizes(&self) -> &[u64] {
        &self.class_sizes
    }

    /// Candidate classes never expanded because of `GROUP_CAP`.
    pub fn dropped_classes(&self) -> u64 {
        self.dropped_classes
    }

    /// Non-identity arrangements the dropped classes would have
    /// contributed.
    pub fn dropped_arrangements(&self) -> u64 {
        self.dropped_arrangements
    }

    /// `true` when only the identity remains.
    pub fn is_trivial(&self) -> bool {
        self.perms.is_empty()
    }

    /// Every non-identity group element with its variant shift, in the
    /// order whose index [`Symmetry::canonicalize_from`] hands to
    /// [`ExploreSim::state_hash_perm`].
    pub fn elements(&self) -> impl Iterator<Item = (&Perm, u32)> {
        self.perms.iter().zip(self.shifts.iter().copied())
    }

    /// The canonical (minimum-over-group) hash of `(state, variant)` and
    /// whether its orbit under the group is nontrivial (some renaming
    /// yields a different pair) — the per-state "symmetry hit" statistic.
    /// Orbit nontriviality is invariant across the orbit, so the flag is
    /// a pure function of the *canonical* state — deterministic however
    /// the class was first reached.
    pub fn canonical_hash<M: SimMessage>(&self, sim: &ExploreSim<M>, variant: u32) -> (u128, bool) {
        self.canonicalize_from(sim, variant, self.identity_hash(sim, variant))
    }

    /// The pair's own (identity-permutation) hash — the *fingerprint*
    /// half of [`Symmetry::canonical_hash`], split out so the explorer's
    /// phase profiler can time it separately from the group sweep.
    pub fn identity_hash<M: SimMessage>(&self, sim: &ExploreSim<M>, variant: u32) -> u128 {
        mix_variant(sim.state_hash(), variant)
    }

    /// The min-over-group sweep from a precomputed identity hash — the
    /// *canonicalize* half of [`Symmetry::canonical_hash`]. Each group
    /// element renames the state *and* shifts the variant index by its
    /// recorded parity shift. Returns the canonical hash and the
    /// orbit-nontriviality flag.
    pub fn canonicalize_from<M: SimMessage>(
        &self,
        sim: &ExploreSim<M>,
        variant: u32,
        identity: u128,
    ) -> (u128, bool) {
        let mut min = identity;
        let mut moved = false;
        for (k, (p, &shift)) in self.perms.iter().zip(&self.shifts).enumerate() {
            let v = if self.variants > 1 {
                (variant + shift) % self.variants
            } else {
                variant
            };
            // `k` keys the simulation's slot and event hash memos.
            let h = mix_variant(sim.state_hash_perm(k, p), v);
            moved |= h != identity;
            if h < min {
                min = h;
            }
        }
        (min, moved)
    }
}

fn orbit_find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Verifies that `map` (as `π(i) = map[i]`) is an automorphism of the
/// initial configuration: faulty role preserved (value-injecting faulty
/// fixed pointwise), inputs agree (mod silent/echo inputlessness),
/// `π(PD(u)) = PD(π(u))`, and each slice family maps verbatim onto the
/// image process's family.
fn permutation_ok(setup: &Setup, map: &[u32]) -> bool {
    let value_injecting = !matches!(
        setup.config.adversary,
        AdversaryKind::Silent | AdversaryKind::Crash { .. } | AdversaryKind::Echo
    );
    let apply = |p: ProcessId| ProcessId::new(map[p.index()]);
    let apply_set = |s: &ProcessSet| -> ProcessSet { s.iter().map(apply).collect() };
    for (u, &mu) in map.iter().enumerate() {
        let pu = ProcessId::new(u as u32);
        let image = mu as usize;
        let faulty_u = setup.faulty.contains(pu);
        if faulty_u != setup.faulty.contains(ProcessId::new(mu)) {
            return false;
        }
        if faulty_u && value_injecting && image != u {
            // An equivocator's forged slice family is `{{self}}` — its
            // own id is part of its in-flight messages.
            return false;
        }
        // Silent/echo faulty processes never read their input; everyone
        // else must agree on it (crash adversaries wrap a live node, so
        // inputs matter).
        let inputless = faulty_u
            && matches!(
                setup.config.adversary,
                AdversaryKind::Silent | AdversaryKind::Echo
            );
        if !inputless && setup.inputs()[u] != setup.inputs()[image] {
            return false;
        }
        // Knowledge graph: π(PD(u)) = PD(π(u)).
        if apply_set(setup.kg.pd(pu)) != *setup.kg.pd(ProcessId::new(mu)) {
            return false;
        }
        // Slices: renaming u's family must yield π(u)'s family verbatim
        // (slice order included — the explorer hashes families as
        // values). Protocols without pre-computed slices (BFT-CUP, full
        // stack) derive every slice-like structure deterministically
        // from the graph, whose symmetry the PD check above already
        // verifies.
        if setup.slices.is_empty() {
            continue;
        }
        let fam_mapped = match &setup.slices[u] {
            scup_fbqs::SliceFamily::Explicit(slices) => {
                scup_fbqs::SliceFamily::Explicit(slices.iter().map(apply_set).collect())
            }
            scup_fbqs::SliceFamily::AllSubsets { of, size } => scup_fbqs::SliceFamily::AllSubsets {
                of: apply_set(of),
                size: *size,
            },
        };
        if fam_mapped != setup.slices[image] {
            return false;
        }
    }
    true
}

/// The victim-split parity shift of `map`, or `None` when the
/// permutation is inadmissible under a value-injecting adversary. See
/// the module docs for the derivation. `Some(0)` for single-variant
/// scenarios (nothing to shift) and for BFT-CUP (victims — the sink
/// members — are fixed pointwise by every candidate).
fn victim_shift(setup: &Setup, map: &[u32], variants: u32) -> Option<u32> {
    if variants <= 1 {
        return Some(0);
    }
    let n = setup.kg.n();
    if setup.protocol == ProtocolSpec::BftCup {
        // The equivocating leader enumerates its discovered member set —
        // the sink, which candidate classes pin pointwise. Verify rather
        // than assume.
        let sink = sink::unique_sink(setup.kg.graph())?;
        for v in sink.iter() {
            if map[v.index()] != v.as_u32() {
                return None;
            }
        }
        return Some(0);
    }
    // SCP equivocators: one per faulty node, enumerating its live
    // `known` set, which starts at F = PD(adversary) and grows as
    // deliveries auto-learn senders.
    let mut shift: Option<u32> = None;
    for u in setup.faulty.iter() {
        let f = setup.kg.pd(u);
        // (1) Every inversion of `map` confined to F × F. Pairs
        // involving the adversary itself are exempt when it is outside
        // its own F — it never enters its own knowledge (learn() skips
        // self, and it never receives a message from itself).
        let u_in_f = f.contains(u);
        for x in 0..n {
            for y in x + 1..n {
                if map[x] <= map[y] {
                    continue;
                }
                let (px, py) = (ProcessId::new(x as u32), ProcessId::new(y as u32));
                if !u_in_f && (px == u || py == u) {
                    continue;
                }
                if !f.contains(px) || !f.contains(py) {
                    return None;
                }
            }
        }
        // (2) Constant parity shift over the initial victims.
        let mut c_u: Option<u32> = None;
        for j in f.iter() {
            if j == u {
                continue;
            }
            let mut d: i64 = 0;
            for k in f.iter() {
                if k.index() > j.index() && map[k.index()] < map[j.index()] {
                    d += 1;
                }
                if k.index() < j.index() && map[k.index()] > map[j.index()] {
                    d -= 1;
                }
            }
            let c = d.rem_euclid(2) as u32;
            match c_u {
                None => c_u = Some(c),
                Some(prev) if prev != c => return None,
                _ => {}
            }
        }
        // (3) Late-learned victims shift by 0; any process outside
        // F ∪ {u} forces c = 0 (conservatively reachable).
        let outsiders = (0..n).any(|p| {
            let pid = ProcessId::new(p as u32);
            pid != u && !f.contains(pid)
        });
        if outsiders {
            match c_u {
                Some(1) => return None,
                _ => c_u = Some(0),
            }
        }
        // (4) All equivocators share the one global variant index.
        if let Some(c) = c_u {
            match shift {
                None => shift = Some(c),
                Some(prev) if prev != c => return None,
                _ => {}
            }
        }
    }
    Some(shift.unwrap_or(0))
}

/// All arrangements of `items` (Heap's algorithm), deterministic order.
fn permutations_of(items: &[u32]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut work = items.to_vec();
    fn heap(k: usize, work: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if k <= 1 {
            out.push(work.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, work, out);
            if k.is_multiple_of(2) {
                work.swap(i, k - 1);
            } else {
                work.swap(0, k - 1);
            }
        }
    }
    heap(work.len(), &mut work, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_cover_factorial() {
        assert_eq!(permutations_of(&[1]).len(), 1);
        assert_eq!(permutations_of(&[1, 2]).len(), 2);
        let p3 = permutations_of(&[0, 1, 2]);
        assert_eq!(p3.len(), 6);
        let mut sorted = p3.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "all distinct");
    }

    #[test]
    fn perm_roundtrip() {
        let p = Perm::from_map(vec![2, 1, 0, 3]);
        assert!(!p.is_identity());
        assert_eq!(p.apply(ProcessId::new(0)), ProcessId::new(2));
        assert_eq!(p.apply_inv(ProcessId::new(2)), ProcessId::new(0));
        assert_eq!(p.apply(ProcessId::new(9)), ProcessId::new(9));
        assert_eq!(
            p.apply_set(&ProcessSet::from_ids([0, 3])),
            ProcessSet::from_ids([2, 3])
        );
    }

    #[test]
    fn variant_mixing_keeps_variant_zero_stable() {
        assert_eq!(mix_variant(42, 0), 42, "variant 0 is the identity mix");
        assert_ne!(mix_variant(42, 1), 42);
        assert_ne!(mix_variant(42, 1), mix_variant(42, 0));
    }
}
