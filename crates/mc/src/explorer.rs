//! The bounded explorer: uniform-cost (min-depth-first) search by
//! default with a legacy DFS discipline, visited-state memoization,
//! symmetry-canonical hashing, sleep-set partial-order reduction (DFS
//! only), sharded parallel frontier, and canonical minimal
//! counterexamples.
//!
//! # State graph
//!
//! A node is a *canonical* simulation state: all absorbed (no-op)
//! deliveries drained, identified by the **minimum-over-automorphism-group
//! state hash** (see [`crate::reduce::Symmetry`] — the quotient over
//! interchangeable processes). An edge fires one of the canonical
//! branching choices — **every** pending event, deduplicated by event hash
//! (see [`ExploreSim::choices`] for why no recipient may be privileged).
//!
//! Three reductions keep this tractable without losing schedules:
//!
//! - **absorbed no-op deliveries** fire eagerly without branching;
//! - **symmetry**: states that are renamings of one another along verified
//!   automorphisms collapse to one canonical hash, shrinking the state
//!   *count*;
//! - **eager-inert (persistent-set) firing**: a *threshold-inert*
//!   delivery ([`scup_sim::Actor::threshold_inert`], restricted to
//!   correct origins) commutes with every enabled alternative — siblings
//!   at its own recipient by inertness, everything else by
//!   recipient-disjointness — and stays inert forever, so the singleton
//!   `{e}` is a valid persistent set: firing `e` immediately (uncounted,
//!   like a drain) explores a representative of every interleaving. This
//!   collapses the flood tail and is the reduction that shrinks state
//!   *counts* by orders of magnitude (38 k instead of > 3 M on the
//!   3-proposer cycle);
//! - **sleep sets** (Godefroid-style, over the same dynamic independence
//!   via [`crate::reduce::ChoiceProfile`]): once a choice `e₁` has been
//!   explored from a state, sibling subtrees do not re-fire `e₁` until an
//!   event *dependent* on it fires. Visited caching is sleep-set-aware: a
//!   state is pruned only when an earlier cover subsumes it (see
//!   [`Cover`]), with each entry keeping a small Pareto frontier of
//!   covers.
//!
//! Each reduction preserves the **verdict** exactly — violation found or
//! not, minimal violating depth, decided values, completeness — pinned by
//! the differential tests against the unreduced semantics. Sleep sets do
//! *not* always preserve the raw state census: the explorer cuts
//! exploration at terminal (decided/violating) states, and a state whose
//! trace-equivalent sibling interleaving hits such a terminal earlier can
//! be skipped — harmless, because a skipped state's decisions equal those
//! of an extension of the visited terminal (same event multiset), so its
//! verdict contribution (violating-ness, decided value, and a ≤-depth
//! witness) is already on record.
//!
//! The once-tempting *recipient-priority* reduction (restricting which
//! recipients may fire at all) remains out: review of PR 3 showed it
//! unsound here — a later-created message can overtake a privileged
//! recipient's queue. The persistent sets used above are singletons of
//! provably globally-commuting events, which is a different (and sound)
//! instrument: nothing else is ever *excluded*, exploration of the inert
//! event is merely *forced first*.
//!
//! # Search disciplines
//!
//! The default discipline (`search = "ucs"`) is **uniform-cost**:
//! [`Engine::ucs`] expands a depth-layered frontier, so every state is
//! first reached at its *minimal* branching depth and expanded exactly
//! once — re-expansion count ~0 by construction. The legacy
//! `search = "dfs"` discipline ([`Engine::dfs`]) is *label-correcting*:
//! DFS order reaches many states deep-first, and each strictly shallower
//! revisit forces a full re-expansion to repair depths (167 656
//! re-expansions over 38 359 states on the three-proposer cycle — the
//! blowup that motivated the uniform-cost default). DFS remains the only
//! discipline supporting sleep sets (covers are scoped to DFS frames)
//! and anchors the differential battery that pins `ucs ≡ dfs` on
//! verdict, minimal depth, decided values and census.
//!
//! # Determinism across worker counts
//!
//! The first `frontier_depth` branch decisions are expanded serially —
//! layered min-depth-first, so every prefix state is recorded at its
//! global minimal depth — and the resulting frontier roots are sharded
//! across workers by stride (no shared cursor, no mutex). Each worker
//! computes the true minimal depth of each state reachable from its
//! roots: under ucs because its layers ascend from roots of one common
//! depth, under dfs by label correction (a state reached strictly
//! shallower, or with a sleep set no earlier cover subsumes, is
//! re-expanded). Per-worker maps are merged by minimum depth, and
//! `reachable(⋃ roots) = ⋃ reachable(rootsᵂ)` (sleep sets preserve
//! per-root reachability), so the merged map — and every statistic
//! derived from it — is identical for 1, 2 or 8 workers. Only the
//! traversal *effort* counters (transitions fired, sleep prunes) depend
//! on the partition; reports exclude them from the bit-identical
//! contract exactly like wall-clock times. Counterexamples are
//! *recomputed* from the merged verdict (minimal violation depth) by one
//! serial lexicographic search, never taken from whichever worker
//! stumbled on one first.

use std::collections::HashMap;
use std::rc::Rc;

use scup_harness::scenario::ExploreSpec;
use scup_obs::profile::{Phase, PhaseProfile};
use scup_scp::Value;
use scup_sim::{ExploreSim, SimState};

use crate::build::Driver;
use crate::reduce::{ChoiceProfile, Symmetry};
use crate::visited::{FpEntry, FpTable, Recorded};

/// What one canonical state is: an inner node or one of the leaf kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Inner node: expanded further.
    Expanded,
    /// Depth bound hit — exploration is incomplete past this state.
    Truncated,
    /// The decisions so far violate agreement or validity.
    Violating,
    /// Every correct process externalized the same value. Terminal even
    /// with deliveries still pending: externalization is write-once, so no
    /// extension can change any safety verdict — the remaining flood tail
    /// carries no information.
    Decided(Value),
    /// No events pending; undecided or partially decided (no violation).
    QuiescentUndecided,
}

/// One visited canonical state: its minimal depth and class (the
/// deterministic statistics), whether its canonical representative
/// differs from the state as reached (the symmetry-hit statistic — a pure
/// function of the state), and the sleep-set covers (worker-local
/// exploration bookkeeping, never merged).
#[derive(Debug, Clone)]
pub struct VisitEntry {
    /// Minimal branching depth at which the state was reached.
    pub depth: u32,
    /// Classification at the minimal depth.
    pub class: Class,
    /// The canonical hash differed from the identity hash: some
    /// interchangeable renaming of this state is the class representative.
    pub symmetric: bool,
    /// Pareto frontier of covers under which the state was expanded; a
    /// revisit is pruned iff some cover subsumes it (see [`Cover`]).
    covers: Vec<Cover>,
}

/// One recorded expansion of a visited canonical state.
///
/// A cover subsumes a revisit at depth `d` with sleep set `S` (in the
/// revisit's own frame, identity hash `raw`) iff `depth ≤ d` and either
/// the cover's sleep set is empty — a full expansion, valid for **every**
/// orbit member since it promises nothing frame-specific — or the revisit
/// is the *same* orbit member (`raw` matches) and the cover's sleep is a
/// subset of `S`. Sleep hashes mention concrete process ids, so non-empty
/// covers must never cross frames: applying one to a renamed orbit member
/// would prune schedules nobody explored (caught by the cross-worker
/// determinism test before this rule carried the frame).
#[derive(Debug, Clone)]
struct Cover {
    depth: u32,
    /// Identity (pre-canonicalization) hash of the member that was
    /// expanded; only meaningful for non-empty sleep sets.
    raw: u128,
    /// Sorted, deduplicated sleeping event hashes, in `raw`'s frame.
    sleep: Box<[u128]>,
}

impl Cover {
    fn subsumes(&self, depth: u32, raw: u128, sleep: &[u128]) -> bool {
        self.depth <= depth
            && (self.sleep.is_empty() || (self.raw == raw && sorted_subset(&self.sleep, sleep)))
    }
}

/// The visited map: canonical state hash → [`VisitEntry`]. Only lookups
/// and merges touch it — never iteration order.
pub type Visited = HashMap<u128, VisitEntry>;

/// Traversal-effort counters and (optional) phase profiling;
/// partition-dependent (excluded from the bit-identical report contract,
/// like wall-clock times).
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Branching events fired during exploration.
    pub transitions: u64,
    /// Choices skipped because they were asleep.
    pub sleep_prunes: u64,
    /// Revisits of an already-recorded canonical state that no earlier
    /// cover subsumed, forcing a re-expansion (label correction at work).
    pub reexpansions: u64,
    /// Per-phase wall-time attribution (inert unless obs profiling is
    /// on — see [`WorkerStats::profiled`]).
    pub profile: PhaseProfile,
    /// Peak visited-map occupancy across workers: `(len, capacity)` of
    /// the largest per-worker map (set by the campaign driver).
    pub visited_peak: (u64, u64),
    /// Sampled `(transitions, branching depth)` pairs — the
    /// frontier-depth-over-time series. Stride doubles (with decimation)
    /// when the buffer fills, bounding it to [`DEPTH_SAMPLE_CAP`].
    pub depth_samples: Vec<(u64, u32)>,
    depth_stride: u64,
}

/// Bound on the per-worker depth-sample series.
pub const DEPTH_SAMPLE_CAP: usize = 2048;

impl Default for WorkerStats {
    fn default() -> Self {
        WorkerStats {
            transitions: 0,
            sleep_prunes: 0,
            reexpansions: 0,
            profile: PhaseProfile::disabled(),
            visited_peak: (0, 0),
            depth_samples: Vec::new(),
            depth_stride: 64,
        }
    }
}

impl WorkerStats {
    /// Stats with phase profiling and depth sampling switched on.
    pub fn profiled() -> Self {
        WorkerStats {
            profile: PhaseProfile::enabled(),
            ..WorkerStats::default()
        }
    }

    /// Accumulates another worker's counters (profiles sum; the visited
    /// peak keeps the larger map; depth samples concatenate, decimated
    /// back under the cap).
    pub fn absorb(&mut self, other: WorkerStats) {
        self.transitions += other.transitions;
        self.sleep_prunes += other.sleep_prunes;
        self.reexpansions += other.reexpansions;
        self.profile.merge(&other.profile);
        if other.visited_peak.0 > self.visited_peak.0 {
            self.visited_peak = other.visited_peak;
        }
        self.depth_samples.extend_from_slice(&other.depth_samples);
        while self.depth_samples.len() > DEPTH_SAMPLE_CAP {
            let mut keep = false;
            self.depth_samples.retain(|_| {
                keep = !keep;
                keep
            });
        }
    }

    /// Records one frontier-depth sample if profiling is on and the
    /// stride says so.
    #[inline]
    fn sample_depth(&mut self, depth: u32) {
        if self.profile.is_enabled() && self.transitions.is_multiple_of(self.depth_stride) {
            self.depth_samples.push((self.transitions, depth));
            if self.depth_samples.len() >= DEPTH_SAMPLE_CAP {
                // Halve resolution: keep every other sample, double the
                // stride.
                let mut keep = false;
                self.depth_samples.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.depth_stride *= 2;
            }
        }
    }
}

/// The state cap of [`ExploreSpec::max_states`] was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCapExceeded;

/// `a ⊆ b` for sorted, deduplicated hash slices.
fn sorted_subset(a: &[u128], b: &[u128]) -> bool {
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Inserts a cover, dropping existing covers it subsumes.
fn push_cover(covers: &mut Vec<Cover>, cover: Cover) {
    covers.retain(|c| !cover.subsumes(c.depth, c.raw, &c.sleep));
    covers.push(cover);
}

/// One exploration engine over a resolved scenario, generic over the
/// protocol [`Driver`] (SCP phase, BFT-CUP, or the full stack).
pub struct Engine<'a, D: Driver> {
    driver: &'a D,
    spec: ExploreSpec,
    symmetry: Symmetry,
}

impl<'a, D: Driver> Engine<'a, D> {
    /// Creates the engine, computing the scenario's automorphism group
    /// once (identity-only when `spec.symmetry` is off).
    pub fn new(driver: &'a D, spec: ExploreSpec) -> Self {
        let symmetry = if spec.symmetry {
            Symmetry::compute(driver.setup())
        } else {
            // Identity-only, but still variant-mixing: the adversary's
            // split is no longer part of the actor fingerprint, so the
            // engine must keep (state, variant) pairs distinct itself.
            Symmetry::trivial_for(driver.setup())
        };
        Engine {
            driver,
            spec,
            symmetry,
        }
    }

    /// The scenario's automorphism group (for reporting).
    pub fn symmetry(&self) -> &Symmetry {
        &self.symmetry
    }

    /// Builds a simulation for `variant` and replays a canonical choice
    /// path: drain absorbed events, fire the recorded choice, repeat.
    pub fn replay(&self, variant: u32, path: &[u32]) -> ExploreSim<D::Msg> {
        let mut sim = self.driver.build_sim(variant);
        self.replay_into(&mut sim, path);
        sim
    }

    /// Replays a canonical choice path into a caller-prepared simulation
    /// (e.g. one with tracing enabled for counterexample rendering).
    pub fn replay_into(&self, sim: &mut ExploreSim<D::Msg>, path: &[u32]) {
        sim.start();
        for &choice in path {
            self.settle(sim);
            sim.fire(choice as usize);
        }
        self.settle(sim);
    }

    /// Canonicalizes the live state: drains absorbed no-op deliveries,
    /// then (under `eager_inert`) fires every threshold-inert delivery
    /// from a correct origin as a forced, *uncounted* move — the
    /// singleton persistent set: such a delivery commutes with every
    /// enabled alternative (same-recipient siblings by inertness,
    /// everything else by recipient-disjointness) and stays inert in
    /// every extension, so exploring only the schedule that fires it
    /// immediately covers a representative of every interleaving. Fires
    /// ascend by pending index — deterministic for any worker count.
    fn settle(&self, sim: &mut ExploreSim<D::Msg>) {
        sim.drain_absorbed();
        if !self.spec.eager_inert {
            return;
        }
        'outer: loop {
            let pending = sim.pending().len();
            for idx in 0..pending {
                let origin_ok = match sim.pending_at(idx) {
                    scup_sim::ExploreEvent::Deliver { from, msg, .. } => {
                        let origin = self.driver.msg_origin(*from, msg);
                        let correct = !self.driver.setup().faulty.contains(origin);
                        self.driver.inert_origin_ok(correct, msg)
                    }
                    scup_sim::ExploreEvent::Timer { .. } => false,
                };
                if origin_ok && sim.is_threshold_inert(idx) {
                    sim.fire_uncounted(idx);
                    sim.drain_absorbed();
                    continue 'outer;
                }
            }
            return;
        }
    }

    /// Classifies the (canonical) current state.
    fn classify(&self, sim: &ExploreSim<D::Msg>, depth: u32) -> Class {
        let decisions = self.driver.decisions(sim);
        if self.driver.setup().violates(&decisions) {
            return Class::Violating;
        }
        let correct = self.driver.setup().correct();
        let mut agreed = None;
        let mut all_decided = true;
        for i in correct.iter() {
            match (decisions[i.index()], agreed) {
                (None, _) => {
                    all_decided = false;
                    break;
                }
                (Some(v), None) => agreed = Some(v),
                // classify ran after `violates`: equal by construction.
                (Some(_), Some(_)) => {}
            }
        }
        if all_decided {
            if let Some(v) = agreed {
                return Class::Decided(v);
            }
        }
        if sim.is_quiescent() {
            return Class::QuiescentUndecided;
        }
        if depth >= self.spec.max_steps {
            Class::Truncated
        } else {
            Class::Expanded
        }
    }

    /// Records the canonical state in `visited`; returns the branching
    /// choices to fire (with their sleep profiles, sleeping ones filtered
    /// out) when the state is an inner node not subsumed by an earlier
    /// cover.
    /// Label-correcting and sleep-aware: a revisit re-expands fully when
    /// it is strictly shallower, or when no earlier cover explored the
    /// state under a subset of the current sleep set. (A diff-only
    /// re-expansion — re-firing just the choices the best cover had left
    /// asleep — was tried and *dropped*: transplanting a cover's
    /// coverage promise into a different sleep context creates circular
    /// justifications, and the differential tests caught it losing a
    /// violating state.)
    fn visit(
        &self,
        variant: u32,
        sim: &ExploreSim<D::Msg>,
        visited: &mut Visited,
        sleep: &[ChoiceProfile],
        stats: &mut WorkerStats,
    ) -> Option<Vec<(usize, ChoiceProfile)>> {
        let depth = sim.steps() as u32;
        stats.profile.lap_start();
        let (hash, raw, symmetric) = if stats.profile.is_enabled() {
            let raw = self.symmetry.identity_hash(sim, variant);
            stats.profile.lap(Phase::Fingerprint);
            let (hash, moved) = self.symmetry.canonicalize_from(sim, variant, raw);
            stats.profile.lap(Phase::Canonicalize);
            (hash, raw, moved)
        } else {
            self.symmetry.canonical_hash(sim, variant)
        };
        let mut sleep_hashes: Vec<u128> = sleep.iter().map(|p| p.hash).collect();
        sleep_hashes.sort_unstable();
        sleep_hashes.dedup();

        let mut revisit = false;
        if let Some(entry) = visited.get(&hash) {
            revisit = true;
            if entry
                .covers
                .iter()
                .any(|c| c.subsumes(depth, raw, &sleep_hashes))
            {
                stats.profile.lap(Phase::Dedup);
                return None;
            }
        }
        let class = self.classify(sim, depth);
        let entry = visited.entry(hash).or_insert(VisitEntry {
            depth,
            class,
            symmetric,
            covers: Vec::new(),
        });
        if depth < entry.depth {
            entry.depth = depth;
            entry.class = class;
        } else if depth == entry.depth {
            debug_assert!(
                entry.class == class,
                "state classification must be a function of (state, depth)"
            );
        }
        if class == Class::Expanded {
            let mut choices = Vec::new();
            for idx in sim.choices() {
                let profile = ChoiceProfile::of(self.driver, sim, idx, self.spec.sleep_sets);
                if sleep_hashes.binary_search(&profile.hash).is_ok() {
                    stats.sleep_prunes += 1;
                    continue;
                }
                choices.push((idx, profile));
            }
            push_cover(
                &mut entry.covers,
                Cover {
                    depth,
                    raw,
                    sleep: sleep_hashes.into_boxed_slice(),
                },
            );
            if revisit {
                stats.reexpansions += 1;
            }
            stats.profile.lap(Phase::Dedup);
            Some(choices)
        } else {
            // Terminal (or truncated): nothing below to cover — an empty
            // sleep cover makes future dominance purely depth-based (and
            // frame-free, hence valid for the whole orbit).
            push_cover(
                &mut entry.covers,
                Cover {
                    depth,
                    raw: 0,
                    sleep: Box::new([]),
                },
            );
            stats.profile.lap(Phase::Dedup);
            None
        }
    }

    /// Depth-first exploration of the subtree rooted at `path` for one
    /// adversary variant.
    ///
    /// # Errors
    ///
    /// Returns [`StateCapExceeded`] when `visited` outgrows the safety
    /// valve.
    pub fn dfs(
        &self,
        variant: u32,
        path: &[u32],
        visited: &mut Visited,
        stats: &mut WorkerStats,
    ) -> Result<(), StateCapExceeded> {
        struct Frame<M: scup_sim::SimMessage> {
            state: SimState<M>,
            choices: Vec<(usize, ChoiceProfile)>,
            sleep: Vec<ChoiceProfile>,
            next: usize,
        }

        let mut sim = self.replay(variant, path);
        let Some(choices) = self.visit(variant, &sim, visited, &[], stats) else {
            return Ok(());
        };
        let mut stack = vec![Frame {
            state: sim.snapshot(),
            choices,
            sleep: Vec::new(),
            next: 0,
        }];
        while let Some(top) = stack.last_mut() {
            if visited.len() as u64 > self.spec.max_states {
                return Err(StateCapExceeded);
            }
            let Some(&(choice, profile)) = top.choices.get(top.next) else {
                stack.pop();
                continue;
            };
            top.next += 1;
            // A frame is pushed with the live sim exactly in `state`, so
            // the first child skips the restore.
            if top.next > 1 {
                sim.restore(&top.state);
            }
            // Sleep set of the child: surviving inherited sleepers plus
            // the already-explored elder siblings — each kept only while
            // independent of the fired choice (a dependent event wakes
            // them up).
            let mut child_sleep: Vec<ChoiceProfile> = if self.spec.sleep_sets {
                top.sleep
                    .iter()
                    .chain(top.choices[..top.next - 1].iter().map(|(_, p)| p))
                    .filter(|e| e.independent(&profile))
                    .copied()
                    .collect()
            } else {
                Vec::new()
            };
            stats.transitions += 1;
            stats.profile.lap_start();
            sim.fire(choice);
            stats.profile.lap(Phase::Expand);
            self.settle(&mut sim);
            stats.profile.lap(Phase::Settle);
            stats.sample_depth(sim.steps() as u32);
            // Single-choice chains run in place — no snapshot, no restore.
            let mut choices = self.visit(variant, &sim, visited, &child_sleep, stats);
            while let Some([(only, only_profile)]) = choices.as_deref() {
                let (only, only_profile) = (*only, *only_profile);
                child_sleep.retain(|e| e.independent(&only_profile));
                stats.transitions += 1;
                stats.profile.lap_start();
                sim.fire(only);
                stats.profile.lap(Phase::Expand);
                self.settle(&mut sim);
                stats.profile.lap(Phase::Settle);
                stats.sample_depth(sim.steps() as u32);
                choices = self.visit(variant, &sim, visited, &child_sleep, stats);
            }
            if let Some(choices) = choices {
                stack.push(Frame {
                    state: sim.snapshot(),
                    choices,
                    sleep: child_sleep,
                    next: 0,
                });
            }
        }
        Ok(())
    }

    /// Records the canonical state in the compact fingerprint table;
    /// returns the branching choices when the state is a first-sighted
    /// inner node. The uniform-cost analogue of [`Engine::visit`]: no
    /// sleep sets (rejected at parse time under ucs), no covers — one
    /// fixed-size record per canonical state. Equal-or-deeper revisits
    /// are pure table lookups; a strictly shallower revisit corrects the
    /// record and counts as a re-expansion (never taken under
    /// depth-layered expansion — the counter exists to prove that).
    fn visit_fp(
        &self,
        variant: u32,
        sim: &ExploreSim<D::Msg>,
        visited: &mut FpTable,
        stats: &mut WorkerStats,
    ) -> Option<Vec<usize>> {
        let depth = sim.steps() as u32;
        stats.profile.lap_start();
        let (hash, symmetric) = if stats.profile.is_enabled() {
            let raw = self.symmetry.identity_hash(sim, variant);
            stats.profile.lap(Phase::Fingerprint);
            let (hash, moved) = self.symmetry.canonicalize_from(sim, variant, raw);
            stats.profile.lap(Phase::Canonicalize);
            (hash, moved)
        } else {
            let (hash, _, moved) = self.symmetry.canonical_hash(sim, variant);
            (hash, moved)
        };
        if let Some(entry) = visited.get(hash) {
            if depth >= entry.depth {
                stats.profile.lap(Phase::Dedup);
                return None;
            }
        }
        let class = self.classify(sim, depth);
        let recorded = visited.record(
            hash,
            FpEntry {
                depth,
                class,
                symmetric,
            },
        );
        if recorded == Recorded::Shallower {
            stats.reexpansions += 1;
        }
        stats.profile.lap(Phase::Dedup);
        (class == Class::Expanded).then(|| sim.choices())
    }

    /// Uniform-cost exploration of the subtrees rooted at `roots` —
    /// `(variant, frontier path)` pairs whose paths all share one length,
    /// so the layered expansion ascends in global depth order and every
    /// canonical state is expanded exactly once, at its minimal depth.
    ///
    /// Each frontier layer holds `(parent snapshot, variant, choice)`
    /// jobs; siblings share their parent's snapshot through an [`Rc`]
    /// (workers are single-threaded), and one live simulation per variant
    /// serves as the restore target, so expanding a job is
    /// restore → fire → settle → classify with no replay from the root.
    /// Restore and snapshot copy slot pointers; the one actor fork a
    /// delivery needs happens at its first write, inside fire or settle.
    ///
    /// # Errors
    ///
    /// Returns [`StateCapExceeded`] when `visited` outgrows the safety
    /// valve.
    pub fn ucs(
        &self,
        roots: &[(u32, Vec<u32>)],
        visited: &mut FpTable,
        stats: &mut WorkerStats,
    ) -> Result<(), StateCapExceeded> {
        struct Job<M: scup_sim::SimMessage> {
            parent: Rc<SimState<M>>,
            variant: u32,
            choice: usize,
        }

        // Bootstrap: replay every root (the only replays ucs ever does),
        // keep one live sim per variant as the restore target, and seed
        // the first layer with the roots' children.
        let mut sims: Vec<Option<ExploreSim<D::Msg>>> = Vec::new();
        let mut layer: Vec<Job<D::Msg>> = Vec::new();
        for (variant, path) in roots {
            if visited.len() as u64 > self.spec.max_states {
                return Err(StateCapExceeded);
            }
            let sim = self.replay(*variant, path);
            if let Some(choices) = self.visit_fp(*variant, &sim, visited, stats) {
                let parent = Rc::new(sim.snapshot());
                for choice in choices {
                    layer.push(Job {
                        parent: Rc::clone(&parent),
                        variant: *variant,
                        choice,
                    });
                }
            }
            let slot = *variant as usize;
            if sims.len() <= slot {
                sims.resize_with(slot + 1, || None);
            }
            if sims[slot].is_none() {
                sims[slot] = Some(sim);
            }
        }

        while !layer.is_empty() {
            let mut next: Vec<Job<D::Msg>> = Vec::new();
            for job in &layer {
                if visited.len() as u64 > self.spec.max_states {
                    return Err(StateCapExceeded);
                }
                let sim = sims[job.variant as usize]
                    .as_mut()
                    .expect("restore target exists for every rooted variant");
                stats.profile.lap_start();
                sim.restore(&job.parent);
                stats.profile.lap(Phase::Restore);
                stats.transitions += 1;
                sim.fire(job.choice);
                stats.profile.lap(Phase::Expand);
                self.settle(sim);
                stats.profile.lap(Phase::Settle);
                stats.sample_depth(sim.steps() as u32);
                if let Some(choices) = self.visit_fp(job.variant, sim, visited, stats) {
                    stats.profile.lap_start();
                    let parent = Rc::new(sim.snapshot());
                    stats.profile.lap(Phase::Restore);
                    for choice in choices {
                        next.push(Job {
                            parent: Rc::clone(&parent),
                            variant: job.variant,
                            choice,
                        });
                    }
                }
            }
            layer = next;
        }
        Ok(())
    }

    /// Serially expands the first [`ExploreSpec::frontier_depth`] branch
    /// decisions of one variant, recording the prefix states in `visited`
    /// and returning the frontier root paths to shard across workers.
    /// The prefix is expanded without sleep sets (full covers), so every
    /// root subtree starts clean.
    ///
    /// # Errors
    ///
    /// Returns [`StateCapExceeded`] when the prefix alone outgrows the cap.
    pub fn frontier(
        &self,
        variant: u32,
        visited: &mut Visited,
        stats: &mut WorkerStats,
    ) -> Result<Vec<Vec<u32>>, StateCapExceeded> {
        let mut layer: Vec<Vec<u32>> = vec![Vec::new()];
        for _ in 0..self.spec.frontier_depth {
            let mut next = Vec::new();
            for path in &layer {
                if visited.len() as u64 > self.spec.max_states {
                    return Err(StateCapExceeded);
                }
                let sim = self.replay(variant, path);
                if let Some(choices) = self.visit(variant, &sim, visited, &[], stats) {
                    for (choice, _) in choices {
                        let mut extended = path.clone();
                        extended.push(choice as u32);
                        next.push(extended);
                    }
                }
            }
            if next.is_empty() {
                return Ok(Vec::new());
            }
            layer = next;
        }
        Ok(layer)
    }

    /// Finds the canonical minimal counterexample once the merged map
    /// established that the minimal violating depth is `d_star`: one
    /// serial depth-limited DFS per variant, choices in ascending order,
    /// stopping at the first violating state. Independent of the parallel
    /// traversal, hence identical for every worker count. (Symmetry
    /// pruning applies — a renamed violating state witnesses the same
    /// minimal depth; sleep sets do not, keeping the search lexicographic
    /// in the raw choice order.)
    pub fn find_cex(&self, variants: u32, d_star: u32) -> Option<(u32, Vec<u32>)> {
        for variant in 0..variants {
            let mut visited: HashMap<u128, u32> = HashMap::new();
            let mut sim = self.driver.build_sim(variant);
            sim.start();
            self.settle(&mut sim);
            if let Some(found) = self.cex_dfs(variant, &mut sim, d_star, &mut visited) {
                return Some((variant, found));
            }
        }
        None
    }

    fn cex_dfs(
        &self,
        variant: u32,
        sim: &mut ExploreSim<D::Msg>,
        d_star: u32,
        visited: &mut HashMap<u128, u32>,
    ) -> Option<Vec<u32>> {
        struct Frame<M: scup_sim::SimMessage> {
            state: SimState<M>,
            choices: Vec<usize>,
            next: usize,
        }
        let enter = |sim: &ExploreSim<D::Msg>,
                     visited: &mut HashMap<u128, u32>,
                     path: &[u32]|
         -> Result<Option<Vec<usize>>, Vec<u32>> {
            let depth = sim.steps() as u32;
            if self.driver.setup().violates(&self.driver.decisions(sim)) {
                return Err(path.to_vec());
            }
            if depth >= d_star {
                return Ok(None);
            }
            let (hash, _, _) = self.symmetry.canonical_hash(sim, variant);
            match visited.get(&hash) {
                Some(&prev) if prev <= depth => Ok(None),
                _ => {
                    visited.insert(hash, depth);
                    Ok(Some(sim.choices()))
                }
            }
        };

        let mut path: Vec<u32> = Vec::new();
        let mut stack = match enter(sim, visited, &path) {
            Err(found) => return Some(found),
            Ok(None) => return None,
            Ok(Some(choices)) => vec![Frame {
                state: sim.snapshot(),
                choices,
                next: 0,
            }],
        };
        while let Some(top) = stack.last_mut() {
            let Some(&choice) = top.choices.get(top.next) else {
                stack.pop();
                path.pop();
                continue;
            };
            top.next += 1;
            // First child: the live sim is already in `state` (see dfs).
            if top.next > 1 {
                sim.restore(&top.state);
            }
            sim.fire(choice);
            self.settle(sim);
            path.push(choice as u32);
            match enter(sim, visited, &path) {
                Err(found) => return Some(found),
                Ok(Some(choices)) => stack.push(Frame {
                    state: sim.snapshot(),
                    choices,
                    next: 0,
                }),
                Ok(None) => {
                    path.pop();
                }
            }
        }
        None
    }
}

/// Merges worker maps by minimal depth (commutative and associative, so
/// the merge order — and the worker count — cannot change the result).
/// Covers are worker-local bookkeeping and are not merged.
pub fn merge_visited(into: &mut Visited, from: Visited) {
    for (hash, entry) in from {
        match into.get_mut(&hash) {
            Some(existing) => {
                debug_assert_eq!(
                    existing.symmetric, entry.symmetric,
                    "symmetry-hit flag is a function of the state"
                );
                if entry.depth < existing.depth {
                    existing.depth = entry.depth;
                    existing.class = entry.class;
                }
            }
            None => {
                into.insert(hash, entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_subset_walks_merged() {
        assert!(sorted_subset(&[], &[]));
        assert!(sorted_subset(&[], &[1]));
        assert!(sorted_subset(&[2], &[1, 2, 3]));
        assert!(sorted_subset(&[1, 3], &[1, 2, 3]));
        assert!(!sorted_subset(&[1, 4], &[1, 2, 3]));
        assert!(!sorted_subset(&[0], &[1]));
        assert!(!sorted_subset(&[1], &[]));
    }

    #[test]
    fn covers_keep_a_pareto_frontier() {
        let cover = |depth, raw, sleep: Vec<u128>| Cover {
            depth,
            raw,
            sleep: sleep.into_boxed_slice(),
        };
        let mut covers = Vec::new();
        push_cover(&mut covers, cover(5, 42, vec![1, 2]));
        // Dominates (shallower, smaller sleep, same frame): drops the old.
        push_cover(&mut covers, cover(3, 42, vec![1]));
        assert_eq!(covers.len(), 1);
        assert_eq!(covers[0].depth, 3);
        // Incomparable (deeper but disjoint sleep): coexists.
        push_cover(&mut covers, cover(7, 42, vec![9]));
        assert_eq!(covers.len(), 2);
    }

    #[test]
    fn nonempty_covers_never_cross_frames() {
        let c = Cover {
            depth: 2,
            raw: 42,
            sleep: vec![7u128].into_boxed_slice(),
        };
        assert!(c.subsumes(3, 42, &[7, 8]), "same frame, subset sleep");
        assert!(
            !c.subsumes(3, 43, &[7, 8]),
            "a renamed orbit member's sleep hashes live in another frame"
        );
        let full = Cover {
            depth: 2,
            raw: 0,
            sleep: Box::new([]),
        };
        assert!(full.subsumes(3, 43, &[7]), "full expansions are frame-free");
        assert!(!full.subsumes(1, 43, &[7]), "but still depth-bounded");
    }
}
