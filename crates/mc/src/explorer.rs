//! The bounded explorer: uniform-cost (min-depth-first) search with
//! visited-state memoization, symmetry-canonical hashing, eager-inert
//! persistent-set reduction, sharded parallel frontier, and canonical
//! minimal counterexamples.
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
//!   3-proposer cycle).
//!
//! Each reduction preserves the **verdict** exactly — violation found or
//! not, minimal violating depth, decided values, completeness — pinned by
//! the differential tests, whose unreduced base run must in turn equal a
//! test-side reference BFS that shares none of this module's code.
//!
//! The once-tempting *recipient-priority* reduction (restricting which
//! recipients may fire at all) remains out: review of PR 3 showed it
//! unsound here — a later-created message can overtake a privileged
//! recipient's queue. The persistent sets used above are singletons of
//! provably globally-commuting events, which is a different (and sound)
//! instrument: nothing else is ever *excluded*, exploration of the inert
//! event is merely *forced first*.
//!
//! # Search discipline
//!
//! The search is **uniform-cost**: [`Engine::ucs`] expands a
//! depth-layered frontier, so every state is first reached at its
//! *minimal* branching depth and expanded exactly once — the
//! re-expansion count is 0 by construction (reported, and asserted by CI,
//! to prove it).
//!
//! # Determinism across worker counts
//!
//! The first two branch decisions are expanded serially — layered
//! min-depth-first, so every prefix state is recorded at its
//! global minimal depth — and the resulting frontier roots are sharded
//! across workers by stride (no shared cursor, no mutex). Each worker
//! computes the true minimal depth of each state reachable from its
//! roots, because its layers ascend from roots of one common depth.
//! Per-worker tables are merged by minimum depth, and
//! `reachable(⋃ roots) = ⋃ reachable(rootsᵂ)`, so the merged table — and
//! every statistic derived from it — is identical for 1, 2 or 8 workers.
//! Only the traversal *effort* counter (transitions fired) depends on
//! the partition; reports exclude it from the bit-identical contract
//! exactly like wall-clock times. Counterexamples are *recomputed* from
//! the merged verdict (minimal violation depth) by one serial
//! lexicographic search, never taken from whichever worker stumbled on
//! one first.

use std::collections::HashMap;

use scup_graph::ProcessId;
use scup_harness::scenario::ExploreSpec;
use scup_obs::profile::{Phase, PhaseProfile};
use scup_scp::Value;
use scup_sim::{ExploreEvent, ExploreSim, SimState};

use crate::build::{Driver, Explored};
use crate::reduce::Symmetry;
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

/// Traversal-effort counters and (optional) phase profiling;
/// partition-dependent (excluded from the bit-identical report contract,
/// like wall-clock times).
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Branching events fired during exploration.
    pub transitions: u64,
    /// Fires (branching and forced) that [`Engine::ucs`] answered from a
    /// local-transition memo instead of calling the actor. 0 for every
    /// protocol whose [`Explored::CONGRUENT_FINGERPRINT`] is `false`.
    pub steps_replayed: u64,
    /// Fires (branching and forced) for which `ucs` ran an actor
    /// callback.
    pub steps_executed: u64,
    /// `absorbs` / `threshold_inert` answers `ucs`'s settles asked for
    /// (see [`ExploreSim::settle_counts`]).
    pub settle_queries: u64,
    /// Threshold-inert deliveries `ucs`'s settles fired as forced moves.
    pub settle_forced: u64,
    /// Pending entries the actor callbacks of `ucs`'s simulations emitted
    /// (see [`ExploreSim::event_counts`]).
    pub events_emitted: u64,
    /// Distinct events among them, summed over those simulations (each
    /// interns its own).
    pub events_distinct: u64,
    /// Strictly shallower revisits of an already-recorded canonical
    /// state. Never taken under depth-layered expansion — the counter
    /// exists to prove that.
    pub reexpansions: u64,
    /// Per-phase wall-time attribution (inert unless obs profiling is
    /// on — see [`WorkerStats::profiled`]).
    pub profile: PhaseProfile,
    /// Entries in the largest per-worker visited map (set by the
    /// campaign driver).
    pub visited_peak: u64,
    /// Most saved parent states [`Engine::ucs`] held alive at once, the
    /// largest over workers.
    pub frontier_peak: u64,
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
            steps_replayed: 0,
            steps_executed: 0,
            settle_queries: 0,
            settle_forced: 0,
            events_emitted: 0,
            events_distinct: 0,
            reexpansions: 0,
            profile: PhaseProfile::disabled(),
            visited_peak: 0,
            frontier_peak: 0,
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
    /// and frontier peaks keep the larger; depth samples concatenate,
    /// decimated back under the cap).
    pub fn absorb(&mut self, other: WorkerStats) {
        self.transitions += other.transitions;
        self.steps_replayed += other.steps_replayed;
        self.steps_executed += other.steps_executed;
        self.settle_queries += other.settle_queries;
        self.settle_forced += other.settle_forced;
        self.events_emitted += other.events_emitted;
        self.events_distinct += other.events_distinct;
        self.reexpansions += other.reexpansions;
        self.profile.merge(&other.profile);
        self.visited_peak = self.visited_peak.max(other.visited_peak);
        self.frontier_peak = self.frontier_peak.max(other.frontier_peak);
        self.depth_samples.extend_from_slice(&other.depth_samples);
        while self.depth_samples.len() > DEPTH_SAMPLE_CAP {
            let mut keep = false;
            self.depth_samples.retain(|_| {
                keep = !keep;
                keep
            });
        }
    }

    /// Adds the step, settle and event counters of a simulation `ucs` is
    /// done with.
    fn count_steps<M: scup_sim::SimMessage>(&mut self, sim: &ExploreSim<M>) {
        let (replayed, executed) = sim.step_counts();
        self.steps_replayed += replayed;
        self.steps_executed += executed;
        let (queries, forced) = sim.settle_counts();
        self.settle_queries += queries;
        self.settle_forced += forced;
        let (emitted, distinct) = sim.event_counts();
        self.events_emitted += emitted;
        self.events_distinct += distinct;
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

/// The pending events whose `absorbs` / `threshold_inert` answers may
/// have changed since they were last asked, as [`Engine::settle`] carries
/// them from fire to fire: the events at `at`, and the events from index
/// `start` on. Of the latter only the fire's emissions (from `fresh` on)
/// can be absorbed — the drain before the fire left none behind.
#[derive(Debug, Clone, Copy)]
struct Touched {
    /// The recipient whose slot the fire wrote.
    at: ProcessId,
    /// Below this index only events at `at` are open.
    start: usize,
    /// The fire's emissions begin here (never below `start`).
    fresh: usize,
}

impl Touched {
    /// Nothing asked yet (a fresh start): every event is open, so `at` is
    /// never read.
    const EVERYTHING: Touched = Touched {
        at: ProcessId::new(0),
        start: 0,
        fresh: 0,
    };

    /// What firing pending event `idx` of `sim` — about to happen — will
    /// open, when every event below index `asked` has been asked against
    /// the slot its recipient has now: the fired recipient's events, and
    /// every event from the (post-fire) position of `asked` on.
    fn by_fire<M: scup_sim::SimMessage>(sim: &ExploreSim<M>, idx: usize, asked: usize) -> Self {
        Touched {
            at: sim.pending_at(idx).recipient(),
            // The fire removes `idx`: everything above it moves down one.
            start: if asked > idx { asked - 1 } else { asked },
            fresh: sim.pending().len() - 1,
        }
    }
}

/// The state cap of [`ExploreSpec::max_states`] was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateCapExceeded;

/// One exploration engine over a resolved scenario, generic over the
/// protocol its [`Driver`] seats (SCP phase, BFT-CUP, or the full stack).
pub struct Engine<'a, P: Explored> {
    driver: &'a Driver<'a, P>,
    spec: ExploreSpec,
    symmetry: Symmetry,
}

impl<'a, P: Explored> Engine<'a, P> {
    /// Creates the engine, computing the scenario's automorphism group
    /// once (identity-only when `spec.symmetry` is off).
    pub fn new(driver: &'a Driver<'a, P>, spec: ExploreSpec) -> Self {
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
    /// path (see [`Engine::replay_into`]).
    pub fn replay(&self, variant: u32, path: &[u32]) -> ExploreSim<P::Msg> {
        let mut sim = self.driver.build_sim(variant);
        self.replay_into(&mut sim, path);
        sim
    }

    /// Replays a canonical choice path into a caller-prepared simulation
    /// (e.g. one with the event log on for counterexample rendering):
    /// start and settle in full, then fire each recorded choice and settle
    /// what it touched.
    pub fn replay_into(&self, sim: &mut ExploreSim<P::Msg>, path: &[u32]) {
        sim.start();
        self.settle(sim, Touched::EVERYTHING);
        for &choice in path {
            self.advance(sim, choice as usize, &mut PhaseProfile::disabled());
        }
    }

    /// Fires branching choice `choice` of a settled state and settles the
    /// successor — the one way every search here takes a step. Laps
    /// `expand` after the fire and `settle` after the settle.
    fn advance(&self, sim: &mut ExploreSim<P::Msg>, choice: usize, profile: &mut PhaseProfile) {
        // A settled state has had every event asked: after the fire only
        // the recipient's events and the emissions are open.
        let touched = Touched::by_fire(sim, choice, sim.pending().len());
        sim.fire(choice);
        profile.lap(Phase::Expand);
        self.settle(sim, touched);
        profile.lap(Phase::Settle);
    }

    /// Canonicalizes the live state: drains absorbed no-op deliveries,
    /// then (under `eager_inert`) fires every threshold-inert delivery
    /// from a correct origin as a forced, *uncounted* move — the
    /// singleton persistent set: such a delivery commutes with every
    /// enabled alternative (same-recipient siblings by inertness,
    /// everything else by recipient-disjointness) and stays inert in
    /// every extension, so exploring only the schedule that fires it
    /// immediately covers a representative of every interleaving. Each
    /// forced fire is the lowest-index one — deterministic for any worker
    /// count.
    ///
    /// Only what a fire `touched` is asked: an `absorbs` /
    /// `threshold_inert` answer depends on the recipient's slot and the
    /// event alone, and a fire writes one slot and appends its emissions.
    /// So every event outside `touched` keeps the answer it had when last
    /// asked — and `touched` covers every event that was never asked or
    /// was asked against a slot since written. After a forced fire at
    /// index `i`, the scan had asked everything below `i`, so the next
    /// round opens the events at the fired recipient and those at `i` and
    /// above. Debug builds end every settle with the full rescan and
    /// assert that it finds nothing.
    fn settle(&self, sim: &mut ExploreSim<P::Msg>, mut touched: Touched) {
        loop {
            touched.start = sim.drain_absorbed_touched(touched.at, touched.fresh, touched.start);
            if !self.spec.eager_inert {
                break;
            }
            let Some(idx) =
                sim.first_threshold_inert(touched.at, touched.start, |e| self.forcible(e))
            else {
                break;
            };
            touched = Touched::by_fire(sim, idx, idx);
            sim.fire_uncounted(idx);
        }
        #[cfg(debug_assertions)]
        self.assert_settled(sim);
    }

    /// Whether settle may force `event` once its recipient declares it
    /// threshold-inert: a delivery whose accountable origin passes the
    /// protocol's gate ([`Explored::inert_origin_ok`]); never a timer.
    fn forcible(&self, event: &ExploreEvent<P::Msg>) -> bool {
        match event {
            ExploreEvent::Deliver { from, msg, .. } => {
                let origin = P::msg_origin(*from, msg);
                P::inert_origin_ok(self.driver.setup().correct.contains(origin), msg)
            }
            ExploreEvent::Timer { .. } => false,
        }
    }

    /// The settle postcondition, checked by asking every pending event:
    /// none is absorbed, and (under `eager_inert`) none is forcible and
    /// threshold-inert.
    #[cfg(debug_assertions)]
    fn assert_settled(&self, sim: &ExploreSim<P::Msg>) {
        for idx in 0..sim.pending().len() {
            let event = sim.pending_at(idx);
            assert!(!sim.is_absorbed(idx), "settle left {event:?} absorbed");
            assert!(
                !(self.spec.eager_inert && self.forcible(event) && sim.is_threshold_inert(idx)),
                "settle left {event:?} threshold-inert"
            );
        }
    }

    /// Classifies the (canonical) current state.
    fn classify(&self, sim: &ExploreSim<P::Msg>, depth: u32) -> Class {
        if let Some(class) = self.driver.setup().judge(&self.driver.decisions(sim)) {
            return class;
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

    /// Records the canonical state in the compact fingerprint table;
    /// returns the branching choices when the state is a first-sighted
    /// inner node. One fixed-size record per canonical state:
    /// equal-or-deeper revisits are pure table lookups; a strictly
    /// shallower revisit corrects the record and counts as a
    /// re-expansion (never taken under depth-layered expansion — the
    /// counter exists to prove that).
    fn visit_fp(
        &self,
        variant: u32,
        sim: &ExploreSim<P::Msg>,
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
            self.symmetry.canonical_hash(sim, variant)
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
    /// Each frontier layer holds one `(saved state, variant, choices)`
    /// parent per inner node, consumed in order, and one live simulation
    /// per variant serves as the restore target, so expanding a child is
    /// restore → fire → settle → classify with no replay from the root.
    /// Every child but the last restores the parent's state by reference;
    /// the last takes it by move ([`ExploreSim::restore_owned`]), so a
    /// parent is freed as soon as its last child is expanded and at most
    /// one layer plus the part of the next built so far is alive. Restore
    /// and snapshot copy slot pointers; the one actor fork a delivery
    /// needs happens at its first write, inside fire or settle, and only
    /// when a saved state or the memo still shares the slot.
    ///
    /// Repeated local steps are replayed, not executed: when the protocol
    /// declares [`Explored::CONGRUENT_FINGERPRINT`], every restore target
    /// carries a local-transition memo ([`ExploreSim::memoise_steps`]), so
    /// a fire — here or inside settle — whose (recipient slot, event)
    /// pair this call has fired before installs the remembered successor.
    /// One memo per variant (the victim split is outside the fingerprint)
    /// and per worker, dropped with the simulations when this returns.
    /// Nothing else gets one: [`Engine::replay`], [`Engine::frontier`] and
    /// [`Engine::find_cex`] execute every step, so every rendered
    /// schedule, trace and provenance chain comes from real callbacks.
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
        // Bootstrap: replay every root (the only replays ucs ever does)
        // into one live sim per variant — the restore target — rewound to
        // the variant's settled start before each, and seed the first
        // layer with the roots that are inner nodes. One sim per variant
        // is one event table, so every root's events are interned once.
        // No memo yet: a replay executes every step, as the frontier that
        // recorded the paths did.
        let mut started: Vec<Option<(ExploreSim<P::Msg>, SimState<P::Msg>)>> = Vec::new();
        let mut layer: Vec<(SimState<P::Msg>, u32, Vec<usize>)> = Vec::new();
        for (variant, path) in roots {
            if visited.len() as u64 > self.spec.max_states {
                return Err(StateCapExceeded);
            }
            let slot = *variant as usize;
            if started.len() <= slot {
                started.resize_with(slot + 1, || None);
            }
            let (sim, start) = started[slot].get_or_insert_with(|| {
                let sim = self.replay(*variant, &[]);
                let start = sim.snapshot();
                (sim, start)
            });
            sim.restore(start);
            for &choice in path {
                self.advance(sim, choice as usize, &mut PhaseProfile::disabled());
            }
            if let Some(choices) = self.visit_fp(*variant, sim, visited, stats) {
                layer.push((sim.snapshot(), *variant, choices));
            }
        }
        let mut sims: Vec<Option<ExploreSim<P::Msg>>> = started
            .into_iter()
            .map(|live| {
                live.map(|(mut sim, _start)| {
                    if P::CONGRUENT_FINGERPRINT {
                        sim.memoise_steps();
                    }
                    sim
                })
            })
            .collect();

        // Saved states alive: the layer's unreleased parents plus `next`.
        let mut saved = layer.len() as u64;
        stats.frontier_peak = stats.frontier_peak.max(saved);
        while !layer.is_empty() {
            let mut next = Vec::new();
            for (state, variant, choices) in layer {
                let sim = sims[variant as usize]
                    .as_mut()
                    .expect("restore target exists for every rooted variant");
                let mut state = Some(state);
                for (i, &choice) in choices.iter().enumerate() {
                    if visited.len() as u64 > self.spec.max_states {
                        return Err(StateCapExceeded);
                    }
                    stats.profile.lap_start();
                    if i + 1 < choices.len() {
                        sim.restore(state.as_ref().expect("held until the last child"));
                    } else {
                        sim.restore_owned(state.take().expect("moved once"));
                        saved -= 1;
                    }
                    stats.profile.lap(Phase::Restore);
                    stats.transitions += 1;
                    self.advance(sim, choice, &mut stats.profile);
                    stats.sample_depth(sim.steps() as u32);
                    if let Some(choices) = self.visit_fp(variant, sim, visited, stats) {
                        stats.profile.lap_start();
                        next.push((sim.snapshot(), variant, choices));
                        stats.profile.lap(Phase::Restore);
                        saved += 1;
                        stats.frontier_peak = stats.frontier_peak.max(saved);
                    }
                }
            }
            layer = next;
        }
        for sim in sims.iter().flatten() {
            stats.count_steps(sim);
        }
        Ok(())
    }

    /// Serially expands the first two branch decisions of one variant,
    /// recording the prefix states in `visited` and returning the
    /// frontier root paths to shard across workers.
    ///
    /// # Errors
    ///
    /// Returns [`StateCapExceeded`] when the prefix alone outgrows the cap.
    pub fn frontier(
        &self,
        variant: u32,
        visited: &mut FpTable,
        stats: &mut WorkerStats,
    ) -> Result<Vec<Vec<u32>>, StateCapExceeded> {
        // Purely a sharding granularity: the merged table is the same
        // for any prefix depth, so there is nothing to configure.
        const FRONTIER_DEPTH: u32 = 2;
        let mut layer: Vec<Vec<u32>> = vec![Vec::new()];
        for _ in 0..FRONTIER_DEPTH {
            let mut next = Vec::new();
            for path in &layer {
                if visited.len() as u64 > self.spec.max_states {
                    return Err(StateCapExceeded);
                }
                let sim = self.replay(variant, path);
                if let Some(choices) = self.visit_fp(variant, &sim, visited, stats) {
                    for choice in choices {
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
    /// minimal depth.)
    pub fn find_cex(&self, variants: u32, d_star: u32) -> Option<(u32, Vec<u32>)> {
        for variant in 0..variants {
            let mut visited: HashMap<u128, u32> = HashMap::new();
            let mut sim = self.replay(variant, &[]);
            if let Some(found) = self.cex_dfs(variant, &mut sim, d_star, &mut visited) {
                return Some((variant, found));
            }
        }
        None
    }

    fn cex_dfs(
        &self,
        variant: u32,
        sim: &mut ExploreSim<P::Msg>,
        d_star: u32,
        visited: &mut HashMap<u128, u32>,
    ) -> Option<Vec<u32>> {
        struct Frame<M: scup_sim::SimMessage> {
            state: SimState<M>,
            choices: Vec<usize>,
            next: usize,
        }
        let enter = |sim: &ExploreSim<P::Msg>,
                     visited: &mut HashMap<u128, u32>,
                     path: &[u32]|
         -> Result<Option<Vec<usize>>, Vec<u32>> {
            let depth = sim.steps() as u32;
            if self.driver.setup().judge(&self.driver.decisions(sim)) == Some(Class::Violating) {
                return Err(path.to_vec());
            }
            if depth >= d_star {
                return Ok(None);
            }
            let (hash, _) = self.symmetry.canonical_hash(sim, variant);
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
            // A frame is pushed with the live sim exactly in `state`, so
            // the first child skips the restore.
            if top.next > 1 {
                sim.restore(&top.state);
            }
            self.advance(sim, choice, &mut PhaseProfile::disabled());
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
