//! Exploration support: snapshot/restore, canonical state hashing, and a
//! choice-driven simulation for bounded model checking.
//!
//! [`Simulation`](crate::Simulation) samples *one* schedule per seed: the
//! queue orders events by randomly drawn delivery times. The paper's
//! safety claims, however, are universally quantified over message
//! schedules — so `scup-mc` needs a simulation it can *drive*: at every
//! step the explorer picks which pending event fires next, forks the state
//! to try the alternatives, and hashes states to prune convergent
//! interleavings. [`ExploreSim`] is that substrate:
//!
//! - **untimed semantics** — pending events are a multiset of enabled
//!   choices, not a time-ordered queue. Any delivery order is legal, which
//!   over-approximates every partially synchronous schedule (sound for
//!   safety properties);
//! - **snapshot/restore over shared slots** — each process is one
//!   reference-counted *slot* (actor, knowledge set, timer count).
//!   [`ExploreSim::snapshot`] and [`ExploreSim::restore`] copy `n` slot
//!   pointers and the pending multiset's pointers; no actor is forked.
//!   The first write to a slot that a [`SimState`] still shares forks
//!   that one actor ([`Actor::fork`]), so a transition pays for the
//!   processes it delivers to, not for `n`. [`ExploreSim::restore_owned`]
//!   moves the pointers out of a state its caller is done with, so a
//!   slot only that state held is written in place;
//! - **canonical hashing** — [`ExploreSim::state_hash`] folds per-slot
//!   hashes (knowledge set, timer count, [`Actor::fingerprint`]) in id
//!   order with an order-independent digest of the pending-event multiset
//!   into a 128-bit value that is identical for identical states however
//!   they were reached (no hash-ordered collection touches this path).
//!   A process-id renaming is a mode of the hasher, not a second hook:
//!   fingerprints write ids through [`StateHasher::write_id`] /
//!   [`StateHasher::write_set`], and [`ExploreSim::state_hash_perm`]
//!   runs the same fingerprints on [`StateHasher::with_renaming`] hashers to
//!   get the hash of the renamed state (symmetry reduction).
//!   A slot remembers its hash — under the identity and under each
//!   symmetry-group element — until it is next written, and an event
//!   remembers its hashes for the life of the simulation (below), so
//!   hashing a state re-fingerprints only what the last transition
//!   touched;
//! - **one allocation per distinct event** — an exploration emits the
//!   same few dozen events hundreds of thousands of times. Every pending
//!   entry is built through one table per simulation that maps an event
//!   hash to the first event emitted with it ([`SimMessage::fingerprint`]
//!   says two payloads are equal iff delivering them is
//!   indistinguishable, the contract state dedup already rests on). An
//!   entry is that shared event plus what belongs to the one copy — the
//!   send that caused it and its recipient, 16 bytes — so a repeat costs a
//!   reference bump, and an event's renamed hashes are computed once per
//!   distinct event, not once per copy. The table lives as long as the
//!   simulation and serves it with the memo on or off; it counts what it
//!   was handed ([`ExploreSim::event_counts`]). Debug builds check on
//!   every hit that the interned event renders (`Debug`, what a
//!   counterexample prints) like the one it stands for;
//! - **absorbed events** — gossip floods make most deliveries no-ops
//!   (duplicate envelopes the receiver has already seen).
//!   [`Actor::absorbs`] lets an actor declare such deliveries, and
//!   [`ExploreSim::drain_absorbed`] retires them eagerly without
//!   branching — and, the declaration being a contract, without calling
//!   the actor (debug builds replay each one on a scratch fork and assert
//!   it was the no-op it claimed to be);
//! - **settling what a fire touched** — an [`Actor::absorbs`] or
//!   [`Actor::threshold_inert`] answer is a function of the recipient's
//!   slot and the event alone, and a fire writes one slot and appends its
//!   emissions. So after a fire from a settled state only the events at
//!   that recipient, and those past an index the caller names, can have
//!   changed their answer: [`ExploreSim::drain_absorbed_touched`] and
//!   [`ExploreSim::first_threshold_inert`] ask nothing else, and the
//!   model checker's settle (absorbed drain plus forced inert fires)
//!   costs what the fire touched instead of a rescan of the pending list
//!   per forced fire. Both count their asks ([`ExploreSim::settle_counts`]);
//! - **local-transition memo** — in the untimed semantics a step is a
//!   function of *(recipient's slot, event)* alone, and an exploration
//!   fires the same few thousand such pairs hundreds of thousands of
//!   times. A simulation that was handed a memo
//!   ([`ExploreSim::memoise_steps`]) looks every fire — branching or
//!   forced, delivery or timer — up by *(slot hash before the write,
//!   event hash)*. A hit costs two pointer copies: the remembered
//!   successor slot (with its hashes under every group element already
//!   memoised) is installed and the remembered events (with theirs) are
//!   pushed, in the first execution's order; no actor is forked or
//!   called. A miss executes as ever, then *interns* the successor — the
//!   first slot object seen with a given hash stands for all of them, so
//!   the table pins one object per distinct slot state, not one per
//!   step — and records the step. Only an exhaustive search over actors
//!   whose fingerprint is a congruence (below) may hand one out: a
//!   memoised simulation records no event log, and its
//!   observational actor state (statistics, provenance) is whichever
//!   path first produced each slot. A simulation without a memo executes
//!   every step.
//!
//! Timers carry no delay here: a pending timer is just another schedulable
//! choice (asynchrony lets it fire at any point), bounded by a per-process
//! budget so timer re-arming cannot make the state space infinite.
//!
//! Determinism contract: actors driven by an `ExploreSim` must not consume
//! [`Context::rng`] — the RNG is not part of the canonical hash, so
//! rng-dependent behaviour would make visited-state pruning unsound. All
//! protocol actors in this workspace are rng-free. They cannot observe
//! time either: [`Context::now`] is [`SimTime::ZERO`] in every callback
//! (only the event log carries the fired-event count).
//!
//! Congruence contract: visited-state pruning assumes that slots with
//! equal hashes behave equally from then on, and the memo relies on it
//! step by step — equal slot hash and equal event must give an equal
//! successor hash, the same emitted events *as a multiset* (an actor's
//! send order may depend on state outside its fingerprint, and `pending`
//! is a multiset to the state hash) and the same timers, and the
//! successors must answer [`Actor::absorbs`] and
//! [`Actor::threshold_inert`] alike. Debug builds re-execute every
//! replayed step on a scratch fork and assert exactly that.

use std::any::Any;
use std::cell::RefCell;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng as _;
use scup_graph::{KnowledgeGraph, ProcessId, ProcessSet};

use scup_obs::causal::{CausalGraph, CausalKind, EventId};

use crate::actor::{Actor, Context, SimMessage};
use crate::time::SimTime;

/// A canonical, deterministic 128-bit state hasher (two independent
/// FNV-1a-style streams). Unlike [`std::hash::DefaultHasher`], its output
/// is specified and stable across processes and platforms, so visited-state
/// sets and cross-worker frontier sharding agree on state identity.
///
/// A hasher is built plain ([`StateHasher::new`]) or under a renaming
/// ([`StateHasher::with_renaming`]); [`StateHasher::write_id`] and
/// [`StateHasher::write_set`] feed the image of what they are given, so
/// one fingerprint body yields the hash of a value and — under `π` — the
/// hash its `π`-renamed copy would have.
#[derive(Debug, Clone)]
pub struct StateHasher<'p> {
    a: u64,
    b: u64,
    perm: Option<&'p Perm>,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Second stream: same update rule, different offset and a multiply-xor
/// tail, so the two 64-bit halves fail independently.
const ALT_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15;

impl<'p> StateHasher<'p> {
    fn under(perm: Option<&'p Perm>) -> Self {
        StateHasher {
            a: FNV_OFFSET,
            b: ALT_OFFSET,
            perm,
        }
    }

    /// A fresh hasher that feeds process ids as they are.
    pub fn new() -> Self {
        StateHasher::under(None)
    }

    /// A fresh hasher that feeds every process id renamed through `perm`.
    pub fn with_renaming(perm: &'p Perm) -> Self {
        StateHasher::under(Some(perm))
    }

    /// The renaming this hasher applies, if any — for state that keeps a
    /// cached digest of its plain form and recomputes only the renamed
    /// one.
    pub fn renaming(&self) -> Option<&'p Perm> {
        self.perm
    }

    /// An empty unordered collection to hash entries into under this
    /// hasher's renaming; feed it back with
    /// [`StateHasher::write_unordered`].
    pub fn unordered(&self) -> Unordered<'p> {
        Unordered {
            perm: self.perm,
            len: 0,
            digest: 0,
        }
    }

    /// Feeds one byte.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.a = (self.a ^ v as u64).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ v as u64)
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .rotate_left(23);
    }

    /// Feeds a `u64` in one mixing round per stream. Exploration
    /// fingerprints are almost entirely `u32`/`u64`/set words, so folding
    /// a whole word per multiply (instead of byte-at-a-time) cuts the
    /// hashing cost of every visited state by ~8× at the same 128-bit
    /// output quality (both streams still diffuse through the final
    /// avalanche).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.a = (self.a ^ v).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ v.rotate_left(32))
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .rotate_left(23);
    }

    /// Feeds a `u128`.
    pub fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    /// Feeds a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    /// Feeds a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Feeds a length-prefixed byte string.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for &byte in bytes {
            self.write_u8(byte);
        }
    }

    /// Feeds a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Feeds a process id — its image under the renaming, if there is
    /// one. Every id a fingerprint mentions must enter through here or
    /// through [`StateHasher::write_set`]: an id fed as a plain integer
    /// is invisible to the symmetry reduction.
    #[inline]
    pub fn write_id(&mut self, id: ProcessId) {
        let image = self.perm.map_or(id, |perm| perm.apply(id));
        self.write_u32(image.as_u32());
    }

    /// Feeds a process set (canonical: the normalized word
    /// representation) — under a renaming, its image, value-identical to
    /// feeding `perm.apply_set(s)` without building the renamed set: the
    /// renamed words are assembled in registers and fed directly. One
    /// pass over `s` when every image is below 64, one more pass per
    /// further word otherwise.
    pub fn write_set(&mut self, s: &ProcessSet) {
        let Some(perm) = self.perm else {
            let words = s.as_words();
            self.write_u64(words.len() as u64);
            for &w in words {
                self.write_u64(w);
            }
            return;
        };
        const BITS: usize = u64::BITS as usize;
        let mut first = 0u64;
        let mut words = 0;
        for i in s.iter() {
            let image = perm.apply(i).index();
            words = words.max(image / BITS + 1);
            if image < BITS {
                first |= 1u64 << image;
            }
        }
        self.write_u64(words as u64);
        if words > 0 {
            self.write_u64(first);
        }
        for w in 1..words {
            let word = s
                .iter()
                .map(|i| perm.apply(i).index())
                .filter(|image| image / BITS == w)
                .fold(0u64, |word, image| word | 1u64 << (image % BITS));
            self.write_u64(word);
        }
    }

    /// Feeds an unordered collection: its entry count and digest.
    pub fn write_unordered(&mut self, entries: Unordered<'p>) {
        self.write_u64(entries.len);
        self.write_u128(entries.digest);
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        // Final avalanche so short inputs still spread across both halves.
        let a = (self.a ^ (self.a >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        let b = (self.b ^ (self.b >> 29)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((a as u128) << 64) | b as u128
    }
}

/// The hash of a collection whose order carries no meaning — or would be
/// permuted by a renaming: each entry is hashed on its own and the entry
/// hashes are XORed. XOR is order-independent, so the digest is a function
/// of the contents, and the renamed digest needs no sorting pass. Made by
/// [`StateHasher::unordered`].
#[derive(Debug)]
pub struct Unordered<'p> {
    perm: Option<&'p Perm>,
    len: u64,
    digest: u128,
}

impl<'p> Unordered<'p> {
    /// Adds one entry: whatever `write` feeds the empty hasher it is
    /// handed (under the renaming of the hasher this collection is for).
    pub fn entry(&mut self, write: impl FnOnce(&mut StateHasher<'p>)) {
        let mut h = StateHasher::under(self.perm);
        write(&mut h);
        self.digest ^= h.finish();
        self.len += 1;
    }
}

impl Default for StateHasher<'_> {
    fn default() -> Self {
        StateHasher::new()
    }
}

/// A process-id permutation, used by the model checker's symmetry
/// reduction: states that differ only by a renaming of interchangeable
/// processes (equal slices, inputs and adversary role — verified by the
/// checker against the FBQS) are explored once.
///
/// The permutation maps *old* id → *new* id; ids beyond the stored range
/// map to themselves. The inverse is precomputed so permuted state hashes
/// can walk slots in new-id order without searching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Perm {
    map: Vec<u32>,
    inv: Vec<u32>,
    identity: bool,
}

impl Perm {
    /// Builds a permutation from an old-id → new-id map.
    ///
    /// # Panics
    ///
    /// Panics if `map` is not a bijection on `0..map.len()`.
    pub fn from_map(map: Vec<u32>) -> Self {
        let mut inv = vec![u32::MAX; map.len()];
        for (i, &j) in map.iter().enumerate() {
            assert!(
                (j as usize) < map.len() && inv[j as usize] == u32::MAX,
                "permutation map must be a bijection"
            );
            inv[j as usize] = i as u32;
        }
        let identity = map.iter().enumerate().all(|(i, &j)| i as u32 == j);
        Perm { map, inv, identity }
    }

    /// The identity permutation on `n` processes.
    pub fn identity(n: usize) -> Self {
        Perm {
            map: (0..n as u32).collect(),
            inv: (0..n as u32).collect(),
            identity: true,
        }
    }

    /// `true` when every id maps to itself (decided at construction).
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// The image of `i`.
    #[inline]
    pub fn apply(&self, i: ProcessId) -> ProcessId {
        match self.map.get(i.index()) {
            Some(&j) => ProcessId::new(j),
            None => i,
        }
    }

    /// The preimage of `j`.
    #[inline]
    pub fn apply_inv(&self, j: ProcessId) -> ProcessId {
        match self.inv.get(j.index()) {
            Some(&i) => ProcessId::new(i),
            None => j,
        }
    }

    /// The element-wise image of a process set.
    pub fn apply_set(&self, s: &ProcessSet) -> ProcessSet {
        s.iter().map(|i| self.apply(i)).collect()
    }
}

/// One schedulable event of an [`ExploreSim`]: an in-flight message
/// delivery, or a pending timer.
#[derive(Debug, Clone)]
pub enum ExploreEvent<M> {
    /// Deliver `msg` from `from` to `to`.
    Deliver {
        /// The sender.
        from: ProcessId,
        /// The receiver.
        to: ProcessId,
        /// The payload.
        msg: M,
    },
    /// Fire the timer `tag` at `process`.
    Timer {
        /// The process whose timer fires.
        process: ProcessId,
        /// The timer tag.
        tag: u64,
    },
}

impl<M: SimMessage> ExploreEvent<M> {
    /// The process this event acts on. Events at distinct recipients
    /// commute (each mutates only its recipient's state and appends to the
    /// pending multiset) — the independence relation behind the explorer's
    /// partial-order reduction.
    pub fn recipient(&self) -> ProcessId {
        match self {
            ExploreEvent::Deliver { to, .. } => *to,
            ExploreEvent::Timer { process, .. } => *process,
        }
    }

    /// Feeds the event: kind, the process ids it names, payload
    /// fingerprint. Under a renaming, what the event *would be* in the
    /// renamed run.
    pub fn fingerprint(&self, h: &mut StateHasher) {
        match self {
            ExploreEvent::Deliver { from, to, msg } => {
                h.write_u8(1);
                h.write_id(*from);
                h.write_id(*to);
                msg.fingerprint(h);
            }
            ExploreEvent::Timer { process, tag } => {
                h.write_u8(2);
                h.write_id(*process);
                h.write_u64(*tag);
            }
        }
    }

    /// Canonical per-event hash (used for the pending-multiset part of the
    /// state hash and for deduplicating equivalent choices).
    pub fn event_hash(&self) -> u128 {
        self.hash_with(StateHasher::new())
    }

    fn hash_with(&self, mut h: StateHasher) -> u128 {
        self.fingerprint(&mut h);
        h.finish()
    }
}

/// A lazily filled row of hashes of one value, one entry per renaming it
/// has been hashed under: the memo beside each slot and pending event.
#[derive(Debug, Default)]
struct HashMemo(RefCell<Vec<Option<u128>>>);

impl HashMemo {
    /// The hash remembered at `idx`, computing and remembering it first
    /// when absent.
    fn get_or_compute(&self, idx: usize, compute: impl FnOnce() -> u128) -> u128 {
        if let Some(Some(hash)) = self.0.borrow().get(idx) {
            return *hash;
        }
        let hash = compute();
        let mut row = self.0.borrow_mut();
        if row.len() <= idx {
            row.resize(idx + 1, None);
        }
        row[idx] = Some(hash);
        hash
    }

    /// Forgets everything (the value changed); keeps the allocation.
    fn clear(&mut self) {
        self.0.get_mut().clear();
    }
}

/// One distinct event of a simulation, as every pending entry that holds
/// it shares it: the event, its hash, and its hashes under the group
/// elements it has been hashed under so far. Made only by
/// [`EventTable::pending`], once per event hash, and kept by the table
/// for the life of the simulation.
#[derive(Debug)]
struct SharedEvent<M> {
    event: ExploreEvent<M>,
    /// [`ExploreEvent::event_hash`]: the table's key, and what the state
    /// hash and the choice dedup read.
    hash: u128,
    /// `perm_hashes[k]`: the event's hash under group element `k`.
    perm_hashes: HashMemo,
}

/// One pending entry: the interned event and what belongs to this copy
/// alone. Snapshot/restore clone the pending multiset once per visited
/// state, and that clone is a reference bump per entry.
#[derive(Debug, Clone)]
struct Pending<M> {
    event: Rc<SharedEvent<M>>,
    /// Log id of the send that enqueued this copy ([`EventId::NONE`]
    /// while the event log is off — i.e. outside counterexample replay).
    /// Never part of the state hash.
    cause: EventId,
    /// The event's recipient, inline: the settle scans ask it of every
    /// pending event and the event itself of only a few.
    to: ProcessId,
}

const _: () = assert!(std::mem::size_of::<Pending<()>>() == 16);

impl<M: SimMessage> Pending<M> {
    /// The event's hash under the identity.
    fn hash(&self) -> u128 {
        self.event.hash
    }

    /// The event's hash under group element `k`, remembered in the shared
    /// event.
    fn hash_perm(&self, k: usize, perm: &Perm) -> u128 {
        self.event.perm_hashes.get_or_compute(k, || {
            self.event.event.hash_with(StateHasher::with_renaming(perm))
        })
    }

    fn event_size_hint(&self) -> usize {
        match &self.event.event {
            ExploreEvent::Deliver { msg, .. } => msg.size_hint(),
            ExploreEvent::Timer { .. } => 16,
        }
    }
}

/// The events of one simulation, interned by event hash (see the
/// [module docs](self)): the one way to build a [`Pending`] entry.
/// Probed by key only — nothing iterates it, so its layout reaches no
/// result.
struct EventTable<M> {
    interned: FoldMap<u128, Rc<SharedEvent<M>>>,
    /// Entries built so far. An effort counter, untouched by `restore`.
    emitted: u64,
}

impl<M: SimMessage> EventTable<M> {
    fn new() -> Self {
        EventTable {
            interned: FoldMap::default(),
            emitted: 0,
        }
    }

    /// The pending entry for `event`, sent by `cause`: a handle on the
    /// first event with its hash, which `event` is dropped in favour of.
    fn pending(&mut self, event: ExploreEvent<M>, cause: EventId) -> Pending<M> {
        self.emitted += 1;
        let hash = event.event_hash();
        let to = event.recipient();
        let shared = match self.interned.entry(hash) {
            Entry::Occupied(first) => {
                // A counterexample prints the interned event, so it must
                // render as the one it stands for.
                debug_assert_eq!(
                    format!("{:?}", first.get().event),
                    format!("{event:?}"),
                    "two events with one event hash render differently: the payload's \
                     fingerprint misses what its Debug shows"
                );
                Rc::clone(first.get())
            }
            Entry::Vacant(vacant) => Rc::clone(vacant.insert(Rc::new(SharedEvent {
                event,
                hash,
                perm_hashes: HashMemo::default(),
            }))),
        };
        Pending {
            event: shared,
            cause,
            to,
        }
    }
}

/// Everything the simulation holds about one process. States share slots
/// behind an `Rc`; a slot is written only through
/// `ExploreSim::slot_mut`, which forks it first when it is shared and
/// clears the memo either way.
struct Slot<M> {
    actor: Box<dyn Actor<M>>,
    known: ProcessSet,
    /// Timers armed so far; arming stops at the budget (protocol liveness
    /// timers re-arm forever, which would make the untimed state space
    /// infinite).
    timers_armed: u32,
    /// `memo[0]`: the slot's hash under the identity; `memo[k + 1]`:
    /// under group element `k`.
    memo: HashMemo,
}

impl<M: SimMessage> Slot<M> {
    /// The slot's hash from scratch: knowledge set, timer count and actor
    /// fingerprint, fed to the (empty) hasher given.
    fn compute_hash(&self, mut h: StateHasher) -> u128 {
        h.write_set(&self.known);
        h.write_u32(self.timers_armed);
        self.actor.fingerprint(&mut h);
        h.finish()
    }

    /// The memoised hash under the identity.
    fn hash(&self) -> u128 {
        self.memo
            .get_or_compute(0, || self.compute_hash(StateHasher::new()))
    }

    /// The memoised hash under group element `k`.
    fn hash_perm(&self, k: usize, perm: &Perm) -> u128 {
        self.memo.get_or_compute(k + 1, || {
            self.compute_hash(StateHasher::with_renaming(perm))
        })
    }

    /// A private copy of the slot at process `pid`, with nothing
    /// remembered.
    ///
    /// # Panics
    ///
    /// Panics if the actor does not implement [`Actor::fork`].
    fn fork(&self, pid: ProcessId) -> Slot<M> {
        Slot {
            actor: self
                .actor
                .fork()
                .unwrap_or_else(|| panic!("actor {} does not support fork()", pid.index())),
            known: self.known.clone(),
            timers_armed: self.timers_armed,
            memo: HashMemo::default(),
        }
    }

    /// Arms one more timer unless the budget is spent; `true` when armed.
    fn arm_timer(&mut self, budget: u32) -> bool {
        let armed = self.timers_armed < budget;
        self.timers_armed += armed as u32;
        armed
    }

    /// Whether delivering `event` here is a declared no-op
    /// ([`Actor::absorbs`]) that also cannot change the knowledge set (the
    /// sender is already known). Never for a timer.
    fn absorbs(&self, event: &ExploreEvent<M>) -> bool {
        match event {
            ExploreEvent::Deliver { from, to, msg } => {
                self.known.contains(*from) && self.actor.absorbs(*to, &self.known, *from, msg)
            }
            ExploreEvent::Timer { .. } => false,
        }
    }

    /// Whether delivering `event` here is declared threshold-inert
    /// ([`Actor::threshold_inert`]). Never for a timer.
    fn threshold_inert(&self, event: &ExploreEvent<M>) -> bool {
        match event {
            ExploreEvent::Deliver { from, to, msg } => {
                self.actor.threshold_inert(*to, &self.known, *from, msg)
            }
            ExploreEvent::Timer { .. } => false,
        }
    }
}

/// Hasher of the memo and event tables. Their keys are 128-bit hashes —
/// already uniform — so folding the words together is all the mixing a
/// bucket index needs.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ byte as u64;
        }
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = self.0.rotate_left(32) ^ v as u64 ^ (v >> 64) as u64;
    }
}

type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// One remembered local transition: what firing an event at a slot left
/// behind.
struct Step<M> {
    successor: Rc<Slot<M>>,
    /// The events the callback enqueued, in the order of the execution
    /// that was recorded.
    emitted: Box<[Pending<M>]>,
}

/// The local-transition memo of one simulation (see the
/// [module docs](self)). Both tables are only ever probed by key —
/// nothing iterates them, so their layout reaches no result.
struct StepMemo<M> {
    /// `(slot hash before the write, event hash)` → the step.
    steps: FoldMap<(u128, u128), Step<M>>,
    /// Slot hash → the first slot object produced with that hash.
    interned: FoldMap<u128, Rc<Slot<M>>>,
}

/// A saved simulation state: the process slots and pending events (both
/// shared with the simulation that took it and with every state derived
/// from it) and the step counters. Produced by [`ExploreSim::snapshot`],
/// read by [`ExploreSim::restore`] and consumed by
/// [`ExploreSim::restore_owned`].
pub struct SimState<M> {
    slots: Vec<Rc<Slot<M>>>,
    pending: Vec<Pending<M>>,
    steps: u64,
    events_fired: u64,
}

/// A choice-driven simulation over the actors of a knowledge graph: the
/// exploration twin of [`Simulation`](crate::Simulation). See the
/// [module docs](self).
pub struct ExploreSim<M: SimMessage> {
    kg: KnowledgeGraph,
    slots: Vec<Rc<Slot<M>>>,
    pending: Vec<Pending<M>>,
    timer_budget: u32,
    /// Branching events fired (depth in the exploration tree).
    steps: u64,
    /// All events fired, including absorbed ones.
    events_fired: u64,
    started: bool,
    rng: StdRng,
    /// The event log of the one path fired so far. Off unless
    /// [`ExploreSim::enable_causal`] was called.
    causal: CausalGraph,
    outbox_buf: Vec<(ProcessId, M)>,
    timers_buf: Vec<(u64, u64)>,
    /// `None` unless [`ExploreSim::memoise_steps`] was called.
    memo: Option<StepMemo<M>>,
    /// Every event emitted so far, interned by hash.
    events: EventTable<M>,
    /// Fires answered from the memo / fires that ran an actor callback.
    /// Effort counters: not part of any state, untouched by `restore`.
    steps_replayed: u64,
    steps_executed: u64,
    /// `absorbs` / `threshold_inert` answers the targeted drain and scan
    /// asked for, and forced (uncounted) fires. Effort counters, like the
    /// two above.
    verdict_queries: u64,
    forced_fires: u64,
}

impl<M: SimMessage> ExploreSim<M> {
    /// Creates an exploration over the processes of `kg` with initial
    /// knowledge `known_i = PD_i`. Each process may fire at most
    /// `timer_budget` timer events.
    pub fn new(kg: KnowledgeGraph, timer_budget: u32) -> Self {
        ExploreSim {
            kg,
            slots: Vec::new(),
            pending: Vec::new(),
            timer_budget,
            steps: 0,
            events_fired: 0,
            started: false,
            rng: StdRng::seed_from_u64(0),
            causal: CausalGraph::disabled(),
            outbox_buf: Vec::new(),
            timers_buf: Vec::new(),
            memo: None,
            events: EventTable::new(),
            steps_replayed: 0,
            steps_executed: 0,
            verdict_queries: 0,
            forced_fires: 0,
        }
    }

    /// Registers the actor for the next process id (call exactly `n`
    /// times, in id order).
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ProcessId {
        assert!(!self.started, "cannot add actors after start");
        assert!(self.slots.len() < self.kg.n(), "more actors than processes");
        let pid = ProcessId::new(self.slots.len() as u32);
        self.slots.push(Rc::new(Slot {
            actor,
            known: self.kg.pd(pid).clone(),
            timers_armed: 0,
            memo: HashMemo::default(),
        }));
        pid
    }

    /// Runs every actor's `on_start`, in id order. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        assert_eq!(
            self.slots.len(),
            self.kg.n(),
            "every process needs an actor before the run starts"
        );
        self.started = true;
        for i in 0..self.slots.len() {
            self.dispatch(ProcessId::new(i as u32), |actor, ctx| actor.on_start(ctx));
        }
    }

    /// The number of processes.
    pub fn n(&self) -> usize {
        self.kg.n()
    }

    /// The knowledge graph the exploration started from.
    pub fn knowledge_graph(&self) -> &KnowledgeGraph {
        &self.kg
    }

    /// The current knowledge set of process `i`.
    pub fn known(&self, i: ProcessId) -> &ProcessSet {
        &self.slots[i.index()].known
    }

    /// The currently enabled events.
    pub fn pending(&self) -> impl ExactSizeIterator<Item = &ExploreEvent<M>> {
        self.pending.iter().map(|p| &p.event.event)
    }

    /// `true` when no events remain.
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty()
    }

    /// Branching events fired so far (exploration depth).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// All events fired so far, including absorbed ones.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Downcasts an actor to its concrete type.
    pub fn actor_as<T: 'static>(&self, i: ProcessId) -> Option<&T> {
        let any: &dyn Any = &*self.slots[i.index()].actor;
        any.downcast_ref::<T>()
    }

    /// Turns the event log on (see [`CausalGraph`]; used when replaying
    /// a counterexample schedule, to render it and to build its forensic
    /// report). Not meaningful for branching exploration: the log records
    /// the one linear schedule actually fired and is untouched by
    /// [`ExploreSim::restore`]. Event times are fired-event counts.
    ///
    /// # Panics
    ///
    /// Panics on a memoised simulation: a replayed step records nothing.
    pub fn enable_causal(&mut self) {
        assert!(
            self.memo.is_none(),
            "a memoised simulation records no event log"
        );
        self.causal.enable(self.kg.n());
    }

    /// Hands this simulation an (empty) local-transition memo: from here
    /// on a fire whose *(recipient slot hash, event hash)* pair was fired
    /// before — in this simulation, in any state restored into it —
    /// installs the remembered successor slot and events instead of
    /// calling the actor (see the [module docs](self)). The memo lives
    /// and dies with the simulation.
    ///
    /// Exact only when every actor's fingerprint is a congruence, and
    /// only worth it for an exhaustive search; everything that renders a
    /// schedule (replay, counterexample search, forensics) must run on a
    /// simulation that never called this.
    ///
    /// # Panics
    ///
    /// Panics when the event log is on.
    pub fn memoise_steps(&mut self) {
        assert!(
            !self.causal.is_enabled(),
            "a memoised simulation records no event log"
        );
        self.memo.get_or_insert_with(|| StepMemo {
            steps: FoldMap::default(),
            interned: FoldMap::default(),
        });
    }

    /// `(replayed, executed)`: how many fires so far were answered from
    /// the memo, and how many ran an actor callback. Effort counters over
    /// the life of the simulation: [`ExploreSim::restore`] does not rewind
    /// them.
    pub fn step_counts(&self) -> (u64, u64) {
        (self.steps_replayed, self.steps_executed)
    }

    /// `(emitted, distinct)`: how many pending entries the actor
    /// callbacks run so far emitted (a memo replay emits none: it installs
    /// entries built before), and how many distinct events — hence
    /// allocations — they came to. Effort counters over the life of the
    /// simulation, like [`ExploreSim::step_counts`].
    pub fn event_counts(&self) -> (u64, u64) {
        (self.events.emitted, self.events.interned.len() as u64)
    }

    /// `(queries, forced)`: how many [`Actor::absorbs`] /
    /// [`Actor::threshold_inert`] answers [`ExploreSim::drain_absorbed_touched`]
    /// (hence [`ExploreSim::drain_absorbed`]) and
    /// [`ExploreSim::first_threshold_inert`] asked for, and how many fires
    /// were [`ExploreSim::fire_uncounted`]. Effort counters over the life
    /// of the simulation, like [`ExploreSim::step_counts`]; the
    /// [`ExploreSim::is_absorbed`] / [`ExploreSim::is_threshold_inert`]
    /// probes count nothing.
    pub fn settle_counts(&self) -> (u64, u64) {
        (self.verdict_queries, self.forced_fires)
    }

    /// The event log (empty unless [`ExploreSim::enable_causal`] was
    /// called before the first fire).
    pub fn causal(&self) -> &CausalGraph {
        &self.causal
    }

    /// Mutable access to an actor as its concrete type (for enabling
    /// per-actor observability before a replay). Counts as a write to the
    /// process's slot.
    pub fn actor_as_mut<T: 'static>(&mut self, i: ProcessId) -> Option<&mut T> {
        let any: &mut dyn Any = &mut *Self::slot_mut(&mut self.slots, i).actor;
        any.downcast_mut::<T>()
    }

    /// The one way to write to a process: forks the slot first when a
    /// saved state still shares it (the copy-on-write step — the only
    /// [`Actor::fork`] of the product path), and forgets its hashes.
    fn slot_mut(slots: &mut [Rc<Slot<M>>], pid: ProcessId) -> &mut Slot<M> {
        let rc = &mut slots[pid.index()];
        if Rc::get_mut(rc).is_none() {
            *rc = Rc::new(rc.fork(pid));
        }
        let slot = Rc::get_mut(rc).expect("the slot was just made unique");
        slot.memo.clear();
        slot
    }

    /// Runs one actor callback, flushing sends and timer arms into the
    /// pending multiset. Returns how many new events were enqueued.
    fn dispatch<F>(&mut self, pid: ProcessId, f: F) -> usize
    where
        F: FnOnce(&mut dyn Actor<M>, &mut Context<'_, M>),
    {
        let mut outbox = std::mem::take(&mut self.outbox_buf);
        let mut timers = std::mem::take(&mut self.timers_buf);
        debug_assert!(outbox.is_empty() && timers.is_empty());
        let slot = Self::slot_mut(&mut self.slots, pid);
        let mut ctx = Context {
            self_id: pid,
            // Not `events_fired`: that is path-dependent, and neither the
            // state hash nor the memo key covers it.
            now: SimTime::ZERO,
            known: &mut slot.known,
            rng: &mut self.rng,
            outbox: &mut outbox,
            timers: &mut timers,
            // The explorer never models crashes, so journal writes would
            // be dead weight on the hot path; actors see `None` and skip.
            journal: None,
        };
        f(&mut *slot.actor, &mut ctx);
        let mut enqueued = 0;
        for (to, msg) in outbox.drain(..) {
            // No slot claim: equivocation attribution is a sampled-run
            // report, and an explored adversary is part of the scenario.
            let cause =
                self.causal
                    .record_send(self.events_fired, pid.as_u32(), to.as_u32(), || {
                        (format!("{msg:?}"), None)
                    });
            self.pending.push(
                self.events
                    .pending(ExploreEvent::Deliver { from: pid, to, msg }, cause),
            );
            enqueued += 1;
        }
        for (_delay, tag) in timers.drain(..) {
            // Delays are meaningless in the untimed semantics; the budget
            // caps how often a process's timers may fire at all.
            if slot.arm_timer(self.timer_budget) {
                self.pending.push(
                    self.events
                        .pending(ExploreEvent::Timer { process: pid, tag }, EventId::NONE),
                );
                enqueued += 1;
            }
        }
        self.outbox_buf = outbox;
        self.timers_buf = timers;
        enqueued
    }

    /// Fires pending event `idx` (a branching step). Returns how many new
    /// events the callback enqueued.
    pub fn fire(&mut self, idx: usize) -> usize {
        self.steps += 1;
        self.fire_inner(idx)
    }

    /// Fires pending event `idx` *without* counting a branching step —
    /// for forced moves the caller has proven commute with every enabled
    /// alternative (threshold-inert deliveries fired eagerly by the model
    /// checker's persistent-set reduction). The event still counts toward
    /// `events_fired` and still appears in the event log.
    pub fn fire_uncounted(&mut self, idx: usize) -> usize {
        self.forced_fires += 1;
        self.fire_inner(idx)
    }

    fn fire_inner(&mut self, idx: usize) -> usize {
        self.start();
        let pending = self.pending.remove(idx);
        self.events_fired += 1;
        let Some(memo) = &self.memo else {
            return self.execute(pending);
        };
        // The key is pinned here, before any write to the slot.
        let to = pending.to.index();
        let key = (self.slots[to].hash(), pending.hash());
        if let Some(step) = memo.steps.get(&key) {
            #[cfg(debug_assertions)]
            let before = Rc::clone(&self.slots[to]);
            self.slots[to] = Rc::clone(&step.successor);
            self.pending.extend(step.emitted.iter().cloned());
            self.steps_replayed += 1;
            let enqueued = step.emitted.len();
            #[cfg(debug_assertions)]
            self.assert_replay_is_exact(&before, &pending.event.event, enqueued);
            return enqueued;
        }
        let enqueued = self.execute(pending);
        let memo = self.memo.as_mut().expect("the memo probed above");
        let slot = &mut self.slots[to];
        // Intern: the first object with this hash stands for every later
        // one, so equal successors of different steps are one allocation
        // and share their renamed-hash memos. The memo's own handle makes
        // the slot shared, so the next write forks it: a remembered slot
        // is as immutable as a saved state's.
        match memo.interned.entry(slot.hash()) {
            Entry::Occupied(first) => *slot = Rc::clone(first.get()),
            Entry::Vacant(vacant) => {
                vacant.insert(Rc::clone(slot));
            }
        }
        let emitted = self.pending[self.pending.len() - enqueued..].into();
        memo.steps.insert(
            key,
            Step {
                successor: Rc::clone(slot),
                emitted,
            },
        );
        enqueued
    }

    /// Runs the actor callback of a fired event. Returns how many new
    /// events it enqueued (at the end of `pending`).
    fn execute(&mut self, pending: Pending<M>) -> usize {
        self.steps_executed += 1;
        // The table keeps the event; the callback gets a copy.
        match pending.event.event.clone() {
            ExploreEvent::Deliver { from, to, msg } => {
                // Authenticated channel: receiving teaches the receiver
                // the sender's identity, exactly like the timed simulator.
                Self::slot_mut(&mut self.slots, to).known.insert(from);
                self.record_delivery(from, to, pending.cause);
                self.dispatch(to, |actor, ctx| actor.on_message(ctx, from, msg))
            }
            ExploreEvent::Timer { process, tag } => {
                self.causal.record(
                    self.events_fired,
                    CausalKind::Timer {
                        process: process.as_u32(),
                        tag,
                    },
                    EventId::NONE,
                );
                self.dispatch(process, |actor, ctx| actor.on_timer(ctx, tag))
            }
        }
    }

    /// Logs one delivery, fired or absorbed.
    fn record_delivery(&mut self, from: ProcessId, to: ProcessId, cause: EventId) {
        self.causal.record(
            self.events_fired,
            CausalKind::Deliver {
                from: from.as_u32(),
                to: to.as_u32(),
            },
            cause,
        );
    }

    /// `true` when pending event `idx` is a delivery its recipient declares
    /// a no-op ([`Actor::absorbs`]) that also cannot change the knowledge
    /// set (the sender is already known).
    pub fn is_absorbed(&self, idx: usize) -> bool {
        let event = &self.pending[idx].event.event;
        self.slots[event.recipient().index()].absorbs(event)
    }

    /// Eagerly retires every absorbed event (without counting branching
    /// steps). Absorbed events commute with everything and stay absorbed
    /// in any extension (dedup/knowledge state only grows), so retiring
    /// them immediately explores a representative of the same trace class.
    /// Returns how many events were absorbed.
    ///
    /// An absorbed delivery is a no-op by contract, so it is retired
    /// *without calling the actor*: it leaves the pending multiset, counts
    /// toward `events_fired`, and gets its log event —
    /// nothing else happens, no slot is written. Debug builds check the
    /// contract on every one (see `assert_absorbed_is_noop`).
    ///
    /// One pass suffices: absorbed events are no-ops, so retiring them
    /// cannot turn another pending event absorbable.
    pub fn drain_absorbed(&mut self) -> u64 {
        let before = self.pending.len();
        // From index 0 on every event is fresh, so `at` is never read.
        self.drain_absorbed_touched(ProcessId::new(0), 0, 0);
        (before - self.pending.len()) as u64
    }

    /// [`ExploreSim::drain_absorbed`] after one fire at process `at` from a
    /// drained state: asks only the events at `at` and the events from
    /// index `fresh` on (the fire's emissions) whether they are absorbed.
    /// Every other event was asked before, against a slot the fire did not
    /// write, and the answer depends on that slot and the event alone
    /// ([`Actor::absorbs`]) — so this retires exactly what the full drain
    /// would, in the same order and with the same stable compaction. With
    /// `fresh = 0` it *is* the full drain.
    ///
    /// Returns where the event at index `mark` sits afterwards (`mark`
    /// minus the events retired below it), so an index the caller holds
    /// into the pending list survives the compaction.
    pub fn drain_absorbed_touched(&mut self, at: ProcessId, fresh: usize, mark: usize) -> usize {
        self.start();
        let mut kept = 0;
        let mut retired_below_mark = 0;
        for idx in 0..self.pending.len() {
            let to = self.pending[idx].to;
            let asked = idx >= fresh || to == at;
            self.verdict_queries += asked as u64;
            if !asked || !self.slots[to.index()].absorbs(&self.pending[idx].event.event) {
                self.pending.swap(kept, idx);
                kept += 1;
                continue;
            }
            retired_below_mark += (idx < mark) as usize;
            self.events_fired += 1;
            let ExploreEvent::Deliver { from, to, .. } = self.pending[idx].event.event else {
                unreachable!("only deliveries are absorbed");
            };
            self.record_delivery(from, to, self.pending[idx].cause);
            #[cfg(debug_assertions)]
            self.assert_absorbed_is_noop(&Rc::clone(&self.pending[idx].event).event);
        }
        self.pending.truncate(kept);
        mark - retired_below_mark
    }

    /// The lowest index of a pending event that `forcible` admits and its
    /// recipient declares threshold-inert ([`Actor::threshold_inert`]) —
    /// asking, below index `start`, only the events at process `at`. The
    /// caller vouches for the rest: each was asked (or refused by
    /// `forcible`) against the slot its recipient has now, and the answer
    /// depends on that slot and the event alone. With `start = 0` every
    /// event is asked.
    pub fn first_threshold_inert(
        &mut self,
        at: ProcessId,
        start: usize,
        mut forcible: impl FnMut(&ExploreEvent<M>) -> bool,
    ) -> Option<usize> {
        for (idx, p) in self.pending.iter().enumerate() {
            let (to, event) = (p.to, &p.event.event);
            if (idx < start && to != at) || !forcible(event) {
                continue;
            }
            self.verdict_queries += 1;
            if self.slots[to.index()].threshold_inert(event) {
                return Some(idx);
            }
        }
        None
    }

    /// Fires `event` at a scratch fork of `slot`, for the debug contract
    /// checks: the scratch successor plus the sends and timer arms of the
    /// callback, raw. Nothing of the live simulation is touched.
    #[cfg(debug_assertions)]
    fn fire_on_scratch(
        &mut self,
        slot: &Slot<M>,
        event: &ExploreEvent<M>,
    ) -> (Slot<M>, Vec<(ProcessId, M)>, Vec<(u64, u64)>) {
        let pid = event.recipient();
        let mut scratch = slot.fork(pid);
        let (mut outbox, mut timers) = (Vec::new(), Vec::new());
        if let ExploreEvent::Deliver { from, .. } = event {
            scratch.known.insert(*from);
        }
        let mut ctx = Context {
            self_id: pid,
            now: SimTime::ZERO,
            known: &mut scratch.known,
            rng: &mut self.rng,
            outbox: &mut outbox,
            timers: &mut timers,
            journal: None,
        };
        match event {
            ExploreEvent::Deliver { from, msg, .. } => {
                scratch.actor.on_message(&mut ctx, *from, msg.clone());
            }
            ExploreEvent::Timer { tag, .. } => scratch.actor.on_timer(&mut ctx, *tag),
        }
        (scratch, outbox, timers)
    }

    /// The `absorbs ⇒ no-op` contract, checked the expensive way: deliver
    /// the event to a scratch fork of the recipient and demand no sends,
    /// no timers and an unchanged slot hash. The real slot is not touched,
    /// so debug and release builds leave the simulation in the same state.
    #[cfg(debug_assertions)]
    fn assert_absorbed_is_noop(&mut self, event: &ExploreEvent<M>) {
        let slot = Rc::clone(&self.slots[event.recipient().index()]);
        let (scratch, outbox, timers) = self.fire_on_scratch(&slot, event);
        assert!(
            outbox.is_empty() && timers.is_empty(),
            "absorbed {event:?} made its recipient emit"
        );
        assert_eq!(
            scratch.compute_hash(StateHasher::new()),
            slot.compute_hash(StateHasher::new()),
            "absorbed {event:?} changed its recipient's state"
        );
    }

    /// The congruence contract behind a memo hit, checked the expensive
    /// way: `event` was just replayed at its recipient, whose slot was
    /// `before`; fire it at a scratch fork of `before` and demand (a) the
    /// memoised successor's hash, (b) the `replayed` events the memo
    /// pushed, as a multiset of event hashes — which covers the timers
    /// armed — and (c) the same [`Actor::absorbs`] and
    /// [`Actor::threshold_inert`] answers from both successors for
    /// everything now pending at the recipient. The live simulation is
    /// left as the release build leaves it.
    #[cfg(debug_assertions)]
    fn assert_replay_is_exact(
        &mut self,
        before: &Slot<M>,
        event: &ExploreEvent<M>,
        replayed: usize,
    ) {
        let pid = event.recipient();
        let (mut scratch, outbox, timers) = self.fire_on_scratch(before, event);
        let mut executed: Vec<u128> = outbox
            .into_iter()
            .map(|(to, msg)| ExploreEvent::Deliver { from: pid, to, msg }.event_hash())
            .collect();
        for (_delay, tag) in timers {
            if scratch.arm_timer(self.timer_budget) {
                executed.push(ExploreEvent::<M>::Timer { process: pid, tag }.event_hash());
            }
        }
        let successor = &self.slots[pid.index()];
        assert_eq!(
            scratch.compute_hash(StateHasher::new()),
            successor.hash(),
            "replaying {event:?} installed a successor its execution does not reach: \
             the recipient's fingerprint is not a congruence"
        );
        let mut memoised: Vec<u128> = self.pending[self.pending.len() - replayed..]
            .iter()
            .map(Pending::hash)
            .collect();
        executed.sort_unstable();
        memoised.sort_unstable();
        assert_eq!(
            executed, memoised,
            "replaying {event:?} emitted other events than its execution"
        );
        for p in &self.pending {
            let later = &p.event.event;
            if later.recipient() == pid {
                assert_eq!(
                    (scratch.absorbs(later), scratch.threshold_inert(later)),
                    (successor.absorbs(later), successor.threshold_inert(later)),
                    "after replaying {event:?}, the memoised and the executed successor \
                     (equal fingerprints) disagree on absorbs / threshold_inert of {later:?}"
                );
            }
        }
    }

    /// The canonical branching choices at this state: **every** pending
    /// event, deduplicated by event hash (firing either of two identical
    /// in-flight copies leads to identical states). Indexes are valid for
    /// [`ExploreSim::fire`] and sorted ascending.
    ///
    /// No recipient is privileged. A once-tempting reduction — branch
    /// only over the lowest pending recipient's events, since deliveries
    /// to distinct recipients commute — is *unsound*: an event at another
    /// process can create a new message that overtakes the privileged
    /// recipient's current queue, and same-recipient delivery order is
    /// semantically relevant, so those schedules would be silently
    /// pruned. Commuting interleavings still collapse cheaply: the
    /// diamond's two orders converge to one canonical state hash, so only
    /// the intermediate states are paid for, never whole subtrees.
    pub fn choices(&self) -> Vec<usize> {
        let mut seen: Vec<u128> = Vec::new();
        let mut out = Vec::new();
        for (idx, p) in self.pending.iter().enumerate() {
            if seen.contains(&p.hash()) {
                continue;
            }
            seen.push(p.hash());
            out.push(idx);
        }
        out
    }

    /// The canonical 128-bit hash of the current state. Identical states
    /// (actor fingerprints, knowledge sets, timer budgets, pending-event
    /// multiset) hash identically however they were reached. Folds the
    /// memoised slot hashes and the cached event hashes: only slots
    /// written since they were last hashed are fingerprinted again.
    pub fn state_hash(&self) -> u128 {
        Self::fold_state(
            self.slots.iter().map(|slot| slot.hash()),
            self.pending.iter().map(Pending::hash),
        )
    }

    /// The one definition of how slot hashes (in id order) and pending
    /// event hashes (any order) combine into a state hash, shared by the
    /// memoised hashes and the from-scratch oracle.
    ///
    /// The pending multiset enters as an order-independent digest — XOR
    /// and wrapping sum of the per-event hashes, folded without sorting
    /// or allocating; the two independent combines plus the length keep
    /// multiset collisions as unlikely as the underlying 128-bit event
    /// hashes.
    fn fold_state(
        slots: impl ExactSizeIterator<Item = u128>,
        events: impl ExactSizeIterator<Item = u128>,
    ) -> u128 {
        let mut h = StateHasher::new();
        h.write_u64(slots.len() as u64);
        for slot in slots {
            h.write_u128(slot);
        }
        h.write_u64(events.len() as u64);
        let (xor, sum) = events.fold((0u128, 0u128), |(x, s), e| (x ^ e, s.wrapping_add(e)));
        h.write_u128(xor);
        h.write_u128(sum);
        h.finish()
    }

    /// The state hash this simulation *would have* after renaming every
    /// process id through `perm`: actor slots, knowledge sets, timer
    /// budgets and pending events are all hashed in renamed form, in
    /// renamed-id order. Equals [`ExploreSim::state_hash`] of the
    /// `perm`-image state; the model checker's symmetry reduction takes
    /// the minimum over an automorphism group to get a canonical
    /// representative hash.
    ///
    /// `k` is `perm`'s index in the caller's group and keys the memos
    /// beside each slot and pending event: over the life of this
    /// simulation and every state restored into it, one `k` must always
    /// mean the same permutation.
    ///
    /// Only sound when every fingerprint writes the process ids it
    /// mentions through [`StateHasher::write_id`] /
    /// [`StateHasher::write_set`] — the checker enables symmetry only for
    /// rosters where that holds.
    pub fn state_hash_perm(&self, k: usize, perm: &Perm) -> u128 {
        if perm.is_identity() {
            return self.state_hash();
        }
        Self::fold_state(
            (0..self.slots.len()).map(|j| {
                let i = perm.apply_inv(ProcessId::new(j as u32)).index();
                self.slots[i].hash_perm(k, perm)
            }),
            self.pending.iter().map(|p| p.hash_perm(k, perm)),
        )
    }

    /// [`ExploreSim::state_hash`] (`perm = None`) or
    /// [`ExploreSim::state_hash_perm`] recomputed from scratch: every
    /// actor re-fingerprinted, every pending event re-hashed, no memo read
    /// or written. The oracle the memo tests compare against — the
    /// explorer never calls it.
    pub fn state_hash_from_scratch(&self, perm: Option<&Perm>) -> u128 {
        let hasher = || StateHasher::under(perm);
        let slot_of = |j: usize| match perm {
            None => j,
            Some(perm) => perm.apply_inv(ProcessId::new(j as u32)).index(),
        };
        Self::fold_state(
            (0..self.slots.len()).map(|j| self.slots[slot_of(j)].compute_hash(hasher())),
            self.pending
                .iter()
                .map(|p| p.event.event.hash_with(hasher())),
        )
    }

    /// The pending event at `idx` (an index as returned by
    /// [`ExploreSim::choices`]).
    pub fn pending_at(&self, idx: usize) -> &ExploreEvent<M> {
        &self.pending[idx].event.event
    }

    /// The cached canonical hash of pending event `idx`.
    pub fn pending_hash(&self, idx: usize) -> u128 {
        self.pending[idx].hash()
    }

    /// `true` when pending event `idx` is a delivery its recipient declares
    /// *threshold-inert* ([`Actor::threshold_inert`]): not a no-op, but
    /// guaranteed to commute with every other delivery to the same
    /// recipient — the dynamic independence the model checker's
    /// persistent-set reduction runs on.
    pub fn is_threshold_inert(&self, idx: usize) -> bool {
        let event = &self.pending[idx].event.event;
        self.slots[event.recipient().index()].threshold_inert(event)
    }

    /// A size model of one state in bytes: a fixed per-actor charge plus,
    /// per pending entry, a fixed charge and the payload's size hint.
    /// Deterministic (no allocator introspection) and a model, not a
    /// measurement: a pending entry really is 16 bytes and shares its
    /// event with every equal copy, and a slot is shared with every state
    /// that has not written it, but the charges are constants a report
    /// field pins. The explorer's `peak_memory_bytes` charges every
    /// visited state at the initial state's figure, plus its table slots,
    /// and tracks neither what a state really holds nor the process's
    /// resident peak.
    pub fn state_size_estimate(&self) -> u64 {
        // Box + vtable + knowledge set + timer counter + the handles of
        // the copy-on-write tables, per actor.
        const PER_ACTOR: u64 = 160;
        let payloads: u64 = self
            .pending
            .iter()
            .map(|p| p.event_size_hint() as u64 + 48)
            .sum();
        self.slots.len() as u64 * PER_ACTOR + payloads
    }

    /// Saves the full simulation state: `n` slot pointers and the pending
    /// events' pointers. No actor is forked here — the simulation forks a
    /// slot when it next writes to it, and the saved state keeps the
    /// original.
    pub fn snapshot(&self) -> SimState<M> {
        SimState {
            slots: self.slots.clone(),
            pending: self.pending.clone(),
            steps: self.steps,
            events_fired: self.events_fired,
        }
    }

    /// Rewinds to a previously taken snapshot, sharing its slots and
    /// events. Copies into the live vectors, so their capacity — the
    /// pending vector's head-room for the next enqueue included —
    /// survives the rewind.
    pub fn restore(&mut self, state: &SimState<M>) {
        self.slots.clone_from(&state.slots);
        self.pending.clone_from(&state.pending);
        self.steps = state.steps;
        self.events_fired = state.events_fired;
        self.started = true;
    }

    /// [`ExploreSim::restore`] for a saved state the caller is done with:
    /// its pointers move into the live vectors (whose capacity survives,
    /// as in `restore`) with no reference count bumped. A slot nothing
    /// but `state` held is then the simulation's alone, so its next write
    /// needs no fork.
    pub fn restore_owned(&mut self, mut state: SimState<M>) {
        self.slots.clear();
        self.slots.append(&mut state.slots);
        self.pending.clear();
        self.pending.append(&mut state.pending);
        self.steps = state.steps;
        self.events_fired = state.events_fired;
        self.started = true;
    }

    /// `true` when process `i`'s slot is the very one `state` holds: not
    /// written since the two last agreed (the copy-on-write invariant the
    /// sharing tests pin).
    pub fn shares_slot(&self, state: &SimState<M>, i: ProcessId) -> bool {
        Rc::ptr_eq(&self.slots[i.index()], &state.slots[i.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scup_graph::generators;

    #[derive(Clone, Debug, PartialEq)]
    struct Gossip(u32);
    impl SimMessage for Gossip {
        fn fingerprint(&self, h: &mut StateHasher) {
            h.write_u32(self.0);
        }
    }

    /// Floods every newly seen value to all known processes once.
    #[derive(Clone, Default)]
    struct Flooder {
        seen: Vec<u32>,
    }

    impl Actor<Gossip> for Flooder {
        fn on_start(&mut self, ctx: &mut Context<'_, Gossip>) {
            let v = ctx.self_id().as_u32();
            self.seen.push(v);
            ctx.broadcast_known(Gossip(v));
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Gossip>, _from: ProcessId, msg: Gossip) {
            if !self.seen.contains(&msg.0) {
                self.seen.push(msg.0);
                self.seen.sort_unstable();
                ctx.broadcast_known(msg);
            }
        }
        fn fork(&self) -> Option<Box<dyn Actor<Gossip>>> {
            Some(Box::new(self.clone()))
        }
        fn fingerprint(&self, h: &mut StateHasher) {
            h.write_u64(self.seen.len() as u64);
            for &v in &self.seen {
                h.write_u32(v);
            }
        }
        fn absorbs(
            &self,
            _self_id: ProcessId,
            _known: &ProcessSet,
            _from: ProcessId,
            msg: &Gossip,
        ) -> bool {
            self.seen.contains(&msg.0)
        }
    }

    fn flooder_sim() -> ExploreSim<Gossip> {
        let kg = generators::fig1();
        let mut sim = ExploreSim::new(kg, 0);
        for _ in 0..8 {
            sim.add_actor(Box::new(Flooder::default()));
        }
        sim.start();
        sim
    }

    #[test]
    fn start_enqueues_initial_sends() {
        let sim = flooder_sim();
        // One message per knowledge edge.
        assert_eq!(sim.pending().len(), 18);
        assert!(!sim.is_quiescent());
    }

    #[test]
    fn snapshot_restore_round_trips_bit_identically() {
        let mut sim = flooder_sim();
        let snap = sim.snapshot();
        let h0 = sim.state_hash();
        walk(&mut sim, 5);
        assert_ne!(sim.state_hash(), h0, "firing events changes the state");
        sim.restore(&snap);
        assert_eq!(sim.state_hash(), h0, "restore rewinds bit-identically");
        // And the restored state evolves exactly like the original did.
        let c = sim.choices();
        sim.fire(c[0]);
        let h1 = sim.state_hash();
        sim.restore(&snap);
        let c = sim.choices();
        sim.fire(c[0]);
        assert_eq!(sim.state_hash(), h1);
    }

    /// Fires the first choice until `steps` branching steps are taken.
    fn walk<M: SimMessage>(sim: &mut ExploreSim<M>, steps: u64) {
        while sim.steps() < steps && !sim.is_quiescent() {
            let c = sim.choices();
            sim.fire(c[0]);
        }
    }

    #[test]
    fn restore_owned_lands_where_restore_does() {
        // Hash, choices, depth and pending *order*: every index a caller
        // holds is relative to the last.
        let seen = |sim: &ExploreSim<Gossip>| {
            let order: Vec<u128> = sim.pending().map(ExploreEvent::event_hash).collect();
            (sim.state_hash(), sim.choices(), sim.steps(), order)
        };
        let mut sim = flooder_sim();
        walk(&mut sim, 3);
        let (moved, copy) = (sim.snapshot(), sim.snapshot());
        walk(&mut sim, 7);
        sim.restore(&copy);
        let by_ref = seen(&sim);
        walk(&mut sim, 9);
        sim.restore_owned(moved);
        assert_eq!(seen(&sim), by_ref);
        assert_eq!(by_ref.2, 3);
    }

    #[test]
    fn restore_owned_writes_a_slot_only_the_moved_state_held_in_place() {
        let forks = Rc::new(std::cell::Cell::new(0));
        let mut sim = counting_sim(&forks);
        let moved = sim.snapshot();
        sim.fire(0);
        assert_eq!(forks.get(), 1, "the live simulation forks what it writes");
        // The live handles go: every slot is now held by the simulation
        // alone, so no write forks.
        sim.restore_owned(moved);
        while !sim.is_quiescent() {
            sim.fire(0);
        }
        assert_eq!(forks.get(), 1, "unshared slots are written in place");
    }

    #[test]
    fn restore_owned_forks_a_slot_another_saved_state_shares() {
        let forks = Rc::new(std::cell::Cell::new(0));
        let mut sim = counting_sim(&forks);
        let h0 = sim.state_hash();
        let (kept, moved) = (sim.snapshot(), sim.snapshot());
        sim.restore_owned(moved);
        let to = sim.pending_at(0).recipient();
        sim.fire(0);
        assert_eq!(forks.get(), 1, "the slot `kept` shares is forked");
        for i in sim.knowledge_graph().processes() {
            assert_eq!(sim.shares_slot(&kept, i), i != to, "slot {i}");
        }
        sim.restore(&kept);
        assert_eq!(sim.state_hash_from_scratch(None), h0, "`kept` is unchanged");
    }

    #[test]
    fn state_hash_is_stable_across_rebuilds() {
        // Two independently built sims agree on every hash along the same
        // canonical schedule — the determinism regression test for the
        // dispatch path (no hash-ordered iteration anywhere).
        let mut a = flooder_sim();
        let mut b = flooder_sim();
        for _ in 0..40 {
            assert_eq!(a.state_hash(), b.state_hash());
            a.drain_absorbed();
            b.drain_absorbed();
            assert_eq!(a.state_hash(), b.state_hash());
            let (ca, cb) = (a.choices(), b.choices());
            assert_eq!(ca, cb);
            if ca.is_empty() {
                break;
            }
            a.fire(ca[0]);
            b.fire(cb[0]);
        }
    }

    #[test]
    fn commuting_deliveries_converge_to_one_hash() {
        // Fire two deliveries to *different* recipients in both orders:
        // the resulting states must hash identically (the independence
        // relation the explorer's pruning relies on).
        let mut sim = flooder_sim();
        let snap = sim.snapshot();
        let first = sim.pending_at(0).recipient();
        let j = sim
            .pending()
            .position(|e| e.recipient() != first)
            .expect("two recipients");
        sim.fire(0);
        // After removing 0, j shifted down by one.
        sim.fire(j - 1);
        let h_ij = sim.state_hash();
        sim.restore(&snap);
        sim.fire(j);
        sim.fire(0);
        assert_eq!(sim.state_hash(), h_ij);
    }

    #[test]
    fn absorbed_events_fire_without_branching() {
        let mut sim = flooder_sim();
        // Deliver everything via the canonical schedule; absorbed floods
        // disappear without adding steps.
        let mut guard = 0;
        while !sim.is_quiescent() {
            sim.drain_absorbed();
            if let Some(&idx) = sim.choices().first() {
                sim.fire(idx);
            }
            guard += 1;
            assert!(guard < 10_000);
        }
        // Everyone learned every value reachable through the graph.
        let flooded = sim.actor_as::<Flooder>(ProcessId::new(4)).unwrap();
        assert!(flooded.seen.len() >= 4, "sink heard the flood");
    }

    /// Re-arms a timer whenever one fires: stateless but for the budget.
    #[derive(Clone)]
    struct Rearm;

    impl Actor<Gossip> for Rearm {
        fn on_start(&mut self, ctx: &mut Context<'_, Gossip>) {
            ctx.set_timer(1, 0);
        }
        fn on_message(&mut self, _: &mut Context<'_, Gossip>, _: ProcessId, _: Gossip) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Gossip>, tag: u64) {
            ctx.set_timer(1, tag + 1);
        }
        fn fork(&self) -> Option<Box<dyn Actor<Gossip>>> {
            Some(Box::new(self.clone()))
        }
    }

    /// Two mutually known [`Rearm`] processes, 3 timer events each.
    fn rearm_sim() -> ExploreSim<Gossip> {
        let kg = scup_graph::KnowledgeGraph::from_pds(vec![
            ProcessSet::from_ids([1]),
            ProcessSet::from_ids([0]),
        ]);
        let mut sim = ExploreSim::new(kg, 3);
        sim.add_actor(Box::new(Rearm));
        sim.add_actor(Box::new(Rearm));
        sim.start();
        sim
    }

    #[test]
    fn timer_budget_caps_timer_events() {
        let mut sim = rearm_sim();
        let mut fired = 0;
        while !sim.is_quiescent() {
            let c = sim.choices();
            sim.fire(c[0]);
            fired += 1;
        }
        assert_eq!(fired, 6, "3 timer events per process, then quiescent");
    }

    #[test]
    fn the_event_log_records_a_replayed_path_once() {
        // Seven flooders and one timer re-armer, walked to quiescence
        // along the canonical schedule with the log on.
        let mut sim = ExploreSim::new(generators::fig1(), 2);
        for _ in 0..7 {
            sim.add_actor(Box::new(Flooder::default()));
        }
        sim.add_actor(Box::new(Rearm));
        sim.enable_causal();
        sim.start();
        let (mut fired, mut absorbed) = (0, 0);
        while !sim.is_quiescent() {
            absorbed += sim.drain_absorbed();
            if let Some(&idx) = sim.choices().first() {
                sim.fire(idx);
                fired += 1;
            }
        }
        assert!(absorbed > 0, "the flood has duplicates to absorb");

        let log = sim.causal();
        let (mut sends, mut delivers, mut timer_tags) = (0, 0, Vec::new());
        let mut last_at = 0;
        for e in log.events() {
            match e.kind {
                CausalKind::Send { .. } => {
                    sends += 1;
                    assert!(e.payload.as_deref().unwrap().starts_with("Gossip("));
                }
                CausalKind::Deliver { from, to } => {
                    delivers += 1;
                    let send = &log.events()[e.cause().0 as usize];
                    assert_eq!(send.kind, CausalKind::Send { from, to });
                    assert_eq!(log.payload(e.id), send.payload.as_deref());
                }
                CausalKind::Timer { process, tag } => {
                    assert_eq!(process, 7);
                    timer_tags.push(tag);
                }
                other => panic!("the explorer has no {other:?}"),
            }
            // Event times are fired-event counts: each fire is one tick.
            if !matches!(e.kind, CausalKind::Send { .. }) {
                assert_eq!(e.at, last_at + 1);
                last_at = e.at;
            }
        }
        // One delivery per fired or absorbed delivery, one timer per
        // timer fire; at quiescence every send was delivered.
        assert_eq!(timer_tags, [0, 1], "the budget of two");
        assert_eq!(delivers + 2, fired + absorbed);
        assert_eq!(fired + absorbed, sim.events_fired());
        assert_eq!(sends, delivers);
    }

    /// A [`Flooder`] that counts its forks, to pin the copy-on-write
    /// discipline: one fork per slot written while a saved state shares
    /// it, none anywhere else.
    struct CountingFlooder {
        inner: Flooder,
        forks: Rc<std::cell::Cell<u64>>,
    }

    impl Actor<Gossip> for CountingFlooder {
        fn on_start(&mut self, ctx: &mut Context<'_, Gossip>) {
            self.inner.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Gossip>, from: ProcessId, msg: Gossip) {
            self.inner.on_message(ctx, from, msg);
        }
        fn fork(&self) -> Option<Box<dyn Actor<Gossip>>> {
            self.forks.set(self.forks.get() + 1);
            Some(Box::new(CountingFlooder {
                inner: self.inner.clone(),
                forks: Rc::clone(&self.forks),
            }))
        }
        fn fingerprint(&self, h: &mut StateHasher) {
            self.inner.fingerprint(h);
        }
        fn absorbs(&self, me: ProcessId, known: &ProcessSet, from: ProcessId, m: &Gossip) -> bool {
            self.inner.absorbs(me, known, from, m)
        }
    }

    #[test]
    fn a_delivery_forks_the_one_slot_it_writes() {
        let forks = Rc::new(std::cell::Cell::new(0));
        let mut sim = counting_sim(&forks);
        assert_eq!(forks.get(), 0, "unshared slots are written in place");

        let snap = sim.snapshot();
        let h0 = sim.state_hash();
        assert_eq!(forks.get(), 0, "snapshot and hashing fork nothing");
        let to = sim.pending_at(0).recipient();
        sim.fire(0);
        assert_eq!(forks.get(), 1, "the first write to a shared slot forks it");
        for i in sim.knowledge_graph().processes() {
            assert_eq!(sim.shares_slot(&snap, i), i != to, "slot {i}");
        }
        // A second delivery to the same process writes the private copy.
        let again = sim.pending().position(|e| e.recipient() == to);
        if let Some(again) = again {
            sim.fire(again);
            assert_eq!(forks.get(), 1);
        }

        // Restore re-shares every slot without forking, and the saved
        // state was never written through.
        sim.restore(&snap);
        assert_eq!(forks.get(), 1);
        assert!(sim
            .knowledge_graph()
            .processes()
            .all(|i| sim.shares_slot(&snap, i)));
        assert_eq!(sim.state_hash(), h0);
        assert_eq!(sim.state_hash_from_scratch(None), h0);

        // Retiring absorbed deliveries writes no slot at all — in debug
        // builds the contract check forks a scratch copy per retired
        // event, but never the live slot.
        let before = forks.get();
        let absorbed = sim.drain_absorbed();
        assert!(sim
            .knowledge_graph()
            .processes()
            .all(|i| sim.shares_slot(&snap, i)));
        let checks = if cfg!(debug_assertions) { absorbed } else { 0 };
        assert_eq!(forks.get(), before + checks);
    }

    fn counting_sim(forks: &Rc<std::cell::Cell<u64>>) -> ExploreSim<Gossip> {
        let mut sim = ExploreSim::new(generators::fig1(), 0);
        for _ in 0..8 {
            sim.add_actor(Box::new(CountingFlooder {
                inner: Flooder::default(),
                forks: Rc::clone(forks),
            }));
        }
        sim.start();
        sim
    }

    /// The hashes of the pending events, sorted: the multiset a state
    /// hash sees.
    fn pending_multiset<M: SimMessage>(sim: &ExploreSim<M>) -> Vec<u128> {
        let mut hashes: Vec<u128> = sim.pending().map(ExploreEvent::event_hash).collect();
        hashes.sort_unstable();
        hashes
    }

    #[test]
    fn a_repeated_delivery_is_replayed_without_forking() {
        let forks = Rc::new(std::cell::Cell::new(0));
        let mut sim = counting_sim(&forks);
        sim.memoise_steps();
        let snap = sim.snapshot();
        let to = sim.pending_at(0).recipient();

        let enqueued = sim.fire(0);
        assert_eq!(forks.get(), 1, "a first delivery executes: one fork");
        assert_eq!(sim.step_counts(), (0, 1));
        let (hash, pending) = (sim.state_hash(), pending_multiset(&sim));

        // The same delivery at the same slot: the successor and its sends
        // come out of the memo. Only the debug contract check forks (its
        // scratch copy, once per hit).
        sim.restore(&snap);
        assert_eq!(sim.fire(0), enqueued);
        let checks = if cfg!(debug_assertions) { 1 } else { 0 };
        assert_eq!(forks.get(), 1 + checks);
        assert_eq!(sim.step_counts(), (1, 1));
        assert_eq!(sim.state_hash(), hash);
        assert_eq!(sim.state_hash_from_scratch(None), hash);
        assert_eq!(pending_multiset(&sim), pending);
        assert!(!sim.shares_slot(&snap, to));

        // A remembered slot is immutable: the next write forks it, and a
        // third replay still finds the successor it recorded.
        let again = sim.pending().position(|e| e.recipient() == to);
        if let Some(again) = again {
            let before = forks.get();
            sim.fire(again);
            assert_eq!(
                forks.get(),
                before + 1,
                "writes to a memoised slot fork first"
            );
        }
        sim.restore(&snap);
        sim.fire(0);
        assert_eq!(sim.state_hash_from_scratch(None), hash);
    }

    #[test]
    fn a_memoised_walk_equals_the_executed_walk() {
        let forks = Rc::new(std::cell::Cell::new(0));
        let mut memoised = counting_sim(&forks);
        memoised.memoise_steps();
        let start = memoised.snapshot();
        // First pass records every step, second pass replays every step;
        // both must track a simulation that executes them.
        for pass in 0..2 {
            memoised.restore(&start);
            let mut executed = flooder_sim();
            let mut fired = 0;
            loop {
                assert_eq!(memoised.drain_absorbed(), executed.drain_absorbed());
                assert_eq!(memoised.state_hash(), executed.state_hash());
                assert_eq!(
                    memoised.state_hash_from_scratch(None),
                    executed.state_hash_from_scratch(None)
                );
                assert_eq!(pending_multiset(&memoised), pending_multiset(&executed));
                // Replayed sends keep their first execution's order, so
                // pick the choice by event hash, not by index.
                let Some(&choice) = executed.choices().first() else {
                    break;
                };
                let event = executed.pending_hash(choice);
                let twin = (0..memoised.pending().len())
                    .find(|&idx| memoised.pending_hash(idx) == event)
                    .expect("equal pending multisets");
                assert_eq!(memoised.fire(twin), executed.fire(choice));
                fired += 1;
            }
            assert!(fired > 20, "the walk floods the whole graph");
            assert_eq!(memoised.step_counts(), (pass * fired, fired));
        }
    }

    #[test]
    fn a_timer_step_is_memoised_like_a_delivery() {
        let mut sim = rearm_sim();
        sim.memoise_steps();
        let start = sim.snapshot();
        let mut hashes = Vec::new();
        for pass in 0..2 {
            sim.restore(&start);
            let mut fired = 0;
            while !sim.is_quiescent() {
                sim.fire(0);
                // The budget is part of the remembered successor: the
                // replayed walk stops re-arming where the executed one did.
                let hash = sim.state_hash_from_scratch(None);
                if pass == 0 {
                    hashes.push(hash);
                } else {
                    assert_eq!(hash, hashes[fired]);
                }
                fired += 1;
            }
            assert_eq!(fired, 6, "3 timer events per process, then quiescent");
            assert_eq!(sim.step_counts(), (pass as u64 * 6, 6));
        }
    }

    /// The `SinkCore` shape: once `fired`, the fingerprint stops covering
    /// `heard` — but `absorbs` keeps reading it. Fingerprint-equal actors
    /// then disagree on whether a late duplicate is a no-op, which is
    /// clause (c) of the congruence contract.
    #[derive(Clone, Default)]
    struct Forgetful {
        heard: Vec<ProcessId>,
        fired: bool,
    }

    impl Actor<Gossip> for Forgetful {
        fn on_start(&mut self, ctx: &mut Context<'_, Gossip>) {
            let hub = ProcessId::new(0);
            match ctx.self_id().as_u32() {
                // Three copies of one reply, and the message that fires.
                1 => (0..3).for_each(|_| ctx.send(hub, Gossip(0))),
                2 => ctx.send(hub, Gossip(1)),
                _ => {}
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Gossip>, from: ProcessId, msg: Gossip) {
            match msg.0 {
                0 if !self.heard.contains(&from) => self.heard.push(from),
                1 => self.fired = true,
                _ => {}
            }
        }
        fn fork(&self) -> Option<Box<dyn Actor<Gossip>>> {
            Some(Box::new(self.clone()))
        }
        fn fingerprint(&self, h: &mut StateHasher) {
            h.write_bool(self.fired);
            if !self.fired {
                h.write_u64(self.heard.len() as u64);
                for from in &self.heard {
                    h.write_u32(from.as_u32());
                }
            }
        }
        fn absorbs(&self, _: ProcessId, _: &ProcessSet, from: ProcessId, msg: &Gossip) -> bool {
            msg.0 == 0 && self.heard.contains(&from)
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "disagree on absorbs / threshold_inert")]
    fn a_fingerprint_that_is_no_congruence_trips_the_replay_check() {
        let kg = scup_graph::KnowledgeGraph::from_pds(vec![
            ProcessSet::from_ids([1, 2]),
            ProcessSet::from_ids([0]),
            ProcessSet::from_ids([0]),
        ]);
        let mut sim: ExploreSim<Gossip> = ExploreSim::new(kg, 0);
        for _ in 0..3 {
            sim.add_actor(Box::new(Forgetful::default()));
        }
        sim.start();
        sim.memoise_steps();
        let fire = |sim: &mut ExploreSim<Gossip>, value: u32| {
            let idx = sim
                .pending()
                .position(|e| matches!(e, ExploreEvent::Deliver { msg, .. } if msg.0 == value))
                .expect("still in flight");
            sim.fire(idx);
        };
        // Fire, then the first reply: executed, and its successor (which
        // heard p1) is interned onto the fired slot that did not — equal
        // fingerprints.
        fire(&mut sim, 1);
        fire(&mut sim, 0);
        // The second copy is the same (slot hash, event) pair: a hit. Its
        // re-execution absorbs the third copy; the installed slot does not.
        fire(&mut sim, 0);
    }

    #[test]
    fn equal_events_share_one_allocation() {
        let mut sim = flooder_sim();
        // One initial send per knowledge edge, no two alike.
        assert_eq!(sim.event_counts(), (18, 18));
        let snap = sim.snapshot();
        let emitted = |sim: &ExploreSim<Gossip>, n: usize| -> Vec<Rc<SharedEvent<Gossip>>> {
            let fresh = &sim.pending[sim.pending.len() - n..];
            fresh.iter().map(|p| Rc::clone(&p.event)).collect()
        };
        let n = sim.fire(0);
        assert!(n > 0, "a first delivery floods on");
        let first = emitted(&sim, n);
        // The same step again (no memo: the actor runs again) emits equal
        // events, and each is the allocation the first run made.
        sim.restore(&snap);
        assert_eq!(sim.fire(0), n);
        let second = emitted(&sim, n);
        assert!(first.iter().zip(&second).all(|(a, b)| Rc::ptr_eq(a, b)));
        assert_eq!(sim.event_counts(), (18 + 2 * n as u64, 18 + n as u64));

        // Along a whole walk the table holds one entry per distinct hash.
        let mut hashes: std::collections::HashSet<u128> =
            sim.pending().map(ExploreEvent::event_hash).collect();
        hashes.extend(snap.pending.iter().map(Pending::hash));
        while !sim.is_quiescent() {
            sim.drain_absorbed();
            if let Some(&idx) = sim.choices().first() {
                sim.fire(idx);
                hashes.extend(sim.pending().map(ExploreEvent::event_hash));
            }
        }
        let (emitted, distinct) = sim.event_counts();
        assert_eq!(distinct, hashes.len() as u64);
        assert!(emitted > distinct, "the flood repeats itself");
    }

    /// A payload whose fingerprint leaves out the note its `Debug` shows.
    #[derive(Clone, Debug)]
    struct Noted(#[allow(dead_code)] u32);

    impl SimMessage for Noted {
        fn fingerprint(&self, _: &mut StateHasher) {}
    }

    /// Sends every known process two [`Noted`] on start.
    struct Noter;

    impl Actor<Noted> for Noter {
        fn on_start(&mut self, ctx: &mut Context<'_, Noted>) {
            for to in ctx.known().clone().iter() {
                ctx.send(to, Noted(0));
                ctx.send(to, Noted(1));
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Noted>, _: ProcessId, _: Noted) {}
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "render differently")]
    fn a_fingerprint_that_misses_a_shown_field_trips_the_intern_check() {
        // p0's two sends to p1 fingerprint alike but render differently.
        let kg = scup_graph::KnowledgeGraph::from_pds(vec![
            ProcessSet::from_ids([1]),
            ProcessSet::from_ids([0]),
        ]);
        let mut sim: ExploreSim<Noted> = ExploreSim::new(kg, 0);
        sim.add_actor(Box::new(Noter));
        sim.add_actor(Box::new(Noter));
        sim.start();
    }

    #[test]
    fn restore_keeps_the_pending_vectors_head_room() {
        let mut sim = flooder_sim();
        let snap = sim.snapshot();
        // Grow the live vector past the snapshot's length once …
        while sim.pending().len() <= snap.pending.len() {
            let c = sim.choices();
            sim.fire(c[0]);
        }
        let capacity = sim.pending.capacity();
        assert!(capacity > snap.pending.len());
        // … and the room is still there after rewinding.
        sim.restore(&snap);
        assert_eq!(sim.pending.capacity(), capacity);
    }

    proptest::proptest! {
        /// `write_set` under a renaming feeds exactly what hashing the
        /// allocated renamed set feeds — ids beyond the permutation's
        /// range (which map to themselves) and multi-word images included.
        #[test]
        fn write_set_perm_matches_the_allocating_form(
            ids in proptest::collection::vec(0u32..200, 0..24),
            swaps in proptest::collection::vec(0u32..130, 129),
        ) {
            let mut map: Vec<u32> = (0..130).collect();
            for (i, &j) in swaps.iter().enumerate() {
                map.swap(i, i + j as usize % (130 - i));
            }
            let perm = Perm::from_map(map);
            let set = ProcessSet::from_ids(ids);
            let (mut direct, mut allocating) = (StateHasher::with_renaming(&perm), StateHasher::new());
            direct.write_set(&set);
            allocating.write_set(&perm.apply_set(&set));
            proptest::prop_assert_eq!(direct.finish(), allocating.finish());
        }
    }

    #[test]
    fn perm_identity_is_decided_at_construction() {
        assert!(Perm::identity(4).is_identity());
        assert!(Perm::from_map(vec![0, 1, 2]).is_identity());
        assert!(!Perm::from_map(vec![1, 0, 2]).is_identity());
    }

    #[test]
    fn hasher_streams_are_independent() {
        let mut h1 = StateHasher::new();
        h1.write_u64(1);
        let mut h2 = StateHasher::new();
        h2.write_u64(2);
        let (a, b) = (h1.finish(), h2.finish());
        assert_ne!(a, b);
        assert_ne!(a as u64, b as u64);
        assert_ne!(a >> 64, b >> 64);
        // Deterministic.
        let mut h3 = StateHasher::new();
        h3.write_u64(1);
        assert_eq!(h3.finish(), a);
    }
}
