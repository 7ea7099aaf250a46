//! The simulator's pending-event queue: a timing wheel of per-tick FIFOs,
//! each FIFO a list of fixed-size chunks.
//!
//! The simulator orders events by `(at, seq)`, `seq` being a counter bumped
//! on every push. Two facts make a priority heap unnecessary: every push
//! has `at ≥ now` (time is monotone), and `seq` grows with push order. So
//! among the events of one tick, push order *is* `seq` order, and popping
//! the earliest non-empty tick front to back yields exactly the `(at, seq)`
//! sequence — at O(1) per event instead of a sift through a heap that peaks
//! at several hundred thousand entries on the n = 24 SCP floods.
//!
//! **Finding a tick.** The network is partially synchronous: a message sent
//! at `now` is delivered by `max(now, GST) + Δ` (plus a delay fault's
//! `extra_delay` while one is active), so almost every push lands a bounded
//! number of ticks ahead of the clock. The tick index exploits that. The
//! tick being drained keeps its own FIFO, `current`. Every tick `t` with
//! `now < t < now + WHEEL` has its FIFO at `ring[t % WHEEL]`, and a
//! `WHEEL`-bit occupancy bitmap says which of those hold events, so a push
//! is an array index and finding the next tick is a `trailing_zeros` over
//! [`WHEEL`]` / 64` words. Only ticks at least [`WHEEL`] ahead — far timers,
//! fault and churn plan events, deliveries under a GST larger than any
//! checked-in scenario's — go to an ordered map, `later`. Whenever the
//! clock advances, the map's entries the wheel now covers move into the
//! ring, whole FIFO at a time, so a map key is always at least [`WHEEL`]
//! ahead of the clock and every ring tick precedes every map tick.
//!
//! [`WHEEL`] is 256 because the largest horizon of any checked-in scenario
//! is `gst` 150 + Δ 10 + `extra_delay` 40 = 200 ticks ahead, and a power of
//! two keeps `t % WHEEL` a mask; a 4-word bitmap is scanned in a few
//! instructions. It is a constant, not a setting: a scenario whose pushes
//! reach further is exactly as correct, those pushes just take the map.
//!
//! **Storage** is tick-contiguous. One growable deque per tick would be the
//! obvious shape and is the wrong one: a deque keeps its peak capacity, and
//! a run touches a few hundred ticks whose bursts peak at different
//! moments, so per-tick buffers add up to well above the live event count
//! (and a doubling buffer holds old and new copy at once while it grows).
//! The cap answers that: a tick's FIFO is a list of *chunks*, each a run of
//! exactly [`CHUNK_CAP`] event slots that never grows. A drained chunk goes
//! to a free list and is handed to whichever tick next needs one, so memory
//! follows the live event count instead of per-tick peaks. Only a tick's
//! tail chunk — and, on the tick being drained, its head — is ever partly
//! filled, hence
//!
//! > chunks allocated ≤ max over the run of
//! > (live ticks + ⌈pending events ÷ `CHUNK_CAP`⌉),
//!
//! each exactly `CHUNK_CAP` events wide. Recycling whole chunks rather than
//! single event slots is what keeps a tick together in memory: the pops of
//! one tick stream through consecutive addresses and the pushes of a
//! broadcast land on one hot tail per live tick, whereas a slot-granular
//! free list (same footprint, 4 bytes of link per event) hands a tick slots
//! from all over a slab of tens of megabytes and misses the cache on every
//! pop.
//!
//! A chunk owns no buffer. Its slots sit in a slab of *blocks*, each
//! [`BLOCK_CHUNKS`] chunks wide: chunk `c` is slots `CHUNK_CAP × (c mod
//! BLOCK_CHUNKS)` onwards of block `c ÷ BLOCK_CHUNKS`, and the chunk itself
//! is three integers — the first live slot, one past the last filled slot,
//! and the next chunk. A slot holds an event exactly when it lies between
//! the first two of a chunk linked into a tick. A block's memory is
//! reserved at full width when its first chunk is created, and each new
//! chunk extends it by its own `CHUNK_CAP` empty slots, so no slot is
//! touched before its chunk exists: a short run pays for the chunks it
//! uses, not for a block, and a long one makes one allocation per
//! [`BLOCK_CHUNKS`] chunks rather than one per chunk.
//!
//! **A slot** is an `Option<T>`, and the slab's size is the slot's size
//! times the peak event count, so the item type is kept small. The
//! simulator's item is its delivery record (`runner::Record`): sender,
//! recipient, causing send and message, 16 bytes for an SCP envelope
//! handle. The record keeps a niche for the slot's `None`, so a slot costs
//! no more than its record. The few events that are not deliveries
//! (timers, fault and churn plan events) wait in the simulator's control
//! table, and their record only points there: a wider item for those would
//! widen every slot.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// Most events one chunk holds. Throughput and footprint are flat from 16
/// to 128 on the n = 24 floods; 32 keeps a sparse tick's waste small.
const CHUNK_CAP: usize = 32;

/// Chunks whose slots share one block of the slab.
const BLOCK_CHUNKS: usize = 64;

/// Ticks the ring spans: a push fewer than `WHEEL` ticks ahead of the
/// clock is indexed, one further ahead goes to the ordered map. See the
/// [module docs](self) for the choice of 256.
const WHEEL: usize = 256;

/// Words of the ring's occupancy bitmap.
const WORDS: usize = WHEEL / 64;

/// List terminator / "no chunk".
const NIL: u32 = u32::MAX;

/// Up to [`CHUNK_CAP`] consecutive events of one tick, in the chunk's
/// slots `head..len` of the slab.
struct Chunk {
    /// The first slot not yet popped.
    head: u32,
    /// One past the last slot pushed; the chunk is full at [`CHUNK_CAP`].
    len: u32,
    /// The next chunk of the same tick, or the next free chunk.
    next: u32,
}

/// One tick's events, as indices of its first and last chunk. `tail` is
/// meaningful only while `head != NIL`; a linked chunk is never empty.
#[derive(Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
    };
}

/// Pending events in `(time, push order)` order. See the [module
/// docs](self).
pub(crate) struct EventQueue<T> {
    /// Every chunk ever allocated, linked into a tick or the free list.
    chunks: Vec<Chunk>,
    /// The event slots of `chunks`, [`BLOCK_CHUNKS`] chunks per block (see
    /// [`cell`]); a block holds `CHUNK_CAP` slots per chunk created so far.
    blocks: Vec<Vec<Option<T>>>,
    /// Head of the free-chunk list.
    free: u32,
    /// The tick `current` belongs to: the time of the latest pop.
    now: SimTime,
    current: Fifo,
    /// Tick `t` with `now < t < now + WHEEL` at `ring[t % WHEEL]`; the slot
    /// of `now` itself is always empty.
    ring: [Fifo; WHEEL],
    /// Bit `s` set iff `ring[s]` holds events.
    occupied: [u64; WORDS],
    /// Every tick at least `WHEEL` ahead of `now` that holds an event.
    later: BTreeMap<SimTime, Fifo>,
    len: usize,
}

/// The ring slot of tick `at`.
fn slot(at: SimTime) -> usize {
    (at.ticks() % WHEEL as u64) as usize
}

/// Slot `pos` of chunk `chunk` in the slab.
fn cell<T>(blocks: &mut [Vec<Option<T>>], chunk: u32, pos: u32) -> &mut Option<T> {
    let chunk = chunk as usize;
    &mut blocks[chunk / BLOCK_CHUNKS][chunk % BLOCK_CHUNKS * CHUNK_CAP + pos as usize]
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            chunks: Vec::new(),
            blocks: Vec::new(),
            free: NIL,
            now: SimTime::ZERO,
            current: Fifo::EMPTY,
            ring: [Fifo::EMPTY; WHEEL],
            occupied: [0; WORDS],
            later: BTreeMap::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The time of the latest pop ([`SimTime::ZERO`] before the first): the
    /// simulation's clock.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// The time of the event [`EventQueue::pop`] would return.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        if self.current.head != NIL {
            Some(self.now)
        } else if let Some(ahead) = self.next_in_ring() {
            Some(self.now + ahead)
        } else {
            self.later.first_key_value().map(|(&at, _)| at)
        }
    }

    /// Queues `item` for tick `at`, behind everything already queued for
    /// that tick. `at` may equal the time of the latest pop (zero-delay
    /// timers, fault events at tick 0) but never precede it.
    pub(crate) fn push(&mut self, at: SimTime, item: T) {
        debug_assert!(at >= self.now, "events are never scheduled in the past");
        let ahead = at - self.now;
        let fifo = if ahead == 0 {
            &mut self.current
        } else if ahead < WHEEL as u64 {
            let s = slot(at);
            self.occupied[s / 64] |= 1 << (s % 64);
            &mut self.ring[s]
        } else {
            self.later.entry(at).or_insert(Fifo::EMPTY)
        };
        if fifo.head == NIL || self.chunks[fifo.tail as usize].len == CHUNK_CAP as u32 {
            let chunk = if self.free != NIL {
                let chunk = self.free;
                self.free = self.chunks[chunk as usize].next;
                self.chunks[chunk as usize].next = NIL;
                chunk
            } else {
                let c = self.chunks.len();
                assert!(
                    c < NIL as usize,
                    "chunk indices fit in u32 below the NIL marker"
                );
                if c.is_multiple_of(BLOCK_CHUNKS) {
                    self.blocks
                        .push(Vec::with_capacity(BLOCK_CHUNKS * CHUNK_CAP));
                }
                let block = &mut self.blocks[c / BLOCK_CHUNKS];
                block.resize_with(block.len() + CHUNK_CAP, || None);
                self.chunks.push(Chunk {
                    head: 0,
                    len: 0,
                    next: NIL,
                });
                c as u32
            };
            if fifo.head == NIL {
                fifo.head = chunk;
            } else {
                self.chunks[fifo.tail as usize].next = chunk;
            }
            fifo.tail = chunk;
        }
        let tail = &mut self.chunks[fifo.tail as usize];
        let pos = tail.len;
        tail.len += 1;
        *cell(&mut self.blocks, fifo.tail, pos) = Some(item);
        self.len += 1;
    }

    /// Removes and returns the earliest event and its time.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.current.head == NIL && !self.advance() {
            return None;
        }
        let head = self.current.head;
        let chunk = &mut self.chunks[head as usize];
        let pos = chunk.head;
        chunk.head += 1;
        if chunk.head == chunk.len {
            self.current.head = chunk.next;
            *chunk = Chunk {
                head: 0,
                len: 0,
                next: self.free,
            };
            self.free = head;
        }
        let item = cell(&mut self.blocks, head, pos)
            .take()
            .expect("linked chunks hold events");
        self.len -= 1;
        Some((self.now, item))
    }

    /// Moves the clock to the next tick that holds events and makes its
    /// FIFO `current`; `false` if the queue is empty. Ticks of `later` the
    /// wheel now spans move into the ring.
    fn advance(&mut self) -> bool {
        if let Some(ahead) = self.next_in_ring() {
            self.now += ahead;
            let s = slot(self.now);
            self.occupied[s / 64] &= !(1 << (s % 64));
            self.current = std::mem::replace(&mut self.ring[s], Fifo::EMPTY);
        } else if let Some((at, fifo)) = self.later.pop_first() {
            self.now = at;
            self.current = fifo;
        } else {
            return false;
        }
        while let Some(entry) = self.later.first_entry() {
            if *entry.key() - self.now >= WHEEL as u64 {
                break;
            }
            let s = slot(*entry.key());
            debug_assert!(self.ring[s].head == NIL, "a tick lives in one place");
            self.occupied[s / 64] |= 1 << (s % 64);
            self.ring[s] = entry.remove();
        }
        true
    }

    /// How far ahead of the clock the earliest ring tick is, if the ring
    /// holds any: the first set bit at or after the clock's slot, wrapping
    /// around (the clock's own bit is always clear).
    fn next_in_ring(&self) -> Option<u64> {
        let from = slot(self.now);
        for k in 0..=WORDS {
            let w = (from / 64 + k) % WORDS;
            let mut word = self.occupied[w];
            if k == 0 {
                word &= !0 << (from % 64);
            }
            // On the wrap-around (`k == WORDS`) the bits at or after
            // `from` are known clear, so a hit lies before it.
            if word != 0 {
                let s = w * 64 + word.trailing_zeros() as usize;
                return Some(((s + WHEEL - from) % WHEEL) as u64);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;

    /// One step of a queue workout. Delays are relative to the time of the
    /// latest pop, as in the simulator.
    #[derive(Clone, Debug)]
    enum Op {
        /// Push `burst` events `delay` ticks ahead.
        Push { delay: u64, burst: usize },
        /// Pop `count` events (fewer if the queue runs dry).
        Pop { count: usize },
        /// Pop everything less than `WHEEL` ahead of the clock, so that the
        /// next pop jumps an empty window into the overflow map.
        DrainWindow,
    }

    /// Workouts whose far pushes reach up to `wheels` × `WHEEL` ahead.
    fn ops(wheels: u64) -> impl Strategy<Value = Vec<Op>> {
        let wheel = WHEEL as u64;
        proptest::collection::vec(
            (
                0u32..13,
                0u64..12,
                1usize..3 * CHUNK_CAP + 1,
                1usize..CHUNK_CAP + 8,
                1u64..wheels + 1,
            )
                .prop_map(move |(kind, delay, burst, count, far)| match kind {
                    // `at == now`, up to three chunks deep: with the pops
                    // below this lands behind a tick that is part-drained
                    // across a chunk boundary.
                    0 => Op::Push { delay: 0, burst },
                    // Deep ticks ahead.
                    1 | 2 => Op::Push { delay, burst },
                    // Sparse ticks that never fill a chunk.
                    3 => Op::Push {
                        delay,
                        burst: burst % 5 + 1,
                    },
                    // The last ring tick, the first overflow tick and the
                    // one after it.
                    4 => Op::Push {
                        delay: wheel - 1 + delay % 3,
                        burst: burst % 5 + 1,
                    },
                    // Several wheels ahead: a far timer, or a fault plan's
                    // event.
                    5 => Op::Push {
                        delay: far * wheel + delay - 6,
                        burst: burst % 3 + 1,
                    },
                    6 => Op::DrainWindow,
                    // Runs of pops short and long enough to stop inside a
                    // chunk, on its last event, or past it.
                    _ => Op::Pop { count },
                }),
            0..300,
        )
    }

    /// The index invariants of the module docs, plus the slab's: every
    /// chunk has exactly its `CHUNK_CAP` slots, each block is reserved at
    /// full width, and a slot holds an event exactly when it lies in
    /// `head..len` of a chunk linked into a tick.
    fn assert_shape<T>(q: &EventQueue<T>) {
        let clock = slot(q.now);
        for (s, fifo) in q.ring.iter().enumerate() {
            let bit = (q.occupied[s / 64] >> (s % 64)) & 1 == 1;
            assert_eq!(bit, fifo.head != NIL, "occupancy bit of slot {s}");
            assert!(s != clock || !bit, "the clock's own slot is empty");
        }
        if let Some((&at, _)) = q.later.first_key_value() {
            assert!(
                at - q.now >= WHEEL as u64,
                "{at:?} in the map, clock {:?}",
                q.now
            );
        }
        assert_eq!(
            q.blocks.iter().map(Vec::len).sum::<usize>(),
            q.chunks.len() * CHUNK_CAP,
            "the slab holds CHUNK_CAP slots per chunk"
        );
        assert!(
            q.blocks
                .iter()
                .all(|b| b.capacity() == BLOCK_CHUNKS * CHUNK_CAP),
            "a block is reserved once, at full width"
        );
        let mut linked = vec![false; q.chunks.len()];
        let fifos = std::iter::once(&q.current)
            .chain(&q.ring)
            .chain(q.later.values());
        for fifo in fifos {
            let mut c = fifo.head;
            while c != NIL {
                assert!(!linked[c as usize], "chunk {c} is linked once");
                linked[c as usize] = true;
                c = q.chunks[c as usize].next;
            }
        }
        let mut events = 0;
        for (c, chunk) in q.chunks.iter().enumerate() {
            let block = &q.blocks[c / BLOCK_CHUNKS];
            let start = c % BLOCK_CHUNKS * CHUNK_CAP;
            for pos in 0..CHUNK_CAP {
                let live = linked[c] && (chunk.head as usize..chunk.len as usize).contains(&pos);
                assert_eq!(
                    block[start + pos].is_some(),
                    live,
                    "slot {pos} of chunk {c} ({}..{})",
                    chunk.head,
                    chunk.len
                );
                events += usize::from(live);
            }
        }
        assert_eq!(events, q.len(), "the live slots are the pending events");
    }

    /// Runs `ops` against a binary heap on `(at, seq)`, the obviously
    /// right reference, then optionally drains both.
    fn against_a_heap(ops: Vec<Op>, drain: bool) {
        let mut subject: EventQueue<u64> = EventQueue::new();
        let mut oracle: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let pop_both = |subject: &mut EventQueue<u64>,
                        oracle: &mut BinaryHeap<Reverse<(SimTime, u64)>>| {
            let expected = oracle.pop().map(|Reverse(e)| e);
            assert_eq!(subject.pop(), expected);
            if let Some((at, _)) = expected {
                assert_eq!(subject.now(), at);
            }
        };
        for op in ops {
            match op {
                Op::Push { delay, burst } => {
                    let at = subject.now() + delay;
                    for _ in 0..burst {
                        seq += 1;
                        subject.push(at, seq);
                        oracle.push(Reverse((at, seq)));
                    }
                }
                Op::Pop { count } => {
                    for _ in 0..count {
                        pop_both(&mut subject, &mut oracle);
                    }
                }
                Op::DrainWindow => {
                    while let Some(Reverse((at, _))) = oracle.peek() {
                        if *at - subject.now() >= WHEEL as u64 {
                            break;
                        }
                        pop_both(&mut subject, &mut oracle);
                    }
                }
            }
            assert_eq!(subject.len(), oracle.len());
            assert_eq!(
                subject.next_time(),
                oracle.peek().map(|Reverse((at, _))| *at)
            );
            assert_shape(&subject);
        }
        if drain {
            while let Some(Reverse(expected)) = oracle.pop() {
                assert_eq!(subject.pop(), Some(expected));
            }
            assert_shape(&subject);
            assert_eq!(subject.pop(), None);
            assert_eq!(subject.len(), 0);
            assert_eq!(subject.next_time(), None);
        }
    }

    proptest! {
        /// Horizons straddle the wheel: inside it, on its last tick, on the
        /// first overflow tick, and up to four wheels out.
        #[test]
        fn pops_in_at_seq_order_like_a_binary_heap(ops in ops(4), drain in proptest::bool::ANY) {
            against_a_heap(ops, drain);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The same, many more cases, far pushes up to ten wheels out.
        #[test]
        #[cfg_attr(debug_assertions, ignore = "release-only; see the exhaustive canaries CI step")]
        fn pops_in_at_seq_order_like_a_binary_heap_exhaustive(
            ops in ops(10),
            drain in proptest::bool::ANY,
        ) {
            against_a_heap(ops, drain);
        }
    }

    /// A jump over an empty window: the clock lands on an overflow tick,
    /// the map's next tick moves into the ring, and pushes near the new
    /// clock interleave with it.
    #[test]
    fn a_jump_into_overflow_refills_the_ring() {
        let wheel = WHEEL as u64;
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(SimTime::from_ticks(3), 0);
        q.push(SimTime::from_ticks(5 * wheel), 1);
        q.push(SimTime::from_ticks(5 * wheel + 7), 2);
        q.push(SimTime::from_ticks(9 * wheel), 3);
        assert_eq!(q.later.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_ticks(3), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(5 * wheel), 1)));
        assert_shape(&q);
        assert_eq!(q.later.len(), 1, "the tick 7 ahead moved into the ring");
        q.push(SimTime::from_ticks(5 * wheel + 7), 4);
        q.push(SimTime::from_ticks(5 * wheel + 2), 5);
        let rest: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|(at, i)| (at.ticks(), i))
            .collect();
        assert_eq!(
            rest,
            [
                (5 * wheel + 2, 5),
                (5 * wheel + 7, 2),
                (5 * wheel + 7, 4),
                (9 * wheel, 3)
            ]
        );
        assert_shape(&q);
    }

    /// The footprint contract of the module docs, on rounds whose ticks
    /// peak at different moments: one deep tick (rotating), the rest sparse.
    #[test]
    fn chunks_are_recycled_within_the_footprint_bound() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut per_tick: BTreeMap<SimTime, usize> = BTreeMap::new();
        // max over time of (live ticks + ⌈pending ÷ CHUNK_CAP⌉)
        let mut bound = 0;
        let mut check = |q: &EventQueue<u32>, per_tick: &BTreeMap<SimTime, usize>| {
            bound = bound.max(per_tick.len() + q.len().div_ceil(CHUNK_CAP));
            assert!(
                q.chunks.len() <= bound,
                "{} chunks allocated, bound {bound}",
                q.chunks.len()
            );
        };
        for round in 0..50u64 {
            for tick in 0..6 {
                let burst = if tick == round % 6 {
                    2 * CHUNK_CAP + 3
                } else {
                    3
                };
                let at = q.now() + tick;
                for i in 0..burst {
                    q.push(at, i as u32);
                    *per_tick.entry(at).or_insert(0) += 1;
                    check(&q, &per_tick);
                }
            }
            while let Some((at, _)) = q.pop() {
                let left = per_tick.get_mut(&at).expect("popped from a live tick");
                *left -= 1;
                if *left == 0 {
                    per_tick.remove(&at);
                }
                check(&q, &per_tick);
            }
            assert_eq!(q.len(), 0);
            assert!(
                q.later.is_empty() && q.occupied == [0; WORDS] && q.current.head == NIL,
                "a drained queue holds no tick-index entry"
            );
            assert!(
                q.blocks.iter().flatten().all(Option::is_none),
                "a drained queue holds no event"
            );
            assert_shape(&q);
        }
    }
}
