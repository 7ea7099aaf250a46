//! The simulator's pending-event queue: a calendar with one FIFO per tick,
//! each FIFO a list of capped chunks.
//!
//! The simulator orders events by `(at, seq)`, `seq` being a counter bumped
//! on every push. Two facts make a priority heap unnecessary: every push
//! has `at ≥ now` (time is monotone), and `seq` grows with push order. So
//! among the events of one tick, push order *is* `seq` order, and popping
//! the earliest non-empty tick front to back yields exactly the `(at, seq)`
//! sequence — at O(1) per event instead of a sift through a heap that peaks
//! at several hundred thousand entries on the n = 24 SCP floods.
//!
//! Storage is tick-contiguous. One growable deque per tick would be the
//! obvious shape and is the wrong one: a deque keeps its peak capacity, and
//! a run touches a few hundred ticks whose bursts peak at different
//! moments, so per-tick buffers add up to well above the live event count
//! (and a doubling buffer holds old and new copy at once while it grows).
//! The cap answers that: a tick's FIFO is a list of *chunks*, each a ring
//! buffer of at most [`CHUNK_CAP`] events that grows lazily (a tick holding
//! three timers pays for four slots, not for a full chunk) and never past
//! the cap. A drained chunk goes to a free list *with* its buffer and is
//! handed to whichever tick next needs one, so memory follows the live
//! event count instead of per-tick peaks. Only a tick's tail chunk — and,
//! on the tick being drained, its head — is ever partly filled, hence
//!
//! > chunks allocated ≤ max over the run of
//! > (live ticks + ⌈pending events ÷ `CHUNK_CAP`⌉),
//!
//! each at most `CHUNK_CAP` events wide. Recycling whole chunks rather than
//! single event slots is what keeps a tick together in memory: the pops of
//! one tick stream through consecutive addresses and the pushes of a
//! broadcast land on one hot tail per live tick, whereas a slot-granular
//! free list (same footprint, 4 bytes of link per event) hands a tick slots
//! from all over a slab of tens of megabytes and misses the cache on every
//! pop. Only the ticks that currently hold events have an entry in the tick
//! index (the GST + Δ delivery window plus a handful of timers), so it
//! stays small however far ahead a timer is armed.

use std::collections::{BTreeMap, VecDeque};

use crate::time::SimTime;

/// Most events one chunk holds. Throughput and footprint are flat from 16
/// to 128 on the n = 24 floods; 32 keeps a sparse tick's waste small.
const CHUNK_CAP: usize = 32;

/// List terminator / "no chunk".
const NIL: u32 = u32::MAX;

/// Up to [`CHUNK_CAP`] consecutive events of one tick.
struct Chunk<T> {
    items: VecDeque<T>,
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
    chunks: Vec<Chunk<T>>,
    /// Head of the free-chunk list.
    free: u32,
    /// The tick `current` belongs to: the time of the latest pop.
    now: SimTime,
    current: Fifo,
    /// Every later tick that holds at least one event.
    later: BTreeMap<SimTime, Fifo>,
    len: usize,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            chunks: Vec::new(),
            free: NIL,
            now: SimTime::ZERO,
            current: Fifo::EMPTY,
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
        } else {
            self.later.first_key_value().map(|(&at, _)| at)
        }
    }

    /// Queues `item` for tick `at`, behind everything already queued for
    /// that tick. `at` may equal the time of the latest pop (zero-delay
    /// timers, fault events at tick 0) but never precede it.
    pub(crate) fn push(&mut self, at: SimTime, item: T) {
        debug_assert!(at >= self.now, "events are never scheduled in the past");
        let fifo = if at == self.now {
            &mut self.current
        } else {
            self.later.entry(at).or_insert(Fifo::EMPTY)
        };
        if fifo.head == NIL || self.chunks[fifo.tail as usize].items.len() == CHUNK_CAP {
            let chunk = if self.free != NIL {
                let chunk = self.free;
                self.free = self.chunks[chunk as usize].next;
                self.chunks[chunk as usize].next = NIL;
                chunk
            } else {
                assert!(
                    self.chunks.len() < NIL as usize,
                    "chunk indices fit in u32 below the NIL marker"
                );
                self.chunks.push(Chunk {
                    items: VecDeque::new(),
                    next: NIL,
                });
                (self.chunks.len() - 1) as u32
            };
            if fifo.head == NIL {
                fifo.head = chunk;
            } else {
                self.chunks[fifo.tail as usize].next = chunk;
            }
            fifo.tail = chunk;
        }
        self.chunks[fifo.tail as usize].items.push_back(item);
        self.len += 1;
    }

    /// Removes and returns the earliest event and its time.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.current.head == NIL {
            let (at, fifo) = self.later.pop_first()?;
            self.now = at;
            self.current = fifo;
        }
        let head = self.current.head;
        let chunk = &mut self.chunks[head as usize];
        let item = chunk.items.pop_front().expect("linked chunks hold events");
        if chunk.items.is_empty() {
            self.current.head = chunk.next;
            chunk.next = self.free;
            self.free = head;
        }
        self.len -= 1;
        Some((self.now, item))
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
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (
                0u32..10,
                0u64..12,
                1usize..3 * CHUNK_CAP + 1,
                1usize..CHUNK_CAP + 8,
            )
                .prop_map(|(kind, delay, burst, count)| match kind {
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
                    // A far-future timer between the bursts.
                    4 => Op::Push {
                        delay: 1_000 + delay * 997,
                        burst: 1,
                    },
                    // Runs of pops short and long enough to stop inside a
                    // chunk, on its last event, or past it.
                    _ => Op::Pop { count },
                }),
            0..300,
        )
    }

    proptest! {
        /// The reference is the structure this queue replaced: a binary
        /// heap on `(at, seq)`.
        #[test]
        fn pops_in_at_seq_order_like_a_binary_heap(ops in ops(), drain in proptest::bool::ANY) {
            let mut subject: EventQueue<u64> = EventQueue::new();
            let mut oracle: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
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
                            let expected = oracle.pop().map(|Reverse(e)| e);
                            prop_assert_eq!(subject.pop(), expected);
                            if let Some((at, _)) = expected {
                                prop_assert_eq!(subject.now(), at);
                            }
                        }
                    }
                }
                prop_assert_eq!(subject.len(), oracle.len());
                prop_assert_eq!(subject.next_time(), oracle.peek().map(|Reverse((at, _))| *at));
            }
            if drain {
                while let Some(Reverse(expected)) = oracle.pop() {
                    prop_assert_eq!(subject.pop(), Some(expected));
                }
                prop_assert_eq!(subject.pop(), None);
                prop_assert_eq!(subject.len(), 0);
                prop_assert_eq!(subject.next_time(), None);
            }
        }
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
                q.later.is_empty() && q.current.head == NIL,
                "a drained queue holds no tick-index entry"
            );
        }
        assert!(
            q.chunks.iter().all(|c| c.items.capacity() <= CHUNK_CAP),
            "a chunk's buffer never grows past the cap"
        );
    }
}
