//! The simulator's pending-event queue: a calendar with one FIFO list per
//! tick.
//!
//! The simulator orders events by `(at, seq)`, `seq` being a counter bumped
//! on every push. Two facts make a priority heap unnecessary: every push
//! has `at ≥ now` (time is monotone), and `seq` grows with push order. So
//! among the events of one tick, push order *is* `seq` order, and popping
//! the earliest non-empty tick front to back yields exactly the `(at, seq)`
//! sequence — at O(1) per event instead of a sift through a heap that peaks
//! at several hundred thousand entries on the n = 24 SCP floods.
//!
//! Storage is a slab with intrusive singly-linked lists rather than one
//! deque per tick: a deque keeps its peak capacity, and a run touches a
//! few hundred ticks whose bursts peak at different moments, so per-tick
//! buffers add up to well above the live event count. The slab's footprint
//! is the peak number of *simultaneously* pending events, 4 bytes of link
//! each, and freed slots are reused before the slab grows. Only the ticks
//! that currently hold events have an entry in the tick index (the GST + Δ
//! delivery window plus a handful of timers), so it stays small however
//! far ahead a timer is armed.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// List terminator / "no slot".
const NIL: u32 = u32::MAX;

/// One tick's events, as slab indices of the first and last. `tail` is
/// meaningful only while `head != NIL`.
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
    /// The slab; `None` marks a free slot.
    slots: Vec<Option<T>>,
    /// Per slot: the next event of the same tick, or the next free slot.
    next: Vec<u32>,
    /// Head of the free-slot list.
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
            slots: Vec::new(),
            next: Vec::new(),
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
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.next[slot as usize];
            self.slots[slot as usize] = Some(item);
            self.next[slot as usize] = NIL;
            slot
        } else {
            assert!(
                self.slots.len() < NIL as usize,
                "slot indices fit in u32 below the NIL marker"
            );
            self.slots.push(Some(item));
            self.next.push(NIL);
            (self.slots.len() - 1) as u32
        };
        let fifo = if at == self.now {
            &mut self.current
        } else {
            self.later.entry(at).or_insert(Fifo::EMPTY)
        };
        if fifo.head == NIL {
            fifo.head = slot;
        } else {
            self.next[fifo.tail as usize] = slot;
        }
        fifo.tail = slot;
        self.len += 1;
    }

    /// Removes and returns the earliest event and its time.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.current.head == NIL {
            let (at, fifo) = self.later.pop_first()?;
            self.now = at;
            self.current = fifo;
        }
        let slot = self.current.head as usize;
        self.current.head = self.next[slot];
        let item = self.slots[slot].take().expect("linked slots are occupied");
        self.next[slot] = self.free;
        self.free = slot as u32;
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
        Push {
            delay: u64,
            burst: usize,
        },
        Pop,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (0u32..10, 0u64..12, 1usize..6).prop_map(|(kind, delay, burst)| match kind {
                // Same-tick bursts and `at == now`.
                0 => Op::Push { delay: 0, burst },
                1..=3 => Op::Push { delay, burst },
                // A far-future timer.
                4 => Op::Push {
                    delay: 1_000 + delay * 997,
                    burst: 1,
                },
                _ => Op::Pop,
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
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    Op::Push { delay, burst } => {
                        for _ in 0..burst {
                            seq += 1;
                            subject.push(now + delay, seq);
                            oracle.push(Reverse((now + delay, seq)));
                        }
                    }
                    Op::Pop => {
                        let expected = oracle.pop().map(|Reverse(e)| e);
                        prop_assert_eq!(subject.pop(), expected);
                        if let Some((at, _)) = expected {
                            now = at;
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

    #[test]
    fn freed_slots_are_reused_before_the_slab_grows() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            for i in 0..8 {
                q.push(now + i % 3, i as u32);
            }
            for _ in 0..8 {
                now = q.pop().unwrap().0;
            }
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.slots.len(), 8, "the slab is the peak live count");
        assert!(q.later.is_empty());
    }
}
