use std::collections::BTreeMap;
use std::fmt;

use crate::SimTime;

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index a value lands in: bucket `0` holds exactly `0`,
/// bucket `b ≥ 1` holds `[2^(b-1), 2^b - 1]`.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive `[low, high]` value range of bucket `bucket`.
///
/// # Panics
/// If `bucket >= HIST_BUCKETS`.
#[inline]
pub fn bucket_bounds(bucket: usize) -> (u64, u64) {
    assert!(bucket < HIST_BUCKETS, "bucket {bucket} out of range");
    if bucket == 0 {
        (0, 0)
    } else if bucket == 64 {
        (1 << 63, u64::MAX)
    } else {
        (1 << (bucket - 1), (1 << bucket) - 1)
    }
}

/// Per-process traffic breakdown inside a [`SimReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Messages this process handed to the network.
    pub sent: u64,
    /// Messages delivered to this process.
    pub delivered: u64,
    /// Sum of [`SimMessage::size_hint`](crate::SimMessage::size_hint)
    /// over this process's sent messages.
    pub bytes_sent: u64,
}

impl ProcessStats {
    /// Element-wise sum.
    pub fn absorb(&mut self, other: &ProcessStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.bytes_sent += other.bytes_sent;
    }
}

/// Aggregate statistics of a simulation run, as returned by
/// [`Simulation::run_until_quiet`](crate::Simulation::run_until_quiet).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered to actors.
    pub messages_delivered: u64,
    /// Sum of [`SimMessage::size_hint`](crate::SimMessage::size_hint) over
    /// sent messages.
    pub bytes_sent: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Messages lost to the fault plan (link loss, partitions, crashed
    /// receivers). Always 0 without an active [`FaultPlan`](crate::FaultPlan).
    pub messages_dropped: u64,
    /// Extra deliveries injected by duplication faults.
    pub messages_duplicated: u64,
    /// Timers cancelled by crashes (armed pre-crash or firing while down).
    pub timers_cancelled: u64,
    /// Crash events executed.
    pub crashes: u64,
    /// Recovery events executed.
    pub recoveries: u64,
    /// Membership joins executed. Always 0 without an active
    /// [`ChurnPlan`](crate::ChurnPlan).
    pub joins: u64,
    /// Permanent departures executed by the churn plan.
    pub departures: u64,
    /// Messages dropped because their receiver was dormant (not yet
    /// joined) or departed — a subset of `messages_dropped`.
    pub churn_drops: u64,
    /// Simulated time at which the run stopped.
    pub end_time: SimTime,
    /// `true` if the run stopped because the event queue drained (vs.
    /// hitting the time horizon or a stop predicate).
    pub quiescent: bool,
    /// Per-process sent/delivered/bytes breakdown, indexed by process id
    /// (empty for reports built before the run started).
    pub per_process: Vec<ProcessStats>,
    /// log₂ histogram of retransmission-round delays in ticks (bucket
    /// layout of [`bucket_of`]; empty when no retransmission timer was
    /// armed). Deterministic per seed.
    pub retransmit_delay_buckets: Vec<u64>,
    /// Messages dropped per directed link `(from, to)` — link loss,
    /// partition cuts, and arrivals at crashed receivers. Deterministic
    /// per seed; empty without an active fault plan.
    pub link_drops: BTreeMap<(u32, u32), u64>,
}

impl SimReport {
    /// Folds another report into this one: counters add, `end_time`
    /// keeps the maximum, `quiescent` holds only if both runs drained,
    /// and per-process rows sum element-wise (shorter vectors extend).
    /// Used to combine the reports of a multi-phase pipeline into one
    /// per-scenario record.
    pub fn absorb(&mut self, other: &SimReport) {
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.bytes_sent += other.bytes_sent;
        self.timers_fired += other.timers_fired;
        self.messages_dropped += other.messages_dropped;
        self.messages_duplicated += other.messages_duplicated;
        self.timers_cancelled += other.timers_cancelled;
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.joins += other.joins;
        self.departures += other.departures;
        self.churn_drops += other.churn_drops;
        self.end_time = self.end_time.max(other.end_time);
        self.quiescent &= other.quiescent;
        if self.per_process.len() < other.per_process.len() {
            self.per_process
                .resize(other.per_process.len(), ProcessStats::default());
        }
        for (mine, theirs) in self.per_process.iter_mut().zip(other.per_process.iter()) {
            mine.absorb(theirs);
        }
        if self.retransmit_delay_buckets.len() < other.retransmit_delay_buckets.len() {
            self.retransmit_delay_buckets
                .resize(other.retransmit_delay_buckets.len(), 0);
        }
        for (mine, theirs) in self
            .retransmit_delay_buckets
            .iter_mut()
            .zip(other.retransmit_delay_buckets.iter())
        {
            *mine += theirs;
        }
        for (link, count) in &other.link_drops {
            *self.link_drops.entry(*link).or_insert(0) += count;
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} bytes={} timers={} end={} quiescent={}",
            self.messages_sent,
            self.messages_delivered,
            self.bytes_sent,
            self.timers_fired,
            self.end_time,
            self.quiescent
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            let (low, high) = bucket_bounds(b);
            assert_eq!(bucket_of(low), b);
            assert_eq!(bucket_of(high), b);
        }
    }

    #[test]
    fn display_contains_fields() {
        let r = SimReport {
            messages_sent: 3,
            end_time: SimTime::from_ticks(9),
            ..SimReport::default()
        };
        let s = r.to_string();
        assert!(s.contains("sent=3"));
        assert!(s.contains("end=t9"));
    }

    #[test]
    fn absorb_sums_counters_and_per_process_rows() {
        let mut a = SimReport {
            messages_sent: 2,
            bytes_sent: 20,
            end_time: SimTime::from_ticks(5),
            quiescent: true,
            per_process: vec![
                ProcessStats {
                    sent: 2,
                    delivered: 0,
                    bytes_sent: 20,
                },
                ProcessStats::default(),
            ],
            ..SimReport::default()
        };
        let b = SimReport {
            messages_sent: 1,
            messages_delivered: 3,
            bytes_sent: 5,
            end_time: SimTime::from_ticks(9),
            quiescent: true,
            per_process: vec![
                ProcessStats::default(),
                ProcessStats {
                    sent: 1,
                    delivered: 3,
                    bytes_sent: 5,
                },
                ProcessStats {
                    sent: 0,
                    delivered: 0,
                    bytes_sent: 0,
                },
            ],
            ..SimReport::default()
        };
        a.absorb(&b);
        assert_eq!(a.messages_sent, 3);
        assert_eq!(a.messages_delivered, 3);
        assert_eq!(a.bytes_sent, 25);
        assert_eq!(a.end_time, SimTime::from_ticks(9));
        assert!(a.quiescent);
        assert_eq!(a.per_process.len(), 3);
        assert_eq!(a.per_process[0].sent, 2);
        assert_eq!(a.per_process[1].delivered, 3);
    }
}
