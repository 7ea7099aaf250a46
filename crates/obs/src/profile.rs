//! Lap-based phase profiling for the explorer hot loop.
//!
//! The explorer interleaves its phases at sub-microsecond granularity
//! (expand one state, fingerprint it, canonicalize, probe the visited
//! set, settle the successor, repeat). Paired start/stop spans would cost
//! two clock reads per phase occurrence; a *lap* timer costs one. The
//! caller stamps each phase **boundary** with [`PhaseProfile::lap`], and
//! the elapsed time since the previous stamp is attributed to the phase
//! that just ended. Code outside any phase is excluded by re-arming with
//! [`PhaseProfile::lap_start`].
//!
//! When disabled (the default), every call is a single branch on a bool —
//! no `Instant::now()` is ever reached, keeping the obs-off explorer on
//! its existing performance envelope.

use std::time::Instant;

/// The explorer phases that time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Restoring a parent snapshot (and snapshotting expanded states) in
    /// the uniform-cost frontier: pointer copies only — states share
    /// process slots, so no actor is forked here.
    Restore,
    /// Firing a pending event on the restored state. The first write to a
    /// slot the parent still shares forks that actor, so the copy a
    /// transition needs is paid here (and under [`Phase::Settle`] for the
    /// slots settling writes), not under [`Phase::Restore`].
    Expand,
    /// Identity-permutation state hashing.
    Fingerprint,
    /// Min-over-automorphism-group canonical hashing.
    Canonicalize,
    /// Visited-set probes, subsumption checks, and inserts.
    Dedup,
    /// Draining absorbed/eager-inert successor events.
    Settle,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;

    /// All phases, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Restore,
        Phase::Expand,
        Phase::Fingerprint,
        Phase::Canonicalize,
        Phase::Dedup,
        Phase::Settle,
    ];

    /// Stable lowercase name (used in report JSON and bench entries).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Restore => "restore",
            Phase::Expand => "expand",
            Phase::Fingerprint => "fingerprint",
            Phase::Canonicalize => "canonicalize",
            Phase::Dedup => "dedup",
            Phase::Settle => "settle",
        }
    }
}

/// Accumulated per-phase wall time and boundary counts.
///
/// Merging profiles ([`PhaseProfile::merge`]) sums both, so per-worker
/// profiles combine into a campaign total regardless of worker count or
/// join order.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    enabled: bool,
    nanos: [u64; Phase::COUNT],
    counts: [u64; Phase::COUNT],
    lap: Option<Instant>,
}

impl PhaseProfile {
    /// A profile that ignores every stamp (the default).
    pub fn disabled() -> Self {
        PhaseProfile::default()
    }

    /// A recording profile.
    pub fn enabled() -> Self {
        PhaseProfile {
            enabled: true,
            ..PhaseProfile::default()
        }
    }

    /// `true` if stamps are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Arms the lap clock at "now" without attributing anything: call on
    /// entry to a profiled region so time spent outside it is not
    /// charged to the first phase.
    #[inline]
    pub fn lap_start(&mut self) {
        if self.enabled {
            self.lap = Some(Instant::now());
        }
    }

    /// Stamps a phase boundary: the time since the previous stamp is
    /// attributed to `phase`, and the clock re-arms for the next lap.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        if self.enabled {
            let now = Instant::now();
            if let Some(prev) = self.lap {
                let d = now.duration_since(prev);
                self.nanos[phase as usize] += d.as_nanos() as u64;
                self.counts[phase as usize] += 1;
            }
            self.lap = Some(now);
        }
    }

    /// Total nanoseconds attributed to `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize]
    }

    /// Number of boundary stamps attributed to `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase as usize]
    }

    /// Sums another profile into this one (lap state is not carried
    /// over). An enabled result is produced if either side was enabled,
    /// so merged worker profiles survive into the report.
    pub fn merge(&mut self, other: &PhaseProfile) {
        self.enabled |= other.enabled;
        for (n, o) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *n += o;
        }
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.lap = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_records_nothing() {
        let mut p = PhaseProfile::disabled();
        p.lap_start();
        p.lap(Phase::Expand);
        assert_eq!(p.nanos(Phase::Expand), 0);
        assert_eq!(p.count(Phase::Expand), 0);
    }

    #[test]
    fn laps_attribute_time_to_phases() {
        let mut p = PhaseProfile::enabled();
        // Un-armed stamp attributes nothing.
        p.lap(Phase::Expand);
        assert_eq!(p.count(Phase::Expand), 0);
        p.lap_start();
        std::hint::black_box(vec![0u8; 1024]);
        p.lap(Phase::Expand);
        p.lap(Phase::Dedup);
        assert_eq!(p.count(Phase::Expand), 1);
        assert_eq!(p.count(Phase::Dedup), 1);
    }

    #[test]
    fn merge_sums_and_keeps_enabled() {
        let mut a = PhaseProfile::disabled();
        let mut b = PhaseProfile::enabled();
        b.lap_start();
        b.lap(Phase::Settle);
        a.merge(&b);
        assert!(a.is_enabled());
        assert_eq!(a.count(Phase::Settle), 1);
    }
}
