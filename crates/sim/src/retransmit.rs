//! Ack-free retransmission with exponential backoff and jitter.
//!
//! Under a [`FaultPlan`](crate::FaultPlan) the network may drop messages,
//! so protocols that assume reliable channels must *manufacture* them:
//! every node periodically re-announces its latest state to its peers
//! (pledge-rebroadcast style — no acknowledgements, duplicates are
//! absorbed by the receivers' dedup paths). Because every fault window
//! heals by a known tick and the backoff schedule keeps firing past it,
//! at least one full re-announcement happens over the healed network,
//! which restores eventual delivery — the reliable-channel abstraction
//! the paper assumes (Section III-A).
//!
//! Two pieces live here:
//!
//! - [`RetransmitConfig`] + [`Backoff`]: the shared schedule (exponential
//!   backoff with deterministic jitter drawn from the simulation RNG,
//!   capped interval, bounded round count); `scup-scp` nodes drive their
//!   native envelope re-flood with it directly;
//! - [`Retransmitter`]: the schedule plus a deduplicated log of what was
//!   sent, re-sent whole on each backoff round — the one retransmission
//!   algorithm of every actor that has no backlog of its own to re-flood
//!   (the BFT-CUP actor and the sink detector each hold one).
//!
//! Every correct actor retransmits natively, so the actor a crash seat
//! wraps and the state the exploration hooks fork and fingerprint are
//! the correct actor's own.

use rand::rngs::StdRng;
use rand::RngExt as _;
use scup_graph::ProcessId;

use crate::actor::{Context, SimMessage};

/// The timer tag reserved for retransmission rounds. Protocol actors must
/// not arm timers with this tag.
pub const RETRANSMIT_TAG: u64 = u64::MAX;

/// Parameters of a retransmission schedule. `disabled()` (the default)
/// turns retransmission off entirely — no timers are armed, so fault-free
/// runs keep their exact historical schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// First retransmission interval in ticks (0 disables).
    pub base: u64,
    /// Interval cap: delays double per round up to this value.
    pub max_interval: u64,
    /// Uniform jitter in `0..=jitter` ticks added to every delay (drawn
    /// from the seeded simulation RNG, so still deterministic per seed).
    pub jitter: u64,
    /// Total number of rounds before a node stops re-announcing.
    pub max_rounds: u32,
}

impl RetransmitConfig {
    /// No retransmission (the default).
    pub fn disabled() -> Self {
        RetransmitConfig {
            base: 0,
            max_interval: 0,
            jitter: 0,
            max_rounds: 0,
        }
    }

    /// `true` when this schedule arms timers at all.
    pub fn enabled(&self) -> bool {
        self.base > 0 && self.max_rounds > 0
    }

    /// A schedule guaranteed to keep re-announcing past `heal_tick`: the
    /// cumulative fire times of the backoff rounds exceed
    /// `heal_tick + 4Δ` with at least two spare rounds, so every node
    /// performs a full re-announcement over the healed network.
    pub fn covering(heal_tick: u64, delta: u64) -> Self {
        let base = (delta.max(1)) * 4;
        let max_interval = base * 64;
        let target = heal_tick.saturating_add(4 * delta.max(1));
        let mut fire_at = 0u64;
        let mut rounds = 0u32;
        while fire_at <= target && rounds < 48 {
            let exp = rounds.min(16);
            let delay = base.checked_shl(exp).unwrap_or(u64::MAX).min(max_interval);
            fire_at = fire_at.saturating_add(delay);
            rounds += 1;
        }
        RetransmitConfig {
            base,
            max_interval,
            jitter: base / 2,
            max_rounds: rounds + 2,
        }
    }
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig::disabled()
    }
}

/// Per-node backoff state for a [`RetransmitConfig`] schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Backoff {
    round: u32,
}

impl Backoff {
    /// A schedule at round zero.
    pub fn new() -> Self {
        Backoff::default()
    }

    /// Rounds fired so far.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Resets to round zero (used after crash recovery: a rejoining node
    /// restarts its re-announcement schedule from the short intervals).
    pub fn reset(&mut self) {
        self.round = 0;
    }

    /// The delay until the next retransmission round, advancing the
    /// round counter — or `None` once the schedule is exhausted (or
    /// disabled). Jitter is drawn from `rng`.
    pub fn next_delay(&mut self, cfg: &RetransmitConfig, rng: &mut StdRng) -> Option<u64> {
        if !cfg.enabled() || self.round >= cfg.max_rounds {
            return None;
        }
        let exp = self.round.min(16);
        let raw = cfg
            .base
            .checked_shl(exp)
            .unwrap_or(u64::MAX)
            .min(cfg.max_interval.max(cfg.base));
        self.round += 1;
        let jitter = if cfg.jitter > 0 {
            rng.random_range(0..=cfg.jitter)
        } else {
            0
        };
        Some(raw.saturating_add(jitter).max(1))
    }
}

/// Ack-free retransmission for one actor: a [`Backoff`] schedule and the
/// deduplicated log of the messages the actor sent, re-sent whole on each
/// round. Receivers are expected to absorb duplicates — true for every
/// protocol in this workspace, whose handlers dedup on message identity.
///
/// The holder calls [`Retransmitter::note`] for every send,
/// [`Retransmitter::arm`] once at start, [`Retransmitter::round`] when a
/// [`RETRANSMIT_TAG`] timer fires and [`Retransmitter::reset`] after
/// crash recovery. Under a disabled schedule all four do nothing.
#[derive(Debug, Clone)]
pub struct Retransmitter<M> {
    cfg: RetransmitConfig,
    backoff: Backoff,
    log: Vec<(ProcessId, M)>,
}

impl<M: SimMessage + PartialEq> Retransmitter<M> {
    /// An empty log on `cfg`'s schedule, at round zero.
    pub fn new(cfg: RetransmitConfig) -> Self {
        Retransmitter {
            cfg,
            backoff: Backoff::new(),
            log: Vec::new(),
        }
    }

    /// `true` when the schedule arms timers at all (then the backoff
    /// round and the log are live state).
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// Remembers that `msg` went to `to`, once.
    pub fn note(&mut self, to: ProcessId, msg: &M) {
        if self.cfg.enabled() && !self.log.iter().any(|(t, m)| *t == to && m == msg) {
            self.log.push((to, msg.clone()));
        }
    }

    /// Arms the next round's timer, if the schedule has any left.
    pub fn arm(&mut self, ctx: &mut Context<'_, M>) {
        if let Some(delay) = self.backoff.next_delay(&self.cfg, ctx.rng()) {
            ctx.set_timer(delay, RETRANSMIT_TAG);
        }
    }

    /// One backoff round: re-sends the whole log, in the order it was
    /// first sent, and arms the next round. Returns how many messages
    /// were re-sent.
    pub fn round(&mut self, ctx: &mut Context<'_, M>) -> u64 {
        for (to, msg) in &self.log {
            ctx.send(*to, msg.clone());
        }
        self.arm(ctx);
        self.log.len() as u64
    }

    /// Restarts the schedule from the short intervals and arms it, so a
    /// process rejoining after a crash catches up quickly.
    pub fn reset(&mut self, ctx: &mut Context<'_, M>) {
        self.backoff.reset();
        self.arm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn disabled_schedule_never_fires() {
        let cfg = RetransmitConfig::disabled();
        let mut b = Backoff::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(b.next_delay(&cfg, &mut rng), None);
    }

    #[test]
    fn backoff_doubles_until_cap_and_exhausts() {
        let cfg = RetransmitConfig {
            base: 8,
            max_interval: 32,
            jitter: 0,
            max_rounds: 5,
        };
        let mut b = Backoff::new();
        let mut rng = StdRng::seed_from_u64(1);
        let delays: Vec<u64> = std::iter::from_fn(|| b.next_delay(&cfg, &mut rng)).collect();
        assert_eq!(delays, vec![8, 16, 32, 32, 32]);
        assert_eq!(b.next_delay(&cfg, &mut rng), None, "exhausted");
        b.reset();
        assert_eq!(b.next_delay(&cfg, &mut rng), Some(8), "reset restarts");
    }

    #[test]
    fn jitter_stays_in_band_and_is_deterministic() {
        let cfg = RetransmitConfig {
            base: 10,
            max_interval: 100,
            jitter: 5,
            max_rounds: 8,
        };
        let run = |seed| {
            let mut b = Backoff::new();
            let mut rng = StdRng::seed_from_u64(seed);
            std::iter::from_fn(|| b.next_delay(&cfg, &mut rng)).collect::<Vec<u64>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same schedule");
        for (i, d) in a.iter().enumerate() {
            let raw = (10u64 << i.min(16)).min(100);
            assert!((raw..=raw + 5).contains(d), "round {i}: {d} vs raw {raw}");
        }
    }

    #[test]
    fn covering_schedule_outlives_heal_tick() {
        for (heal, delta) in [(0, 1), (150, 10), (5_000, 10), (100_000, 50)] {
            let cfg = RetransmitConfig::covering(heal, delta);
            assert!(cfg.enabled());
            let mut fire_at = 0u64;
            let mut b = Backoff::new();
            // Jitter only pushes fire times later; the jitter-free sum is
            // the earliest possible final round.
            let jitter_free = RetransmitConfig {
                jitter: 0,
                ..cfg.clone()
            };
            let mut rng = StdRng::seed_from_u64(0);
            while let Some(d) = b.next_delay(&jitter_free, &mut rng) {
                fire_at += d;
            }
            assert!(
                fire_at > heal + 4 * delta,
                "schedule for heal={heal} Δ={delta} ends at {fire_at}"
            );
        }
    }
}
