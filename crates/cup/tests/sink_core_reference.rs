//! `SinkCore` merges a `DiscoverReply` payload as one set difference,
//! `set \ known \ {self}`, and scans its echoes for a verdict only once
//! `|echoes| ≥ |known| − f`. This pins both to the step rules they
//! replaced, kept here as [`Reference`]: the id-by-id merge, and the full
//! verdict scan after every echo.
//!
//! Seeded random step sequences drive a `SinkCore` and the reference side
//! by side: `Discover`, `DiscoverReply` from known and unknown senders
//! (payloads holding the self id and already-known ids), `Check` before and
//! after the step-1 rule fires, `CheckReply` (repeat senders with a changed
//! set, senders that only become known later, and echoes of the current
//! `known`), and `learn_peer`, some of them before `start`. After every
//! step both must emit the same messages in the same order and agree on
//! `known()`, `discovery_done()`, `verdict()` and the fingerprint hash.
//! Ids run up to 135, so sets also spill past the 128 inline ids.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;
use scup_cup::discovery::{SinkCore, SinkMsg, SinkOutbox, SinkVerdict};
use scup_graph::{ProcessId, ProcessSet};
use scup_sim::StateHasher;

/// `SinkCore` with the step rules it had before the word-parallel merge
/// and the echo-count gate. Its fingerprint writes what
/// `SinkCore::fingerprint` writes under no renaming, the only way this
/// test hashes.
struct Reference {
    self_id: ProcessId,
    pd: ProcessSet,
    f: usize,
    known: ProcessSet,
    replied: ProcessSet,
    pending_askers: Vec<ProcessId>,
    echoes: BTreeMap<ProcessId, ProcessSet>,
    fired: bool,
    verdict: Option<SinkVerdict>,
}

impl Reference {
    fn new(self_id: ProcessId, pd: ProcessSet, f: usize) -> Self {
        Reference {
            self_id,
            pd,
            f,
            known: ProcessSet::new(),
            replied: ProcessSet::new(),
            pending_askers: Vec::new(),
            echoes: BTreeMap::new(),
            fired: false,
            verdict: None,
        }
    }

    fn start(&mut self) -> SinkOutbox {
        self.known = self.pd.clone();
        self.known.insert(self.self_id);
        self.replied.insert(self.self_id);
        let mut out: SinkOutbox = self.pd.iter().map(|j| (j, SinkMsg::Discover)).collect();
        out.extend(self.try_fire());
        out
    }

    fn on_message(&mut self, from: ProcessId, msg: SinkMsg) -> SinkOutbox {
        match msg {
            SinkMsg::Discover => vec![(from, SinkMsg::DiscoverReply(self.pd.clone()))],
            SinkMsg::DiscoverReply(set) => {
                if !self.known.contains(from) {
                    return Vec::new();
                }
                self.replied.insert(from);
                let mut out = Vec::new();
                for w in &set {
                    if w != self.self_id && self.known.insert(w) {
                        out.push((w, SinkMsg::Discover));
                    }
                }
                out.extend(self.try_fire());
                self.try_verdict();
                out
            }
            SinkMsg::Check(_) => {
                if self.fired {
                    vec![(from, SinkMsg::CheckReply(self.known.clone()))]
                } else {
                    self.pending_askers.push(from);
                    Vec::new()
                }
            }
            SinkMsg::CheckReply(set) => {
                self.echoes.insert(from, set);
                self.try_verdict();
                Vec::new()
            }
        }
    }

    fn learn_peer(&mut self, j: ProcessId) -> SinkOutbox {
        if j == self.self_id || self.verdict.is_some() {
            return Vec::new();
        }
        if self.known.insert(j) {
            if self.fired {
                self.fired = false;
                self.echoes.clear();
            }
            return vec![(j, SinkMsg::Discover)];
        }
        let mut out = vec![(j, SinkMsg::Discover)];
        if self.fired {
            out.push((j, SinkMsg::Check(self.known.clone())));
        }
        out
    }

    fn try_fire(&mut self) -> SinkOutbox {
        if self.fired || self.known.difference_len(&self.replied) > self.f {
            return Vec::new();
        }
        self.fired = true;
        let mut out: SinkOutbox = self
            .known
            .iter()
            .filter(|&j| j != self.self_id)
            .map(|j| (j, SinkMsg::Check(self.known.clone())))
            .collect();
        for j in std::mem::take(&mut self.pending_askers) {
            out.push((j, SinkMsg::CheckReply(self.known.clone())));
        }
        self.echoes.insert(self.self_id, self.known.clone());
        self.try_verdict();
        out
    }

    fn try_verdict(&mut self) {
        if self.verdict.is_some() || !self.fired {
            return;
        }
        let matching = self
            .echoes
            .iter()
            .filter(|(j, set)| self.known.contains(**j) && **set == self.known)
            .count();
        if matching >= self.known.len().saturating_sub(self.f) {
            self.verdict = Some(SinkVerdict {
                is_sink_member: true,
                sink: self.known.clone(),
            });
        }
    }

    fn fingerprint(&self, h: &mut StateHasher) {
        h.write_id(self.self_id);
        h.write_set(&self.pd);
        h.write_u64(self.f as u64);
        h.write_set(&self.known);
        h.write_bool(self.fired);
        if !self.fired {
            h.write_set(&self.replied);
            let mut askers: Vec<u32> = self.pending_askers.iter().map(|p| p.as_u32()).collect();
            askers.sort_unstable();
            h.write_u64(askers.len() as u64);
            for a in askers {
                h.write_u32(a);
            }
        }
        match &self.verdict {
            Some(v) => {
                h.write_u8(1);
                h.write_set(&v.sink);
            }
            None => {
                h.write_u8(0);
                let mut echoes = h.unordered();
                for (j, set) in &self.echoes {
                    echoes.entry(|eh| {
                        eh.write_id(*j);
                        eh.write_set(set);
                    });
                }
                h.write_unordered(echoes);
            }
        }
    }
}

/// One generated case: a pool of raw ids (the first is the core's own), a
/// mask choosing its `PD` from the pool, `f`, how many steps run before
/// `start`, whether every echo is a known sender's copy of `known` (a
/// clean round, whose verdict can land exactly on the gate), and the steps
/// as `(kind, who, mask)` draws.
type Case = (Vec<u32>, u32, usize, usize, bool, Vec<(u8, usize, u32)>);

fn cases() -> impl Strategy<Value = Case> {
    (
        vec(0u32..136, 4..12),
        0u32..1 << 12,
        0usize..3,
        0usize..8,
        proptest::bool::ANY,
        vec((0u8..9, 0usize..64, 0u32..1 << 12), 1..96),
    )
}

/// How often a walk reached each situation the generator claims to reach.
type Coverage = BTreeMap<&'static str, usize>;

/// The pool members whose bit is set in `mask`.
fn subset(pool: &[ProcessId], mask: u32) -> ProcessSet {
    pool.iter()
        .enumerate()
        .filter(|(k, _)| mask & (1 << k) != 0)
        .map(|(_, &p)| p)
        .collect()
}

fn hash_of(write: impl FnOnce(&mut StateHasher)) -> u128 {
    let mut h = StateHasher::new();
    write(&mut h);
    h.finish()
}

/// Drives a `SinkCore` and the [`Reference`] through `case`, asserting
/// after every step that they agree.
fn walk((raw_pool, pd_mask, f, pre_start, clean, steps): Case) -> Coverage {
    let mut pool: Vec<ProcessId> = Vec::new();
    for id in raw_pool.into_iter().map(ProcessId::new) {
        if !pool.contains(&id) {
            pool.push(id);
        }
    }
    let me = pool[0];
    let mut pd = subset(&pool, pd_mask);
    pd.remove(me);
    let mut core = SinkCore::new(me, pd.clone(), f);
    let mut reference = Reference::new(me, pd, f);
    let mut cov = Coverage::new();
    let mut note = |what: &'static str, reached: bool| {
        *cov.entry(what).or_default() += usize::from(reached);
    };
    let mut late_echoers = ProcessSet::new();
    for (at, &(kind, who, mask)) in steps.iter().enumerate() {
        let kind = if clean && kind == 4 { 5 } else { kind };
        let known = &reference.known;
        let from = match kind {
            // A sender from `known` where there is one: most replies count
            // and most echoes match.
            1 | 5 | 6 if !known.is_empty() => known.to_vec()[who % known.len()],
            _ => pool[who % pool.len()],
        };
        let fired = reference.fired;
        let had_verdict = reference.verdict.is_some();
        let (out, expected) = if at == pre_start {
            (core.start(), reference.start())
        } else if kind == 7 {
            note("learn_peer before fire", !fired);
            note("learn_peer after fire", fired);
            note("refired round", fired && !known.contains(from));
            (core.learn_peer(from), reference.learn_peer(from))
        } else {
            let msg = match kind {
                0 => SinkMsg::Discover,
                1 | 2 => {
                    let set = subset(&pool, mask);
                    note(
                        "self id fresh in a counted payload",
                        known.contains(from) && set.contains(me) && !known.contains(me),
                    );
                    SinkMsg::DiscoverReply(set)
                }
                3 => {
                    note("check before fire", !fired);
                    note("check after fire", fired);
                    SinkMsg::Check(subset(&pool, mask))
                }
                4 => SinkMsg::CheckReply(subset(&pool, mask)),
                5 | 6 => SinkMsg::CheckReply(known.clone()),
                _ => SinkMsg::Check(known.clone()),
            };
            if let SinkMsg::CheckReply(set) = &msg {
                note(
                    "repeat echoer with a changed set",
                    reference.echoes.get(&from).is_some_and(|old| old != set),
                );
                if !known.contains(from) {
                    late_echoers.insert(from);
                }
            }
            (
                core.on_message(from, msg.clone()),
                reference.on_message(from, msg),
            )
        };
        check(&core, &reference, &out, &expected, at);
        note("fired step", reference.fired);
        if !had_verdict && reference.verdict.is_some() {
            let needed = reference.known.len().saturating_sub(f);
            note("verdict at the gate", reference.echoes.len() == needed);
        }
    }
    note("verdict", reference.verdict.is_some());
    note(
        "spilled known set",
        reference.known.iter().any(|p| p.as_u32() >= 128),
    );
    note(
        "echoer known only later",
        late_echoers.intersects(&reference.known),
    );
    cov
}

fn check(
    core: &SinkCore,
    reference: &Reference,
    out: &SinkOutbox,
    expected: &SinkOutbox,
    at: usize,
) {
    assert_eq!(out, expected, "outbox at step {at}");
    assert_eq!(core.known(), &reference.known, "known() at step {at}");
    assert_eq!(
        core.discovery_done(),
        reference.fired,
        "discovery_done() at step {at}"
    );
    assert_eq!(
        core.verdict(),
        reference.verdict.as_ref(),
        "verdict() at step {at}"
    );
    assert_eq!(
        hash_of(|h| core.fingerprint(h)),
        hash_of(|h| reference.fingerprint(h)),
        "fingerprint at step {at}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sink_core_matches_the_reference(case in cases()) {
        walk(case);
    }
}

/// The cases of `sink_core_matches_the_reference` reach every situation
/// the module docs promise, so a generator change cannot quietly stop
/// covering one.
#[test]
fn the_cases_reach_every_rule() {
    let mut total = Coverage::new();
    for case in 0..256 {
        let mut rng = proptest::rng_for("sink_core_matches_the_reference", case);
        for (what, n) in walk(cases().new_value(&mut rng)) {
            *total.entry(what).or_default() += n;
        }
    }
    for what in [
        "learn_peer before fire",
        "learn_peer after fire",
        "refired round",
        "self id fresh in a counted payload",
        "check before fire",
        "check after fire",
        "repeat echoer with a changed set",
        "fired step",
        "verdict",
        "verdict at the gate",
        "spilled known set",
        "echoer known only later",
    ] {
        assert!(
            total.get(what).is_some_and(|&n| n > 0),
            "no case reached: {what} ({total:?})"
        );
    }
}
