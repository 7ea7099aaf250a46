//! Invariant oracles: agreement, validity, termination — judged against
//! the `stellar-cup` / `scup-graph` predicates rather than re-derived.
//!
//! The oracles separate the three classical consensus properties so a
//! report can say *which* one broke:
//!
//! - **termination** — every correct process decided within the horizon;
//! - **agreement** — no two correct processes decided differently (checked
//!   even on partial termination);
//! - **validity** — the decided value was proposed by a correct process.
//!   Only judged when the adversary cannot inject values
//!   ([`AdversaryKind::preserves_validity`]); otherwise recorded as
//!   not-applicable.
//!
//! The **premise** is the paper's structural precondition (Theorem 1 /
//! Theorem 5): the knowledge graph is Byzantine-safe for the actual faulty
//! set and the sink keeps at least `2f + 1` correct members. Its one judge
//! is [`kosr::satisfies_theorem1`], which `verify_network` and the explorer
//! call too. Under [`OracleMode::Conditional`] a violation only fails the
//! run when the premise held — exactly the implication the theorems state.

use scup_graph::{kosr, KnowledgeGraph, ProcessId, ProcessSet};
use scup_scp::Value;

use crate::adversary::AdversaryKind;
use crate::scenario::{Named, OracleMode, ValidityMode};

/// The oracle verdict for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantReport {
    /// Every correct process decided.
    pub termination: bool,
    /// Whether termination is *demanded*: `false` when the scenario's
    /// fault plan never heals (an unbounded loss window, a partition with
    /// no end, a crash without recovery). Safety oracles apply either
    /// way — graceful degradation means a faulted system may stall but
    /// must never contradict itself.
    pub termination_required: bool,
    /// All correct decisions are equal.
    pub agreement: bool,
    /// Decided value was proposed by a correct process; `None` when the
    /// adversary may inject values (not judged).
    pub validity: Option<bool>,
    /// No recovered process contradicted the pledges it journaled before
    /// crashing (vacuously `true` without crash faults).
    pub pledges_ok: bool,
    /// The structural premise of the paper's positive theorems held for
    /// this graph and faulty set.
    pub premise: bool,
    /// Human-readable descriptions of each violation.
    pub violations: Vec<String>,
}

/// The unjudged verdict: nothing held yet, nothing was waived, and no
/// durability finding was made.
impl Default for InvariantReport {
    fn default() -> Self {
        InvariantReport {
            termination: false,
            termination_required: true,
            agreement: false,
            validity: None,
            pledges_ok: true,
            premise: false,
            violations: Vec::new(),
        }
    }
}

impl InvariantReport {
    /// `true` when all applicable oracles hold: safety (agreement,
    /// validity, pledge durability) unconditionally, termination only
    /// when the fault plan heals.
    pub fn holds(&self) -> bool {
        (self.termination || !self.termination_required)
            && self.agreement
            && self.validity.unwrap_or(true)
            && self.pledges_ok
    }

    /// Whether this run passes under the given oracle mode ([`passes`]).
    pub fn passes(&self, mode: OracleMode) -> bool {
        passes(mode, self.premise, self.holds())
    }
}

/// Evaluates the oracles for one fault-free run (termination required,
/// no durability findings to judge).
///
/// `decisions[i]` is process `i`'s decided value (`None` when undecided or
/// faulty); `inputs[i]` its proposal.
pub fn evaluate(
    kg: &KnowledgeGraph,
    f: usize,
    faulty: &ProcessSet,
    inputs: &[Value],
    decisions: &[Option<Value>],
    adversary: AdversaryKind,
) -> InvariantReport {
    evaluate_churned(
        kg,
        f,
        faulty,
        &ProcessSet::new(),
        inputs,
        decisions,
        adversary,
        true,
        &[],
        ValidityMode::Strong,
    )
}

/// The full oracle: [`evaluate`] extended with the graceful-degradation
/// contract of fault plans, membership churn and validity variants.
///
/// `termination_required` is `false` when the fault plan never heals (the
/// run may stall without failing); `pledge_violations` are the durability
/// oracle's findings — each one is a safety violation no mode short of
/// `observe` forgives. `departed` are the processes a [`ChurnSpec`](crate::scenario::ChurnSpec)
/// removed for good: they are not owed termination (they left), their
/// pre-departure decisions still count for agreement (safety survives the
/// exit), and the structural premise is judged as if they were faulty —
/// a sink member that left weakens the graph exactly like one that
/// failed. `validity` picks the variant of the validity oracle (see
/// [`ValidityMode`]); none of the variants is judged when the adversary
/// can inject values.
#[allow(clippy::too_many_arguments)] // mirrors the scenario's fields
pub fn evaluate_churned(
    kg: &KnowledgeGraph,
    f: usize,
    faulty: &ProcessSet,
    departed: &ProcessSet,
    inputs: &[Value],
    decisions: &[Option<Value>],
    adversary: AdversaryKind,
    termination_required: bool,
    pledge_violations: &[String],
    validity_mode: ValidityMode,
) -> InvariantReport {
    let mut violations = Vec::new();
    let correct = kg.graph().vertex_set().difference(faulty);

    // Termination — owed by correct processes that stayed. A departed
    // process left the system; demanding its decision would make every
    // leave-before-decide plan a liveness violation.
    let undecided = || {
        correct
            .iter()
            .filter(|i| !departed.contains(*i) && decisions[i.index()].is_none())
    };
    let termination = undecided().next().is_none();
    if !termination && termination_required {
        let undecided: Vec<String> = undecided().map(|i| i.as_u32().to_string()).collect();
        violations.push(format!(
            "termination: {} of {} correct processes undecided ({})",
            undecided.len(),
            correct.len(),
            undecided.join(",")
        ));
    }

    // Agreement over the decisions that exist — departed included: a
    // decision taken before leaving must not contradict the stayers'.
    let safety = safety(decisions, &correct, inputs, adversary, validity_mode);
    if let (false, Some(lo), Some(hi)) = (safety.agreement(), safety.lowest, safety.highest) {
        violations.push(format!(
            "agreement: {} decided {} but {} decided {}",
            lo.0, lo.1, hi.0, hi.1
        ));
    }
    if safety.validity == Some(false) {
        violations.push(format!(
            "validity ({}): a decided value fails the variant's legitimacy rule",
            validity_mode.name()
        ));
    }

    // Durability: a recovered process must honor its pre-crash pledges.
    let pledges_ok = pledge_violations.is_empty();
    for v in pledge_violations {
        violations.push(format!("durability: {v}"));
    }

    InvariantReport {
        termination,
        termination_required,
        agreement: safety.agreement(),
        validity: safety.validity,
        pledges_ok,
        premise: kosr::satisfies_theorem1(kg.graph(), f, &faulty.union(departed)).is_ok(),
        violations,
    }
}

/// What the safety rule found in one decision vector ([`safety`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Safety {
    /// How many correct processes decided.
    pub decided: usize,
    /// The lowest decided value and the first process that decided it.
    pub lowest: Option<(ProcessId, Value)>,
    /// The highest decided value and the last process that decided it.
    pub highest: Option<(ProcessId, Value)>,
    /// Every decided value passes the validity variant's legitimacy rule;
    /// `None` when the adversary may inject values (not judged).
    pub validity: Option<bool>,
}

impl Safety {
    /// No two correct processes decided differently.
    pub fn agreement(&self) -> bool {
        self.lowest.map(|(_, v)| v) == self.highest.map(|(_, v)| v)
    }

    /// Agreement, and validity wherever it is judged.
    pub fn holds(&self) -> bool {
        self.agreement() && self.validity != Some(false)
    }
}

/// The safety rule on the `correct` processes' decisions, for the sampler's
/// oracle and the explorer's per-state verdict alike; allocation-free.
/// Validity is judged only when the adversary cannot inject values. Under
/// [`ValidityMode::Strong`] a decided value must be a correct process's
/// proposal — or, under the crash adversary, any process's: a fail-stop
/// process proposes honestly before crashing; a silent one never does.
pub fn safety(
    decisions: &[Option<Value>],
    correct: &ProcessSet,
    inputs: &[Value],
    adversary: AdversaryKind,
    mode: ValidityMode,
) -> Safety {
    let decided = || {
        correct
            .iter()
            .filter_map(|i| decisions[i.index()].map(|v| (i, v)))
    };
    let mut safety = Safety::default();
    for (i, v) in decided() {
        safety.decided += 1;
        if safety.lowest.is_none_or(|(_, lo)| v < lo) {
            safety.lowest = Some((i, v));
        }
        if safety.highest.is_none_or(|(_, hi)| v >= hi) {
            safety.highest = Some((i, v));
        }
    }
    if !adversary.preserves_validity() {
        return safety;
    }
    let crash = matches!(adversary, AdversaryKind::Crash { .. });
    // Weak validity binds only when the correct proposals are unanimous.
    let mut proposals = correct.iter().map(|i| inputs[i.index()]);
    let unanimous = match proposals.next() {
        Some(first) if mode == ValidityMode::Weak && proposals.all(|v| v == first) => Some(first),
        _ => None,
    };
    let legitimate = |v: Value| match mode {
        ValidityMode::Strong => inputs
            .iter()
            .enumerate()
            .any(|(j, &input)| input == v && (crash || correct.contains(ProcessId::new(j as u32)))),
        ValidityMode::Weak => unanimous.is_none_or(|u| v == u),
        // The legitimacy predicate: the value was somebody's proposal,
        // faulty proposers included.
        ValidityMode::External => inputs.contains(&v),
    };
    // Under agreement every decided value is the lowest one.
    safety.validity = Some(if safety.agreement() {
        safety.lowest.is_none_or(|(_, v)| legitimate(v))
    } else {
        decided().all(|(_, v)| legitimate(v))
    });
    safety
}

/// The [`OracleMode`] pass rule for a sampled run and an explored state
/// space alike: whether a verdict whose oracles `hold` passes, given
/// whether the premise ([`kosr::satisfies_theorem1`]) held.
pub fn passes(mode: OracleMode, premise: bool, holds: bool) -> bool {
    match mode {
        OracleMode::Require => holds,
        OracleMode::Conditional => !premise || holds,
        OracleMode::Observe => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scup_graph::generators;

    /// The oracle under a fault plan on Fig. 2: nobody faulty or
    /// departed, the silent adversary, strong validity.
    fn degraded(
        decisions: &[Option<Value>],
        termination_required: bool,
        pledge_violations: &[String],
    ) -> InvariantReport {
        evaluate_churned(
            &generators::fig2(),
            1,
            &ProcessSet::new(),
            &ProcessSet::new(),
            &fig2_inputs(),
            decisions,
            AdversaryKind::Silent,
            termination_required,
            pledge_violations,
            ValidityMode::Strong,
        )
    }

    fn fig2_inputs() -> Vec<Value> {
        stellar_cup::consensus::default_inputs(7)
    }

    #[test]
    fn clean_run_passes_everything() {
        let kg = generators::fig2();
        let faulty = ProcessSet::from_ids([5]);
        let decisions: Vec<Option<Value>> = (0..7)
            .map(|i| if i == 5 { None } else { Some(100) })
            .collect();
        let r = evaluate(
            &kg,
            1,
            &faulty,
            &fig2_inputs(),
            &decisions,
            AdversaryKind::Silent,
        );
        assert!(r.termination && r.agreement);
        assert_eq!(r.validity, Some(true));
        assert!(r.premise);
        assert!(r.holds() && r.violations.is_empty());
        assert!(r.passes(OracleMode::Require));
    }

    #[test]
    fn disagreement_is_caught_and_described() {
        let kg = generators::fig2();
        let decisions: Vec<Option<Value>> = vec![
            Some(1),
            Some(1),
            Some(1),
            Some(1),
            Some(2),
            Some(2),
            Some(2),
        ];
        let r = evaluate(
            &kg,
            1,
            &ProcessSet::new(),
            &fig2_inputs(),
            &decisions,
            AdversaryKind::Silent,
        );
        assert!(!r.agreement);
        assert!(r.violations.iter().any(|v| v.starts_with("agreement:")));
        assert!(!r.passes(OracleMode::Require));
        assert!(r.passes(OracleMode::Observe));
    }

    #[test]
    fn missing_decision_breaks_termination_only() {
        let kg = generators::fig2();
        let mut decisions = vec![Some(100); 7];
        decisions[2] = None;
        let r = evaluate(
            &kg,
            1,
            &ProcessSet::new(),
            &fig2_inputs(),
            &decisions,
            AdversaryKind::Silent,
        );
        assert!(!r.termination);
        assert!(r.agreement);
    }

    #[test]
    fn validity_not_judged_for_injecting_adversaries() {
        let kg = generators::fig2();
        // Everyone decided a value nobody correct proposed.
        let decisions = vec![Some(u64::MAX); 7];
        let r = evaluate(
            &kg,
            1,
            &ProcessSet::new(),
            &fig2_inputs(),
            &decisions,
            AdversaryKind::Equivocate,
        );
        assert_eq!(r.validity, None);
        assert!(r.holds(), "agreement+termination hold; validity N/A");
        let r2 = evaluate(
            &kg,
            1,
            &ProcessSet::new(),
            &fig2_inputs(),
            &decisions,
            AdversaryKind::Silent,
        );
        assert_eq!(r2.validity, Some(false));
        assert!(!r2.holds());
    }

    #[test]
    fn premise_fails_on_partitioned_graphs() {
        // Two disjoint sinks: no unique sink, premise must be false, and
        // conditional mode must not fail the run.
        let g = scup_graph::DiGraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        let kg = KnowledgeGraph::from_graph(g);
        let r = evaluate(
            &kg,
            1,
            &ProcessSet::new(),
            &[1, 2, 3, 4],
            &[None, None, None, None],
            AdversaryKind::Silent,
        );
        assert!(!r.premise);
        assert!(!r.holds());
        assert!(r.passes(OracleMode::Conditional));
        assert!(!r.passes(OracleMode::Require));
    }

    #[test]
    fn unhealed_plan_forgives_stalls_but_not_splits() {
        // Two processes stalled under an unhealed fault plan: not a
        // violation — termination is not owed.
        let mut decisions = vec![Some(100); 7];
        decisions[2] = None;
        decisions[6] = None;
        let r = degraded(&decisions, false, &[]);
        assert!(!r.termination && !r.termination_required);
        assert!(r.holds(), "{:?}", r.violations);
        assert!(r.violations.is_empty());
        assert!(r.passes(OracleMode::Require));
        // But a split among the processes that DID decide stays a safety
        // violation whatever the plan.
        decisions[3] = Some(101);
        let split = degraded(&decisions, false, &[]);
        assert!(!split.agreement && !split.holds());
        assert!(!split.passes(OracleMode::Require));
    }

    #[test]
    fn pledge_violations_are_safety_not_liveness() {
        let decisions = vec![Some(100); 7];
        let findings = vec!["p2 re-voted prepare(1, 7) below its journaled lock".to_string()];
        let r = degraded(&decisions, true, &findings);
        assert!(!r.pledges_ok);
        assert!(r.termination && r.agreement, "only durability is at fault");
        assert!(!r.holds());
        // Safety: conditional mode must NOT forgive it (the premise
        // holds here), and even a premise failure would not — only
        // observe mode records without judging.
        assert!(!r.passes(OracleMode::Require));
        assert!(!r.passes(OracleMode::Conditional));
        assert!(r.passes(OracleMode::Observe));
        assert!(r.violations.iter().any(|v| v.starts_with("durability:")));
    }
}
