//! The adversary strategy registry.
//!
//! The workspace grew one Byzantine behaviour per protocol crate
//! ([`scup_sim::adversary::SilentActor`],
//! [`scup_scp::node::EquivocatingScpNode`],
//! [`scup_cup::bftcup::EquivocatingLeader`], …). This module unifies them
//! behind one protocol-agnostic [`AdversaryKind`] plus a name registry, so
//! scenario files can say `adversary = "equivocate"` and the roster
//! ([`stellar_cup::roster`]) maps the kind to each protocol's own actor.

use std::collections::BTreeMap;

/// A protocol-agnostic Byzantine behaviour — the roster's enum, so the
/// kind a scenario file names is the kind every host seats.
pub use stellar_cup::roster::AdversaryKind;

/// A named, documented adversary strategy.
#[derive(Debug, Clone)]
pub struct AdversaryStrategy {
    /// Registry name (what scenario files reference).
    pub name: String,
    /// One-line description for reports and `--list` output.
    pub description: String,
    /// The behaviour.
    pub kind: AdversaryKind,
}

/// Name → strategy lookup.
///
/// [`AdversaryRegistry::builtin`] registers the five stock strategies;
/// [`AdversaryRegistry::register`] accepts custom ones. [`resolve`] also
/// understands the parameterized form `crash:<n>`.
///
/// [`resolve`]: AdversaryRegistry::resolve
#[derive(Debug, Clone)]
pub struct AdversaryRegistry {
    strategies: BTreeMap<String, AdversaryStrategy>,
}

impl AdversaryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        AdversaryRegistry {
            strategies: BTreeMap::new(),
        }
    }

    /// The registry with the stock strategies.
    pub fn builtin() -> Self {
        let mut r = AdversaryRegistry::new();
        r.register(AdversaryStrategy {
            name: "silent".into(),
            description: "never sends anything (crash-like; the Lemma 2 behaviour)".into(),
            kind: AdversaryKind::Silent,
        });
        r.register(AdversaryStrategy {
            name: "crash".into(),
            description: "correct until fail-stop after N deliveries (default 5; `crash:N`)".into(),
            kind: AdversaryKind::Crash { after: 5 },
        });
        r.register(AdversaryStrategy {
            name: "echo".into(),
            description: "reflects every received message to every known process".into(),
            kind: AdversaryKind::Echo,
        });
        r.register(AdversaryStrategy {
            name: "equivocate".into(),
            description: "sends conflicting values to different processes and forges slices".into(),
            kind: AdversaryKind::Equivocate,
        });
        r.register(AdversaryStrategy {
            name: "forged-slice".into(),
            description: "votes consistently but attaches forged self-only quorum slices".into(),
            kind: AdversaryKind::ForgedSlice,
        });
        r
    }

    /// Adds (or replaces) a strategy.
    pub fn register(&mut self, strategy: AdversaryStrategy) {
        self.strategies.insert(strategy.name.clone(), strategy);
    }

    /// Looks a strategy up by exact name.
    pub fn get(&self, name: &str) -> Option<&AdversaryStrategy> {
        self.strategies.get(name)
    }

    /// Resolves a scenario-file adversary reference to a behaviour.
    ///
    /// Accepts exact registry names plus the parameterized spelling
    /// `crash:<n>` (fail-stop after `n` deliveries).
    ///
    /// # Errors
    ///
    /// Returns a message listing the known strategies when the name does
    /// not resolve.
    pub fn resolve(&self, reference: &str) -> Result<AdversaryKind, String> {
        if let Some(strategy) = self.strategies.get(reference) {
            return Ok(strategy.kind);
        }
        if let Some(n) = reference.strip_prefix("crash:") {
            let after: u64 = n
                .parse()
                .map_err(|_| format!("bad crash parameter in `{reference}`"))?;
            return Ok(AdversaryKind::Crash { after });
        }
        Err(format!(
            "unknown adversary `{reference}`; known: {}",
            self.names().join(", ")
        ))
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.strategies.keys().map(String::as_str).collect()
    }

    /// All registered strategies, sorted by name.
    pub fn strategies(&self) -> impl Iterator<Item = &AdversaryStrategy> {
        self.strategies.values()
    }
}

impl Default for AdversaryRegistry {
    fn default() -> Self {
        AdversaryRegistry::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_the_paper_behaviours() {
        let r = AdversaryRegistry::builtin();
        assert_eq!(
            r.names(),
            vec!["crash", "echo", "equivocate", "forged-slice", "silent"]
        );
        assert_eq!(r.resolve("silent").unwrap(), AdversaryKind::Silent);
        assert_eq!(
            r.resolve("crash:9").unwrap(),
            AdversaryKind::Crash { after: 9 }
        );
        assert!(r.resolve("crash:x").is_err());
        assert!(r.resolve("nope").unwrap_err().contains("known:"));
    }

    #[test]
    fn validity_soundness_classification() {
        assert!(AdversaryKind::Silent.preserves_validity());
        assert!(AdversaryKind::Crash { after: 1 }.preserves_validity());
        assert!(AdversaryKind::Echo.preserves_validity());
        assert!(!AdversaryKind::Equivocate.preserves_validity());
        assert!(!AdversaryKind::ForgedSlice.preserves_validity());
    }

    #[test]
    fn custom_registration() {
        let mut r = AdversaryRegistry::builtin();
        r.register(AdversaryStrategy {
            name: "my-silent".into(),
            description: "alias".into(),
            kind: AdversaryKind::Silent,
        });
        assert_eq!(r.resolve("my-silent").unwrap(), AdversaryKind::Silent);
        assert_eq!(r.strategies().count(), 6);
    }
}
