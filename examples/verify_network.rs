//! "Can my network run Stellar with minimal knowledge?" — the operator-
//! facing API: feed a knowledge connectivity graph and a fault threshold,
//! get a structured verdict with the failing faulty set and clause when the
//! answer is no. Each verdict below is asserted.
//!
//! Run: `cargo run --release --example verify_network`

use rand::{rngs::StdRng, SeedableRng};
use scup_graph::generators::{self, KosrConfig};
use scup_graph::kosr::PremiseFailure;
use scup_graph::{KnowledgeGraph, ProcessSet};
use stellar_cup::report::{verify_network, NetworkReport};

fn show(title: &str, kg: &KnowledgeGraph, f: usize) -> NetworkReport {
    println!("--- {title}, f = {f} ---");
    let report = verify_network(kg, f);
    print!("{report}");
    println!();
    report
}

fn random(config: KosrConfig, seed: u64) -> KnowledgeGraph {
    generators::random_kosr(&config, &mut StdRng::seed_from_u64(seed))
}

fn main() {
    let fig2 = show("Fig. 2 (the paper's 3-OSR example)", &generators::fig2(), 1);
    assert!(fig2.solvable());

    let fig1 = show("Fig. 1 (illustration only: 1-OSR)", &generators::fig1(), 1);
    // Paper process 2 knows only process 4: one path where f + 1 = 2 are
    // needed, with no process faulty yet.
    assert_eq!(
        fig1.premise,
        Err((ProcessSet::new(), PremiseFailure::TooFewPaths { k: 2 }))
    );

    assert!(show("Fig. 1", &generators::fig1(), 0).solvable());

    let k3 = show(
        "Undersized sink (K3 core)",
        &generators::fig2_family(3, 4),
        1,
    );
    let margin = PremiseFailure::SinkMargin {
        correct: 2,
        needed: 3,
    };
    assert_eq!(k3.premise, Err((ProcessSet::from_ids([0]), margin)));

    // Definition 7 at f = 2 wants G \ F to stay 3-OSR for every |F| <= 2; a
    // 3-OSR graph gives that only while nobody fails, and losing p0 leaves
    // a sink that is not 3-strongly connected.
    let thin = random(KosrConfig::new(12, 28, 3).with_extra_edges(0.05), 11);
    let thin = show("Random 40-process 3-OSR network", &thin, 2);
    assert_eq!(
        thin.premise,
        Err((ProcessSet::from_ids([0]), PremiseFailure::WeakSink { k: 3 }))
    );

    // 5-OSR (= 2f + 1) keeps G \ F 3-OSR for every |F| <= 2: 821 fault sets.
    let safe = show(
        "Random 40-process 5-OSR network",
        &random(KosrConfig::new(12, 28, 5), 11),
        2,
    );
    assert!(safe.solvable());
}
