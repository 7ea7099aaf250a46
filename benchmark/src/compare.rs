//! `scup-benchmark compare A.json B.json`: two `results.json` files, one
//! row per (workload, end-to-end metric).

use std::path::Path;

use scup_harness::json::{self, Json};

use crate::report::{Outcome, Row};
use crate::spec::{self, Better};

struct Side {
    seed: u64,
    /// `(workload, untraced, traced)` in file order.
    workloads: Vec<(String, Outcome, Outcome)>,
}

fn load(path: &Path) -> Result<Side, String> {
    let at = |e: String| format!("{}: {e}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| at(e.to_string()))?;
    let doc = json::parse(&text).map_err(at)?;
    let seed = doc
        .get("seed")
        .and_then(Json::as_i64)
        .and_then(|s| u64::try_from(s).ok())
        .ok_or_else(|| at("no `seed`".into()))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| at("no `workloads`".into()))?
        .iter()
        .map(|w| {
            let part = |key: &str| {
                w.get(key)
                    .ok_or(format!("a workload lacks `{key}`"))
                    .and_then(Outcome::from_json)
            };
            let untraced = part("untraced")?;
            Ok((untraced.workload.clone(), untraced, part("traced")?))
        })
        .collect::<Result<_, String>>()
        .map_err(at)?;
    Ok(Side { seed, workloads })
}

/// `ok`, `worse` (B is worse than A by more than the bound) or
/// `unresolved` (not worse, but either side's spread is wider than the
/// bound, so "unchanged" cannot be claimed).
fn verdict(a: &Row, b: &Row, better: Better, bound: f64) -> &'static str {
    let worse = match better {
        Better::Lower => b.value > a.value * (1.0 + bound),
        Better::Higher => b.value < a.value * (1.0 - bound),
    };
    let spread = |r: &Row| {
        r.iqr
            .map_or(0.0, |iqr| iqr / r.value.abs().max(f64::MIN_POSITIVE))
    };
    if worse {
        "worse"
    } else if spread(a).max(spread(b)) > bound {
        "unresolved"
    } else {
        "ok"
    }
}

/// Prints the comparison; `Ok(false)` when any row is `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_seed = a.seed == b.seed;
    println!(
        "A = {} (seed {}), B = {} (seed {}); ratio = B / A",
        a_path.display(),
        a.seed,
        b_path.display(),
        b.seed
    );
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "ratio", "bound"
    );
    let mut none_worse = true;
    for (name, a_untraced, a_traced) in &a.workloads {
        let Some((_, b_untraced, b_traced)) = b.workloads.iter().find(|(n, _, _)| n == name) else {
            println!("{name:<14} only in A");
            continue;
        };
        for m in spec::end_to_end() {
            let find = |o: &Outcome| o.rows.iter().find(|r| r.name == m.name).cloned();
            let (Some(ra), Some(rb)) = (find(a_untraced), find(b_untraced)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let mut v = verdict(&ra, &rb, m.better, bound).to_string();
            none_worse &= v != "worse";
            // Simulated counts repeat exactly for the same code and seed,
            // so any difference is a change in behaviour.
            if same_seed && m.unit == "count" {
                v += if ra.value == rb.value {
                    ", identical"
                } else {
                    ", differs"
                };
            }
            println!(
                "{name:<14} {:<20} {:>16.4} {:>16.4} {:>8.4} {:>6}  {v}",
                m.name,
                ra.value,
                rb.value,
                rb.value / ra.value,
                bound
            );
        }
        if same_seed {
            let states = |o: &Outcome| -> Vec<(String, f64)> {
                o.rows
                    .iter()
                    .filter(|r| r.name.starts_with("mc.") && r.name.ends_with(".states"))
                    .map(|r| (r.name.clone(), r.value))
                    .collect()
            };
            if states(a_traced).iter().any(|(_, v)| *v > 0.0) {
                println!(
                    "{name:<14} mc.<scenario>.states {}",
                    if states(a_traced) == states(b_traced) {
                        "identical"
                    } else {
                        "differ"
                    }
                );
            }
        }
    }
    for (name, _, _) in &b.workloads {
        if !a.workloads.iter().any(|(n, _, _)| n == name) {
            println!("{name:<14} only in B");
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(value: f64, iqr: Option<f64>) -> Row {
        Row {
            name: "runs_per_s".into(),
            unit: "1/s".into(),
            value,
            iqr,
            samples: 5,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = row(100.0, Some(1.0));
        // Higher is better: 85 is 15 % worse, past a 10 % bound.
        assert_eq!(
            verdict(&base, &row(85.0, Some(1.0)), Better::Higher, 0.1),
            "worse"
        );
        assert_eq!(
            verdict(&base, &row(95.0, Some(1.0)), Better::Higher, 0.1),
            "ok"
        );
        assert_eq!(
            verdict(&base, &row(120.0, Some(1.0)), Better::Higher, 0.1),
            "ok"
        );
        // Lower is better: the same numbers flip.
        assert_eq!(
            verdict(&base, &row(115.0, Some(1.0)), Better::Lower, 0.1),
            "worse"
        );
        assert_eq!(
            verdict(&base, &row(85.0, Some(1.0)), Better::Lower, 0.1),
            "ok"
        );
        // A spread wider than the bound cannot certify "unchanged"…
        assert_eq!(
            verdict(&base, &row(99.0, Some(20.0)), Better::Higher, 0.1),
            "unresolved"
        );
        // …but does not excuse a regression.
        assert_eq!(
            verdict(&base, &row(50.0, Some(20.0)), Better::Higher, 0.1),
            "worse"
        );
        // Counts carry no spread.
        assert_eq!(
            verdict(&row(7.0, None), &row(7.0, None), Better::Lower, 0.02),
            "ok"
        );
    }
}
