//! `scup-benchmark` — the repository's benchmark.
//!
//! ```text
//! scup-benchmark --workload NAME --seed S --seconds T --trace 0|1   one run (what the driver calls)
//! scup-benchmark all [--seed S] [--seconds T] [--smoke]             every workload, untraced then traced
//! scup-benchmark compare A.json B.json                              two results.json files, row by row
//! scup-benchmark check-pools                                       every frozen (scenario, seed) through its oracle
//! scup-benchmark --list                                             workloads and metrics
//! ```
//!
//! See `benchmark/README.md` for what each metric means.

mod compare;
mod explore;
mod orchestrate;
mod probes;
mod report;
mod sampled;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use scup_harness::{AdversaryRegistry, CampaignMode};

use report::{Outcome, Rows};

/// Operations attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `describe` is only called for a failure.
    pub fn note(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(describe());
            }
        }
    }
}

/// What one run of a workload works with and fills in.
pub struct Run {
    pub registry: AdversaryRegistry,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub rows: Rows,
    pub tally: Tally,
    /// Free-form facts about the run, for the reader.
    pub notes: Vec<String>,
}

/// Whether a measured part that has finished `done` equal units of work
/// since `started` should stop: at the unit boundary nearest to `seconds`.
pub fn time_is_up(started: Instant, done: u64, seconds: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    elapsed + elapsed / done as f64 / 2.0 >= seconds
}

/// How often set-up is repeated in one run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// One parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where detail, trace and result files go.
    pub out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: scup-benchmark --workload NAME --seed S --seconds T --trace 0|1 [--out DIR]\n\
         \x20      scup-benchmark all [--seed S] [--seconds T] [--smoke] [--workload NAME] [--out DIR]\n\
         \x20      scup-benchmark compare A.json B.json\n\
         \x20      scup-benchmark check-pools\n\
         \x20      scup-benchmark --list\n\
         workloads: {}",
        workload::NAMES.join(", ")
    )
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or(format!("flag `{flag}` needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "`--seed` takes a non-negative integer".to_string())?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("`--seconds` takes a positive number")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".into()),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(parsed)
}

/// Runs one workload once, untraced or traced, and returns what it saw.
fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let process_started = Instant::now();
    let mut run = Run {
        registry: AdversaryRegistry::builtin(),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        rows: Rows::new(if args.trace {
            spec::per_layer()
        } else {
            spec::end_to_end()
        }),
        tally: Tally::default(),
        notes: Vec::new(),
    };

    // Set-up, several times: parse the frozen file, build the adversary
    // registry, warm up over the scenario list. The first round also
    // carries process start.
    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut ready = None;
    for round in 0..repeats {
        let started = if round == 0 {
            process_started
        } else {
            Instant::now()
        };
        let w = workload::load(name)?;
        run.registry = AdversaryRegistry::builtin();
        match w.mode {
            CampaignMode::Sample => sampled::warm_up(&w, &mut run),
            CampaignMode::Explore => explore::warm_up(&w, &mut run),
        }
        setup_s.push(started.elapsed().as_secs_f64());
        ready = Some(w);
    }
    let w = ready.expect("set-up ran at least once");

    if args.trace {
        let mut tracer = trace::Tracer::new();
        let mut events = Vec::new();
        match w.mode {
            CampaignMode::Sample => sampled::traced(&w, &mut run, &mut tracer),
            CampaignMode::Explore => events = explore::traced(&w, &mut run),
        }
        probes::run(&mut run, &mut tracer)?;
        run.rows.fill_unexercised();

        // The explorer's worker timelines sit on one process track per
        // scenario; the layer spans follow on their own.
        let layer_pid = if events.is_empty() {
            1
        } else {
            w.entries.len() as u32 + 1
        };
        events.extend(tracer.chrome_events(&format!("{name} · layer spans"), layer_pid));
        let path = args.out.join(format!("{name}.trace.json"));
        write_file(&path, &scup_obs::chrome::write_trace_json(&events))?;
        run.notes.push(format!(
            "{} trace events in {} (open in https://ui.perfetto.dev)",
            events.len(),
            path.display()
        ));
    } else {
        match w.mode {
            CampaignMode::Sample => sampled::measure(&w, &mut run)?,
            CampaignMode::Explore => explore::measure(&w, &mut run)?,
        }
        run.rows.set_median("setup_s", &setup_s);
        run.rows.set("peak_rss_mb", stats::peak_rss_mb()?);
    }

    Ok(Outcome {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        failures: run.tally.failures,
        rows: run.rows.finish()?,
        notes: run.notes,
    })
}

/// Writes `text` to `path`, creating the directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The detail file of one `(workload, traced?)` run.
pub fn detail_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "{workload}.{}.json",
        if traced { "traced" } else { "untraced" }
    ))
}

/// Runs every `(scenario, seed)` of every sampled workload's frozen pool
/// and set-up range through `run_one`: the claim the workload files make
/// ("every seed of the pool passed when the file was frozen"), re-checked
/// against the code as it is now. Takes a few minutes.
fn check_pools() -> Result<bool, String> {
    let registry = AdversaryRegistry::builtin();
    let mut clean = true;
    for name in workload::NAMES {
        let w = workload::load(name)?;
        if w.mode != CampaignMode::Sample {
            continue;
        }
        for e in &w.entries {
            let base = e.scenario.seed_base;
            let mut tally = Tally::default();
            for seed in base..base + e.pool + e.warmup {
                tally.record(&scup_harness::campaign::run_one(
                    &e.scenario,
                    seed,
                    &registry,
                ));
            }
            println!(
                "{name:<14} {:<32} {} seeds, {} failed",
                e.scenario.name, tally.attempted, tally.failed
            );
            for f in &tally.failures {
                println!("   FAILED {f}");
            }
            clean &= tally.failed == 0;
        }
    }
    Ok(clean)
}

fn list() {
    println!("workloads:");
    for (name, why) in spec::WORKLOADS {
        println!("  {name:<14} {why}");
    }
    println!("end-to-end metrics (untraced run; bound = allowed worsening):");
    for m in spec::end_to_end() {
        println!(
            "  {:<44} {:<6} better {:<6} bound {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    println!("per-layer metrics (traced run):");
    for m in spec::per_layer() {
        println!("  {:<44} {:<6} better {}", m.name, m.unit, m.better.name());
    }
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        None | Some("-h" | "--help") => {
            println!("{}", usage());
            Ok(true)
        }
        Some("--list") => {
            list();
            Ok(true)
        }
        Some("compare") => match &argv[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err(usage()),
        },
        Some("all") => orchestrate::all(&parse_flags(&argv[1..])?),
        Some("check-pools") => check_pools(),
        Some(_) => {
            let args = parse_flags(argv)?;
            let name = args
                .workload
                .clone()
                .ok_or(format!("`--workload` is required\n{}", usage()))?;
            let outcome = run_workload(&name, &args)?;
            write_file(
                &detail_path(&args.out, &name, args.trace),
                &outcome.to_json().pretty(),
            )?;
            outcome.print_table();
            // The last line of standard output is the driver's.
            println!("{}", outcome.result_line());
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("scup-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a run prints, read back from its result line.
    fn printed(outcome: &Outcome) -> Vec<String> {
        let doc = scup_harness::json::parse(&outcome.result_line()).unwrap();
        let Some(scup_harness::json::Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("result line has no metrics object")
        };
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn smoke_runs_print_exactly_the_declared_metrics() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/self-test-out");
        for name in workload::NAMES {
            for trace in [false, true] {
                let args = Args {
                    workload: Some(name.to_string()),
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    out: out.clone(),
                };
                let outcome = run_workload(name, &args).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.failures);
                let declared = if trace {
                    spec::per_layer()
                } else {
                    spec::end_to_end()
                };
                let declared: Vec<String> = declared.into_iter().map(|m| m.name).collect();
                assert_eq!(printed(&outcome), declared, "{name} trace {trace}");
                if !trace {
                    for row in &outcome.rows {
                        assert!(row.value > 0.0, "{name}: {} must never read 0", row.name);
                    }
                }
            }
        }
    }
}
