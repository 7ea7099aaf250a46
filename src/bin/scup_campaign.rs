//! `scup-campaign` — run declarative scenario campaigns and emit JSON
//! reports.
//!
//! ```text
//! scup-campaign [OPTIONS] <CAMPAIGN.toml|.json>...
//!
//! OPTIONS:
//!   --threads N         override worker threads (0 = one per CPU)
//!   --mode MODE         override the campaign mode (sample | explore)
//!   --out PATH          write the JSON report here (`-` = stdout);
//!                       default: target/campaign-reports/<name>.json.
//!                       One campaign file only, like --trace-out
//!   --obs               collect observability detail: sample mode gets a
//!                       live progress ticker on stderr; explore mode adds
//!                       per-phase timing, visited-set occupancy and
//!                       re-expansion counts to each record's `obs` block
//!   --trace-out PATH    write a Chrome-trace-event JSON file (load in
//!                       Perfetto / chrome://tracing): explore mode emits
//!                       worker search timelines with per-phase spans; sample
//!                       mode re-runs each scenario's first seed with the
//!                       event log on and exports it as the message
//!                       schedule (one track per process, sim ticks as µs,
//!                       one arrow per send to the delivery it caused)
//!   --trace-seed N      with --trace-out in sample mode, export seed N
//!                       instead of each scenario's first seed — the way
//!                       to look at the exact schedule a failing seed ran
//!   --forensics-out DIR write causal-forensics artifacts for every
//!                       oracle failure: sample mode re-runs each failing
//!                       seed with the same event log and decision
//!                       provenance armed; explore mode arms them on the
//!                       counterexample replay. Each violation yields a
//!                       `<scenario>-seed<N>.forensics.json` analysis and
//!                       a `.dot` causal-cone graph in DIR, and the same
//!                       JSON block is embedded in the campaign report
//!   --list-adversaries  print the adversary registry and exit
//!   -h, --help          this text
//! ```
//!
//! Campaign files declare their own mode: `mode = "sample"` (default)
//! fans seeded runs out through the timed simulator; `mode = "explore"`
//! hands the scenarios to the `scup-mc` bounded model checker, which
//! exhaustively enumerates delivery orders and adversary choice points up
//! to each scenario's bounds.
//!
//! Exit status is non-zero when any run fails its oracle mode or cannot
//! be configured.
//!
//! Run: `cargo run --bin scup-campaign -- campaigns/fig1.toml`

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use scup_harness::campaign::{CampaignMode, CampaignReport};
use scup_harness::forensics::{self, ForensicReport};
use scup_harness::{campaign_from_str, perfetto, AdversaryRegistry, Named};
use scup_mc::ObsConfig;
use scup_obs::chrome::{write_trace_json, ChromeEvent};

struct Options {
    threads: Option<usize>,
    mode: Option<CampaignMode>,
    out: Option<String>,
    obs: bool,
    trace_out: Option<PathBuf>,
    trace_seed: Option<u64>,
    forensics_out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: scup-campaign [--threads N] [--mode {}] [--out PATH|-] \
         [--obs] [--trace-out PATH] [--trace-seed N] [--forensics-out DIR] \
         [--list-adversaries] <campaign.toml>...",
        CampaignMode::names("|")
    )
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        threads: None,
        mode: None,
        out: None,
        obs: false,
        trace_out: None,
        trace_seed: None,
        forensics_out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{}", usage());
                return Ok(None);
            }
            "--list-adversaries" => {
                for strategy in AdversaryRegistry::builtin().strategies() {
                    println!("{:<14} {}", strategy.name, strategy.description);
                }
                return Ok(None);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                options.threads = Some(v.parse().map_err(|_| "--threads needs an integer")?);
            }
            "--mode" => {
                let mode = it.next().and_then(|name| CampaignMode::from_name(name));
                let refusal = || format!("--mode needs `{}`", CampaignMode::names("` or `"));
                options.mode = Some(mode.ok_or_else(refusal)?);
            }
            "--out" => {
                options.out = Some(it.next().ok_or("--out needs a path")?.clone());
            }
            "--obs" => options.obs = true,
            "--trace-out" => {
                options.trace_out =
                    Some(PathBuf::from(it.next().ok_or("--trace-out needs a path")?));
            }
            "--trace-seed" => {
                let v = it.next().ok_or("--trace-seed needs a value")?;
                options.trace_seed = Some(v.parse().map_err(|_| "--trace-seed needs an integer")?);
            }
            "--forensics-out" => {
                options.forensics_out = Some(PathBuf::from(
                    it.next().ok_or("--forensics-out needs a directory")?,
                ));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n{}", usage()));
            }
            file => options.files.push(PathBuf::from(file)),
        }
    }
    if options.files.is_empty() {
        return Err(usage());
    }
    // One path holds one document: a second campaign would overwrite the
    // first one's report (or, with `--out -`, append a second JSON value).
    for (flag, set) in [
        ("--out", options.out.is_some()),
        ("--trace-out", options.trace_out.is_some()),
    ] {
        if set && options.files.len() > 1 {
            return Err(format!(
                "{flag} takes one campaign file, got {}; run them separately\n{}",
                options.files.len(),
                usage()
            ));
        }
    }
    Ok(Some(options))
}

fn summary(report: &CampaignReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign `{}`: {} runs on {} threads in {:.2}s — {} passed, {} failed",
        report.name,
        report.runs.len(),
        report.threads,
        report.wall_micros as f64 / 1e6,
        report.passed(),
        report.failed(),
    );

    // Per-scenario rollup, in declaration order.
    let mut order: Vec<&str> = Vec::new();
    for run in &report.runs {
        if !order.contains(&run.scenario.as_str()) {
            order.push(&run.scenario);
        }
    }
    let _ = writeln!(
        out,
        "  {:<28} {:>5} {:>5} {:>6} {:>12} {:>10}",
        "scenario", "runs", "pass", "fail", "msgs/run", "ticks/run"
    );
    for name in order {
        let runs: Vec<_> = report.runs.iter().filter(|r| r.scenario == name).collect();
        let pass = runs.iter().filter(|r| r.passed).count();
        let msgs: u64 = runs.iter().map(|r| r.messages_sent).sum();
        let ticks: u64 = runs.iter().map(|r| r.end_ticks).sum();
        let count = runs.len() as u64;
        let _ = writeln!(
            out,
            "  {:<28} {:>5} {:>5} {:>6} {:>12} {:>10}",
            name,
            count,
            pass,
            runs.len() - pass,
            msgs / count.max(1),
            ticks / count.max(1),
        );
    }

    for run in report.runs.iter().filter(|r| !r.passed) {
        match &run.error {
            Some(e) => {
                let _ = writeln!(out, "  FAIL {}/seed {}: {e}", run.scenario, run.seed);
            }
            None => {
                let _ = writeln!(
                    out,
                    "  FAIL {}/seed {}: {}",
                    run.scenario,
                    run.seed,
                    run.invariants.violations.join("; ")
                );
            }
        }
    }
    out
}

fn default_out_path(campaign_name: &str) -> PathBuf {
    Path::new("target")
        .join("campaign-reports")
        .join(format!("{campaign_name}.json"))
}

fn emit(options: &Options, human: &str, name: &str, json: String) -> Result<(), String> {
    // With `--out -` the JSON owns stdout; the human summary moves to
    // stderr so the report stays machine-parseable.
    if options.out.as_deref() == Some("-") {
        eprint!("{human}");
    } else {
        print!("{human}");
    }
    match options.out.as_deref() {
        Some("-") => print!("{json}"),
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            println!("  report: {path}");
        }
        None => {
            let out = default_out_path(name);
            if let Some(dir) = out.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(&out, json).map_err(|e| format!("{}: {e}", out.display()))?;
            println!("  report: {}", out.display());
        }
    }
    Ok(())
}

fn run_file(path: &Path, options: &Options) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut campaign = campaign_from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(threads) = options.threads {
        campaign.threads = threads;
    }
    if let Some(mode) = options.mode {
        campaign.mode = mode;
    }

    match campaign.mode {
        CampaignMode::Sample => {
            let mut report = campaign.run_observed(options.obs);
            if let Some(dir) = &options.forensics_out {
                // Failures get re-run with forensics armed *before* the
                // report is emitted, so the JSON embeds the analyses.
                forensics::attach_failures(&campaign, &mut report);
                let analyses: Vec<&ForensicReport> = report
                    .runs
                    .iter()
                    .filter_map(|r| r.forensics.as_ref())
                    .collect();
                write_forensics(options, dir, &analyses)?;
            }
            emit(
                options,
                &summary(&report),
                &report.name,
                report.to_json().pretty(),
            )?;
            if let Some(path) = &options.trace_out {
                // The sampled runs themselves keep the event log off
                // (payload rendering would tax every run); one logged
                // re-run per scenario gives Perfetto the representative
                // schedule.
                write_trace(
                    options,
                    path,
                    &perfetto::trace_seeds(&campaign, options.trace_seed),
                )?;
            }
            Ok(report.all_passed())
        }
        CampaignMode::Explore => {
            let obs = ObsConfig {
                profile: options.obs || options.trace_out.is_some(),
                trace: options.trace_out.is_some(),
                forensics: options.forensics_out.is_some(),
            };
            let (report, events) = scup_mc::run_explore_campaign_obs(&campaign, obs);
            if let Some(dir) = &options.forensics_out {
                let analyses: Vec<&ForensicReport> = report
                    .records
                    .iter()
                    .filter_map(|r| r.violation.as_ref())
                    .filter_map(|v| v.forensics.as_ref())
                    .collect();
                write_forensics(options, dir, &analyses)?;
            }
            emit(
                options,
                &scup_mc::summary(&report),
                &report.name,
                report.to_json().pretty(),
            )?;
            if let Some(path) = &options.trace_out {
                write_trace(options, path, &events)?;
            }
            Ok(report.all_passed())
        }
    }
}

/// Writes one `.forensics.json` analysis and one `.dot` causal-cone
/// graph per violation into `dir`.
fn write_forensics(
    options: &Options,
    dir: &Path,
    analyses: &[&ForensicReport],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for analysis in analyses {
        let stem = analysis.artifact_stem();
        let json_path = dir.join(format!("{stem}.forensics.json"));
        std::fs::write(&json_path, analysis.to_json().pretty())
            .map_err(|e| format!("{}: {e}", json_path.display()))?;
        let dot_path = dir.join(format!("{stem}.dot"));
        std::fs::write(&dot_path, &analysis.dot)
            .map_err(|e| format!("{}: {e}", dot_path.display()))?;
    }
    let note = format!(
        "  forensics: {} ({} violations analyzed)",
        dir.display(),
        analyses.len()
    );
    // With `--out -` the report JSON owns stdout (see `emit`).
    if options.out.as_deref() == Some("-") {
        eprintln!("{note}");
    } else {
        println!("{note}");
    }
    Ok(())
}

fn write_trace(options: &Options, path: &Path, events: &[ChromeEvent]) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, write_trace_json(events))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let note = format!("  trace: {} ({} events)", path.display(), events.len());
    // With `--out -` the report JSON owns stdout (see `emit`).
    if options.out.as_deref() == Some("-") {
        eprintln!("{note}");
    } else {
        println!("{note}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let mut all_passed = true;
    for file in &options.files {
        match run_file(file, &options) {
            Ok(passed) => all_passed &= passed,
            Err(e) => {
                eprintln!("error: {e}");
                all_passed = false;
            }
        }
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
