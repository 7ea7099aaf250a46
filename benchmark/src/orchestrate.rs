//! `scup-benchmark all`: every workload untraced, then traced, each in a
//! fresh child process of this binary so that `peak_rss_mb` is per
//! workload; then one `results.json` with the machine note.

use std::process::Command;

use scup_harness::json::{self, Json};
use scup_harness::scenario::NetworkSpec;

use crate::report::Outcome;
use crate::{detail_path, workload, write_file, Args};

/// The machine the numbers were taken on.
fn machine_note() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("threads_used", Json::Int(1)),
        ("cpu", Json::Str(cpu)),
        (
            "os",
            Json::Str(format!(
                "{} {}",
                std::env::consts::OS,
                std::env::consts::ARCH
            )),
        ),
        (
            // `run.sh` passes the compiler it built with.
            "rustc",
            Json::Str(std::env::var("SCUP_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        ),
    ])
}

/// Runs one child and reads its detail file back.
fn child(name: &str, traced: bool, args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // The child prints its own table; `status` waits until it has ended.
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start the `{name}` run: {e}"))?;
    if !status.success() {
        return Err(format!("the `{name}` run ended with {status}"));
    }
    let path = detail_path(&args.out, name, traced);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Outcome::from_json(&json::parse(&text)?)
}

/// Runs the selected workloads and writes `results.json`; `Ok(false)` when
/// any operation of any run failed.
pub fn all(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(one) => vec![workload::load(one)?.name],
        None => workload::NAMES.to_vec(),
    };
    let net = NetworkSpec::default();
    println!(
        "scup-benchmark: {} workload(s), seed {}, {} s per run{}; closed loop, one client, \
         one thread; injected network timing GST = {} ticks, delta = {} ticks, seeded \
         pre-GST delays (tick latencies reflect that, not a real network)",
        names.len(),
        args.seed,
        args.seconds,
        if args.smoke { " (smoke)" } else { "" },
        net.gst,
        net.delta,
    );

    let mut all_ok = true;
    let mut results = Vec::new();
    let mut summary = Vec::new();
    for name in names {
        let untraced = child(name, false, args)?;
        let traced = child(name, true, args)?;
        all_ok &= untraced.failed == 0 && traced.failed == 0;
        let overhead = traced
            .rows
            .iter()
            .find(|r| r.name == "obs.trace_overhead")
            .map_or(0.0, |r| r.value);
        summary.push(format!(
            "   {name:<14} failed_share {} untraced, {} traced; obs.trace_overhead {overhead:.3}",
            untraced.failed as f64 / untraced.attempted.max(1) as f64,
            traced.failed as f64 / traced.attempted.max(1) as f64,
        ));
        results.push(Json::obj([
            ("workload", Json::Str(name.to_string())),
            ("untraced", untraced.to_json()),
            ("traced", traced.to_json()),
        ]));
    }

    let doc = Json::obj([
        ("machine", machine_note()),
        ("seed", Json::Int(args.seed as i64)),
        ("run_seconds", Json::Float(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "network",
            Json::obj([
                ("gst_ticks", Json::Int(net.gst as i64)),
                ("delta_ticks", Json::Int(net.delta as i64)),
            ]),
        ),
        ("workloads", Json::Arr(results)),
    ]);
    let path = args.out.join("results.json");
    write_file(&path, &doc.pretty())?;
    println!("== summary");
    for line in summary {
        println!("{line}");
    }
    println!("   results in {}", path.display());
    Ok(all_ok)
}
