//! The `scup-campaign` binary, driven as a user drives it: exit status,
//! what goes to stdout and what to stderr, the files it leaves behind,
//! and the errors it owes for arguments and keys it cannot honour.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use scup::harness::json::{self, Json};

/// Runs the binary from the repository root (campaign paths in the
/// arguments are relative to it).
fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scup-campaign"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("scup-campaign spawns")
}

/// A fresh, empty directory under cargo's per-target scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("directory exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

/// A one-scenario campaign on Fig. 1 whose scenario carries `extra`.
fn fig1_campaign(extra: &str) -> String {
    format!(
        "name = \"tiny\"\n\n[[scenario]]\nname = \"minimal-f0\"\ntopology = \"fig1\"\nf = 0\n\
         fault_placement = \"none\"\nprotocol = \"stellar-minimal\"\nseeds = 2\n{extra}\n"
    )
}

#[test]
fn report_on_stdout_is_one_json_document_and_the_summary_goes_to_stderr() {
    let dir = scratch("cli-stdout");
    let file = dir.join("tiny.toml");
    std::fs::write(&file, fig1_campaign("oracle = \"require\"")).unwrap();

    let out = campaign(&["--threads", "1", "--out", "-", file.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", text(&out.stderr));
    let report = json::parse(text(&out.stdout)).expect("stdout is the JSON report alone");
    assert_eq!(report.get("campaign").and_then(Json::as_str), Some("tiny"));
    assert_eq!(report.get("failed").and_then(Json::as_i64), Some(0));
    assert_eq!(
        report.get("runs").and_then(Json::as_arr).map(<[_]>::len),
        Some(2)
    );
    let summary = text(&out.stderr);
    assert!(
        summary.contains("campaign `tiny`: 2 runs on 1 threads") && summary.contains("2 passed"),
        "{summary}"
    );
    // `--out -` writes no report file anywhere.
    assert_eq!(entries(&dir), ["tiny.toml"]);
}

#[test]
fn failing_seeds_exit_nonzero_and_leave_one_artifact_pair_each() {
    let dir = scratch("cli-forensics");
    let artifacts = dir.join("artifacts");
    let report_path = dir.join("report.json");
    let out = campaign(&[
        "--threads",
        "1",
        "--out",
        report_path.to_str().unwrap(),
        "--forensics-out",
        artifacts.to_str().unwrap(),
        "campaigns/forensics.toml",
    ]);
    assert!(
        !out.status.success(),
        "the forensics campaign fails by design"
    );

    let report = json::parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    let failing: Vec<String> = report
        .get("runs")
        .and_then(Json::as_arr)
        .expect("runs")
        .iter()
        .filter(|run| run.get("passed").and_then(Json::as_bool) == Some(false))
        .map(|run| {
            format!(
                "{}-seed{}",
                run.get("scenario").and_then(Json::as_str).unwrap(),
                run.get("seed").and_then(Json::as_i64).unwrap()
            )
        })
        .collect();
    assert_eq!(failing.len(), 6, "2 split-quorum seeds + 4 amnesia seeds");
    let mut expected: Vec<String> = failing
        .iter()
        .flat_map(|stem| [format!("{stem}.dot"), format!("{stem}.forensics.json")])
        .collect();
    expected.sort();
    assert_eq!(entries(&artifacts), expected);
    for name in expected.iter().filter(|n| n.ends_with(".json")) {
        let analysis = std::fs::read_to_string(artifacts.join(name)).unwrap();
        json::parse(&analysis).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn one_output_path_takes_one_campaign_file() {
    let dir = scratch("cli-two-files");
    let report_path = dir.join("two.json");
    let trace_path = dir.join("trace.json");
    for (flag, path) in [("--out", &report_path), ("--trace-out", &trace_path)] {
        let out = campaign(&[
            flag,
            path.to_str().unwrap(),
            "campaigns/fig1.toml",
            "campaigns/forensics.toml",
        ]);
        assert!(
            !out.status.success(),
            "{flag} with two files must be refused"
        );
        let err = text(&out.stderr);
        assert!(
            err.contains(flag) && err.contains("usage: scup-campaign"),
            "{err}"
        );
        assert!(out.stdout.is_empty(), "refused before anything ran");
    }
    // `--out -` would concatenate two documents on stdout.
    let out = campaign(&["--out", "-", "campaigns/fig1.toml", "campaigns/fig2.toml"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert_eq!(entries(&dir), [""; 0], "nothing written");
}

#[test]
fn removed_plan_keys_are_errors_naming_the_key() {
    let dir = scratch("cli-removed-keys");
    for (section, body, key) in [
        ("faults", "loss = 0.3, retransmit = false", "retransmit"),
        ("churn", "leaves = [6], leave_stagger = 5", "leave_stagger"),
    ] {
        let file = dir.join(format!("{key}.toml"));
        let table = format!("{section} = {{ {body} }}");
        std::fs::write(&file, fig1_campaign(&table)).unwrap();
        let out = campaign(&["--out", "-", file.to_str().unwrap()]);
        assert!(!out.status.success(), "`{key}` must be rejected");
        let err = text(&out.stderr);
        assert!(
            err.contains(&format!("unknown `{section}` key `{key}`")),
            "{err}"
        );
        assert!(
            out.stdout.is_empty(),
            "no report for a file that does not load"
        );
    }
}

#[test]
fn an_unknown_mode_is_refused_naming_the_modes() {
    for args in [&["--mode", "wat", "campaigns/fig1.toml"][..], &["--mode"]] {
        let out = campaign(args);
        assert!(!out.status.success(), "{args:?} must be refused");
        assert_eq!(text(&out.stderr), "--mode needs `sample` or `explore`\n");
        assert!(out.stdout.is_empty(), "refused before anything ran");
    }
}
