//! Process-level tests of the `scenario` binary: exit codes, error
//! rendering, and cross-process determinism of generated scenarios.
//!
//! These run the real executable (via `CARGO_BIN_EXE_scenario`), so they
//! cover what CI scripts and users actually observe — `scenario check`
//! failing with `file:line:col`, `scenario list` output staying stable,
//! and a `[generate]` scenario producing byte-identical reports in two
//! separate invocations at different worker counts.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scenario_bin() -> &'static str {
    env!("CARGO_BIN_EXE_scenario")
}

fn repo_root() -> PathBuf {
    // crates/bench → crates → repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate sits two levels under the repo root")
        .to_path_buf()
}

fn run(args: &[&str]) -> Output {
    Command::new(scenario_bin())
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("scenario binary runs")
}

#[test]
fn check_accepts_every_example_file() {
    let dir = repo_root().join("examples/scenarios");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("examples dir exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let out = run(&["check", path.to_str().expect("utf-8 path")]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{}: check failed\nstdout: {stdout}\nstderr: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.starts_with("ok: "), "{}: {stdout}", path.display());
        checked += 1;
    }
    assert!(
        checked >= 6,
        "all example files were checked, got {checked}"
    );
}

#[test]
fn check_rejects_each_bad_corpus_file_naming_line_and_column() {
    let dir = repo_root().join("tests/scenario_files/bad");
    let mut rejected = 0;
    for entry in std::fs::read_dir(&dir).expect("bad corpus dir exists") {
        let path = entry.expect("readable entry").path();
        let arg = path.to_str().expect("utf-8 path");
        let out = run(&["check", arg]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{}: check must fail\nstdout: {}",
            path.display(),
            String::from_utf8_lossy(&out.stdout)
        );
        // Every corpus error is positioned: `error: <path>:<line>:<col>: …`.
        let prefix = format!("error: {arg}:");
        let rest = stderr
            .strip_prefix(&prefix)
            .unwrap_or_else(|| panic!("{}: stderr '{stderr}' lacks '{prefix}'", path.display()));
        let mut parts = rest.splitn(3, ':');
        let line: u32 = parts
            .next()
            .unwrap_or("")
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{}: no line number in '{stderr}'", path.display()));
        let col: u32 = parts
            .next()
            .unwrap_or("")
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{}: no column number in '{stderr}'", path.display()));
        assert!(line >= 1 && col >= 1, "{}: {stderr}", path.display());
        rejected += 1;
    }
    assert_eq!(rejected, 13, "the whole corpus was exercised");
}

#[test]
fn list_output_is_stable() {
    let out = run(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    let names: Vec<&str> = text
        .lines()
        .map(|l| l.split_whitespace().next().expect("name column"))
        .collect();
    assert_eq!(
        names,
        [
            "noisy-neighbor",
            "incast",
            "mixed-rate",
            "trace-replay",
            "llc-duel",
            "cat-duel",
            "upf-chain",
            "recycle-duel",
            "flow-churn"
        ],
        "built-in listing changed — update docs and this test together"
    );
    // The legacy spelling prints the identical listing.
    let legacy = run(&["--list"]);
    assert!(legacy.status.success());
    assert_eq!(legacy.stdout, text.as_bytes());
}

#[test]
fn unknown_scenario_fails_and_names_the_builtins() {
    let out = run(&["run", "no-such-scenario"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scenario"), "{stderr}");
    assert!(stderr.contains("noisy-neighbor"), "{stderr}");
    assert!(stderr.contains(".toml"), "{stderr}");
}

/// ScenarioGen's end-to-end determinism guarantee across *processes*: two
/// separate invocations of the binary on a `[generate]` scenario file,
/// at different worker counts, print byte-identical reports.
#[test]
fn generated_scenario_reports_are_identical_across_processes() {
    let dir = std::env::temp_dir().join(format!("idio-scenario-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("gen-proc.toml");
    std::fs::write(
        &file,
        "name = \"gen-proc\"\n\
         description = \"cross-process determinism probe\"\n\
         duration_us = 60\n\
         drain_grace_us = 40\n\n\
         [generate]\n\
         tenants = 6\n\
         seed = 11\n\
         flows_per_tenant = 2\n\
         total_rate_gbps = 9.0\n\
         attacker_frac = 0.2\n",
    )
    .expect("write scenario file");
    let arg = file.to_str().expect("utf-8 path");

    let a = run(&["run", arg, "--jobs", "1"]);
    let b = run(&["run", arg, "--jobs", "4"]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    assert!(!a.stdout.is_empty());
    assert_eq!(
        a.stdout, b.stdout,
        "reports diverged across processes/worker counts"
    );
}
