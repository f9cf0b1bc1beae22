//! Process-level tests of the `simulate` binary: an invalid configuration
//! is an `error:` line and a non-zero exit, never a panic.
//!
//! These run the real executable (via `CARGO_BIN_EXE_simulate`), so they
//! cover what users actually observe.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate binary runs")
}

/// Asserts `args` fail cleanly with an `error:` line naming `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr '{stderr}'");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(needle),
        "{args:?}: stderr '{stderr}' lacks '{needle}'"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn zero_cores_is_an_error_not_a_panic() {
    assert_rejected(
        &["--cores", "0", "--duration-ms", "1"],
        "no workload configured",
    );
}

#[test]
fn frames_larger_than_the_dma_buffer_are_rejected() {
    assert_rejected(
        &["--packet", "4096", "--duration-ms", "1"],
        "packet_len 4096 exceeds the 2048-byte DMA buffer",
    );
}

#[test]
fn bursts_that_overrun_their_period_are_rejected() {
    // 1024 MTU frames at 2 Gbps take 6.2 ms; the burst period is 5 ms.
    assert_rejected(
        &["--rate", "2", "--duration-ms", "1"],
        "does not fit in period",
    );
    assert_rejected(&["--ring", "0", "--duration-ms", "1"], "empty burst");
}

#[test]
fn unusable_rates_are_rejected() {
    for rate in ["0", "nan", "inf"] {
        assert_rejected(
            &["--rate", rate, "--duration-ms", "1"],
            "rate must be finite and positive",
        );
    }
    assert_rejected(
        &["--steady", "--rate", "0", "--duration-ms", "1"],
        "workload 0: rate must be finite and positive",
    );
}

#[test]
fn unusable_mlc_thresholds_are_rejected() {
    for thr in ["0", "nan"] {
        assert_rejected(
            &["--mlc-thr", thr, "--duration-ms", "1"],
            "mlcTHR rate must be finite and positive",
        );
    }
}

#[test]
fn frames_below_the_ethernet_minimum_are_rejected() {
    assert_rejected(
        &["--packet", "10", "--duration-ms", "1"],
        "packet_len 10 below the Ethernet minimum (64)",
    );
}

#[test]
fn a_valid_config_still_runs() {
    let out = run(&["--packet", "2048", "--duration-ms", "1"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("simulating: "));
}

/// The blessed stdout goldens live with the other report goldens.
fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("simulate_{name}.txt"))
}

fn blessing() -> bool {
    std::env::var_os("IDIO_BLESS").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Runs `args`, requires a clean exit, and returns stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "{args:?}: stderr '{}'",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Diffs `rendered` against `tests/golden/simulate_<name>.txt`
/// (`IDIO_BLESS=1` rewrites it after an intentional output change).
fn assert_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if blessing() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden at {} ({e}); run with IDIO_BLESS=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == rendered,
        "simulate {name}: stdout diverged from golden.\n--- golden\n{expected}\n--- current\n{rendered}"
    );
}

#[test]
fn default_run_matches_golden() {
    assert_golden("default", &stdout_of(&["--duration-ms", "2"]));
}

#[test]
fn per_queue_overrides_run_matches_golden() {
    let args = [
        "--nf",
        "chain",
        "--pool",
        "recycle:64",
        "--queue-pool",
        "1=dram",
        "--queue-policy",
        "1=ddio",
        "--class1",
        "--steady",
        "--rate",
        "10",
        "--cores",
        "3",
        "--duration-ms",
        "1",
    ];
    assert_golden("overrides", &stdout_of(&args));
}

#[test]
fn system_knobs_run_matches_golden() {
    let args = [
        "--poisson",
        "--antagonist",
        "--mlc-thr",
        "40",
        "--ring",
        "256",
        "--packet",
        "512",
        "--policy",
        "iat",
        "--duration-ms",
        "1",
    ];
    assert_golden("knobs", &stdout_of(&args));
}

#[test]
fn all_policies_table_matches_golden() {
    let out = stdout_of(&["--all-policies", "--duration-ms", "1"]);
    // The last column is host wall time; everything before it is a pure
    // function of the configuration. The first line is the banner.
    let mut lines = out.lines();
    let mut rendered = format!("{}\n", lines.next().expect("banner line"));
    for line in lines {
        let (kept, _wall) = line.trim_end().rsplit_once(' ').expect("wall column");
        rendered.push_str(kept.trim_end());
        rendered.push('\n');
    }
    assert_golden("all_policies", &rendered);
}

#[test]
fn overrides_of_missing_cores_are_rejected() {
    assert_rejected(
        &["--queue-policy", "5=static", "--duration-ms", "1"],
        "names a nonexistent queue",
    );
    assert_rejected(
        &["--queue-pool", "2=dram", "--duration-ms", "1"],
        "names a nonexistent queue",
    );
}
