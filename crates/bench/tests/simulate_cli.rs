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
