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
fn a_valid_config_still_runs() {
    let out = run(&["--packet", "2048", "--duration-ms", "1"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("simulating: "));
}
