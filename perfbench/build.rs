//! Records the build half of the host fingerprint: the compiler that built
//! the benchmark and a digest of the program sources it was built from.
//! The digest stands in for the git commit in checkouts that are not git
//! repositories.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Directories and files whose contents define the program under test.
const SOURCES: [&str; 4] = ["../crates", "../Cargo.toml", "../Cargo.lock", "src"];

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            collect(&entry.path(), out);
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // Look for a repository at the checkout root and no further up.
    let root = std::fs::canonicalize("..").unwrap_or_else(|_| PathBuf::from(".."));
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(&root))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={commit}");

    let mut files = Vec::new();
    for s in SOURCES {
        println!("cargo:rerun-if-changed={s}");
        collect(Path::new(s), &mut files);
    }
    files.retain(|f| !f.components().any(|c| c.as_os_str() == "target"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        fnv1a(&mut hash, f.to_string_lossy().as_bytes());
        fnv1a(&mut hash, &std::fs::read(f).unwrap_or_default());
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={hash:016x}");
}
