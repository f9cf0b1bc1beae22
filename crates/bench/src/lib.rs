//! # idio-bench
//!
//! Front ends of the IDIO reproduction. The paper's figure suite is
//! declared once, here: [`EXPERIMENTS`] names every table and figure in
//! paper order and [`experiment_spec`] resolves a name to its
//! declarative sweep. Every consumer — the `repro` binary, the `bench`
//! timing harness ([`micro`]), the golden and determinism tests — runs
//! those specs through [`idio_core::sweep::run_figures_detailed`].
//!
//! * `repro` regenerates the paper's tables and figures;
//! * `simulate` runs one custom configuration;
//! * `scenario` runs multi-tenant scenario files;
//! * `bench` times the simulator's layers and the quick figure suite
//!   into `BENCH_engine.json`.
//!
//! The figure drivers themselves live in [`idio_core::experiments`]; this
//! crate only selects, runs, times and prints them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod micro;

use idio_core::experiments::{self, Scale};
use idio_core::sweep::FigureSpec;

/// Known experiment names, in paper order.
pub const EXPERIMENTS: [&str; 17] = [
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig9",
    "fig10",
    "fig11",
    "direct-dram",
    "fig12",
    "fig13",
    "fig14",
    "future-work",
    "bloating",
    "copy-mode",
    "baselines",
    "ring-sweep",
    "packet-sweep",
];

/// Resolves one experiment name to its declarative sweep spec.
///
/// # Errors
///
/// Returns the unknown name back to the caller.
pub fn experiment_spec(name: &str, scale: Scale) -> Result<FigureSpec, String> {
    Ok(match name {
        "table1" => experiments::table1_spec(),
        "table2" => experiments::table2_spec(),
        "fig4" => experiments::fig4_spec(scale),
        "fig5" => experiments::fig5_spec(scale),
        "fig9" => experiments::fig9_spec(scale),
        "fig10" => experiments::fig10_spec(scale),
        "fig11" => experiments::fig11_spec(scale),
        "direct-dram" | "direct_dram" => experiments::direct_dram_spec(scale),
        "fig12" => experiments::fig12_spec(scale),
        "fig13" => experiments::fig13_spec(scale),
        "fig14" => experiments::fig14_spec(scale),
        "future-work" | "future_work" => experiments::future_work_spec(scale),
        "bloating" => experiments::bloating_spec(scale),
        "copy-mode" | "copy_mode" => experiments::copy_mode_spec(scale),
        "baselines" => experiments::baselines_spec(scale),
        "ring-sweep" | "ring_sweep" => experiments::ring_sweep_spec(scale),
        "packet-sweep" | "packet_sweep" => experiments::packet_sweep_spec(scale),
        other => return Err(format!("unknown experiment '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_resolve() {
        for name in EXPERIMENTS {
            let spec = experiment_spec(name, Scale::quick()).expect("known name");
            assert_eq!(spec.id.replace('_', "-"), name);
        }
        assert!(experiment_spec("nope", Scale::quick()).is_err());
    }

    #[test]
    fn specs_declare_unique_labels_across_the_suite() {
        let mut labels = Vec::new();
        for name in EXPERIMENTS {
            let spec = experiment_spec(name, Scale::quick()).expect("known name");
            labels.extend(spec.cells.into_iter().map(|c| c.label));
        }
        let total = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), total, "duplicate cell label across figures");
        assert!(total >= 50, "the suite declares a substantial cell pool");
    }
}
