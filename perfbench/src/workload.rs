//! The three workloads: seeded input generation, the layer-by-layer run
//! that times each public call, and the one-call reference runs its
//! report is checked against.
//!
//! One benchmark seed feeds every random choice: the Poisson tenant seeds
//! (dc-consolidation, flow-churn) and the sweep root seed every cell seed
//! derives from (all three workloads). dc-consolidation keeps its
//! generator seed, so every benchmark seed runs the same datacenter (see
//! `inputs/dc-consolidation.toml`).

use std::time::Duration;

use idio_bench::json::cell_metrics_line;
use idio_bench::{experiment_spec, EXPERIMENTS};
use idio_core::cache::config::HierarchyConfig;
use idio_core::engine::rng::derive_seed;
use idio_core::experiments::Scale;
use idio_core::net::gen::TrafficPattern;
use idio_core::report::RunReport;
use idio_core::sweep::{run_figures_detailed, CellMetrics, SweepCell, SweepOptions};
use idio_core::System;
use idio_scenario::report::CellFold;
use idio_scenario::{parse_str, run_scenario, scenario_cells, Scenario, ScenarioReportBuilder};

use crate::trace::Spans;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 17-figure suite at `Scale::quick()`, as `repro --quick` runs it.
    PaperQuick,
    /// datacenter-200's `[generate]` spec: 200 generated tenants.
    DcConsolidation,
    /// The flow-churn built-in's 1K / 64K-churning / 1M-flow tenants.
    FlowChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperQuick,
        Workload::DcConsolidation,
        Workload::FlowChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQuick => "paper-quick",
            Workload::DcConsolidation => "dc-consolidation",
            Workload::FlowChurn => "flow-churn",
        }
    }

    /// Resolves a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario file a scenario workload parses (`None` for
    /// paper-quick, whose inputs are the figure specs).
    fn scenario_file(self) -> Option<&'static str> {
        match self {
            Workload::PaperQuick => None,
            Workload::DcConsolidation => Some(include_str!("../inputs/dc-consolidation.toml")),
            Workload::FlowChurn => Some(include_str!("../inputs/flow-churn.toml")),
        }
    }
}

/// Parses `workload`'s scenario file (expanding any `[generate]` table)
/// and gives every Poisson tenant a seed derived from `seed` and the
/// tenant's name. `None` for paper-quick.
///
/// # Errors
///
/// Returns the parse or validation message of a malformed file.
pub fn scenario(workload: Workload, seed: u64) -> Result<Option<Scenario>, String> {
    let Some(text) = workload.scenario_file() else {
        return Ok(None);
    };
    let mut scenario = parse_str(text).map_err(|e| e.to_string())?;
    for t in &mut scenario.tenants {
        if let TrafficPattern::Poisson { seed: s, .. } = &mut t.traffic {
            *s = derive_seed(seed, &format!("perfbench/{}/{}", workload.name(), t.name));
        }
    }
    scenario.validate()?;
    Ok(Some(scenario))
}

/// The cells of the quick figure suite, flattened in declaration order.
fn figure_cells() -> Vec<SweepCell> {
    EXPERIMENTS
        .iter()
        .flat_map(|name| {
            experiment_spec(name, Scale::quick())
                .expect("every listed experiment resolves")
                .cells
        })
        .collect()
}

/// How the per-cell reports become the final report bytes.
enum Fold {
    /// One `repro --metrics` line per cell.
    Figures(Vec<String>),
    /// The streaming scenario report.
    Scenario(ScenarioReportBuilder, Vec<CellFold>),
}

/// Builds `workload`'s cells from `seed`: input generation, parse and
/// expansion, validation and the cell configs.
///
/// # Errors
///
/// Returns the parse or validation message of a malformed input.
pub fn cells(workload: Workload, seed: u64) -> Result<Vec<SweepCell>, String> {
    Ok(build(workload, seed)?.0)
}

fn build(workload: Workload, seed: u64) -> Result<(Vec<SweepCell>, Fold), String> {
    Ok(match scenario(workload, seed)? {
        None => (figure_cells(), Fold::Figures(Vec::new())),
        Some(scenario) => (
            scenario_cells(&scenario),
            Fold::Scenario(ScenarioReportBuilder::new(&scenario, seed), Vec::new()),
        ),
    })
}

/// Exact work counts of one workload run, summed over its cells. Every
/// field is a pure function of the program and the seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Work {
    /// Cells run.
    pub cells: u64,
    /// Dispatched events by type, in the engine's type order.
    pub events: Vec<(&'static str, u64)>,
    /// Packets that arrived at the NIC (`engine.events.arrival`).
    pub arrivals: u64,
    /// Packets the NIC accepted.
    pub rx_packets: u64,
    /// Packets the NIC dropped.
    pub rx_drops: u64,
    /// Packets the NF cores completed.
    pub completed: u64,
    /// Cache lines DMA'd by the NIC.
    pub dma_lines: u64,
    /// Steering decisions by placement: LLC, MLC, DRAM lines.
    pub steer: [u64; 3],
    /// Flow-director outcomes: perfect, ATR, ATR collision, RSS, mis-steer.
    pub fd: [u64; 5],
    /// Pool outcomes: recycled, starved, spilled.
    pub pool: [u64; 3],
    /// MLC prefetches issued.
    pub prefetch_issued: u64,
    /// MLC prefetches accepted.
    pub prefetch_accepted: u64,
    /// DRAM line reads.
    pub dram_rd: u64,
    /// DRAM line writes.
    pub dram_wr: u64,
    /// LLC writebacks.
    pub llc_wb: u64,
    /// MLC writebacks.
    pub mlc_wb: u64,
    /// Lines dropped by self-invalidation.
    pub self_inval: u64,
    /// Events scheduled in the past and clamped to now.
    pub schedule_past_clamped: u64,
    /// Sum over NF cores of mean latency (ps) times completed packets.
    pub latency_ps_sum: u128,
    /// Packets behind `latency_ps_sum`.
    pub latency_count: u64,
    /// Over cores with at least [`P99_MIN_PACKETS`] completions: their
    /// number, and the sum of each one's p99 (ps) times its completions.
    pub p99_cores: u64,
    /// See `p99_cores`.
    pub p99_ps_sum: u128,
    /// Completions behind `p99_ps_sum`.
    pub p99_count: u64,
    /// The worst of those cores' p99 (ps), with that core's completions.
    pub worst_p99: Option<(u64, u64)>,
}

/// Smallest per-core sample for which a p99 has at least ten samples
/// beyond it.
pub const P99_MIN_PACKETS: usize = 1000;

const FD_TIERS: [&str; 5] = ["perfect", "atr", "collision", "rss", "mis"];
const POOL_OUTCOMES: [&str; 3] = ["recycled", "starved", "spilled"];

impl Work {
    fn add(&mut self, r: &RunReport) {
        let m = &r.metrics;
        self.cells += 1;
        if self.events.is_empty() {
            self.events = r.profile.iter().map(|p| (p.name, 0)).collect();
        }
        for (slot, p) in self.events.iter_mut().zip(&r.profile) {
            slot.1 += p.count;
        }
        self.arrivals += m.counter("engine.events.arrival");
        self.rx_packets += r.totals.rx_packets;
        self.rx_drops += r.totals.rx_drops;
        self.completed += r.totals.completed_packets;
        self.dma_lines += r.totals.pcie_wr;
        for (i, p) in ["steer.llc", "steer.mlc", "steer.dram"].iter().enumerate() {
            self.steer[i] += m.counter(p);
        }
        // Per-queue `fd.q<q>.<tier>` and `pool.q<q>.<outcome>` counters.
        for (name, v) in m.counters() {
            let (names, sums): (&[&str], &mut [u64]) = if name.starts_with("fd.q") {
                (&FD_TIERS, &mut self.fd)
            } else if name.starts_with("pool.q") {
                (&POOL_OUTCOMES, &mut self.pool)
            } else {
                continue;
            };
            let what = name.rsplit('.').next().expect("rsplit yields a piece");
            if let Some(i) = names.iter().position(|n| *n == what) {
                sums[i] += v;
            }
        }
        self.prefetch_issued += m.counter("prefetch.issued");
        self.prefetch_accepted += m.counter("prefetch.accepted");
        self.dram_rd += r.totals.dram_rd;
        self.dram_wr += r.totals.dram_wr;
        self.llc_wb += r.totals.llc_wb;
        self.mlc_wb += r.totals.mlc_wb;
        self.self_inval += r.totals.self_inval;
        self.schedule_past_clamped += m.counter("engine.schedule_past_clamped");
        for (_, s) in &r.latency {
            self.latency_ps_sum += u128::from(s.mean.as_ps()) * s.count as u128;
            self.latency_count += s.count as u64;
            if s.count >= P99_MIN_PACKETS {
                let (p99, n) = (s.p99.as_ps(), s.count as u64);
                self.p99_cores += 1;
                self.p99_ps_sum += u128::from(p99) * u128::from(n);
                self.p99_count += n;
                if self.worst_p99.is_none_or(|(worst, _)| p99 > worst) {
                    self.worst_p99 = Some((p99, n));
                }
            }
        }
    }

    /// Total dispatched events.
    pub fn total_events(&self) -> u64 {
        self.events.iter().map(|e| e.1).sum()
    }
}

/// The cross-layer conservation checks every cell must pass.
fn check_cell(label: &str, r: &RunReport) -> Result<(), String> {
    let arrivals = r.metrics.counter("engine.events.arrival");
    let (rx, drops) = (r.totals.rx_packets, r.totals.rx_drops);
    if arrivals != rx + drops {
        return Err(format!(
            "{label}: {arrivals} arrivals != {rx} rx + {drops} drops"
        ));
    }
    if r.totals.completed_packets > rx {
        return Err(format!(
            "{label}: {} completed > {rx} received",
            r.totals.completed_packets
        ));
    }
    Ok(())
}

/// One layer-by-layer run of a workload.
#[derive(Debug)]
pub struct Iteration {
    /// Host time from input generation to the final report bytes.
    pub wall: Duration,
    /// Spans of every public call (see [`crate::trace`]).
    pub spans: Spans,
    /// The final report bytes.
    pub report: String,
    /// Exact work counts.
    pub work: Work,
    /// Cells that failed a conservation check, with the reason.
    pub failures: Vec<String>,
    /// Each cell's effective hierarchy config (traced runs only).
    pub hierarchies: Vec<HierarchyConfig>,
}

/// Runs `workload` cell by cell at one worker, timing every public call.
///
/// With `traced`, each cell also measures its event handlers
/// (`profile_events`), whose self time becomes child spans of the cell's
/// `System::run`, and records the cell's effective hierarchy config for
/// the replays.
///
/// # Errors
///
/// Returns the parse, validation or report-assembly message.
pub fn run(workload: Workload, seed: u64, traced: bool) -> Result<Iteration, String> {
    let mut spans = Spans::new();
    let root = workload.name();
    let span = spans.begin("build", root, None);
    let (cells, mut fold) = build(workload, seed)?;
    spans.end(span);
    let mut work = Work::default();
    let mut failures = Vec::new();
    let mut hierarchies = Vec::new();
    for (i, cell) in cells.into_iter().enumerate() {
        let SweepCell { label, mut cfg } = cell;
        cfg.seed = derive_seed(seed, &label);
        cfg.profile_events = traced;

        let span = spans.begin("system_new", &label, None);
        let system = System::new(cfg);
        spans.end(span);
        if traced {
            hierarchies.push(system.hierarchy().config().clone());
        }

        let span = spans.begin("system_run", &label, None);
        let report = system.run();
        spans.end(span);
        if traced {
            spans.handler_children(span, &report.profile);
        }

        let span = spans.begin("report", &label, None);
        match &mut fold {
            Fold::Figures(lines) => lines.push(cell_metrics_line(&CellMetrics {
                label: label.clone(),
                metrics: report.metrics.clone(),
            })),
            Fold::Scenario(builder, folds) => folds.push(builder.reduce(i, &report)),
        }
        spans.end(span);

        if let Err(e) = check_cell(&label, &report) {
            failures.push(e);
        }
        work.add(&report);
    }
    let span = spans.begin("report", root, None);
    let report = match fold {
        Fold::Figures(lines) => lines.join("\n") + "\n",
        Fold::Scenario(mut builder, folds) => {
            for f in folds {
                builder.fold(f);
            }
            builder.finish()?.to_json()
        }
    };
    spans.end(span);
    Ok(Iteration {
        wall: spans.elapsed(),
        spans,
        report,
        work,
        failures,
        hierarchies,
    })
}

/// The one-call reference: `run_figures_detailed` or `run_scenario` at
/// `jobs` workers. Returns the report in the layered run's format, plus
/// the assembled figure tables for paper-quick (empty otherwise).
///
/// # Errors
///
/// Returns the parse, validation or report-assembly message.
pub fn reference(workload: Workload, seed: u64, jobs: usize) -> Result<(String, String), String> {
    let opts = SweepOptions {
        jobs,
        root_seed: seed,
        ..SweepOptions::default()
    };
    match scenario(workload, seed)? {
        None => {
            let specs = EXPERIMENTS
                .iter()
                .map(|name| experiment_spec(name, Scale::quick()))
                .collect::<Result<Vec<_>, _>>()?;
            let out = run_figures_detailed(specs, &opts);
            let lines: Vec<String> = out.cells.iter().map(cell_metrics_line).collect();
            let figures = idio_bench::json::figures_to_json(&out.figures);
            Ok((lines.join("\n") + "\n", figures))
        }
        Some(scenario) => Ok((run_scenario(&scenario, &opts)?.to_json(), String::new())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(w: Workload, seed: u64) -> String {
        idio_scenario::to_file_string(&scenario(w, seed).unwrap().unwrap())
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in [Workload::DcConsolidation, Workload::FlowChurn] {
            assert_eq!(input(w, 7), input(w, 7), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in [Workload::DcConsolidation, Workload::FlowChurn] {
            assert_ne!(input(w, 7), input(w, 8), "{}", w.name());
        }
        // paper-quick's inputs are fixed figure specs; the seed reaches
        // the program as the root every cell seed derives from.
        let label = &cells(Workload::PaperQuick, 7).unwrap()[0].label;
        assert_ne!(derive_seed(7, label), derive_seed(8, label));
    }

    #[test]
    fn seed_reaches_every_poisson_tenant() {
        for w in [Workload::DcConsolidation, Workload::FlowChurn] {
            let sc = scenario(w, 4242).unwrap().unwrap();
            let mut poisson = 0;
            for t in &sc.tenants {
                if let TrafficPattern::Poisson { seed, .. } = t.traffic {
                    let label = format!("perfbench/{}/{}", w.name(), t.name);
                    assert_eq!(seed, derive_seed(4242, &label), "{}", t.name);
                    poisson += 1;
                }
            }
            assert!(poisson > 0, "{} has Poisson tenants", w.name());
        }
    }

    #[test]
    fn layered_report_matches_one_call_and_repeats() {
        let a = run(Workload::FlowChurn, 3, false).unwrap();
        let b = run(Workload::FlowChurn, 3, true).unwrap();
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.report, b.report, "tracing leaves the report unchanged");
        assert_eq!(a.work, b.work, "work counts repeat exactly");
        for jobs in [1, 2] {
            assert_eq!(a.report, reference(Workload::FlowChurn, 3, jobs).unwrap().0);
        }
        let c = run(Workload::FlowChurn, 4, false).unwrap();
        assert_ne!(a.report, c.report, "the seed changes the run");
    }

    #[test]
    fn figure_cells_have_unique_labels() {
        let cells = cells(Workload::PaperQuick, 1).unwrap();
        let mut labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n, "cell labels are unique across figures");
    }
}
