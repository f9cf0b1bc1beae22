//! Reproduction drivers for every table and figure of the paper's
//! evaluation (Sec. VII).
//!
//! Each figure is expressed *declaratively*: a `figN_spec` function builds
//! a [`FigureSpec`] — the list of simulation configurations (cells) behind
//! the figure plus a pure assembly function that turns the finished
//! [`crate::sweep::CellOutcome`]s into a printable [`FigureResult`]. The sweep
//! orchestrator in [`crate::sweep`] executes the cells, serially or on a
//! worker pool, with per-cell seeds derived from the cell labels so the
//! output is independent of scheduling; `spec.run_serial()` runs one
//! figure on the calling thread.
//!
//! This module declares the figures but does not list them: the suite's
//! one registry (names, paper order) is `idio_bench::EXPERIMENTS` with
//! `idio_bench::experiment_spec`.
//!
//! Every function takes a [`Scale`]: [`Scale::full`] approximates the
//! paper's run lengths, [`Scale::quick`] shrinks them for CI and unit
//! tests while preserving the qualitative shapes.

use std::fmt;

use idio_cache::set::WayMask;
use idio_engine::stats::TimeSeries;
use idio_engine::time::{Duration, SimTime};
use idio_net::gen::{BurstSpec, TrafficPattern};
use idio_net::packet::Dscp;
use idio_stack::nf::NfKind;

use crate::config::SystemConfig;
use crate::policy::SteeringPolicy;
use crate::report::RunReport;
use crate::sweep::{FigureSpec, SweepCell};

/// Run-length scaling for the experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of burst periods simulated (first is treated as warm-up
    /// where more than one is available).
    pub periods: u64,
    /// Burst period (paper: 10 ms).
    pub period: Duration,
    /// Horizon for steady-traffic experiments.
    pub steady_duration: Duration,
    /// Ring size for the main experiments (paper: 1024).
    pub ring: u32,
}

impl Scale {
    /// Paper-equivalent run lengths.
    pub fn full() -> Self {
        Scale {
            periods: 3,
            period: Duration::from_ms(10),
            steady_duration: Duration::from_ms(5),
            ring: 1024,
        }
    }

    /// Shrunk runs for tests and CI (same shapes, several times faster).
    ///
    /// The ring stays at 1024: the paper's central phenomenon requires the
    /// DMA ring (1024 × 2 KiB = 2 MiB) to exceed the 1 MiB MLC, so the ring
    /// cannot be scaled down without losing the effect. Time is shrunk
    /// instead.
    pub fn quick() -> Self {
        Scale {
            periods: 2,
            period: Duration::from_ms(2),
            steady_duration: Duration::from_ms(3),
            ring: 1024,
        }
    }

    fn bursty(&self, rate_gbps: f64, packet_len: u16) -> TrafficPattern {
        TrafficPattern::Bursty(BurstSpec::for_ring(
            self.ring,
            packet_len,
            rate_gbps,
            self.period,
        ))
    }

    fn burst_duration(&self) -> SimTime {
        SimTime::ZERO + self.period * self.periods
    }
}

/// One reproduced table/figure: a printable grid plus any raw series.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Identifier, e.g. `"fig9"`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Table rows (pre-formatted).
    pub rows: Vec<Vec<String>>,
    /// Named sampled series for timeline figures.
    pub series: Vec<(String, TimeSeries)>,
}

impl FigureResult {
    /// Creates an empty table with the given identity and columns.
    pub fn new(id: &'static str, title: impl Into<String>, columns: &[&str]) -> Self {
        FigureResult {
            id,
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Appends one pre-formatted row (must match the column count).
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.columns.len());
        self.rows.push(row);
    }
}

impl fmt::Display for FigureResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        if num == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        num as f64 / den as f64
    }
}

fn fmt_ratio(r: f64) -> String {
    if r.is_infinite() {
        "inf".into()
    } else {
        format!("{r:.3}")
    }
}

/// Builds the standard bursty-traffic configuration behind most figures:
/// two TouchDrop cores receiving best-effort MTU frames, optionally with
/// the LLC antagonist co-running.
fn bursty_cfg(
    scale: Scale,
    rate_gbps: f64,
    policy: SteeringPolicy,
    antagonist: bool,
) -> SystemConfig {
    let cfg = bursty_nf_cfg(scale, rate_gbps, policy, NfKind::TouchDrop, 1514);
    if antagonist {
        cfg.with_antagonist()
    } else {
        cfg
    }
}

/// [`bursty_cfg`] without the antagonist, for another NF or frame length.
fn bursty_nf_cfg(
    scale: Scale,
    rate_gbps: f64,
    policy: SteeringPolicy,
    kind: NfKind,
    packet_len: u16,
) -> SystemConfig {
    let traffic = scale.bursty(rate_gbps, packet_len);
    let mut cfg = SystemConfig::touchdrop_scenario(2, traffic);
    cfg.ring_size = scale.ring;
    cfg.duration = scale.burst_duration();
    cfg.drain_grace = scale.period;
    for w in &mut cfg.workloads {
        w.kind = kind;
        w.packet_len = packet_len;
    }
    cfg.with_policy(policy)
}

/// Builds the steady-traffic configuration (Figs. 4/13, bloating, sweeps).
fn steady_cfg(
    scale: Scale,
    rate_gbps: f64,
    ring: u32,
    policy: SteeringPolicy,
    one_way: bool,
) -> SystemConfig {
    let mut cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps });
    cfg.ring_size = ring;
    cfg.duration = SimTime::ZERO + scale.steady_duration;
    cfg.drain_grace = Duration::from_ms(1);
    cfg = cfg.with_policy(policy);
    if one_way {
        // CAT: confine core fills to a single non-DDIO LLC way (Fig. 4's
        // `*_1way` configurations).
        cfg.hierarchy.core_alloc_ways = Some(WayMask::range(2, 3));
    }
    cfg
}

/// Lines of RX data (payload only) delivered in a run — the normalisation
/// base for Fig. 4-style rates.
fn rx_data_lines(report: &RunReport, packet_len: u16) -> u64 {
    report.totals.rx_packets * u64::from(u32::from(packet_len).div_ceil(64))
}

// ---------------------------------------------------------------------------
// Table I / Table II
// ---------------------------------------------------------------------------

/// Table I as a (cell-less) figure spec.
pub fn table1_spec() -> FigureSpec {
    FigureSpec::new("table1", Vec::new(), |_| table1())
}

/// Table I: the simulated configuration, as actually instantiated.
pub fn table1() -> FigureResult {
    let cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps: 10.0 });
    let h = cfg.effective_hierarchy();
    let mut t = FigureResult::new(
        "table1",
        "Simulation configuration",
        &["parameter", "value"],
    );
    let rows: Vec<(&str, String)> = vec![
        ("core freq", "3 GHz".into()),
        (
            "L1D (size, assoc, lat)",
            format!(
                "{} KiB, {}, {} CC",
                h.l1d.size_bytes >> 10,
                h.l1d.ways,
                h.l1d.latency_cycles
            ),
        ),
        (
            "MLC (size, assoc, lat)",
            format!(
                "{} MiB, {}, {} CC",
                h.mlc.size_bytes >> 20,
                h.mlc.ways,
                h.mlc.latency_cycles
            ),
        ),
        (
            "LLC (size, assoc, lat)",
            format!(
                "{} MiB, {}, {} CC",
                h.llc.size_bytes >> 20,
                h.llc.ways,
                h.llc.latency_cycles
            ),
        ),
        ("DDIO ways", format!("{}", h.ddio_ways)),
        ("DRAM", "DDR4-3200, 2 ch".into()),
        ("network", "100 Gbps-class, 1514 B packets".into()),
        ("ring size", format!("{}", cfg.ring_size)),
        ("batch size", format!("{}", cfg.pmd.batch_size)),
        (
            "rxBurstTHR",
            format!("{} B / 1 us", cfg.classifier.rx_burst_thr_bytes),
        ),
        (
            "mlcTHR",
            format!("{} WB / 1 us (50 MTPS)", cfg.idio.mlc_thr),
        ),
        ("prefetch queue", format!("{}", cfg.prefetcher.queue_depth)),
    ];
    for (k, v) in rows {
        t.push_row(vec![k.into(), v]);
    }
    t
}

/// Table II as a (cell-less) figure spec.
pub fn table2_spec() -> FigureSpec {
    FigureSpec::new("table2", Vec::new(), |_| table2())
}

/// Table II: the evaluated functions.
pub fn table2() -> FigureResult {
    let mut t = FigureResult::new(
        "table2",
        "Functions used for evaluation",
        &["function", "description"],
    );
    t.push_row(vec![
        "TouchDrop".into(),
        "receive packets, touch data, drop packets".into(),
    ]);
    t.push_row(vec![
        "L2Fwd".into(),
        "receive packets, forward based on Ethernet header".into(),
    ]);
    t.push_row(vec![
        "LLCAntagonist".into(),
        "allocate a buffer and randomly access elements".into(),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Fig. 4 — MLC/DRAM leaks vs ring size and load (DDIO baseline)
// ---------------------------------------------------------------------------

/// Fig. 4: MLC writeback and MLC invalidation rates (normalised to the RX
/// data rate) and DRAM write bandwidth, across ring sizes and load levels,
/// under baseline DDIO — including the CAT `*_1way` configurations.
///
/// The paper measures this on the *physical* Xeon Gold 6242 (22 MiB LLC,
/// 10 TouchDrop instances), whose LLC+MLC capacity comfortably exceeds the
/// aggregate ring footprint. We reproduce the capacity *ratio* with 4
/// instances on a proportionally sized (8.25 MiB, 11-way) LLC. Each run
/// lasts long enough to deliver a fixed per-core packet count, so the
/// normalised rates are comparable across loads.
///
/// Paper shape: ring 64 ⇒ low normalised MLC WB and high invalidations;
/// ring ≥ 1024 ⇒ MLC WB around/above the RX rate at *every* load; DRAM
/// write bandwidth near zero except in the `_1way` CAT configurations.
///
/// The sweep: 11 cells.
pub fn fig4_spec(scale: Scale) -> FigureSpec {
    const NFS: usize = 4;
    // Per-NF steady rates; "high" matches the paper's 2 Gbps/NF.
    let loads = [("low", 0.1), ("med", 0.5), ("high", 2.0)];
    // Steady state needs several full ring recycles (the first pass is a
    // cold-start transient); scale the horizon with the ring size.
    let wraps: u64 = if scale.periods >= 3 { 4 } else { 3 };

    let mut cases: Vec<(String, u32, bool, &str, f64)> = Vec::new();
    for ring in [64u32, 1024, 2048] {
        for (lname, gbps) in loads {
            cases.push((format!("ring{ring}"), ring, false, lname, gbps));
        }
    }
    for ring in [1024u32, 2048] {
        cases.push((format!("ring{ring}_1way"), ring, true, "high", 2.0));
    }

    let mut cells = Vec::new();
    let mut meta: Vec<(String, &'static str, SimTime)> = Vec::new();
    for (name, ring, one_way, lname, gbps) in cases {
        let pkt_time = idio_engine::time::wire_time(1514, gbps);
        let packets_per_nf = (wraps * u64::from(ring)).max(1500);
        let duration = SimTime::ZERO + pkt_time * packets_per_nf;
        let mut cfg =
            SystemConfig::touchdrop_scenario(NFS, TrafficPattern::Steady { rate_gbps: gbps });
        cfg.ring_size = ring;
        cfg.duration = duration;
        cfg.drain_grace = Duration::from_ms(1);
        // Physical-server LLC, scaled to 4 NFs: 12288 sets x 11 ways x 64 B
        // = 8.25 MiB (the paper's 22 MiB hosts 10 NFs at the same ratio).
        cfg.hierarchy = idio_cache::config::HierarchyConfig {
            num_cores: NFS,
            llc: idio_cache::config::CacheGeometry::new(12288 * 11 * 64, 11, 24),
            mlc_overrides: vec![None; NFS],
            ..idio_cache::config::HierarchyConfig::paper_default(NFS)
        };
        if one_way {
            cfg.hierarchy.core_alloc_ways = Some(WayMask::range(2, 3));
        }
        cells.push(SweepCell::new(format!("fig4/{name}/{lname}"), cfg));
        meta.push((name, lname, duration));
    }
    FigureSpec::new("fig4", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "fig4",
            "MLC and DRAM leaks vs load level and ring size (DDIO, physical-server geometry)",
            &[
                "config",
                "load",
                "mlc_wb/rx",
                "mlc_inval/rx",
                "dram_wr_gbps",
                "dram_rd_gbps",
            ],
        );
        for ((name, lname, duration), o) in meta.into_iter().zip(outcomes) {
            let r = &o.report;
            let rx = rx_data_lines(r, 1514).max(1);
            let secs = duration.as_secs_f64();
            let dram_wr_gbps = r.totals.dram_wr as f64 * 64.0 * 8.0 / secs / 1e9;
            let dram_rd_gbps = r.totals.dram_rd as f64 * 64.0 * 8.0 / secs / 1e9;
            t.push_row(vec![
                name,
                lname.into(),
                fmt_ratio(ratio(r.totals.mlc_wb, rx)),
                fmt_ratio(ratio(r.totals.mlc_inval_by_dma, rx)),
                format!("{dram_wr_gbps:.2}"),
                format!("{dram_rd_gbps:.2}"),
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 5 — writeback timeline under bursty traffic (DDIO baseline)
// ---------------------------------------------------------------------------

/// Fig. 5: the MLC/LLC writeback timeline while processing bursty traffic
/// under DDIO, exposing the DMA phase (LLC-writeback spike) and execution
/// phase (MLC-writeback wave).
///
/// The sweep: 1 cell.
pub fn fig5_spec(scale: Scale) -> FigureSpec {
    let cells = vec![SweepCell::new(
        "fig5/DDIO/100G",
        bursty_cfg(scale, 100.0, SteeringPolicy::Ddio, false),
    )];
    FigureSpec::new("fig5", cells, |outcomes| {
        let r = &outcomes[0].report;
        let mut t = FigureResult::new(
            "fig5",
            "MLC and LLC writebacks, bursty traffic, DDIO",
            &["metric", "peak_mtps", "mean_mtps", "total_txn"],
        );
        for (name, series, total) in [
            ("mlc_wb", &r.timelines.mlc_wb, r.totals.mlc_wb),
            ("llc_wb", &r.timelines.llc_wb, r.totals.llc_wb),
            ("dma_wr", &r.timelines.dma_wr, r.totals.pcie_wr),
        ] {
            t.push_row(vec![
                name.into(),
                format!("{:.1}", series.max_value()),
                format!("{:.2}", series.mean()),
                format!("{total}"),
            ]);
        }
        t.series = vec![
            ("mlc_wb".into(), r.timelines.mlc_wb.clone()),
            ("llc_wb".into(), r.timelines.llc_wb.clone()),
            ("dma_wr".into(), r.timelines.dma_wr.clone()),
        ];
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 9 — policy comparison timelines at 100 and 25 Gbps
// ---------------------------------------------------------------------------

/// Fig. 9: MLC/LLC writeback behaviour of DDIO, Invalidate, Prefetch,
/// Static and IDIO while processing one burst, at 100 and 25 Gbps burst
/// rates.
///
/// Paper shape: self-invalidation removes most writebacks; prefetching
/// shortens the execution phase; Static ≈ IDIO at 25 Gbps while IDIO
/// regulates MLC pressure at 100 Gbps.
///
/// The sweep: 2 rates × 6 policies.
pub fn fig9_spec(scale: Scale) -> FigureSpec {
    let mut cells = Vec::new();
    let mut meta = Vec::new();
    for rate in [100.0f64, 25.0] {
        for policy in SteeringPolicy::ALL {
            cells.push(SweepCell::new(
                format!("fig9/{rate:.0}G/{}", policy.label()),
                bursty_cfg(scale, rate, policy, false),
            ));
            meta.push((rate, policy));
        }
    }
    FigureSpec::new("fig9", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "fig9",
            "Policy comparison on one burst (TouchDrop)",
            &[
                "rate",
                "policy",
                "mlc_wb",
                "llc_wb",
                "peak_mlc_wb_mtps",
                "prefetches",
                "exe_ms",
            ],
        );
        for ((rate, policy), o) in meta.into_iter().zip(outcomes) {
            let r = &o.report;
            let exe = r
                .mean_exe_time(1)
                .map(|d| format!("{:.3}", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "-".into());
            t.push_row(vec![
                format!("{rate:.0}G"),
                policy.label().into(),
                format!("{}", r.totals.mlc_wb),
                format!("{}", r.totals.llc_wb),
                format!("{:.1}", r.timelines.mlc_wb.max_value()),
                format!("{}", r.totals.prefetch_fills),
                exe,
            ]);
            t.series.push((
                format!("{}_{}_mlc_wb", rate as u32, policy.label()),
                r.timelines.mlc_wb.clone(),
            ));
            t.series.push((
                format!("{}_{}_llc_wb", rate as u32, policy.label()),
                r.timelines.llc_wb.clone(),
            ));
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 10 — normalised transactions and exe time
// ---------------------------------------------------------------------------

/// Fig. 10: MLC WB, LLC WB, DRAM read/write transactions and burst
/// processing time of Static and IDIO normalised to DDIO, at 100/25/10
/// Gbps, plus the TouchDrop+LLCAntagonist co-run.
///
/// Paper shape: 60–85% MLC WB reduction, near-elimination of DRAM writes,
/// exe time ~0.78–0.82 at 100/25 Gbps and ~1.0 at 10 Gbps.
///
/// The sweep, per scenario × rate: one DDIO base cell plus the compared
/// policies.
pub fn fig10_spec(scale: Scale) -> FigureSpec {
    let mut cells = Vec::new();
    // (scenario, rate, policies) — each entry consumes 1 + policies.len()
    // outcomes: the DDIO base first, then the compared policies.
    let mut plan: Vec<(&'static str, f64, Vec<SteeringPolicy>)> = Vec::new();
    for (scenario, antagonist) in [("solo", false), ("corun", true)] {
        for rate in [100.0f64, 25.0, 10.0] {
            let policies: Vec<SteeringPolicy> = if antagonist {
                vec![SteeringPolicy::Idio]
            } else {
                vec![SteeringPolicy::StaticIdio, SteeringPolicy::Idio]
            };
            for policy in std::iter::once(SteeringPolicy::Ddio).chain(policies.iter().copied()) {
                cells.push(SweepCell::new(
                    format!("fig10/{scenario}/{rate:.0}G/{}", policy.label()),
                    bursty_cfg(scale, rate, policy, antagonist),
                ));
            }
            plan.push((scenario, rate, policies));
        }
    }
    FigureSpec::new("fig10", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "fig10",
            "Normalised transactions and exe time (vs DDIO)",
            &[
                "scenario",
                "rate",
                "policy",
                "mlc_wb",
                "llc_wb",
                "dram_rd",
                "dram_wr",
                "exe_time",
                "antag_cpa",
            ],
        );
        let mut cursor = 0usize;
        for (scenario, rate, policies) in plan {
            let base = &outcomes[cursor].report;
            cursor += 1;
            let base_exe = base.mean_exe_time(1);
            for policy in policies {
                let r = &outcomes[cursor].report;
                cursor += 1;
                let exe = match (r.mean_exe_time(1), base_exe) {
                    (Some(a), Some(b)) if b > Duration::ZERO => {
                        format!("{:.3}", a.as_ps() as f64 / b.as_ps() as f64)
                    }
                    _ => "-".into(),
                };
                let cpa = match (r.antagonist_cpa, base.antagonist_cpa) {
                    (Some(a), Some(b)) if b > 0.0 => format!("{:.3}", a / b),
                    _ => "-".into(),
                };
                t.push_row(vec![
                    scenario.into(),
                    format!("{rate:.0}G"),
                    policy.label().into(),
                    // NF-core writebacks only: the antagonist's own MLC
                    // churn is identical across policies and would mask
                    // the effect in co-run rows.
                    fmt_ratio(ratio(r.nf_mlc_wb(2), base.nf_mlc_wb(2))),
                    fmt_ratio(ratio(r.totals.llc_wb, base.totals.llc_wb)),
                    fmt_ratio(ratio(r.totals.dram_rd, base.totals.dram_rd)),
                    fmt_ratio(ratio(r.totals.dram_wr, base.totals.dram_wr)),
                    exe,
                    cpa,
                ]);
            }
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 11 — L2Fwd (shallow NF) timelines
// ---------------------------------------------------------------------------

/// Fig. 11: L2Fwd with 1024-byte packets under DDIO vs IDIO.
///
/// Paper shape: DDIO shows almost no MLC activity but a growing LLC
/// writeback rate; IDIO admits buffers to the MLC and invalidates after
/// forwarding, strongly reducing LLC writebacks.
///
/// The sweep: 2 cells.
pub fn fig11_spec(scale: Scale) -> FigureSpec {
    let policies = [SteeringPolicy::Ddio, SteeringPolicy::Idio];
    let cells = policies
        .iter()
        .map(|&policy| {
            SweepCell::new(
                format!("fig11/{}", policy.label()),
                bursty_nf_cfg(scale, 25.0, policy, NfKind::L2Fwd, 1024),
            )
        })
        .collect();
    FigureSpec::new("fig11", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "fig11",
            "L2Fwd, 1024-byte packets",
            &[
                "policy",
                "mlc_wb",
                "llc_wb",
                "prefetches",
                "tx_pkts",
                "p99_us",
            ],
        );
        for (policy, o) in policies.into_iter().zip(outcomes) {
            let r = &o.report;
            let p99 = r
                .p99()
                .map(|d| format!("{:.1}", d.as_us_f64()))
                .unwrap_or_else(|| "-".into());
            t.push_row(vec![
                policy.label().into(),
                format!("{}", r.totals.mlc_wb),
                format!("{}", r.totals.llc_wb),
                format!("{}", r.totals.prefetch_fills),
                format!("{}", r.totals.completed_packets),
                p99,
            ]);
            t.series.push((
                format!("{}_mlc_wb", policy.label()),
                r.timelines.mlc_wb.clone(),
            ));
            t.series.push((
                format!("{}_llc_wb", policy.label()),
                r.timelines.llc_wb.clone(),
            ));
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Sec. VII — selective direct DRAM access
// ---------------------------------------------------------------------------

/// The direct-DRAM experiment of Sec. VII: an L2Fwd variant that drops the
/// payload after header processing, with senders marking the flow
/// application class 1. Under IDIO the payload bypasses the LLC entirely:
/// DRAM write bandwidth tracks the RX payload bandwidth and the DDIO ways
/// stop thrashing.
///
/// The sweep: 2 cells.
pub fn direct_dram_spec(scale: Scale) -> FigureSpec {
    let policies = [SteeringPolicy::Ddio, SteeringPolicy::Idio];
    let cells = policies
        .iter()
        .map(|&policy| {
            let mut cfg = bursty_nf_cfg(scale, 25.0, policy, NfKind::L2FwdPayloadDrop, 1514);
            for w in &mut cfg.workloads {
                w.dscp = Dscp::CLASS1_DEFAULT;
            }
            SweepCell::new(format!("direct_dram/{}", policy.label()), cfg)
        })
        .collect();
    FigureSpec::new("direct_dram", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "direct_dram",
            "Selective direct DRAM access (L2FwdPayloadDrop, class 1)",
            &[
                "policy",
                "dma_direct",
                "dram_wr/rx_payload",
                "llc_wb",
                "ddio_allocs",
            ],
        );
        for (policy, o) in policies.into_iter().zip(outcomes) {
            let r = &o.report;
            let payload_lines = r.totals.rx_packets * 23; // 1514 B = 1 header + 23 payload lines
            t.push_row(vec![
                policy.label().into(),
                format!("{}", r.hierarchy.shared.dma_direct_dram.get()),
                fmt_ratio(ratio(r.totals.dram_wr, payload_lines.max(1))),
                format!("{}", r.totals.llc_wb),
                format!("{}", r.hierarchy.shared.ddio_allocs.get()),
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 12 — tail latency
// ---------------------------------------------------------------------------

/// Fig. 12: 50th and 99th percentile TouchDrop latency, solo and co-run
/// with LLCAntagonist, normalised to DDIO solo at each rate.
///
/// Paper shape: IDIO's p99 reduction is largest at 25 Gbps (~30%), smaller
/// at 100 and 10 Gbps; co-running inflates DDIO's tail more than IDIO's.
///
/// The sweep, per rate: DDIO-solo base, IDIO-solo, DDIO-corun, IDIO-corun.
pub fn fig12_spec(scale: Scale) -> FigureSpec {
    let rates = [100.0f64, 25.0, 10.0];
    let variants: [(&'static str, bool, SteeringPolicy); 4] = [
        ("solo", false, SteeringPolicy::Ddio),
        ("solo", false, SteeringPolicy::Idio),
        ("corun", true, SteeringPolicy::Ddio),
        ("corun", true, SteeringPolicy::Idio),
    ];
    let mut cells = Vec::new();
    for rate in rates {
        for (scenario, antagonist, policy) in variants {
            cells.push(SweepCell::new(
                format!("fig12/{rate:.0}G/{scenario}/{}", policy.label()),
                bursty_cfg(scale, rate, policy, antagonist),
            ));
        }
    }
    FigureSpec::new("fig12", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "fig12",
            "p50/p99 latency normalised to DDIO solo",
            &["rate", "scenario", "policy", "p50", "p99", "p99_us"],
        );
        for (i, rate) in rates.into_iter().enumerate() {
            let chunk = &outcomes[i * variants.len()..(i + 1) * variants.len()];
            let base = &chunk[0].report; // DDIO solo
            let (bp50, bp99) = (
                base.p50().unwrap_or(Duration::from_ns(1)),
                base.p99().unwrap_or(Duration::from_ns(1)),
            );
            for ((scenario, _, policy), o) in variants.into_iter().zip(chunk) {
                let r = &o.report;
                let p50 = r.p50().unwrap_or(Duration::ZERO);
                let p99 = r.p99().unwrap_or(Duration::ZERO);
                t.push_row(vec![
                    format!("{rate:.0}G"),
                    scenario.into(),
                    policy.label().into(),
                    format!("{:.3}", p50.as_ps() as f64 / bp50.as_ps() as f64),
                    format!("{:.3}", p99.as_ps() as f64 / bp99.as_ps() as f64),
                    format!("{:.1}", p99.as_us_f64()),
                ]);
            }
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 13 — steady traffic
// ---------------------------------------------------------------------------

/// Fig. 13: two TouchDrop instances at a steady 10 Gbps each, DDIO vs
/// IDIO.
///
/// Paper shape: DDIO shows a constant MLC writeback rate matching the
/// packet consumption rate; IDIO's self-invalidation removes most of it.
///
/// The sweep: 2 cells.
pub fn fig13_spec(scale: Scale) -> FigureSpec {
    let policies = [SteeringPolicy::Ddio, SteeringPolicy::Idio];
    let cells = policies
        .iter()
        .map(|&policy| {
            SweepCell::new(
                format!("fig13/{}", policy.label()),
                steady_cfg(scale, 10.0, scale.ring, policy, false),
            )
        })
        .collect();
    FigureSpec::new("fig13", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "fig13",
            "Steady 10 Gbps/core TouchDrop",
            &[
                "policy",
                "mlc_wb_mtps",
                "llc_wb_mtps",
                "self_inval",
                "completed",
            ],
        );
        for (policy, o) in policies.into_iter().zip(outcomes) {
            let r = &o.report;
            t.push_row(vec![
                policy.label().into(),
                format!("{:.2}", r.timelines.mlc_wb.mean()),
                format!("{:.2}", r.timelines.llc_wb.mean()),
                format!("{}", r.totals.self_inval),
                format!("{}", r.totals.completed_packets),
            ]);
            t.series.push((
                format!("{}_mlc_wb", policy.label()),
                r.timelines.mlc_wb.clone(),
            ));
            t.series.push((
                format!("{}_llc_wb", policy.label()),
                r.timelines.llc_wb.clone(),
            ));
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 14 — mlcTHR sensitivity
// ---------------------------------------------------------------------------

/// Fig. 14: the Fig. 10 metrics at 100 Gbps while sweeping `mlcTHR` from
/// 10 to 100 MTPS.
///
/// Paper shape: IDIO's improvements are consistent across the sweep — the
/// self-invalidation/prefetch synergy makes the threshold uncritical.
///
/// The sweep: DDIO base + 5 threshold cells.
pub fn fig14_spec(scale: Scale) -> FigureSpec {
    let thresholds = [10.0f64, 25.0, 50.0, 75.0, 100.0];
    let mut cells = vec![SweepCell::new(
        "fig14/DDIO-base",
        bursty_cfg(scale, 100.0, SteeringPolicy::Ddio, false),
    )];
    for thr in thresholds {
        let mut cfg = bursty_cfg(scale, 100.0, SteeringPolicy::Idio, false);
        cfg.idio = cfg.idio.with_mlc_thr_mtps(thr);
        cells.push(SweepCell::new(format!("fig14/thr{thr:.0}"), cfg));
    }
    FigureSpec::new("fig14", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "fig14",
            "Sensitivity to mlcTHR at 100 Gbps (normalised to DDIO)",
            &["mlc_thr_mtps", "mlc_wb", "llc_wb", "dram_wr", "exe_time"],
        );
        let base = &outcomes[0].report;
        let base_exe = base.mean_exe_time(1);
        for (thr, o) in thresholds.into_iter().zip(&outcomes[1..]) {
            let r = &o.report;
            let exe = match (r.mean_exe_time(1), base_exe) {
                (Some(a), Some(b)) if b > Duration::ZERO => {
                    format!("{:.3}", a.as_ps() as f64 / b.as_ps() as f64)
                }
                _ => "-".into(),
            };
            t.push_row(vec![
                format!("{thr:.0}"),
                fmt_ratio(ratio(r.totals.mlc_wb, base.totals.mlc_wb)),
                fmt_ratio(ratio(r.totals.llc_wb, base.totals.llc_wb)),
                fmt_ratio(ratio(r.totals.dram_wr, base.totals.dram_wr)),
                exe,
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Sec. VII future work — CPU-paced prefetching
// ---------------------------------------------------------------------------

/// The paper's future-work suggestion (Sec. VII): "a more sophisticated
/// prefetcher that follows the CPU pointer in the ring buffer to regulate
/// the MLC prefetching rate will likely provide more benefit". Compares
/// the paper's drop-on-full queued prefetcher against the CPU-paced
/// variant at 100 and 25 Gbps.
///
/// Expected shape: identical at 25 Gbps (the queue keeps up anyway); at
/// 100 Gbps the paced prefetcher avoids both the hint drops and the
/// MLC flood/FSM-disable cycle, yielding shorter burst processing.
///
/// The sweep: 2 rates × 2 prefetcher variants.
pub fn future_work_spec(scale: Scale) -> FigureSpec {
    use crate::prefetcher::PrefetchPacing;
    let variants = [
        ("queued", PrefetchPacing::Queued),
        ("cpu-paced", PrefetchPacing::CpuPaced { window_packets: 64 }),
    ];
    let mut cells = Vec::new();
    let mut meta = Vec::new();
    for rate in [100.0f64, 25.0] {
        for (name, pacing) in variants {
            let mut cfg = bursty_cfg(scale, rate, SteeringPolicy::Idio, false);
            cfg.prefetcher.pacing = pacing;
            if matches!(pacing, PrefetchPacing::CpuPaced { .. }) {
                // The paced queue never drops; give it room for a full
                // window of parked-then-released packets.
                cfg.prefetcher.queue_depth = 64 * 32;
            }
            cells.push(SweepCell::new(
                format!("future-work/{rate:.0}G/{name}"),
                cfg,
            ));
            meta.push((rate, name));
        }
    }
    FigureSpec::new("future-work", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "future-work",
            "Queued vs CPU-paced prefetching (IDIO)",
            &[
                "rate",
                "prefetcher",
                "mlc_wb",
                "llc_wb",
                "prefetches",
                "exe_ms",
            ],
        );
        for ((rate, name), o) in meta.into_iter().zip(outcomes) {
            let r = &o.report;
            let exe = r
                .mean_exe_time(1)
                .map(|d| format!("{:.3}", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "-".into());
            t.push_row(vec![
                format!("{rate:.0}G"),
                name.into(),
                format!("{}", r.totals.mlc_wb),
                format!("{}", r.totals.llc_wb),
                format!("{}", r.totals.prefetch_fills),
                exe,
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// DMA bloating occupancy (Sec. III observation 3, measured directly)
// ---------------------------------------------------------------------------

/// Directly measures *DMA bloating*: the share of LLC lines occupied by
/// DMA buffer regions over time, under DDIO vs IDIO, for steady traffic
/// that recycles a 1024-entry ring.
///
/// Expected shape: under DDIO the dead consumed buffers spread across the
/// non-DDIO ways until I/O data dominates the LLC; IDIO's
/// self-invalidation keeps the share near the DDIO-way footprint.
///
/// The sweep: 2 cells.
pub fn bloating_spec(scale: Scale) -> FigureSpec {
    let policies = [SteeringPolicy::Ddio, SteeringPolicy::Idio];
    let cells = policies
        .iter()
        .map(|&policy| {
            SweepCell::new(
                format!("bloating/{}", policy.label()),
                steady_cfg(scale, 10.0, scale.ring, policy, false),
            )
        })
        .collect();
    FigureSpec::new("bloating", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "bloating",
            "DMA share of LLC capacity (steady 10 Gbps/core)",
            &["policy", "mean_share", "max_share", "final_share"],
        );
        for (policy, o) in policies.into_iter().zip(outcomes) {
            let series = &o.report.timelines.dma_llc_share;
            let last = series.samples().last().map(|s| s.value).unwrap_or(0.0);
            t.push_row(vec![
                policy.label().into(),
                format!("{:.3}", series.mean()),
                format!("{:.3}", series.max_value()),
                format!("{last:.3}"),
            ]);
            t.series
                .push((format!("{}_dma_share", policy.label()), series.clone()));
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Buffer recycling modes (Sec. II-B)
// ---------------------------------------------------------------------------

/// Compares the Sec. II-B buffer-recycling modes: run-to-completion
/// (TouchDrop) vs copy-mode (TouchDropCopy, how the Linux stack works),
/// under DDIO and IDIO.
///
/// Expected shape: copy-mode roughly doubles the MLC writeback stream
/// under DDIO (dead DMA lines *and* application copies are evicted), and
/// IDIO removes the DMA-buffer share of it while the application copies —
/// live data — still write back.
///
/// The sweep: 2 stacks × 2 policies.
pub fn copy_mode_spec(scale: Scale) -> FigureSpec {
    let stacks = [
        ("run-to-completion", NfKind::TouchDrop),
        ("copy", NfKind::TouchDropCopy),
    ];
    let policies = [SteeringPolicy::Ddio, SteeringPolicy::Idio];
    let mut cells = Vec::new();
    let mut meta = Vec::new();
    for (name, kind) in stacks {
        for policy in policies {
            cells.push(SweepCell::new(
                format!("copy-mode/{name}/{}", policy.label()),
                bursty_nf_cfg(scale, 25.0, policy, kind, 1514),
            ));
            meta.push((name, policy));
        }
    }
    FigureSpec::new("copy-mode", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "copy-mode",
            "Run-to-completion vs copy-mode recycling",
            &[
                "stack",
                "policy",
                "mlc_wb",
                "llc_wb",
                "self_inval",
                "exe_ms",
            ],
        );
        for ((name, policy), o) in meta.into_iter().zip(outcomes) {
            let r = &o.report;
            let exe = r
                .mean_exe_time(1)
                .map(|d| format!("{:.3}", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "-".into());
            t.push_row(vec![
                name.into(),
                policy.label().into(),
                format!("{}", r.totals.mlc_wb),
                format!("{}", r.totals.llc_wb),
                format!("{}", r.totals.self_inval),
                exe,
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Prior-work baseline comparison (IAT, Yuan et al. ISCA'21)
// ---------------------------------------------------------------------------

/// Compares baseline DDIO, the IAT-style dynamic-DDIO-way baseline, and
/// full IDIO on TouchDrop bursts.
///
/// Expected shape (matching the paper's related-work positioning): IAT
/// reduces the DMA leak by growing the I/O partition, but — lacking
/// self-invalidation and MLC steering — it cannot remove the MLC
/// writeback stream or shorten execution the way IDIO does.
///
/// The sweep: 2 rates × 3 policies.
pub fn baselines_spec(scale: Scale) -> FigureSpec {
    let policies = [
        SteeringPolicy::Ddio,
        SteeringPolicy::IatDynamic,
        SteeringPolicy::Idio,
    ];
    let mut cells = Vec::new();
    let mut meta = Vec::new();
    for rate in [100.0f64, 25.0] {
        for policy in policies {
            cells.push(SweepCell::new(
                format!("baselines/{rate:.0}G/{}", policy.label()),
                bursty_cfg(scale, rate, policy, false),
            ));
            meta.push((rate, policy));
        }
    }
    FigureSpec::new("baselines", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "baselines",
            "DDIO vs IAT-dynamic vs IDIO (TouchDrop)",
            &["rate", "policy", "mlc_wb", "llc_wb", "dram_wr", "exe_ms"],
        );
        for ((rate, policy), o) in meta.into_iter().zip(outcomes) {
            let r = &o.report;
            let exe = r
                .mean_exe_time(1)
                .map(|d| format!("{:.3}", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "-".into());
            t.push_row(vec![
                format!("{rate:.0}G"),
                policy.label().into(),
                format!("{}", r.totals.mlc_wb),
                format!("{}", r.totals.llc_wb),
                format!("{}", r.totals.dram_wr),
                exe,
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Sweeps (ablations extending the paper's Fig. 4 analysis)
// ---------------------------------------------------------------------------

/// Ring-size sweep: normalised MLC writebacks and invalidations for DDIO
/// *and* IDIO across ring depths — extends Fig. 4 (which only measures
/// DDIO) with the proposed design.
///
/// Expected shape: DDIO transitions from invalidation-dominated (ring ≤
/// MLC capacity) to writeback-dominated (ring > MLC); IDIO turns the
/// writebacks back into (self-)invalidations at every depth.
///
/// The sweep: 5 rings × 2 policies.
pub fn ring_sweep_spec(scale: Scale) -> FigureSpec {
    let mut cells = Vec::new();
    let mut meta = Vec::new();
    for ring in [64u32, 256, 512, 1024, 2048] {
        for policy in [SteeringPolicy::Ddio, SteeringPolicy::Idio] {
            cells.push(SweepCell::new(
                format!("ring-sweep/ring{ring}/{}", policy.label()),
                steady_cfg(scale, 10.0, ring, policy, false),
            ));
            meta.push((ring, policy));
        }
    }
    FigureSpec::new("ring-sweep", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "ring-sweep",
            "Ring-depth sweep at steady 10 Gbps/core",
            &["ring", "policy", "mlc_wb/rx", "inval/rx", "self_inval/rx"],
        );
        for ((ring, policy), o) in meta.into_iter().zip(outcomes) {
            let r = &o.report;
            let rx = rx_data_lines(r, 1514).max(1);
            t.push_row(vec![
                format!("{ring}"),
                policy.label().into(),
                fmt_ratio(ratio(r.totals.mlc_wb, rx)),
                fmt_ratio(ratio(r.totals.mlc_inval_by_dma, rx)),
                fmt_ratio(ratio(r.totals.self_inval, rx)),
            ]);
        }
        t
    })
}

/// Packet-size sweep at a fixed 25 Gbps burst rate: small frames are
/// header-dominated (IDIO's always-on header steering covers them);
/// large frames exercise payload steering and invalidation.
///
/// The sweep, per size: DDIO base + IDIO.
pub fn packet_sweep_spec(scale: Scale) -> FigureSpec {
    let lens = [64u16, 256, 1024, 1514];
    let policies = [SteeringPolicy::Ddio, SteeringPolicy::Idio];
    let mut cells = Vec::new();
    for len in lens {
        for policy in policies {
            cells.push(SweepCell::new(
                format!("packet-sweep/{len}B/{}", policy.label()),
                bursty_nf_cfg(scale, 25.0, policy, NfKind::TouchDrop, len),
            ));
        }
    }
    FigureSpec::new("packet-sweep", cells, move |outcomes| {
        let mut t = FigureResult::new(
            "packet-sweep",
            "Packet-size sweep, 25 Gbps bursts",
            &["bytes", "policy", "mlc_wb", "llc_wb", "exe_ratio"],
        );
        for (i, len) in lens.into_iter().enumerate() {
            let chunk = &outcomes[i * policies.len()..(i + 1) * policies.len()];
            let base_exe = chunk[0].report.mean_exe_time(1); // DDIO
            for (policy, o) in policies.into_iter().zip(chunk) {
                let r = &o.report;
                let exe = match (r.mean_exe_time(1), base_exe) {
                    (Some(a), Some(b)) if b > Duration::ZERO => {
                        format!("{:.3}", a.as_ps() as f64 / b.as_ps() as f64)
                    }
                    _ => "-".into(),
                };
                t.push_row(vec![
                    format!("{len}"),
                    policy.label().into(),
                    format!("{}", r.totals.mlc_wb),
                    format!("{}", r.totals.llc_wb),
                    exe,
                ]);
            }
        }
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_is_aligned() {
        let t = table2();
        let s = format!("{t}");
        assert!(s.contains("TouchDrop"));
        assert!(s.contains("LLCAntagonist"));
    }

    #[test]
    fn table1_reflects_config() {
        let t = table1();
        let s = format!("{t}");
        assert!(s.contains("3 MiB"));
        assert!(s.contains("DDIO ways"));
    }

    #[test]
    fn fig5_quick_smoke_has_two_phases() {
        let f = fig5_spec(Scale::quick()).run_serial();
        assert_eq!(f.rows.len(), 3);
        // The timeline series are populated for plotting.
        assert!(f.series.iter().any(|(n, s)| n == "llc_wb" && !s.is_empty()));
        // The DMA-phase LLC-writeback spike exceeds the execution-phase
        // MLC-writeback peak under DDIO at 100 Gbps.
        let peak = |name: &str| {
            f.series
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.max_value())
                .unwrap()
        };
        assert!(peak("llc_wb") > peak("mlc_wb"));
    }

    #[test]
    fn direct_dram_quick_smoke_ratio_is_one() {
        let f = direct_dram_spec(Scale::quick()).run_serial();
        // Row order: DDIO then IDIO; column 2 is dram_wr/rx_payload.
        let idio = &f.rows[1];
        assert_eq!(idio[0], "IDIO");
        assert_eq!(idio[2], "1.000");
        assert_eq!(idio[3], "0", "zero LLC writebacks under direct DRAM");
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(0, 0), 1.0);
        assert!(ratio(5, 0).is_infinite());
        assert_eq!(fmt_ratio(ratio(1, 2)), "0.500");
        assert_eq!(fmt_ratio(f64::INFINITY), "inf");
    }
}
