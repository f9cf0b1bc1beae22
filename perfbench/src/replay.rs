//! Per-layer replays: the cache hierarchy and the flow director driven
//! directly through their public functions on each cell's own
//! configuration, outside the simulation.
//!
//! Each cell replays a fixed budget of operations, so the per-operation
//! times compare across commits. Calls are timed in batches of
//! [`BATCH`] to keep the clock's own cost out of the per-call figure.

use std::hint::black_box;
use std::time::{Duration, Instant};

use idio_core::cache::addr::{lines_covering, CoreId, LineAddr};
use idio_core::cache::config::HierarchyConfig;
use idio_core::cache::hierarchy::{DmaPlacement, Hierarchy};
use idio_core::config::{FlowSteering, SystemConfig};
use idio_core::engine::time::SimTime;
use idio_core::layout::AddressMap;
use idio_core::net::gen::{FlowSet, FlowSpec};
use idio_core::net::packet::FiveTuple;
use idio_core::nic::flow_director::{FlowDirector, QueueId, DEFAULT_FILTER_TABLE_ENTRIES};
use idio_core::nic::ring::DEFAULT_BUF_BYTES;

/// Buffer lines each cell replays through `pcie_write` then `cpu_read`.
const LINES_PER_CELL: usize = 4096;
/// Flow-director lookups each cell replays.
const LOOKUPS_PER_CELL: usize = 4096;
/// Calls per clock reading.
const BATCH: usize = 256;
/// Simulated time between replayed lookups (ATR aging runs on it).
const LOOKUP_GAP_NS: u64 = 100;

/// Replay totals over a workload's cells.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Summed `Hierarchy::new` time over the cells.
    pub hierarchy_new: Duration,
    /// Summed `pcie_write` time and call count.
    pub pcie_write: (Duration, u64),
    /// Summed `cpu_read` time and call count.
    pub cpu_read: (Duration, u64),
    /// Summed `lookup` + sampled `learn` time and lookup count.
    pub fd_lookup: (Duration, u64),
}

/// Host time of a closure.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn per_call_ns((t, n): (Duration, u64)) -> f64 {
    if n == 0 {
        0.0
    } else {
        t.as_nanos() as f64 / n as f64
    }
}

impl Replay {
    /// Host ns per `pcie_write`.
    pub fn pcie_write_ns(&self) -> f64 {
        per_call_ns(self.pcie_write)
    }

    /// Host ns per `cpu_read`.
    pub fn cpu_read_ns(&self) -> f64 {
        per_call_ns(self.cpu_read)
    }

    /// Host ns per flow-director lookup.
    pub fn fd_lookup_ns(&self) -> f64 {
        per_call_ns(self.fd_lookup)
    }
}

/// Replays every cell: `Hierarchy::new` on its effective hierarchy, DMA
/// writes and CPU reads over its buffer footprint, and flow-director
/// lookups over its flows and filter budget.
pub fn replay(cells: &[SystemConfig], hierarchies: &[HierarchyConfig]) -> Replay {
    assert_eq!(cells.len(), hierarchies.len(), "one hierarchy per cell");
    let mut out = Replay::default();
    for (cfg, h) in cells.iter().zip(hierarchies) {
        let (mut hier, t) = timed(|| Hierarchy::new(h.clone()));
        out.hierarchy_new += t;
        let lines = buffer_footprint(cfg);
        for batch in lines.chunks(BATCH) {
            let ((), t) = timed(|| {
                for &(_, line) in batch {
                    black_box(hier.pcie_write(line, DmaPlacement::Llc));
                }
            });
            out.pcie_write.0 += t;
            let ((), t) = timed(|| {
                for &(core, line) in batch {
                    black_box(hier.cpu_read(core, line));
                }
            });
            out.cpu_read.0 += t;
        }
        out.pcie_write.1 += lines.len() as u64;
        out.cpu_read.1 += lines.len() as u64;

        let (mut fd, flows) = flow_director(cfg);
        for (b, batch) in flows.chunks(BATCH).enumerate() {
            let ((), t) = timed(|| {
                for (k, flow) in batch.iter().enumerate() {
                    let now = SimTime::from_ns(((b * BATCH + k) as u64) * LOOKUP_GAP_NS);
                    let (q, src) = fd.lookup(now, flow);
                    black_box(src);
                    // Sampled completion feedback, as the completion path
                    // reports landing queues back.
                    if k % 4 == 0 {
                        fd.learn(now, flow, q);
                    }
                }
            });
            out.fd_lookup.0 += t;
        }
        out.fd_lookup.1 += flows.len() as u64;
    }
    out
}

/// The first [`LINES_PER_CELL`] lines of the cell's receive buffers, slot
/// by slot across its queues, at the addresses `System::new` lays out.
fn buffer_footprint(cfg: &SystemConfig) -> Vec<(CoreId, LineAddr)> {
    let mut map = AddressMap::new();
    let queues: Vec<_> = cfg
        .workloads
        .iter()
        .map(|w| {
            (
                w.core,
                map.alloc_queue(cfg.ring_size).buf_base,
                w.packet_len,
            )
        })
        .collect();
    let mut lines = Vec::with_capacity(LINES_PER_CELL);
    'fill: for slot in 0..u64::from(cfg.ring_size) {
        for &(core, base, len) in &queues {
            for line in lines_covering(base + slot * DEFAULT_BUF_BYTES, u64::from(len)) {
                if lines.len() == LINES_PER_CELL {
                    break 'fill;
                }
                lines.push((core, line));
            }
        }
    }
    lines
}

/// A flow director wired as `System::new` wires the cell's NIC (filter
/// budget, pins, ATR lifetime), and [`LOOKUPS_PER_CELL`] flows dealt
/// round-robin across the cell's tenants.
fn flow_director(cfg: &SystemConfig) -> (FlowDirector, Vec<FiveTuple>) {
    let queues = cfg.workloads.len().max(1) as u16;
    let mut fd = FlowDirector::with_tables(
        queues,
        cfg.perfect_filter_entries,
        DEFAULT_FILTER_TABLE_ENTRIES,
    );
    fd.set_atr_lifetime(cfg.atr_lifetime);
    let perfect = cfg.steering == FlowSteering::Perfect;
    if cfg.tenants.is_empty() {
        let flows: Vec<FiveTuple> = cfg
            .workloads
            .iter()
            .enumerate()
            .map(|(qi, w)| {
                let flow = FlowSpec::udp_to_port(5000 + qi as u16, w.packet_len)
                    .with_dscp(w.dscp)
                    .tuple;
                if perfect {
                    fd.install_perfect(flow, QueueId(qi as u16));
                }
                flow
            })
            .collect();
        // Cycling an empty list (antagonist-only cells) yields nothing.
        let stream = flows
            .iter()
            .cycle()
            .take(LOOKUPS_PER_CELL)
            .copied()
            .collect();
        return (fd, stream);
    }
    let budget = (cfg.perfect_filter_entries / cfg.tenants.len()).max(1);
    let mut sets = Vec::new();
    for (ti, t) in cfg.tenants.iter().enumerate() {
        if t.replay.is_some() {
            continue;
        }
        let mut set =
            FlowSet::new(ti as u16, t.flows, t.base_port, t.packet_len, t.dscp).with_train(t.train);
        if let Some(life) = t.churn {
            set = set.with_churn(life);
        }
        if perfect {
            let pins = (t.flows as usize).min(budget) as u64;
            for p in 0..pins {
                let slot = (p * u64::from(t.flows) / pins) as u32;
                let q = QueueId(t.workloads[slot as usize % t.workloads.len()] as u16);
                fd.install_perfect(set.tuple_of(slot), q);
            }
        }
        sets.push(set);
    }
    let mut flows = Vec::with_capacity(LOOKUPS_PER_CELL);
    for k in 0..LOOKUPS_PER_CELL {
        let Some(set) = sets.get(k % sets.len().max(1)) else {
            break;
        };
        // A multiplicative stride spreads consecutive lookups over the
        // whole flow index space.
        let slot = ((k as u64).wrapping_mul(0x9E37_79B9) % u64::from(set.flows())) as u32;
        let now = SimTime::from_ns(k as u64 * LOOKUP_GAP_NS);
        flows.push(set.tuple_of(set.index_at(slot, now)));
    }
    (fd, flows)
}
