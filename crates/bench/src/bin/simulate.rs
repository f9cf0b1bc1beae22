//! Run a custom IDIO simulation from the command line.
//!
//! ```text
//! cargo run -p idio-bench --release --bin simulate -- \
//!     --policy idio --nf touchdrop --rate 25 --bursty --ring 1024 \
//!     --packet 1514 --cores 2 --duration-ms 20 --antagonist
//! ```
//!
//! The flags describe an [`idio_scenario::Scenario`] with one single-flow
//! tenant per core (UDP port `5000 + i` on core `i`); `--queue-policy` and
//! `--queue-pool` override one tenant. The scenario's mixed configuration
//! runs once, plus the knobs no scenario file carries (ring depth,
//! antagonist, mlcTHR, seed, trace, tick metrics). Prints the run report
//! (transaction totals, latency percentiles, burst processing times).

use std::io::Write;
use std::process::ExitCode;

use idio_core::config::{FlowSteering, SystemConfig};
use idio_core::net::gen::{BurstSpec, TrafficPattern};
use idio_core::net::packet::Dscp;
use idio_core::policy::{PolicySpec, SteeringPolicy};
use idio_core::pool::PoolSpec;
use idio_core::stack::nf::{NfChain, NfKind};
use idio_core::sweep::{run_cells, SweepCell, SweepOptions};
use idio_core::system::System;
use idio_engine::telemetry::{records_to_ndjson, TraceFilter};
use idio_engine::time::{Duration, SimTime};
use idio_scenario::{Scenario, TenantDef};

struct Args {
    policy: SteeringPolicy,
    queue_policies: Vec<(usize, SteeringPolicy)>,
    nf: NfKind,
    pool: Option<PoolSpec>,
    queue_pools: Vec<(usize, PoolSpec)>,
    rate_gbps: f64,
    bursty: bool,
    poisson: bool,
    ring: u32,
    packet: u16,
    cores: usize,
    duration_ms: u64,
    antagonist: bool,
    class1: bool,
    mlc_thr_mtps: Option<f64>,
    seed: u64,
    all_policies: bool,
    jobs: usize,
    trace: TraceFilter,
    trace_out: Option<String>,
    tick_metrics: bool,
    tick_metrics_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            policy: SteeringPolicy::Idio,
            queue_policies: Vec::new(),
            nf: NfKind::TouchDrop,
            pool: None,
            queue_pools: Vec::new(),
            rate_gbps: 25.0,
            bursty: true,
            poisson: false,
            ring: 1024,
            packet: 1514,
            cores: 2,
            duration_ms: 20,
            antagonist: false,
            class1: false,
            mlc_thr_mtps: None,
            seed: 0xD10,
            all_policies: false,
            jobs: 1,
            trace: TraceFilter::off(),
            trace_out: None,
            tick_metrics: false,
            tick_metrics_out: None,
        }
    }
}

fn usage() {
    println!(
        "usage: simulate [options]\n\
         --policy ddio|invalidate|prefetch|static|idio|iat (default idio)\n\
         --queue-policy <q>=<policy>                     core q's tenant runs <policy> instead\n\
                                                         of --policy (repeatable)\n\
         --nf touchdrop|l2fwd|payload-drop|copy|deepfwd|chain\n\
                                                         (default touchdrop; chain = the UPF\n\
                                                         parse>classify>rewrite>forward pipeline)\n\
         --pool dram|recycle|recycle:<slots>             mbuf pool for every queue (default: the\n\
                                                         implicit status quo, no pool telemetry)\n\
         --queue-pool <q>=<pool>                         per-queue override of --pool (repeatable)\n\
         --rate <gbps>                                   (default 25)\n\
         --bursty | --steady | --poisson                 (default bursty)\n\
         --ring <slots>                                  (default 1024)\n\
         --packet <bytes>                                (default 1514)\n\
         --cores <n>                                     (default 2)\n\
         --duration-ms <ms>                              (default 20)\n\
         --antagonist                                    co-run LLCAntagonist\n\
         --class1                                        mark flows app class 1\n\
         --mlc-thr <mtps>                                override mlcTHR\n\
         --seed <n>                                      PRNG seed\n\
         --all-policies                                  run every policy and compare\n\
         --jobs <n>                                      worker threads for --all-policies (0 = all cores)\n\
         --trace <filter>                                dump NDJSON trace to stdout after the report;\n\
                                                         filter is 'all' or components like 'steer,fsm'\n\
                                                         (steer fsm prefetch maint event); ignored with\n\
                                                         --all-policies\n\
         --trace-out <file>                              write the NDJSON trace to <file> instead of\n\
                                                         stdout (requires --trace)\n\
         --tick-metrics                                  dump one NDJSON line per control tick\n\
                                                         (steering-mix delta, per-core FSM states,\n\
                                                         CAT timeline) after the report; deterministic\n\
         --tick-metrics-out <file>                       write the tick-metrics NDJSON to <file>\n\
                                                         instead of stdout (implies --tick-metrics)"
    );
}

/// Splits a `<q>=<what>` per-queue override.
fn queue_override<'a>(flag: &str, what: &str, spec: &'a str) -> Result<(usize, &'a str), String> {
    let (q, value) = spec
        .split_once('=')
        .ok_or_else(|| format!("{flag} expects <q>=<{what}>, got '{spec}'"))?;
    let q = q
        .parse()
        .map_err(|e| format!("bad queue index '{q}': {e}"))?;
    Ok((q, value))
}

fn parse_policy(name: &str) -> Result<SteeringPolicy, String> {
    SteeringPolicy::from_name(name).ok_or_else(|| format!("unknown policy '{name}'"))
}

fn parse() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match a.as_str() {
            "--policy" => args.policy = parse_policy(&val("--policy")?)?,
            "--queue-policy" => {
                let spec = val("--queue-policy")?;
                let (q, name) = queue_override("--queue-policy", "policy", &spec)?;
                args.queue_policies.push((q, parse_policy(name)?));
            }
            "--nf" => {
                args.nf = match val("--nf")?.to_lowercase().as_str() {
                    "touchdrop" => NfKind::TouchDrop,
                    "l2fwd" => NfKind::L2Fwd,
                    "payload-drop" | "payloaddrop" => NfKind::L2FwdPayloadDrop,
                    "copy" => NfKind::TouchDropCopy,
                    "deepfwd" => NfKind::DeepFwd,
                    "chain" => NfKind::Chain(NfChain::upf()),
                    other => return Err(format!("unknown nf '{other}'")),
                }
            }
            "--pool" => args.pool = Some(PoolSpec::from_name(&val("--pool")?)?),
            "--queue-pool" => {
                let spec = val("--queue-pool")?;
                let (q, pool) = queue_override("--queue-pool", "pool", &spec)?;
                args.queue_pools.push((q, PoolSpec::from_name(pool)?));
            }
            "--rate" => args.rate_gbps = val("--rate")?.parse().map_err(|e| format!("{e}"))?,
            "--bursty" => args.bursty = true,
            "--steady" => args.bursty = false,
            "--poisson" => {
                args.bursty = false;
                args.poisson = true;
            }
            "--ring" => args.ring = val("--ring")?.parse().map_err(|e| format!("{e}"))?,
            "--packet" => args.packet = val("--packet")?.parse().map_err(|e| format!("{e}"))?,
            "--cores" => {
                args.cores = val("--cores")?.parse().map_err(|e| format!("{e}"))?;
                let max = usize::from(u16::MAX - BASE_PORT) + 1;
                if args.cores > max {
                    return Err(format!(
                        "--cores {} exceeds {max}: core i receives on UDP port {BASE_PORT} + i",
                        args.cores
                    ));
                }
            }
            "--duration-ms" => {
                args.duration_ms = val("--duration-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--antagonist" => args.antagonist = true,
            "--class1" => args.class1 = true,
            "--mlc-thr" => {
                args.mlc_thr_mtps = Some(val("--mlc-thr")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--trace" => args.trace = val("--trace")?.parse()?,
            "--trace-out" => args.trace_out = Some(val("--trace-out")?),
            "--tick-metrics" => args.tick_metrics = true,
            "--tick-metrics-out" => {
                args.tick_metrics = true;
                args.tick_metrics_out = Some(val("--tick-metrics-out")?);
            }
            "--all-policies" => args.all_policies = true,
            "--jobs" | "-j" => args.jobs = val("--jobs")?.parse().map_err(|e| format!("{e}"))?,
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            other if other.starts_with("--trace=") => {
                args.trace = other["--trace=".len()..].parse()?;
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(args)
}

/// Where an NDJSON dump goes: stdout, or a file created before the run so
/// that an unwritable path fails up front, not after minutes of simulated
/// time.
enum Sink {
    Stdout,
    File(String, std::fs::File),
}

impl Sink {
    /// Opens the `what` dump's sink (`path = None` is stdout).
    fn open(what: &str, path: Option<&str>) -> Result<Sink, String> {
        let Some(path) = path else {
            return Ok(Sink::Stdout);
        };
        std::fs::File::create(path)
            .map(|f| Sink::File(path.to_string(), f))
            .map_err(|e| format!("cannot create {what} file '{path}': {e}"))
    }

    /// Writes the `what` dump to the sink.
    fn write(self, what: &str, ndjson: &str) -> Result<(), String> {
        match self {
            Sink::Stdout => print!("{ndjson}"),
            Sink::File(path, mut f) => {
                f.write_all(ndjson.as_bytes())
                    .map_err(|e| format!("cannot write {what} to '{path}': {e}"))?;
                eprintln!("[{what} written to {path}]");
            }
        }
        Ok(())
    }
}

/// Core `i`'s single flow arrives on UDP port `BASE_PORT + i`.
const BASE_PORT: u16 = 5000;

/// The flags as a scenario: one single-flow tenant per core `i` on UDP
/// port `BASE_PORT + i`, carrying the NF, frame size, DSCP and pool flags, with
/// `--queue-policy` / `--queue-pool` as overrides of tenant `q`.
fn scenario(args: &Args, traffic: TrafficPattern) -> Result<Scenario, String> {
    let dscp = if args.class1 {
        Dscp::CLASS1_DEFAULT
    } else {
        Dscp::BEST_EFFORT
    };
    let mut tenants: Vec<TenantDef> = (0..args.cores as u16)
        .map(|i| TenantDef {
            pool: args.pool,
            ..TenantDef::new(
                format!("core{i}"),
                args.nf,
                vec![i],
                1,
                BASE_PORT + i,
                traffic,
                args.packet,
            )
            .with_dscp(dscp)
        })
        .collect();
    let have = tenants.len();
    for &(q, pool) in &args.queue_pools {
        let t = tenants.get_mut(q).ok_or_else(|| {
            format!("--queue-pool {q}=... names a nonexistent queue (have {have})")
        })?;
        t.pool = Some(pool);
    }
    for &(q, p) in &args.queue_policies {
        let t = tenants.get_mut(q).ok_or_else(|| {
            format!(
                "--queue-policy {q}={} names a nonexistent queue (have {have})",
                p.name()
            )
        })?;
        t.policy = Some(PolicySpec::Preset(p));
    }
    Ok(Scenario {
        name: "simulate".into(),
        description: String::new(),
        policy: args.policy,
        steering: FlowSteering::default(),
        duration: SimTime::from_ms(args.duration_ms),
        drain_grace: Duration::from_ms(5),
        perfect_filters: None,
        atr_lifetime: None,
        pool_idle_flush: None,
        tenants,
    })
}

/// The run's configuration: the scenario's mixed config plus the knobs
/// that have no scenario-file key.
fn config(args: &Args) -> Result<SystemConfig, String> {
    let period = Duration::from_ms(5);
    let traffic = if args.bursty {
        TrafficPattern::Bursty(BurstSpec::try_for_ring(
            args.ring,
            args.packet,
            args.rate_gbps,
            period,
        )?)
    } else if args.poisson {
        TrafficPattern::Poisson {
            rate_gbps: args.rate_gbps,
            seed: args.seed,
        }
    } else {
        TrafficPattern::Steady {
            rate_gbps: args.rate_gbps,
        }
    };
    let mut cfg = scenario(args, traffic)?.mixed_config();
    cfg.ring_size = args.ring;
    cfg.seed = args.seed;
    if let Some(thr) = args.mlc_thr_mtps {
        cfg.idio = cfg.idio.try_with_mlc_thr_mtps(thr)?;
    }
    cfg.trace = args.trace.clone();
    cfg.tick_metrics = args.tick_metrics;
    if args.antagonist {
        cfg = cfg.with_antagonist();
    }
    cfg.validate()?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.trace_out.is_some() && args.trace.is_off() {
        return Err("--trace-out requires --trace".into());
    }
    if args.all_policies {
        for (flag, set) in [
            ("--trace-out", args.trace_out.is_some()),
            ("--tick-metrics-out", args.tick_metrics_out.is_some()),
            ("--tick-metrics", args.tick_metrics),
            ("--queue-policy", !args.queue_policies.is_empty()),
        ] {
            if set {
                return Err(format!("{flag} cannot be combined with --all-policies"));
            }
        }
    }
    let trace_sink = Sink::open("trace", args.trace_out.as_deref())?;
    let tick_sink = Sink::open("tick-metrics", args.tick_metrics_out.as_deref())?;
    let cfg = config(args)?;

    if args.all_policies {
        let cells: Vec<SweepCell> = SteeringPolicy::ALL
            .into_iter()
            .map(|policy| {
                SweepCell::new(
                    format!("simulate/{}", policy.label()),
                    cfg.clone().with_policy(policy),
                )
            })
            .collect();
        let opts = SweepOptions {
            jobs: args.jobs,
            root_seed: args.seed,
            progress: false,
            profile_events: false,
        };
        println!(
            "comparing {} policies on {} worker(s), seed {:#x}:",
            cells.len(),
            opts.effective_jobs(),
            args.seed
        );
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
            "policy", "mlc_wb", "llc_wb", "dram_wr", "self_inv", "p99_us", "wall"
        );
        for (policy, o) in SteeringPolicy::ALL.into_iter().zip(run_cells(cells, &opts)) {
            let p99 = o
                .report
                .p99()
                .map(|d| format!("{:.1}", d.as_us_f64()))
                .unwrap_or_else(|| "-".into());
            println!(
                "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8.1?}",
                policy.label(),
                o.report.totals.mlc_wb,
                o.report.totals.llc_wb,
                o.report.totals.dram_wr,
                o.report.totals.self_inval,
                p99,
                o.wall,
            );
        }
        return Ok(());
    }

    println!(
        "simulating: {} x {} {} at {} Gbps ({}), ring {}, {} B packets, {} ms{}",
        args.cores,
        args.nf,
        args.policy,
        args.rate_gbps,
        if args.bursty {
            "bursty"
        } else if args.poisson {
            "poisson"
        } else {
            "steady"
        },
        args.ring,
        args.packet,
        args.duration_ms,
        if args.antagonist {
            ", + antagonist"
        } else {
            ""
        },
    );
    let report = System::new(cfg).run();
    print!("{report}");
    if !report.bursts.is_empty() {
        println!("bursts:");
        for b in report.bursts.iter().take(8) {
            println!(
                "  #{:<3} dma {:>10} .. {:>10}  exec_end {:>10}  exe {}  pkts {}",
                b.index,
                format!("{}", b.first_dma),
                format!("{}", b.dma_end),
                format!("{}", b.exec_end),
                b.exe_time(),
                b.packets
            );
        }
    }
    let share = &report.timelines.dma_llc_share;
    if !share.is_empty() {
        println!(
            "dma share of LLC capacity: mean {:.3}, max {:.3}",
            share.mean(),
            share.max_value()
        );
    }
    if !args.trace.is_off() {
        // NDJSON trace dump: deterministic, so it goes to stdout (or the
        // --trace-out file). The summary stays on stderr to keep stdout
        // machine-readable.
        eprintln!(
            "[trace: {} records kept, {} evicted (filter {})]",
            report.trace.len(),
            report.metrics.counter("trace.evicted"),
            args.trace
        );
        trace_sink.write("trace", &records_to_ndjson(&report.trace))?;
    }
    if args.tick_metrics {
        // Per-control-tick NDJSON timeline: deterministic (a pure function
        // of the configuration and seed), one object per 1 µs tick.
        eprintln!(
            "[tick-metrics: {} control ticks]",
            report.tick_metrics.len()
        );
        let ndjson: String = report
            .tick_metrics
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        tick_sink.write("tick-metrics", &ndjson)?;
    }
    Ok(())
}
