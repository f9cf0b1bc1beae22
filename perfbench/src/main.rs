//! The repository's benchmark: one command that generates a workload's
//! inputs from a seed, drives the simulator through its public entry
//! points at one worker, checks the outputs, and prints every metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-quick|dc-consolidation|flow-churn> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured untraced.
//! With `--trace 1` it alternates untraced and traced runs and prints the
//! per-layer metrics; spans of the first traced run are written to
//! `target/perfbench/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. See README.md.

mod output;
mod replay;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use output::Metric;
use trace::Spans;
use workload::{Iteration, Work, Workload};

const USAGE: &str = "usage: perfbench --workload <paper-quick|dc-consolidation|flow-churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = "target/perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Host timings of a layered run, from its spans.
struct Times {
    wall: Duration,
    build: Duration,
    system_new: Duration,
    system_run: Duration,
    report: Duration,
    longest_cell: Duration,
    /// Handler self time per event type (traced runs only).
    handlers: Vec<Duration>,
    /// Top-level spans' share of the wall time (meaningful for a real
    /// run, not for [`Times::representative`]).
    coverage: f64,
}

impl Times {
    fn new(spans: &Spans, wall: Duration, work: &Work) -> Self {
        Times {
            wall,
            build: spans.total("build"),
            system_new: spans.total("system_new"),
            system_run: spans.total("system_run"),
            report: spans.total("report"),
            longest_cell: spans.longest_cell(),
            handlers: work
                .events
                .iter()
                .map(|(name, _)| spans.child_total(&format!("event.{name}")))
                .collect(),
            coverage: spans.top_level_total().as_secs_f64() / wall.as_secs_f64(),
        }
    }

    /// One run's timings.
    fn of(it: &Iteration) -> Self {
        Times::new(&it.spans, it.wall, &it.work)
    }

    /// The representative run's timings (see [`Spans::representative`]):
    /// its wall time is those spans' sum plus the median time the runs
    /// spent outside spans.
    fn representative(runs: &[Iteration]) -> Self {
        let spans = Spans::representative(&runs.iter().map(|it| &it.spans).collect::<Vec<_>>());
        let mut outside: Vec<u64> = runs
            .iter()
            .map(|it| {
                it.wall
                    .saturating_sub(it.spans.top_level_total())
                    .as_nanos() as u64
            })
            .collect();
        let outside = Duration::from_nanos(trace::median_ns(&mut outside));
        Times::new(&spans, spans.top_level_total() + outside, &runs[0].work)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `(events + 0.5) / (trials + 1)`: the add-half estimate of a per-trial
/// rate. It reads a small positive rate where no event happened (no MLC
/// writeback on flow-churn, no drop on paper-quick), so these end-to-end
/// metrics are never 0 and any first event shows as a regression.
fn add_half(events: u64, trials: u64) -> f64 {
    (events as f64 + 0.5) / (trials as f64 + 1.0)
}

fn end_to_end(t: &Times, work: &Work, peak_rss_mib: f64) -> Vec<Metric> {
    let done = work.completed;
    vec![
        Metric::new("wall_s", "s", t.wall.as_secs_f64()),
        Metric::new("setup_s", "s", (t.build + t.system_new).as_secs_f64()),
        Metric::new(
            "host_ns_per_pkt",
            "ns",
            t.system_run.as_nanos() as f64 / done as f64,
        ),
        Metric::new("peak_rss_mib", "MiB", peak_rss_mib),
        Metric::new(
            "sim_latency_mean_us",
            "us",
            work.latency_ps_sum as f64 / work.latency_count as f64 / 1e6,
        ),
        Metric::new(
            "sim_p99_us",
            "us",
            work.p99_ps_sum as f64 / work.p99_count as f64 / 1e6,
        ),
        Metric::new(
            "sim_dram_bytes_per_pkt",
            "B/pkt",
            64.0 * (work.dram_rd + work.dram_wr) as f64 / done as f64,
        ),
        Metric::new("sim_mlc_wb_per_pkt", "wb/pkt", add_half(work.mlc_wb, done)),
        Metric::new(
            "sim_drop_rate",
            "ratio",
            add_half(work.rx_drops, work.arrivals),
        ),
    ]
}

/// The exact work counts, named as in `BENCHMARK.json`'s `per_layer`.
fn work_counts(work: &Work) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = work
        .events
        .iter()
        .map(|(name, n)| (format!("core.event.{name}_n"), *n))
        .collect();
    out.extend(
        [
            ("engine.cells", work.cells),
            ("engine.packets_completed", work.completed),
            ("nic.rx_packets", work.rx_packets),
            ("nic.rx_drops", work.rx_drops),
            ("nic.dma_lines", work.dma_lines),
            ("cache.steer_llc_lines", work.steer[0]),
            ("cache.steer_mlc_lines", work.steer[1]),
            ("cache.steer_dram_lines", work.steer[2]),
            ("nic.fd_perfect_n", work.fd[0]),
            ("nic.fd_atr_n", work.fd[1] + work.fd[2]),
            ("nic.fd_rss_n", work.fd[3]),
            ("nic.fd_mis_n", work.fd[4]),
            ("pool.recycled", work.pool[0]),
            ("pool.starved", work.pool[1]),
            ("pool.spilled", work.pool[2]),
            ("prefetch.issued", work.prefetch_issued),
            ("prefetch.accepted", work.prefetch_accepted),
            ("mem.dram_rd_lines", work.dram_rd),
            ("mem.dram_wr_lines", work.dram_wr),
            ("cache.llc_wb", work.llc_wb),
            ("cache.mlc_wb", work.mlc_wb),
            ("stack.self_inval_lines", work.self_inval),
            ("engine.schedule_past_clamped", work.schedule_past_clamped),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    out
}

fn per_layer(
    plain: &Times,
    traced: &Times,
    coverage: f64,
    work: &Work,
    replay: &replay::Replay,
) -> Vec<Metric> {
    let events = work.total_events();
    let fd_total: u64 = work.fd[..4].iter().sum();
    let steer_total: u64 = work.steer.iter().sum();
    let pool_total: u64 = work.pool.iter().sum();
    let mut out = vec![
        Metric::new("scenario.build_ms", "ms", ms(plain.build)),
        Metric::new("scenario.report_ms", "ms", ms(plain.report)),
        Metric::new("core.system_new_ms", "ms", ms(plain.system_new)),
        Metric::new("cache.hierarchy_new_ms", "ms", ms(replay.hierarchy_new)),
        Metric::new("core.system_run_ms", "ms", ms(plain.system_run)),
        Metric::new(
            "core.ns_per_event",
            "ns",
            plain.system_run.as_nanos() as f64 / events as f64,
        ),
        Metric::new(
            "engine.events_per_pkt",
            "events/pkt",
            ratio(events, work.completed),
        ),
        Metric::new(
            "core.run_residual_ms",
            "ms",
            ms(traced
                .system_run
                .saturating_sub(traced.handlers.iter().sum())),
        ),
    ];
    for (i, (name, _)) in work.events.iter().enumerate() {
        out.push(Metric::new(
            format!("core.event.{name}_ms"),
            "ms",
            ms(traced.handlers[i]),
        ));
    }
    out.extend([
        Metric::new("cache.pcie_write_ns", "ns", replay.pcie_write_ns()),
        Metric::new("cache.cpu_read_ns", "ns", replay.cpu_read_ns()),
        Metric::new("nic.fd_lookup_ns", "ns", replay.fd_lookup_ns()),
        Metric::new("nic.fd_perfect_share", "ratio", ratio(work.fd[0], fd_total)),
        Metric::new(
            "nic.fd_atr_share",
            "ratio",
            ratio(work.fd[1] + work.fd[2], fd_total),
        ),
        Metric::new("nic.fd_rss_share", "ratio", ratio(work.fd[3], fd_total)),
        Metric::new("nic.fd_mis_share", "ratio", ratio(work.fd[4], fd_total)),
        Metric::new(
            "cache.steer_llc_share",
            "ratio",
            ratio(work.steer[0], steer_total),
        ),
        Metric::new(
            "cache.steer_mlc_share",
            "ratio",
            ratio(work.steer[1], steer_total),
        ),
        Metric::new(
            "cache.steer_dram_share",
            "ratio",
            ratio(work.steer[2], steer_total),
        ),
        Metric::new(
            "prefetch.accept_ratio",
            "ratio",
            ratio(work.prefetch_accepted, work.prefetch_issued),
        ),
        Metric::new(
            "pool.recycle_ratio",
            "ratio",
            ratio(work.pool[0], pool_total),
        ),
        Metric::new(
            "sweep.longest_cell_share",
            "ratio",
            plain.longest_cell.as_secs_f64() / plain.wall.as_secs_f64(),
        ),
        Metric::new(
            "trace.overhead_pct",
            "%",
            (traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0,
        ),
        Metric::new("trace.span_coverage_pct", "%", coverage * 100.0),
    ]);
    out.extend(
        work_counts(work)
            .into_iter()
            .filter(|(name, _)| name != "engine.cells")
            .map(|(name, v)| Metric::new(name, "count", v as f64)),
    );
    out
}

/// Compares every layered run and the one-call references; returns the
/// number of failed cells and the problems found.
fn check(workload: Workload, seed: u64, runs: &[&Iteration]) -> Result<(u64, Vec<String>), String> {
    let first = runs[0];
    let mut failed = 0;
    let mut problems = Vec::new();
    // The two references are checks, not measurements: run them side by
    // side to keep the run short.
    let references = std::thread::scope(|s| {
        let handles = [1, 2].map(|jobs| {
            s.spawn(move || workload::reference(workload, seed, jobs).map(|r| (jobs, r)))
        });
        handles
            .map(|h| h.join().expect("reference run panicked"))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
    })?;
    for it in runs {
        failed += it.failures.len() as u64;
        problems.extend(it.failures.iter().cloned());
        if it.report != first.report || it.work != first.work {
            failed += it.work.cells;
            problems.push("a run's report or work counts differ from the first run's".into());
        }
    }
    for (jobs, (report, _)) in &references {
        if *report != first.report {
            failed += first.work.cells;
            problems.push(format!(
                "layered report differs from the one-call report at --jobs {jobs}"
            ));
        }
    }
    if references[0].1 .1 != references[1].1 .1 {
        problems.push("figure tables differ between --jobs 1 and --jobs 2".into());
    }
    if first.work.worst_p99.is_none() {
        problems.push(format!(
            "no core completed {} packets, so sim_p99_us is undefined",
            workload::P99_MIN_PACKETS
        ));
    }
    Ok((failed, problems))
}

fn bench(args: &Args) -> Result<bool, String> {
    let (w, seed) = (args.workload, args.seed);
    println!(
        "{}",
        output::object_line("fingerprint", &output::fingerprint())
    );

    // A closed loop with one client: each run starts after the previous
    // one finished. Start another run while it is expected to end less
    // than half a run past the budget, so the loop measures for the budget
    // on average.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        plain.push(workload::run(w, seed, false)?);
        if plain.len() == 1 {
            // The peak of one run; later repetitions add only the
            // allocator's fragmentation, which grows with their number.
            peak_rss = output::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        }
        if args.trace {
            traced.push(workload::run(w, seed, true)?);
        }
        let elapsed = start.elapsed();
        if elapsed + elapsed / (2 * plain.len() as u32) > budget {
            break;
        }
    }

    let runs: Vec<&Iteration> = plain.iter().chain(&traced).collect();
    let attempted: u64 = runs.iter().map(|it| it.work.cells).sum();
    let (failed, problems) = check(w, seed, &runs)?;
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let correct = failed == 0 && problems.is_empty();

    let work = &plain[0].work;
    let counts: Vec<(String, String)> = work_counts(work)
        .into_iter()
        .map(|(k, v)| (k, v.to_string()))
        .collect();
    println!("{}", output::object_line("work_counts", &counts));
    let plain_times: Vec<Times> = plain.iter().map(Times::of).collect();
    let samples = |f: fn(&Times) -> Duration| {
        let v: Vec<String> = plain_times
            .iter()
            .map(|t| f(t).as_secs_f64().to_string())
            .collect();
        format!("[{}]", v.join(", "))
    };
    println!(
        "{}",
        output::object_line(
            "samples_s",
            &[
                ("wall".into(), samples(|t| t.wall)),
                ("setup".into(), samples(|t| t.build + t.system_new)),
                ("system_run".into(), samples(|t| t.system_run)),
            ]
        )
    );
    let representative = Times::representative(&plain);
    let e2e = end_to_end(&representative, work, peak_rss);
    println!(
        "{}",
        output::table(
            &format!(
                "{} seed {seed}: {} untraced run(s), {} traced",
                w.name(),
                plain.len(),
                traced.len()
            ),
            &e2e
        )
    );
    if let Some((worst, n)) = work.worst_p99 {
        println!(
            "sim_p99_us weights the p99 of {} cores by their {} completed packets; \
             the worst of them is {} us at {n} packets\n",
            work.p99_cores,
            work.p99_count,
            worst as f64 / 1e6
        );
    }

    let metrics = if args.trace {
        let configs: Vec<_> = workload::cells(w, seed)?
            .into_iter()
            .map(|c| c.cfg)
            .collect();
        let replay = replay::replay(&configs, &traced[0].hierarchies);
        // Coverage is a property of each real run, not of the span-by-span
        // representative one; report the worst traced run's.
        let coverage = traced
            .iter()
            .map(|it| Times::of(it).coverage)
            .fold(f64::INFINITY, f64::min);
        let layers = per_layer(
            &representative,
            &Times::representative(&traced),
            coverage,
            work,
            &replay,
        );
        println!(
            "{}",
            output::table(&format!("per-layer metrics ({})", w.name()), &layers)
        );
        let t = Times::of(&traced[0]);
        println!(
            "first traced run: build {:.3} ms + System::new {:.3} ms + System::run {:.3} ms \
             + report {:.3} ms = {:.2}% of {:.3} ms wall",
            ms(t.build),
            ms(t.system_new),
            ms(t.system_run),
            ms(t.report),
            t.coverage * 100.0,
            ms(t.wall)
        );
        let path = format!("{SPAN_DIR}/spans-{}-seed{seed}.ndjson", w.name());
        std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, traced[0].spans.to_ndjson()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans: {path}");
        layers
    } else {
        e2e
    };
    println!(
        "{}",
        output::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
