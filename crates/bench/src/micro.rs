//! The workspace's timing harness: the `bench` binary times each
//! workload with [`measure`] and records the results as labelled
//! [`Snapshot`]s in a `BENCH_*.json` file ([`render_bench_file`],
//! [`append_snapshot`]); `bench --check` reads the newest baseline back
//! with [`last_entry_median`].

use std::time::{Duration, Instant};

use idio_engine::json;

/// Schema tag written into every `BENCH_*.json` file.
pub const BENCH_SCHEMA: &str = "idio-bench/1";

/// Wall-time statistics for one benchmark over repeated runs.
///
/// Percentiles use the nearest-rank rule over the sorted run times, so
/// small run counts stay meaningful: with 5 runs the median is the third
/// fastest and the p90 the slowest.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Benchmark name, e.g. `event_queue/monotonic`.
    pub name: String,
    /// Number of timed runs behind the statistics.
    pub runs: usize,
    /// Nearest-rank median wall time, milliseconds.
    pub median_ms: f64,
    /// Nearest-rank 90th-percentile wall time, milliseconds.
    pub p90_ms: f64,
    /// Fastest run, milliseconds.
    pub min_ms: f64,
}

fn nearest_rank_ms(sorted: &[Duration], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1].as_secs_f64() * 1e3
}

impl RunStats {
    /// One-line JSON object (fixed key order, 3 decimal places).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\": {}, \"runs\": {}, \"median_ms\": {:.3}, \"p90_ms\": {:.3}, \"min_ms\": {:.3}}}",
            json::string(&self.name), self.runs, self.median_ms, self.p90_ms, self.min_ms
        )
    }
}

/// Times `runs` calls of `f` and reduces them to [`RunStats`].
///
/// The workload should do its own setup inside `f` only if that setup is
/// part of what is being measured; `measure` adds nothing but the timer.
pub fn measure<R>(name: &str, runs: usize, mut f: impl FnMut() -> R) -> RunStats {
    assert!(runs > 0, "need at least one run");
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed());
    }
    times.sort_unstable();
    RunStats {
        name: name.to_string(),
        runs,
        median_ms: nearest_rank_ms(&times, 50.0),
        p90_ms: nearest_rank_ms(&times, 90.0),
        min_ms: nearest_rank_ms(&times, 0.0001),
    }
}

/// One labelled set of benchmark results, e.g. everything measured at a
/// given commit ("pre-calendar-queue").
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Free-form label for this measurement point.
    pub label: String,
    /// Per-benchmark statistics, in execution order.
    pub entries: Vec<RunStats>,
}

impl Snapshot {
    fn render(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| format!("        {}", e.to_json()))
            .collect();
        format!(
            "    {{\n      \"label\": {},\n      \"entries\": [\n{}\n      ]\n    }}",
            json::string(&self.label),
            entries.join(",\n")
        )
    }
}

/// Marker at the end of every bench file this module writes; `append`
/// splices new snapshots in front of it.
const BENCH_TAIL: &str = "\n  ]\n}\n";

/// Renders a fresh `BENCH_*.json` document holding `snapshots`.
pub fn render_bench_file(suite: &str, snapshots: &[Snapshot]) -> String {
    let body: Vec<String> = snapshots.iter().map(Snapshot::render).collect();
    format!(
        "{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"suite\": \"{suite}\",\n  \"snapshots\": [\n{}{BENCH_TAIL}",
        body.join(",\n")
    )
}

/// Appends `snap` to an existing bench file's snapshot array.
///
/// The splice only trusts documents this module wrote itself (same schema
/// tag and structural tail); anything else is replaced wholesale so a
/// corrupt file can never poison later snapshots.
pub fn append_snapshot(existing: Option<&str>, suite: &str, snap: &Snapshot) -> String {
    if let Some(doc) = existing {
        let recognised =
            doc.contains(&format!("\"schema\": \"{BENCH_SCHEMA}\"")) && doc.ends_with(BENCH_TAIL);
        if recognised {
            let head = &doc[..doc.len() - BENCH_TAIL.len()];
            return format!("{head},\n{}{BENCH_TAIL}", snap.render());
        }
    }
    render_bench_file(suite, std::slice::from_ref(snap))
}

/// Extracts the most recent `median_ms` recorded for workload `name` from
/// a bench document written by [`render_bench_file`] /
/// [`append_snapshot`].
///
/// Snapshots are appended chronologically, so the *last* entry line naming
/// the workload is the newest baseline. Returns `None` when the document
/// never measured that workload (or isn't a bench file at all) — callers
/// gating CI on the ratio should treat that as "no baseline, cannot gate".
pub fn last_entry_median(doc: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let line = doc.lines().rev().find(|l| l.contains(&needle))?;
    let rest = line.split("\"median_ms\": ").nth(1)?;
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_cases() {
        let runs: Vec<Duration> = (1..=5).map(Duration::from_millis).collect();
        assert_eq!(nearest_rank_ms(&runs, 50.0), 3.0);
        assert_eq!(nearest_rank_ms(&runs, 90.0), 5.0);
        let one = [Duration::from_millis(7)];
        assert_eq!(nearest_rank_ms(&one, 50.0), 7.0);
        assert_eq!(nearest_rank_ms(&one, 90.0), 7.0);
    }

    #[test]
    fn measure_produces_ordered_stats() {
        let s = measure("busy", 5, || std::hint::black_box((0..500).sum::<u64>()));
        assert_eq!(s.runs, 5);
        assert!(s.min_ms <= s.median_ms && s.median_ms <= s.p90_ms);
        assert!(s.to_json().starts_with("{\"name\": \"busy\""));
    }

    fn snap(label: &str) -> Snapshot {
        Snapshot {
            label: label.to_string(),
            entries: vec![RunStats {
                name: "w".into(),
                runs: 3,
                median_ms: 1.0,
                p90_ms: 2.0,
                min_ms: 0.5,
            }],
        }
    }

    #[test]
    fn append_splices_into_own_format() {
        let doc = render_bench_file("engine", &[snap("pre")]);
        let merged = append_snapshot(Some(&doc), "engine", &snap("post"));
        assert_eq!(merged.matches("\"label\"").count(), 2);
        assert!(merged.contains("\"pre\"") && merged.contains("\"post\""));
        assert!(merged.ends_with(BENCH_TAIL));
        // Appending twice keeps splicing cleanly.
        let thrice = append_snapshot(Some(&merged), "engine", &snap("later"));
        assert_eq!(thrice.matches("\"label\"").count(), 3);
        // Balanced structure without a JSON parser dependency.
        assert_eq!(thrice.matches('{').count(), thrice.matches('}').count());
        assert_eq!(thrice.matches('[').count(), thrice.matches(']').count());
    }

    #[test]
    fn append_replaces_unrecognised_documents() {
        let merged = append_snapshot(Some("not json at all"), "engine", &snap("post"));
        assert!(merged.starts_with("{\n  \"schema\""));
        assert_eq!(merged.matches("\"label\"").count(), 1);
    }

    #[test]
    fn last_entry_median_reads_newest_snapshot() {
        let mut old = snap("pre");
        old.entries[0].median_ms = 100.0;
        let mut new = snap("post");
        new.entries[0].median_ms = 42.5;
        let doc = render_bench_file("engine", &[old, new]);
        assert_eq!(last_entry_median(&doc, "w"), Some(42.5));
        assert_eq!(last_entry_median(&doc, "missing"), None);
        assert_eq!(last_entry_median("not a bench file", "w"), None);
    }

    #[test]
    fn appended_labels_are_escaped_and_round_trip() {
        let label = "a\nb\t\"c\"";
        let doc = render_bench_file("engine", &[snap("pre")]);
        let merged = append_snapshot(Some(&doc), "engine", &snap(label));
        // The escaped label stays on its own line: no raw control
        // character or bare quote leaks into the document.
        let line = merged
            .lines()
            .rev()
            .find(|l| l.trim_start().starts_with("\"label\": "))
            .expect("appended label line");
        let value = line
            .trim()
            .strip_prefix("\"label\": ")
            .and_then(|v| v.strip_suffix(','))
            .expect("label value");
        assert_eq!(value, r#""a\nb\t\"c\"""#);
        // Undo the JSON escapes and recover the original label.
        let inner = &value[1..value.len() - 1];
        let mut decoded = String::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                decoded.push(c);
                continue;
            }
            decoded.push(match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                Some(other) => other,
                None => panic!("dangling escape in {value}"),
            });
        }
        assert_eq!(decoded, label);
        assert!(merged.ends_with(BENCH_TAIL));
    }
}
