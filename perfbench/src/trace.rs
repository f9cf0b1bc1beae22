//! Spans recorded around the benchmark's own calls into the program.
//!
//! A span has a name, an id (the workload name, or the cell label), the
//! span that contains it, and its start and end in nanoseconds from the
//! run's origin. Spans stay in memory and are written out as NDJSON when
//! the run ends.
//!
//! A traced cell's event handlers are measured inside the program
//! (`profile_events`) and reported per event type, not per call. Each
//! type becomes one child span of the cell's `System::run`, laid end to
//! end from the parent's start, so the parent's self time is `System::run`
//! minus the handlers' self time.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use idio_core::report::EventTypeProfile;

/// The median of `values`, the mean of the middle two for an even count.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median_ns(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called: `build`, `system_new`, `system_run`, `report`,
    /// or `event.<type>` for a handler child span.
    pub name: String,
    /// The workload name or the cell label.
    pub id: String,
    /// Index of the containing span.
    pub parent: Option<usize>,
    /// Start, in ns from the origin.
    pub start_ns: u64,
    /// End, in ns from the origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// The spans of one run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Starts a run; its origin is now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Host time since the origin.
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &str, id: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            id: id.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Adds one child span per event type with handler time under
    /// `parent`, laid end to end from the parent's start.
    pub fn handler_children(&mut self, parent: usize, profile: &[EventTypeProfile]) {
        let mut at = self.spans[parent].start_ns;
        let id = self.spans[parent].id.clone();
        for p in profile.iter().filter(|p| p.count > 0) {
            let end = at + p.wall.as_nanos() as u64;
            self.spans.push(Span {
                name: format!("event.{}", p.name),
                id: id.clone(),
                parent: Some(parent),
                start_ns: at,
                end_ns: end,
            });
            at = end;
        }
    }

    /// The representative run of `runs`, which all recorded the same
    /// sequence of spans, built span by span: each span lasts its median
    /// duration across the runs. Top-level spans are laid end to end from
    /// 0 and children from their parent's start, so the sums below apply
    /// unchanged.
    ///
    /// Interference from other tenants of a shared host comes and goes
    /// within a run, in bursts of seconds. A span's median over every
    /// repetition of the run reads the host's typical speed during the run
    /// and moves less between runs than its shortest observation, which
    /// reads whether one fast moment happened to fall on it.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty or the runs' span sequences differ.
    pub fn representative(runs: &[&Spans]) -> Spans {
        let first = runs[0];
        assert!(
            runs.iter().all(|r| r.spans.len() == first.spans.len()),
            "runs of one workload record the same spans"
        );
        let mut spans: Vec<Span> = Vec::with_capacity(first.spans.len());
        let mut at = 0;
        for (i, s) in first.spans.iter().enumerate() {
            let mut ds: Vec<u64> = runs
                .iter()
                .map(|r| r.spans[i].end_ns - r.spans[i].start_ns)
                .collect();
            let d = median_ns(&mut ds);
            // A child follows its parent or its previous sibling.
            let start = match s.parent {
                None => at,
                Some(p) if spans[i - 1].parent == Some(p) => spans[i - 1].end_ns,
                Some(p) => spans[p].start_ns,
            };
            if s.parent.is_none() {
                at = start + d;
            }
            spans.push(Span {
                end_ns: start + d,
                start_ns: start,
                ..s.clone()
            });
        }
        Spans {
            origin: first.origin,
            spans,
        }
    }

    /// Summed duration of the top-level spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Summed duration of the child spans named `name`.
    pub fn child_total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some() && s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Summed duration of every top-level span.
    pub fn top_level_total(&self) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration)
            .sum()
    }

    /// The longest cell: its `System::new` plus `System::run`.
    pub fn longest_cell(&self) -> Duration {
        let mut best = Duration::ZERO;
        let mut current: Option<(&str, Duration)> = None;
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            match s.name.as_str() {
                "system_new" => current = Some((&s.id, s.duration())),
                "system_run" => {
                    if let Some((id, new)) = current.take() {
                        debug_assert_eq!(id, s.id);
                        best = best.max(new + s.duration());
                    }
                }
                _ => {}
            }
        }
        best
    }

    /// The spans as NDJSON, one object per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":{},\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                crate::output::json_string(&s.name),
                crate::output::json_string(&s.id),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_children_sit_inside_their_parent() {
        let mut spans = Spans::new();
        let run = spans.begin("system_run", "cell", None);
        std::thread::sleep(Duration::from_millis(2));
        spans.end(run);
        let profile = [
            EventTypeProfile {
                name: "arrival",
                count: 3,
                wall: Duration::from_micros(300),
            },
            EventTypeProfile {
                name: "antagonist",
                count: 0,
                wall: Duration::ZERO,
            },
            EventTypeProfile {
                name: "core_wake",
                count: 5,
                wall: Duration::from_micros(700),
            },
        ];
        spans.handler_children(run, &profile);
        assert_eq!(spans.spans.len(), 3, "types with no events add no span");
        let parent = &spans.spans[run];
        for child in &spans.spans[1..] {
            assert_eq!(child.parent, Some(run));
            assert!(child.start_ns >= parent.start_ns && child.end_ns <= parent.end_ns);
        }
        assert_eq!(
            spans.child_total("event.core_wake"),
            Duration::from_micros(700)
        );
        assert_eq!(spans.top_level_total(), parent.duration());
    }

    #[test]
    fn representative_takes_each_span_median() {
        let run = |new_ns: u64, run_ns: u64, handler_ns: u64| {
            let mut s = Spans::new();
            s.spans = vec![
                Span {
                    name: "system_new".into(),
                    id: "c".into(),
                    parent: None,
                    start_ns: 0,
                    end_ns: new_ns,
                },
                Span {
                    name: "system_run".into(),
                    id: "c".into(),
                    parent: None,
                    start_ns: new_ns + 5,
                    end_ns: new_ns + 5 + run_ns,
                },
                Span {
                    name: "event.core_wake".into(),
                    id: "c".into(),
                    parent: Some(1),
                    start_ns: new_ns + 5,
                    end_ns: new_ns + 5 + handler_ns,
                },
            ];
            s
        };
        let (a, b, c) = (run(10, 100, 80), run(20, 90, 70), run(40, 95, 90));
        let f = Spans::representative(&[&a, &b, &c]);
        assert_eq!(f.total("system_new"), Duration::from_nanos(20));
        assert_eq!(f.total("system_run"), Duration::from_nanos(95));
        assert_eq!(f.child_total("event.core_wake"), Duration::from_nanos(80));
        assert_eq!(f.top_level_total(), Duration::from_nanos(115));
        assert_eq!(f.longest_cell(), Duration::from_nanos(115));
        let even = Spans::representative(&[&a, &b]);
        assert_eq!(
            even.total("system_new"),
            Duration::from_nanos(15),
            "an even count takes the mean of the middle two"
        );
        let (parent, child) = (&f.spans[1], &f.spans[2]);
        assert!(child.start_ns >= parent.start_ns && child.end_ns <= parent.end_ns);
    }
}
