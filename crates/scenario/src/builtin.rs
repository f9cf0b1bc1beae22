//! The built-in scenarios: curated mixed workloads exercising the
//! steering policies under multi-tenant pressure.
//!
//! A built-in *is* its checked-in file, `examples/scenarios/<name>.toml`
//! (plus the sidecar traces under `traces/`): the files are compiled in
//! and parsed on lookup, so each scenario has exactly one definition.
//! Each built-in is golden-tested (byte-stable JSON report), so the files
//! are part of the repo's regression surface — change them deliberately
//! and re-bless.

use crate::spec::Scenario;
use crate::spec_file::parse_with_traces;

/// Name and file source of every built-in, in listing order.
const BUILTINS: [(&str, &str); 9] = [
    (
        "noisy-neighbor",
        include_str!("../../../examples/scenarios/noisy-neighbor.toml"),
    ),
    (
        "incast",
        include_str!("../../../examples/scenarios/incast.toml"),
    ),
    (
        "mixed-rate",
        include_str!("../../../examples/scenarios/mixed-rate.toml"),
    ),
    (
        "trace-replay",
        include_str!("../../../examples/scenarios/trace-replay.toml"),
    ),
    (
        "llc-duel",
        include_str!("../../../examples/scenarios/llc-duel.toml"),
    ),
    (
        "cat-duel",
        include_str!("../../../examples/scenarios/cat-duel.toml"),
    ),
    (
        "upf-chain",
        include_str!("../../../examples/scenarios/upf-chain.toml"),
    ),
    (
        "recycle-duel",
        include_str!("../../../examples/scenarios/recycle-duel.toml"),
    ),
    (
        "flow-churn",
        include_str!("../../../examples/scenarios/flow-churn.toml"),
    ),
];

/// The sidecar traces the built-in files replay, by their `replay` path.
const TRACES: [(&str, &[u8]); 1] = [(
    "traces/replay.trace",
    include_bytes!("../../../examples/scenarios/traces/replay.trace"),
)];

/// Names of the built-in scenarios, in listing order.
pub fn builtin_names() -> [&'static str; 9] {
    BUILTINS.map(|(name, _)| name)
}

/// All built-in scenarios, in listing order.
pub fn builtins() -> Vec<Scenario> {
    builtin_names()
        .iter()
        .map(|n| builtin(n).expect("listed name"))
        .collect()
}

/// Looks up a built-in scenario by name.
///
/// # Panics
///
/// Panics if the compiled-in file does not parse (a broken checkout; the
/// unit tests parse every built-in).
pub fn builtin(name: &str) -> Option<Scenario> {
    let (_, src) = BUILTINS.iter().find(|(n, _)| *n == name)?;
    let read_trace_file = |path: &str| {
        TRACES
            .iter()
            .find(|(p, _)| *p == path)
            .map(|(_, bytes)| bytes.to_vec())
            .ok_or_else(|| format!("no built-in trace '{path}'"))
    };
    let scenario = parse_with_traces(src, &read_trace_file)
        .unwrap_or_else(|e| panic!("built-in scenario '{name}': {e}"));
    Some(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_validates() {
        for name in builtin_names() {
            let sc = builtin(name).expect("lookup");
            assert_eq!(sc.name, name);
            assert!(!sc.description.is_empty());
            sc.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert_eq!(builtins().len(), builtin_names().len());
        assert!(builtin("no-such-scenario").is_none());
    }

    #[test]
    fn replay_trace_round_trips_through_the_parser() {
        let sc = builtin("trace-replay").expect("lookup");
        let arrivals = sc.tenants[0].replay.as_ref().expect("replay tenant");
        assert!(arrivals.len() > 100, "enough packets to be interesting");
        // Times are ns-quantised and non-decreasing; flows rotate.
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        let ports: std::collections::BTreeSet<u16> =
            arrivals.iter().map(|a| a.packet.flow.dst_port).collect();
        assert_eq!(ports.len(), 4, "all four flows present in the trace");
    }
}
