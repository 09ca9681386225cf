//! The metric catalogue: every name the benchmark reports, its unit and
//! which direction is better. `BENCHMARK.json` lists the same metrics; a
//! test keeps the two in step.

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, from the untraced run: the ones whose spread across
/// runs of the same code fits a bound on a shared host.
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("comm_cost_mean", "hop.MB/s", "lower"),
    m("feasible_frac", "fraction", "higher"),
    m("link_load_mean_mbps", "MB/s", "lower"),
];

/// Per-layer metrics, from the traced run. `*_ms` span metrics are self
/// time summed over one round of the batch; counts are per round. The
/// simulator and batch timing figures at the end are measured on the
/// traced run's untraced rounds.
pub const PER_LAYER: [Metric; 39] = [
    m("dse.pool_busy_frac", "fraction", "higher"),
    m("dse.cache.map_hit_rate", "fraction", "higher"),
    m("dse.cache.route_hit_rate", "fraction", "higher"),
    m("dse.cache.self_ms", "ms", "lower"),
    m("dse.flows_ms", "ms", "lower"),
    m("graph.build_ms", "ms", "lower"),
    m("nmap.swap.map_ms", "ms", "lower"),
    m("nmap.swap.candidates", "count", "lower"),
    m("nmap.swap.us_per_candidate", "us", "lower"),
    m("nmap.split.map_ms", "ms", "lower"),
    m("nmap.split.lp_solves", "count", "lower"),
    m("nmap.split.ms_per_lp", "ms", "lower"),
    m("nmap.init.map_ms", "ms", "lower"),
    m("nmap.route_ms", "ms", "lower"),
    m("nmap.routes", "count", "lower"),
    m("baselines.pbb_ms", "ms", "lower"),
    m("baselines.pbb_expansions", "count", "lower"),
    m("baselines.pbb_us_per_expansion", "us", "lower"),
    m("lp.minmax.solves", "count", "lower"),
    m("lp.minmax.ms_per_solve", "ms", "lower"),
    m("lp.route.solves", "count", "lower"),
    m("lp.route.ms_per_solve", "ms", "lower"),
    m("lp.route.fallbacks", "count", "lower"),
    m("lp.route.paths_per_commodity", "paths", "lower"),
    m("sim.new_ms", "ms", "lower"),
    m("sim.run_ms", "ms", "lower"),
    m("sim.cycles", "cycles", "lower"),
    m("sim.packets", "count", "lower"),
    m("sim.executed_frac.loaded", "fraction", "lower"),
    m("sim.executed_frac.light", "fraction", "lower"),
    m("sim.ns_per_cycle.loaded", "ns", "lower"),
    m("sim.ns_per_cycle.light", "ns", "lower"),
    m("sim.ns_per_packet", "ns", "lower"),
    m("sim_latency_mean_cycles", "cycles", "lower"),
    m("sim_cycles_per_s", "cycles/s", "higher"),
    m("items_per_s", "items/s", "higher"),
    m("item_p50_ms", "ms", "lower"),
    m("item_tail_ms", "ms", "lower"),
    m("trace.overhead_frac", "fraction", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` fits the metric-name grammar: a letter or digit, then up
    /// to 63 letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Whether `unit` fits the unit grammar: 1 to 16 letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `(name, unit, better)` of every metric line in one section of
    /// `BENCHMARK.json` (one metric object per line).
    fn listed(section: &str) -> Vec<(String, String, String)> {
        let field = |line: &str, key: &str| -> String {
            let tag = format!("\"{key}\": \"");
            let start = line.find(&tag).map(|i| i + tag.len()).expect(key);
            line[start..].split('"').next().expect("closing quote").to_string()
        };
        section
            .lines()
            .filter(|l| l.contains("\"name\"") && l.contains("\"unit\""))
            .map(|l| (field(l, "name"), field(l, "unit"), field(l, "better")))
            .collect()
    }

    fn own(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics.iter().map(|m| (m.name.into(), m.unit.into(), m.better.into())).collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (e2e, layers) = text.split_once("\"per_layer\"").expect("per_layer section");
        let e2e = e2e.split_once("\"end_to_end\"").expect("end_to_end section").1;
        assert_eq!(listed(e2e), own(&END_TO_END));
        assert_eq!(listed(layers), own(&PER_LAYER));
        assert!(text.contains("\"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
    }

    #[test]
    fn names_and_units_fit_the_grammar() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(valid_unit(metric.unit), "{}: {}", metric.name, metric.unit);
            assert!(["higher", "lower"].contains(&metric.better), "{}", metric.name);
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
        }
    }

    #[test]
    fn grammar_rejects_malformed_names_and_units() {
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("9lives.ok-name_1"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("hop*MB/s"));
        assert!(!valid_unit("seventeen_chars_x"));
        assert!(valid_unit("hop.MB/s"));
    }
}
