//! Turning rounds into metrics, and printing them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::Metric;
use crate::run::{Output, Round};
use crate::stats::ratio;
use crate::trace;
use crate::workloads::{Inputs, Item, FABRIC_CAPACITY};

/// Timing of one untraced round.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Items completed per second of `pool_map` wall time.
    pub items_per_s: f64,
    /// Each item's latency, ms, in item order.
    pub item_ms: Vec<f64>,
    /// `pool_map` wall time, s.
    pub wall_s: f64,
    /// Simulated cycles per second of the engine's simulate stage
    /// (0 when nothing simulates).
    pub sim_cycles_per_s: f64,
}

impl Timing {
    /// Timing of `round`.
    pub fn of(inputs: &Inputs, round: &Round) -> Timing {
        let item_ms: Vec<f64> = round.items.iter().map(|r| r.elapsed.as_secs_f64() * 1e3).collect();
        let (mut cycles, mut sim_us) = (0.0, 0.0);
        for (item, run) in inputs.items.iter().zip(&round.items) {
            if let (Item::Scenario(s), Ok(Output::Record(r))) = (item, &run.output) {
                if let Some(spec) = &s.simulate {
                    cycles += (spec.warmup_cycles + spec.measure_cycles + spec.drain_cycles) as f64;
                    sim_us += r.times.sim_us as f64;
                }
            }
        }
        let wall_s = round.wall.as_secs_f64();
        Timing {
            items_per_s: item_ms.len() as f64 / wall_s,
            item_ms,
            wall_s,
            sim_cycles_per_s: ratio(cycles * 1e6, sim_us),
        }
    }
}

/// Each item's best (lowest) latency over `timings` (the rounds of a
/// run). Interference from the other worker and from the host only ever
/// adds time, and on a shared host it comes and goes: an item's latency
/// over the rounds has a fast mode and a slow one in a share that drifts
/// with the host's load, so the median jumps between the modes while the
/// best round stays in the fast one.
pub fn item_latencies(timings: &[Timing]) -> Vec<f64> {
    let items = timings.first().map_or(0, |t| t.item_ms.len());
    (0..items).map(|i| timings.iter().map(|t| t.item_ms[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// The best round's throughput, items/s: for the reason
/// [`item_latencies`] gives, the fastest round over the run.
pub fn best_items_per_s(timings: &[Timing]) -> f64 {
    timings.iter().map(|t| t.items_per_s).fold(0.0, f64::max)
}

/// Placement and routing quality of the outputs, deterministic per seed.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    /// Mean Equation-7 cost, hop·MB/s.
    pub comm_cost_mean: f64,
    /// Share of items whose routed loads fit the capacity.
    pub feasible_frac: f64,
    /// Mean largest link load, MB/s.
    pub link_load_mean_mbps: f64,
    /// Mean simulated packet latency, cycles (0 when nothing simulates).
    pub sim_latency_mean_cycles: f64,
}

impl Quality {
    /// Quality over the successful `outputs` (item order).
    pub fn of(inputs: &Inputs, outputs: &[Option<Output>]) -> Quality {
        let (mut n, mut cost, mut feasible, mut load) = (0.0, 0.0, 0.0, 0.0);
        let (mut sims, mut latency) = (0.0, 0.0);
        for (item, output) in inputs.items.iter().zip(outputs) {
            let Some(output) = output else { continue };
            if matches!(output, Output::Record(r) if !r.is_ok()) {
                continue;
            }
            let capacity = match item {
                Item::Candidate(_) => FABRIC_CAPACITY,
                Item::Scenario(s) => s.capacity.to_f64(),
            };
            n += 1.0;
            cost += output.comm_cost();
            load += output.link_load();
            feasible += f64::from(u8::from(output.feasible(capacity)));
            if let Output::Record(r) = output {
                if let Some(sim) = &r.sim {
                    sims += 1.0;
                    latency += sim.avg_latency_cycles.to_f64();
                }
            }
        }
        Quality {
            comm_cost_mean: ratio(cost, n),
            feasible_frac: ratio(feasible, n),
            link_load_mean_mbps: ratio(load, n),
            sim_latency_mean_cycles: ratio(latency, sims),
        }
    }
}

/// Per-layer metrics of one traced round (the `PER_LAYER` names except
/// the three computed across rounds: `sim_latency_mean_cycles`,
/// `sim_cycles_per_s` and `trace.overhead_frac`).
pub fn layers(inputs: &Inputs, round: &Round, threads: usize) -> BTreeMap<&'static str, f64> {
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut busy_ns, mut run_loaded_ns, mut run_light_ns) = (0u64, 0u64, 0u64);
    for (item, run) in inputs.items.iter().zip(&round.items) {
        let item_self = trace::self_times(&run.spans);
        for (&name, &ns) in &item_self {
            *self_ns.entry(name).or_default() += ns;
        }
        for (&name, &n) in &run.counts {
            *counts.entry(name).or_default() += n;
        }
        busy_ns +=
            run.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.duration_ns()).sum::<u64>();
        let run_ns = item_self.get("sim.run").copied().unwrap_or(0);
        match item {
            Item::Scenario(s) if s.capacity < inputs.loaded_below => run_loaded_ns += run_ns,
            _ => run_light_ns += run_ns,
        }
    }
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let ms = |name: &str| ns(name) / 1e6;
    let n = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let workers = threads.min(inputs.items.len()).max(1) as f64;
    let cache = &round.cache;
    let route_lookups = (cache.route_hits + cache.route_misses) as f64;
    let run_ns = (run_loaded_ns + run_light_ns) as f64;
    BTreeMap::from([
        ("dse.pool_busy_frac", ratio(busy_ns as f64, round.wall.as_nanos() as f64 * workers)),
        ("dse.cache.map_hit_rate", ratio(cache.map_hits as f64, cache.map_lookups() as f64)),
        ("dse.cache.route_hit_rate", ratio(cache.route_hits as f64, route_lookups)),
        ("dse.cache.self_ms", ms("dse.cache.map") + ms("dse.cache.route")),
        ("dse.flows_ms", ms("dse.flows")),
        ("graph.build_ms", ms("graph.build")),
        ("nmap.swap.map_ms", ms("nmap.swap.map")),
        ("nmap.swap.candidates", n("nmap.swap.candidates")),
        ("nmap.swap.us_per_candidate", ratio(ns("nmap.swap.map") / 1e3, n("nmap.swap.candidates"))),
        ("nmap.split.map_ms", ms("nmap.split.map")),
        ("nmap.split.lp_solves", n("nmap.split.lp_solves")),
        ("nmap.split.ms_per_lp", ratio(ms("nmap.split.map"), n("nmap.split.lp_solves"))),
        ("nmap.init.map_ms", ms("nmap.init.map")),
        ("nmap.route_ms", ms("nmap.route")),
        ("nmap.routes", n("nmap.routes")),
        ("baselines.pbb_ms", ms("baselines.pbb")),
        ("baselines.pbb_expansions", n("baselines.pbb_expansions")),
        (
            "baselines.pbb_us_per_expansion",
            ratio(ns("baselines.pbb") / 1e3, n("baselines.pbb_expansions")),
        ),
        ("lp.minmax.solves", n("lp.minmax.solves")),
        ("lp.minmax.ms_per_solve", ratio(ms("lp.minmax"), n("lp.minmax.solves"))),
        ("lp.route.solves", n("lp.route.solves")),
        ("lp.route.ms_per_solve", ratio(ms("lp.route"), n("lp.route.solves"))),
        ("lp.route.fallbacks", n("lp.route.fallbacks")),
        ("lp.route.paths_per_commodity", ratio(n("lp.route.paths"), n("lp.route.results"))),
        ("sim.new_ms", ms("sim.new")),
        ("sim.run_ms", ms("sim.run")),
        ("sim.cycles", n("sim.cycles")),
        ("sim.packets", n("sim.packets")),
        ("sim.executed_frac.loaded", ratio(n("sim.executed.loaded"), n("sim.cycles.loaded"))),
        ("sim.executed_frac.light", ratio(n("sim.executed.light"), n("sim.cycles.light"))),
        ("sim.ns_per_cycle.loaded", ratio(run_loaded_ns as f64, n("sim.cycles.loaded"))),
        ("sim.ns_per_cycle.light", ratio(run_light_ns as f64, n("sim.cycles.light"))),
        ("sim.ns_per_packet", ratio(run_ns, n("sim.packets"))),
    ])
}

/// The deterministic work of a traced round: the counts taken at its span
/// boundaries plus the simulator's executed cycles.
pub fn work(round: &Round) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for run in &round.items {
        for (&name, &n) in &run.counts {
            *out.entry(name).or_default() += n;
        }
        if let Some((_, executed)) = &run.sim {
            *out.entry("sim.executed").or_default() += executed;
        }
    }
    out
}

/// A finite number for the JSON line (a ratio over nothing is already 0;
/// this guards against a NaN slipping through).
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalogue` with its unit.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut metrics = String::new();
    for (i, m) in catalogue.iter().enumerate() {
        let value = finite(values.get(m.name).copied().unwrap_or(0.0));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

/// One aligned `name value unit [note]` line.
pub fn line(name: &str, value: f64, unit: &str, note: &str) -> String {
    let note = if note.is_empty() { String::new() } else { format!("  ({note})") };
    format!("  {name:<32} {:>16} {unit}{note}", format!("{value:.6}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    #[test]
    fn json_line_lists_every_catalogue_metric_in_order() {
        let values = BTreeMap::from([("setup_s", 0.5), ("peak_rss_mb", f64::NAN)]);
        let line = json_line(true, 10, 0, &END_TO_END, &values);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
        let mut last = 0;
        for m in END_TO_END {
            let at = line.find(&format!("\"{}\":", m.name)).expect(m.name);
            assert!(at > last);
            last = at;
        }
        assert!(!line.contains("dse."));
    }

    fn timing(items_per_s: f64, item_ms: &[f64]) -> Timing {
        Timing { items_per_s, item_ms: item_ms.to_vec(), wall_s: 1.0, sim_cycles_per_s: 0.0 }
    }

    #[test]
    fn item_latencies_and_throughput_take_each_best_round() {
        let timings =
            [timing(10.0, &[5.0, 30.0]), timing(12.5, &[9.0, 20.0]), timing(11.0, &[4.0, 25.0])];
        assert_eq!(item_latencies(&timings), vec![4.0, 20.0]);
        assert_eq!(best_items_per_s(&timings), 12.5);
        assert!(item_latencies(&[]).is_empty());
    }

    #[test]
    fn layer_metrics_cover_the_catalogue() {
        let inputs = Inputs { items: Vec::new(), loaded_below: noc_units::Mbps::ZERO };
        let round = Round {
            items: Vec::new(),
            wall: std::time::Duration::from_millis(1),
            cache: Default::default(),
            check_failures: Vec::new(),
        };
        let produced = layers(&inputs, &round, 2);
        let across_rounds = [
            "sim_latency_mean_cycles",
            "sim_cycles_per_s",
            "items_per_s",
            "item_p50_ms",
            "item_tail_ms",
            "trace.overhead_frac",
        ];
        for m in PER_LAYER {
            assert_eq!(
                produced.contains_key(m.name),
                !across_rounds.contains(&m.name),
                "{}",
                m.name
            );
        }
        assert_eq!(produced.len() + across_rounds.len(), PER_LAYER.len());
    }
}
