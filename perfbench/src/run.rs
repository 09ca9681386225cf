//! One round of a workload: every item dispatched at once through
//! `noc_dse::pool_map`, either untraced (the engine's own entry points,
//! timed around each item's top-level call) or traced (the same public
//! calls the engine makes, each wrapped in a span).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use nmap::mcf::solve_mcf;
use nmap::routing::{route_min_paths, route_xy};
use nmap::{
    map_single_path, EvalContext, LinkLoads, MapError, Mapping, MappingProblem, McfKind, PathScope,
    RoutingTables, SinglePathOptions,
};
use noc_dse::cache::{map_key, route_key};
use noc_dse::{
    flows_from_tables, pool_map, run_scenario_cached, topology_label, CacheStats, MapperSpec,
    RoutingSpec, RunRecord, Scenario, SimStats, StageCache, StageTimes,
};
use noc_lp::SolveError;
use noc_probe::Probe;
use noc_sim::{SimReport, Simulator};
use noc_units::Mbps;

use crate::check;
use crate::trace::{Span, Tracer};
use crate::workloads::{Candidate, CandidateOut, Inputs, Item};

/// What an item produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A candidate's placement and LP solution.
    Candidate(Box<CandidateOut>),
    /// An engine scenario's record (times included; see [`Output::untimed`]).
    Record(Box<RunRecord>),
}

impl Output {
    /// The output with wall-clock fields cleared, for comparisons.
    pub fn untimed(&self) -> Output {
        match self {
            Output::Record(r) => Output::Record(Box::new(RunRecord {
                times: StageTimes::default(),
                ..(**r).clone()
            })),
            other => other.clone(),
        }
    }

    /// Equation-7 cost of the placement, hop·MB/s.
    pub fn comm_cost(&self) -> f64 {
        match self {
            Output::Candidate(c) => c.nmap.comm_cost.to_f64(),
            Output::Record(r) => r.comm_cost.to_f64(),
        }
    }

    /// Largest link load, MB/s: the min-max LP objective for candidates,
    /// the routed maximum for scenarios.
    pub fn link_load(&self) -> f64 {
        match self {
            Output::Candidate(c) => c.min_max.objective,
            Output::Record(r) => r.max_link_load.to_f64(),
        }
    }

    /// Whether the routed loads fit the link capacity.
    pub fn feasible(&self, capacity: f64) -> bool {
        match self {
            Output::Candidate(c) => c.min_max.objective <= capacity,
            Output::Record(r) => r.feasible,
        }
    }
}

/// One item's result in one round.
#[derive(Debug)]
pub struct ItemRun {
    /// The output, or why there is none (error or panic).
    pub output: Result<Output, String>,
    /// Wall time of the item's top-level call.
    pub elapsed: Duration,
    /// Simulator report and executed-cycle count (traced runs only).
    pub sim: Option<(SimReport, u64)>,
    /// Spans and counts (traced runs only).
    pub spans: Vec<Span>,
    /// Counts taken at the span boundaries (traced runs only).
    pub counts: BTreeMap<&'static str, u64>,
}

/// One round of the batch.
#[derive(Debug)]
pub struct Round {
    /// Per-item results, in item order.
    pub items: Vec<ItemRun>,
    /// Wall time of the `pool_map` call.
    pub wall: Duration,
    /// The round's cache counters, read before any check touched the cache.
    pub cache: CacheStats,
    /// Per-item check failures (`None` = passed).
    pub check_failures: Vec<Option<String>>,
}

/// Runs one round of `inputs` on `threads` workers; `traced` selects the
/// traced variant. Checks run after the timed call and fill
/// [`Round::check_failures`].
pub fn round(inputs: &Inputs, threads: usize, traced: bool) -> Round {
    let cache = StageCache::in_memory();
    let epoch = Instant::now();
    let items = pool_map(inputs.items.len(), threads, |i| {
        let start = Instant::now();
        let mut tracer = traced.then(|| Tracer::new(epoch, i));
        let item = &inputs.items[i];
        let result = catch_unwind(AssertUnwindSafe(|| match tracer.as_mut() {
            None => untraced(item, &cache).map(|o| (o, None)),
            Some(t) => t.span("item", |t| traced_item(item, &cache, inputs.loaded_below, t)),
        }));
        let elapsed = start.elapsed();
        let (output, sim) = match result {
            Ok(Ok((output, sim))) => (Ok(output), sim),
            Ok(Err(e)) => (Err(e), None),
            Err(panic) => (Err(panic_message(panic.as_ref())), None),
        };
        let (spans, counts) = tracer.map(Tracer::into_parts).unwrap_or_default();
        ItemRun { output, elapsed, sim, spans, counts }
    });
    let wall = epoch.elapsed();
    let stats = cache.stats();
    let check_failures = inputs
        .items
        .iter()
        .zip(&items)
        .map(|(item, run)| check_item(item, run, &cache).err())
        .collect();
    Round { items, wall, cache: stats, check_failures }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("panicked: {text}")
}

/// The untraced item: the engine's and the exploration's own entry points.
fn untraced(item: &Item, cache: &StageCache) -> Result<Output, String> {
    match item {
        Item::Candidate(c) => {
            c.run().map(|o| Output::Candidate(Box::new(o))).map_err(|e| e.to_string())
        }
        Item::Scenario(s) => {
            Ok(Output::Record(Box::new(run_scenario_cached(s, &Probe::default(), cache))))
        }
    }
}

type Traced = (Output, Option<(SimReport, u64)>);

fn traced_item(
    item: &Item,
    cache: &StageCache,
    loaded_below: Mbps,
    t: &mut Tracer,
) -> Result<Traced, String> {
    match item {
        Item::Candidate(c) => traced_candidate(c, t).map_err(|e| e.to_string()),
        Item::Scenario(s) => traced_scenario(s, cache, loaded_below, t),
    }
}

fn traced_candidate(c: &Candidate, t: &mut Tracer) -> nmap::Result<Traced> {
    let problem =
        t.span("graph.build", |_| MappingProblem::new(c.graph.clone(), c.topology.clone()))?;
    let nmap =
        t.span("nmap.swap.map", |_| map_single_path(&problem, &SinglePathOptions::default()))?;
    t.count("nmap.swap.candidates", nmap.evaluations as u64);
    let min_max = t.span("lp.minmax", |_| {
        solve_mcf(&problem, &nmap.mapping, McfKind::MinMaxLoad, PathScope::AllPaths)
    })?;
    t.count("lp.minmax.solves", 1);
    Ok((Output::Candidate(Box::new(CandidateOut { nmap, min_max })), None))
}

/// The span a mapper's `place` runs in, and the count its work measure
/// feeds.
fn mapper_layer(mapper: &MapperSpec) -> (&'static str, &'static str) {
    match mapper {
        MapperSpec::NmapInit => ("nmap.init.map", "nmap.init.evaluations"),
        MapperSpec::Nmap(_) | MapperSpec::Sa(_) | MapperSpec::Tabu(_) => {
            ("nmap.swap.map", "nmap.swap.candidates")
        }
        MapperSpec::NmapSplit { .. } => ("nmap.split.map", "nmap.split.lp_solves"),
        MapperSpec::Pbb(_) => ("baselines.pbb", "baselines.pbb_expansions"),
        MapperSpec::Pmap | MapperSpec::Gmap => ("baselines.constructive", "baselines.evaluations"),
    }
}

/// The engine's scenario pipeline through its public calls: build, the
/// memoized map and route stages, then flows and the simulator.
fn traced_scenario(
    s: &Scenario,
    cache: &StageCache,
    loaded_below: Mbps,
    t: &mut Tracer,
) -> Result<Traced, String> {
    let problem = t.span("graph.build", |_| s.problem()).map_err(|e| e.to_string())?;
    let (map_span, map_count) = mapper_layer(&s.mapper);
    let (mapped, _) = t.span("dse.cache.map", |t| {
        cache.map_stage(&map_key(s), &problem, || {
            t.span(map_span, |t| {
                let mut ctx = EvalContext::new(&problem);
                let placed = s.mapper.mapper(s.seed).place(&mut ctx).map_err(|e| e.to_string());
                if let Ok((_, work)) = &placed {
                    t.count(map_count, *work as u64);
                }
                placed
            })
        })
    });
    let (mapping, evaluations) = mapped?;
    let need_tables = s.simulate.is_some();
    let (routed, _) = t.span("dse.cache.route", |t| {
        cache.route_stage(&route_key(s, need_tables), || {
            traced_route(&problem, &mapping, s.routing, need_tables, t).map_err(|e| e.to_string())
        })
    });
    let (tables, loads) = routed?;

    let mut sim = None;
    let sim_stats = match &s.simulate {
        None => None,
        Some(spec) => {
            let tables = tables.as_ref().ok_or("route stage returned no tables")?;
            let flows = t.span("dse.flows", |_| flows_from_tables(&problem, &mapping, tables));
            let config = spec.sim_config(s.seed);
            let packet_bytes = config.packet_bytes;
            let mut simulator = t.span("sim.new", |_| {
                let mut sim = Simulator::new(problem.topology(), flows, config);
                sim.set_loop_kind(spec.loop_kind);
                sim
            });
            let report = t.span("sim.run", |_| simulator.run());
            let executed = simulator.executed_cycles();
            let loaded = s.capacity < loaded_below;
            t.count("sim.cycles", report.cycles);
            t.count("sim.packets", report.generated_packets);
            t.count(if loaded { "sim.cycles.loaded" } else { "sim.cycles.light" }, report.cycles);
            t.count(if loaded { "sim.executed.loaded" } else { "sim.executed.light" }, executed);
            let stats = sim_stats(&report, problem.topology().link_count(), packet_bytes);
            sim = Some((report, executed));
            Some(stats)
        }
    };

    let record = RunRecord {
        scenario: s.label.clone(),
        cores: problem.cores().core_count(),
        topology: topology_label(problem.topology()),
        capacity: s.capacity,
        mapper: s.mapper.name(),
        routing: s.routing.name().to_string(),
        seed: s.seed,
        error: String::new(),
        feasible: loads.within_capacity(problem.topology()),
        comm_cost: problem.comm_cost(&mapping),
        max_link_load: Mbps::raw(loads.max()),
        total_load: Mbps::raw(loads.total()),
        evaluations,
        sim: sim_stats,
        times: StageTimes::default(),
    };
    Ok((Output::Record(Box::new(record)), sim))
}

/// The route stage's compute: single-path routers, or the MCF2 program
/// with the MCF1 fallback when capacities cannot carry the traffic.
fn traced_route(
    problem: &MappingProblem,
    mapping: &Mapping,
    routing: RoutingSpec,
    need_tables: bool,
    t: &mut Tracer,
) -> nmap::Result<(Option<RoutingTables>, LinkLoads)> {
    let scope = match routing {
        RoutingSpec::MinPath | RoutingSpec::Xy => {
            let router = if routing == RoutingSpec::MinPath { route_min_paths } else { route_xy };
            t.count("nmap.routes", 1);
            let (paths, loads) = t.span("nmap.route", |_| router(problem, mapping))?;
            return Ok((need_tables.then(|| RoutingTables::from_single_paths(&paths)), loads));
        }
        RoutingSpec::McfQuadrant => PathScope::Quadrant,
        RoutingSpec::McfAllPaths => PathScope::AllPaths,
    };
    t.count("lp.route.solves", 1);
    let solution =
        match t.span("lp.route", |_| solve_mcf(problem, mapping, McfKind::FlowMin, scope)) {
            Err(MapError::Lp(SolveError::Infeasible)) => {
                t.count("lp.route.solves", 1);
                t.count("lp.route.fallbacks", 1);
                t.span("lp.route", |_| solve_mcf(problem, mapping, McfKind::SlackMin, scope))?
            }
            other => other?,
        };
    t.count("lp.route.results", 1);
    t.count("lp.route.paths", solution.tables.max_paths_per_commodity() as u64);
    Ok((Some(solution.tables), solution.link_loads))
}

/// The record's simulation columns, from the report (as the engine folds
/// them).
fn sim_stats(report: &SimReport, link_count: usize, packet_bytes: usize) -> SimStats {
    let delivered_mbps = if report.measure_cycles == 0 {
        Mbps::ZERO
    } else {
        Mbps::raw(
            report.latency.count() as f64 * packet_bytes as f64 / report.measure_cycles as f64
                * 1000.0,
        )
    };
    let max_link_mbps = (0..link_count)
        .map(|l| report.link_throughput_mbps(noc_graph::LinkId::new(l)))
        .fold(Mbps::ZERO, Mbps::max);
    SimStats {
        avg_latency_cycles: report.avg_latency_cycles(),
        avg_network_latency_cycles: report.avg_network_latency_cycles(),
        p95_latency_cycles: report.latency.quantile_upper_bound(0.95).unwrap_or(0),
        delivered_mbps,
        max_link_mbps,
        saturated: report.saturated(),
    }
}

/// Checks one item's output with the independent checkers. Scenario
/// outputs are checked against the placement and routing the round's
/// cache holds for them, which are the values the engine used.
fn check_item(item: &Item, run: &ItemRun, cache: &StageCache) -> Result<(), String> {
    let output = run.output.as_ref().map_err(Clone::clone)?;
    match (item, output) {
        (Item::Candidate(candidate), Output::Candidate(c)) => check_candidate(candidate, c),
        (Item::Scenario(s), Output::Record(r)) => {
            if !r.is_ok() {
                return Err(r.error.clone());
            }
            if let Some((report, _)) = &run.sim {
                check::simulation(report.delivered_packets, report.generated_packets)?;
            }
            check_scenario(s, r, cache)
        }
        _ => Err("output kind does not match the item".to_string()),
    }
}

fn check_candidate(candidate: &Candidate, c: &CandidateOut) -> Result<(), String> {
    let (graph, topology) = (&candidate.graph, &candidate.topology);
    check::routed_placement(
        graph,
        topology,
        &c.nmap.mapping,
        &c.nmap.tables,
        c.nmap.link_loads.as_slice(),
    )?;
    // The min-max program prices flow at zero, so its optimum may carry
    // circulations: only its objective is checked, not its tables.
    check::min_max(c.min_max.objective, c.min_max.link_loads.as_slice(), c.nmap.link_loads.max())
}

fn check_scenario(s: &Scenario, record: &RunRecord, cache: &StageCache) -> Result<(), String> {
    let problem = s.problem().map_err(|e| e.to_string())?;
    const NOT_CACHED: &str = "stage result missing from the cache";
    let (mapping, _) = cache.map_stage(&map_key(s), &problem, || Err(NOT_CACHED.into())).0?;
    let need_tables = s.simulate.is_some();
    let (tables, loads) =
        cache.route_stage(&route_key(s, need_tables), || Err(NOT_CACHED.into())).0?;
    let tables = match tables {
        Some(tables) => tables,
        // Loads-only single-path results: re-derive the paths to check them.
        None => {
            let router = if s.routing == RoutingSpec::Xy { route_xy } else { route_min_paths };
            let (paths, _) = router(&problem, &mapping).map_err(|e| e.to_string())?;
            RoutingTables::from_single_paths(&paths)
        }
    };
    check::routed_placement(
        problem.cores(),
        problem.topology(),
        &mapping,
        &tables,
        loads.as_slice(),
    )?;
    let max = loads.as_slice().iter().copied().fold(0.0, f64::max);
    if record.max_link_load.to_f64() != max {
        return Err(format!("record max load {} but route stage max {max}", record.max_link_load));
    }
    Ok(())
}
