//! Multi-commodity-flow formulations (Equations 5, 8, 9, 10).
//!
//! Three linear programs over per-commodity link flows `x^k_{i,j} ≥ 0`:
//!
//! * **MCF1** ([`McfKind::SlackMin`], Equation 8) — minimize the total
//!   capacity-violation slack `Σ s_{i,j}`; a zero optimum proves the
//!   mapping can meet all bandwidth constraints with split traffic.
//! * **MCF2** ([`McfKind::FlowMin`], Equation 9) — minimize the total flow
//!   `Σ x^k_{i,j}` (communication cost) subject to hard capacities.
//! * **Min-max load** ([`McfKind::MinMaxLoad`]) — minimize the uniform
//!   capacity `λ` such that every link load is ≤ λ; this computes the
//!   "minimum bandwidth needed" metric of the paper's Figure 4.
//!
//! Flow conservation (Equation 5) is imposed **per commodity** at every
//! node (the split-traffic routing tables require per-commodity flows; see
//! DESIGN.md §6 for the discussion of the paper's aggregated notation).
//! Restricting a commodity's variables to its quadrant DAG
//! ([`PathScope::Quadrant`]) yields the equal-hop-delay NMAPTM variant of
//! Equation 10; [`PathScope::AllPaths`] is the unrestricted NMAPTA.
//!
//! The min-max-load program is solved in its path form by column
//! generation (the `path_master` module, DESIGN.md §20): a restricted
//! master over a few paths per commodity, grown by shortest-path pricing
//! under the link duals. The same module solves the path forms of MCF1 and
//! MCF2 (MCF2 in two phases, MCF1 first), which score every swap candidate
//! of [`crate::map_with_splitting`] and extract its final flow.
//!
//! [`solve_mcf`]'s MCF1 and MCF2 stay in this edge formulation: the
//! engine's `mcf-*` route stage feeds their tables to the simulator, the
//! DSP sizing flow reads them, and they are the differential oracle of the
//! path forms. The edge min-max program is kept as an oracle too (and
//! behind the warm-start entry point [`solve_mcf_warm`]).

use std::collections::BTreeMap;

use noc_graph::{LinkId, NodeId, QuadrantDag, Topology};
use noc_lp::{LinearProgram, Sense, SimplexOptions, SolveError, TableauSnapshot, VarId};

use crate::routing::{LinkLoads, RoutingTables, SplitRoute};
use crate::{Commodity, MapError, Mapping, MappingProblem, Result};

pub(crate) mod path_master;

/// Which links each commodity may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathScope {
    /// Any link of the topology (NMAPTA: traffic split across all paths).
    AllPaths,
    /// Only the commodity's quadrant DAG — all paths minimal, equal hop
    /// delay (NMAPTM: split across minimum paths, Equation 10).
    Quadrant,
}

/// Which objective to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McfKind {
    /// MCF1: minimize total capacity-violation slack (Equation 8).
    SlackMin,
    /// MCF2: minimize total flow subject to capacities (Equation 9).
    FlowMin,
    /// Minimize the uniform link capacity λ needed by the mapping
    /// (capacities in the topology are ignored).
    MinMaxLoad,
}

/// Result of one MCF solve.
#[derive(Debug, Clone, PartialEq)]
pub struct McfSolution {
    /// The objective that was optimized.
    pub kind: McfKind,
    /// Optimal objective value: total slack (MCF1), total flow (MCF2) or
    /// minimal uniform capacity (min-max load).
    // lint: allow(f64-api) — the objective's unit depends on `kind`
    // (slack/flow/capacity), and MCF1 slack is legitimately negative when
    // the instance is infeasible; no single quantity type fits.
    pub objective: f64,
    /// Aggregate link loads of the optimal flow.
    pub link_loads: LinkLoads,
    /// Per-commodity routing tables: the decomposed link flows for MCF1
    /// and MCF2, the positive path columns for the min-max load.
    pub tables: RoutingTables,
}

/// Threshold below which a flow value is treated as zero when reading the
/// LP solution back (link loads, per-commodity flows) and during flow
/// decomposition (residual peeling in [`solve_mcf_for`]'s tables).
///
/// The value sits well above the simplex optimality tolerance (`1e-9`) so
/// solver round-off never materializes as phantom flow, and well below any
/// meaningful bandwidth (MB/s magnitudes in the paper's applications), so
/// real traffic is never dropped. Note the **sparse pivot's** zero test in
/// `noc-lp` is deliberately *not* this epsilon: it skips only exact `0.0`
/// multipliers, because skipping small-but-nonzero entries would change
/// the executed arithmetic and break bit-identity with the dense oracle
/// (DESIGN.md §19).
pub const FLOW_EPSILON: f64 = 1e-6;

/// Total MCF1 slack (MB/s) at or below which a mapping counts as
/// bandwidth-feasible: the split mapper's feasibility test, and the
/// phase-I verdict of the path-form MCF2.
pub(crate) const SLACK_EPSILON: f64 = 1e-6;

/// Solves the chosen MCF program for `mapping`.
///
/// # Errors
///
/// * [`MapError::IncompleteMapping`] when `mapping` leaves a core unplaced.
/// * [`MapError::Lp`] wrapping [`SolveError::Infeasible`] — only possible
///   for [`McfKind::FlowMin`] when the capacities cannot carry the traffic
///   (MCF1 and min-max load are always feasible).
/// * Other [`MapError::Lp`] variants on solver failure.
pub fn solve_mcf(
    problem: &MappingProblem,
    mapping: &Mapping,
    kind: McfKind,
    scope: PathScope,
) -> Result<McfSolution> {
    solve_mcf_for(problem.topology(), &commodities_of(problem, mapping)?, kind, scope)
}

/// The commodity set of `mapping`, or [`MapError::IncompleteMapping`] when
/// it leaves a core unplaced.
pub(crate) fn commodities_of(
    problem: &MappingProblem,
    mapping: &Mapping,
) -> Result<Vec<Commodity>> {
    let cores = problem.cores();
    if !mapping.is_complete(cores) {
        let placed = cores.cores().filter(|&c| mapping.node_of(c).is_some()).count();
        return Err(MapError::IncompleteMapping { placed, cores: cores.core_count() });
    }
    Ok(problem.commodities(mapping))
}

/// Solves the chosen MCF program for an explicit commodity set — the
/// general entry point behind [`solve_mcf`]. Passing a single commodity
/// computes per-flow link sizing (how much capacity one flow needs on each
/// link under optimal splitting), used by the DSP design flow of
/// Section 7.2.
///
/// The returned [`RoutingTables`] are indexed by the commodities' [core
/// graph edge ids](noc_graph::EdgeId), so tables from disjoint subsets can
/// be merged.
///
/// # Errors
///
/// Same conditions as [`solve_mcf`].
pub fn solve_mcf_for(
    topology: &Topology,
    commodities: &[Commodity],
    kind: McfKind,
    scope: PathScope,
) -> Result<McfSolution> {
    solve_mcf_inner(topology, commodities, kind, scope, None, None, false)
        .map(|(solution, _, _)| solution)
}

/// [`solve_mcf_for`] under explicit simplex options — the seam benches use
/// to time the sparse pivot against its dense oracle
/// ([`noc_lp::PivotMode::Dense`]) on identical MCF instances. Solutions
/// are bit-identical across pivot modes; only the wall time differs.
///
/// # Errors
///
/// Same conditions as [`solve_mcf`], plus
/// [`SolveError::InvalidOptions`] when `options` fails validation.
pub fn solve_mcf_for_with_options(
    topology: &Topology,
    commodities: &[Commodity],
    kind: McfKind,
    scope: PathScope,
    options: SimplexOptions,
) -> Result<McfSolution> {
    solve_mcf_inner(topology, commodities, kind, scope, None, Some(options), false)
        .map(|(solution, _, _)| solution)
}

/// Warm-start state carried across the bandwidth axis of a sweep: the
/// final simplex tableau of the previous capacity point (a
/// [`TableauSnapshot`]) plus enough fingerprint to refuse reuse across
/// different formulations.
///
/// Produced and consumed by [`solve_mcf_warm`]. Reuse is only valid when
/// the topology *structure* and commodity set are unchanged and only link
/// capacities (constraint right-hand sides) moved; anything else reports a
/// basis mismatch inside `noc-lp` and falls back to a cold solve. The
/// snapshot restart rebuilds the RHS column from the stored basis inverse
/// instead of refactorizing the basis, and the state is consumed — the
/// tableau moves through the solve — so a warm hit costs only the RHS
/// recompute plus a few dual pivots, with no tableau-sized copies.
#[derive(Debug, Clone, PartialEq)]
pub struct McfWarmState {
    snapshot: TableauSnapshot,
    kind: McfKind,
    scope: PathScope,
    /// Pivot count of the lineage's cold solve — the baseline for
    /// pivots-saved estimates.
    cold_pivots: usize,
}

impl McfWarmState {
    /// Heap bytes held by the captured tableau — what carrying the state
    /// across a sweep costs in memory.
    pub fn memory_bytes(&self) -> usize {
        self.snapshot.memory_bytes()
    }
}

/// Pivot counters from one [`solve_mcf_warm`] call, for probe reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McfSolveStats {
    /// Simplex pivots of this solve (dual + cleanup pivots when warm).
    pub pivots: usize,
    /// Phase-1 pivots (zero when the solve was warm-started).
    pub phase1_pivots: usize,
    /// True when the previous basis was reused (no two-phase solve ran).
    pub warm_hit: bool,
    /// Estimated pivots avoided versus the lineage's cold solve: the cold
    /// baseline minus this solve's total pivots (saturating at zero).
    pub pivots_saved: usize,
}

/// [`solve_mcf_for`] with dual-simplex warm starting: when `previous` holds
/// the tableau snapshot of a structurally identical instance (same topology
/// wiring, commodities, `kind` and `scope`; only link capacities changed),
/// the LP re-optimizes from that tableau instead of running a cold
/// two-phase solve. The state is consumed — a sweep moves one tableau
/// along the whole capacity axis without copying it. Any mismatch silently
/// falls back to the cold path, so the result is always available;
/// [`McfSolveStats::warm_hit`] reports which path ran.
///
/// # Errors
///
/// Same conditions as [`solve_mcf`].
pub fn solve_mcf_warm(
    topology: &Topology,
    commodities: &[Commodity],
    kind: McfKind,
    scope: PathScope,
    previous: Option<McfWarmState>,
) -> Result<(McfSolution, McfWarmState, McfSolveStats)> {
    let (solution, state, stats) =
        solve_mcf_inner(topology, commodities, kind, scope, previous, None, true)?;
    Ok((solution, state.expect("capture was requested"), stats))
}

fn solve_mcf_inner(
    topology: &Topology,
    commodities: &[Commodity],
    kind: McfKind,
    scope: PathScope,
    previous: Option<McfWarmState>,
    options: Option<SimplexOptions>,
    capture: bool,
) -> Result<(McfSolution, Option<McfWarmState>, McfSolveStats)> {
    if kind == McfKind::MinMaxLoad && !capture {
        let options = options.unwrap_or_default();
        let solution = path_master::solve(topology, commodities, kind, scope, options)?;
        return Ok((solution, None, McfSolveStats::default()));
    }
    let mut model = McfModel::build(topology, commodities, kind, scope);
    if let Some(options) = options {
        model.lp.set_options(options);
    }
    let reusable = previous.filter(|w| w.kind == kind && w.scope == scope);
    // Any warm-path failure — snapshot mismatch, iteration limit, even an
    // infeasibility verdict — falls back to the cold solve, so every
    // returned value *and every error* comes from either the cold path or
    // a uniqueness-guarded warm re-optimization. Sweeps with warm starting
    // on and off therefore agree error-for-error, not just value-for-value.
    // The state is consumed: a hit moves the tableau through the dual
    // simplex without copying it, and any fallback recaptures from cold.
    let warm = reusable.and_then(|w| {
        let McfWarmState { snapshot, cold_pivots, .. } = w;
        match model.lp.resolve_with_snapshot(snapshot) {
            Ok(solved) => Some((solved, cold_pivots)),
            Err(_) => None,
        }
    });
    let (solution, snapshot, stats, cold_pivots) = match warm {
        Some(((solution, snapshot, stats), cold_pivots)) => {
            (solution, Some(snapshot), stats, cold_pivots)
        }
        None if capture => {
            // Only the warm-chaining entry point pays for a snapshot
            // capture; plain solves keep the cheaper basis-only path.
            let (solution, snapshot, stats) =
                model.lp.solve_with_snapshot().map_err(MapError::from)?;
            let pivots = stats.pivots;
            (solution, Some(snapshot), stats, pivots)
        }
        None => {
            let (solution, _, stats) = model.lp.solve_with_basis().map_err(MapError::from)?;
            let pivots = stats.pivots;
            (solution, None, stats, pivots)
        }
    };
    let mcf_stats = McfSolveStats {
        pivots: stats.pivots,
        phase1_pivots: stats.phase1_pivots,
        warm_hit: stats.warm_start,
        pivots_saved: if stats.warm_start {
            cold_pivots.saturating_sub(stats.pivots + stats.refactor_pivots)
        } else {
            0
        },
    };
    let next = snapshot.map(|snapshot| McfWarmState { snapshot, kind, scope, cold_pivots });

    let mut link_loads = LinkLoads::zeros(topology.link_count());
    let mut flows: Vec<BTreeMap<LinkId, f64>> = vec![BTreeMap::new(); commodities.len()];
    for (k, vars) in model.flow_vars.iter().enumerate() {
        for &(link, var) in vars {
            let v = solution.value(var);
            if v > FLOW_EPSILON {
                link_loads.add(link, v);
                flows[k].insert(link, v);
            }
        }
    }

    let tables = decompose_flows(topology, commodities, flows);
    Ok((McfSolution { kind, objective: solution.objective, link_loads, tables }, next, mcf_stats))
}

/// Checks whether a mapping admits a feasible split-traffic routing:
/// convenience wrapper returning the MCF1 slack (0 = feasible).
///
/// # Errors
///
/// [`MapError::IncompleteMapping`] when `mapping` leaves a core unplaced;
/// [`MapError::Lp`] on solver failure.
// lint: allow(f64-api) — slack is signed (negative = infeasible), outside
// the non-negative quantity range.
pub fn mcf1_slack(problem: &MappingProblem, mapping: &Mapping, scope: PathScope) -> Result<f64> {
    Ok(solve_mcf(problem, mapping, McfKind::SlackMin, scope)?.objective)
}

/// The assembled LP plus the variable layout needed to read flows back.
struct McfModel {
    lp: LinearProgram,
    /// Per commodity: `(link, variable)` pairs in scope.
    flow_vars: Vec<Vec<(LinkId, VarId)>>,
}

impl McfModel {
    fn build(
        topology: &Topology,
        commodities: &[Commodity],
        kind: McfKind,
        scope: PathScope,
    ) -> Self {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let flow_cost = match kind {
            McfKind::FlowMin => 1.0,
            McfKind::SlackMin | McfKind::MinMaxLoad => 0.0,
        };

        // Flow variables, restricted to each commodity's scope.
        let mut flow_vars: Vec<Vec<(LinkId, VarId)>> = Vec::with_capacity(commodities.len());
        for (k, c) in commodities.iter().enumerate() {
            let mut vars = Vec::new();
            if !c.value.is_zero() && c.source != c.dest {
                let links: Vec<LinkId> = match scope {
                    PathScope::AllPaths => topology.links().map(|(id, _)| id).collect(),
                    PathScope::Quadrant => {
                        QuadrantDag::new(topology, c.source, c.dest).links().to_vec()
                    }
                };
                for link in links {
                    let var = lp.add_variable(format!("x_{k}_{link}"), flow_cost);
                    vars.push((link, var));
                }
            }
            flow_vars.push(vars);
        }

        // Per-link variable lists for the capacity rows.
        let mut per_link: Vec<Vec<VarId>> = vec![Vec::new(); topology.link_count()];
        for vars in &flow_vars {
            for &(link, var) in vars {
                per_link[link.index()].push(var);
            }
        }

        // Capacity constraints (Inequality 3 with the kind-specific twist).
        match kind {
            McfKind::SlackMin => {
                for (id, link) in topology.links() {
                    let vars = &per_link[id.index()];
                    if vars.is_empty() {
                        continue;
                    }
                    let slack = lp.add_variable(format!("s_{id}"), 1.0);
                    let mut terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
                    terms.push((slack, -1.0));
                    lp.add_le(&terms, link.capacity.to_f64());
                }
            }
            McfKind::FlowMin => {
                for (id, link) in topology.links() {
                    let vars = &per_link[id.index()];
                    if vars.is_empty() {
                        continue;
                    }
                    let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
                    lp.add_le(&terms, link.capacity.to_f64());
                }
            }
            McfKind::MinMaxLoad => {
                let lambda = lp.add_variable("lambda", 1.0);
                for (id, _) in topology.links() {
                    let vars = &per_link[id.index()];
                    if vars.is_empty() {
                        continue;
                    }
                    let mut terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
                    terms.push((lambda, -1.0));
                    lp.add_le(&terms, 0.0);
                }
            }
        }

        // Flow conservation (Equation 5), per commodity, per node.
        // The destination row is the negative sum of the others, so it is
        // dropped to keep the basis smaller.
        for (k, c) in commodities.iter().enumerate() {
            if flow_vars[k].is_empty() {
                continue;
            }
            // node -> terms
            let mut incident: BTreeMap<NodeId, Vec<(VarId, f64)>> = BTreeMap::new();
            for &(link, var) in &flow_vars[k] {
                let l = topology.link(link);
                incident.entry(l.src).or_default().push((var, 1.0));
                incident.entry(l.dst).or_default().push((var, -1.0));
            }
            for node in topology.nodes() {
                if node == c.dest {
                    continue;
                }
                let rhs = if node == c.source { c.value.to_f64() } else { 0.0 };
                match incident.get(&node) {
                    Some(terms) => lp.add_eq(terms, rhs),
                    None => {
                        debug_assert_eq!(rhs, 0.0, "source must touch scope links");
                    }
                }
            }
        }

        Self { lp, flow_vars }
    }
}

/// Decomposes per-commodity link flows into weighted paths (routing-table
/// form). Standard flow decomposition: repeatedly walk from the source
/// along positive-residual links to the destination, peel off the
/// bottleneck. Residual cycles (possible in non-optimal or slack solutions)
/// are discarded — they carry no source-to-destination traffic.
fn decompose_flows(
    topology: &Topology,
    commodities: &[Commodity],
    mut flows: Vec<BTreeMap<LinkId, f64>>,
) -> RoutingTables {
    // Tables are indexed by core-graph edge id, not by position in the
    // (possibly subset) commodity list.
    let table_len = commodities.iter().map(|c| c.edge.index() + 1).max().unwrap_or(0);
    let mut routes: Vec<Vec<SplitRoute>> = vec![Vec::new(); table_len];
    for (k, c) in commodities.iter().enumerate() {
        if c.value.is_zero() || c.source == c.dest {
            continue;
        }
        let slot = c.edge.index();
        let residual = &mut flows[k];
        let mut guard = 0usize;
        while guard < 10_000 {
            guard += 1;
            let Some(path) = positive_path(topology, residual, c.source, c.dest) else {
                break;
            };
            let bottleneck = path.iter().map(|l| residual[l]).fold(f64::INFINITY, f64::min);
            debug_assert!(bottleneck > 0.0);
            for l in &path {
                let v = residual.get_mut(l).expect("path uses residual links");
                *v -= bottleneck;
                if *v <= FLOW_EPSILON {
                    residual.remove(l);
                }
            }
            routes[slot].push(SplitRoute { links: path, fraction: bottleneck / c.value.to_f64() });
        }
        // Normalize round-off so fractions sum to exactly 1 when they are
        // already within tolerance of it.
        let total: f64 = routes[slot].iter().map(|r| r.fraction).sum();
        if total > 0.0 && (total - 1.0).abs() < 1e-3 {
            for r in &mut routes[slot] {
                r.fraction /= total;
            }
        }
    }
    RoutingTables::from_split_routes(routes)
}

/// Finds any source→dest path through links with positive residual flow
/// (BFS, deterministic by link order). Returns the link list.
fn positive_path(
    topology: &Topology,
    residual: &BTreeMap<LinkId, f64>,
    source: NodeId,
    dest: NodeId,
) -> Option<Vec<LinkId>> {
    let mut prev: Vec<Option<LinkId>> = vec![None; topology.node_count()];
    let mut seen = vec![false; topology.node_count()];
    seen[source.index()] = true;
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(n) = queue.pop_front() {
        if n == dest {
            let mut path = Vec::new();
            let mut cursor = dest;
            while cursor != source {
                let link = prev[cursor.index()].expect("reached via a link");
                path.push(link);
                cursor = topology.link(link).src;
            }
            path.reverse();
            return Some(path);
        }
        for (id, link) in topology.out_links(n) {
            if !seen[link.dst.index()] && residual.get(&id).copied().unwrap_or(0.0) > FLOW_EPSILON {
                seen[link.dst.index()] = true;
                prev[link.dst.index()] = Some(id);
                queue.push_back(link.dst);
            }
        }
    }
    None
}

/// Converts an LP infeasibility into a clearer error for FlowMin callers.
pub(crate) fn is_infeasible(err: &MapError) -> bool {
    matches!(err, MapError::Lp(SolveError::Infeasible))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{CoreGraph, Topology};

    /// One 300 MB/s flow between adjacent corners of a 2x2 mesh whose links
    /// carry only 100 MB/s each: split routing is required (and sufficient:
    /// two link-disjoint paths of 100+... wait, 2x2 offers exactly 2
    /// disjoint paths between adjacent nodes: direct (1 hop) and around
    /// (3 hops) — 200 MB/s total on link-disjoint routes, but link loads
    /// can also share... direct 100 + around 100 = 200 < 300: infeasible;
    /// with 150 MB/s links it becomes feasible (150 + 150).
    fn one_flow_problem(link_cap: f64, value: f64) -> (MappingProblem, Mapping) {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, value).unwrap();
        let t = Topology::mesh(2, 2, link_cap);
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(4);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(1));
        (p, m)
    }

    #[test]
    fn single_commodity_min_flow_uses_shortest_path() {
        let (p, m) = one_flow_problem(1000.0, 300.0);
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        // All 300 on the single 1-hop path: total flow = 300.
        assert!((sol.objective - 300.0).abs() < 1e-6, "objective {}", sol.objective);
        assert_eq!(sol.tables.routes_of(noc_graph::EdgeId::new(0)).len(), 1);
        assert!((sol.link_loads.max() - 300.0).abs() < 1e-6);
    }

    #[test]
    fn capacity_forces_split() {
        let (p, m) = one_flow_problem(150.0, 300.0);
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        // 150 direct (1 hop) + 150 around (3 hops) = 600 total flow.
        assert!((sol.objective - 600.0).abs() < 1e-4, "objective {}", sol.objective);
        assert_eq!(sol.tables.routes_of(noc_graph::EdgeId::new(0)).len(), 2);
        assert!(sol.link_loads.within_capacity(p.topology()));
    }

    #[test]
    fn flow_min_detects_infeasible_capacities() {
        let (p, m) = one_flow_problem(100.0, 300.0);
        let err = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap_err();
        assert!(is_infeasible(&err), "expected infeasible, got {err:?}");
    }

    #[test]
    fn slack_min_measures_violation() {
        let (p, m) = one_flow_problem(100.0, 300.0);
        let sol = solve_mcf(&p, &m, McfKind::SlackMin, PathScope::AllPaths).unwrap();
        // Best split: 100 + 100 over the two disjoint routes leaves 100
        // excess; the cheapest placement of the excess adds 100 slack on
        // one link (e.g. 200 on the direct link).
        assert!((sol.objective - 100.0).abs() < 1e-4, "slack {}", sol.objective);
    }

    #[test]
    fn slack_is_zero_when_feasible() {
        let (p, m) = one_flow_problem(150.0, 300.0);
        assert!(mcf1_slack(&p, &m, PathScope::AllPaths).unwrap() < 1e-6);
        let (p, m) = one_flow_problem(300.0, 300.0);
        assert!(mcf1_slack(&p, &m, PathScope::AllPaths).unwrap() < 1e-6);
    }

    #[test]
    fn quadrant_scope_prevents_detours() {
        // Adjacent nodes: the quadrant is exactly the direct link, so a
        // 300 MB/s flow over 150 MB/s links has slack 150 under Quadrant
        // scope (cannot use the 3-hop detour) but 0 under AllPaths.
        let (p, m) = one_flow_problem(150.0, 300.0);
        let q = mcf1_slack(&p, &m, PathScope::Quadrant).unwrap();
        assert!((q - 150.0).abs() < 1e-4, "quadrant slack {q}");
        let a = mcf1_slack(&p, &m, PathScope::AllPaths).unwrap();
        assert!(a < 1e-6);
    }

    /// A partial mapping is a typed error from every entry point, not a
    /// panic inside the commodity construction.
    #[test]
    fn incomplete_mapping_is_a_typed_error() {
        let (p, _) = one_flow_problem(150.0, 300.0);
        let mut m = Mapping::new(4);
        m.place(noc_graph::CoreId::new(0), NodeId::new(0));
        let expected = MapError::IncompleteMapping { placed: 1, cores: 2 };
        for kind in [McfKind::SlackMin, McfKind::FlowMin, McfKind::MinMaxLoad] {
            for scope in [PathScope::Quadrant, PathScope::AllPaths] {
                assert_eq!(solve_mcf(&p, &m, kind, scope).unwrap_err(), expected);
            }
        }
        assert_eq!(mcf1_slack(&p, &m, PathScope::AllPaths).unwrap_err(), expected);
        assert_eq!(expected.to_string(), "the mapping places 1 of the application's 2 cores");
    }

    #[test]
    fn min_max_load_balances_two_paths() {
        // 2x2 mesh, diagonal flow of 200: two minimal paths, perfect split
        // gives 100 per link.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 200.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 2, 1e9)).unwrap();
        let mut m = Mapping::new(4);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(3));
        let sol = solve_mcf(&p, &m, McfKind::MinMaxLoad, PathScope::Quadrant).unwrap();
        assert!((sol.objective - 100.0).abs() < 1e-6, "lambda {}", sol.objective);
        assert!((sol.link_loads.max() - 100.0).abs() < 1e-4);
    }

    #[test]
    fn quadrant_routes_have_equal_hops() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 500.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(3, 3, 1e9)).unwrap();
        let mut m = Mapping::new(9);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(8)); // opposite corner, 4 hops
        let sol = solve_mcf(&p, &m, McfKind::MinMaxLoad, PathScope::Quadrant).unwrap();
        for r in sol.tables.routes_of(noc_graph::EdgeId::new(0)) {
            assert_eq!(r.links.len(), 4, "NMAPTM path not minimal");
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let (p, m) = one_flow_problem(150.0, 300.0);
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        let total: f64 =
            sol.tables.routes_of(noc_graph::EdgeId::new(0)).iter().map(|r| r.fraction).sum();
        assert!((total - 1.0).abs() < 1e-6, "fractions sum to {total}");
    }

    #[test]
    fn loads_match_decomposed_tables() {
        let (p, m) = one_flow_problem(150.0, 300.0);
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        let recomputed = sol.tables.link_loads(p.topology(), &p.commodities(&m));
        for (id, _) in p.topology().links() {
            assert!(
                (sol.link_loads.get(id) - recomputed.get(id)).abs() < 1e-4,
                "link {id}: lp={} tables={}",
                sol.link_loads.get(id),
                recomputed.get(id)
            );
        }
    }

    #[test]
    fn zero_value_commodities_are_skipped() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        g.add_comm(a, b, 0.0).unwrap();
        g.add_comm(b, c, 100.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 2, 1e9)).unwrap();
        let mut m = Mapping::new(4);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(1));
        m.place(c, NodeId::new(3));
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        assert!(sol.tables.routes_of(noc_graph::EdgeId::new(0)).is_empty());
        assert_eq!(sol.tables.routes_of(noc_graph::EdgeId::new(1)).len(), 1);
        assert!((sol.objective - 100.0).abs() < 1e-6);
    }

    #[test]
    fn multi_commodity_sharing_respects_capacity() {
        // Two 100 MB/s flows share a 2x1 mesh with a single channel of
        // capacity 150: FlowMin is infeasible; SlackMin reports 50.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        let d = g.add_core("d");
        g.add_comm(a, b, 100.0).unwrap();
        g.add_comm(c, d, 100.0).unwrap();
        let t = Topology::mesh(2, 2, 150.0);
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(4);
        // Both flows forced across the same column pair: a,c on column 0.
        m.place(a, NodeId::new(0));
        m.place(c, NodeId::new(2));
        m.place(b, NodeId::new(1));
        m.place(d, NodeId::new(3));
        // Feasible: each flow has its own row channel. Loads stay 100.
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        assert!(sol.link_loads.within_capacity(p.topology()));
        assert!((sol.objective - 200.0).abs() < 1e-4);
    }
}

#[cfg(test)]
mod warm_start_tests {
    use noc_graph::{EdgeId, RandomGraphConfig, Topology};
    use noc_units::Mbps;

    use super::*;

    /// Warm and cold solves must agree on the *entire* solution — the
    /// objective, the link loads and the decomposed per-commodity routing
    /// tables — across a shrinking-capacity sweep, on seeded random
    /// graphs. This is the identity contract that lets `--warm-lp` keep
    /// sweep outputs byte-identical.
    #[test]
    fn warm_and_cold_solves_are_identical_across_a_capacity_sweep() {
        for seed in [1u64, 7, 42] {
            let graph = RandomGraphConfig { cores: 10, ..Default::default() }.generate(seed);
            for kind in [McfKind::FlowMin, McfKind::SlackMin] {
                let mut warm: Option<McfWarmState> = None;
                for cap in [5000.0, 4000.0, 3000.0, 2500.0, 2000.0, 1500.0, 1200.0, 1000.0] {
                    let problem =
                        MappingProblem::new(graph.clone(), Topology::mesh(4, 3, cap)).unwrap();
                    let mapping = crate::initialize(&problem);
                    let commodities = problem.commodities(&mapping);
                    let scope = PathScope::AllPaths;
                    let cold = solve_mcf_for(problem.topology(), &commodities, kind, scope);
                    let warmed =
                        solve_mcf_warm(problem.topology(), &commodities, kind, scope, warm.take());
                    match (cold, warmed) {
                        (Ok(c), Ok((w, next, stats))) => {
                            assert_eq!(c, w, "seed {seed} {kind:?} cap {cap}");
                            if stats.warm_hit {
                                assert_eq!(stats.phase1_pivots, 0, "warm solves skip phase 1");
                            }
                            warm = Some(next);
                        }
                        (Err(ce), Err(we)) => {
                            assert_eq!(
                                is_infeasible(&ce),
                                is_infeasible(&we),
                                "seed {seed} {kind:?} cap {cap}"
                            );
                            warm = None;
                        }
                        (c, w) => {
                            panic!("seed {seed} {kind:?} cap {cap}: cold {c:?} vs warm {w:?}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn warm_state_is_not_reused_across_kinds_or_scopes() {
        let graph = RandomGraphConfig { cores: 8, ..Default::default() }.generate(3);
        let problem = MappingProblem::new(graph, Topology::mesh(3, 3, 5_000.0)).unwrap();
        let mapping = crate::initialize(&problem);
        let commodities = problem.commodities(&mapping);
        let (_, state, first) = solve_mcf_warm(
            problem.topology(),
            &commodities,
            McfKind::FlowMin,
            PathScope::AllPaths,
            None,
        )
        .unwrap();
        assert!(!first.warm_hit);
        let (_, _, cross_kind) = solve_mcf_warm(
            problem.topology(),
            &commodities,
            McfKind::SlackMin,
            PathScope::AllPaths,
            Some(state.clone()),
        )
        .unwrap();
        assert!(!cross_kind.warm_hit, "basis must not cross formulations");
        let (_, _, cross_scope) = solve_mcf_warm(
            problem.topology(),
            &commodities,
            McfKind::FlowMin,
            PathScope::Quadrant,
            Some(state),
        )
        .unwrap();
        assert!(!cross_scope.warm_hit, "basis must not cross path scopes");
    }

    /// In the capacity-binding regime a single flow over two unequal-length
    /// paths has a *unique* optimal split, so the uniqueness guard admits
    /// the warm answer and the dual simplex actually serves the sweep.
    #[test]
    fn warm_hits_in_binding_capacity_regimes() {
        use noc_graph::CoreGraph;
        let instance = |cap: f64| {
            let mut g = CoreGraph::new();
            let a = g.add_core("a");
            let b = g.add_core("b");
            g.add_comm(a, b, 300.0).unwrap();
            let p = MappingProblem::new(g, Topology::mesh(2, 2, cap)).unwrap();
            let mut m = Mapping::new(4);
            m.place(a, NodeId::new(0));
            m.place(b, NodeId::new(1));
            (p, m)
        };
        let mut warm: Option<McfWarmState> = None;
        let mut hits = 0usize;
        for cap in [1000.0, 290.0, 250.0, 200.0, 160.0] {
            let (p, m) = instance(cap);
            let commodities = p.commodities(&m);
            let cold =
                solve_mcf_for(p.topology(), &commodities, McfKind::FlowMin, PathScope::AllPaths)
                    .unwrap();
            let (w, next, stats) = solve_mcf_warm(
                p.topology(),
                &commodities,
                McfKind::FlowMin,
                PathScope::AllPaths,
                warm.take(),
            )
            .unwrap();
            assert_eq!(cold, w, "cap {cap}");
            if stats.warm_hit {
                hits += 1;
                assert_eq!(stats.phase1_pivots, 0);
            }
            warm = Some(next);
        }
        assert!(hits >= 2, "expected warm hits in the binding regime, got {hits}");
    }

    /// Pins [`FLOW_EPSILON`] as the decomposition boundary: residual flow
    /// exactly at the threshold is treated as zero, flow above it routes.
    #[test]
    fn flow_epsilon_is_the_decomposition_boundary() {
        let t = Topology::mesh(2, 2, 1e9);
        let (direct, _) = t
            .out_links(NodeId::new(0))
            .find(|(_, l)| l.dst == NodeId::new(1))
            .expect("adjacent link");
        let commodity = |v: f64| Commodity {
            edge: EdgeId::new(0),
            value: Mbps::new(v).unwrap(),
            source: NodeId::new(0),
            dest: NodeId::new(1),
        };
        let above = 2.0 * FLOW_EPSILON;
        let tables =
            decompose_flows(&t, &[commodity(above)], vec![BTreeMap::from([(direct, above)])]);
        assert_eq!(tables.routes_of(EdgeId::new(0)).len(), 1, "above the threshold must route");
        let tables = decompose_flows(
            &t,
            &[commodity(FLOW_EPSILON)],
            vec![BTreeMap::from([(direct, FLOW_EPSILON)])],
        );
        assert!(tables.routes_of(EdgeId::new(0)).is_empty(), "at the threshold is treated as zero");
    }
}

#[cfg(test)]
mod determinism_tests {
    use noc_graph::{RandomGraphConfig, Topology};

    use super::*;

    /// Repeated solves of the same MCF instance must produce identical
    /// solutions — objective, link loads *and* decomposed routing tables.
    /// This is what the `BTreeMap` flow/incidence containers buy: with
    /// hash maps the flow decomposition would visit links in unspecified
    /// order and could emit the same flow split as differently-ordered
    /// (or differently-tie-broken) route lists between runs.
    #[test]
    fn repeated_solves_are_identical() {
        let graph = RandomGraphConfig { cores: 12, ..Default::default() }.generate(5);
        let problem =
            MappingProblem::new(graph, Topology::mesh(4, 3, 5_000.0)).expect("12 cores fit 4x3");
        let mapping = crate::initialize(&problem);
        for kind in [McfKind::FlowMin, McfKind::SlackMin, McfKind::MinMaxLoad] {
            let first = solve_mcf(&problem, &mapping, kind, PathScope::AllPaths).unwrap();
            for run in 1..4 {
                let again = solve_mcf(&problem, &mapping, kind, PathScope::AllPaths).unwrap();
                assert_eq!(again, first, "{kind:?} diverged on run {run}");
            }
        }
    }
}

#[cfg(test)]
mod failure_injection_tests {
    use super::*;
    use noc_graph::{CoreGraph, Topology};
    use noc_lp::SolveError;

    /// LP failures other than infeasibility must propagate as
    /// `MapError::Lp`, not be silently converted to `maxvalue`.
    #[test]
    fn iteration_limit_propagates_from_split_mapper() {
        // A problem large enough that a 1-pivot budget cannot solve it.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        g.add_comm(a, b, 100.0).unwrap();
        g.add_comm(b, c, 100.0).unwrap();
        let problem = MappingProblem::new(g, Topology::mesh(2, 2, 1e9)).unwrap();
        let mapping = crate::initialize(&problem);

        // Build the same MCF2 model by hand with a crippled pivot budget.
        let commodities = problem.commodities(&mapping);
        let model = McfModel::build(
            problem.topology(),
            &commodities,
            McfKind::FlowMin,
            PathScope::AllPaths,
        );
        let mut lp = model.lp;
        lp.set_options(noc_lp::SimplexOptions { max_iterations: 1, ..Default::default() });
        assert_eq!(lp.solve().unwrap_err(), SolveError::IterationLimit);
        // And the conversion path used by the mappers:
        let err: MapError = SolveError::IterationLimit.into();
        assert!(!is_infeasible(&err));
        assert!(err.to_string().contains("iteration limit"));
    }
}
