//! Column generation for the MCF programs in their path view: Equations
//! 8–10 (DESIGN.md §20).
//!
//! The edge formulation carries one variable per commodity per link and one
//! conservation row per commodity per node. Here the **restricted master**
//! carries path flows `f_{k,p} ≥ 0`, one demand row `Σ_p f_{k,p} = d_k` per
//! commodity and one capacity row per link that some column uses. The
//! program decides the objective and the capacity row:
//!
//! ```text
//! min-max load:  min λ               Σ_{(k,p) ∋ l} f_{k,p} − λ   ≤ 0
//! MCF1:          min Σ_l s_l         Σ_{(k,p) ∋ l} f_{k,p} − s_l ≤ c_l
//! MCF2:          min Σ |p|·f_{k,p}   Σ_{(k,p) ∋ l} f_{k,p}       ≤ c_l
//! ```
//!
//! MCF2 runs in two phases over one column set. Phase I is the MCF1 master:
//! a slack above [`SLACK_EPSILON`] proves the capacities cannot carry the
//! traffic. Phase II re-prices the same columns by hop count.
//!
//! Each round solves the master cold and prices every link with
//! `π_l = −y_l ≥ 0` (the capacity-row duals). A path's reduced cost is
//! `Σ_{l∈p} (h + π_l) − σ_k`, where the hop cost `h` is 1 under MCF2 and 0
//! otherwise, so one shortest-path search per commodity over its links in
//! scope finds the most negative one. The commodity price `σ_k` — the dual
//! of its demand row, which as an equality has no slack column to read —
//! comes from complementary slackness: every path carrying positive flow is
//! basic, so its reduced cost is zero. A path whose reduced cost is below
//! `−PRICING_TOLERANCE · max(1, σ_k)` joins the master; the loop stops when
//! no commodity has one, which is the LP optimality condition of the full
//! path program and hence of the edge program.

use noc_graph::{LinkId, NodeId, QuadrantDag, Topology};
use noc_lp::{LinearProgram, Sense, SimplexOptions, SolveError, VarId};

use super::{McfKind, McfSolution, PathScope, FLOW_EPSILON, SLACK_EPSILON};
use crate::routing::{RoutingTables, SplitRoute};
use crate::{Commodity, MapError, Result};

/// Relative reduced-cost threshold a priced path must beat to enter the
/// master. It matches the simplex optimality tolerance, so a path already
/// in the master (reduced cost ≥ −1e-9 at the master optimum) never
/// re-qualifies through round-off.
const PRICING_TOLERANCE: f64 = 1e-9;

/// Cap on pricing rounds per phase. Every round adds at least one path not
/// yet in the master, so the loop terminates on its own; the cap turns a
/// pathological instance into [`SolveError::IterationLimit`] instead of an
/// unbounded run.
const MAX_ROUNDS: usize = 10_000;

/// One commodity that carries traffic: its demand and its path columns.
struct Demand<'a> {
    commodity: &'a Commodity,
    value: f64,
    /// The links the commodity may use under [`PathScope::Quadrant`];
    /// `None` means every link.
    scope: Option<QuadrantDag>,
    /// Path columns, in the order they entered the master.
    paths: Vec<Vec<LinkId>>,
}

/// The optimum of one restricted master.
struct MasterOptimum {
    objective: f64,
    /// Path flows, one vector per demand in column order.
    flows: Vec<Vec<f64>>,
    /// Link prices `π_l`, zero for links no column uses.
    prices: Vec<f64>,
}

/// Solves the `kind` program by column generation; `options` govern every
/// master solve.
///
/// # Errors
///
/// [`SolveError::Infeasible`] when a commodity's destination is unreachable
/// in scope, or for [`McfKind::FlowMin`] when the least total slack exceeds
/// [`SLACK_EPSILON`]; [`SolveError::IterationLimit`] past [`MAX_ROUNDS`].
pub(crate) fn solve(
    topology: &Topology,
    commodities: &[Commodity],
    kind: McfKind,
    scope: PathScope,
    options: SimplexOptions,
) -> Result<McfSolution> {
    // Zero prices make the search return a minimum-hop path.
    let zero = vec![0.0; topology.link_count()];
    let mut demands: Vec<Demand> = Vec::new();
    for c in commodities.iter().filter(|c| !c.value.is_zero() && c.source != c.dest) {
        let scope = match scope {
            PathScope::AllPaths => None,
            PathScope::Quadrant => Some(QuadrantDag::new(topology, c.source, c.dest)),
        };
        let mut demand = Demand { commodity: c, value: c.value.to_f64(), scope, paths: Vec::new() };
        let (path, _) =
            shortest_path(topology, &zero, &demand).ok_or(MapError::Lp(SolveError::Infeasible))?;
        demand.paths.push(path);
        demands.push(demand);
    }

    let (objective, flows) = match kind {
        McfKind::FlowMin => {
            let (slack, _) = generate(topology, &mut demands, McfKind::SlackMin, options)?;
            if slack > SLACK_EPSILON {
                return Err(MapError::Lp(SolveError::Infeasible));
            }
            generate(topology, &mut demands, McfKind::FlowMin, options)?
        }
        McfKind::SlackMin | McfKind::MinMaxLoad => generate(topology, &mut demands, kind, options)?,
    };
    let tables = route_tables(commodities, &demands, &flows);
    let link_loads = tables.link_loads(topology, commodities);
    Ok(McfSolution { kind, objective, link_loads, tables })
}

/// Grows the columns of `demands` until the `kind` master is optimal for
/// the full path program; returns its objective and path flows.
fn generate(
    topology: &Topology,
    demands: &mut [Demand],
    kind: McfKind,
    options: SimplexOptions,
) -> Result<(f64, Vec<Vec<f64>>)> {
    if demands.is_empty() {
        return Ok((0.0, Vec::new()));
    }
    let hop_cost = if kind == McfKind::FlowMin { 1.0 } else { 0.0 };
    for _ in 0..MAX_ROUNDS {
        let MasterOptimum { objective, flows, prices } =
            solve_master(topology, demands, kind, options)?;
        let weights: Vec<f64> = prices.iter().map(|p| hop_cost + p).collect();
        let mut added = false;
        for (demand, flow) in demands.iter_mut().zip(&flows) {
            let length = |path: &[LinkId]| path.iter().map(|l| weights[l.index()]).sum::<f64>();
            let basic = demand.paths.iter().zip(flow).find(|&(_, &f)| f > 0.0);
            // At a feasible master some path of a positive demand carries
            // flow; the minimum over the columns is the same dual-feasible
            // bound should round-off zero them all.
            let sigma = match basic {
                Some((path, _)) => length(path),
                None => demand.paths.iter().map(|p| length(p)).fold(f64::INFINITY, f64::min),
            };
            let Some((path, distance)) = shortest_path(topology, &weights, demand) else {
                continue;
            };
            if distance - sigma < -PRICING_TOLERANCE * sigma.max(1.0)
                && !demand.paths.contains(&path)
            {
                demand.paths.push(path);
                added = true;
            }
        }
        if !added {
            return Ok((objective, flows));
        }
    }
    Err(MapError::Lp(SolveError::IterationLimit))
}

/// Builds and solves the `kind` restricted master over the current columns.
fn solve_master(
    topology: &Topology,
    demands: &[Demand],
    kind: McfKind,
    options: SimplexOptions,
) -> Result<MasterOptimum> {
    let mut lp = LinearProgram::new(Sense::Minimize);
    lp.set_options(options);
    let lambda = (kind == McfKind::MinMaxLoad).then(|| lp.add_variable("lambda", 1.0));
    let mut per_link = vec![Vec::new(); topology.link_count()];
    let mut columns: Vec<Vec<VarId>> = Vec::with_capacity(demands.len());
    for demand in demands {
        let vars: Vec<VarId> = demand
            .paths
            .iter()
            .map(|path| {
                let cost = if kind == McfKind::FlowMin { path.len() as f64 } else { 0.0 };
                let var = lp.add_variable("f", cost);
                for l in path {
                    per_link[l.index()].push((var, 1.0));
                }
                var
            })
            .collect();
        let terms: Vec<_> = vars.iter().map(|&var| (var, 1.0)).collect();
        lp.add_eq(&terms, demand.value);
        columns.push(vars);
    }
    let mut capacity_rows = Vec::new();
    for (link, mut terms) in per_link.into_iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        let capacity = topology.link(LinkId::new(link)).capacity.to_f64();
        // The column that absorbs the row's excess: the shared λ, the
        // row's own slack, or none under hard capacities.
        let excess = match kind {
            McfKind::MinMaxLoad => lambda,
            McfKind::SlackMin => Some(lp.add_variable("s", 1.0)),
            McfKind::FlowMin => None,
        };
        if let Some(var) = excess {
            terms.push((var, -1.0));
        }
        let rhs = if kind == McfKind::MinMaxLoad { 0.0 } else { capacity };
        lp.add_le(&terms, rhs);
        capacity_rows.push(link);
    }
    let solution = lp.solve()?;
    let mut prices = vec![0.0; topology.link_count()];
    for (row, &link) in capacity_rows.iter().enumerate() {
        let dual = solution.dual(demands.len() + row).expect("capacity rows are inequalities");
        // π_l = −y_l ≥ 0 at an optimum; clamp round-off so the shortest
        // path search sees non-negative weights.
        prices[link] = (-dual).max(0.0);
    }
    let flows =
        columns.iter().map(|vars| vars.iter().map(|&var| solution.value(var)).collect()).collect();
    Ok(MasterOptimum { objective: solution.objective, flows, prices })
}

/// Routing tables from the positive path columns. A column counts as
/// positive above [`FLOW_EPSILON`] (scaled down for demands below 1 MB/s,
/// so every demand keeps at least one path); fractions are normalized over
/// the kept columns so they sum to 1.
fn route_tables(
    commodities: &[Commodity],
    demands: &[Demand],
    flows: &[Vec<f64>],
) -> RoutingTables {
    // Indexed by core-graph edge id, like the edge formulation's tables.
    let table_len = commodities.iter().map(|c| c.edge.index() + 1).max().unwrap_or(0);
    let mut routes: Vec<Vec<SplitRoute>> = vec![Vec::new(); table_len];
    for (demand, flow) in demands.iter().zip(flows) {
        let floor = FLOW_EPSILON * demand.value.min(1.0);
        let kept: Vec<(&Vec<LinkId>, f64)> =
            demand.paths.iter().zip(flow.iter().copied()).filter(|&(_, f)| f > floor).collect();
        let total: f64 = kept.iter().map(|&(_, f)| f).sum();
        routes[demand.commodity.edge.index()] = kept
            .into_iter()
            .map(|(path, f)| SplitRoute { links: path.clone(), fraction: f / total })
            .collect();
    }
    RoutingTables::from_split_routes(routes)
}

/// Shortest `source → dest` path of `demand` under link weights `prices`
/// (non-negative), over the links in the demand's scope. Ties break by
/// (weight, hop count, link id): hop counts strictly increase along the
/// search tree, so the path is simple even across zero-weight links, and
/// the result is deterministic. Returns the links and the path weight, or
/// `None` when the destination is unreachable.
fn shortest_path(
    topology: &Topology,
    prices: &[f64],
    demand: &Demand,
) -> Option<(Vec<LinkId>, f64)> {
    let (source, dest) = (demand.commodity.source, demand.commodity.dest);
    let n = topology.node_count();
    // Per node: (weight, hops, link it was reached by).
    let mut label: Vec<Option<(f64, usize, Option<LinkId>)>> = vec![None; n];
    let mut done = vec![false; n];
    label[source.index()] = Some((0.0, 0, None));
    loop {
        // O(V²) selection: NoC fabrics have tens of nodes.
        let (weight, hops, node) = (0..n)
            .filter(|&v| !done[v])
            .filter_map(|v| label[v].map(|(w, h, _)| (w, h, v)))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)))?;
        done[node] = true;
        if node == dest.index() {
            let mut path = Vec::with_capacity(hops);
            let mut cursor = dest;
            while let Some((_, _, Some(link))) = label[cursor.index()] {
                path.push(link);
                cursor = topology.link(link).src;
            }
            path.reverse();
            return Some((path, weight));
        }
        for (id, link) in topology.out_links(NodeId::new(node)) {
            let next = link.dst.index();
            if done[next] || demand.scope.as_ref().is_some_and(|q| !q.contains(id)) {
                continue;
            }
            let candidate = (weight + prices[id.index()], hops + 1, Some(id));
            let better = label[next].is_none_or(|(w, h, l)| {
                candidate
                    .0
                    .total_cmp(&w)
                    .then(candidate.1.cmp(&h))
                    .then(candidate.2.cmp(&l))
                    .is_lt()
            });
            if better {
                label[next] = Some(candidate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Differential suite: column generation against the edge formulation,
    //! which stays in `McfModel::build` as the oracle.

    use noc_apps::App;
    use noc_graph::{EdgeId, RandomGraphConfig, Topology};
    use noc_units::Mbps;
    use proptest::prelude::*;

    use super::super::{solve_mcf_for, McfModel};
    use super::*;
    use crate::{map_single_path, Mapping, MappingProblem, SinglePathOptions};

    fn edge_lambda(topology: &Topology, commodities: &[Commodity], scope: PathScope) -> f64 {
        edge_objective(topology, commodities, McfKind::MinMaxLoad, scope)
            .expect("the edge min-max LP is always feasible")
    }

    fn cg_lambda(topology: &Topology, commodities: &[Commodity], scope: PathScope) -> f64 {
        solve_mcf_for(topology, commodities, McfKind::MinMaxLoad, scope)
            .expect("column generation solves every min-max program")
            .objective
    }

    /// `|λ_cg − λ_edge| ≤ 1e-9·max(1, λ_edge)`; returns `λ_cg`.
    fn assert_agrees(topology: &Topology, commodities: &[Commodity], scope: PathScope) -> f64 {
        let (cg, edge) =
            (cg_lambda(topology, commodities, scope), edge_lambda(topology, commodities, scope));
        assert!(
            (cg - edge).abs() <= 1e-9 * edge.max(1.0),
            "{scope:?} on {}: column generation {cg} vs edge LP {edge}",
            topology.kind().describe()
        );
        cg
    }

    /// A seeded placement of `graph` onto `topology`: cores go to nodes in
    /// a seed-dependent order.
    fn scattered(graph: noc_graph::CoreGraph, topology: Topology, seed: u64) -> Vec<Commodity> {
        let n = topology.node_count();
        let mut nodes: Vec<usize> = (0..n).collect();
        nodes.sort_by_key(|&v| splitmix(seed ^ (v as u64).wrapping_mul(0x9e37_79b9)));
        let problem = MappingProblem::new(graph, topology).expect("cores fit");
        let mut mapping = Mapping::new(n);
        for (core, &node) in problem.cores().cores().zip(&nodes) {
            mapping.place(core, NodeId::new(node));
        }
        problem.commodities(&mapping)
    }

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn fabric(kind: usize, w: usize, h: usize) -> Topology {
        fabric_at(kind, w, h, 1e9)
    }

    fn fabric_at(kind: usize, w: usize, h: usize, capacity: f64) -> Topology {
        match kind {
            0 => Topology::mesh(w, h, capacity),
            1 => Topology::torus(w.max(3), h.max(3), capacity),
            _ => Topology::mesh_nd(&[4, 4, 2], capacity).expect("valid dims"),
        }
    }

    /// The edge formulation's optimum of `kind`, or `None` when it reports
    /// the program infeasible.
    fn edge_objective(
        topology: &Topology,
        commodities: &[Commodity],
        kind: McfKind,
        scope: PathScope,
    ) -> Option<f64> {
        match McfModel::build(topology, commodities, kind, scope).lp.solve() {
            Ok(solution) => Some(solution.objective),
            Err(SolveError::Infeasible) => None,
            Err(e) => panic!("edge {kind:?} LP failed: {e}"),
        }
    }

    /// Checks a path-form solution independently of the solver: every
    /// route runs contiguously and simply from its commodity's source to
    /// its destination (minimally under `Quadrant`), fractions sum to 1,
    /// loads recomputed from the tables equal the reported loads, MCF2
    /// loads fit the capacities, and the objective is what the loads say:
    /// the total flow for MCF2, the total excess over capacity for MCF1.
    fn check_solution(
        topology: &Topology,
        commodities: &[Commodity],
        scope: PathScope,
        sol: &McfSolution,
    ) -> std::result::Result<(), String> {
        let mut loads = vec![0.0; topology.link_count()];
        for c in commodities {
            let routes = sol.tables.routes_of(c.edge);
            if c.value.is_zero() || c.source == c.dest {
                if !routes.is_empty() {
                    return Err(format!("idle commodity {} has routes", c.edge));
                }
                continue;
            }
            if routes.is_empty() {
                return Err(format!("commodity {} has no route", c.edge));
            }
            let mut total = 0.0;
            for route in routes {
                if route.fraction.is_nan() || route.fraction <= 0.0 {
                    return Err(format!("commodity {}: fraction {}", c.edge, route.fraction));
                }
                total += route.fraction;
                let mut at = c.source;
                let mut visited = vec![c.source];
                for &id in &route.links {
                    let link = topology.link(id);
                    if link.src != at || visited.contains(&link.dst) {
                        return Err(format!("commodity {}: link {id} breaks the path", c.edge));
                    }
                    visited.push(link.dst);
                    at = link.dst;
                    loads[id.index()] += c.value.to_f64() * route.fraction;
                }
                if at != c.dest {
                    return Err(format!("commodity {}: route ends at {at}", c.edge));
                }
                let minimal = topology.hop_distance(c.source, c.dest);
                if scope == PathScope::Quadrant && route.links.len() != minimal {
                    return Err(format!("commodity {}: non-minimal quadrant route", c.edge));
                }
            }
            if (total - 1.0).abs() > 1e-9 {
                return Err(format!("commodity {}: fractions sum to {total}", c.edge));
            }
        }
        let (mut flow, mut excess) = (0.0, 0.0);
        for (id, link) in topology.links() {
            let (recomputed, reported) = (loads[id.index()], sol.link_loads.get(id));
            if (recomputed - reported).abs() > 1e-9 * reported.max(1.0) {
                return Err(format!("link {id}: tables load {recomputed}, reported {reported}"));
            }
            let capacity = link.capacity.to_f64();
            if sol.kind == McfKind::FlowMin && reported > capacity + 1e-6 * capacity.max(1.0) {
                return Err(format!("link {id}: load {reported} over capacity {capacity}"));
            }
            flow += reported;
            excess += (reported - capacity).max(0.0);
        }
        let implied = if sol.kind == McfKind::FlowMin { flow } else { excess };
        if (implied - sol.objective).abs() > 1e-6 * sol.objective.abs().max(1.0) {
            return Err(format!("objective {} but the loads imply {implied}", sol.objective));
        }
        Ok(())
    }

    /// Path-form MCF1 and MCF2 against the edge oracle: objectives within
    /// `1e-9·max(1, |edge|)`, the same infeasibility verdict, and
    /// well-formed tables.
    fn assert_slack_and_flow_agree(topology: &Topology, commodities: &[Commodity]) {
        for scope in [PathScope::Quadrant, PathScope::AllPaths] {
            for kind in [McfKind::SlackMin, McfKind::FlowMin] {
                let at = format!("{kind:?} {scope:?} on {}", topology.kind().describe());
                let paths = solve(topology, commodities, kind, scope, SimplexOptions::default());
                match (paths, edge_objective(topology, commodities, kind, scope)) {
                    (Ok(sol), Some(edge)) => {
                        assert!(
                            (sol.objective - edge).abs() <= 1e-9 * edge.abs().max(1.0),
                            "{at}: column generation {} vs edge LP {edge}",
                            sol.objective
                        );
                        if let Err(e) = check_solution(topology, commodities, scope, &sol) {
                            panic!("{at}: {e}");
                        }
                    }
                    (Err(MapError::Lp(SolveError::Infeasible)), None) => {
                        assert_eq!(kind, McfKind::FlowMin, "{at}: only MCF2 can be infeasible");
                    }
                    (paths, edge) => {
                        panic!("{at}: column generation {paths:?} vs edge LP {edge:?}")
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Seeded random graphs with fractional demands on meshes, tori and
        /// `mesh 4x4x2`, scattered placements, both scopes.
        #[test]
        fn column_generation_matches_the_edge_oracle(
            kind in 0usize..3,
            w in 2usize..5,
            h in 2usize..4,
            cores in 2usize..9,
            seed in 0u64..1_000_000,
        ) {
            let topology = fabric(kind, w, h);
            let cores = cores.min(topology.node_count());
            let graph = RandomGraphConfig { cores, ..RandomGraphConfig::default() }.generate(seed);
            let commodities = scattered(graph, topology.clone(), seed);
            for scope in [PathScope::Quadrant, PathScope::AllPaths] {
                assert_agrees(&topology, &commodities, scope);
            }
        }

        /// MCF1 and MCF2 on seeded random graphs with fractional demands,
        /// under non-round capacities tight enough that some MCF2
        /// instances are infeasible.
        #[test]
        fn slack_and_flow_min_match_the_edge_oracle(
            kind in 0usize..3,
            w in 2usize..5,
            h in 2usize..4,
            cores in 2usize..9,
            seed in 0u64..1_000_000,
            capacity in 60.0f64..900.0,
        ) {
            let topology = fabric_at(kind, w, h, capacity);
            let cores = cores.min(topology.node_count());
            let graph = RandomGraphConfig { cores, ..RandomGraphConfig::default() }.generate(seed);
            let commodities = scattered(graph, topology.clone(), seed);
            assert_slack_and_flow_agree(&topology, &commodities);
        }

        /// Single-commodity programs: the solo-sizing path of Figure 5(c).
        #[test]
        fn single_commodities_match_the_edge_oracle(
            kind in 0usize..3,
            w in 2usize..6,
            h in 2usize..5,
            ends in (0usize..64, 0usize..64),
            value in 0.5f64..900.0,
        ) {
            let topology = fabric(kind, w, h);
            let n = topology.node_count();
            let (source, dest) = (NodeId::new(ends.0 % n), NodeId::new(ends.1 % n));
            let commodity =
                Commodity { edge: EdgeId::new(0), value: Mbps::raw(value), source, dest };
            for scope in [PathScope::Quadrant, PathScope::AllPaths] {
                assert_agrees(&topology, &[commodity], scope);
            }
        }
    }

    /// A zero-demand commodity and one whose ends share a node carry no
    /// traffic: both formulations skip them, and they get no routes.
    #[test]
    fn idle_commodities_are_skipped() {
        let topology = Topology::mesh(3, 3, 1e9);
        let at = NodeId::new;
        let commodity = |edge: usize, value: f64, source: usize, dest: usize| Commodity {
            edge: EdgeId::new(edge),
            value: Mbps::raw(value),
            source: at(source),
            dest: at(dest),
        };
        let commodities =
            [commodity(0, 0.0, 0, 8), commodity(1, 75.5, 4, 4), commodity(2, 120.25, 0, 8)];
        for scope in [PathScope::Quadrant, PathScope::AllPaths] {
            assert_agrees(&topology, &commodities, scope);
            let sol = solve_mcf_for(&topology, &commodities, McfKind::MinMaxLoad, scope).unwrap();
            assert!(sol.tables.routes_of(EdgeId::new(0)).is_empty());
            assert!(sol.tables.routes_of(EdgeId::new(1)).is_empty());
            assert!(!sol.tables.routes_of(EdgeId::new(2)).is_empty());
            // Only idle commodities: nothing to route, λ = 0.
            let idle = solve_mcf_for(&topology, &commodities[..2], McfKind::MinMaxLoad, scope);
            assert_eq!(idle.unwrap().objective, 0.0);
        }
    }

    /// Idle commodities and a slack that must be split: one 300 MB/s flow
    /// between adjacent nodes of a 2×2 mesh of 100 MB/s links leaves 100
    /// MB/s of excess (MCF1) and no feasible MCF2.
    #[test]
    fn slack_and_flow_min_on_small_cases() {
        let at = NodeId::new;
        let commodity = |edge: usize, value: f64, source: usize, dest: usize| Commodity {
            edge: EdgeId::new(edge),
            value: Mbps::raw(value),
            source: at(source),
            dest: at(dest),
        };
        for capacity in [100.0, 150.0, 1e9] {
            let topology = Topology::mesh(2, 2, capacity);
            let commodities =
                [commodity(0, 0.0, 0, 3), commodity(1, 75.5, 2, 2), commodity(2, 300.0, 0, 1)];
            assert_slack_and_flow_agree(&topology, &commodities);
            // Only idle commodities: nothing to route, both objectives 0.
            for kind in [McfKind::SlackMin, McfKind::FlowMin] {
                for scope in [PathScope::Quadrant, PathScope::AllPaths] {
                    let idle =
                        solve(&topology, &commodities[..2], kind, scope, SimplexOptions::default());
                    assert_eq!(idle.unwrap().objective, 0.0);
                }
            }
        }
        let topology = Topology::mesh(2, 2, 100.0);
        let options = SimplexOptions::default();
        let flow = [commodity(0, 300.0, 0, 1)];
        let slack = solve(&topology, &flow, McfKind::SlackMin, PathScope::AllPaths, options);
        assert!((slack.unwrap().objective - 100.0).abs() < 1e-9);
        let infeasible = solve(&topology, &flow, McfKind::FlowMin, PathScope::AllPaths, options);
        assert_eq!(infeasible.unwrap_err(), MapError::Lp(SolveError::Infeasible));
    }

    /// NMAP's placement of a bundled app on a 5×4 torus, as the topology
    /// exploration maps it.
    fn app_on_torus(app: App) -> (Topology, Vec<Commodity>) {
        let problem = MappingProblem::new(app.core_graph(), Topology::torus(5, 4, 1e9)).unwrap();
        let out = map_single_path(&problem, &SinglePathOptions::default()).unwrap();
        (problem.topology().clone(), problem.commodities(&out.mapping))
    }

    #[test]
    fn dsd_on_torus_5x4_needs_57_6() {
        let (topology, commodities) = app_on_torus(App::Dsd);
        let lambda = assert_agrees(&topology, &commodities, PathScope::AllPaths);
        assert!((lambda - 57.6).abs() <= 1e-9 * 57.6, "λ = {lambda}");
    }

    #[test]
    fn vopd_on_torus_5x4_needs_213_25() {
        let (topology, commodities) = app_on_torus(App::Vopd);
        let lambda = assert_agrees(&topology, &commodities, PathScope::AllPaths);
        assert!((lambda - 213.25).abs() <= 1e-9 * 213.25, "λ = {lambda}");
    }

    #[test]
    fn pricing_follows_the_link_prices() {
        // Zero prices on a 3x3 mesh: the corner-to-corner search must
        // return a 4-hop path (ties break by hops), the same one every time.
        let topology = Topology::mesh(3, 3, 1e9);
        let commodity = Commodity {
            edge: EdgeId::new(0),
            value: Mbps::raw(1.0),
            source: NodeId::new(0),
            dest: NodeId::new(8),
        };
        let demand = Demand { commodity: &commodity, value: 1.0, scope: None, paths: Vec::new() };
        let zero = vec![0.0; topology.link_count()];
        let (path, weight) = shortest_path(&topology, &zero, &demand).unwrap();
        assert_eq!(path.len(), 4);
        assert_eq!(weight, 0.0);
        assert_eq!(shortest_path(&topology, &zero, &demand).unwrap().0, path);
        // Pricing the first link steers the search onto another minimal
        // path that avoids it at no cost.
        let mut prices = zero;
        prices[path[0].index()] = 1.0;
        let (detour, weight) = shortest_path(&topology, &prices, &demand).unwrap();
        assert_eq!((detour.len(), weight), (4, 0.0));
        assert_ne!(detour[0], path[0]);
    }
}
