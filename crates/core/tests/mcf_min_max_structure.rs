//! Structure of the min-max-load MCF output, checked independently of the
//! solver: every route runs contiguously and simply from the commodity's
//! source node to its destination node, fractions sum to 1, loads
//! recomputed from the tables equal the reported `link_loads`, whose
//! maximum is the objective, and `Quadrant` routes are all minimal.

use nmap::{
    map_single_path, mcf::solve_mcf_for, Commodity, Mapping, MappingProblem, McfKind, McfSolution,
    PathScope, SinglePathOptions,
};
use noc_apps::App;
use noc_graph::{CoreGraph, NodeId, RandomGraphConfig, Topology};
use proptest::prelude::*;

const TOLERANCE: f64 = 1e-9;

/// Checks `sol` against `commodities` on `topology`; returns a description
/// of the first violation.
fn check(
    topology: &Topology,
    commodities: &[Commodity],
    scope: PathScope,
    sol: &McfSolution,
) -> Result<(), String> {
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
                if link.src != at {
                    return Err(format!("commodity {}: link {id} leaves {}", c.edge, link.src));
                }
                if visited.contains(&link.dst) {
                    return Err(format!("commodity {}: route revisits {}", c.edge, link.dst));
                }
                visited.push(link.dst);
                at = link.dst;
                loads[id.index()] += c.value.to_f64() * route.fraction;
            }
            if at != c.dest {
                return Err(format!("commodity {}: route ends at {at}, not {}", c.edge, c.dest));
            }
            let minimal = topology.hop_distance(c.source, c.dest);
            if scope == PathScope::Quadrant && route.links.len() != minimal {
                return Err(format!(
                    "commodity {}: {}-hop quadrant route, minimum {minimal}",
                    c.edge,
                    route.links.len()
                ));
            }
        }
        if (total - 1.0).abs() > TOLERANCE {
            return Err(format!("commodity {}: fractions sum to {total}", c.edge));
        }
    }
    let mut max = 0.0f64;
    for (id, _) in topology.links() {
        let (recomputed, reported) = (loads[id.index()], sol.link_loads.get(id));
        if (recomputed - reported).abs() > TOLERANCE * reported.max(1.0) {
            return Err(format!("link {id}: tables load {recomputed}, reported {reported}"));
        }
        max = max.max(reported);
    }
    if (max - sol.objective).abs() > TOLERANCE * sol.objective.max(1.0) {
        return Err(format!("largest load {max} but objective {}", sol.objective));
    }
    Ok(())
}

fn solve_and_check(topology: &Topology, commodities: &[Commodity]) -> Result<(), String> {
    for scope in [PathScope::Quadrant, PathScope::AllPaths] {
        let sol = solve_mcf_for(topology, commodities, McfKind::MinMaxLoad, scope)
            .map_err(|e| e.to_string())?;
        check(topology, commodities, scope, &sol)
            .map_err(|e| format!("{scope:?} on {}: {e}", topology.kind().describe()))?;
    }
    Ok(())
}

/// Places `graph` on `topology` with every core at a seed-chosen node.
fn scattered(graph: CoreGraph, topology: Topology, seed: u64) -> (Topology, Vec<Commodity>) {
    let n = topology.node_count();
    let mut nodes: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        nodes.swap(i, (state >> 33) as usize % (i + 1));
    }
    let problem = MappingProblem::new(graph, topology).expect("cores fit");
    let mut mapping = Mapping::new(n);
    for (core, &node) in problem.cores().cores().zip(&nodes) {
        mapping.place(core, NodeId::new(node));
    }
    (problem.topology().clone(), problem.commodities(&mapping))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn min_max_routes_are_well_formed(
        kind in 0usize..3,
        w in 2usize..6,
        h in 2usize..5,
        cores in 2usize..13,
        seed in 0u64..1_000_000,
    ) {
        let topology = match kind {
            0 => Topology::mesh(w, h, 1e9),
            1 => Topology::torus(w.max(3), h.max(3), 1e9),
            _ => Topology::mesh_nd(&[4, 4, 2], 1e9).expect("valid dims"),
        };
        let cores = cores.min(topology.node_count());
        let graph = RandomGraphConfig { cores, ..RandomGraphConfig::default() }.generate(seed);
        let (topology, commodities) = scattered(graph, topology, seed);
        if let Err(e) = solve_and_check(&topology, &commodities) {
            prop_assert!(false, "seed {}: {}", seed, e);
        }
    }
}

/// The bundled apps as the topology exploration maps them, on the mesh
/// and torus shapes where the all-paths optimum splits most.
#[test]
fn bundled_apps_have_well_formed_min_max_routes() {
    for app in App::all() {
        for topology in [Topology::mesh(5, 4, 1e9), Topology::torus(5, 4, 1e9)] {
            let problem = MappingProblem::new(app.core_graph(), topology).unwrap();
            let out = map_single_path(&problem, &SinglePathOptions::default()).unwrap();
            let commodities = problem.commodities(&out.mapping);
            solve_and_check(problem.topology(), &commodities).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
