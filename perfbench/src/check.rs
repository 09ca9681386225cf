//! Output checkers, written against plain data and the topology's link
//! list only — none of them calls the code that produced the output.

use nmap::{Mapping, RoutingTables, SplitRoute};
use noc_graph::{CoreGraph, EdgeId, NodeId, Topology};

/// Relative tolerance for comparing sums of the same flows added in a
/// different order (LP read-back vs. path decomposition).
const LOAD_TOLERANCE: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= LOAD_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// Every core sits on an existing node and no two cores share one.
/// `placement[c]` is core `c`'s node index.
pub fn injection(node_count: usize, placement: &[Option<usize>]) -> Result<(), String> {
    let mut taken = vec![false; node_count];
    for (core, node) in placement.iter().enumerate() {
        let Some(node) = *node else { return Err(format!("core {core} is unplaced")) };
        if node >= node_count {
            return Err(format!("core {core} on node {node} of {node_count}"));
        }
        if std::mem::replace(&mut taken[node], true) {
            return Err(format!("node {node} holds two cores (second: core {core})"));
        }
    }
    Ok(())
}

/// One commodity's routes: each path is a chain of links leading from
/// `source` to `dest`, and the fractions sum to 1.
pub fn routes(
    topology: &Topology,
    source: NodeId,
    dest: NodeId,
    routes: &[SplitRoute],
) -> Result<(), String> {
    let mut total = 0.0;
    for route in routes {
        let mut at = source;
        for &link in &route.links {
            if link.index() >= topology.link_count() {
                return Err(format!("link {} does not exist", link.index()));
            }
            let l = topology.link(link);
            if l.src != at {
                return Err(format!(
                    "path breaks at link {}: starts at node {}, expected node {}",
                    link.index(),
                    l.src.index(),
                    at.index()
                ));
            }
            at = l.dst;
        }
        if at != dest {
            return Err(format!("path ends at node {}, not at node {}", at.index(), dest.index()));
        }
        if !(route.fraction > 0.0 && route.fraction <= 1.0 + LOAD_TOLERANCE) {
            return Err(format!("path fraction {} outside (0, 1]", route.fraction));
        }
        total += route.fraction;
    }
    if (total - 1.0).abs() > LOAD_TOLERANCE {
        return Err(format!("fractions sum to {total}, not 1"));
    }
    Ok(())
}

/// Loads recomputed from the routes equal the loads the route stage
/// reported, link by link.
pub fn loads(recomputed: &[f64], reported: &[f64]) -> Result<(), String> {
    if recomputed.len() != reported.len() {
        return Err(format!(
            "{} recomputed loads vs {} reported",
            recomputed.len(),
            reported.len()
        ));
    }
    for (link, (&r, &p)) in recomputed.iter().zip(reported).enumerate() {
        if !close(r, p) {
            return Err(format!("link {link}: routes carry {r} MB/s, route stage reported {p}"));
        }
    }
    Ok(())
}

/// The min-max objective is the largest of its own link loads and no
/// larger than the single-path routing's largest load.
pub fn min_max(objective: f64, lp_loads: &[f64], single_path_max: f64) -> Result<(), String> {
    let lp_max = lp_loads.iter().copied().fold(0.0, f64::max);
    if !close(objective, lp_max) {
        return Err(format!("min-max objective {objective} but largest LP load {lp_max}"));
    }
    if objective > single_path_max + LOAD_TOLERANCE * single_path_max.max(1.0) {
        return Err(format!(
            "min-max objective {objective} above the single-path max load {single_path_max}"
        ));
    }
    Ok(())
}

/// A simulation cannot deliver packets it never generated.
pub fn simulation(delivered: u64, generated: u64) -> Result<(), String> {
    if delivered > generated {
        return Err(format!("{delivered} packets delivered but only {generated} generated"));
    }
    Ok(())
}

/// Checks a placement and its routing as a whole: the placement is an
/// injection, every commodity that carries traffic has routes running from
/// its source core's node to its destination core's node with fractions
/// summing to 1, and the loads the routes imply equal `reported`.
pub fn routed_placement(
    graph: &CoreGraph,
    topology: &Topology,
    mapping: &Mapping,
    tables: &RoutingTables,
    reported: &[f64],
) -> Result<(), String> {
    let placement: Vec<Option<usize>> =
        graph.cores().map(|c| mapping.node_of(c).map(NodeId::index)).collect();
    injection(topology.node_count(), &placement)?;
    let mut recomputed = vec![0.0; topology.link_count()];
    for (edge, e) in graph.edges() {
        let (Some(src), Some(dst)) = (mapping.node_of(e.src), mapping.node_of(e.dst)) else {
            return Err(format!("commodity {} has an unplaced endpoint", edge.index()));
        };
        if edge.index() >= tables.commodity_count() {
            return Err(format!("commodity {} has no routes", edge.index()));
        }
        let routed = tables.routes_of(EdgeId::new(edge.index()));
        if e.bandwidth.is_zero() {
            continue;
        }
        routes(topology, src, dst, routed)
            .map_err(|m| format!("commodity {}: {m}", edge.index()))?;
        for r in routed {
            for &l in &r.links {
                recomputed[l.index()] += e.bandwidth.to_f64() * r.fraction;
            }
        }
    }
    loads(&recomputed, reported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::LinkId;

    fn mesh() -> Topology {
        Topology::mesh(3, 2, 1_000.0)
    }

    fn link(t: &Topology, a: usize, b: usize) -> LinkId {
        t.find_link(NodeId::new(a), NodeId::new(b)).expect("neighbours")
    }

    /// Two cores, one 100 MB/s edge, placed on nodes 0 and 2 of a 3x2
    /// mesh and routed 0 → 1 → 2.
    fn routed() -> (CoreGraph, Topology, Mapping, RoutingTables) {
        let t = mesh();
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 100.0).unwrap();
        let mut m = Mapping::new(t.node_count());
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(2));
        let path = vec![link(&t, 0, 1), link(&t, 1, 2)];
        let tables =
            RoutingTables::from_split_routes(vec![vec![SplitRoute { links: path, fraction: 1.0 }]]);
        (g, t, m, tables)
    }

    fn loads_of(t: &Topology, per_link: &[(LinkId, f64)]) -> Vec<f64> {
        let mut out = vec![0.0; t.link_count()];
        for &(l, v) in per_link {
            out[l.index()] = v;
        }
        out
    }

    #[test]
    fn a_correct_routing_passes() {
        let (g, t, m, tables) = routed();
        let reported = loads_of(&t, &[(link(&t, 0, 1), 100.0), (link(&t, 1, 2), 100.0)]);
        routed_placement(&g, &t, &m, &tables, &reported).unwrap();
    }

    #[test]
    fn a_broken_path_is_rejected() {
        let t = mesh();
        // 0 → 1, then a link that starts at node 3: not contiguous.
        let broken = [SplitRoute { links: vec![link(&t, 0, 1), link(&t, 3, 4)], fraction: 1.0 }];
        let err = routes(&t, NodeId::new(0), NodeId::new(4), &broken).unwrap_err();
        assert!(err.contains("breaks"), "{err}");
        // Contiguous but ending at the wrong node.
        let short = [SplitRoute { links: vec![link(&t, 0, 1)], fraction: 1.0 }];
        assert!(routes(&t, NodeId::new(0), NodeId::new(2), &short).is_err());
    }

    #[test]
    fn fractions_must_sum_to_one() {
        let t = mesh();
        let half = [SplitRoute { links: vec![link(&t, 0, 1)], fraction: 0.5 }];
        let err = routes(&t, NodeId::new(0), NodeId::new(1), &half).unwrap_err();
        assert!(err.contains("sum"), "{err}");
    }

    #[test]
    fn a_wrong_load_is_rejected() {
        let (g, t, m, tables) = routed();
        let wrong = loads_of(&t, &[(link(&t, 0, 1), 100.0), (link(&t, 1, 2), 90.0)]);
        let err = routed_placement(&g, &t, &m, &tables, &wrong).unwrap_err();
        assert!(err.contains("route stage reported 90"), "{err}");
    }

    #[test]
    fn a_non_injective_placement_is_rejected() {
        let err = injection(6, &[Some(1), Some(4), Some(1)]).unwrap_err();
        assert!(err.contains("two cores"), "{err}");
        assert!(injection(6, &[Some(0), None]).is_err());
        assert!(injection(6, &[Some(6)]).is_err());
        injection(6, &[Some(5), Some(0)]).unwrap();
    }

    #[test]
    fn min_max_objective_must_match_its_loads_and_beat_single_path() {
        min_max(10.0, &[4.0, 10.0], 12.0).unwrap();
        assert!(min_max(9.0, &[4.0, 10.0], 12.0).is_err());
        assert!(min_max(13.0, &[13.0], 12.0).is_err());
    }

    #[test]
    fn delivered_packets_cannot_exceed_generated() {
        simulation(5, 5).unwrap();
        assert!(simulation(6, 5).is_err());
    }
}
