//! Differential suite for the flat graph storage: `Topology`'s CSR rows
//! and `CoreGraph`'s forward-star lists against naive filters over
//! `links()` / `edges()` in id order.
//!
//! Inputs are random custom topologies (parallel links and self-loops
//! included), meshes, tori, `mesh 4x4x2`, random core graphs built from
//! a stream of insertions that mixes in duplicates, self-loops and
//! unknown endpoints, and `RandomGraphConfig` graphs.

use noc_graph::{
    CoreEdge, CoreGraph, CoreId, EdgeId, GraphError, Link, LinkId, NodeId, RandomGraphConfig,
    Topology,
};
use noc_units::Mbps;
use proptest::prelude::*;

/// Checks every adjacency query of `t` against a filter over `links()`.
fn check_topology(t: &Topology) -> Result<(), TestCaseError> {
    let all: Vec<(LinkId, Link)> = t.links().collect();
    for n in t.nodes() {
        let out: Vec<(LinkId, Link)> = all.iter().filter(|(_, l)| l.src == n).copied().collect();
        let inn: Vec<(LinkId, Link)> = all.iter().filter(|(_, l)| l.dst == n).copied().collect();
        prop_assert_eq!(t.out_links(n).collect::<Vec<_>>(), out, "out_links({})", n);
        prop_assert_eq!(t.in_links(n).collect::<Vec<_>>(), inn, "in_links({})", n);
        prop_assert_eq!(t.degree(n), out.len());
        for m in t.nodes() {
            // Parallel links resolve to the last declared one.
            let want = out.iter().rev().find(|(_, l)| l.dst == m).map(|&(id, _)| id);
            prop_assert_eq!(t.find_link(n, m), want, "find_link({}, {})", n, m);
        }
    }
    Ok(())
}

/// Builds fabric `kind` (0 mesh, 1 torus, 2 `mesh 4x4x2`, 3 a 3-D torus,
/// otherwise custom on `w + h - 1` nodes from `raw` links).
fn fabric(kind: usize, w: usize, h: usize, raw: &[(usize, usize, u32)]) -> Topology {
    match kind {
        0 => Topology::mesh(w, h, 100.0),
        1 => Topology::torus(w, h, 100.0),
        2 => Topology::mesh_nd(&[4, 4, 2], 100.0).unwrap(),
        3 => Topology::torus_nd(&[w, h, 3], 100.0).unwrap(),
        _ => {
            let n = w + h - 1;
            let links =
                raw.iter().map(|&(a, b, c)| (NodeId::new(a % n), NodeId::new(b % n), f64::from(c)));
            Topology::custom(n, links).unwrap()
        }
    }
}

/// A core name drawn from `seed`: zero to three pieces, multi-byte ones
/// included, so name offsets are exercised on non-ASCII boundaries.
fn core_name(seed: u32) -> String {
    const PIECES: [&str; 5] = ["a", "é", "∂", "𝔾", "-"];
    (0..seed % 4).map(|k| PIECES[((seed / 4 + k) % 5) as usize]).collect()
}

/// What `add_comm` must answer, given the edges accepted so far.
fn expected_add(
    cores: usize,
    edges: &[CoreEdge],
    src: CoreId,
    dst: CoreId,
) -> Result<EdgeId, GraphError> {
    if src.index() >= cores {
        Err(GraphError::UnknownCore(src))
    } else if dst.index() >= cores {
        Err(GraphError::UnknownCore(dst))
    } else if src == dst {
        Err(GraphError::SelfLoop(src))
    } else if edges.iter().any(|e| e.src == src && e.dst == dst) {
        Err(GraphError::DuplicateEdge(src, dst))
    } else {
        Ok(EdgeId::new(edges.len()))
    }
}

/// Checks every adjacency query of `g` against a filter over `edges()`.
fn check_core_graph(g: &CoreGraph) -> Result<(), TestCaseError> {
    let all: Vec<(EdgeId, CoreEdge)> = g.edges().collect();
    for c in g.cores() {
        let out: Vec<(EdgeId, CoreEdge)> =
            all.iter().filter(|(_, e)| e.src == c).copied().collect();
        let inn: Vec<(EdgeId, CoreEdge)> =
            all.iter().filter(|(_, e)| e.dst == c).copied().collect();
        prop_assert_eq!(g.out_edges(c).collect::<Vec<_>>(), out.clone(), "out_edges({})", c);
        prop_assert_eq!(g.in_edges(c).collect::<Vec<_>>(), inn.clone(), "in_edges({})", c);
        // Same summation order as the definition: out-list, in-list, add.
        let total = out.iter().map(|(_, e)| e.bandwidth).sum::<Mbps>()
            + inn.iter().map(|(_, e)| e.bandwidth).sum::<Mbps>();
        prop_assert_eq!(g.total_comm(c).to_f64().to_bits(), total.to_f64().to_bits());
        for d in g.cores() {
            let find = |a: CoreId, b: CoreId| {
                all.iter().find(|(_, e)| e.src == a && e.dst == b).map(|&(id, e)| (id, e.bandwidth))
            };
            prop_assert_eq!(g.find_edge(c, d), find(c, d).map(|(id, _)| id));
            let bw = |a, b| find(a, b).map_or(Mbps::ZERO, |(_, bw)| bw);
            let between = bw(c, d) + bw(d, c);
            prop_assert_eq!(g.comm_between(c, d).to_f64().to_bits(), between.to_f64().to_bits());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// CSR rows and `find_link` agree with link filters on every fabric
    /// family, including custom ones with parallel links.
    #[test]
    fn topology_adjacency_matches_link_filters(
        kind in 0usize..7,
        w in 1usize..=6,
        h in 1usize..=6,
        raw in prop::collection::vec((0usize..11, 0usize..11, 1u32..1000), 0..=40),
    ) {
        let t = fabric(kind, w, h, &raw);
        check_topology(&t)?;
        check_topology(&t.clone())?;
    }

    /// Forward-star lists, `find_edge`, `total_comm`, `comm_between`,
    /// names and `add_comm`'s rejections agree with a plain edge list.
    #[test]
    fn core_graph_matches_edge_filters(
        cores in 0usize..=12,
        names in prop::collection::vec(0u32..64, 12),
        ops in prop::collection::vec((0usize..13, 0usize..13, 0u32..4000), 0..=80),
    ) {
        let mut g = CoreGraph::new();
        for (i, &seed) in names.iter().take(cores).enumerate() {
            prop_assert_eq!(g.add_core(core_name(seed)), CoreId::new(i));
        }
        let mut accepted: Vec<CoreEdge> = Vec::new();
        for &(a, b, tenths) in &ops {
            let (src, dst) = (CoreId::new(a), CoreId::new(b));
            let bandwidth = f64::from(tenths) / 10.0;
            let want = expected_add(cores, &accepted, src, dst);
            prop_assert_eq!(g.add_comm(src, dst, bandwidth), want.clone());
            if want.is_ok() {
                accepted.push(CoreEdge { src, dst, bandwidth: Mbps::new(bandwidth).unwrap() });
            }
        }
        prop_assert_eq!(g.core_count(), cores);
        prop_assert_eq!(g.edges().map(|(_, e)| e).collect::<Vec<_>>(), accepted);
        for (c, &seed) in g.cores().zip(&names) {
            prop_assert_eq!(g.name(c), core_name(seed));
        }
        check_core_graph(&g)?;
        let copy = g.clone();
        prop_assert_eq!(&copy, &g);
        check_core_graph(&copy)?;
    }

    /// The generator's graphs (built through `add_comm`'s duplicate
    /// check) pass the same differential checks.
    #[test]
    fn random_core_graphs_match_edge_filters(cores in 2usize..=40, seed in 0u64..1000) {
        let g = RandomGraphConfig { cores, ..Default::default() }.generate(seed);
        check_core_graph(&g)?;
    }
}
