//! Differential suite for PBB's slab-backed best-first queue.
//!
//! The oracle below is the straightforward search PBB used to run: every
//! search node owns its placement `Vec`, the queue is a
//! `std::collections::BinaryHeap`, and an overflow drains the heap into a
//! second buffer to sort it. It needs only the public API and ships in no
//! library code path. Because the queue order is a strict total order, the
//! two searches must pop the same sequence, so every field of the outcome
//! — mapping, cost bits, feasibility, `expansions`, `truncated` — agrees.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use nmap::{routing, Mapping, MappingProblem};
use noc_baselines::{pbb, PbbOptions, PbbOutcome};
use noc_graph::{CoreId, NodeId, RandomGraphConfig, RandomGraphFamily, Topology, TopologyKind};
use noc_units::Mbps;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct SearchNode {
    /// `placement[i]` hosts core `order[i]`.
    placement: Vec<NodeId>,
    /// Occupied nodes as a bitmask (topologies here are ≤ 128 nodes).
    occupied: u128,
    /// Exact cost of placed-pair communication.
    partial_cost: f64,
    /// `partial_cost` + admissible remainder bound.
    lower_bound: f64,
}

/// Min-heap adapter: BinaryHeap is a max-heap, so reverse the ordering.
#[derive(Debug)]
struct HeapNode(SearchNode);

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.0.lower_bound == other.0.lower_bound
    }
}
impl Eq for HeapNode {}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .lower_bound
            .partial_cmp(&self.0.lower_bound)
            .expect("bounds are finite")
            .then_with(|| other.0.placement.len().cmp(&self.0.placement.len()))
            .then_with(|| other.0.placement.cmp(&self.0.placement))
    }
}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn reference_pbb(problem: &MappingProblem, options: &PbbOptions) -> PbbOutcome {
    let cores = problem.cores();
    let topology = problem.topology();
    assert!(topology.node_count() <= 128, "PBB occupancy mask supports up to 128 nodes");

    // Core order: decreasing total communication demand.
    let mut order: Vec<CoreId> = cores.cores().collect();
    order.sort_by(|&a, &b| cores.total_comm(b).cmp(&cores.total_comm(a)).then(a.cmp(&b)));
    let position: Vec<usize> = {
        let mut pos = vec![0usize; order.len()];
        for (i, &c) in order.iter().enumerate() {
            pos[c.index()] = i;
        }
        pos
    };

    // remaining_weight[l] = total weight of edges NOT fully placed once the
    // first `l` cores of `order` are down: edge (a, b) completes at level
    // max(pos[a], pos[b]) + 1.
    let levels = order.len();
    let mut remaining_weight = vec![0.0f64; levels + 1];
    for (_, e) in cores.edges() {
        let done_at = position[e.src.index()].max(position[e.dst.index()]) + 1;
        for level_weight in remaining_weight.iter_mut().take(done_at) {
            *level_weight += e.bandwidth.to_f64();
        }
    }

    // Adjacency of each core to earlier-ordered cores, with weights.
    // earlier[l] = list of (level index < l, undirected comm weight).
    let mut earlier: Vec<Vec<(usize, f64)>> = vec![Vec::new(); levels];
    for (li, &c) in order.iter().enumerate() {
        for (lj, &w) in order.iter().enumerate().take(li) {
            let comm = cores.comm_between(c, w);
            if comm > noc_units::Mbps::ZERO {
                earlier[li].push((lj, comm.to_f64()));
            }
        }
    }

    let mut heap: BinaryHeap<HeapNode> = BinaryHeap::new();
    // Root expansions with symmetry breaking.
    for node in first_core_candidates(problem) {
        heap.push(HeapNode(SearchNode {
            placement: vec![node],
            occupied: 1u128 << node.index(),
            partial_cost: 0.0,
            lower_bound: remaining_weight[1],
        }));
    }

    let mut best: Option<(f64, Mapping)> = None;
    let mut expansions = 0usize;
    let mut truncated = false;

    while let Some(HeapNode(node)) = heap.pop() {
        if expansions >= options.max_expansions {
            truncated = true;
            break;
        }
        if let Some((best_cost, _)) = &best {
            if node.lower_bound >= *best_cost {
                continue; // prune: cannot beat the incumbent
            }
        }
        expansions += 1;
        let level = node.placement.len();

        if level == levels {
            // Complete placement: accept if bandwidth-feasible.
            let mapping = to_mapping(&order, &node.placement, topology.node_count());
            let feasible = routing::route_min_paths(problem, &mapping)
                .map(|(_, loads)| loads.within_capacity(topology))
                .unwrap_or(false);
            if feasible {
                let cost = node.partial_cost;
                if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((cost, mapping));
                }
            }
            continue;
        }

        // Expand: place core `order[level]` on every free node.
        for target in topology.nodes() {
            if node.occupied & (1u128 << target.index()) != 0 {
                continue;
            }
            let mut delta = 0.0;
            for &(lj, comm) in &earlier[level] {
                delta += comm * topology.hop_distance(target, node.placement[lj]) as f64;
            }
            let partial_cost = node.partial_cost + delta;
            let lower_bound = partial_cost + remaining_weight[level + 1];
            if let Some((best_cost, _)) = &best {
                if lower_bound >= *best_cost {
                    continue;
                }
            }
            let mut placement = node.placement.clone();
            placement.push(target);
            heap.push(HeapNode(SearchNode {
                placement,
                occupied: node.occupied | (1u128 << target.index()),
                partial_cost,
                lower_bound,
            }));
        }

        // Partial search: drop the worst entries when the queue overflows.
        if heap.len() > options.max_queue {
            truncated = true;
            let mut entries: Vec<HeapNode> = heap.drain().collect();
            entries.sort_by(|a, b| b.cmp(a)); // best first (Ord is reversed)
            entries.truncate(options.max_queue / 2);
            heap.extend(entries);
        }
    }

    let (mapping, feasible) = match best {
        Some((_, mapping)) => {
            let feasible = routing::route_min_paths(problem, &mapping)
                .map(|(_, loads)| loads.within_capacity(topology))
                .unwrap_or(false);
            (mapping, feasible)
        }
        None => {
            // Budget expired with no completion: fall back to the greedy
            // constructive placement so callers always get a mapping.
            let mapping = nmap::initialize(problem);
            let feasible = routing::route_min_paths(problem, &mapping)
                .map(|(_, loads)| loads.within_capacity(topology))
                .unwrap_or(false);
            truncated = true;
            (mapping, feasible)
        }
    };

    PbbOutcome { comm_cost: problem.comm_cost(&mapping), mapping, feasible, expansions, truncated }
}

/// Candidate nodes for the first core: one orthant of the mesh — per axis
/// `coord ≤ ⌈extent/2⌉`, and for adjacent equal-extent axis pairs
/// additionally `coord[i+1] ≤ coord[i]` (on 2-D meshes: x ≤ ⌈w/2⌉,
/// y ≤ ⌈h/2⌉ and, on square meshes, y ≤ x) — which breaks the grid's
/// reflection/rotation symmetry group. On wrapping grids and custom
/// topologies, all nodes.
fn first_core_candidates(problem: &MappingProblem) -> Vec<NodeId> {
    let topology = problem.topology();
    match topology.kind() {
        TopologyKind::Grid(grid) if grid.is_mesh() => topology
            .nodes()
            .filter(|&n| {
                let c = topology.grid_coords(n);
                let axes = grid.axes();
                let low_orthant =
                    axes.iter().zip(c).all(|(axis, &coord)| coord <= (axis.extent - 1) / 2);
                let symmetry_broken = (1..axes.len())
                    .all(|i| axes[i - 1].extent != axes[i].extent || c[i] <= c[i - 1]);
                low_orthant && symmetry_broken
            })
            .collect(),
        _ => topology.nodes().collect(),
    }
}

fn to_mapping(order: &[CoreId], placement: &[NodeId], node_count: usize) -> Mapping {
    let mut mapping = Mapping::new(node_count);
    for (&core, &node) in order.iter().zip(placement) {
        mapping.place(core, node);
    }
    mapping
}

/// Queue and expansion budgets, from a queue that trims on every
/// expansion up to the Table 2 budget `q5000e50000`.
const BUDGETS: [PbbOptions; 9] = [
    PbbOptions { max_queue: 0, max_expansions: 100 },
    PbbOptions { max_queue: 1, max_expansions: 40 },
    PbbOptions { max_queue: 2, max_expansions: 200 },
    PbbOptions { max_queue: 5, max_expansions: 300 },
    PbbOptions { max_queue: 16, max_expansions: 1_000 },
    PbbOptions { max_queue: 64, max_expansions: 2_000 },
    PbbOptions { max_queue: 500, max_expansions: 5_000 },
    PbbOptions { max_queue: 1_000, max_expansions: 10 },
    PbbOptions { max_queue: 5_000, max_expansions: 50_000 },
];

/// Number of fabrics [`fabric`] builds.
const FABRICS: usize = 5;

/// Fabric `index` for `cores` cores: the fitted 2-D mesh, the smallest
/// square mesh (its dihedral symmetry makes bound ties common), the
/// fitted torus, `mesh 4x4x2`, and a custom ring with chords.
fn fabric(index: usize, cores: usize, capacity: f64) -> Topology {
    let (w, h) = Topology::fit_mesh_dims(cores);
    match index {
        0 => Topology::mesh(w, h, capacity),
        1 => {
            let side = (1..).find(|s| s * s >= cores).unwrap();
            Topology::mesh(side, side, capacity)
        }
        2 => Topology::torus(w, h, capacity),
        3 => Topology::mesh_nd(&[4, 4, 2], capacity).unwrap(),
        _ => {
            let n = cores + 2;
            let ring = (0..n).map(|i| (i, (i + 1) % n));
            let chords = (0..n / 2).step_by(3).map(|i| (i, i + n / 2));
            let links = ring.chain(chords).flat_map(|(a, b)| {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                [(a, b, capacity), (b, a, capacity)]
            });
            Topology::custom(n, links).unwrap()
        }
    }
}

proptest! {
    // The release run (a CI step of its own) takes the most cases.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 384 }))]

    /// Random graphs with fractional (or, for ties, uniform) bandwidths,
    /// on every fabric and budget; capacities are either unlimited or a
    /// non-round 1–2× the largest single demand, so some complete
    /// placements are rejected as infeasible.
    #[test]
    fn slab_queue_matches_the_reference(
        (cores, seed, avg_degree) in (2usize..=14, any::<u64>(), 1.0f64..3.0),
        fabric_index in 0usize..FABRICS,
        budget in 0usize..BUDGETS.len(),
        (uniform, tight, headroom) in (any::<bool>(), any::<bool>(), 1.0f64..2.0),
    ) {
        let bandwidth = if uniform {
            (Mbps::raw(100.0), Mbps::raw(100.0))
        } else {
            (Mbps::raw(10.0), Mbps::raw(400.0))
        };
        let graph = RandomGraphConfig {
            cores,
            avg_degree,
            min_bandwidth: bandwidth.0,
            max_bandwidth: bandwidth.1,
        }
        .generate(seed);
        let largest = graph.edges().map(|(_, e)| e.bandwidth.to_f64()).fold(0.0, f64::max);
        let capacity = if tight { largest * headroom } else { 1e9 };
        let problem = MappingProblem::new(graph, fabric(fabric_index, cores, capacity)).unwrap();
        let options = BUDGETS[budget];
        prop_assert_eq!(pbb(&problem, &options).unwrap(), reference_pbb(&problem, &options));
    }
}

/// Table 2's largest instance at the Table 2 budget: the 65-core
/// `RandomGraphFamily` graph 0 on its fitted mesh, `q5000e50000`.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: two 50k-expansion searches on 65 cores")]
fn table2_65_core_instance_0_matches_the_reference() {
    let graph = RandomGraphFamily::new(RandomGraphConfig::default()).graph(65, 0);
    let (w, h) = Topology::fit_mesh_dims(65);
    let problem = MappingProblem::new(graph, Topology::mesh(w, h, 1e9)).unwrap();
    let options = PbbOptions { max_queue: 5_000, max_expansions: 50_000 };
    let out = pbb(&problem, &options).unwrap();
    assert_eq!(out, reference_pbb(&problem, &options));
    assert_eq!(out.expansions, 50_000);
    assert!(out.truncated);
}
