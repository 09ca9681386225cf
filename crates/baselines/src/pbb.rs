//! PBB: the partial branch-and-bound mapper of Hu & Marculescu
//! (ASP-DAC 2003).
//!
//! Best-first search over placement prefixes. Cores are ordered by total
//! communication demand (descending); tree level ℓ assigns core ℓ to one
//! of the free nodes. Each search node carries
//!
//! * the exact cost of the already-placed pairs, and
//! * an admissible lower bound for the rest: every edge not yet fully
//!   placed must span at least one hop, so
//!   `LB = partial_cost + Σ (weights of unfinished edges)`.
//!
//! The "partial" qualifier: the priority queue is bounded
//! ([`PbbOptions::max_queue`]); when it overflows, the worst entries are
//! discarded — exactly the paper's "we monitored the queue length so that
//! the PBB algorithm ran for few minutes". An expansion budget
//! ([`PbbOptions::max_expansions`]) gives a second, harder stop.
//!
//! Symmetry breaking: the first core only tries one octant of the mesh
//! (or one representative of each degree class on other topologies),
//! cutting the 8-fold dihedral symmetry of square meshes.
//!
//! Completed placements are accepted only if the load-balanced
//! minimum-path routing satisfies the link capacities — the bandwidth
//! constraint side of the original formulation.
//!
//! Storage: queued nodes are 24-byte keys over one flat slab of placement
//! prefixes (one byte per placed core), so the search allocates nothing
//! per node; see DESIGN.md §7.

use std::cmp::Ordering;

use nmap::{routing, Mapping, MappingProblem};
use noc_graph::{CoreId, NodeId, TopologyKind};

/// Tuning knobs for [`pbb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbbOptions {
    /// Maximum number of live entries in the best-first queue; beyond it
    /// the worst entries are dropped (partial search).
    pub max_queue: usize,
    /// Maximum number of node expansions before the search stops and the
    /// incumbent is returned.
    pub max_expansions: usize,
}

impl Default for PbbOptions {
    fn default() -> Self {
        Self { max_queue: 10_000, max_expansions: 200_000 }
    }
}

impl PbbOptions {
    /// Checks the options, returning the first violation as a message —
    /// the single source of the budget constraints, shared by the
    /// [`crate::PbbMapper`] trait wrapper and the `.dse` spec parser.
    /// (The bare [`pbb`] accepts a zero budget: it degenerates to the
    /// `initialize()` fallback.)
    ///
    /// # Errors
    ///
    /// A human-readable message when a budget is zero.
    pub fn check(&self) -> std::result::Result<(), String> {
        if self.max_queue == 0 {
            return Err("pbb queue bound must be at least 1".into());
        }
        if self.max_expansions == 0 {
            return Err("pbb expansion budget must be at least 1".into());
        }
        Ok(())
    }
}

/// Result of a [`pbb`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct PbbOutcome {
    /// Best complete placement found (falls back to NMAP's `initialize()`
    /// seeding if the budget expired before any completion — never absent).
    pub mapping: Mapping,
    /// Equation-7 communication cost of `mapping`.
    pub comm_cost: noc_units::HopMbps,
    /// Whether min-path routing of `mapping` meets all link capacities.
    pub feasible: bool,
    /// Number of search-tree nodes expanded (diagnostics).
    pub expansions: usize,
    /// True if the search ran out of budget while work remained.
    pub truncated: bool,
}

/// A queued search node. Its placement prefix (`level` node indices,
/// one byte each) lives in the [`Queue`] slab at `slot`.
#[derive(Debug, Clone, Copy)]
struct Key {
    /// `partial_cost` + admissible remainder bound.
    lower_bound: f64,
    /// Exact cost of placed-pair communication.
    partial_cost: f64,
    slot: u32,
    level: u32,
}

/// The best-first queue: a binary min-heap of [`Key`]s whose placement
/// prefixes sit in one flat slab with stride = core count, so no queued
/// node owns an allocation. Slots freed by a pop or a trim are reused.
///
/// The order is strict and total — smaller bound first, then the shorter
/// prefix, then the lexicographically smaller placement — and a prefix
/// identifies its node, so the pop sequence does not depend on the heap's
/// internal layout.
struct Queue {
    keys: Vec<Key>,
    /// `slab[slot * stride..][..level]` is the prefix of the key at `slot`.
    slab: Vec<u8>,
    stride: usize,
    free: Vec<u32>,
}

/// Most keys (and slab slots) reserved up front: a larger queue grows on
/// demand, so a huge `max_queue` reserves no more than this.
const MAX_RESERVED_KEYS: usize = 1 << 14;

impl Queue {
    fn new(max_live: usize, stride: usize) -> Self {
        let reserved = max_live.min(MAX_RESERVED_KEYS);
        Self {
            keys: Vec::with_capacity(reserved),
            slab: Vec::with_capacity(reserved * stride),
            stride,
            free: Vec::with_capacity(reserved),
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Queues the child of `prefix` that places the next core on `node`.
    fn push(&mut self, prefix: &[u8], node: u8, partial_cost: f64, lower_bound: f64) {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.slab.len() / self.stride;
            self.slab.resize(self.slab.len() + self.stride, 0);
            u32::try_from(slot).expect("queue slots fit u32")
        });
        let start = slot as usize * self.stride;
        self.slab[start..start + prefix.len()].copy_from_slice(prefix);
        self.slab[start + prefix.len()] = node;
        let level = u32::try_from(prefix.len() + 1).expect("levels fit u32");
        self.keys.push(Key { lower_bound, partial_cost, slot, level });
        self.sift_up(self.keys.len() - 1);
    }

    /// Pops the best key, copies its prefix into `prefix` and frees its
    /// slot.
    fn pop(&mut self, prefix: &mut Vec<u8>) -> Option<Key> {
        if self.keys.is_empty() {
            return None;
        }
        let key = self.keys.swap_remove(0);
        self.sift_down(0);
        prefix.clear();
        prefix.extend_from_slice(prefix_of(&self.slab, self.stride, &key));
        self.free.push(key.slot);
        Some(key)
    }

    /// Keeps the `keep` best keys. A best-first sorted vector is already
    /// a valid heap, so the trim happens in place.
    fn trim(&mut self, keep: usize) {
        let (slab, stride) = (&self.slab, self.stride);
        self.keys.sort_unstable_by(|a, b| order(slab, stride, a, b));
        self.free.extend(self.keys.drain(keep..).map(|key| key.slot));
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if order(&self.slab, self.stride, &self.keys[i], &self.keys[parent]).is_ge() {
                break;
            }
            self.keys.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.keys.len();
        loop {
            let mut best = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < len
                    && order(&self.slab, self.stride, &self.keys[child], &self.keys[best]).is_lt()
                {
                    best = child;
                }
            }
            if best == i {
                break;
            }
            self.keys.swap(i, best);
            i = best;
        }
    }
}

fn prefix_of<'a>(slab: &'a [u8], stride: usize, key: &Key) -> &'a [u8] {
    let start = key.slot as usize * stride;
    &slab[start..start + key.level as usize]
}

/// The queue order: `Less` pops first.
fn order(slab: &[u8], stride: usize, a: &Key, b: &Key) -> Ordering {
    a.lower_bound
        .partial_cmp(&b.lower_bound)
        .expect("bounds are finite")
        .then_with(|| a.level.cmp(&b.level))
        .then_with(|| prefix_of(slab, stride, a).cmp(prefix_of(slab, stride, b)))
}

/// Largest topology [`pbb`] can search: the width of its `u128`
/// node-occupancy bitmask, which also keeps every node index in the
/// one byte a queued prefix stores per core (all paper-scale
/// experiments are ≤ 81 nodes).
const PBB_MAX_NODES: usize = u128::BITS as usize;

/// Runs the partial branch-and-bound mapper.
///
/// # Errors
///
/// [`nmap::MapError::TopologyTooLarge`] if the topology has more than 128
/// nodes (the width of the occupancy bitmask).
pub fn pbb(problem: &MappingProblem, options: &PbbOptions) -> nmap::Result<PbbOutcome> {
    let cores = problem.cores();
    let topology = problem.topology();
    let nodes = topology.node_count();
    if nodes > PBB_MAX_NODES {
        return Err(nmap::MapError::TopologyTooLarge { nodes, limit: PBB_MAX_NODES });
    }

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

    // The queue never holds more than `max_queue` keys plus one
    // expansion's children.
    let mut heap = Queue::new(options.max_queue.saturating_add(nodes), levels);
    // Root expansions with symmetry breaking.
    for node in first_core_candidates(problem) {
        heap.push(&[], byte(node), 0.0, remaining_weight[1]);
    }

    let mut best: Option<(f64, Mapping)> = None;
    let mut expansions = 0usize;
    let mut truncated = false;
    let mut placement: Vec<u8> = Vec::with_capacity(levels);

    while let Some(node) = heap.pop(&mut placement) {
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
        let level = placement.len();

        if level == levels {
            // Complete placement: accept if bandwidth-feasible.
            let mapping = to_mapping(&order, &placement, nodes);
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
        let occupied = placement.iter().fold(0u128, |mask, &n| mask | 1u128 << n);
        for target in topology.nodes() {
            if occupied & (1u128 << target.index()) != 0 {
                continue;
            }
            let mut delta = 0.0;
            for &(lj, comm) in &earlier[level] {
                let placed = NodeId::new(usize::from(placement[lj]));
                delta += comm * topology.hop_distance(target, placed) as f64;
            }
            let partial_cost = node.partial_cost + delta;
            let lower_bound = partial_cost + remaining_weight[level + 1];
            if let Some((best_cost, _)) = &best {
                if lower_bound >= *best_cost {
                    continue;
                }
            }
            heap.push(&placement, byte(target), partial_cost, lower_bound);
        }

        // Partial search: drop the worst entries when the queue overflows.
        if heap.len() > options.max_queue {
            truncated = true;
            heap.trim(options.max_queue / 2);
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

    Ok(PbbOutcome {
        comm_cost: problem.comm_cost(&mapping),
        mapping,
        feasible,
        expansions,
        truncated,
    })
}

/// A node index as stored in a queued prefix (`pbb` has checked that every
/// index is below [`PBB_MAX_NODES`]).
fn byte(node: NodeId) -> u8 {
    u8::try_from(node.index()).expect("node indices fit a byte")
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

fn to_mapping(order: &[CoreId], placement: &[u8], node_count: usize) -> Mapping {
    let mut mapping = Mapping::new(node_count);
    for (&core, &node) in order.iter().zip(placement) {
        mapping.place(core, NodeId::new(usize::from(node)));
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{CoreGraph, Topology};

    fn problem(edges: &[(usize, usize, f64)], n: usize, w: usize, h: usize) -> MappingProblem {
        let mut g = CoreGraph::new();
        let ids: Vec<CoreId> = (0..n).map(|i| g.add_core(format!("c{i}"))).collect();
        for &(a, b, bw) in edges {
            g.add_comm(ids[a], ids[b], bw).unwrap();
        }
        MappingProblem::new(g, Topology::mesh(w, h, 1e9)).unwrap()
    }

    #[test]
    fn finds_optimal_pipeline_embedding() {
        // 4-stage pipeline on 2x2: optimum = 300 (every edge adjacent).
        let p = problem(&[(0, 1, 100.0), (1, 2, 100.0), (2, 3, 100.0)], 4, 2, 2);
        let out = pbb(&p, &PbbOptions::default()).unwrap();
        assert_eq!(out.comm_cost.to_f64(), 300.0);
        assert!(out.feasible);
        assert!(!out.truncated);
    }

    #[test]
    fn optimal_on_star_graph() {
        // Star with 4 satellites on 3x3: all satellites adjacent to hub.
        let p = problem(&[(0, 1, 100.0), (0, 2, 100.0), (0, 3, 100.0), (0, 4, 100.0)], 5, 3, 3);
        let out = pbb(&p, &PbbOptions::default()).unwrap();
        assert_eq!(out.comm_cost.to_f64(), 400.0);
    }

    #[test]
    fn matches_exhaustive_on_tiny_instance() {
        // 3 cores on 2x2: brute-force all placements and compare.
        let p = problem(&[(0, 1, 70.0), (1, 2, 30.0), (0, 2, 20.0)], 3, 2, 2);
        let out = pbb(&p, &PbbOptions::default()).unwrap();

        // Brute force.
        let nodes: Vec<NodeId> = p.topology().nodes().collect();
        let mut best = f64::INFINITY;
        for &a in &nodes {
            for &b in &nodes {
                for &c in &nodes {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    let mut m = Mapping::new(4);
                    m.place(CoreId::new(0), a);
                    m.place(CoreId::new(1), b);
                    m.place(CoreId::new(2), c);
                    best = best.min(p.comm_cost(&m).to_f64());
                }
            }
        }
        assert_eq!(out.comm_cost.to_f64(), best, "PBB missed the optimum");
    }

    #[test]
    fn respects_bandwidth_constraints() {
        // Two 100 MB/s flows, 120 MB/s links: stacking them is infeasible;
        // PBB must return a feasible layout.
        let p = {
            let mut g = CoreGraph::new();
            let ids: Vec<CoreId> = (0..4).map(|i| g.add_core(format!("c{i}"))).collect();
            g.add_comm(ids[0], ids[1], 100.0).unwrap();
            g.add_comm(ids[2], ids[3], 100.0).unwrap();
            MappingProblem::new(g, Topology::mesh(2, 2, 120.0)).unwrap()
        };
        let out = pbb(&p, &PbbOptions::default()).unwrap();
        assert!(out.feasible);
    }

    #[test]
    fn tiny_budget_still_returns_a_mapping() {
        let p = problem(
            &[(0, 1, 100.0), (1, 2, 90.0), (2, 3, 80.0), (3, 4, 70.0), (4, 5, 60.0)],
            6,
            3,
            2,
        );
        let out = pbb(&p, &PbbOptions { max_queue: 4, max_expansions: 10 }).unwrap();
        assert!(out.truncated);
        assert!(out.mapping.is_complete(p.cores()));
        // The cost is finite by type (`HopMbps` excludes NaN/infinity);
        // nothing left to assert beyond completeness above.
        let _ = out.comm_cost;
    }

    #[test]
    fn topology_above_128_nodes_is_an_error() {
        let p = problem(&[(0, 1, 100.0)], 2, 13, 10);
        assert_eq!(
            pbb(&p, &PbbOptions::default()),
            Err(nmap::MapError::TopologyTooLarge { nodes: 130, limit: 128 })
        );
    }

    #[test]
    fn deterministic() {
        let p = problem(&[(0, 1, 70.0), (1, 2, 362.0), (2, 3, 49.0)], 4, 2, 2);
        let a = pbb(&p, &PbbOptions::default()).unwrap();
        let b = pbb(&p, &PbbOptions::default()).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.comm_cost, b.comm_cost);
    }

    #[test]
    fn larger_budget_is_no_worse() {
        let p = problem(
            &[
                (0, 1, 100.0),
                (1, 2, 90.0),
                (2, 3, 80.0),
                (3, 4, 70.0),
                (4, 5, 60.0),
                (5, 0, 50.0),
                (0, 3, 40.0),
            ],
            6,
            3,
            2,
        );
        let small = pbb(&p, &PbbOptions { max_queue: 16, max_expansions: 100 }).unwrap();
        let large = pbb(&p, &PbbOptions::default()).unwrap();
        assert!(large.comm_cost <= small.comm_cost);
    }
}
