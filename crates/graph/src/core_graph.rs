//! The application **core graph** `G(V, E)` of Definition 1.
//!
//! Vertices are IP cores; a directed edge `(v_i, v_j)` with weight
//! `comm_{i,j}` states that core `v_i` sends an average of `comm_{i,j}` MB/s
//! to core `v_j`. Each edge becomes one *commodity* `d_k` during mapping.

use noc_units::Mbps;

use crate::{CoreId, EdgeId, GraphError, Result};

/// A directed communication edge of the core graph: one commodity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreEdge {
    /// Source core `v_i`.
    pub src: CoreId,
    /// Destination core `v_j`.
    pub dst: CoreId,
    /// Average communication bandwidth `comm_{i,j}` in MB/s; this is the
    /// commodity value `vl(d_k)` of Equation 2. Finite and non-negative
    /// by construction ([`CoreGraph::add_comm`] validates).
    pub bandwidth: Mbps,
}

/// The application core graph `G(V, E)` (Definition 1 in the paper).
///
/// Construction is incremental: add cores with [`CoreGraph::add_core`], then
/// add weighted directed communication edges with [`CoreGraph::add_comm`].
///
/// # Example
///
/// ```
/// use noc_graph::CoreGraph;
///
/// let mut g = CoreGraph::new();
/// let vld = g.add_core("vld");
/// let rld = g.add_core("run-length-decoder");
/// g.add_comm(vld, rld, 70.0)?;
/// assert_eq!(g.core_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.total_bandwidth().to_f64(), 70.0);
/// # Ok::<(), noc_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreGraph {
    /// Every core's name, concatenated in core-id order.
    name_buf: String,
    /// Per core: the end of its name in `name_buf` and the head and tail
    /// of its two adjacency lists.
    cores: Vec<CoreSlot>,
    edges: Vec<CoreEdge>,
    /// Per edge: the next edge of its source's out-list and of its
    /// destination's in-list.
    next: Vec<EdgeNext>,
}

/// End of a forward-star list.
const NIL: u32 = u32::MAX;

/// One core's entry: its name's end offset and the head/tail edge of its
/// outgoing and incoming forward-star lists (`NIL` when empty). Edges are
/// appended at the tail, so each list walks in insertion order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CoreSlot {
    name_end: usize,
    out_head: u32,
    out_tail: u32,
    in_head: u32,
    in_tail: u32,
}

/// One edge's successors in the two forward-star lists it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EdgeNext {
    out_next: u32,
    in_next: u32,
}

impl CoreGraph {
    /// Creates an empty core graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a core named `name` and returns its id.
    ///
    /// Names are labels for reporting only; they need not be unique.
    pub fn add_core(&mut self, name: impl Into<String>) -> CoreId {
        let id = CoreId::new(self.cores.len());
        self.name_buf.push_str(&name.into());
        self.cores.push(CoreSlot {
            name_end: self.name_buf.len(),
            out_head: NIL,
            out_tail: NIL,
            in_head: NIL,
            in_tail: NIL,
        });
        id
    }

    /// Adds a directed communication edge `src -> dst` carrying
    /// `bandwidth` MB/s and returns its id.
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownCore`] if either endpoint was not added first.
    /// * [`GraphError::SelfLoop`] if `src == dst`.
    /// * [`GraphError::InvalidBandwidth`] if `bandwidth` is negative, NaN or
    ///   infinite.
    /// * [`GraphError::DuplicateEdge`] if `(src, dst)` already exists; sum
    ///   parallel demands before inserting.
    // lint: allow(f64-api) — checked boundary intake: validated via `Mbps::new`.
    pub fn add_comm(&mut self, src: CoreId, dst: CoreId, bandwidth: f64) -> Result<EdgeId> {
        if src.index() >= self.cores.len() {
            return Err(GraphError::UnknownCore(src));
        }
        if dst.index() >= self.cores.len() {
            return Err(GraphError::UnknownCore(dst));
        }
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        let bandwidth =
            Mbps::new(bandwidth).map_err(|_| GraphError::InvalidBandwidth(bandwidth))?;
        if self.find_edge(src, dst).is_some() {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        let id = EdgeId::new(self.edges.len());
        let raw = id.0;
        self.edges.push(CoreEdge { src, dst, bandwidth });
        self.next.push(EdgeNext { out_next: NIL, in_next: NIL });
        let slot = &mut self.cores[src.index()];
        match slot.out_tail {
            NIL => slot.out_head = raw,
            prev => self.next[prev as usize].out_next = raw,
        }
        slot.out_tail = raw;
        let slot = &mut self.cores[dst.index()];
        match slot.in_tail {
            NIL => slot.in_head = raw,
            prev => self.next[prev as usize].in_next = raw,
        }
        slot.in_tail = raw;
        Ok(id)
    }

    /// Number of cores `|V|`.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Number of directed communication edges `|E|` (= number of
    /// commodities).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the name given to `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn name(&self, core: CoreId) -> &str {
        let i = core.index();
        let start = if i == 0 { 0 } else { self.cores[i - 1].name_end };
        &self.name_buf[start..self.cores[i].name_end]
    }

    /// Returns the edge record for `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn edge(&self, edge: EdgeId) -> CoreEdge {
        self.edges[edge.index()]
    }

    /// Looks up the directed edge `src -> dst`, if present, by scanning
    /// the out-list of `src`.
    pub fn find_edge(&self, src: CoreId, dst: CoreId) -> Option<EdgeId> {
        self.out_edges(src).find(|(_, e)| e.dst == dst).map(|(id, _)| id)
    }

    /// Iterates over all core ids `v_0, v_1, …`.
    pub fn cores(&self) -> impl ExactSizeIterator<Item = CoreId> + '_ {
        (0..self.cores.len()).map(CoreId::new)
    }

    /// Iterates over all edges with their ids, in insertion order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, CoreEdge)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId::new(i), *e))
    }

    /// Outgoing edges of `core`, in insertion order.
    pub fn out_edges(&self, core: CoreId) -> impl Iterator<Item = (EdgeId, CoreEdge)> + '_ {
        self.walk(self.cores[core.index()].out_head, |n| n.out_next)
    }

    /// Incoming edges of `core`, in insertion order.
    pub fn in_edges(&self, core: CoreId) -> impl Iterator<Item = (EdgeId, CoreEdge)> + '_ {
        self.walk(self.cores[core.index()].in_head, |n| n.in_next)
    }

    /// Walks one forward-star list from `head`, following `step`.
    fn walk<'a>(
        &'a self,
        head: u32,
        step: impl Fn(&EdgeNext) -> u32 + 'a,
    ) -> impl Iterator<Item = (EdgeId, CoreEdge)> + 'a {
        let first = (head != NIL).then_some(head);
        std::iter::successors(first, move |&e| {
            let next = step(&self.next[e as usize]);
            (next != NIL).then_some(next)
        })
        .map(|e| (EdgeId(e), self.edges[e as usize]))
    }

    /// Total communication demand adjacent to `core` in the **undirected**
    /// view `S(A, B) = makeundirected(G)` used by `initialize()`:
    /// the sum of bandwidths of all edges entering or leaving the core.
    pub fn total_comm(&self, core: CoreId) -> Mbps {
        let out: Mbps = self.out_edges(core).map(|(_, e)| e.bandwidth).sum();
        let inn: Mbps = self.in_edges(core).map(|(_, e)| e.bandwidth).sum();
        out + inn
    }

    /// Undirected communication volume between `a` and `b`:
    /// `comm(a→b) + comm(b→a)`.
    pub fn comm_between(&self, a: CoreId, b: CoreId) -> Mbps {
        let ab = self.find_edge(a, b).map_or(Mbps::ZERO, |e| self.edges[e.index()].bandwidth);
        let ba = self.find_edge(b, a).map_or(Mbps::ZERO, |e| self.edges[e.index()].bandwidth);
        ab + ba
    }

    /// Sum of all edge bandwidths (aggregate application demand in MB/s).
    pub fn total_bandwidth(&self) -> Mbps {
        self.edges.iter().map(|e| e.bandwidth).sum()
    }

    /// The core with the largest total adjacent communication — the seed
    /// vertex `max_s` of `initialize()`. Ties break toward the lowest id so
    /// the algorithm is deterministic. Returns `None` on an empty graph.
    pub fn max_comm_core(&self) -> Option<CoreId> {
        self.cores().max_by(|&a, &b| {
            // `Mbps` is totally ordered (NaN unrepresentable), so no
            // partial_cmp/expect dance.
            self.total_comm(a).cmp(&self.total_comm(b)).then(b.cmp(&a)) // prefer the *lower* id on ties
        })
    }

    /// Edge ids sorted by decreasing bandwidth (the commodity ordering used
    /// by `shortestpath()`); ties break toward the lower edge id.
    pub fn edges_by_decreasing_bandwidth(&self) -> Vec<EdgeId> {
        let mut ids: Vec<EdgeId> = (0..self.edges.len()).map(EdgeId::new).collect();
        ids.sort_by(|&a, &b| {
            self.edges[b.index()].bandwidth.cmp(&self.edges[a.index()].bandwidth).then(a.cmp(&b))
        });
        ids
    }

    /// Checks whether the undirected view of the graph is connected.
    /// The empty graph counts as connected.
    pub fn is_connected(&self) -> bool {
        if self.cores.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.cores.len()];
        let mut stack = vec![CoreId::new(0)];
        seen[0] = true;
        let mut visited = 1usize;
        while let Some(v) = stack.pop() {
            let neighbours =
                self.out_edges(v).map(|(_, e)| e.dst).chain(self.in_edges(v).map(|(_, e)| e.src));
            for n in neighbours {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    visited += 1;
                    stack.push(n);
                }
            }
        }
        visited == self.cores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (CoreGraph, CoreId, CoreId, CoreId) {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        g.add_comm(a, b, 100.0).unwrap();
        g.add_comm(b, c, 50.0).unwrap();
        g.add_comm(c, a, 25.0).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn counts_and_lookup() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.core_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.find_edge(a, b).is_some());
        assert!(g.find_edge(b, a).is_none());
        assert_eq!(g.name(c), "c");
    }

    #[test]
    fn total_comm_sums_both_directions() {
        let (g, a, b, _) = triangle();
        // a: out 100 (a->b), in 25 (c->a)
        assert_eq!(g.total_comm(a).to_f64(), 125.0);
        // b: out 50, in 100
        assert_eq!(g.total_comm(b).to_f64(), 150.0);
    }

    #[test]
    fn comm_between_is_symmetric() {
        let (mut g, a, b, _) = triangle();
        assert_eq!(g.comm_between(a, b).to_f64(), 100.0);
        assert_eq!(g.comm_between(b, a).to_f64(), 100.0);
        g.add_comm(b, a, 11.0).unwrap();
        assert_eq!(g.comm_between(a, b).to_f64(), 111.0);
    }

    #[test]
    fn max_comm_core_matches_paper_seed_rule() {
        let (g, _, b, _) = triangle();
        assert_eq!(g.max_comm_core(), Some(b));
        assert_eq!(CoreGraph::new().max_comm_core(), None);
    }

    #[test]
    fn max_comm_core_breaks_ties_toward_lower_id() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        let d = g.add_core("d");
        g.add_comm(a, b, 10.0).unwrap();
        g.add_comm(c, d, 10.0).unwrap();
        assert_eq!(g.max_comm_core(), Some(a));
    }

    #[test]
    fn commodity_ordering_is_decreasing_and_stable() {
        let (g, _, _, _) = triangle();
        let order = g.edges_by_decreasing_bandwidth();
        let bws: Vec<f64> = order.iter().map(|&e| g.edge(e).bandwidth.to_f64()).collect();
        assert_eq!(bws, vec![100.0, 50.0, 25.0]);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        assert_eq!(g.add_comm(a, a, 1.0), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let (mut g, a, b, _) = triangle();
        assert_eq!(g.add_comm(a, b, 1.0), Err(GraphError::DuplicateEdge(a, b)));
    }

    #[test]
    fn rejects_bad_bandwidth() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        assert!(matches!(g.add_comm(a, b, -1.0), Err(GraphError::InvalidBandwidth(_))));
        assert!(matches!(g.add_comm(a, b, f64::NAN), Err(GraphError::InvalidBandwidth(_))));
        assert!(matches!(g.add_comm(a, b, f64::INFINITY), Err(GraphError::InvalidBandwidth(_))));
    }

    #[test]
    fn rejects_unknown_core() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let ghost = CoreId::new(9);
        assert_eq!(g.add_comm(a, ghost, 1.0), Err(GraphError::UnknownCore(ghost)));
        assert_eq!(g.add_comm(ghost, a, 1.0), Err(GraphError::UnknownCore(ghost)));
    }

    #[test]
    fn zero_bandwidth_edges_are_allowed() {
        // Control edges of negligible rate may legitimately be modeled as 0.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        assert!(g.add_comm(a, b, 0.0).is_ok());
    }

    #[test]
    fn connectivity() {
        let (g, ..) = triangle();
        assert!(g.is_connected());
        let mut g2 = CoreGraph::new();
        g2.add_core("x");
        g2.add_core("y");
        assert!(!g2.is_connected());
        assert!(CoreGraph::new().is_connected());
    }

    #[test]
    fn adjacency_iterators_agree_with_edges() {
        let (g, a, b, c) = triangle();
        let outs: Vec<CoreId> = g.out_edges(a).map(|(_, e)| e.dst).collect();
        assert_eq!(outs, vec![b]);
        let ins: Vec<CoreId> = g.in_edges(a).map(|(_, e)| e.src).collect();
        assert_eq!(ins, vec![c]);
    }

    #[test]
    fn total_bandwidth_sums_all_edges() {
        let (g, ..) = triangle();
        assert_eq!(g.total_bandwidth().to_f64(), 175.0);
    }
}
