//! The dependence graph itself.

use std::collections::HashSet;
use std::fmt;

use crate::edge::{DepKind, Edge, EdgeId};
use crate::node::{Node, NodeId, OpKind};

/// A loop-body data-dependence graph `G = (V, E, δ, λ)`.
///
/// Graphs are immutable once built (see [`crate::DdgBuilder`]); all scheduling
/// phases treat them as read-only inputs and keep their own mutable working
/// state (partial schedules, reduced graphs, ...).
///
/// Node ids are dense (`0..num_nodes()`) and follow program order; edge ids
/// are dense and follow insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Ddg {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    out_edges: Adjacency,
    in_edges: Adjacency,
    /// Number of loop-invariant values read by the loop body (each occupies
    /// one register for the whole loop execution).
    invariants: u32,
    /// Estimated/profiled number of iterations executed by this loop, used
    /// to weight loops in the "dynamic" figures of the evaluation.
    iteration_count: u64,
}

/// The edges at one end of every node, in edge-id order: node `v`'s are
/// `ids[start[v]..start[v + 1]]`.
#[derive(Debug, Clone, PartialEq)]
struct Adjacency {
    start: Vec<usize>,
    ids: Vec<EdgeId>,
}

impl Adjacency {
    /// Groups `edges` by the node `end` picks out of each (a counting sort).
    fn new(num_nodes: usize, edges: &[Edge], end: fn(&Edge) -> NodeId) -> Self {
        let mut start = vec![0; num_nodes + 1];
        for e in edges {
            start[end(e).index() + 1] += 1;
        }
        for v in 0..num_nodes {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut ids = vec![EdgeId(0); edges.len()];
        for (i, e) in edges.iter().enumerate() {
            let slot = &mut next[end(e).index()];
            ids[*slot] = EdgeId::from_index(i);
            *slot += 1;
        }
        Adjacency { start, ids }
    }

    fn of(&self, v: NodeId) -> &[EdgeId] {
        &self.ids[self.start[v.index()]..self.start[v.index() + 1]]
    }
}

impl Ddg {
    pub(crate) fn from_parts(
        name: String,
        nodes: Vec<Node>,
        edges: Vec<Edge>,
        invariants: u32,
        iteration_count: u64,
    ) -> Self {
        Ddg {
            out_edges: Adjacency::new(nodes.len(), &edges, Edge::source),
            in_edges: Adjacency::new(nodes.len(), &edges, Edge::target),
            name,
            nodes,
            edges,
            invariants,
            iteration_count,
        }
    }

    /// The loop's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operations in the loop body.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of dependence edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of loop-invariant values used by the loop.
    #[inline]
    pub fn num_invariants(&self) -> u32 {
        self.invariants
    }

    /// Profiled/estimated iteration count of the loop (defaults to 1).
    #[inline]
    pub fn iteration_count(&self) -> u64 {
        self.iteration_count
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range; ids obtained from this graph are
    /// always valid.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the node with the given id, or `None` if out of range.
    #[inline]
    pub fn get_node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over all node ids in program order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterates over all nodes in program order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::from_index(i), e))
    }

    /// Looks a node up by its unique name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name() == name)
            .map(NodeId::from_index)
    }

    /// Outgoing edges of `id`.
    #[inline]
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.out_edges
            .of(id)
            .iter()
            .map(move |&eid| (eid, &self.edges[eid.index()]))
    }

    /// The ids of the outgoing edges of `id`, in edge-id order.
    #[inline]
    pub(crate) fn out_edge_ids(&self, id: NodeId) -> &[EdgeId] {
        self.out_edges.of(id)
    }

    /// Incoming edges of `id`.
    #[inline]
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.in_edges
            .of(id)
            .iter()
            .map(move |&eid| (eid, &self.edges[eid.index()]))
    }

    /// Distinct successors of `id` (targets of its outgoing edges),
    /// excluding `id` itself when it only appears through self-loops.
    pub fn successors(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (_, e) in self.out_edges(id) {
            if seen.insert(e.target()) {
                out.push(e.target());
            }
        }
        out
    }

    /// Distinct predecessors of `id` (sources of its incoming edges).
    pub fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (_, e) in self.in_edges(id) {
            if seen.insert(e.source()) {
                out.push(e.source());
            }
        }
        out
    }

    /// The consumers of the value defined by `id`, with their dependence
    /// distances: targets of register flow edges leaving `id`, in edge
    /// order. Empty for value-less nodes.
    pub fn consumers(&self, id: NodeId) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.out_edges(id)
            .filter(|(_, e)| e.kind().carries_value())
            .map(|(_, e)| (e.target(), e.distance()))
    }

    /// Whether the graph contains at least one recurrence circuit (a cycle,
    /// including self-loops).
    pub fn has_recurrence(&self) -> bool {
        // Self loops are circuits.
        if self.edges.iter().any(|e| e.is_self_loop()) {
            return true;
        }
        // Any SCC with more than one node is a circuit.
        crate::scc::strongly_connected_components(self)
            .iter()
            .any(|c| c.len() > 1)
    }

    /// Sum of latencies of all operations (an upper bound on the schedule
    /// length of one iteration at infinite resources is `critical path`, and
    /// this sum bounds any schedule produced by a work-conserving scheduler).
    pub fn total_latency(&self) -> u64 {
        self.nodes.iter().map(|n| u64::from(n.latency())).sum()
    }

    /// A rough structural summary used by reports and `Debug`-level logging.
    pub fn summary(&self) -> DdgSummary {
        let loop_carried = self.edges.iter().filter(|e| e.is_loop_carried()).count();
        DdgSummary {
            name: self.name.clone(),
            nodes: self.num_nodes(),
            edges: self.num_edges(),
            loop_carried_edges: loop_carried,
            has_recurrence: self.has_recurrence(),
            invariants: self.invariants,
            iteration_count: self.iteration_count,
        }
    }
}

impl fmt::Display for Ddg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ddg `{}`: {} nodes, {} edges",
            self.name,
            self.num_nodes(),
            self.num_edges()
        )?;
        for (id, n) in self.nodes() {
            writeln!(f, "  {id}: {n}")?;
        }
        for (_, e) in self.edges() {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

/// Structural summary of a [`Ddg`] (see [`Ddg::summary`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdgSummary {
    /// Loop name.
    pub name: String,
    /// Number of operations.
    pub nodes: usize,
    /// Number of dependence edges.
    pub edges: usize,
    /// Number of loop-carried (distance > 0) edges.
    pub loop_carried_edges: usize,
    /// Whether any recurrence circuit exists.
    pub has_recurrence: bool,
    /// Number of loop-invariant values.
    pub invariants: u32,
    /// Profiled iteration count.
    pub iteration_count: u64,
}

/// Convenience constructor used by tests across the workspace: builds a chain
/// `a -> b -> c -> ...` of `n` operations of the given kind and latency.
pub fn chain(name: &str, n: usize, kind: OpKind, latency: u32) -> Ddg {
    let mut b = crate::DdgBuilder::new(name);
    let mut prev = None;
    for i in 0..n {
        let id = b.node(format!("{}{}", kind.mnemonic(), i), kind, latency);
        if let Some(p) = prev {
            b.edge(p, id, DepKind::RegFlow, 0)
                .expect("chain edges are always valid");
        }
        prev = Some(id);
    }
    b.build().expect("chain graphs are always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DdgBuilder;

    fn diamond() -> Ddg {
        // a -> b, a -> c, b -> d, c -> d
        let mut b = DdgBuilder::new("diamond");
        let a = b.node("a", OpKind::Load, 2);
        let x = b.node("b", OpKind::FpAdd, 1);
        let y = b.node("c", OpKind::FpMul, 2);
        let d = b.node("d", OpKind::Store, 1);
        b.edge(a, x, DepKind::RegFlow, 0).unwrap();
        b.edge(a, y, DepKind::RegFlow, 0).unwrap();
        b.edge(x, d, DepKind::RegFlow, 0).unwrap();
        b.edge(y, d, DepKind::RegFlow, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_and_lookup() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.node_by_name("c"), Some(NodeId(2)));
        assert_eq!(g.node_by_name("zzz"), None);
        assert_eq!(g.node(NodeId(0)).name(), "a");
        assert!(g.get_node(NodeId(17)).is_none());
    }

    #[test]
    fn successors_and_predecessors_are_deduplicated() {
        let mut b = DdgBuilder::new("multi");
        let a = b.node("a", OpKind::Load, 2);
        let c = b.node("c", OpKind::FpAdd, 1);
        // two parallel edges a -> c
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(a, c, DepKind::Memory, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.successors(a), vec![c]);
        assert_eq!(g.predecessors(c), vec![a]);
        assert_eq!(g.out_edges(a).count(), 2);
    }

    #[test]
    fn consumers_only_follow_flow_edges() {
        let mut b = DdgBuilder::new("flow");
        let a = b.node("a", OpKind::Load, 2);
        let s = b.node("s", OpKind::Store, 1);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, s, DepKind::RegFlow, 0).unwrap();
        b.edge(a, c, DepKind::Memory, 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.consumers(a).collect::<Vec<_>>(), vec![(s, 0)]);
        assert_eq!(g.consumers(s).count(), 0);
    }

    #[test]
    fn recurrence_detection() {
        let g = diamond();
        assert!(!g.has_recurrence());

        let mut b = DdgBuilder::new("self_loop");
        let a = b.node("a", OpKind::FpAdd, 1);
        b.edge(a, a, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        assert!(g.has_recurrence());

        let mut b = DdgBuilder::new("cycle2");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpMul, 2);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        assert!(g.has_recurrence());
    }

    #[test]
    fn summary_reports_structure() {
        let g = diamond();
        let s = g.summary();
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.loop_carried_edges, 0);
        assert!(!s.has_recurrence);
    }

    #[test]
    fn chain_helper_builds_linear_graph() {
        let g = chain("c", 5, OpKind::FpAdd, 1);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.has_recurrence());
        assert_eq!(g.total_latency(), 5);
    }

    #[test]
    fn display_lists_nodes_and_edges() {
        let g = diamond();
        let text = g.to_string();
        assert!(text.contains("diamond"));
        assert!(text.contains("n0"));
        assert!(text.contains("δ=0"));
    }
}
