//! Incremental construction of dependence graphs.

use std::collections::HashSet;

use crate::edge::{DepKind, Edge};
use crate::error::DdgError;
use crate::graph::Ddg;
use crate::node::{Node, NodeId, OpKind};

/// Builder for [`Ddg`] values.
///
/// Nodes are added in program order; the id returned by [`DdgBuilder::node`]
/// is stable and can immediately be used to add edges. Validation (unique
/// names, positive latencies, edge endpoints in range, flow edges leaving
/// value-defining operations) happens partly eagerly and partly in
/// [`DdgBuilder::build`].
///
/// # Example
///
/// ```
/// use hrms_ddg::{DdgBuilder, OpKind, DepKind};
///
/// # fn main() -> Result<(), hrms_ddg::DdgError> {
/// let mut b = DdgBuilder::new("saxpy");
/// let lx = b.node("load_x", OpKind::Load, 2);
/// let ly = b.node("load_y", OpKind::Load, 2);
/// let mul = b.node("a_times_x", OpKind::FpMul, 2);
/// let add = b.node("plus_y", OpKind::FpAdd, 1);
/// let st = b.node("store", OpKind::Store, 1);
/// b.edge(lx, mul, DepKind::RegFlow, 0)?;
/// b.edge(ly, add, DepKind::RegFlow, 0)?;
/// b.edge(mul, add, DepKind::RegFlow, 0)?;
/// b.edge(add, st, DepKind::RegFlow, 0)?;
/// let ddg = b.invariants(1).iteration_count(1000).build()?;
/// assert_eq!(ddg.num_nodes(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DdgBuilder {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    invariants: Option<u32>,
    iteration_count: u64,
}

impl DdgBuilder {
    /// Starts a new builder for a loop with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        DdgBuilder {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            invariants: None,
            iteration_count: 1,
        }
    }

    /// Adds an operation and returns its id. Ids are assigned in program
    /// order starting from 0.
    pub fn node(&mut self, name: impl Into<String>, kind: OpKind, latency: u32) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node::new(name.into(), kind, latency));
        id
    }

    /// Adds an operation that does **not** define a loop-variant value even
    /// though its [`OpKind`] normally would (e.g. a compare feeding a
    /// branch).
    pub fn node_no_result(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        latency: u32,
    ) -> NodeId {
        let id = self.node(name, kind, latency);
        self.nodes[id.index()].set_defines_value(false);
        id
    }

    /// Declares that the operation `id` reads `uses` loop-invariant values.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this builder.
    pub fn node_invariant_uses(&mut self, id: NodeId, uses: u32) -> &mut Self {
        self.nodes[id.index()].set_invariant_uses(uses);
        self
    }

    /// Overrides the latency of an already-added node (used by
    /// machine-description helpers that re-latency a graph for a different
    /// machine configuration).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this builder.
    pub fn set_latency(&mut self, id: NodeId, latency: u32) -> &mut Self {
        self.nodes[id.index()].set_latency(latency);
        self
    }

    /// Adds a dependence edge from `source` to `target` with the given kind
    /// and distance.
    ///
    /// # Errors
    ///
    /// Returns [`DdgError::UnknownNode`] if either endpoint has not been
    /// added yet, and [`DdgError::FlowFromValueless`] if a register flow
    /// edge leaves an operation that defines no value.
    pub fn edge(
        &mut self,
        source: NodeId,
        target: NodeId,
        kind: DepKind,
        distance: u32,
    ) -> Result<&mut Self, DdgError> {
        if source.index() >= self.nodes.len() {
            return Err(DdgError::UnknownNode { id: source });
        }
        if target.index() >= self.nodes.len() {
            return Err(DdgError::UnknownNode { id: target });
        }
        if kind.carries_value() && !self.nodes[source.index()].defines_value() {
            return Err(DdgError::FlowFromValueless { from: source });
        }
        self.edges.push(Edge::new(source, target, kind, distance));
        Ok(self)
    }

    /// Convenience wrapper for the most common case: an intra-iteration
    /// register flow dependence.
    ///
    /// # Errors
    ///
    /// Same as [`DdgBuilder::edge`].
    pub fn flow(&mut self, source: NodeId, target: NodeId) -> Result<&mut Self, DdgError> {
        self.edge(source, target, DepKind::RegFlow, 0)
    }

    /// Sets the number of loop-invariant values used by the loop. When not
    /// set explicitly, the total is the sum of per-node invariant uses.
    pub fn invariants(&mut self, count: u32) -> &mut Self {
        self.invariants = Some(count);
        self
    }

    /// Sets the profiled iteration count used for dynamic weighting
    /// (defaults to 1).
    pub fn iteration_count(&mut self, count: u64) -> &mut Self {
        self.iteration_count = count;
        self
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Validates the accumulated loop body and produces the immutable
    /// [`Ddg`].
    ///
    /// # Errors
    ///
    /// * [`DdgError::EmptyGraph`] if no node was added.
    /// * [`DdgError::ZeroLatency`] if any node has latency 0.
    /// * [`DdgError::DuplicateName`] if two nodes share a name.
    pub fn build(&self) -> Result<Ddg, DdgError> {
        self.clone().into_ddg()
    }

    /// [`DdgBuilder::build`] for a builder that is no longer needed: the
    /// name, nodes and edges move into the graph.
    pub(crate) fn into_ddg(self) -> Result<Ddg, DdgError> {
        if self.nodes.is_empty() {
            return Err(DdgError::EmptyGraph);
        }
        let mut names = HashSet::with_capacity(self.nodes.len());
        for n in &self.nodes {
            if n.latency() == 0 {
                return Err(DdgError::ZeroLatency {
                    name: n.name().to_string(),
                });
            }
            if !names.insert(n.name()) {
                return Err(DdgError::DuplicateName {
                    name: n.name().to_string(),
                });
            }
        }
        let invariants = self
            .invariants
            .unwrap_or_else(|| self.nodes.iter().map(|n| n.invariant_uses()).sum());
        Ok(Ddg::from_parts(
            self.name,
            self.nodes,
            self.edges,
            invariants,
            self.iteration_count,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_graph() {
        let mut b = DdgBuilder::new("g");
        let a = b.node("a", OpKind::Load, 2);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.flow(a, c).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.name(), "g");
    }

    #[test]
    fn rejects_empty_graph() {
        let b = DdgBuilder::new("empty");
        assert!(matches!(b.build(), Err(DdgError::EmptyGraph)));
    }

    #[test]
    fn rejects_zero_latency() {
        let mut b = DdgBuilder::new("z");
        b.node("a", OpKind::FpAdd, 0);
        assert!(matches!(b.build(), Err(DdgError::ZeroLatency { .. })));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = DdgBuilder::new("dup");
        b.node("a", OpKind::FpAdd, 1);
        b.node("a", OpKind::FpMul, 2);
        assert!(matches!(b.build(), Err(DdgError::DuplicateName { .. })));
    }

    #[test]
    fn rejects_dangling_edges() {
        let mut b = DdgBuilder::new("dangling");
        let a = b.node("a", OpKind::FpAdd, 1);
        let err = b.edge(a, NodeId(7), DepKind::RegFlow, 0).unwrap_err();
        assert!(matches!(err, DdgError::UnknownNode { id: NodeId(7) }));
        let err = b.edge(NodeId(9), a, DepKind::RegFlow, 0).unwrap_err();
        assert!(matches!(err, DdgError::UnknownNode { id: NodeId(9) }));
    }

    #[test]
    fn rejects_flow_from_store() {
        let mut b = DdgBuilder::new("store_flow");
        let s = b.node("s", OpKind::Store, 1);
        let a = b.node("a", OpKind::FpAdd, 1);
        let err = b.flow(s, a).unwrap_err();
        assert!(matches!(err, DdgError::FlowFromValueless { .. }));
        // but a memory edge from a store is fine
        b.edge(s, a, DepKind::Memory, 1).unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn node_no_result_is_not_a_value_producer() {
        let mut b = DdgBuilder::new("branchy");
        let cmp = b.node_no_result("cmp", OpKind::IntAlu, 1);
        let add = b.node("add", OpKind::FpAdd, 1);
        assert!(b.flow(cmp, add).is_err());
        b.edge(cmp, add, DepKind::Control, 0).unwrap();
        let g = b.build().unwrap();
        assert!(!g.node(cmp).defines_value());
    }

    #[test]
    fn invariants_default_to_sum_of_node_uses() {
        let mut b = DdgBuilder::new("inv");
        let a = b.node("a", OpKind::FpMul, 2);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.node_invariant_uses(a, 2);
        b.node_invariant_uses(c, 1);
        let g = b.build().unwrap();
        assert_eq!(g.num_invariants(), 3);
    }

    #[test]
    fn explicit_invariants_override_sum() {
        let mut b = DdgBuilder::new("inv2");
        let a = b.node("a", OpKind::FpMul, 2);
        b.node_invariant_uses(a, 2);
        b.invariants(5);
        let g = b.build().unwrap();
        assert_eq!(g.num_invariants(), 5);
    }

    #[test]
    fn iteration_count_is_recorded() {
        let mut b = DdgBuilder::new("it");
        b.node("a", OpKind::FpAdd, 1);
        b.iteration_count(12345);
        assert_eq!(b.build().unwrap().iteration_count(), 12345);
    }

    #[test]
    fn set_latency_overrides() {
        let mut b = DdgBuilder::new("lat");
        let a = b.node("a", OpKind::FpAdd, 1);
        b.set_latency(a, 4);
        let g = b.build().unwrap();
        assert_eq!(g.node(a).latency(), 4);
    }

    #[test]
    fn builder_is_reusable_after_build() {
        let mut b = DdgBuilder::new("reuse");
        b.node("a", OpKind::FpAdd, 1);
        let g1 = b.build().unwrap();
        b.node("b", OpKind::FpMul, 2);
        let g2 = b.build().unwrap();
        assert_eq!(g1.num_nodes(), 1);
        assert_eq!(g2.num_nodes(), 2);
    }
}
