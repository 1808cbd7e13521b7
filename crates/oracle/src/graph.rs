//! The adjacency interface the generic oracles are written against.

use hrms_ddg::{Ddg, NodeId};

/// A read-only adjacency view of a graph-like structure.
///
/// The generic [`crate::paths`] and [`crate::topo`] routines run on any
/// implementation: the [`Ddg`] itself, or a test view that hides some edges
/// so the generic routines see the same graph as a filtered
/// [`hrms_ddg::Csr`].
pub trait GraphView {
    /// An upper bound on node ids (used to size visited-bitsets).
    fn node_bound(&self) -> usize;
    /// Whether the node currently exists in the view.
    fn contains(&self, n: NodeId) -> bool;
    /// Distinct successors of `n` in the view.
    fn successors_of(&self, n: NodeId) -> Vec<NodeId>;
    /// Distinct predecessors of `n` in the view.
    fn predecessors_of(&self, n: NodeId) -> Vec<NodeId>;
}

impl GraphView for Ddg {
    fn node_bound(&self) -> usize {
        self.num_nodes()
    }

    fn contains(&self, n: NodeId) -> bool {
        n.index() < self.num_nodes()
    }

    fn successors_of(&self, n: NodeId) -> Vec<NodeId> {
        self.successors(n)
    }

    fn predecessors_of(&self, n: NodeId) -> Vec<NodeId> {
        self.predecessors(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind, OpKind};

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
    fn graph_view_impl_matches_direct_queries() {
        let g = diamond();
        let a = g.node_by_name("a").unwrap();
        assert_eq!(GraphView::successors_of(&g, a), g.successors(a));
        assert_eq!(GraphView::predecessors_of(&g, a), g.predecessors(a));
        assert!(GraphView::contains(&g, a));
        assert_eq!(GraphView::node_bound(&g), 4);
    }
}
