//! The mutable working graph on which hypernode reduction operates.
//!
//! Since the dense-representation rewrite this graph stores its live set as
//! a u64-word bitset ([`hrms_ddg::NodeSet`]) and its per-node adjacency as
//! sorted index vectors (`Vec<u32>`) keyed by the original dense node ids,
//! instead of `HashMap<NodeId, BTreeSet<NodeId>>`. Reduction is `O(degree)`
//! per reduced node, adjacency iteration is `O(degree)` with no hashing and
//! no per-query allocation, and path search / topological sorts run on the
//! index machinery of [`hrms_ddg::dense`] — the representation dense
//! subgraph-extraction schedulers use to make repeated region queries scale.
//! Traversal is deterministic: rows and the live set iterate in ascending
//! node id order.

use hrms_ddg::dense::DenseAdjacency;
use hrms_ddg::{Csr, Ddg, NodeId, NodeSet};

/// A mutable directed graph over a subset of a [`Ddg`]'s nodes, supporting
/// the *hypernode reduction* operation of the paper (Section 3.1):
///
/// > The reduction of a set of nodes to the Hypernode consists of deleting
/// > the set of edges among the nodes of the set and the Hypernode, replacing
/// > the edges between the rest of the nodes and the reduced set of nodes by
/// > edges between the rest of the nodes and the Hypernode, and finally
/// > deleting the set of nodes being reduced.
///
/// The hypernode is identified by the node id it started from; after a
/// reduction the reduced nodes disappear from the graph and their external
/// edges are re-attached to the hypernode. Parallel edges collapse (the
/// pre-ordering only needs adjacency, not multiplicity), and dependence
/// distances are irrelevant here — the work graph is built with the backward
/// edges of every recurrence already removed, so it is acyclic.
#[derive(Debug, Clone)]
pub struct WorkGraph {
    /// The live nodes.
    live: NodeSet,
    /// Number of live nodes (kept incrementally; `NodeSet::len` is a
    /// popcount).
    len: usize,
    /// Successor rows, indexed by node id: sorted, deduplicated index
    /// vectors. Rows of dead nodes are empty and live rows only ever contain
    /// live nodes.
    succs: Vec<Vec<u32>>,
    /// Predecessor rows, symmetric to `succs`.
    preds: Vec<Vec<u32>>,
    /// Upper bound on node ids (from the original graph).
    bound: usize,
}

/// Inserts `x` into a sorted, deduplicated row.
#[inline]
fn row_insert(row: &mut Vec<u32>, x: u32) {
    if let Err(pos) = row.binary_search(&x) {
        row.insert(pos, x);
    }
}

/// Removes `x` from a sorted row if present.
#[inline]
fn row_remove(row: &mut Vec<u32>, x: u32) {
    if let Ok(pos) = row.binary_search(&x) {
        row.remove(pos);
    }
}

impl WorkGraph {
    /// Builds a work graph containing `members` and every edge of `ddg`
    /// whose endpoints are both in `members`, **excluding** the edges listed
    /// in `dropped_edges` (the backward edges of recurrence circuits) and
    /// self-loops.
    pub fn new(
        ddg: &Ddg,
        members: &[NodeId],
        dropped_edges: &std::collections::HashSet<hrms_ddg::EdgeId>,
    ) -> Self {
        let csr = Csr::filtered(ddg, dropped_edges);
        Self::from_csr(&csr, members)
    }

    /// Builds a work graph over `members` from a pre-built (already
    /// backward-edge-filtered) [`Csr`] adjacency, in
    /// `O(bound + Σ degree(members))`. The pre-ordering driver builds the
    /// CSR once per loop and carves one work graph per weakly connected
    /// component out of it.
    pub fn from_csr(csr: &Csr, members: &[NodeId]) -> Self {
        let bound = csr.node_bound();
        let mut live = NodeSet::new(bound);
        for &m in members {
            live.insert(m.index());
        }
        let len = live.len();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); bound];
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); bound];
        for m in live.iter() {
            // CSR rows are sorted and deduplicated, so the filtered copies
            // are too; predecessor rows receive ascending `m`, keeping them
            // sorted as well.
            succs[m] = csr
                .succs(m)
                .iter()
                .copied()
                .filter(|&t| live.contains(t as usize))
                .collect();
            for &t in &succs[m] {
                preds[t as usize].push(m as u32);
            }
        }
        WorkGraph {
            live,
            len,
            succs,
            preds,
            bound,
        }
    }

    /// Number of nodes still present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live-node bitset (ascending iteration order).
    #[inline]
    pub fn live(&self) -> &NodeSet {
        &self.live
    }

    /// The successor row of node `i`: a sorted, deduplicated slice of live
    /// node indices (empty for dead nodes).
    #[inline]
    pub fn succ_row(&self, i: usize) -> &[u32] {
        &self.succs[i]
    }

    /// The predecessor row of node `i` (empty for dead nodes).
    #[inline]
    pub fn pred_row(&self, i: usize) -> &[u32] {
        &self.preds[i]
    }

    /// Reduces `set` into the hypernode `h`: every member of `set` is
    /// removed, its edges to/from `h` (or other members) are deleted, and
    /// its edges to/from the rest of the graph are re-attached to `h`.
    ///
    /// Nodes of `set` that are not (or no longer) present are ignored; `h`
    /// itself is never removed.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not present in the graph.
    pub fn reduce(&mut self, set: &[NodeId], h: NodeId) {
        let mut victims = NodeSet::new(self.bound);
        for &v in set {
            if v.index() < self.bound {
                victims.insert(v.index());
            }
        }
        self.reduce_set(&victims, h);
    }

    /// [`WorkGraph::reduce`] over a bitset of victims — the allocation-free
    /// fast path used by the pre-ordering phase. Runs in
    /// `O(Σ degree(victims))` word operations.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not present in the graph.
    pub fn reduce_set(&mut self, set: &NodeSet, h: NodeId) {
        let hi = h.index();
        assert!(
            self.live.contains(hi),
            "hypernode {h} is not in the work graph"
        );
        let mut victims = set.clone();
        victims.intersect_with(&self.live);
        victims.remove(hi);

        for v in victims.iter() {
            let out = std::mem::take(&mut self.succs[v]);
            let inc = std::mem::take(&mut self.preds[v]);
            self.live.remove(v);
            self.len -= 1;
            for &t in &out {
                row_remove(&mut self.preds[t as usize], v as u32);
                if t as usize == hi || victims.contains(t as usize) {
                    continue;
                }
                // redirect v -> t into h -> t
                row_insert(&mut self.succs[hi], t);
                row_insert(&mut self.preds[t as usize], hi as u32);
            }
            for &s in &inc {
                row_remove(&mut self.succs[s as usize], v as u32);
                if s as usize == hi || victims.contains(s as usize) {
                    continue;
                }
                // redirect s -> v into s -> h
                row_insert(&mut self.succs[s as usize], hi as u32);
                row_insert(&mut self.preds[hi], s);
            }
        }
        // Drop any edge between h and itself that redirection may have
        // introduced.
        row_remove(&mut self.succs[hi], hi as u32);
        row_remove(&mut self.preds[hi], hi as u32);
    }

    /// Ensures `extra` is present (used when connecting a disconnected
    /// recurrence subgraph to the hypernode): inserts it with no edges if it
    /// was absent. Returns whether it was inserted.
    pub fn ensure_node(&mut self, extra: NodeId) -> bool {
        if self.live.contains(extra.index()) {
            return false;
        }
        self.live.insert(extra.index());
        self.len += 1;
        true
    }

    /// A new work graph containing only `members` (those of them currently
    /// present) and the edges of this graph whose endpoints are both kept.
    ///
    /// This implements the paper's `Generate_Subgraph(V', G)`: the
    /// recurrence-ordering procedure extracts the subgraph spanned by the
    /// hypernode, the next recurrence circuit and the paths connecting them,
    /// orders it in isolation, and then reduces it in the main graph.
    pub fn restricted_set(&self, members: &NodeSet) -> WorkGraph {
        let mut live = members.clone();
        live.intersect_with(&self.live);
        let len = live.len();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); self.bound];
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); self.bound];
        for m in live.iter() {
            succs[m] = self.succs[m]
                .iter()
                .copied()
                .filter(|&t| live.contains(t as usize))
                .collect();
            preds[m] = self.preds[m]
                .iter()
                .copied()
                .filter(|&s| live.contains(s as usize))
                .collect();
        }
        WorkGraph {
            live,
            len,
            succs,
            preds,
            bound: self.bound,
        }
    }
}

impl DenseAdjacency for WorkGraph {
    fn node_bound(&self) -> usize {
        self.bound
    }

    fn is_live(&self, i: usize) -> bool {
        self.live.contains(i)
    }

    fn for_each_succ(&self, i: usize, f: &mut dyn FnMut(usize)) {
        for &t in &self.succs[i] {
            f(t as usize);
        }
    }

    fn for_each_pred(&self, i: usize, f: &mut dyn FnMut(usize)) {
        for &s in &self.preds[i] {
            f(s as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind, OpKind};
    use std::collections::HashSet;

    fn succs(wg: &WorkGraph, n: NodeId) -> Vec<NodeId> {
        wg.succ_row(n.index()).iter().map(|&t| NodeId(t)).collect()
    }

    fn preds(wg: &WorkGraph, n: NodeId) -> Vec<NodeId> {
        wg.pred_row(n.index()).iter().map(|&t| NodeId(t)).collect()
    }

    fn contains(wg: &WorkGraph, n: NodeId) -> bool {
        wg.live().contains(n.index())
    }

    /// a -> b -> c, a -> c
    fn triangle() -> (Ddg, Vec<NodeId>) {
        let mut bld = DdgBuilder::new("t");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        let c = bld.node("c", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, c, DepKind::RegFlow, 0).unwrap();
        bld.edge(a, c, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        (g, vec![a, b, c])
    }

    #[test]
    fn construction_restricts_to_members() {
        let (g, ids) = triangle();
        let wg = WorkGraph::new(&g, &[ids[0], ids[1]], &HashSet::new());
        assert_eq!(wg.len(), 2);
        assert_eq!(succs(&wg, ids[0]), vec![ids[1]]);
        assert!(succs(&wg, ids[1]).is_empty(), "edge to c is outside");
        assert!(!contains(&wg, ids[2]));
    }

    #[test]
    fn dropped_edges_are_excluded() {
        let (g, ids) = triangle();
        let drop: HashSet<_> = g
            .edges()
            .filter(|(_, e)| e.source() == ids[0] && e.target() == ids[2])
            .map(|(eid, _)| eid)
            .collect();
        let wg = WorkGraph::new(&g, &ids, &drop);
        assert_eq!(succs(&wg, ids[0]), vec![ids[1]]);
        assert_eq!(preds(&wg, ids[2]), vec![ids[1]]);
    }

    #[test]
    fn self_loops_never_appear() {
        let mut bld = DdgBuilder::new("s");
        let a = bld.node("a", OpKind::FpAdd, 1);
        bld.edge(a, a, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let wg = WorkGraph::new(&g, &[a], &HashSet::new());
        assert!(succs(&wg, a).is_empty());
        assert!(preds(&wg, a).is_empty());
    }

    #[test]
    fn reduce_redirects_external_edges() {
        // a -> b -> c with hypernode a: reducing {b} must leave a -> c.
        let (g, ids) = triangle();
        let mut wg = WorkGraph::new(&g, &ids, &HashSet::new());
        wg.reduce(&[ids[1]], ids[0]);
        assert_eq!(wg.len(), 2);
        assert_eq!(succs(&wg, ids[0]), vec![ids[2]]);
        assert_eq!(preds(&wg, ids[2]), vec![ids[0]]);
        assert!(!contains(&wg, ids[1]));
    }

    #[test]
    fn reduce_from_the_other_side() {
        // Hypernode c: reducing {b} must produce a -> c (already present) and
        // drop b entirely.
        let (g, ids) = triangle();
        let mut wg = WorkGraph::new(&g, &ids, &HashSet::new());
        wg.reduce(&[ids[1]], ids[2]);
        assert_eq!(succs(&wg, ids[0]), vec![ids[2]]);
        assert_eq!(preds(&wg, ids[2]), vec![ids[0]]);
    }

    #[test]
    fn reduce_never_creates_hypernode_self_loop() {
        let (g, ids) = triangle();
        let mut wg = WorkGraph::new(&g, &ids, &HashSet::new());
        // Reducing both b and c into a leaves a alone with no self edges.
        wg.reduce(&[ids[1], ids[2]], ids[0]);
        assert_eq!(wg.len(), 1);
        assert!(succs(&wg, ids[0]).is_empty());
        assert!(preds(&wg, ids[0]).is_empty());
    }

    #[test]
    fn reduce_ignores_absent_nodes_and_hypernode_itself() {
        let (g, ids) = triangle();
        let mut wg = WorkGraph::new(&g, &ids, &HashSet::new());
        wg.reduce(&[ids[1]], ids[0]);
        // Reducing b again (already gone) and a (the hypernode) is a no-op.
        wg.reduce(&[ids[1], ids[0]], ids[0]);
        assert_eq!(wg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not in the work graph")]
    fn reduce_panics_without_hypernode() {
        let (g, ids) = triangle();
        let mut wg = WorkGraph::new(&g, &[ids[0], ids[1]], &HashSet::new());
        wg.reduce(&[ids[1]], ids[2]);
    }

    #[test]
    fn ensure_node_inserts_isolated_nodes() {
        let (g, ids) = triangle();
        let mut wg = WorkGraph::new(&g, &[ids[0]], &HashSet::new());
        assert!(wg.ensure_node(ids[2]));
        assert!(!wg.ensure_node(ids[2]));
        assert!(contains(&wg, ids[2]));
        assert!(succs(&wg, ids[2]).is_empty());
    }

    #[test]
    fn figure7_style_chain_of_reductions() {
        // Mirrors the shape of the paper's Figure 7 walk-through on a small
        // graph: successively reducing neighbours into the hypernode keeps
        // exposing the next layer.
        let mut bld = DdgBuilder::new("f");
        let a = bld.node("A", OpKind::FpAdd, 1);
        let c = bld.node("C", OpKind::FpAdd, 1);
        let g_ = bld.node("G", OpKind::FpAdd, 1);
        let h = bld.node("H", OpKind::FpAdd, 1);
        let d = bld.node("D", OpKind::FpAdd, 1);
        bld.edge(a, c, DepKind::RegFlow, 0).unwrap();
        bld.edge(c, g_, DepKind::RegFlow, 0).unwrap();
        bld.edge(c, h, DepKind::RegFlow, 0).unwrap();
        bld.edge(d, h, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        let mut wg = WorkGraph::new(&g, &g.node_ids().collect::<Vec<_>>(), &HashSet::new());

        assert_eq!(succs(&wg, a), vec![c]);
        wg.reduce(&[c], a);
        assert_eq!(succs(&wg, a), vec![g_, h]);
        wg.reduce(&[g_, h], a);
        assert_eq!(preds(&wg, a), vec![d]);
        wg.reduce(&[d], a);
        assert_eq!(wg.len(), 1);
    }

    #[test]
    fn restricted_set_keeps_only_internal_edges() {
        let (g, ids) = triangle();
        let wg = WorkGraph::new(&g, &ids, &HashSet::new());
        let mut keep = NodeSet::new(g.num_nodes());
        keep.insert(ids[0].index());
        keep.insert(ids[2].index());
        let sub = wg.restricted_set(&keep);
        assert_eq!(sub.len(), 2);
        assert_eq!(succs(&sub, ids[0]), vec![ids[2]]);
        assert!(!contains(&sub, ids[1]));
        // The original is untouched.
        assert_eq!(wg.len(), 3);
    }

    #[test]
    fn dense_rows_track_reductions() {
        let (g, ids) = triangle();
        let mut wg = WorkGraph::new(&g, &ids, &HashSet::new());
        assert!(wg.succ_row(ids[0].index()).contains(&ids[1].0));
        wg.reduce(&[ids[1]], ids[0]);
        assert!(wg.succ_row(ids[1].index()).is_empty(), "dead row is empty");
        assert!(wg.pred_row(ids[2].index()).contains(&ids[0].0));
        assert_eq!(wg.live().to_node_ids(), vec![ids[0], ids[2]]);
    }
}
