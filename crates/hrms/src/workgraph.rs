//! The mutable working graph on which hypernode reduction operates.
//!
//! The work graph is a view over the loop's backward-edge-free
//! [`Csr`] (`LoopAnalysis::csr_work`) made of three bitsets
//! ([`hrms_ddg::NodeSet`]):
//!
//! * the *live* nodes, still to be absorbed;
//! * the static successors and the static predecessors of the hypernode
//!   and of every node absorbed into it: the union of their CSR rows.
//!
//! A live node's neighbours are its live CSR entries, with the hypernode
//! standing in for the absorbed ones (the node is then in the hypernode's
//! opposite neighbour set), deduplicated and in ascending order; the
//! hypernode's are the live members of its two neighbour sets. A
//! reduction takes nodes out of the live set and ORs their CSR rows into
//! the hypernode's sets, in `O(Σ degree)` word operations with no
//! allocation, and a restricted copy copies the three bitsets. Every
//! reduction of one work graph goes into the same hypernode: the
//! pre-ordering grows one hypernode per component.
//! Traversal is deterministic and ascending, and path search and
//! topological sorts run on the index machinery of [`hrms_ddg::dense`].

use hrms_ddg::dense::DenseAdjacency;
use hrms_ddg::{Csr, NodeId, NodeSet};

/// A mutable directed graph over a subset of a loop's nodes, supporting
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
/// edges are attached to the hypernode. Parallel edges collapse (the
/// pre-ordering only needs adjacency, not multiplicity), and dependence
/// distances are irrelevant here — the underlying CSR has the backward
/// edges of every recurrence removed, so it is acyclic.
#[derive(Debug, Clone)]
pub struct WorkGraph<'a> {
    csr: &'a Csr,
    /// The nodes still present.
    live: NodeSet,
    /// Number of live nodes (kept incrementally; `NodeSet::len` is a
    /// popcount).
    len: usize,
    /// The node every reduction goes into, once there has been one.
    hypernode: Option<usize>,
    /// The CSR successors of the hypernode and of every absorbed node,
    /// never the hypernode itself.
    hyper_succs: NodeSet,
    /// The CSR predecessors of the same nodes, never the hypernode.
    hyper_preds: NodeSet,
}

impl<'a> WorkGraph<'a> {
    /// A work graph over `members` and every edge of `csr` between two of
    /// them, with no hypernode yet. The pre-ordering builds one over the
    /// loop's backward-edge-free CSR and resets it for each weakly
    /// connected component.
    pub fn new(csr: &'a Csr, members: &[NodeId]) -> Self {
        let bound = csr.node_bound();
        let mut graph = WorkGraph {
            csr,
            live: NodeSet::new(bound),
            len: 0,
            hypernode: None,
            hyper_succs: NodeSet::new(bound),
            hyper_preds: NodeSet::new(bound),
        };
        graph.reset(members);
        graph
    }

    /// Makes this the work graph over `members`, with no hypernode, in the
    /// allocations of the previous one. `O(bound / 64 + |members|)`.
    pub(crate) fn reset(&mut self, members: &[NodeId]) {
        self.live.clear();
        for &m in members {
            self.live.insert(m.index());
        }
        self.len = self.live.len();
        self.hypernode = None;
        self.hyper_succs.clear();
        self.hyper_preds.clear();
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

    /// Whether live node `i` has a successor: a word test for the
    /// hypernode, `O(degree(i))` for any other node.
    pub(crate) fn has_succs(&self, i: usize) -> bool {
        if self.hypernode == Some(i) {
            return self.hyper_succs.intersects(&self.live);
        }
        let mut any = false;
        self.for_each_succ(i, &mut |_| any = true);
        any
    }

    /// Whether live node `i` has a predecessor; see
    /// [`WorkGraph::has_succs`].
    pub(crate) fn has_preds(&self, i: usize) -> bool {
        if self.hypernode == Some(i) {
            return self.hyper_preds.intersects(&self.live);
        }
        let mut any = false;
        self.for_each_pred(i, &mut |_| any = true);
        any
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
    /// Panics if `h` is not present in the graph, or if an earlier
    /// reduction went into another hypernode.
    pub fn reduce(&mut self, set: &[NodeId], h: NodeId) {
        self.absorb(set.iter().map(|v| v.index()), h);
    }

    /// [`WorkGraph::reduce`] over a bitset of victims. Runs in
    /// `O(|set| + Σ degree(victims))` word operations with no allocation.
    ///
    /// # Panics
    ///
    /// As [`WorkGraph::reduce`].
    pub fn reduce_set(&mut self, set: &NodeSet, h: NodeId) {
        self.absorb(set.iter(), h);
    }

    fn absorb(&mut self, victims: impl Iterator<Item = usize>, h: NodeId) {
        let hi = h.index();
        assert!(
            self.live.contains(hi),
            "hypernode {h} is not in the work graph"
        );
        match self.hypernode {
            None => {
                self.hypernode = Some(hi);
                self.merge_rows(hi);
            }
            Some(current) => assert_eq!(
                current, hi,
                "every reduction of one work graph goes into one hypernode"
            ),
        }
        for v in victims {
            if v != hi && self.live.remove(v) {
                self.len -= 1;
                self.merge_rows(v);
            }
        }
        self.hyper_succs.remove(hi);
        self.hyper_preds.remove(hi);
    }

    /// ORs node `v`'s CSR rows into the hypernode's neighbour sets.
    fn merge_rows(&mut self, v: usize) {
        for &t in self.csr.succs(v) {
            self.hyper_succs.insert(t as usize);
        }
        for &s in self.csr.preds(v) {
            self.hyper_preds.insert(s as usize);
        }
    }

    /// Restricts the graph to those of `members` that are present, keeping
    /// the hypernode and what it absorbed: the paper's
    /// `Generate_Subgraph(V', G)`. The recurrence-ordering procedure copies
    /// the work graph (three bitsets), restricts the copy to the subgraph
    /// spanned by the hypernode, the next recurrence circuit and the paths
    /// connecting them, orders it in isolation, and then reduces that
    /// subgraph in the main graph.
    pub fn restrict(&mut self, members: &NodeSet) {
        self.live.intersect_with(members);
        self.len = self.live.len();
    }

    /// Calls `f` for the live entries of the CSR `row` of a live node other
    /// than the hypernode, ascending, with the hypernode standing in at its
    /// place for the absorbed entries when `to_hypernode` says the node
    /// has an edge to (or from) the hypernode or an absorbed node.
    fn for_each_in_row(&self, row: &[u32], to_hypernode: bool, f: &mut dyn FnMut(usize)) {
        let mut pending = self
            .hypernode
            .filter(|&h| to_hypernode && self.live.contains(h));
        for &t in row {
            let t = t as usize;
            if !self.live.contains(t) || Some(t) == self.hypernode {
                continue;
            }
            if let Some(h) = pending.filter(|&h| h < t) {
                f(h);
                pending = None;
            }
            f(t);
        }
        if let Some(h) = pending {
            f(h);
        }
    }
}

impl DenseAdjacency for WorkGraph<'_> {
    fn node_bound(&self) -> usize {
        self.csr.node_bound()
    }

    fn is_live(&self, i: usize) -> bool {
        self.live.contains(i)
    }

    fn for_each_succ(&self, i: usize, f: &mut dyn FnMut(usize)) {
        if !self.live.contains(i) {
            return;
        }
        if self.hypernode == Some(i) {
            let live = self.hyper_succs.iter().filter(|&t| self.live.contains(t));
            live.for_each(f);
        } else {
            self.for_each_in_row(self.csr.succs(i), self.hyper_preds.contains(i), f);
        }
    }

    fn for_each_pred(&self, i: usize, f: &mut dyn FnMut(usize)) {
        if !self.live.contains(i) {
            return;
        }
        if self.hypernode == Some(i) {
            let live = self.hyper_preds.iter().filter(|&s| self.live.contains(s));
            live.for_each(f);
        } else {
            self.for_each_in_row(self.csr.preds(i), self.hyper_succs.contains(i), f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{Ddg, DdgBuilder, DepKind, OpKind};

    fn succs(wg: &WorkGraph, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        wg.for_each_succ(n.index(), &mut |t| out.push(NodeId::from_index(t)));
        out
    }

    fn preds(wg: &WorkGraph, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        wg.for_each_pred(n.index(), &mut |s| out.push(NodeId::from_index(s)));
        out
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
        let csr = Csr::from_graph(&g);
        let wg = WorkGraph::new(&csr, &[ids[0], ids[1]]);
        assert_eq!(wg.len(), 2);
        assert_eq!(succs(&wg, ids[0]), vec![ids[1]]);
        assert!(succs(&wg, ids[1]).is_empty(), "edge to c is outside");
        assert!(!contains(&wg, ids[2]));
    }

    #[test]
    fn dropped_edges_are_excluded() {
        let (g, ids) = triangle();
        let csr = Csr::filtered(&g, |_, e| e.source() == ids[0] && e.target() == ids[2]);
        let wg = WorkGraph::new(&csr, &ids);
        assert_eq!(succs(&wg, ids[0]), vec![ids[1]]);
        assert_eq!(preds(&wg, ids[2]), vec![ids[1]]);
    }

    #[test]
    fn self_loops_never_appear() {
        let mut bld = DdgBuilder::new("s");
        let a = bld.node("a", OpKind::FpAdd, 1);
        bld.edge(a, a, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let csr = Csr::from_graph(&g);
        let wg = WorkGraph::new(&csr, &[a]);
        assert!(succs(&wg, a).is_empty());
        assert!(preds(&wg, a).is_empty());
    }

    #[test]
    fn reduce_redirects_external_edges() {
        // a -> b -> c with hypernode a: reducing {b} must leave a -> c.
        let (g, ids) = triangle();
        let csr = Csr::from_graph(&g);
        let mut wg = WorkGraph::new(&csr, &ids);
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
        let csr = Csr::from_graph(&g);
        let mut wg = WorkGraph::new(&csr, &ids);
        wg.reduce(&[ids[1]], ids[2]);
        assert_eq!(succs(&wg, ids[0]), vec![ids[2]]);
        assert_eq!(preds(&wg, ids[2]), vec![ids[0]]);
    }

    #[test]
    fn reduce_never_creates_hypernode_self_loop() {
        let (g, ids) = triangle();
        let csr = Csr::from_graph(&g);
        let mut wg = WorkGraph::new(&csr, &ids);
        // Reducing both b and c into a leaves a alone with no self edges.
        wg.reduce(&[ids[1], ids[2]], ids[0]);
        assert_eq!(wg.len(), 1);
        assert!(succs(&wg, ids[0]).is_empty());
        assert!(preds(&wg, ids[0]).is_empty());
        assert!(!wg.has_succs(ids[0].index()) && !wg.has_preds(ids[0].index()));
    }

    #[test]
    fn reduce_ignores_absent_nodes_and_hypernode_itself() {
        let (g, ids) = triangle();
        let csr = Csr::from_graph(&g);
        let mut wg = WorkGraph::new(&csr, &ids);
        wg.reduce(&[ids[1]], ids[0]);
        // Reducing b again (already gone) and a (the hypernode) is a no-op.
        wg.reduce(&[ids[1], ids[0]], ids[0]);
        assert_eq!(wg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not in the work graph")]
    fn reduce_panics_without_hypernode() {
        let (g, ids) = triangle();
        let csr = Csr::from_graph(&g);
        let mut wg = WorkGraph::new(&csr, &[ids[0], ids[1]]);
        wg.reduce(&[ids[1]], ids[2]);
    }

    #[test]
    #[should_panic(expected = "goes into one hypernode")]
    fn reductions_into_a_second_hypernode_panic() {
        let mut bld = DdgBuilder::new("chain");
        let ids: Vec<NodeId> = (0..4)
            .map(|i| bld.node(format!("n{i}"), OpKind::FpAdd, 1))
            .collect();
        for w in ids.windows(2) {
            bld.edge(w[0], w[1], DepKind::RegFlow, 0).unwrap();
        }
        let g = bld.build().unwrap();
        let csr = Csr::from_graph(&g);
        let mut wg = WorkGraph::new(&csr, &ids);
        wg.reduce(&[ids[1]], ids[0]);
        wg.reduce(&[ids[2]], ids[3]);
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
        let csr = Csr::from_graph(&g);
        let mut wg = WorkGraph::new(&csr, &g.node_ids().collect::<Vec<_>>());

        assert_eq!(succs(&wg, a), vec![c]);
        wg.reduce(&[c], a);
        assert_eq!(succs(&wg, a), vec![g_, h]);
        assert_eq!(preds(&wg, h), vec![a, d], "C -> H now reads A -> H");
        wg.reduce(&[g_, h], a);
        assert_eq!(preds(&wg, a), vec![d]);
        assert_eq!(succs(&wg, d), vec![a], "D -> H now reads D -> A");
        wg.reduce(&[d], a);
        assert_eq!(wg.len(), 1);
    }

    #[test]
    fn redirected_neighbours_stay_ascending_and_distinct() {
        // n0 -> n2, n1 -> n2, n1 -> n3, n1 -> n4 with hypernode n2 absorbing
        // n3: n1's successors n2, n3 and n4 read n2 (once) and n4.
        let mut bld = DdgBuilder::new("asc");
        let ids: Vec<NodeId> = (0..5)
            .map(|i| bld.node(format!("n{i}"), OpKind::FpAdd, 1))
            .collect();
        for (s, t) in [(0, 2), (1, 2), (1, 3), (1, 4)] {
            bld.edge(ids[s], ids[t], DepKind::RegFlow, 0).unwrap();
        }
        let g = bld.build().unwrap();
        let csr = Csr::from_graph(&g);
        let mut wg = WorkGraph::new(&csr, &ids);
        wg.reduce(&[ids[3]], ids[2]);
        assert_eq!(succs(&wg, ids[1]), vec![ids[2], ids[4]]);
        assert_eq!(preds(&wg, ids[2]), vec![ids[0], ids[1]]);
        // Absorbing n4 as well: n1 -> {n2, n3, n4} is one edge to n2.
        wg.reduce(&[ids[4]], ids[2]);
        assert_eq!(succs(&wg, ids[1]), vec![ids[2]]);
        assert!(wg.has_preds(ids[2].index()));
        assert!(!wg.has_succs(ids[2].index()));
    }

    #[test]
    fn restriction_keeps_only_internal_edges() {
        let (g, ids) = triangle();
        let csr = Csr::from_graph(&g);
        let wg = WorkGraph::new(&csr, &ids);
        let mut keep = NodeSet::new(g.num_nodes());
        keep.insert(ids[0].index());
        keep.insert(ids[2].index());
        let mut sub = wg.clone();
        sub.restrict(&keep);
        assert_eq!(sub.len(), 2);
        assert_eq!(succs(&sub, ids[0]), vec![ids[2]]);
        assert!(!contains(&sub, ids[1]));
        // The original is untouched.
        assert_eq!(wg.len(), 3);
    }

    #[test]
    fn restriction_keeps_the_hypernode_and_what_it_absorbed() {
        // Chain n0 -> n1 -> n2 -> n3 with n1 absorbed into n0: the copy
        // restricted to {n0, n2} still has the redirected edge n0 -> n2,
        // and reductions in the copy leave the original alone.
        let g = hrms_ddg::chain("c", 4, OpKind::FpAdd, 1);
        let ids: Vec<NodeId> = g.node_ids().collect();
        let csr = Csr::from_graph(&g);
        let mut wg = WorkGraph::new(&csr, &ids);
        wg.reduce(&[ids[1]], ids[0]);
        let region = NodeSet::from_indices(4, [0, 2]);
        let mut sub = wg.clone();
        sub.restrict(&region);
        assert_eq!(succs(&sub, ids[0]), vec![ids[2]]);
        assert!(succs(&sub, ids[2]).is_empty(), "n3 is outside the region");
        sub.reduce(&[ids[2]], ids[0]);
        assert_eq!(sub.len(), 1);
        assert_eq!(succs(&wg, ids[0]), vec![ids[2]]);
        assert_eq!(wg.len(), 3);
    }

    #[test]
    fn dead_nodes_have_no_neighbours_and_are_never_reported() {
        let (g, ids) = triangle();
        let csr = Csr::from_graph(&g);
        let mut wg = WorkGraph::new(&csr, &ids);
        assert!(succs(&wg, ids[0]).contains(&ids[1]));
        wg.reduce(&[ids[1]], ids[0]);
        assert!(succs(&wg, ids[1]).is_empty(), "a dead node has no edges");
        assert!(preds(&wg, ids[1]).is_empty());
        assert!(preds(&wg, ids[2]).contains(&ids[0]));
        assert!(!preds(&wg, ids[2]).contains(&ids[1]));
        assert_eq!(wg.live().to_node_ids(), vec![ids[0], ids[2]]);
    }

    /// The paper's reduction on explicit, sorted edge rows: the reference
    /// the bitset view is checked against.
    #[derive(Clone)]
    struct Rows {
        live: Vec<bool>,
        succs: Vec<Vec<usize>>,
        preds: Vec<Vec<usize>>,
    }

    impl Rows {
        fn new(csr: &Csr, live: Vec<bool>) -> Self {
            let n = live.len();
            let row = |r: &[u32]| -> Vec<usize> {
                r.iter().map(|&x| x as usize).filter(|&x| live[x]).collect()
            };
            let succs = (0..n).map(|v| {
                if live[v] {
                    row(csr.succs(v))
                } else {
                    Vec::new()
                }
            });
            let preds = (0..n).map(|v| {
                if live[v] {
                    row(csr.preds(v))
                } else {
                    Vec::new()
                }
            });
            Rows {
                succs: succs.collect(),
                preds: preds.collect(),
                live,
            }
        }

        fn reduce(&mut self, set: &[usize], h: usize) {
            fn insert(row: &mut Vec<usize>, x: usize) {
                if let Err(pos) = row.binary_search(&x) {
                    row.insert(pos, x);
                }
            }
            fn remove(row: &mut Vec<usize>, x: usize) {
                if let Ok(pos) = row.binary_search(&x) {
                    row.remove(pos);
                }
            }
            let victims: Vec<usize> = set
                .iter()
                .copied()
                .filter(|&v| v != h && self.live[v])
                .collect();
            for &v in &victims {
                self.live[v] = false;
                for t in std::mem::take(&mut self.succs[v]) {
                    remove(&mut self.preds[t], v);
                    if t != h && !victims.contains(&t) {
                        insert(&mut self.succs[h], t);
                        insert(&mut self.preds[t], h);
                    }
                }
                for s in std::mem::take(&mut self.preds[v]) {
                    remove(&mut self.succs[s], v);
                    if s != h && !victims.contains(&s) {
                        insert(&mut self.succs[s], h);
                        insert(&mut self.preds[h], s);
                    }
                }
            }
            remove(&mut self.succs[h], h);
            remove(&mut self.preds[h], h);
        }

        fn restrict(&mut self, keep: &[bool]) {
            for (live, &kept) in self.live.iter_mut().zip(keep) {
                *live &= kept;
            }
            let live = &self.live;
            for v in 0..live.len() {
                for row in [&mut self.succs[v], &mut self.preds[v]] {
                    row.retain(|&x| live[v] && live[x]);
                }
            }
        }
    }

    fn assert_same(wg: &WorkGraph, rows: &Rows, what: &str) {
        for v in 0..rows.live.len() {
            assert_eq!(
                wg.live().contains(v),
                rows.live[v],
                "{what}: liveness of {v}"
            );
            let mut succs = Vec::new();
            wg.for_each_succ(v, &mut |t| succs.push(t));
            assert_eq!(succs, rows.succs[v], "{what}: succs of {v}");
            let mut preds = Vec::new();
            wg.for_each_pred(v, &mut |s| preds.push(s));
            assert_eq!(preds, rows.preds[v], "{what}: preds of {v}");
            if rows.live[v] {
                assert_eq!(wg.has_succs(v), !rows.succs[v].is_empty(), "{what}: {v}");
                assert_eq!(wg.has_preds(v), !rows.preds[v].is_empty(), "{what}: {v}");
            }
        }
        assert_eq!(wg.len(), rows.live.iter().filter(|&&l| l).count());
    }

    #[test]
    fn reductions_and_restrictions_match_explicit_edge_rows() {
        // Seeded DAGs (edges from lower to higher index), each reduced step
        // by step into one hypernode by random victim sets, with a
        // restricted copy reduced further at every step.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..60 {
            let n = 2 + next(40) as usize;
            let mut bld = DdgBuilder::new(format!("dag{case}"));
            let ids: Vec<NodeId> = (0..n)
                .map(|i| bld.node(format!("n{i}"), OpKind::FpAdd, 1))
                .collect();
            for _ in 0..2 * n {
                let (a, b) = (next(n as u64) as usize, next(n as u64) as usize);
                if a != b {
                    let (s, t) = (a.min(b), a.max(b));
                    bld.edge(ids[s], ids[t], DepKind::RegFlow, 0).unwrap();
                }
            }
            let g = bld.build().unwrap();
            let csr = Csr::from_graph(&g);
            let members: Vec<NodeId> = ids.iter().copied().filter(|_| next(5) != 0).collect();
            let mut live = vec![false; n];
            for m in &members {
                live[m.index()] = true;
            }
            let Some(&h) = members.first() else { continue };
            let mut wg = WorkGraph::new(&csr, &members);
            let mut rows = Rows::new(&csr, live);
            assert_same(&wg, &rows, "built");
            for step in 0..6 {
                let victims: Vec<usize> = (0..n).filter(|_| next(4) == 0).collect();
                let set = NodeSet::from_indices(n, victims.iter().copied());
                wg.reduce_set(&set, h);
                rows.reduce(&victims, h.index());
                assert_same(&wg, &rows, &format!("case {case} step {step}"));

                let keep: Vec<bool> = (0..n).map(|v| v == h.index() || next(2) == 0).collect();
                let region = NodeSet::from_indices(n, (0..n).filter(|&v| keep[v]));
                let mut sub = wg.clone();
                sub.restrict(&region);
                let mut sub_rows = rows.clone();
                sub_rows.restrict(&keep);
                assert_same(
                    &sub,
                    &sub_rows,
                    &format!("case {case} step {step} restricted"),
                );
                let more: Vec<usize> = (0..n).filter(|_| next(3) == 0).collect();
                sub.reduce_set(&NodeSet::from_indices(n, more.iter().copied()), h);
                sub_rows.reduce(&more, h.index());
                assert_same(
                    &sub,
                    &sub_rows,
                    &format!("case {case} step {step} sub-reduced"),
                );
            }
        }
    }

    #[test]
    fn reset_reuses_the_graph_for_another_component() {
        let (g, ids) = triangle();
        let csr = Csr::from_graph(&g);
        let mut wg = WorkGraph::new(&csr, &ids);
        wg.reduce(&[ids[1], ids[2]], ids[0]);
        wg.reset(&[ids[1], ids[2]]);
        assert_eq!(wg.len(), 2);
        assert_eq!(succs(&wg, ids[1]), vec![ids[2]]);
        // A new hypernode is allowed after a reset.
        wg.reduce(&[ids[1]], ids[2]);
        assert_eq!(wg.len(), 1);
    }
}
