//! Equivalence of the dense graph routines of [`hrms_ddg::dense`], which
//! the pre-ordering runs, with the generic [`crate::search_all_paths`],
//! [`crate::sort_asap`] and [`crate::sort_pala`].

use std::collections::HashSet;

use hrms_ddg::dense::{self, Csr, KahnScratch, NodeSet};
use hrms_ddg::{Ddg, DdgBuilder, DepKind, EdgeId, NodeId, OpKind};

use crate::GraphView;

/// A small irregular DAG plus one cycle, used by the equivalence tests.
fn sample() -> Ddg {
    let mut b = DdgBuilder::new("dense_sample");
    let ids: Vec<NodeId> = (0..10)
        .map(|i| b.node(format!("n{i}"), OpKind::FpAdd, 1))
        .collect();
    let edges = [
        (0, 2),
        (0, 3),
        (1, 3),
        (2, 4),
        (3, 4),
        (3, 5),
        (4, 6),
        (5, 6),
        (7, 8),
        (2, 4), // parallel edge, must collapse
    ];
    for (s, t) in edges {
        b.edge(ids[s], ids[t], DepKind::RegFlow, 0).unwrap();
    }
    b.edge(ids[6], ids[0], DepKind::RegFlow, 1).unwrap(); // cycle
    b.edge(ids[9], ids[9], DepKind::RegFlow, 1).unwrap(); // self loop
    b.build().unwrap()
}

#[test]
fn dense_search_all_paths_matches_generic() {
    let g = sample();
    let csr = Csr::from_graph(&g);
    let seed_sets: Vec<Vec<usize>> = vec![
        vec![0, 6],
        vec![1, 4],
        vec![0, 0, 6], // duplicate seeds
        vec![7],
        vec![2, 5, 8],
        vec![],
    ];
    for seeds in seed_sets {
        let ids: Vec<NodeId> = seeds.iter().map(|&i| NodeId::from_index(i)).collect();
        let generic = crate::search_all_paths(&g, &ids);
        let dense = dense::search_all_paths(&csr, &seeds);
        let mut generic: Vec<usize> = generic.into_iter().map(|n| n.index()).collect();
        generic.sort_unstable();
        assert_eq!(dense.iter().collect::<Vec<_>>(), generic, "seeds {seeds:?}");
    }
}

#[test]
fn dense_sorts_match_generic() {
    let g = sample();
    // Restrict to the acyclic part (drop the loop-carried edge).
    let dropped: HashSet<EdgeId> = g
        .edges()
        .filter(|(_, e)| e.distance() > 0)
        .map(|(eid, _)| eid)
        .collect();
    let csr = Csr::filtered(&g, &dropped);
    let subsets: Vec<Vec<usize>> = vec![
        vec![0, 2, 3, 4, 5, 6],
        vec![1, 3, 5],
        vec![7, 8],
        (0..10).collect(),
    ];
    for subset in subsets {
        let ids: Vec<NodeId> = subset.iter().map(|&i| NodeId::from_index(i)).collect();
        let set = NodeSet::from_indices(g.num_nodes(), subset.iter().copied());
        // The generic sorts see the full graph; give them a view with the
        // same dropped edges by sorting over the filtered CSR semantics:
        // both only count edges inside the subset, and the subsets above
        // avoid the loop-carried edge's endpoints being co-members in a
        // cycle, except the full set which is acyclic after filtering.
        let view = FilteredView {
            ddg: &g,
            dropped: &dropped,
        };
        let asap_generic = crate::sort_asap(&view, &ids).unwrap();
        let asap_dense = dense::sort_asap(&csr, &set, &mut KahnScratch::new()).unwrap();
        assert_eq!(
            asap_dense
                .iter()
                .map(|&i| NodeId::from_index(i))
                .collect::<Vec<_>>(),
            asap_generic,
            "asap over {subset:?}"
        );
        let pala_generic = crate::sort_pala(&view, &ids).unwrap();
        let pala_dense = dense::sort_pala(&csr, &set, &mut KahnScratch::new()).unwrap();
        assert_eq!(
            pala_dense
                .iter()
                .map(|&i| NodeId::from_index(i))
                .collect::<Vec<_>>(),
            pala_generic,
            "pala over {subset:?}"
        );
    }
}

/// A [`GraphView`] over a [`Ddg`] with some edges hidden, mirroring the
/// filtering the CSR applies, so the generic sorts see the same graph.
struct FilteredView<'a> {
    ddg: &'a Ddg,
    dropped: &'a HashSet<EdgeId>,
}

impl GraphView for FilteredView<'_> {
    fn node_bound(&self) -> usize {
        self.ddg.num_nodes()
    }

    fn contains(&self, n: NodeId) -> bool {
        n.index() < self.ddg.num_nodes()
    }

    fn successors_of(&self, n: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .ddg
            .out_edges(n)
            .filter(|(eid, e)| !self.dropped.contains(eid) && !e.is_self_loop())
            .map(|(_, e)| e.target())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    fn predecessors_of(&self, n: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .ddg
            .in_edges(n)
            .filter(|(eid, e)| !self.dropped.contains(eid) && !e.is_self_loop())
            .map(|(_, e)| e.source())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}
