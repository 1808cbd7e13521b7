//! Equivalence of the dense graph routines of [`hrms_ddg::dense`], which
//! the pre-ordering runs, with the generic [`crate::search_all_paths`],
//! [`crate::sort_asap`] and [`crate::sort_pala`], and of the flat CSR
//! builders of `hrms-ddg` with a per-row build from the graph's edges.

use std::collections::HashSet;

use hrms_ddg::dense::{self, Csr, DenseAdjacency, Dir, KahnScratch, NodeSet, PathScratch};
use hrms_ddg::{
    dependence_latency, Ddg, DdgBuilder, DepArc, DepKind, EdgeId, Fnv64, LoopAnalysis, NodeId,
    OpKind, PlacementCsr,
};

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
    let csr = Csr::filtered(&g, |eid, _| dropped.contains(&eid));
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
        let mut scratch = KahnScratch::new();
        let asap_dense = dense::sort_asap(&csr, &set, &mut scratch).unwrap().to_vec();
        assert_eq!(
            asap_dense
                .iter()
                .map(|&i| NodeId::from_index(i))
                .collect::<Vec<_>>(),
            asap_generic,
            "asap over {subset:?}"
        );
        let pala_generic = crate::sort_pala(&view, &ids).unwrap();
        let pala_dense = dense::sort_pala(&csr, &set, &mut scratch).unwrap();
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

/// A seeded loop of `n` nodes for the builder and search checks: forward
/// edges of distance 0 (so no zero-distance cycle), edges of distance 1 or
/// 2 in any direction (recurrences and loop-carried edges between SCCs),
/// parallel edges, self-loops and anti or output dependences, drawn by an
/// FNV coin keyed with `seed`.
fn generated(seed: u64, n: usize) -> Ddg {
    let coin = |k: u64| Fnv64::new().write_u64(seed).write_u64(k).finish();
    let kinds = [OpKind::Load, OpKind::FpAdd, OpKind::FpMul, OpKind::IntAlu];
    let mut b = DdgBuilder::new(format!("g{seed}"));
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            let r = coin(i as u64);
            b.node(
                format!("n{i}"),
                kinds[r as usize % 4],
                1 + (r >> 8) as u32 % 4,
            )
        })
        .collect();
    for k in 0..(3 * n) as u64 {
        let r = coin(1_000 + k);
        let (u, v) = ((r % n as u64) as usize, ((r >> 16) % n as u64) as usize);
        let kind = [
            DepKind::RegFlow,
            DepKind::Memory,
            DepKind::RegAnti,
            DepKind::RegOutput,
        ][(r >> 32) as usize % 4];
        let distance = if u < v && (r >> 40) % 3 != 0 {
            0
        } else {
            1 + (r >> 48) as u32 % 2
        };
        b.edge(ids[u], ids[v], kind, distance).unwrap();
        if (r >> 56) % 8 == 0 {
            // A parallel copy with another distance.
            b.edge(ids[u], ids[v], DepKind::Memory, distance + 1)
                .unwrap();
        }
    }
    b.build().unwrap()
}

/// The generated loops the builder and search checks run on.
fn generated_loops() -> impl Iterator<Item = Ddg> {
    (0..40u64).map(|seed| generated(seed, 1 + (seed as usize * 7) % 90))
}

/// The CSR rows of `g` without the `dropped` edges and self-loops, one
/// sorted, deduplicated row per node, built edge by edge.
fn csr_rows(g: &Ddg, dropped: &HashSet<EdgeId>) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let mut succs = vec![Vec::new(); g.num_nodes()];
    let mut preds = vec![Vec::new(); g.num_nodes()];
    for (eid, e) in g.edges() {
        if !e.is_self_loop() && !dropped.contains(&eid) {
            succs[e.source().index()].push(e.target().0);
            preds[e.target().index()].push(e.source().0);
        }
    }
    for row in succs.iter_mut().chain(preds.iter_mut()) {
        row.sort_unstable();
        row.dedup();
    }
    (succs, preds)
}

fn assert_csr_matches_rows(csr: &Csr, g: &Ddg, dropped: &HashSet<EdgeId>, what: &str) {
    let (succs, preds) = csr_rows(g, dropped);
    assert_eq!(csr.node_bound(), g.num_nodes());
    for v in 0..g.num_nodes() {
        assert_eq!(
            csr.succs(v),
            succs[v],
            "`{}` {what}: succs of {v}",
            g.name()
        );
        assert_eq!(
            csr.preds(v),
            preds[v],
            "`{}` {what}: preds of {v}",
            g.name()
        );
    }
}

#[test]
fn flat_csrs_match_a_per_row_build() {
    for g in generated_loops() {
        let la = LoopAnalysis::analyze(&g);
        assert_csr_matches_rows(la.csr_full(), &g, &HashSet::new(), "full");
        assert_csr_matches_rows(la.csr_work(), &g, la.backward_edges(), "work");
    }
}

#[test]
fn flat_placement_arcs_match_a_per_row_build() {
    for g in generated_loops() {
        let mut ins = vec![Vec::new(); g.num_nodes()];
        let mut outs = vec![Vec::new(); g.num_nodes()];
        for (_, e) in g.edges().filter(|(_, e)| !e.is_self_loop()) {
            let arc = |other: NodeId| DepArc {
                other: other.0,
                latency: dependence_latency(&g, e),
                distance: e.distance(),
            };
            ins[e.target().index()].push(arc(e.source()));
            outs[e.source().index()].push(arc(e.target()));
        }
        let placement = PlacementCsr::from_graph(&g);
        assert_eq!(placement.node_bound(), g.num_nodes());
        for v in 0..g.num_nodes() {
            assert_eq!(
                placement.in_arcs(v),
                ins[v],
                "`{}`: in-arcs of {v}",
                g.name()
            );
            assert_eq!(
                placement.out_arcs(v),
                outs[v],
                "`{}`: out-arcs of {v}",
                g.name()
            );
        }
    }
}

#[test]
fn one_sided_region_search_matches_the_generic_path_search() {
    // On the acyclic work graph of every generated loop, for every node h
    // and either side: the neighbours of h and every node on a path between
    // them and h, one side searched, equal the generic `Search_All_Paths`
    // seeded with the neighbours and h, less h.
    let mut scratch = PathScratch::new();
    let mut regions = 0usize;
    for g in generated_loops() {
        let la = LoopAnalysis::analyze(&g);
        let csr = la.csr_work();
        let view = FilteredView {
            ddg: &g,
            dropped: la.backward_edges(),
        };
        for h in g.node_ids() {
            for dir in [Dir::Backward, Dir::Forward] {
                let mut seeds = match dir {
                    Dir::Backward => view.predecessors_of(h),
                    Dir::Forward => view.successors_of(h),
                };
                seeds.push(h);
                let mut generic: Vec<usize> = crate::search_all_paths(&view, &seeds)
                    .into_iter()
                    .map(|n| n.index())
                    .filter(|&i| i != h.index())
                    .collect();
                generic.sort_unstable();
                let dense = dense::neighbour_region(csr, h.index(), dir, &mut scratch);
                assert_eq!(
                    dense.iter().collect::<Vec<_>>(),
                    generic,
                    "`{}`: {dir:?} region of {h}",
                    g.name()
                );
                regions += usize::from(!generic.is_empty());
            }
        }
    }
    assert!(regions > 1_000, "only {regions} non-empty regions");
}

#[test]
fn sorts_reuse_one_scratch_across_graphs() {
    // One scratch over graphs of different bounds gives the orders fresh
    // scratches give.
    let mut shared = KahnScratch::new();
    for g in generated_loops() {
        let la = LoopAnalysis::analyze(&g);
        let csr = la.csr_work();
        let all = NodeSet::from_indices(g.num_nodes(), 0..g.num_nodes());
        let fresh = dense::sort_asap(csr, &all, &mut KahnScratch::new())
            .unwrap()
            .to_vec();
        assert_eq!(dense::sort_asap(csr, &all, &mut shared).unwrap(), fresh);
        let fresh = dense::sort_pala(csr, &all, &mut KahnScratch::new())
            .unwrap()
            .to_vec();
        assert_eq!(dense::sort_pala(csr, &all, &mut shared).unwrap(), fresh);
    }
}
