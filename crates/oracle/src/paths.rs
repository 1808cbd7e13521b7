//! Path search: the paper's `Search_All_Paths` routine over any
//! [`GraphView`], with `HashSet` results. The pre-ordering runs it on
//! bitsets: one side of it per reduction step
//! ([`hrms_ddg::dense::neighbour_region`]) and two
//! [`hrms_ddg::dense::reachable`] sweeps per further recurrence list; this
//! generic version is their reference in the equivalence tests.

use std::collections::{HashSet, VecDeque};

use hrms_ddg::NodeId;

use crate::graph::GraphView;

/// Returns every node that lies on some directed path between two (not
/// necessarily distinct) nodes of `seeds`, including the seeds themselves.
///
/// This is the `Search_All_Paths(V', G)` routine of the paper (Section 3.1):
/// when the hypernode has several predecessors (successors), the nodes on the
/// paths connecting them must be ordered together so that the topological
/// sort sees the complete sub-structure. A node `w` is on a path from `a` to
/// `b` (`a, b ∈ V'`) exactly when `w` is reachable from `a` **and** `b` is
/// reachable from `w`; therefore the answer is
/// `reachable_from(seeds) ∩ reaches(seeds) ∪ seeds`,
/// which is computable with two breadth-first traversals in `O(|V| + |E|)`
/// time — matching the complexity stated in the paper's footnote 2.
///
/// The routine works on any [`GraphView`]; the HRMS pre-ordering phase runs
/// the same search on its *reduced* working graph (with backward edges of
/// already-handled recurrences removed), never on the original graph.
pub fn search_all_paths<G: GraphView>(graph: &G, seeds: &[NodeId]) -> HashSet<NodeId> {
    let seeds: Vec<NodeId> = seeds
        .iter()
        .copied()
        .filter(|&s| graph.contains(s))
        .collect();
    if seeds.is_empty() {
        return HashSet::new();
    }

    let forward = reachable(graph, &seeds, Dir::Forward);
    let backward = reachable(graph, &seeds, Dir::Backward);

    let mut result: HashSet<NodeId> = forward.intersection(&backward).copied().collect();
    for s in seeds {
        result.insert(s);
    }
    result
}

/// Returns the set of nodes reachable from `from` by following edges
/// forwards (successors), **excluding** nodes only reachable through paths
/// that leave the view. `from` nodes themselves are included only if they are
/// reachable from another seed (or themselves through a cycle).
fn reachable<G: GraphView>(graph: &G, from: &[NodeId], dir: Dir) -> HashSet<NodeId> {
    let mut visited: HashSet<NodeId> = HashSet::new();
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    // Deduplicate the seed frontier: a seed passed twice (e.g. the hypernode
    // arriving both explicitly and via `seeds.extend`) must be traversed
    // once, not once per occurrence — without this, duplicate seeds re-walk
    // their whole reachable set.
    let mut seeded: HashSet<NodeId> = HashSet::new();
    for &s in from {
        if seeded.insert(s) {
            queue.push_back(s);
        }
    }
    // Note: seeds are enqueued but only *neighbours* get marked, so a seed is
    // in the result set only if some other seed (or itself via a cycle)
    // reaches it. This matches the "strictly between" semantics; seeds are
    // re-added by the caller anyway.
    while let Some(v) = queue.pop_front() {
        let next = match dir {
            Dir::Forward => graph.successors_of(v),
            Dir::Backward => graph.predecessors_of(v),
        };
        for w in next {
            if graph.contains(w) && visited.insert(w) {
                queue.push_back(w);
            }
        }
    }
    visited
}

#[derive(Clone, Copy)]
enum Dir {
    Forward,
    Backward,
}

/// Returns the set of nodes reachable from `start` (not including `start`
/// unless it lies on a cycle) following successor edges.
pub fn reachable_from<G: GraphView>(graph: &G, start: NodeId) -> HashSet<NodeId> {
    reachable(graph, &[start], Dir::Forward)
}

/// Returns the set of nodes that can reach `target` (not including `target`
/// unless it lies on a cycle) following predecessor edges.
pub fn reaches<G: GraphView>(graph: &G, target: NodeId) -> HashSet<NodeId> {
    reachable(graph, &[target], Dir::Backward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{Ddg, DdgBuilder, DepKind, OpKind};

    /// Figure 7a of the paper (without the hypernode): used here only for
    /// path search, the full ordering test lives in the `hrms` crate.
    fn sample_graph() -> (Ddg, Vec<NodeId>) {
        // A graph where B and I are both predecessors of a common consumer
        // and a path B -> E -> I exists.
        let mut bld = DdgBuilder::new("paths");
        let b = bld.node("B", OpKind::FpAdd, 1);
        let e = bld.node("E", OpKind::FpAdd, 1);
        let i = bld.node("I", OpKind::FpAdd, 1);
        let x = bld.node("X", OpKind::FpAdd, 1); // unrelated branch
        bld.edge(b, e, DepKind::RegFlow, 0).unwrap();
        bld.edge(e, i, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, x, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        (g, vec![b, e, i, x])
    }

    #[test]
    fn nodes_on_paths_between_seeds_are_found() {
        let (g, ids) = sample_graph();
        let (b, e, i, x) = (ids[0], ids[1], ids[2], ids[3]);
        let result = search_all_paths(&g, &[b, i]);
        assert!(result.contains(&b));
        assert!(result.contains(&e), "E lies on the path B -> E -> I");
        assert!(result.contains(&i));
        assert!(!result.contains(&x), "X is not on any path between B and I");
    }

    #[test]
    fn seeds_with_no_connecting_path_return_only_seeds() {
        let (g, ids) = sample_graph();
        let (e, x) = (ids[1], ids[3]);
        let result = search_all_paths(&g, &[e, x]);
        assert_eq!(result.len(), 2);
        assert!(result.contains(&e));
        assert!(result.contains(&x));
    }

    #[test]
    fn single_seed_returns_itself() {
        let (g, ids) = sample_graph();
        let result = search_all_paths(&g, &[ids[0]]);
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn empty_seed_set_is_empty() {
        let (g, _) = sample_graph();
        assert!(search_all_paths(&g, &[]).is_empty());
    }

    #[test]
    fn long_path_through_many_intermediates() {
        let g = hrms_ddg::chain("chain", 10, OpKind::FpAdd, 1);
        let first = NodeId(0);
        let last = NodeId(9);
        let result = search_all_paths(&g, &[first, last]);
        assert_eq!(result.len(), 10, "every chain node is on the path");
    }

    #[test]
    fn paths_respect_direction() {
        // a -> b, c -> b : there is no path between a and c.
        let mut bld = DdgBuilder::new("vee");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        let c = bld.node("c", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(c, b, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        let result = search_all_paths(&g, &[a, c]);
        assert_eq!(result.len(), 2);
        assert!(!result.contains(&b));
    }

    #[test]
    fn reachability_helpers() {
        let g = hrms_ddg::chain("chain", 4, OpKind::FpAdd, 1);
        let r = reachable_from(&g, NodeId(1));
        assert_eq!(r, [NodeId(2), NodeId(3)].into_iter().collect());
        let r = reaches(&g, NodeId(2));
        assert_eq!(r, [NodeId(0), NodeId(1)].into_iter().collect());
    }

    #[test]
    fn cycle_members_reach_themselves() {
        let mut bld = DdgBuilder::new("cyc");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        assert!(reachable_from(&g, a).contains(&a));
        let result = search_all_paths(&g, &[a]);
        // a -> b -> a is a path from a to a, so b is "between" seeds.
        assert!(result.contains(&b));
    }

    /// Counts adjacency queries so the tests can observe how much work a
    /// traversal did.
    struct CountingView<'a> {
        inner: &'a Ddg,
        queries: std::cell::Cell<usize>,
    }

    impl GraphView for CountingView<'_> {
        fn node_bound(&self) -> usize {
            self.inner.node_bound()
        }

        fn contains(&self, n: NodeId) -> bool {
            GraphView::contains(self.inner, n)
        }

        fn successors_of(&self, n: NodeId) -> Vec<NodeId> {
            self.queries.set(self.queries.get() + 1);
            self.inner.successors_of(n)
        }

        fn predecessors_of(&self, n: NodeId) -> Vec<NodeId> {
            self.queries.set(self.queries.get() + 1);
            self.inner.predecessors_of(n)
        }
    }

    #[test]
    fn duplicate_seeds_are_traversed_once() {
        let g = hrms_ddg::chain("chain", 12, OpKind::FpAdd, 1);
        let first = NodeId(0);
        let last = NodeId(11);
        let deduped = search_all_paths(&g, &[first, last]);
        let duplicated = search_all_paths(&g, &[first, first, last, last, first]);
        assert_eq!(deduped, duplicated, "duplicates must not change the result");

        // With the seed frontier deduplicated, each direction queries the
        // adjacency of each seed exactly once (plus once per reached node).
        let view = CountingView {
            inner: &g,
            queries: std::cell::Cell::new(0),
        };
        search_all_paths(&view, &[first, first, first, last]);
        // Forward sweep: 13 pops (2 distinct seeds + the 11 nodes the BFS
        // discovers), backward symmetric; without dedup the extra copies of
        // `first` would each be popped and queried again.
        assert_eq!(view.queries.get(), 26);
    }

    #[test]
    fn seeds_not_in_view_are_ignored() {
        let (g, ids) = sample_graph();
        let ghost = NodeId(99);
        let result = search_all_paths(&g, &[ids[0], ghost]);
        assert!(result.contains(&ids[0]));
        assert!(!result.contains(&ghost));
    }
}
