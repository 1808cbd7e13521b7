//! Enumeration of recurrence circuits and their grouping into recurrence
//! subgraphs.
//!
//! The pre-ordering phase of HRMS (Section 3.2 of the paper) needs, for each
//! loop:
//!
//! 1. every *elementary recurrence circuit* (a simple cycle in the dependence
//!    graph),
//! 2. those circuits grouped into *recurrence subgraphs*: circuits that share
//!    the same set of backward (loop-carried) edges belong to the same
//!    subgraph, circuits with different backward-edge sets are distinct
//!    subgraphs even when they share nodes (paper Figure 8),
//! 3. the `RecMII` of each circuit/subgraph so that subgraphs can be ordered
//!    by decreasing criticality, and
//! 4. a *simplified* list where each node appears in exactly one subgraph
//!    (it stays in the most restrictive one).
//!
//! Circuits are enumerated with Johnson's algorithm restricted to each
//! strongly connected component; an enumeration budget protects against
//! pathological graphs (the information is then marked as truncated).
//!
//! The enumeration is exponential on dense components, so no production
//! path runs it: the scheduler reads the polynomial
//! [`hrms_ddg::RecurrenceGroups`], and [`crate::cross_check`] compares the
//! two wherever the enumeration completes.

use std::collections::{BTreeSet, HashMap, HashSet};

use hrms_ddg::{scc, Ddg, EdgeId, NodeId};

/// One elementary recurrence circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    /// The nodes of the circuit in traversal order (the first node is the
    /// smallest id of the circuit).
    pub nodes: Vec<NodeId>,
    /// The loop-carried ("backward") edges of the circuit.
    pub backward_edges: BTreeSet<EdgeId>,
    /// Sum of node latencies around the circuit.
    pub total_latency: u64,
    /// Sum of dependence distances around the circuit (`Ω` in the paper's
    /// notation); always ≥ 1 for a well-formed loop body.
    pub total_distance: u64,
}

impl Circuit {
    /// The lower bound this circuit imposes on the initiation interval:
    /// `ceil(total_latency / total_distance)`.
    ///
    /// Returns `u64::MAX` for a malformed circuit of distance 0 (such a loop
    /// body is rejected by the MII computation with a proper error).
    pub fn rec_mii(&self) -> u64 {
        if self.total_distance == 0 {
            u64::MAX
        } else {
            self.total_latency.div_ceil(self.total_distance)
        }
    }

    /// Whether this is a trivial circuit (a dependence from an operation to
    /// itself). Trivial circuits constrain the II but not the pre-ordering.
    pub fn is_trivial(&self) -> bool {
        self.nodes.len() == 1
    }
}

/// A set of recurrence circuits sharing the same backward edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceSubgraph {
    /// Union of the nodes of the member circuits, sorted.
    pub nodes: Vec<NodeId>,
    /// The shared backward-edge set.
    pub backward_edges: BTreeSet<EdgeId>,
    /// Indices into [`RecurrenceInfo::circuits`] of the member circuits.
    pub circuit_indices: Vec<usize>,
    /// Most restrictive `RecMII` among the member circuits.
    pub rec_mii: u64,
}

impl RecurrenceSubgraph {
    /// Whether the subgraph consists solely of trivial (self-loop) circuits.
    pub fn is_trivial(&self) -> bool {
        self.nodes.len() == 1 && !self.backward_edges.is_empty()
    }
}

/// The complete recurrence analysis of a dependence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceInfo {
    /// Every elementary circuit found (possibly truncated, see
    /// [`RecurrenceInfo::truncated`]).
    pub circuits: Vec<Circuit>,
    /// Recurrence subgraphs sorted by decreasing `RecMII` (most restrictive
    /// first), ties broken by smallest member node id.
    pub subgraphs: Vec<RecurrenceSubgraph>,
    /// Whether the enumeration budget was exhausted; if so `circuits` is a
    /// subset and the derived `RecMII` is only a lower bound.
    pub truncated: bool,
}

impl RecurrenceInfo {
    /// Analyses `ddg` with the default enumeration budget.
    pub fn analyze(ddg: &Ddg) -> Self {
        Self::analyze_with_budget(ddg, DEFAULT_CIRCUIT_BUDGET)
    }

    /// Analyses `ddg`, enumerating at most `budget` circuits.
    pub fn analyze_with_budget(ddg: &Ddg, budget: usize) -> Self {
        let (circuits, truncated) = enumerate_circuits(ddg, budget);
        let subgraphs = group_into_subgraphs(&circuits);
        RecurrenceInfo {
            circuits,
            subgraphs,
            truncated,
        }
    }

    /// Lower bound on the initiation interval imposed by the enumerated
    /// circuits (the paper's `RecMII`); 0 when the graph has no recurrence.
    pub fn rec_mii_lower_bound(&self) -> u64 {
        self.circuits
            .iter()
            .map(Circuit::rec_mii)
            .max()
            .unwrap_or(0)
    }

    /// Whether the graph has any recurrence circuit at all.
    pub fn has_recurrence(&self) -> bool {
        !self.circuits.is_empty()
    }

    /// The simplified per-subgraph node lists used by the ordering phase:
    /// subgraphs in decreasing `RecMII` order, each node appearing only in
    /// the first (most restrictive) subgraph that contains it, and subgraphs
    /// reduced to trivial self-loops dropped entirely (they impose no
    /// ordering constraint).
    pub fn simplified_node_lists(&self) -> Vec<Vec<NodeId>> {
        let mut claimed: HashSet<NodeId> = HashSet::new();
        let mut lists = Vec::new();
        for sg in &self.subgraphs {
            if sg.nodes.len() == 1 {
                // Trivial recurrence circuits do not affect the pre-ordering
                // (paper, Section 3.2).
                continue;
            }
            let fresh: Vec<NodeId> = sg
                .nodes
                .iter()
                .copied()
                .filter(|n| !claimed.contains(n))
                .collect();
            if fresh.is_empty() {
                continue;
            }
            for &n in &fresh {
                claimed.insert(n);
            }
            lists.push(fresh);
        }
        lists
    }
}

/// Default number of circuits enumerated before giving up.
pub const DEFAULT_CIRCUIT_BUDGET: usize = 50_000;

/// Enumerates the elementary circuits of `ddg` (self-loops included),
/// stopping after `budget` circuits.
///
/// Returns the circuits and whether the budget was hit.
pub fn enumerate_circuits(ddg: &Ddg, budget: usize) -> (Vec<Circuit>, bool) {
    let mut circuits = Vec::new();
    let mut truncated = false;

    // Self-loops are trivial circuits; enumerate them directly.
    for (eid, e) in ddg.edges() {
        if e.is_self_loop() {
            let mut backward = BTreeSet::new();
            if e.distance() > 0 {
                backward.insert(eid);
            }
            circuits.push(Circuit {
                nodes: vec![e.source()],
                backward_edges: backward,
                total_latency: u64::from(ddg.node(e.source()).latency()),
                total_distance: u64::from(e.distance()),
            });
        }
    }

    // Johnson's algorithm restricted to each non-trivial SCC.
    for component in &scc::strongly_connected_components(ddg) {
        if component.len() < 2 {
            continue;
        }
        if !johnson_on_component(ddg, component, budget, &mut circuits) {
            truncated = true;
        }
        if circuits.len() >= budget {
            truncated = true;
            break;
        }
    }

    (circuits, truncated)
}

/// Johnson's elementary-circuit search inside one SCC. Returns `false` if the
/// budget was exhausted.
///
/// The search runs on local indices: the component's nodes sorted by id, so
/// the nodes a start may visit are the index suffix it begins.
fn johnson_on_component(
    ddg: &Ddg,
    component: &[NodeId],
    budget: usize,
    circuits: &mut Vec<Circuit>,
) -> bool {
    let mut nodes = component.to_vec();
    nodes.sort();
    let mut local_of = vec![usize::MAX; ddg.num_nodes()];
    for (i, &v) in nodes.iter().enumerate() {
        local_of[v.index()] = i;
    }
    // Adjacency restricted to the component, skipping self loops (already
    // handled); parallel edges are collapsed keeping the minimum distance
    // (the binding choice for RecMII, since node latencies are fixed).
    let adj: Vec<Vec<(usize, EdgeId, u32)>> = nodes
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let mut arcs: Vec<(usize, EdgeId, u32)> = Vec::new();
            for (eid, e) in ddg.out_edges(v) {
                let w = local_of[e.target().index()];
                if w == i || w == usize::MAX {
                    continue;
                }
                match arcs.iter_mut().find(|arc| arc.0 == w) {
                    Some(arc) if arc.2 <= e.distance() => {}
                    Some(arc) => *arc = (w, eid, e.distance()),
                    None => arcs.push((w, eid, e.distance())),
                }
            }
            arcs.sort();
            arcs
        })
        .collect();
    let latency: Vec<u64> = nodes
        .iter()
        .map(|&v| u64::from(ddg.node(v).latency()))
        .collect();

    let mut search = Search {
        adj: &adj,
        nodes: &nodes,
        latency: &latency,
        start: 0,
        blocked: vec![false; nodes.len()],
        block_lists: vec![Vec::new(); nodes.len()],
        path: Vec::new(),
        budget,
    };
    for start in 0..nodes.len() {
        if circuits.len() >= budget {
            return false;
        }
        search.start = start;
        search.blocked.fill(false);
        search.block_lists.iter_mut().for_each(Vec::clear);
        search.circuit(start, None, circuits);
    }
    circuits.len() < budget
}

/// The state of Johnson's search from one start node, over the local
/// indices of [`johnson_on_component`].
struct Search<'a> {
    /// Out-arcs per node: target, edge and distance, by target.
    adj: &'a [Vec<(usize, EdgeId, u32)>],
    /// The node id of each local index.
    nodes: &'a [NodeId],
    /// The latency of each local index.
    latency: &'a [u64],
    /// The start node; only nodes at or above it are visited.
    start: usize,
    blocked: Vec<bool>,
    /// Johnson's `B` lists: the nodes to unblock when a node is unblocked.
    block_lists: Vec<Vec<usize>>,
    /// The current path, each node with the edge that reached it.
    path: Vec<(usize, Option<(EdgeId, u32)>)>,
    budget: usize,
}

impl Search<'_> {
    /// One invocation of Johnson's `CIRCUIT(v)` procedure. `via` is the edge
    /// used to reach `v` from its predecessor on the current path (`None`
    /// for the start node). Returns whether any elementary circuit was
    /// closed in the subtree rooted at `v` (used for the unblocking rule).
    fn circuit(
        &mut self,
        v: usize,
        via: Option<(EdgeId, u32)>,
        circuits: &mut Vec<Circuit>,
    ) -> bool {
        let mut found = false;
        self.path.push((v, via));
        self.blocked[v] = true;

        let adj = self.adj;
        for &(w, eid, dist) in &adj[v] {
            if w < self.start || circuits.len() >= self.budget {
                continue;
            }
            if w == self.start {
                // Found an elementary circuit: the nodes on `path`, closed
                // by the edge (v -> start).
                let mut nodes = Vec::with_capacity(self.path.len());
                let mut backward = BTreeSet::new();
                let mut total_latency = 0u64;
                let mut total_distance = u64::from(dist);
                if dist > 0 {
                    backward.insert(eid);
                }
                for &(node, step) in &self.path {
                    nodes.push(self.nodes[node]);
                    total_latency += self.latency[node];
                    if let Some((step_eid, step_dist)) = step {
                        total_distance += u64::from(step_dist);
                        if step_dist > 0 {
                            backward.insert(step_eid);
                        }
                    }
                }
                circuits.push(Circuit {
                    nodes,
                    backward_edges: backward,
                    total_latency,
                    total_distance,
                });
                found = true;
            } else if !self.blocked[w] {
                found |= self.circuit(w, Some((eid, dist)), circuits);
            }
        }

        if found {
            self.unblock(v);
        } else {
            for &(w, _, _) in &adj[v] {
                if w >= self.start && !self.block_lists[w].contains(&v) {
                    self.block_lists[w].push(v);
                }
            }
        }
        self.path.pop();
        found
    }

    fn unblock(&mut self, v: usize) {
        self.blocked[v] = false;
        for w in std::mem::take(&mut self.block_lists[v]) {
            if self.blocked[w] {
                self.unblock(w);
            }
        }
    }
}

/// Groups circuits by backward-edge set and sorts the groups by decreasing
/// `RecMII`.
fn group_into_subgraphs(circuits: &[Circuit]) -> Vec<RecurrenceSubgraph> {
    let mut groups: HashMap<BTreeSet<EdgeId>, Vec<usize>> = HashMap::new();
    for (i, c) in circuits.iter().enumerate() {
        groups.entry(c.backward_edges.clone()).or_default().push(i);
    }
    let mut subgraphs: Vec<RecurrenceSubgraph> = groups
        .into_iter()
        .map(|(backward_edges, circuit_indices)| {
            let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
            let mut rec_mii = 0u64;
            for &i in &circuit_indices {
                nodes.extend(circuits[i].nodes.iter().copied());
                rec_mii = rec_mii.max(circuits[i].rec_mii());
            }
            RecurrenceSubgraph {
                nodes: nodes.into_iter().collect(),
                backward_edges,
                circuit_indices,
                rec_mii,
            }
        })
        .collect();
    // The sort key must be total: subgraphs can tie on both RecMII and first
    // node (e.g. a short circuit and a longer one through the same head),
    // and the groups come out of a randomly-seeded HashMap, so any tie left
    // to the incoming order would make the analysis non-deterministic across
    // runs. The backward-edge set is the grouping key and therefore unique.
    subgraphs.sort_by(|a, b| {
        b.rec_mii
            .cmp(&a.rec_mii)
            .then_with(|| a.nodes.cmp(&b.nodes))
            .then_with(|| a.backward_edges.cmp(&b.backward_edges))
    });
    subgraphs
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind, OpKind};

    fn build_fig8b() -> (Ddg, Vec<NodeId>) {
        // Figure 8b of the paper: two circuits {A,D,E} and {A,B,C,E} sharing
        // the single backward edge E -> A.
        let mut bld = DdgBuilder::new("fig8b");
        let a = bld.node("A", OpKind::FpAdd, 1);
        let b = bld.node("B", OpKind::FpAdd, 1);
        let c = bld.node("C", OpKind::FpAdd, 1);
        let d = bld.node("D", OpKind::FpAdd, 1);
        let e = bld.node("E", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, c, DepKind::RegFlow, 0).unwrap();
        bld.edge(c, e, DepKind::RegFlow, 0).unwrap();
        bld.edge(a, d, DepKind::RegFlow, 0).unwrap();
        bld.edge(d, e, DepKind::RegFlow, 0).unwrap();
        bld.edge(e, a, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        (g, vec![a, b, c, d, e])
    }

    fn build_fig8c() -> (Ddg, Vec<NodeId>) {
        // Figure 8c: two circuits sharing node(s) but with *different*
        // backward edges: A -> B -> A (backward B->A) and B -> C -> B
        // (backward C->B); they are distinct recurrence subgraphs.
        let mut bld = DdgBuilder::new("fig8c");
        let a = bld.node("A", OpKind::FpAdd, 2);
        let b = bld.node("B", OpKind::FpAdd, 1);
        let c = bld.node("C", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 1).unwrap();
        bld.edge(b, c, DepKind::RegFlow, 0).unwrap();
        bld.edge(c, b, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        (g, vec![a, b, c])
    }

    #[test]
    fn acyclic_graph_has_no_circuits() {
        let g = hrms_ddg::chain("c", 6, OpKind::FpAdd, 1);
        let info = RecurrenceInfo::analyze(&g);
        assert!(!info.has_recurrence());
        assert_eq!(info.rec_mii_lower_bound(), 0);
        assert!(info.simplified_node_lists().is_empty());
        assert!(!info.truncated);
    }

    #[test]
    fn self_loop_is_a_trivial_circuit() {
        let mut bld = DdgBuilder::new("s");
        let a = bld.node("a", OpKind::FpAdd, 3);
        bld.edge(a, a, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let info = RecurrenceInfo::analyze(&g);
        assert_eq!(info.circuits.len(), 1);
        assert!(info.circuits[0].is_trivial());
        assert_eq!(info.circuits[0].rec_mii(), 3);
        assert_eq!(info.rec_mii_lower_bound(), 3);
        // trivial circuits are excluded from the ordering lists
        assert!(info.simplified_node_lists().is_empty());
    }

    #[test]
    fn shared_backward_edge_merges_into_one_subgraph() {
        let (g, ids) = build_fig8b();
        let info = RecurrenceInfo::analyze(&g);
        assert_eq!(info.circuits.len(), 2, "two elementary circuits");
        assert_eq!(info.subgraphs.len(), 1, "same backward edge: one subgraph");
        assert_eq!(info.subgraphs[0].nodes, ids, "subgraph is {{A,B,C,D,E}}");
        // RecMII: longest circuit has 4 unit-latency nodes over distance 1.
        assert_eq!(info.rec_mii_lower_bound(), 4);
    }

    #[test]
    fn distinct_backward_edges_stay_separate_subgraphs() {
        let (g, ids) = build_fig8c();
        let info = RecurrenceInfo::analyze(&g);
        assert_eq!(info.circuits.len(), 2);
        assert_eq!(info.subgraphs.len(), 2);
        // The A-B circuit has latency 3 (A:2 + B:1), the B-C circuit 2;
        // subgraphs are sorted by decreasing RecMII.
        assert_eq!(info.subgraphs[0].rec_mii, 3);
        assert_eq!(info.subgraphs[1].rec_mii, 2);
        assert_eq!(info.subgraphs[0].nodes, vec![ids[0], ids[1]]);
        assert_eq!(info.subgraphs[1].nodes, vec![ids[1], ids[2]]);
    }

    #[test]
    fn simplified_lists_remove_shared_nodes() {
        let (g, ids) = build_fig8c();
        let info = RecurrenceInfo::analyze(&g);
        let lists = info.simplified_node_lists();
        assert_eq!(lists.len(), 2);
        assert_eq!(lists[0], vec![ids[0], ids[1]], "first keeps A and B");
        assert_eq!(lists[1], vec![ids[2]], "B removed from the second list");
    }

    #[test]
    fn rec_mii_accounts_for_distance_greater_than_one() {
        let mut bld = DdgBuilder::new("dist2");
        let a = bld.node("a", OpKind::FpDiv, 17);
        let b = bld.node("b", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 2).unwrap();
        let g = bld.build().unwrap();
        let info = RecurrenceInfo::analyze(&g);
        // latency 18 over distance 2 -> ceil = 9
        assert_eq!(info.rec_mii_lower_bound(), 9);
    }

    #[test]
    fn zero_distance_cycle_reports_infinite_rec_mii() {
        let mut bld = DdgBuilder::new("bad");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        let info = RecurrenceInfo::analyze(&g);
        assert_eq!(info.rec_mii_lower_bound(), u64::MAX);
    }

    #[test]
    fn budget_truncates_enumeration() {
        // Complete-ish digraph on 7 nodes has many circuits.
        let mut bld = DdgBuilder::new("dense");
        let ids: Vec<NodeId> = (0..7)
            .map(|i| bld.node(format!("n{i}"), OpKind::FpAdd, 1))
            .collect();
        for &u in &ids {
            for &v in &ids {
                if u != v {
                    bld.edge(u, v, DepKind::RegFlow, 1).unwrap();
                }
            }
        }
        let g = bld.build().unwrap();
        let info = RecurrenceInfo::analyze_with_budget(&g, 10);
        assert!(info.truncated);
        assert!(info.circuits.len() <= 10);
        let full = RecurrenceInfo::analyze_with_budget(&g, 1_000_000);
        assert!(!full.truncated);
        assert!(full.circuits.len() > 100);
    }

    #[test]
    fn two_disjoint_recurrences_give_two_subgraphs() {
        let mut bld = DdgBuilder::new("two");
        let a = bld.node("a", OpKind::FpAdd, 4);
        let b = bld.node("b", OpKind::FpAdd, 1);
        let c = bld.node("c", OpKind::FpMul, 2);
        let d = bld.node("d", OpKind::FpMul, 2);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 1).unwrap();
        bld.edge(c, d, DepKind::RegFlow, 0).unwrap();
        bld.edge(d, c, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let info = RecurrenceInfo::analyze(&g);
        assert_eq!(info.subgraphs.len(), 2);
        assert_eq!(info.subgraphs[0].rec_mii, 5);
        assert_eq!(info.subgraphs[1].rec_mii, 4);
        let lists = info.simplified_node_lists();
        assert_eq!(lists.len(), 2);
        assert_eq!(lists[0], vec![a, b]);
        assert_eq!(lists[1], vec![c, d]);
    }

    #[test]
    fn circuit_nodes_start_at_smallest_id() {
        let (g, ids) = build_fig8b();
        let info = RecurrenceInfo::analyze(&g);
        for c in &info.circuits {
            assert_eq!(*c.nodes.iter().min().unwrap(), c.nodes[0]);
            assert!(c.nodes.contains(&ids[0]), "all circuits pass through A");
        }
    }
}
