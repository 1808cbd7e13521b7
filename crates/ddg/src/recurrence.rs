//! Enumeration-free recurrence analysis: recurrence subgraphs derived
//! directly from the strongly connected components, their backward-edge
//! sets and the per-node cycle-ratio analysis, in polynomial time.
//!
//! The pre-ordering phase of HRMS (Section 3.2 of the paper) needs the
//! loop's recurrence circuits *grouped by their backward-edge sets* and
//! ordered by criticality — decreasing `RecMII = ceil(Σλ / Ω)` (the
//! paper's Section 2.1 definition: circuit latency sum over circuit
//! distance sum). The original reproduction obtained that grouping from
//! Johnson's elementary-circuit enumeration, which is exponential on dense
//! SCCs — a single well-connected component with a few dozen loop-carried
//! edges spans millions of elementary circuits, and the enumeration budget
//! truncates the analysis exactly on the loops where modulo scheduling is
//! hardest. The enumeration now lives in the dev-only `hrms-oracle`
//! crate, as the reference this module is tested against.
//!
//! This module computes the same grouping without enumerating a single
//! circuit, from the facts [`crate::cycle_ratio`] derives per strongly
//! connected component:
//!
//! * **Single-backward-edge subgraphs** — inside one SCC, every dependence
//!   edge with distance `δ > 0` is a backward edge (dropping them makes
//!   the component acyclic), so an elementary circuit using **exactly
//!   one** backward edge `b = (s → t)` is a simple `t ⇝ s` path in the
//!   acyclic remainder plus `b` itself. Node sets and per-subgraph
//!   `RecMII`s come from per-edge reachability sweeps and longest-path
//!   DPs — exact, subgraph for subgraph, against the enumeration.
//! * **Interleaved two-edge subgraphs** — circuits threading exactly two
//!   backward edges decompose into two remainder paths; the cycle-ratio
//!   analysis ranks them from the same DP tables (see
//!   [`crate::cycle_ratio`], step 2), which splits and orders the former
//!   per-SCC *residual* coarsening exactly where the enumeration would
//!   have. Pairs whose members are all claimed by more restrictive
//!   subgraphs are dropped; they cannot influence the ordering phase.
//! * **Deeper interleavings** — nodes lying only on circuits threading
//!   three or more backward edges are collected per SCC into one residual
//!   group ranked by the exact component `RecMII` (a sound, polynomial
//!   fallback that keeps every recurrence node prioritised). The
//!   differential suites *count* how often this fallback fires instead of
//!   tolerating it silently, and the corpora pin the count at zero.
//!
//! On every loop where the (budgeted) enumeration completes, the
//! grouping, per-group `RecMII` and simplified node lists are cross-checked
//! against it by `hrms_oracle::cross_check`; the workspace's
//! `tests/recurrence_differential.rs` applies that check to every distinct
//! loop the test suite builds.
//!
//! Total cost for a loop with `V` nodes, `E` edges and `B` backward
//! edges: the cycle-ratio analysis' `O(B · (V + E) + (V + E) · B/64 +
//! B² · V/64)` (see [`crate::cycle_ratio`]) plus the final
//! `O(G log G)` sort over the `G` emitted groups — polynomial by
//! construction, with **no enumeration budget and no truncation**.

use std::collections::BTreeSet;

use crate::cycle_ratio::CycleRatios;
use crate::edge::EdgeId;
use crate::graph::Ddg;
use crate::node::NodeId;
use crate::scc;

/// How a [`RecurrenceGroup`] was derived — which circuit shape it stands
/// for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecurrenceGroupKind {
    /// A self-dependent operation: a trivial circuit that bounds the II
    /// but never the pre-ordering.
    SelfLoop,
    /// All circuits through one backward edge — exact, the overwhelmingly
    /// common case.
    SingleEdge,
    /// The circuits threading one *pair* of backward edges (an
    /// interleaved recurrence), ranked by the cycle-ratio analysis.
    Interleaved,
    /// The per-SCC fallback for nodes lying only on circuits threading
    /// three or more backward edges, ranked by the exact component
    /// `RecMII`.
    Residual,
    /// A zero-distance dependence cycle: the loop body is invalid and no
    /// II satisfies it; the group only keeps the nodes prioritised.
    ZeroDistance,
}

/// One recurrence subgraph: the nodes whose circuits share a backward-edge
/// set, with the most restrictive initiation-interval bound among them.
///
/// The enumeration-free analogue of the enumeration's recurrence
/// subgraph (`hrms_oracle::RecurrenceSubgraph`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceGroup {
    /// How this group was derived.
    pub kind: RecurrenceGroupKind,
    /// The member nodes, sorted by id.
    pub nodes: Vec<NodeId>,
    /// The backward-edge set keying this group. A singleton for subgraphs
    /// derived from one backward edge, a pair for interleaved subgraphs,
    /// the unrealised backward edges of the SCC for a residual group and
    /// empty for a zero-distance self-loop.
    pub backward_edges: BTreeSet<EdgeId>,
    /// The most restrictive `RecMII` among the group's circuits
    /// (`u64::MAX` for zero-distance cycles, which no II satisfies).
    pub rec_mii: u64,
}

impl RecurrenceGroup {
    /// Whether this is a trivial group (a single self-dependent operation).
    /// Trivial groups constrain the II but not the pre-ordering.
    pub fn is_trivial(&self) -> bool {
        self.nodes.len() == 1
    }
}

/// The complete enumeration-free recurrence analysis of a dependence graph.
///
/// Unlike the budgeted circuit enumeration there is **no** `truncated`
/// flag: construction is polynomial and always complete, whatever the
/// density of the SCCs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceGroups {
    /// Recurrence groups sorted by decreasing `RecMII` (most restrictive
    /// first), ties broken by smallest member nodes then backward-edge set —
    /// the same total order the circuit enumeration uses for its subgraphs.
    pub groups: Vec<RecurrenceGroup>,
}

impl RecurrenceGroups {
    /// Analyses `ddg`, running its own Tarjan pass. Callers holding a
    /// [`crate::LoopAnalysis`] use its cached accessor instead so the single
    /// per-loop Tarjan run is shared.
    pub fn analyze(ddg: &Ddg) -> Self {
        Self::analyze_with_sccs(ddg, &scc::strongly_connected_components(ddg))
    }

    /// Analyses `ddg` over precomputed strongly connected components.
    pub fn analyze_with_sccs(ddg: &Ddg, sccs: &[Vec<NodeId>]) -> Self {
        Self::from_cycle_ratios(ddg, &CycleRatios::analyze_with_sccs(ddg, sccs))
    }

    /// Assembles the groups from a precomputed cycle-ratio analysis (the
    /// cached [`crate::LoopAnalysis::cycle_ratios`] in every scheduling
    /// path, so the per-SCC derivation runs once per loop).
    pub fn from_cycle_ratios(ddg: &Ddg, ratios: &CycleRatios) -> Self {
        let mut groups: Vec<RecurrenceGroup> = Vec::new();

        // Self-dependences are trivial single-node groups, exactly as the
        // enumeration treats them (a zero-distance self-loop keys the empty
        // set and admits no II).
        for (eid, e) in ddg.edges() {
            if e.is_self_loop() {
                let mut backward = BTreeSet::new();
                if e.distance() > 0 {
                    backward.insert(eid);
                }
                let lat = u64::from(ddg.node(e.source()).latency());
                groups.push(RecurrenceGroup {
                    kind: RecurrenceGroupKind::SelfLoop,
                    nodes: vec![e.source()],
                    backward_edges: backward,
                    rec_mii: if e.distance() > 0 {
                        lat.div_ceil(u64::from(e.distance()))
                    } else {
                        u64::MAX
                    },
                });
            }
        }

        groups.extend(ratios.scc_groups().iter().cloned());

        // Same total order as the enumerated subgraphs: most restrictive
        // first, deterministic tie-break.
        groups.sort_by(|a, b| {
            b.rec_mii
                .cmp(&a.rec_mii)
                .then_with(|| a.nodes.cmp(&b.nodes))
                .then_with(|| a.backward_edges.cmp(&b.backward_edges))
        });
        RecurrenceGroups { groups }
    }

    /// Lower bound on the initiation interval imposed by the recurrence
    /// groups, in the paper's operation-latency metric; 0 when the graph
    /// has no recurrence. Equals the enumeration's bound
    /// (`hrms_oracle::RecurrenceInfo::rec_mii_lower_bound`) wherever the
    /// enumeration completes. The bound for scheduling is
    /// [`crate::CycleRatios::rec_mii`], from the same cycle-ratio pass,
    /// which charges anti and output dependences issue order instead of
    /// their operation latency.
    pub fn rec_mii_lower_bound(&self) -> u64 {
        self.groups.iter().map(|g| g.rec_mii).max().unwrap_or(0)
    }

    /// Whether the graph has any recurrence circuit at all.
    pub fn has_recurrence(&self) -> bool {
        !self.groups.is_empty()
    }

    /// The simplified per-group node lists used by the ordering phase:
    /// groups in decreasing `RecMII` order, each node appearing only in the
    /// first (most restrictive) group that contains it, trivial single-node
    /// groups dropped (paper, Section 3.2). Identical semantics to the
    /// enumeration's `hrms_oracle::RecurrenceInfo::simplified_node_lists`.
    pub fn simplified_node_lists(&self) -> Vec<Vec<NodeId>> {
        let mut claimed = vec![false; self.node_bound()];
        let mut lists = Vec::new();
        for g in &self.groups {
            if g.nodes.len() == 1 {
                continue;
            }
            let fresh: Vec<NodeId> = g
                .nodes
                .iter()
                .copied()
                .filter(|n| !claimed[n.index()])
                .collect();
            if fresh.is_empty() {
                continue;
            }
            for &n in &fresh {
                claimed[n.index()] = true;
            }
            lists.push(fresh);
        }
        lists
    }

    fn node_bound(&self) -> usize {
        self.groups
            .iter()
            .flat_map(|g| g.nodes.iter())
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdgBuilder, DepKind, OpKind};

    #[test]
    fn zero_distance_cycle_yields_a_catch_all_group() {
        let mut bld = DdgBuilder::new("bad");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        let groups = RecurrenceGroups::analyze(&g);
        assert_eq!(groups.groups.len(), 1);
        assert_eq!(groups.groups[0].kind, RecurrenceGroupKind::ZeroDistance);
        assert_eq!(groups.rec_mii_lower_bound(), u64::MAX);
        assert_eq!(groups.groups[0].nodes, vec![a, b]);
    }

    #[test]
    fn dense_scc_is_analysed_without_any_budget() {
        // The shape that made Johnson's enumeration explode: a complete
        // digraph on 10 nodes has ~1.1M elementary circuits, yet the
        // SCC-derived analysis is linear in edges and fully covers it.
        let mut bld = DdgBuilder::new("dense");
        let ids: Vec<NodeId> = (0..10)
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
        let groups = RecurrenceGroups::analyze(&g);
        assert!(groups.has_recurrence());
        // Every edge has distance > 0, so the acyclic remainder is empty
        // and the circuits are the two-node interleavings; the claim sweep
        // keeps exactly the ones the ordering phase can observe.
        assert!(groups
            .groups
            .iter()
            .all(|gr| gr.kind == RecurrenceGroupKind::Interleaved));
        assert_eq!(groups.groups.len(), 9);
        // Exact bound: every k-cycle carries latency k over distance k.
        assert_eq!(groups.rec_mii_lower_bound(), 1);
        let covered: BTreeSet<NodeId> = groups
            .groups
            .iter()
            .flat_map(|gr| gr.nodes.iter().copied())
            .collect();
        assert_eq!(covered.len(), 10, "every node stays covered");
    }
}
