//! The cross-check of the enumeration-free recurrence analysis against
//! Johnson's circuit enumeration.
//!
//! [`hrms_ddg::RecurrenceGroups`] derives the recurrence subgraphs the
//! pre-ordering ranks (paper, Section 3.2) from the SCCs and the per-node
//! cycle ratios, without enumerating a circuit. [`cross_check`] compares
//! that grouping, subgraph for subgraph, with the grouping of a complete
//! [`RecurrenceInfo`] enumeration of the same graph, and counts every
//! divergence in a [`CrossCheckReport`]. The one documented source of
//! divergence is the residual fallback for nodes that lie only on circuits
//! threading three or more backward edges.

use std::collections::{BTreeMap, BTreeSet};

use hrms_ddg::{EdgeId, NodeId, RecurrenceGroup, RecurrenceGroupKind, RecurrenceGroups};

use crate::circuits::RecurrenceInfo;

/// The outcome of a [`cross_check`] run: how the enumeration-free groups
/// compared against the oracle, with the former "documented exception"
/// (interleaved multi-edge recurrences) quantified instead of silently
/// tolerated.
///
/// `Default` is an all-zero report (nothing checked, nothing diverged).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossCheckReport {
    /// Enumerated subgraphs keyed by a single backward edge (these are
    /// matched one-to-one as a hard error, so they never diverge).
    pub single_edge_subgraphs: usize,
    /// Enumerated subgraphs keyed by two or more backward edges.
    pub interleaved_subgraphs: usize,
    /// The subset of [`CrossCheckReport::interleaved_subgraphs`] keyed by
    /// **three or more** backward edges — the only regime with a
    /// documented fallback. Divergence on a loop with none of these is a
    /// bug.
    pub deep_subgraphs: usize,
    /// Interleaved subgraphs with an exactly matching group (same key,
    /// same nodes, same `RecMII`).
    pub exact_interleaved_matches: usize,
    /// Interleaved subgraphs with no matching group that also could not
    /// have claimed a node in the oracle's own ordering — dropping them is
    /// provably invisible to the ordering phase.
    pub suppressed_interleaved: usize,
    /// Interleaved subgraphs the groups mis-rank: a key-matched group
    /// diverges in nodes or `RecMII`, or an ordering-relevant subgraph has
    /// no counterpart. **The coarsening statistic** — the suites assert it
    /// is zero on every corpus.
    pub coarsened_subgraphs: usize,
    /// Interleaved groups with no enumerated counterpart (a pair bound
    /// whose two maximizing segments intersect can manufacture one).
    /// Counted into the coarsening total.
    pub spurious_groups: usize,
    /// Residual fallback groups in the new analysis (circuits threading
    /// three or more backward edges).
    pub residual_groups: usize,
    /// Whether the ordering phase sees identical input from both analyses:
    /// equal simplified node lists, equal per-list claiming `RecMII`s and
    /// equal `RecMII` lower bounds.
    pub ordering_match: bool,
}

impl CrossCheckReport {
    /// Whether the two analyses are fully interchangeable on this loop:
    /// no coarsening, no spurious groups, and the ordering phase's entire
    /// view (lists, claiming ranks, bound) is identical.
    pub fn is_exact(&self) -> bool {
        self.coarsening() == 0 && self.ordering_match
    }

    /// Total divergences attributable to multi-edge coarsening.
    pub fn coarsening(&self) -> usize {
        self.coarsened_subgraphs + self.spurious_groups
    }

    /// Accumulates another report (for corpus-wide totals).
    pub fn absorb(&mut self, other: &CrossCheckReport) {
        self.single_edge_subgraphs += other.single_edge_subgraphs;
        self.interleaved_subgraphs += other.interleaved_subgraphs;
        self.deep_subgraphs += other.deep_subgraphs;
        self.exact_interleaved_matches += other.exact_interleaved_matches;
        self.suppressed_interleaved += other.suppressed_interleaved;
        self.coarsened_subgraphs += other.coarsened_subgraphs;
        self.spurious_groups += other.spurious_groups;
        self.residual_groups += other.residual_groups;
        self.ordering_match &= other.ordering_match;
    }
}

/// The ordering phase's view of a ranked subgraph sequence: the claimed
/// (fresh) node list of every claiming non-trivial subgraph, with its
/// `RecMII`.
fn claim_view<'a, I>(ranked: I) -> Vec<(Vec<NodeId>, u64)>
where
    I: Iterator<Item = (&'a Vec<NodeId>, u64)>,
{
    let mut claimed: BTreeSet<NodeId> = BTreeSet::new();
    let mut view = Vec::new();
    for (nodes, rec_mii) in ranked {
        if nodes.len() == 1 {
            continue;
        }
        let fresh: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|n| !claimed.contains(n))
            .collect();
        if fresh.is_empty() {
            continue;
        }
        claimed.extend(fresh.iter().copied());
        view.push((fresh, rec_mii));
    }
    view
}

/// Cross-checks the enumeration-free groups against a **non-truncated**
/// circuit enumeration of the same graph.
///
/// Hard guarantees (a violation is an `Err`): every enumerated subgraph
/// keyed by a single backward edge has an identical group (same nodes,
/// same key, same `RecMII`) and vice versa, and every node of a
/// multi-edge subgraph is covered by some group. Interleaved (multi-edge)
/// subgraphs are additionally matched exactly where possible, and every
/// divergence is **counted** in the returned [`CrossCheckReport`] — the
/// differential suites assert the count is zero across the reference,
/// generated and interleaved corpora, turning the former documented
/// exception into a proven-empty set.
///
/// Used by the unit tests below and by the workspace's recurrence
/// differential suite, which applies it to every loop the test suite
/// builds.
///
/// # Errors
///
/// Returns a human-readable description of the first hard-invariant
/// violation found.
pub fn cross_check(
    groups: &RecurrenceGroups,
    oracle: &RecurrenceInfo,
) -> Result<CrossCheckReport, String> {
    assert!(
        !oracle.truncated,
        "cross_check needs a complete enumeration"
    );
    let by_key: BTreeMap<&BTreeSet<EdgeId>, &RecurrenceGroup> = groups
        .groups
        .iter()
        .map(|g| (&g.backward_edges, g))
        .collect();

    let mut report = CrossCheckReport::default();
    let mut oracle_keys: BTreeSet<&BTreeSet<EdgeId>> = BTreeSet::new();
    let mut claimed: BTreeSet<NodeId> = BTreeSet::new();
    for sg in &oracle.subgraphs {
        if sg.rec_mii == u64::MAX {
            // Zero-distance cycles: the loop is invalid and both analyses
            // only promise to keep its nodes prioritised.
            continue;
        }
        oracle_keys.insert(&sg.backward_edges);
        if sg.backward_edges.len() == 1 {
            report.single_edge_subgraphs += 1;
            let Some(g) = by_key.get(&sg.backward_edges) else {
                return Err(format!(
                    "enumerated subgraph {:?} has no SCC-derived group",
                    sg.backward_edges
                ));
            };
            if g.nodes != sg.nodes {
                return Err(format!(
                    "subgraph {:?}: nodes diverge ({:?} vs {:?})",
                    sg.backward_edges, g.nodes, sg.nodes
                ));
            }
            if g.rec_mii != sg.rec_mii {
                return Err(format!(
                    "subgraph {:?}: RecMII diverges ({} vs {})",
                    sg.backward_edges, g.rec_mii, sg.rec_mii
                ));
            }
        } else {
            report.interleaved_subgraphs += 1;
            if sg.backward_edges.len() > 2 {
                report.deep_subgraphs += 1;
            }
            // Every node must still be covered (hard invariant).
            for &node in &sg.nodes {
                if !groups.groups.iter().any(|g| g.nodes.contains(&node)) {
                    return Err(format!(
                        "node {node} of multi-edge subgraph {:?} is uncovered",
                        sg.backward_edges
                    ));
                }
            }
            match by_key.get(&sg.backward_edges) {
                Some(g) if g.nodes == sg.nodes && g.rec_mii == sg.rec_mii => {
                    report.exact_interleaved_matches += 1;
                }
                Some(_) => report.coarsened_subgraphs += 1,
                None => {
                    // Would this subgraph have claimed a node in the
                    // oracle's own ordering? If not, dropping it cannot be
                    // observed by the ordering phase.
                    let fresh = sg.nodes.len() > 1 && sg.nodes.iter().any(|n| !claimed.contains(n));
                    if fresh {
                        report.coarsened_subgraphs += 1;
                    } else {
                        report.suppressed_interleaved += 1;
                    }
                }
            }
        }
        if sg.nodes.len() > 1 {
            claimed.extend(sg.nodes.iter().copied());
        }
    }

    for g in &groups.groups {
        match g.kind {
            RecurrenceGroupKind::SingleEdge => {
                // No spurious single-edge groups: each must exist in the
                // oracle (hard invariant).
                if g.rec_mii != u64::MAX && !oracle_keys.contains(&g.backward_edges) {
                    return Err(format!(
                        "SCC-derived group {:?} has no enumerated counterpart",
                        g.backward_edges
                    ));
                }
            }
            RecurrenceGroupKind::Interleaved => {
                if !oracle_keys.contains(&g.backward_edges) {
                    report.spurious_groups += 1;
                }
            }
            RecurrenceGroupKind::Residual => report.residual_groups += 1,
            RecurrenceGroupKind::SelfLoop | RecurrenceGroupKind::ZeroDistance => {}
        }
    }

    // The ordering phase's complete view: claimed lists with their ranks,
    // plus the RecMII lower bound.
    let group_view = claim_view(
        groups
            .groups
            .iter()
            .filter(|g| g.rec_mii != u64::MAX)
            .map(|g| (&g.nodes, g.rec_mii)),
    );
    let oracle_view = claim_view(
        oracle
            .subgraphs
            .iter()
            .filter(|sg| sg.rec_mii != u64::MAX)
            .map(|sg| (&sg.nodes, sg.rec_mii)),
    );
    report.ordering_match =
        group_view == oracle_view && groups.rec_mii_lower_bound() == oracle.rec_mii_lower_bound();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{Ddg, DdgBuilder, DepKind, OpKind};

    fn check_against_enumeration(ddg: &Ddg) -> RecurrenceGroups {
        let groups = RecurrenceGroups::analyze(ddg);
        let oracle = RecurrenceInfo::analyze_with_budget(ddg, usize::MAX);
        let report =
            cross_check(&groups, &oracle).unwrap_or_else(|e| panic!("`{}`: {e}", ddg.name()));
        assert!(
            report.is_exact(),
            "`{}`: {report:?} is not exact",
            ddg.name()
        );
        groups
    }

    #[test]
    fn acyclic_graph_has_no_groups() {
        let g = hrms_ddg::chain("c", 6, OpKind::FpAdd, 1);
        let groups = check_against_enumeration(&g);
        assert!(!groups.has_recurrence());
        assert_eq!(groups.rec_mii_lower_bound(), 0);
        assert!(groups.simplified_node_lists().is_empty());
    }

    #[test]
    fn figure8b_single_backward_edge_is_one_group() {
        // Paper Figure 8b: two circuits {A,D,E} and {A,B,C,E} sharing the
        // single backward edge E -> A form one subgraph {A,B,C,D,E}.
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
        let groups = check_against_enumeration(&g);
        assert_eq!(groups.groups.len(), 1);
        assert_eq!(groups.groups[0].kind, RecurrenceGroupKind::SingleEdge);
        assert_eq!(groups.groups[0].nodes, vec![a, b, c, d, e]);
        assert_eq!(groups.groups[0].rec_mii, 4, "longest circuit A,B,C,E");
    }

    #[test]
    fn figure8c_distinct_backward_edges_stay_separate() {
        let mut bld = DdgBuilder::new("fig8c");
        let a = bld.node("A", OpKind::FpAdd, 2);
        let b = bld.node("B", OpKind::FpAdd, 1);
        let c = bld.node("C", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 1).unwrap();
        bld.edge(b, c, DepKind::RegFlow, 0).unwrap();
        bld.edge(c, b, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let groups = check_against_enumeration(&g);
        assert_eq!(groups.groups.len(), 2);
        assert_eq!(groups.groups[0].rec_mii, 3);
        assert_eq!(groups.groups[0].nodes, vec![a, b]);
        assert_eq!(groups.groups[1].rec_mii, 2);
        assert_eq!(groups.groups[1].nodes, vec![b, c]);
        let lists = groups.simplified_node_lists();
        assert_eq!(lists, vec![vec![a, b], vec![c]]);
    }

    #[test]
    fn self_loops_are_trivial_groups() {
        let mut bld = DdgBuilder::new("s");
        let a = bld.node("a", OpKind::FpAdd, 3);
        bld.edge(a, a, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let groups = check_against_enumeration(&g);
        assert_eq!(groups.groups.len(), 1);
        assert!(groups.groups[0].is_trivial());
        assert_eq!(groups.groups[0].kind, RecurrenceGroupKind::SelfLoop);
        assert_eq!(groups.groups[0].rec_mii, 3);
        assert!(groups.simplified_node_lists().is_empty());
    }

    #[test]
    fn distance_greater_than_one_divides_the_bound() {
        let mut bld = DdgBuilder::new("dist2");
        let a = bld.node("a", OpKind::FpDiv, 17);
        let b = bld.node("b", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 2).unwrap();
        let g = bld.build().unwrap();
        let groups = check_against_enumeration(&g);
        assert_eq!(groups.rec_mii_lower_bound(), 9, "ceil(18 / 2)");
    }

    #[test]
    fn parallel_backward_edges_collapse_to_the_binding_distance() {
        let mut bld = DdgBuilder::new("par");
        let a = bld.node("a", OpKind::FpAdd, 2);
        let b = bld.node("b", OpKind::FpAdd, 2);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 3).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 1).unwrap(); // binding
        let g = bld.build().unwrap();
        let groups = check_against_enumeration(&g);
        assert_eq!(groups.groups.len(), 1, "parallel edges collapse");
        assert_eq!(groups.groups[0].rec_mii, 4);
    }

    #[test]
    fn interleaved_recurrences_rank_the_bridging_pair() {
        // Two two-node recurrences bridged by loop-carried edges: the
        // bridging circuit threads two backward edges; the enumeration
        // reports it as a separate multi-edge subgraph and the SCC-derived
        // analysis mirrors it as an Interleaved group.
        let mut bld = DdgBuilder::new("interleave");
        let r0 = bld.node("r0", OpKind::FpAdd, 1);
        let r1 = bld.node("r1", OpKind::FpAdd, 1);
        let s0 = bld.node("s0", OpKind::FpAdd, 1);
        let s1 = bld.node("s1", OpKind::FpAdd, 1);
        bld.edge(r0, r1, DepKind::RegFlow, 0).unwrap();
        bld.edge(r1, r0, DepKind::RegFlow, 1).unwrap();
        bld.edge(s0, s1, DepKind::RegFlow, 0).unwrap();
        bld.edge(s1, s0, DepKind::RegFlow, 1).unwrap();
        bld.edge(r1, s0, DepKind::RegFlow, 1).unwrap();
        bld.edge(s1, r0, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let groups = check_against_enumeration(&g);
        assert_eq!(groups.groups.len(), 3, "two singles + the bridging pair");
        assert_eq!(
            groups
                .groups
                .iter()
                .filter(|gr| gr.kind == RecurrenceGroupKind::Interleaved)
                .count(),
            1
        );
        assert_eq!(
            groups.simplified_node_lists(),
            vec![vec![r0, r1], vec![s0, s1]]
        );
    }

    #[test]
    fn bridge_only_nodes_land_in_an_interleaved_group() {
        // a → b ⇢ m → c → d ⇢ a: the circuit threads both backward edges
        // (b → m and d → a) and `m` lies on no single-edge circuit. The
        // pair is ranked exactly (ceil(5/2) = 3), where the pre-cycle-ratio
        // analysis could only offer the whole-SCC residual bound.
        let mut bld = DdgBuilder::new("bridge");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        let m = bld.node("m", OpKind::FpAdd, 1);
        let c = bld.node("c", OpKind::FpAdd, 1);
        let d = bld.node("d", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, m, DepKind::RegFlow, 1).unwrap();
        bld.edge(m, c, DepKind::RegFlow, 0).unwrap();
        bld.edge(c, d, DepKind::RegFlow, 0).unwrap();
        bld.edge(d, a, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let groups = check_against_enumeration(&g);
        assert_eq!(groups.groups.len(), 1, "one interleaved group");
        assert_eq!(groups.groups[0].kind, RecurrenceGroupKind::Interleaved);
        assert_eq!(groups.groups[0].nodes, vec![a, b, m, c, d]);
        assert_eq!(groups.groups[0].backward_edges.len(), 2);
        assert_eq!(groups.groups[0].rec_mii, 3);
    }

    #[test]
    fn deep_interleaving_falls_back_to_a_counted_residual() {
        // Three backward bridges closing only one six-node circuit: no
        // single- or two-edge subgraph exists, so the residual fallback
        // carries every node at the exact component RecMII — and the
        // cross-check counts the fallback instead of hiding it. (Here the
        // fallback happens to be exact: the one three-edge subgraph spans
        // the whole SCC, whose RecMII the residual rank is.)
        let mut bld = DdgBuilder::new("deep");
        let ids: Vec<NodeId> = (0..6)
            .map(|i| bld.node(format!("n{i}"), OpKind::FpAdd, 4))
            .collect();
        bld.edge(ids[0], ids[1], DepKind::RegFlow, 0).unwrap();
        bld.edge(ids[2], ids[3], DepKind::RegFlow, 0).unwrap();
        bld.edge(ids[4], ids[5], DepKind::RegFlow, 0).unwrap();
        bld.edge(ids[1], ids[2], DepKind::RegFlow, 1).unwrap();
        bld.edge(ids[3], ids[4], DepKind::RegFlow, 1).unwrap();
        bld.edge(ids[5], ids[0], DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let groups = RecurrenceGroups::analyze(&g);
        assert_eq!(groups.groups.len(), 1);
        assert_eq!(groups.groups[0].kind, RecurrenceGroupKind::Residual);
        assert_eq!(groups.groups[0].nodes, ids);
        assert_eq!(groups.groups[0].rec_mii, 8, "ceil(24 / 3) exactly");
        let oracle = RecurrenceInfo::analyze_with_budget(&g, usize::MAX);
        let report = cross_check(&groups, &oracle).unwrap();
        assert_eq!(report.interleaved_subgraphs, 1);
        assert_eq!(report.residual_groups, 1, "the fallback is counted");
        assert_eq!(report.exact_interleaved_matches, 1);
        assert!(report.is_exact(), "and here it happens to be exact");
    }

    #[test]
    fn groups_are_deterministic() {
        let mut bld = DdgBuilder::new("det");
        let ids: Vec<NodeId> = (0..12)
            .map(|i| bld.node(format!("n{i}"), OpKind::FpAdd, 1 + (i % 3) as u32))
            .collect();
        for i in 0..11 {
            bld.edge(ids[i], ids[i + 1], DepKind::RegFlow, 0).unwrap();
        }
        for (s, t, d) in [(5, 1, 1), (8, 4, 2), (10, 0, 1), (7, 6, 1)] {
            bld.edge(ids[s], ids[t], DepKind::RegFlow, d).unwrap();
        }
        let g = bld.build().unwrap();
        let a = check_against_enumeration(&g);
        let b = RecurrenceGroups::analyze(&g);
        assert_eq!(a, b);
    }
    #[test]
    fn avoidable_overlap_pair_is_trimmed_to_the_elementary_span() {
        // Pair {6⇢0, 9⇢1} where the B segment (1 → 2 → 6) is forced
        // through node 2, so valid A segments must avoid 2: the node 4
        // (reachable only via 2) lies on unrestricted 0 ⇝ 9 paths but on
        // no elementary pair circuit, and the fixpoint must trim it out
        // of the span — matching the enumeration exactly.
        let mut bld = DdgBuilder::new("trim");
        let ids: Vec<NodeId> = (0..8)
            .map(|i| bld.node(format!("n{i}"), OpKind::FpAdd, 1))
            .collect();
        let e = |bld: &mut DdgBuilder, s: usize, t: usize, d: u32| {
            bld.edge(ids[s], ids[t], DepKind::RegFlow, d).unwrap();
        };
        // Indices: 0, 1, 2 (shared), 3 (=the trimmed node), 4..6 = bypass
        // chain, 7 = sink of both segments.
        e(&mut bld, 0, 2, 0); // 0 -> 2
        e(&mut bld, 1, 2, 0); // 1 -> 2
        e(&mut bld, 2, 3, 0); // 2 -> 3
        e(&mut bld, 3, 7, 0); // 3 -> 7
        e(&mut bld, 0, 4, 0); // bypass 0 -> 4 -> 5 -> 7
        e(&mut bld, 4, 5, 0);
        e(&mut bld, 5, 7, 0);
        e(&mut bld, 2, 6, 0); // 2 -> 6 closes the B side
        e(&mut bld, 6, 0, 1); // backward B: 6 ⇢ 0
        e(&mut bld, 7, 1, 1); // backward A: 7 ⇢ 1
        let g = bld.build().unwrap();
        let groups = RecurrenceGroups::analyze(&g);
        let oracle = RecurrenceInfo::analyze_with_budget(&g, usize::MAX);
        let report = cross_check(&groups, &oracle).unwrap();
        assert!(report.is_exact(), "{report:?}");
        let pair = groups
            .groups
            .iter()
            .find(|gr| gr.kind == RecurrenceGroupKind::Interleaved)
            .expect("the pair closes through the bypass chain");
        assert!(
            !pair.nodes.contains(&ids[3]),
            "node 3 is only on non-elementary pair walks: {:?}",
            pair.nodes
        );
    }
}
