//! The pre-ordering phase of HRMS (Sections 3.1 and 3.2 of the paper).
//!
//! The pre-ordering decides the order in which operations will be handed to
//! the scheduling step. It guarantees that, when an operation is scheduled,
//! the partial schedule contains only its predecessors **or** only its
//! successors (never both), except when the last node of a recurrence
//! circuit is placed. It also gives priority to recurrence circuits, most
//! restrictive (highest `RecMII`) first, so that recurrences are never
//! stretched.
//!
//! Since the dense-representation rewrite, the phase runs entirely on the
//! index/bitset machinery of [`hrms_ddg::dense`]: the loop's adjacency is
//! materialised once as a CSR with the backward edges of recurrence circuits
//! removed, each weakly connected component gets a bitset [`WorkGraph`]
//! carved out of it, and every `Search_All_Paths` / `Sort_ASAP` /
//! `Sort_PALA` / reduction step is a word-level operation — restoring the
//! `O(|V| + |E|)` per-step footprint the paper claims in footnote 2. The
//! orderings are pinned by golden fingerprints
//! (`tests/golden/preorder_fingerprints.txt`).

use hrms_ddg::dense::KahnScratch;
use hrms_ddg::{dense, Csr, LoopAnalysis, NodeId, NodeSet};
use hrms_modsched::StartHint;

use crate::workgraph::WorkGraph;

/// Options for the pre-ordering phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreOrderOptions {
    /// Where the initial hypernode of a recurrence-free component starts:
    /// its first node in program order (the paper's default), its last
    /// node, or a given node (the first node when the given one is not
    /// part of the component). The paper (footnote 1) notes that the
    /// algorithm shortens lifetimes irrespective of the starting node; the
    /// start-node ablation checks that claim.
    pub start_node: StartHint,
}

/// The component's initial hypernode under `hint`.
fn start_node(hint: StartHint, component: &[NodeId]) -> NodeId {
    match hint {
        StartHint::Last => *component.last().expect("non-empty"),
        StartHint::Node(n) if component.contains(&n) => n,
        StartHint::Default | StartHint::Node(_) => component[0],
    }
}

/// The result of the pre-ordering phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreOrdering {
    /// The complete node order handed to the scheduling step.
    pub order: Vec<NodeId>,
    /// Number of weakly connected components of the loop body.
    pub components: usize,
    /// Number of (non-trivial) recurrence subgraphs handled with priority.
    pub recurrence_subgraphs: usize,
    /// Whether the recurrence analysis behind this ordering was truncated
    /// (an enumeration budget was hit), degrading the recurrence priority.
    /// Always `false`: the SCC-derived analysis is polynomial and complete
    /// by construction. The field stays so that callers replicating the
    /// scheduler's driver keep compiling.
    pub truncated: bool,
}

/// Pre-orders the nodes of the analysed loop with the default options.
pub fn pre_order(la: &LoopAnalysis<'_>) -> PreOrdering {
    pre_order_with(la, &PreOrderOptions::default())
}

/// Pre-orders the nodes of the analysed loop.
///
/// The returned order contains every node exactly once. Graphs whose
/// zero-distance subgraph is cyclic (invalid loop bodies) are still ordered
/// — the order degenerates towards program order — but the scheduling step
/// will subsequently reject them when computing the MII.
///
/// The recurrence circuits, backward edges and both CSR adjacencies come
/// from (and are cached in) `la`, so the pre-ordering itself is pure index
/// manipulation; callers that also compute the MII or drive the scheduling
/// step hand the same [`LoopAnalysis`] to every phase and Tarjan plus the
/// CSR construction run once per loop.
pub fn pre_order_with(la: &LoopAnalysis<'_>, options: &PreOrderOptions) -> PreOrdering {
    let ddg = la.ddg();
    // The enumeration-free recurrence analysis: polynomial in the graph
    // size whatever the density of the SCCs, never truncated.
    let rec_info = la.recurrence_groups();
    let simplified = rec_info.simplified_node_lists();
    let bound = ddg.num_nodes();

    // The acyclic work adjacency (backward edges removed) and the full,
    // undropped adjacency (used to find reference operations for nodes only
    // connected through dropped edges).
    let work_csr = la.csr_work();
    let full_csr = la.csr_full();

    // Components ordered by the most restrictive recurrence they contain.
    let mut components = ddg.connected_components();
    let component_priority: Vec<u64> = components
        .iter()
        .map(|comp| {
            let members = NodeSet::from_indices(bound, comp.iter().map(|n| n.index()));
            rec_info
                .groups
                .iter()
                .filter(|sg| sg.nodes.iter().all(|n| members.contains(n.index())))
                .map(|sg| sg.rec_mii)
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut component_order: Vec<usize> = (0..components.len()).collect();
    component_order.sort_by(|&a, &b| {
        component_priority[b]
            .cmp(&component_priority[a])
            .then_with(|| components[a][0].cmp(&components[b][0]))
    });
    let num_components = components.len();

    let mut order: Vec<NodeId> = Vec::with_capacity(bound);
    let mut ordered = NodeSet::new(bound);
    let mut scratch = KahnScratch::new();
    let mut recurrence_subgraphs = 0usize;

    for ci in component_order {
        let component = std::mem::take(&mut components[ci]);
        let member_set = NodeSet::from_indices(bound, component.iter().map(|n| n.index()));
        let mut work = WorkGraph::from_csr(work_csr, &component);

        // Recurrence subgraph node lists that live in this component,
        // already sorted by decreasing RecMII by `simplified_node_lists`.
        let lists: Vec<&Vec<NodeId>> = simplified
            .iter()
            .filter(|l| member_set.contains(l[0].index()))
            .collect();

        let h = if let Some(first_list) = lists.first() {
            recurrence_subgraphs += lists.len();
            // --- Ordering_Recurrences (Section 3.2) ---
            let h = first_list[0];
            push(&mut order, &mut ordered, h);
            // Order the most restrictive recurrence subgraph on its own.
            let region = NodeSet::from_indices(bound, first_list.iter().map(|n| n.index()));
            order_region(
                &mut work,
                &region,
                h,
                &mut order,
                &mut ordered,
                full_csr,
                &mut scratch,
            );

            // Then bring in the remaining recurrence subgraphs one by one,
            // together with the nodes on paths connecting them to the
            // hypernode.
            for list in lists.iter().skip(1) {
                let mut seeds: Vec<usize> = vec![h.index()];
                seeds.extend(list.iter().map(|n| n.index()));
                let mut region = dense::search_all_paths(&work, &seeds);
                for n in list.iter() {
                    region.insert(n.index());
                }
                region.insert(h.index());
                order_region(
                    &mut work,
                    &region,
                    h,
                    &mut order,
                    &mut ordered,
                    full_csr,
                    &mut scratch,
                );
            }
            h
        } else {
            // No recurrences: pick the initial hypernode per policy.
            let h = start_node(options.start_node, &component);
            push(&mut order, &mut ordered, h);
            h
        };

        // Order whatever is left of the component around the hypernode
        // (Section 3.1).
        pre_order_connected(
            &mut work,
            h,
            &mut order,
            &mut ordered,
            full_csr,
            &mut scratch,
        );
    }

    PreOrdering {
        order,
        components: num_components,
        recurrence_subgraphs,
        truncated: false,
    }
}

fn push(order: &mut Vec<NodeId>, ordered: &mut NodeSet, n: NodeId) {
    order.push(n);
    ordered.insert(n.index());
}

/// Orders the sub-region `region` (which includes the hypernode `h`) of
/// `work` around `h`: generates the restricted subgraph, runs the
/// recurrence-free pre-ordering on it, and reduces the whole region into `h`
/// in the main work graph.
fn order_region(
    work: &mut WorkGraph,
    region: &NodeSet,
    h: NodeId,
    order: &mut Vec<NodeId>,
    ordered: &mut NodeSet,
    full_csr: &Csr,
    scratch: &mut KahnScratch,
) {
    let mut temp = work.restricted_set(region);
    temp.ensure_node(h);
    pre_order_connected(&mut temp, h, order, ordered, full_csr, scratch);
    let mut others = region.clone();
    others.remove(h.index());
    work.reduce_set(&others, h);
}

/// The paper's `Pre_Ordering` function (Figure 5) for graphs without
/// recurrence circuits, operating on an acyclic [`WorkGraph`]: alternately
/// absorbs the hypernode's predecessors (with all nodes on paths among them,
/// in PALA order) and successors (in ASAP order) until nothing is adjacent,
/// then falls back to pulling in a remaining node (this covers the paper's
/// "no path between the hypernode and the next recurrence circuit" case as
/// well as disconnected leftovers). The fallback prefers the lowest-numbered
/// remaining node with an already-ordered neighbour in the *undropped*
/// graph, so that every such node still has a reference operation for the
/// scheduler's placement windows; only truly disconnected leftovers are
/// absorbed by plain lowest-number order.
fn pre_order_connected(
    work: &mut WorkGraph,
    h: NodeId,
    order: &mut Vec<NodeId>,
    ordered: &mut NodeSet,
    full_csr: &Csr,
    scratch: &mut KahnScratch,
) {
    let hi = h.index();
    loop {
        if !work.pred_row(hi).is_empty() {
            let region = neighbour_region(work, hi, Side::Preds);
            let sorted = dense::sort_pala(work, &region, scratch)
                .expect("the work graph is acyclic once backward edges are removed");
            work.reduce_set(&region, h);
            for i in sorted {
                push(order, ordered, NodeId::from_index(i));
            }
        }

        if !work.succ_row(hi).is_empty() {
            let region = neighbour_region(work, hi, Side::Succs);
            let sorted = dense::sort_asap(work, &region, scratch)
                .expect("the work graph is acyclic once backward edges are removed");
            work.reduce_set(&region, h);
            for i in sorted {
                push(order, ordered, NodeId::from_index(i));
            }
        }

        if work.pred_row(hi).is_empty() && work.succ_row(hi).is_empty() {
            if work.len() <= 1 {
                break;
            }
            // Disconnected remainder (paper, Section 3.2, last paragraph of
            // the recurrence-ordering description).
            let next = work
                .live()
                .iter()
                .filter(|&i| i != hi)
                .find(|&i| full_csr.has_neighbour_in(i, ordered))
                .or_else(|| work.live().iter().find(|&i| i != hi))
                .expect("len > 1 guarantees another node");
            let next = NodeId::from_index(next);
            push(order, ordered, next);
            work.reduce(&[next], h);
        }
    }
}

/// Which side of the hypernode is being absorbed.
#[derive(Clone, Copy)]
enum Side {
    Preds,
    Succs,
}

/// The region absorbed together with the hypernode's predecessors
/// (successors): the neighbours themselves plus every node lying on a path
/// among them **or between them and the hypernode**.
///
/// Including the hypernode as a path-search seed is essential: once the
/// hypernode has absorbed several original operations, a node can be
/// simultaneously a (transitive) successor of one absorbed operation and a
/// (transitive) predecessor of a neighbour being absorbed now. Ordering it
/// together with that neighbour keeps the paper's invariant — no operation
/// is scheduled after both a predecessor and a successor have already been
/// placed on opposite, too-tight sides.
fn neighbour_region(work: &WorkGraph, hi: usize, side: Side) -> NodeSet {
    let row = match side {
        Side::Preds => work.pred_row(hi),
        Side::Succs => work.succ_row(hi),
    };
    let mut seeds: Vec<usize> = row.iter().map(|&x| x as usize).collect();
    seeds.push(hi);
    let mut region = dense::search_all_paths(work, &seeds);
    region.remove(hi);
    region
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{Ddg, DdgBuilder, DepKind, OpKind};
    use std::collections::HashSet;

    /// The dependence graph of the paper's Figure 1 (motivating example),
    /// reconstructed from the scheduling walk-through of Section 2.1.
    fn figure1() -> (Ddg, Vec<NodeId>) {
        let mut b = DdgBuilder::new("fig1");
        let names = ["A", "B", "C", "D", "E", "F", "G"];
        let ids: Vec<NodeId> = names.iter().map(|n| b.node(*n, OpKind::Other, 2)).collect();
        let e = |b: &mut DdgBuilder, s: usize, t: usize| {
            b.edge(ids[s], ids[t], DepKind::RegFlow, 0).unwrap();
        };
        e(&mut b, 0, 1); // A -> B
        e(&mut b, 1, 2); // B -> C
        e(&mut b, 1, 3); // B -> D
        e(&mut b, 3, 5); // D -> F
        e(&mut b, 4, 5); // E -> F
        e(&mut b, 5, 6); // F -> G
        (b.build().unwrap(), ids)
    }

    /// The dependence graph of the paper's Figure 7a, reconstructed from the
    /// step-by-step ordering walk-through of Section 3.1.
    fn figure7() -> (Ddg, Vec<NodeId>) {
        let mut b = DdgBuilder::new("fig7");
        let names = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"];
        let ids: Vec<NodeId> = names.iter().map(|n| b.node(*n, OpKind::Other, 1)).collect();
        let idx = |c: char| (c as u8 - b'A') as usize;
        let e = |s: char, t: char, bld: &mut DdgBuilder| {
            bld.edge(ids[idx(s)], ids[idx(t)], DepKind::RegFlow, 0)
                .unwrap();
        };
        e('A', 'C', &mut b);
        e('C', 'G', &mut b);
        e('C', 'H', &mut b);
        e('D', 'H', &mut b);
        e('H', 'J', &mut b);
        e('B', 'J', &mut b);
        e('I', 'J', &mut b);
        e('B', 'E', &mut b);
        e('E', 'I', &mut b);
        e('F', 'I', &mut b);
        (b.build().unwrap(), ids)
    }

    fn names(ddg: &Ddg, order: &[NodeId]) -> Vec<String> {
        order
            .iter()
            .map(|&n| ddg.node(n).name().to_string())
            .collect()
    }

    #[test]
    fn figure1_is_ordered_as_in_the_paper() {
        let (g, _) = figure1();
        let p = pre_order(&LoopAnalysis::analyze(&g));
        assert_eq!(
            names(&g, &p.order),
            vec!["A", "B", "C", "D", "F", "E", "G"],
            "Section 2.1 gives the order {{A, B, C, D, F, E, G}}"
        );
        assert_eq!(p.components, 1);
        assert_eq!(p.recurrence_subgraphs, 0);
    }

    #[test]
    fn figure7_is_ordered_as_in_the_paper() {
        let (g, _) = figure7();
        let p = pre_order(&LoopAnalysis::analyze(&g));
        assert_eq!(
            names(&g, &p.order),
            vec!["A", "C", "G", "H", "D", "J", "I", "E", "B", "F"],
            "Section 3.1 walks through the order {{A, C, G, H, D, J, I, E, B, F}}"
        );
    }

    #[test]
    fn every_node_appears_exactly_once() {
        for (g, _) in [figure1(), figure7()] {
            let p = pre_order(&LoopAnalysis::analyze(&g));
            let mut sorted: Vec<NodeId> = p.order.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), g.num_nodes());
        }
    }

    #[test]
    fn neighbour_invariant_holds() {
        // The defining property: when a node is ordered, the already-ordered
        // prefix contains only its predecessors or only its successors (in
        // the acyclic graph), never both — except for nodes closing a
        // recurrence.
        let (g, _) = figure7();
        let p = pre_order(&LoopAnalysis::analyze(&g));
        let mut placed: HashSet<NodeId> = HashSet::new();
        for &n in &p.order {
            let preds_in = g
                .predecessors(n)
                .iter()
                .filter(|p| placed.contains(p))
                .count();
            let succs_in = g
                .successors(n)
                .iter()
                .filter(|s| placed.contains(s))
                .count();
            assert!(
                preds_in == 0 || succs_in == 0,
                "node {n} has both predecessors and successors already ordered"
            );
            placed.insert(n);
        }
    }

    #[test]
    fn every_ordered_node_has_a_reference_neighbour() {
        // Except for the very first node of each component, every node must
        // have at least one already-ordered neighbour (its "reference
        // operation") in a weakly connected graph.
        let (g, _) = figure7();
        let p = pre_order(&LoopAnalysis::analyze(&g));
        let mut placed: HashSet<NodeId> = HashSet::new();
        for (i, &n) in p.order.iter().enumerate() {
            if i > 0 {
                let has_ref = g
                    .predecessors(n)
                    .iter()
                    .chain(g.successors(n).iter())
                    .any(|x| placed.contains(x));
                assert!(has_ref, "node {n} was ordered without any reference");
            }
            placed.insert(n);
        }
    }

    #[test]
    fn recurrence_nodes_come_first() {
        // A graph with a recurrence {X, Y} and a long acyclic tail: the
        // recurrence must be ordered before the tail regardless of program
        // order.
        let mut b = DdgBuilder::new("rec_first");
        let t0 = b.node("t0", OpKind::FpAdd, 1);
        let t1 = b.node("t1", OpKind::FpAdd, 1);
        let x = b.node("x", OpKind::FpAdd, 1);
        let y = b.node("y", OpKind::FpAdd, 1);
        b.edge(t0, t1, DepKind::RegFlow, 0).unwrap();
        b.edge(t1, x, DepKind::RegFlow, 0).unwrap();
        b.edge(x, y, DepKind::RegFlow, 0).unwrap();
        b.edge(y, x, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let p = pre_order(&LoopAnalysis::analyze(&g));
        assert_eq!(p.recurrence_subgraphs, 1);
        let pos = |n: NodeId| p.order.iter().position(|&m| m == n).unwrap();
        assert!(pos(x) < pos(t0));
        assert!(pos(y) < pos(t0));
    }

    #[test]
    fn most_restrictive_recurrence_is_ordered_first() {
        // Two recurrences: {a, b} with RecMII 2 and {c, d} with RecMII 10,
        // connected through a path. The slower one must be ordered first.
        let mut bld = DdgBuilder::new("two_rec");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        let mid = bld.node("mid", OpKind::FpAdd, 1);
        let c = bld.node("c", OpKind::FpDiv, 17);
        let d = bld.node("d", OpKind::FpAdd, 3);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 1).unwrap();
        bld.edge(b, mid, DepKind::RegFlow, 0).unwrap();
        bld.edge(mid, c, DepKind::RegFlow, 0).unwrap();
        bld.edge(c, d, DepKind::RegFlow, 0).unwrap();
        bld.edge(d, c, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let p = pre_order(&LoopAnalysis::analyze(&g));
        let pos = |n: NodeId| p.order.iter().position(|&m| m == n).unwrap();
        assert!(pos(c) < pos(a), "the RecMII-20 recurrence goes first");
        assert!(pos(d) < pos(b));
        assert_eq!(p.order.len(), 5);
        assert_eq!(p.recurrence_subgraphs, 2);
    }

    #[test]
    fn disconnected_recurrence_is_still_ordered() {
        // Two recurrences with no path between them at all.
        let mut bld = DdgBuilder::new("islands");
        let a = bld.node("a", OpKind::FpAdd, 4);
        let b = bld.node("b", OpKind::FpAdd, 4);
        let c = bld.node("c", OpKind::FpAdd, 1);
        let d = bld.node("d", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 1).unwrap();
        bld.edge(c, d, DepKind::RegFlow, 0).unwrap();
        bld.edge(d, c, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let p = pre_order(&LoopAnalysis::analyze(&g));
        assert_eq!(p.order.len(), 4);
        assert_eq!(p.components, 2);
    }

    #[test]
    fn multiple_components_are_all_ordered() {
        let mut b = DdgBuilder::new("comps");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpAdd, 1);
        let d = b.node("d", OpKind::FpAdd, 1);
        let e = b.node("e", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(d, e, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let p = pre_order(&LoopAnalysis::analyze(&g));
        assert_eq!(p.order.len(), 4);
        assert_eq!(p.components, 2);
    }

    #[test]
    fn component_with_recurrence_has_priority() {
        // Component 1 is acyclic (and first in program order), component 2
        // has a recurrence: the recurrence component must be ordered first.
        let mut b = DdgBuilder::new("prio");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpAdd, 1);
        let x = b.node("x", OpKind::FpAdd, 1);
        let y = b.node("y", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(x, y, DepKind::RegFlow, 0).unwrap();
        b.edge(y, x, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let p = pre_order(&LoopAnalysis::analyze(&g));
        let pos = |n: NodeId| p.order.iter().position(|&m| m == n).unwrap();
        assert!(pos(x) < pos(a));
        assert!(pos(y) < pos(a));
    }

    #[test]
    fn self_loops_do_not_disturb_the_ordering() {
        let (g, _) = figure1();
        // Re-build figure 1 with an accumulator-style self-loop on G.
        let mut b = DdgBuilder::new("fig1_self");
        let ids: Vec<NodeId> = (0..g.num_nodes())
            .map(|i| {
                let n = g.node(NodeId::from_index(i));
                b.node(n.name(), n.kind(), n.latency())
            })
            .collect();
        for (_, e) in g.edges() {
            b.edge(e.source(), e.target(), e.kind(), e.distance())
                .unwrap();
        }
        b.edge(ids[6], ids[6], DepKind::RegFlow, 1).unwrap();
        let g2 = b.build().unwrap();
        let p = pre_order(&LoopAnalysis::analyze(&g2));
        let names: Vec<String> = p
            .order
            .iter()
            .map(|&n| g2.node(n).name().to_string())
            .collect();
        assert_eq!(names, vec!["A", "B", "C", "D", "F", "E", "G"]);
    }

    #[test]
    fn start_node_policy_changes_the_first_node() {
        let (g, ids) = figure1();
        let p = pre_order_with(
            &LoopAnalysis::analyze(&g),
            &PreOrderOptions {
                start_node: StartHint::Node(ids[4]),
            },
        );
        assert_eq!(
            p.order[0], ids[4],
            "E was requested as the initial hypernode"
        );
        assert_eq!(p.order.len(), 7);

        let p = pre_order_with(
            &LoopAnalysis::analyze(&g),
            &PreOrderOptions {
                start_node: StartHint::Last,
            },
        );
        assert_eq!(p.order[0], ids[6]);
        assert_eq!(p.order.len(), 7);
    }

    #[test]
    fn fallback_prefers_nodes_with_an_ordered_reference() {
        // Component layout: recurrence {r0, r1} bridged to a second
        // recurrence {s0, s1} only through a loop-carried (dropped) edge,
        // plus a node `far` attached to s1. After ordering {r0, r1} the
        // remainder {s0, s1, far} is disconnected in the work graph; the
        // fallback must pick s0/s1 (adjacent in the undropped graph to the
        // ordered prefix through the dropped bridge... none) — here no
        // remaining node touches the ordered set, so the lowest-numbered one
        // is taken; once s0 is in, `far` and s1 follow with references.
        let mut b = DdgBuilder::new("fallback");
        let r0 = b.node("r0", OpKind::FpAdd, 1);
        let r1 = b.node("r1", OpKind::FpAdd, 1);
        let s0 = b.node("s0", OpKind::FpAdd, 1);
        let s1 = b.node("s1", OpKind::FpAdd, 1);
        let far = b.node("far", OpKind::FpAdd, 1);
        b.edge(r0, r1, DepKind::RegFlow, 0).unwrap();
        b.edge(r1, r0, DepKind::RegFlow, 1).unwrap();
        b.edge(s0, s1, DepKind::RegFlow, 0).unwrap();
        b.edge(s1, s0, DepKind::RegFlow, 1).unwrap();
        b.edge(s1, far, DepKind::RegFlow, 0).unwrap();
        // Bridge the recurrences with a loop-carried edge that joins the two
        // SCCs into one weak component but is *not* a backward edge (it
        // leaves its SCC), so it stays in the work graph. To force the
        // disconnected-remainder case the bridge must be within one SCC:
        // close it back so {r0, r1, s0, s1} become a single SCC chain is too
        // strong; instead bridge through a dropped edge by making it part of
        // a circuit: r1 -> s0 (distance 1) and s1 -> r0 (distance 1) form a
        // big circuit, so both are backward edges and get dropped.
        b.edge(r1, s0, DepKind::RegFlow, 1).unwrap();
        b.edge(s1, r0, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let p = pre_order(&LoopAnalysis::analyze(&g));
        assert_eq!(p.components, 1);
        // Every node ordered exactly once.
        let mut sorted = p.order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), g.num_nodes());
        // With the reference-aware fallback, every node after the first has
        // an already-ordered neighbour in the full graph.
        let mut placed: HashSet<NodeId> = HashSet::new();
        for (i, &n) in p.order.iter().enumerate() {
            if i > 0 {
                let has_ref = g
                    .predecessors(n)
                    .iter()
                    .chain(g.successors(n).iter())
                    .any(|x| placed.contains(x));
                assert!(has_ref, "node {n} was ordered without any reference");
            }
            placed.insert(n);
        }
    }
}
