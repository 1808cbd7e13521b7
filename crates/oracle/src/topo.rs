//! Topological orders over any [`GraphView`]: the paper's `Sort_ASAP`
//! and `Sort_PALA` with `HashMap` bookkeeping. The pre-ordering runs the
//! dense ports, [`hrms_ddg::dense::sort_asap`] and
//! [`hrms_ddg::dense::sort_pala`]; these generic sorts are their reference
//! in the equivalence tests.

use std::collections::{HashMap, HashSet};

use hrms_ddg::{CycleError, NodeId};

use crate::graph::GraphView;

/// Direction of a traversal or sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From sources (no predecessors) towards sinks.
    Forward,
    /// From sinks (no successors) towards sources.
    Backward,
}

/// Topologically sorts the nodes of `subset` (only edges with both endpoints
/// in `subset` are considered) **sources first**, breaking ties by node id
/// (program order). This is the paper's `Sort_ASAP`.
///
/// # Errors
///
/// Returns [`CycleError`] if the induced subgraph is cyclic.
pub fn sort_asap<G: GraphView>(graph: &G, subset: &[NodeId]) -> Result<Vec<NodeId>, CycleError> {
    kahn(graph, subset, Direction::Forward)
}

/// The paper's `Sort_PALA`: "like an ALAP algorithm, but the list of ordered
/// nodes is inverted". Concretely this produces a **sinks-first** order of
/// the induced subgraph, breaking ties by node id.
///
/// Predecessor sets of the hypernode are ordered with this sort so that the
/// node closest to the hypernode is scheduled first (as late as possible) and
/// every following node already has a successor in the partial schedule.
///
/// # Errors
///
/// Returns [`CycleError`] if the induced subgraph is cyclic.
pub fn sort_pala<G: GraphView>(graph: &G, subset: &[NodeId]) -> Result<Vec<NodeId>, CycleError> {
    kahn(graph, subset, Direction::Backward)
}

fn kahn<G: GraphView>(
    graph: &G,
    subset: &[NodeId],
    dir: Direction,
) -> Result<Vec<NodeId>, CycleError> {
    let members: HashSet<NodeId> = subset.iter().copied().collect();
    // in-degree restricted to the subset, in the traversal direction.
    let mut degree: HashMap<NodeId, usize> = HashMap::new();
    for &v in &members {
        let incoming = match dir {
            Direction::Forward => graph.predecessors_of(v),
            Direction::Backward => graph.successors_of(v),
        };
        let d = incoming
            .into_iter()
            .filter(|p| members.contains(p) && *p != v)
            .count();
        degree.insert(v, d);
    }

    // Ready list kept sorted by node id for determinism; a BinaryHeap with
    // Reverse would also work but the subsets here are small.
    let mut ready: Vec<NodeId> = degree
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&v, _)| v)
        .collect();
    ready.sort();

    let mut order = Vec::with_capacity(members.len());
    while !ready.is_empty() {
        let v = ready.remove(0);
        order.push(v);
        let outgoing = match dir {
            Direction::Forward => graph.successors_of(v),
            Direction::Backward => graph.predecessors_of(v),
        };
        let mut newly_ready = Vec::new();
        let mut seen = HashSet::new();
        for w in outgoing {
            if w == v || !members.contains(&w) || !seen.insert(w) {
                continue;
            }
            let d = degree.get_mut(&w).expect("member has a degree entry");
            *d -= 1;
            if *d == 0 {
                newly_ready.push(w);
            }
        }
        newly_ready.sort();
        // merge keeping overall id order among currently-ready nodes
        ready.extend(newly_ready);
        ready.sort();
    }

    if order.len() != members.len() {
        let stuck: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|v| !order.contains(v))
            .collect();
        return Err(CycleError { stuck });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{Ddg, DdgBuilder, DepKind, OpKind};

    fn path_graph() -> (Ddg, Vec<NodeId>) {
        // B -> E -> I, plus isolated X
        let mut bld = DdgBuilder::new("t");
        let b = bld.node("B", OpKind::FpAdd, 1);
        let e = bld.node("E", OpKind::FpAdd, 2);
        let i = bld.node("I", OpKind::FpAdd, 3);
        let x = bld.node("X", OpKind::FpAdd, 1);
        bld.edge(b, e, DepKind::RegFlow, 0).unwrap();
        bld.edge(e, i, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        (g, vec![b, e, i, x])
    }

    #[test]
    fn asap_orders_sources_first() {
        let (g, ids) = path_graph();
        let order = sort_asap(&g, &[ids[0], ids[1], ids[2]]).unwrap();
        assert_eq!(order, vec![ids[0], ids[1], ids[2]]);
    }

    #[test]
    fn pala_orders_sinks_first() {
        let (g, ids) = path_graph();
        // This reproduces step 6 of the paper's Figure 7 walk-through: the
        // predecessors {B, I} plus the connecting node E are ordered
        // {I, E, B}.
        let order = sort_pala(&g, &[ids[0], ids[1], ids[2]]).unwrap();
        assert_eq!(order, vec![ids[2], ids[1], ids[0]]);
    }

    #[test]
    fn ties_break_by_node_id() {
        let (g, ids) = path_graph();
        // B and X are both sources with no relation: program order decides.
        let order = sort_asap(&g, &[ids[3], ids[0]]).unwrap();
        assert_eq!(order, vec![ids[0], ids[3]]);
    }

    #[test]
    fn sort_detects_cycles() {
        let mut bld = DdgBuilder::new("cyc");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        let err = sort_asap(&g, &[a, b]).unwrap_err();
        assert_eq!(err.stuck.len(), 2);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn edges_leaving_the_subset_are_ignored() {
        let (g, ids) = path_graph();
        // Only E and I: B -> E leaves the subset and must not matter.
        let order = sort_asap(&g, &[ids[1], ids[2]]).unwrap();
        assert_eq!(order, vec![ids[1], ids[2]]);
    }

    #[test]
    fn self_loops_do_not_block_sorting() {
        let mut bld = DdgBuilder::new("self");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        bld.edge(a, a, DepKind::RegFlow, 1).unwrap();
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        let order = sort_asap(&g, &[a, b]).unwrap();
        assert_eq!(order, vec![a, b]);
    }
}
