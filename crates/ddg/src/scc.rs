//! Strongly connected components (Tarjan's algorithm, iterative).

use crate::graph::Ddg;
use crate::node::NodeId;

/// Computes the strongly connected components of the graph considering every
/// dependence edge (whatever its kind or distance).
///
/// Components are returned in *reverse topological order of the condensation*
/// (i.e. a component only depends on components that appear **earlier** in
/// the returned vector is *not* guaranteed; callers that need an order should
/// sort explicitly). Node lists inside each component are sorted by id.
///
/// The implementation is an iterative Tarjan so that very deep graphs (long
/// dependence chains generated by the synthetic workload) cannot overflow the
/// stack.
pub fn strongly_connected_components(ddg: &Ddg) -> Vec<Vec<NodeId>> {
    crate::instrument::record_tarjan_run();
    let n = ddg.num_nodes();
    const UNVISITED: usize = usize::MAX;

    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<NodeId>> = Vec::new();

    // Explicit DFS state: the node and the position of the next edge to
    // follow in its out-edge list. Tarjan is insensitive to duplicate
    // targets (revisiting an indexed node only re-runs a lowlink min), so
    // the raw edge list serves as the successor list.
    struct Frame {
        v: usize,
        next_edge: usize,
    }
    let mut call_stack: Vec<Frame> = Vec::new();

    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        call_stack.push(Frame {
            v: start,
            next_edge: 0,
        });

        while let Some(frame) = call_stack.last_mut() {
            let v = frame.v;
            let out = ddg.out_edge_ids(NodeId::from_index(v));
            if let Some(&eid) = out.get(frame.next_edge) {
                frame.next_edge += 1;
                let w = ddg.edge(eid).target().index();
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push(Frame { v: w, next_edge: 0 });
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                // finished v
                if lowlink[v] == index[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        component.push(NodeId::from_index(w));
                        if w == v {
                            break;
                        }
                    }
                    component.sort();
                    components.push(component);
                }
                let finished = call_stack.pop().expect("dfs stack underflow");
                if let Some(parent) = call_stack.last() {
                    let p = parent.v;
                    lowlink[p] = lowlink[p].min(lowlink[finished.v]);
                }
            }
        }
    }

    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdgBuilder, DepKind, OpKind};

    #[test]
    fn acyclic_graph_has_singleton_components() {
        let g = crate::graph::chain("c", 4, OpKind::FpAdd, 1);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 4);
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn two_node_cycle_is_one_component() {
        let mut b = DdgBuilder::new("cyc");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpMul, 2);
        let d = b.node("d", OpKind::Store, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 1).unwrap();
        b.edge(c, d, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 2);
        let big = sccs.iter().find(|c| c.len() == 2).unwrap();
        assert_eq!(*big, vec![a, c]);
    }

    #[test]
    fn self_loop_stays_a_singleton_component() {
        let mut b = DdgBuilder::new("self");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpMul, 2);
        b.edge(a, a, DepKind::RegFlow, 1).unwrap();
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(strongly_connected_components(&g).len(), 2);
    }

    #[test]
    fn nested_cycles_collapse_into_one_component() {
        // a -> b -> c -> a and b -> d -> b
        let mut bld = DdgBuilder::new("nested");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        let c = bld.node("c", OpKind::FpAdd, 1);
        let d = bld.node("d", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, c, DepKind::RegFlow, 0).unwrap();
        bld.edge(c, a, DepKind::RegFlow, 1).unwrap();
        bld.edge(b, d, DepKind::RegFlow, 0).unwrap();
        bld.edge(d, b, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let comps = strongly_connected_components(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], vec![a, b, c, d]);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 10_000-node chain; a recursive Tarjan would risk overflow here.
        let g = crate::graph::chain("deep", 10_000, OpKind::IntAlu, 1);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 10_000);
    }

    #[test]
    fn disconnected_components_are_all_found() {
        let mut b = DdgBuilder::new("disc");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpAdd, 1);
        let d = b.node("d", OpKind::FpAdd, 1);
        b.edge(c, d, DepKind::RegFlow, 0).unwrap();
        b.edge(d, c, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 2);
        assert!(sccs.contains(&vec![a]));
        assert!(sccs.contains(&vec![c, d]));
    }
}
