//! Latency-weighted levels ([`TopoLevels`]) and [`CycleError`], the error
//! of the topological sorts in [`crate::dense`].

use std::error::Error;
use std::fmt;

use crate::graph::Ddg;
use crate::node::NodeId;

/// Error returned when a routine that requires an acyclic (sub)graph finds a
/// cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    /// Nodes that could not be ordered because they sit on a cycle.
    pub stuck: Vec<NodeId>,
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subgraph contains a cycle through {} node(s)",
            self.stuck.len()
        )
    }
}

impl Error for CycleError {}

/// Latency-weighted levels of an acyclic view of the graph.
///
/// `depth(v)` is the length (sum of latencies of *producers*) of the longest
/// path from any source to `v`, i.e. the earliest cycle at which `v` could
/// start on a machine with unlimited resources and no loop-carried
/// dependences. `height(v)` is the symmetric longest path from `v` to any
/// sink, *including* `v`'s own latency. Loop-carried edges (distance > 0) are
/// ignored, which makes the computation well-defined even for graphs with
/// recurrences (every recurrence circuit contains at least one loop-carried
/// edge).
///
/// These levels drive the priority functions of the Top-Down / Bottom-Up /
/// Slack baseline schedulers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoLevels {
    depth: Vec<u64>,
    height: Vec<u64>,
}

impl TopoLevels {
    /// Computes depth and height for every node of `ddg`.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the graph restricted to intra-iteration
    /// (distance 0) edges contains a cycle — such a loop body is not a valid
    /// single-iteration program.
    pub fn compute(ddg: &Ddg) -> Result<Self, CycleError> {
        let n = ddg.num_nodes();
        // Order nodes topologically over distance-0 edges.
        let order = zero_distance_topo(ddg)?;
        let mut depth = vec![0u64; n];
        let mut height = vec![0u64; n];
        for &v in &order {
            for (_, e) in ddg.in_edges(v) {
                if e.distance() == 0 {
                    let u = e.source();
                    let cand = depth[u.index()] + u64::from(ddg.node(u).latency());
                    depth[v.index()] = depth[v.index()].max(cand);
                }
            }
        }
        for &v in order.iter().rev() {
            height[v.index()] = u64::from(ddg.node(v).latency());
            for (_, e) in ddg.out_edges(v) {
                if e.distance() == 0 {
                    let w = e.target();
                    let cand = height[w.index()] + u64::from(ddg.node(v).latency());
                    height[v.index()] = height[v.index()].max(cand);
                }
            }
        }
        Ok(TopoLevels { depth, height })
    }

    /// Earliest possible start cycle of `v` ignoring resources and
    /// loop-carried dependences.
    #[inline]
    pub fn depth(&self, v: NodeId) -> u64 {
        self.depth[v.index()]
    }

    /// Longest latency-weighted path from `v` (inclusive) to any sink.
    #[inline]
    pub fn height(&self, v: NodeId) -> u64 {
        self.height[v.index()]
    }
}

/// Topological order over distance-0 edges only.
fn zero_distance_topo(ddg: &Ddg) -> Result<Vec<NodeId>, CycleError> {
    let n = ddg.num_nodes();
    let mut indeg = vec![0usize; n];
    for (_, e) in ddg.edges() {
        if e.distance() == 0 && !e.is_self_loop() {
            indeg[e.target().index()] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    ready.sort();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = ready.first().copied() {
        ready.remove(0);
        order.push(NodeId::from_index(v));
        let mut newly = Vec::new();
        for (_, e) in ddg.out_edges(NodeId::from_index(v)) {
            if e.distance() == 0 && !e.is_self_loop() {
                let t = e.target().index();
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    newly.push(t);
                }
            }
        }
        ready.extend(newly);
        ready.sort();
    }
    if order.len() != n {
        let stuck = (0..n)
            .map(NodeId::from_index)
            .filter(|v| !order.contains(v))
            .collect();
        return Err(CycleError { stuck });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdgBuilder, DepKind, OpKind};

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
    fn levels_follow_latencies() {
        let (g, ids) = path_graph();
        let levels = TopoLevels::compute(&g).unwrap();
        assert_eq!(levels.depth(ids[0]), 0);
        assert_eq!(levels.depth(ids[1]), 1);
        assert_eq!(levels.depth(ids[2]), 3);
        assert_eq!(levels.height(ids[2]), 3);
        assert_eq!(levels.height(ids[1]), 5);
        assert_eq!(levels.height(ids[0]), 6);
    }

    #[test]
    fn levels_ignore_loop_carried_edges() {
        let mut bld = DdgBuilder::new("rec");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 1).unwrap(); // recurrence, ignored
        let g = bld.build().unwrap();
        let levels = TopoLevels::compute(&g).unwrap();
        assert_eq!(levels.depth(a), 0);
        assert_eq!(levels.depth(b), 1);
    }

    #[test]
    fn levels_reject_zero_distance_cycles() {
        let mut bld = DdgBuilder::new("bad");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        assert!(TopoLevels::compute(&g).is_err());
    }

    #[test]
    fn diamond_depth_takes_longest_branch() {
        let mut bld = DdgBuilder::new("diamond");
        let a = bld.node("a", OpKind::Load, 2);
        let b = bld.node("b", OpKind::FpDiv, 17);
        let c = bld.node("c", OpKind::FpAdd, 1);
        let d = bld.node("d", OpKind::Store, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(a, c, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, d, DepKind::RegFlow, 0).unwrap();
        bld.edge(c, d, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        let levels = TopoLevels::compute(&g).unwrap();
        assert_eq!(levels.depth(d), 19);
    }
}
