//! Whole-graph Bellman-Ford references for the recurrence bound and the
//! start times.
//!
//! `hrms-ddg` reads a loop's exact `RecMII` off its per-SCC cycle-ratio
//! pass ([`hrms_ddg::CycleRatios::rec_mii`]) and solves start times with
//! [`hrms_ddg::analysis::longest_paths`] and the incremental
//! [`hrms_ddg::IncrementalStarts`]. The functions here compute the same
//! facts the slow, obvious way, over the whole graph's flat dependence
//! edges ([`hrms_ddg::analysis::collect_dep_edges`]):
//!
//! * [`exact_rec_mii`] bisects the initiation interval over `[0, Σλ]` with
//!   a positive-cycle probe at each step;
//! * [`latest_starts_from`] is the backward counterpart of `longest_paths`.

use hrms_ddg::analysis::DepEdge;

/// Latest start times relative to `horizon` at a given II — the backward
/// counterpart of [`hrms_ddg::analysis::longest_paths`]. Returns `None`
/// when infeasible. `O(|V|·|E|)` worst case.
pub fn latest_starts_from(n: usize, edges: &[DepEdge], ii: u32, horizon: i64) -> Option<Vec<i64>> {
    let ii = i64::from(ii);
    let mut dist = vec![horizon; n];
    for round in 0..=n {
        let mut changed = false;
        for e in edges {
            let w = e.weight(ii);
            let (u, v) = (e.source as usize, e.target as usize);
            if dist[v] - w < dist[u] {
                dist[u] = dist[v] - w;
                changed = true;
            }
        }
        if !changed {
            return Some(dist);
        }
        if round == n {
            return None;
        }
    }
    Some(dist)
}

/// Whether the constraint graph with edge weights `latency − δ·II` contains
/// a positive-weight cycle (which makes the given II infeasible).
/// `O(|V|·|E|)` worst case with early exit.
fn has_positive_cycle(n: usize, edges: &[DepEdge], ii: i64) -> bool {
    if n == 0 {
        return false;
    }
    // Longest-path Bellman-Ford from a virtual source connected to every
    // node with weight 0. dist[] can only increase; if it still increases
    // after n iterations there is a positive cycle.
    let mut dist = vec![0i64; n];
    for round in 0..n {
        let mut changed = false;
        for e in edges {
            let w = e.weight(ii);
            let (u, v) = (e.source as usize, e.target as usize);
            if dist[u] + w > dist[v] {
                dist[v] = dist[u] + w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n - 1 && changed {
            return true;
        }
    }
    false
}

/// The exact recurrence-constrained minimum initiation interval: the
/// smallest II for which the dependence constraints admit a solution, found
/// by binary search on II with a Bellman-Ford positive-cycle check — exact
/// without enumerating elementary circuits. `O(|V|·|E|·log Λ)` where `Λ` is
/// the total latency.
///
/// Returns `Some(0)` for acyclic graphs and `None` when a zero-distance
/// cycle exists (infeasible at every II).
pub fn exact_rec_mii(n: usize, edges: &[DepEdge]) -> Option<u32> {
    // Upper bound: the sum of all dependence latencies is always feasible
    // (every circuit has distance >= 1 once zero-distance cycles are ruled
    // out, and its latency sum is <= this bound).
    let upper: u64 = edges
        .iter()
        .map(|e| u64::from(e.latency))
        .sum::<u64>()
        .max(1);

    if has_positive_cycle(n, edges, upper as i64) {
        // Weight stays positive for arbitrarily large II only when the cycle
        // distance is 0.
        return None;
    }
    let mut lo = 0u64; // known-infeasible (or "no constraint" level)
    let mut hi = upper; // known-feasible
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(n, edges, mid as i64) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // hi is the smallest feasible II; if even II = 0 is feasible no cycle
    // imposes anything: the graph is acyclic and there is no recurrence
    // constraint.
    if hi == 1 && !has_positive_cycle(n, edges, 0) {
        return Some(0);
    }
    Some(hi as u32)
}

#[cfg(test)]
mod tests {
    //! The `hrms-ddg` unit tests that compare its recurrence bound and
    //! start times with these references.

    use super::*;
    use hrms_ddg::analysis::longest_paths;
    use hrms_ddg::{
        CycleRatios, Ddg, DdgBuilder, DepKind, IncrementalStarts, LoopAnalysis, NodeId, OpKind,
        RecurrenceGroupKind,
    };

    /// The node-latency-metric exact RecMII of the whole graph, computed
    /// independently via the Bellman-Ford binary search.
    fn oracle_rec_mii(ddg: &Ddg) -> u64 {
        let edges: Vec<DepEdge> = ddg
            .edges()
            .map(|(_, e)| DepEdge {
                source: e.source().0,
                target: e.target().0,
                latency: ddg.node(e.source()).latency(),
                distance: e.distance(),
            })
            .collect();
        exact_rec_mii(ddg.num_nodes(), &edges).map_or(u64::MAX, u64::from)
    }

    /// load -> mul -> acc(+) with an accumulator self-dependence, plus an
    /// anti edge; exercises latencies, self-loops and a recurrence.
    fn accumulator_loop() -> Ddg {
        let mut b = DdgBuilder::new("acc");
        let ld = b.node("ld", OpKind::Load, 2);
        let mul = b.node("mul", OpKind::FpMul, 2);
        let acc = b.node("acc", OpKind::FpAdd, 1);
        b.edge(ld, mul, DepKind::RegFlow, 0).unwrap();
        b.edge(mul, acc, DepKind::RegFlow, 0).unwrap();
        b.edge(acc, acc, DepKind::RegFlow, 1).unwrap();
        b.edge(acc, ld, DepKind::RegAnti, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure8b_per_node_bounds_are_per_circuit_exact() {
        // Paper Figure 8b: circuits {A,D,E} (RecMII 3) and {A,B,C,E}
        // (RecMII 4) share the backward edge E -> A. D lies only on the
        // shorter circuit, so its bound is 3 while A, B, C, E carry 4.
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
        let r = CycleRatios::analyze(&g);
        assert_eq!(r.bound(a), 4);
        assert_eq!(r.bound(b), 4);
        assert_eq!(r.bound(c), 4);
        assert_eq!(r.bound(d), 3, "D is only on the 3-cycle");
        assert_eq!(r.bound(e), 4);
        assert_eq!(r.rec_mii_lower_bound(), oracle_rec_mii(&g));
    }

    #[test]
    fn figure8c_distinct_recurrences_rank_their_own_nodes() {
        let mut bld = DdgBuilder::new("fig8c");
        let a = bld.node("A", OpKind::FpAdd, 2);
        let b = bld.node("B", OpKind::FpAdd, 1);
        let c = bld.node("C", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 1).unwrap();
        bld.edge(b, c, DepKind::RegFlow, 0).unwrap();
        bld.edge(c, b, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let r = CycleRatios::analyze(&g);
        assert_eq!(r.bound(a), 3);
        assert_eq!(r.bound(b), 3, "B is on both circuits; 3 binds");
        assert_eq!(r.bound(c), 2, "C is only on the B-C circuit");
        assert_eq!(r.rec_mii_lower_bound(), oracle_rec_mii(&g));
    }

    #[test]
    fn interleaved_pair_is_ranked_exactly() {
        // a → b ⇢ m → c → d ⇢ a: one circuit threading both backward
        // edges; every node carries its exact bound ceil(5/2) = 3 and the
        // pair group reproduces the enumeration's subgraph.
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
        let r = CycleRatios::analyze(&g);
        for node in [a, b, m, c, d] {
            assert_eq!(r.bound(node), 3);
        }
        let pairs: Vec<_> = r
            .scc_groups()
            .iter()
            .filter(|gr| gr.kind == RecurrenceGroupKind::Interleaved)
            .collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].nodes, vec![a, b, m, c, d]);
        assert_eq!(pairs[0].rec_mii, 3);
        assert_eq!(pairs[0].backward_edges.len(), 2);
        assert_eq!(r.rec_mii_lower_bound(), oracle_rec_mii(&g));
    }

    #[test]
    fn three_edge_critical_cycle_is_recovered_by_extraction() {
        // Three two-node recurrences chained into one big circuit that
        // threads all three backward edges and dominates every pair: the
        // per-node maximum must still equal the exact component RecMII.
        let mut bld = DdgBuilder::new("deep");
        let ids: Vec<NodeId> = (0..6)
            .map(|i| bld.node(format!("n{i}"), OpKind::FpAdd, 4))
            .collect();
        // DAG arcs: 0→1, 2→3, 4→5.
        bld.edge(ids[0], ids[1], DepKind::RegFlow, 0).unwrap();
        bld.edge(ids[2], ids[3], DepKind::RegFlow, 0).unwrap();
        bld.edge(ids[4], ids[5], DepKind::RegFlow, 0).unwrap();
        // Backward bridges 1⇢2, 3⇢4, 5⇢0 close only the 6-node circuit.
        bld.edge(ids[1], ids[2], DepKind::RegFlow, 1).unwrap();
        bld.edge(ids[3], ids[4], DepKind::RegFlow, 1).unwrap();
        bld.edge(ids[5], ids[0], DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let r = CycleRatios::analyze(&g);
        // The only circuit: 24 latency over distance 3 → RecMII 8.
        assert_eq!(oracle_rec_mii(&g), 8);
        assert_eq!(r.rec_mii_lower_bound(), 8);
        for &node in &ids {
            assert_eq!(r.bound(node), 8, "every node is on the circuit");
        }
    }

    #[test]
    fn covered_nodes_on_a_deep_critical_cycle_are_lifted_by_extraction() {
        // Same six-node three-backward-edge circuit, but every node is
        // also covered by a cheap single-edge circuit (distance 3, RecMII
        // 3). The critical circuit threads three backward edges — invisible
        // to the single- and pair-edge passes — so only the positive-cycle
        // extraction at λ = m − 1 can restore the component maximum of 8.
        let mut bld = DdgBuilder::new("deep_covered");
        let ids: Vec<NodeId> = (0..6)
            .map(|i| bld.node(format!("n{i}"), OpKind::FpAdd, 4))
            .collect();
        bld.edge(ids[0], ids[1], DepKind::RegFlow, 0).unwrap();
        bld.edge(ids[2], ids[3], DepKind::RegFlow, 0).unwrap();
        bld.edge(ids[4], ids[5], DepKind::RegFlow, 0).unwrap();
        bld.edge(ids[1], ids[2], DepKind::RegFlow, 1).unwrap();
        bld.edge(ids[3], ids[4], DepKind::RegFlow, 1).unwrap();
        bld.edge(ids[5], ids[0], DepKind::RegFlow, 1).unwrap();
        // Cheap covers: 1⇢0, 3⇢2, 5⇢4 at distance 3 (RecMII ceil(8/3) = 3).
        bld.edge(ids[1], ids[0], DepKind::RegFlow, 3).unwrap();
        bld.edge(ids[3], ids[2], DepKind::RegFlow, 3).unwrap();
        bld.edge(ids[5], ids[4], DepKind::RegFlow, 3).unwrap();
        let g = bld.build().unwrap();
        assert_eq!(oracle_rec_mii(&g), 8);
        let r = CycleRatios::analyze(&g);
        assert_eq!(r.rec_mii_lower_bound(), 8, "extraction restores the max");
        for &node in &ids {
            assert_eq!(r.bound(node), 8, "every node is on the 24/3 circuit");
        }
    }

    #[test]
    fn dense_scc_bounds_without_any_budget() {
        // Complete digraph on 10 nodes, every edge loop-carried: ~1.1M
        // elementary circuits, all of ratio 1.
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
        let r = CycleRatios::analyze(&g);
        for &node in &ids {
            assert_eq!(r.bound(node), 1);
        }
        assert_eq!(r.rec_mii_lower_bound(), oracle_rec_mii(&g));
    }

    #[test]
    fn incremental_starts_match_from_scratch_passes() {
        let g = accumulator_loop();
        let la = LoopAnalysis::analyze(&g);
        let n = g.num_nodes();
        let edges = la.dep_edges();
        let rec_mii = u32::try_from(la.rec_mii().unwrap()).unwrap();

        // Below the RecMII both constructions agree on infeasibility.
        assert!(longest_paths(n, edges, u64::from(rec_mii - 1)).is_none());
        assert!(IncrementalStarts::new(n, edges, rec_mii - 1).is_none());

        let mut inc = IncrementalStarts::new(n, edges, rec_mii).unwrap();
        for ii in rec_mii..rec_mii + 6 {
            assert!(inc.advance(edges, ii), "feasible above RecMII");
            assert_eq!(inc.ii(), ii);
            assert_eq!(
                inc.earliest(),
                longest_paths(n, edges, u64::from(ii)).unwrap()
            );
            let horizon = inc.earliest().iter().copied().max().unwrap() + 7;
            assert_eq!(
                inc.latest(horizon),
                latest_starts_from(n, edges, ii, horizon).unwrap()
            );
        }
        // Retreating below the current II recomputes from scratch.
        assert!(inc.advance(edges, rec_mii));
        assert_eq!(
            inc.earliest(),
            longest_paths(n, edges, u64::from(rec_mii)).unwrap()
        );

        // A failed advance must not poison later probes: re-asking the
        // same infeasible II keeps reporting infeasible (not stale
        // "solved" values), and recovering to a feasible II still lands
        // on the exact fixpoint.
        assert!(!inc.advance(edges, rec_mii - 1));
        assert!(
            !inc.advance(edges, rec_mii - 1),
            "repeat probe must fail too"
        );
        assert!(inc.advance(edges, rec_mii + 2));
        assert_eq!(
            inc.earliest(),
            longest_paths(n, edges, u64::from(rec_mii + 2)).unwrap()
        );
    }
}
