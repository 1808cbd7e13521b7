//! Shared machinery of the baseline schedulers: priority orders and
//! directional (top-down / bottom-up) placement. The II-escalation driver
//! they run through is [`hrms_modsched::escalate_ii`].

use std::cmp::Reverse;

use hrms_ddg::{LoopAnalysis, NodeId};
use hrms_machine::Machine;
use hrms_modsched::{PartialSchedule, Perturbation, Schedule};

/// Direction of a one-pass list scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Schedule sources first, each as soon as possible (Top-Down).
    TopDown,
    /// Schedule sinks first, each as late as possible (Bottom-Up).
    BottomUp,
}

/// The node order used by the Top-Down scheduler: by increasing depth (the
/// latency-weighted longest path from any source), breaking ties by larger
/// height (more critical first) and finally program order. All a node's
/// intra-iteration predecessors precede it in this order.
///
/// The levels are the loop's cached [`LoopAnalysis::topo_levels`], so the
/// Top-Down and Bottom-Up cells of one loop compute them once. An invalid
/// (zero-distance-cyclic) graph has no levels and keeps program order.
/// That order is never used: [`hrms_modsched::escalate_ii`] rejects such a
/// loop at the MII, before any attempt.
pub fn topdown_order(la: &LoopAnalysis<'_>) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = la.ddg().node_ids().collect();
    if let Some(levels) = la.topo_levels() {
        order.sort_by_key(|&n| (levels.depth(n), Reverse(levels.height(n)), n.index()));
    }
    order
}

/// The node order used by the Bottom-Up scheduler: by increasing height (the
/// latency-weighted longest path to any sink), i.e. sinks first, breaking
/// ties by larger depth and finally program order. All a node's
/// intra-iteration successors precede it in this order. Invalid graphs keep
/// program order, as in [`topdown_order`].
pub fn bottomup_order(la: &LoopAnalysis<'_>) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = la.ddg().node_ids().collect();
    if let Some(levels) = la.topo_levels() {
        order.sort_by_key(|&n| (levels.height(n), Reverse(levels.depth(n)), n.index()));
    }
    order
}

/// The priority-perturbation hook of the directional baselines: re-ranks an
/// existing priority order under a feedback [`Perturbation`] by a *stable*
/// sort on decreasing boost. Boosted (critical) nodes move to the front of
/// the list order while every unboosted node keeps its relative position,
/// so the identity perturbation leaves the order untouched — the guarantee
/// `feedback`-wrapped baselines rely on for their attempt-0 baseline.
pub fn boost_order(order: &mut [NodeId], perturbation: &Perturbation) {
    order.sort_by_key(|&n| Reverse(perturbation.boost_of(n)));
}

/// One pass of directional list scheduling at a fixed II, over the loop's
/// shared analysis (the dense placement arcs drive every
/// `Early_Start`/`Late_Start`).
///
/// Top-Down places every node as soon as possible after its already-placed
/// predecessors (and never later than any already-placed successor allows);
/// Bottom-Up is the mirror image. Returns `None` when some node finds no
/// free slot, in which case the caller escalates the II.
pub fn schedule_directional_at_ii(
    la: &LoopAnalysis<'_>,
    machine: &Machine,
    order: &[NodeId],
    ii: u32,
    direction: Direction,
) -> Option<Schedule> {
    let ddg = la.ddg();
    let mut partial = PartialSchedule::with_placement(machine, ii, la.placement().clone());
    for &u in order {
        let early = partial.early_start(u);
        let late = partial.late_start(u);
        let placed = match direction {
            Direction::TopDown => {
                let from = early.unwrap_or(0);
                match late {
                    None => partial.place_forward(ddg, machine, u, from, ii),
                    Some(l) if l < from => None,
                    Some(l) => {
                        let window = (l - from + 1).min(i64::from(ii)) as u32;
                        partial.place_forward(ddg, machine, u, from, window)
                    }
                }
            }
            Direction::BottomUp => {
                let from = late.unwrap_or(0);
                match early {
                    None => partial.place_backward(ddg, machine, u, from, ii),
                    Some(e) if e > from => None,
                    Some(e) => {
                        let window = (from - e + 1).min(i64::from(ii)) as u32;
                        partial.place_backward(ddg, machine, u, from, window)
                    }
                }
            }
        };
        placed?;
    }
    Some(partial.into_schedule(ddg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{Ddg, DdgBuilder, DepKind, OpKind};
    use hrms_machine::presets;
    use hrms_modsched::validate_schedule;

    fn diamond() -> Ddg {
        let mut b = DdgBuilder::new("diamond");
        let a = b.node("a", OpKind::Load, 2);
        let x = b.node("x", OpKind::FpMul, 2);
        let y = b.node("y", OpKind::FpAdd, 1);
        let d = b.node("d", OpKind::Store, 1);
        b.edge(a, x, DepKind::RegFlow, 0).unwrap();
        b.edge(a, y, DepKind::RegFlow, 0).unwrap();
        b.edge(x, d, DepKind::RegFlow, 0).unwrap();
        b.edge(y, d, DepKind::RegFlow, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn topdown_order_puts_sources_first() {
        let g = diamond();
        let order = topdown_order(&LoopAnalysis::analyze(&g));
        assert_eq!(order[0], NodeId(0));
        assert_eq!(order[3], NodeId(3));
        // x is on the longer path (latency 2 vs 1) so it precedes y.
        assert_eq!(order[1], NodeId(1));
    }

    #[test]
    fn bottomup_order_puts_sinks_first() {
        let g = diamond();
        let order = bottomup_order(&LoopAnalysis::analyze(&g));
        assert_eq!(order[0], NodeId(3));
        assert_eq!(order[3], NodeId(0));
    }

    #[test]
    fn orders_cover_every_node_once() {
        let g = diamond();
        let la = LoopAnalysis::analyze(&g);
        for order in [topdown_order(&la), bottomup_order(&la)] {
            let mut o = order.clone();
            o.sort();
            o.dedup();
            assert_eq!(o.len(), g.num_nodes());
        }
    }

    #[test]
    fn identity_boosts_keep_the_order_and_boosts_move_nodes_first() {
        let mut order = vec![NodeId(3), NodeId(0), NodeId(2), NodeId(1)];
        boost_order(&mut order, &Perturbation::default());
        assert_eq!(order, [NodeId(3), NodeId(0), NodeId(2), NodeId(1)]);
        let boosted = Perturbation {
            boost: vec![0, 0, 5, 0],
            ..Perturbation::default()
        };
        boost_order(&mut order, &boosted);
        assert_eq!(order, [NodeId(2), NodeId(3), NodeId(0), NodeId(1)]);
    }

    #[test]
    fn directional_schedules_are_valid() {
        let g = diamond();
        let m = presets::govindarajan();
        let la = LoopAnalysis::analyze(&g);
        for (order, dir) in [
            (topdown_order(&la), Direction::TopDown),
            (bottomup_order(&la), Direction::BottomUp),
        ] {
            let s = schedule_directional_at_ii(&la, &m, &order, 2, dir).unwrap();
            validate_schedule(&g, &m, &s).unwrap();
        }
    }

    #[test]
    fn invalid_graphs_keep_program_order() {
        let mut b = DdgBuilder::new("bad");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpMul, 2);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let la = LoopAnalysis::analyze(&g);
        assert_eq!(topdown_order(&la), [a, c]);
        assert_eq!(bottomup_order(&la), [a, c]);
    }
}
