//! Shared machinery of the baseline schedulers: priority orders, the
//! II-escalation driver, and directional (top-down / bottom-up) placement.

use std::time::Instant;

use hrms_ddg::{Ddg, LoopAnalysis, NodeId, PerIiStarts, TopoLevels};
use hrms_machine::Machine;
use hrms_modsched::{
    MiiInfo, PartialSchedule, Perturbation, SchedError, Schedule, ScheduleOutcome, SchedulerConfig,
};

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
pub fn topdown_order(ddg: &Ddg) -> Vec<NodeId> {
    let levels = TopoLevels::compute(ddg).unwrap_or_else(|_| {
        // Invalid (zero-distance-cyclic) graphs are rejected later by the
        // MII computation; fall back to program order so ordering never
        // fails.
        TopoLevels::compute(&trivial_copy(ddg)).expect("trivial graph is acyclic")
    });
    let mut order: Vec<NodeId> = ddg.node_ids().collect();
    order.sort_by_key(|&n| {
        (
            levels.depth(n),
            std::cmp::Reverse(levels.height(n)),
            n.index(),
        )
    });
    order
}

/// The node order used by the Bottom-Up scheduler: by increasing height (the
/// latency-weighted longest path to any sink), i.e. sinks first, breaking
/// ties by larger depth and finally program order. All a node's
/// intra-iteration successors precede it in this order.
pub fn bottomup_order(ddg: &Ddg) -> Vec<NodeId> {
    let levels = TopoLevels::compute(ddg).unwrap_or_else(|_| {
        TopoLevels::compute(&trivial_copy(ddg)).expect("trivial graph is acyclic")
    });
    let mut order: Vec<NodeId> = ddg.node_ids().collect();
    order.sort_by_key(|&n| {
        (
            levels.height(n),
            std::cmp::Reverse(levels.depth(n)),
            n.index(),
        )
    });
    order
}

/// The priority-perturbation hook of the directional baselines: re-ranks an
/// existing priority order under a feedback [`Perturbation`] by a *stable*
/// sort on decreasing boost. Boosted (critical) nodes move to the front of
/// the list order while every unboosted node keeps its relative position,
/// so the identity perturbation leaves the order untouched — the guarantee
/// `feedback`-wrapped baselines rely on for their attempt-0 baseline.
pub fn boost_order(order: &mut [NodeId], perturbation: &Perturbation) {
    order.sort_by_key(|&n| std::cmp::Reverse(perturbation.boost_of(n)));
}

/// A copy of `ddg` with every edge removed — used only as a fallback when the
/// level computation rejects an invalid graph (those graphs are rejected by
/// the MII computation before scheduling anyway).
fn trivial_copy(ddg: &Ddg) -> Ddg {
    let mut b = hrms_ddg::DdgBuilder::new(ddg.name());
    for (_, n) in ddg.nodes() {
        b.node(n.name(), n.kind(), n.latency());
    }
    b.build().expect("node-only copy of a valid graph")
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

/// The II-escalation driver shared by every baseline: computes the MII
/// from the loop's analysis, then tries
/// `attempt(ii, mii, analysis, &mut starts)` for II = MII, MII+1, ... up
/// to the configured cap. The analysis handed to every attempt carries the
/// dense placement arcs and the cached dependence-edge list (shared across
/// machines when the caller built it over a shared `LoopCore`), and the
/// [`PerIiStarts`] cache updates the resource-free earliest/latest start
/// times **incrementally** from one II to the next (the loop-carried edge
/// weights shift by one per unit of distance), so per-II passes neither
/// rebuild per-loop structures nor rerun the Bellman-Ford passes from
/// scratch.
pub fn escalate_ii<F>(
    analysis: &LoopAnalysis<'_>,
    machine: &Machine,
    config: &SchedulerConfig,
    mut attempt: F,
) -> Result<ScheduleOutcome, SchedError>
where
    F: FnMut(u32, MiiInfo, &LoopAnalysis<'_>, &mut PerIiStarts) -> Option<Schedule>,
{
    let start = Instant::now();
    let ddg = analysis.ddg();
    let mii = MiiInfo::compute(machine, analysis)?;
    // Under the verify-recurrence feature, every loop the escalation
    // driver schedules also cross-checks the cycle-ratio analysis against
    // the exact scheduling RecMII: the paper-metric per-node maximum
    // (operation-latency sums) can never undershoot the
    // dependence-latency bound the MII is built from, and the two agree
    // exactly on flow-only recurrences.
    #[cfg(feature = "verify-recurrence")]
    {
        let bound = analysis.cycle_ratios().rec_mii_lower_bound();
        let exact = analysis.rec_mii().map_or(u64::MAX, u64::from);
        assert!(
            bound >= exact,
            "`{}`: cycle-ratio bound {bound} undershoots the exact RecMII {exact}",
            ddg.name()
        );
    }
    let max_ii = config.effective_max_ii(ddg, mii.mii());
    if max_ii < mii.mii() {
        return Err(SchedError::NoValidSchedule {
            max_ii_tried: max_ii,
        });
    }
    let mut starts = PerIiStarts::new();
    let mut attempts = 0;
    let mut ii = mii.mii();
    loop {
        attempts += 1;
        if let Some(schedule) = attempt(ii, mii, analysis, &mut starts) {
            return Ok(ScheduleOutcome::new(
                ddg,
                schedule,
                mii,
                attempts,
                start.elapsed(),
                std::time::Duration::ZERO,
            ));
        }
        if ii >= max_ii {
            return Err(SchedError::NoValidSchedule { max_ii_tried: ii });
        }
        ii += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind, OpKind};
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
        let order = topdown_order(&g);
        assert_eq!(order[0], NodeId(0));
        assert_eq!(order[3], NodeId(3));
        // x is on the longer path (latency 2 vs 1) so it precedes y.
        assert_eq!(order[1], NodeId(1));
    }

    #[test]
    fn bottomup_order_puts_sinks_first() {
        let g = diamond();
        let order = bottomup_order(&g);
        assert_eq!(order[0], NodeId(3));
        assert_eq!(order[3], NodeId(0));
    }

    #[test]
    fn orders_cover_every_node_once() {
        let g = diamond();
        for order in [topdown_order(&g), bottomup_order(&g)] {
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
            (topdown_order(&g), Direction::TopDown),
            (bottomup_order(&g), Direction::BottomUp),
        ] {
            let s = schedule_directional_at_ii(&la, &m, &order, 2, dir).unwrap();
            validate_schedule(&g, &m, &s).unwrap();
        }
    }

    #[test]
    fn escalation_stops_at_the_cap() {
        let g = diamond();
        let m = presets::govindarajan();
        let config = SchedulerConfig {
            max_ii: Some(3),
            ..SchedulerConfig::default()
        };
        // An attempt that always fails must exhaust the cap.
        let la = LoopAnalysis::analyze(&g);
        let err = escalate_ii(&la, &m, &config, |_, _, _, _| None).unwrap_err();
        assert_eq!(err, SchedError::NoValidSchedule { max_ii_tried: 3 });
    }

    #[test]
    fn escalation_reports_attempts() {
        let g = diamond();
        let m = presets::govindarajan();
        let config = SchedulerConfig::default();
        let order = topdown_order(&g);
        let la = LoopAnalysis::analyze(&g);
        let outcome = escalate_ii(&la, &m, &config, |ii, _, la, _starts| {
            if ii < 4 {
                None
            } else {
                schedule_directional_at_ii(la, &m, &order, ii, Direction::TopDown)
            }
        })
        .unwrap();
        assert_eq!(outcome.metrics.ii, 4);
        assert_eq!(outcome.attempts, 3, "II 2 and 3 failed, 4 succeeded");
    }
}
