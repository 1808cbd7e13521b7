//! The Bottom-Up baseline scheduler.
//!
//! The mirror image of [`crate::TopDownScheduler`]: operations are visited
//! sinks-first (by increasing latency-weighted height) and each is placed
//! **as late as possible** before its already-scheduled successors. As
//! Section 2.1 of the paper explains, this fixes the lifetimes that
//! top-down scheduling stretches (values produced by sources) but stretches
//! the symmetric ones instead (values consumed by sinks whose producers are
//! pushed early), so the register pressure is still higher than HRMS's.

use hrms_ddg::LoopAnalysis;
use hrms_machine::Machine;
use hrms_modsched::{escalate_ii, ModuloScheduler, Perturbation, SchedError, ScheduleOutcome};

use crate::common::{boost_order, bottomup_order, schedule_directional_at_ii, Direction};

/// Bottom-Up (ALAP) modulo scheduler.
#[derive(Debug, Clone, Default)]
pub struct BottomUpScheduler;

impl BottomUpScheduler {
    /// Creates a Bottom-Up scheduler.
    pub fn new() -> Self {
        BottomUpScheduler
    }
}

impl ModuloScheduler for BottomUpScheduler {
    fn name(&self) -> &str {
        "Bottom-Up"
    }

    fn schedule(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        perturbation: &Perturbation,
    ) -> Result<ScheduleOutcome, SchedError> {
        let mut order = bottomup_order(analysis.ddg());
        boost_order(&mut order, perturbation);
        escalate_ii(analysis, machine, |ii, _| {
            schedule_directional_at_ii(analysis, machine, &order, ii, Direction::BottomUp)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{Ddg, DdgBuilder, DepKind, NodeId, OpKind};
    use hrms_machine::presets;
    use hrms_modsched::{validate_schedule, LifetimeAnalysis};

    fn figure1() -> (Ddg, Vec<NodeId>) {
        let mut b = DdgBuilder::new("fig1");
        let names = ["A", "B", "C", "D", "E", "F", "G"];
        let ids: Vec<NodeId> = names.iter().map(|n| b.node(*n, OpKind::Other, 2)).collect();
        let e = |s: usize, t: usize, b: &mut DdgBuilder| {
            b.edge(ids[s], ids[t], DepKind::RegFlow, 0).unwrap();
        };
        e(0, 1, &mut b);
        e(1, 2, &mut b);
        e(1, 3, &mut b);
        e(3, 5, &mut b);
        e(4, 5, &mut b);
        e(5, 6, &mut b);
        (b.build().unwrap(), ids)
    }

    #[test]
    fn schedules_the_motivating_example_at_mii_and_validates() {
        let (g, ids) = figure1();
        let m = presets::general_purpose();
        let outcome = BottomUpScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.ii, 2);
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
        // Bottom-up places E tightly against F (the paper's point; a resource
        // conflict can push it one extra cycle)...
        let s = &outcome.schedule;
        assert!(s.cycle(ids[5]) - s.cycle(ids[4]) <= 3, "E sits close to F");
        // ...but C, a sink, is pushed away from its producer B.
        assert!(s.cycle(ids[2]) - s.cycle(ids[1]) > 2, "V2 is stretched");
    }

    #[test]
    fn register_usage_sits_between_hrms_and_nothing_in_particular() {
        // The paper's example: HRMS 6 registers, bottom-up 7, top-down 8.
        // Exact baseline counts depend on tie-breaking; we assert the robust
        // relation HRMS <= bottom-up.
        let (g, _) = figure1();
        let m = presets::general_purpose();
        let bu = BottomUpScheduler::new().schedule_loop(&g, &m).unwrap();
        let hrms = hrms_core::HrmsScheduler::new()
            .schedule_loop(&g, &m)
            .unwrap();
        let bu_regs = LifetimeAnalysis::analyze(&g, &bu.schedule).max_live();
        let hrms_regs = LifetimeAnalysis::analyze(&g, &hrms.schedule).max_live();
        assert!(hrms_regs <= bu_regs, "HRMS must not need more registers");
    }

    #[test]
    fn handles_recurrences() {
        let mut b = DdgBuilder::new("rec");
        let x = b.node("x", OpKind::FpAdd, 1);
        let y = b.node("y", OpKind::FpMul, 2);
        b.edge(x, y, DepKind::RegFlow, 0).unwrap();
        b.edge(y, x, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let outcome = BottomUpScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.ii, 3);
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
    }

    #[test]
    fn single_node_graph() {
        let mut b = DdgBuilder::new("one");
        b.node("only", OpKind::Store, 1);
        let g = b.build().unwrap();
        let outcome = BottomUpScheduler::new()
            .schedule_loop(&g, &presets::perfect_club())
            .unwrap();
        assert_eq!(outcome.metrics.ii, 1);
    }
}
