//! The Top-Down baseline scheduler.
//!
//! This is the register-oblivious scheduler the paper compares against in
//! Section 4.2 (and in the motivating example of Section 2): operations are
//! visited sources-first (by increasing latency-weighted depth, critical
//! path first among ties) and each is placed **as soon as possible** after
//! its already-scheduled predecessors. Because source operations and
//! operations far from their consumers are placed as early as the resources
//! allow, operand lifetimes are stretched and the register pressure is high
//! — exactly the behaviour HRMS was designed to avoid.

use hrms_ddg::LoopAnalysis;
use hrms_machine::Machine;
use hrms_modsched::{escalate_ii, ModuloScheduler, Perturbation, SchedError, ScheduleOutcome};

use crate::common::{boost_order, schedule_directional_at_ii, topdown_order, Direction};

/// Top-Down (ASAP) modulo scheduler.
#[derive(Debug, Clone, Default)]
pub struct TopDownScheduler;

impl TopDownScheduler {
    /// Creates a Top-Down scheduler.
    pub fn new() -> Self {
        TopDownScheduler
    }
}

impl ModuloScheduler for TopDownScheduler {
    fn name(&self) -> &str {
        "Top-Down"
    }

    fn schedule(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        perturbation: &Perturbation,
    ) -> Result<ScheduleOutcome, SchedError> {
        let mut order = topdown_order(analysis);
        boost_order(&mut order, perturbation);
        escalate_ii(analysis, machine, |ii, _| {
            schedule_directional_at_ii(analysis, machine, &order, ii, Direction::TopDown)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{Ddg, DdgBuilder, DepKind, NodeId, OpKind};
    use hrms_machine::presets;
    use hrms_modsched::{validate_schedule, LifetimeAnalysis};

    /// The motivating example of the paper (Figure 1).
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
    fn schedules_the_motivating_example_at_mii() {
        let (g, ids) = figure1();
        let m = presets::general_purpose();
        let outcome = TopDownScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.ii, 2);
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
        // The hallmark of top-down scheduling on this example: E (a source
        // feeding F) is placed as soon as possible, long before F.
        let s = &outcome.schedule;
        assert_eq!(s.cycle(ids[4]), 0, "E is placed at cycle 0");
        assert!(s.cycle(ids[5]) - s.cycle(ids[4]) > 2, "V5 is stretched");
    }

    #[test]
    fn uses_more_registers_than_hrms_on_the_motivating_example() {
        let (g, _) = figure1();
        let m = presets::general_purpose();
        let td = TopDownScheduler::new().schedule_loop(&g, &m).unwrap();
        let hrms = hrms_core::HrmsScheduler::new()
            .schedule_loop(&g, &m)
            .unwrap();
        let td_regs = LifetimeAnalysis::analyze(&g, &td.schedule).max_live();
        let hrms_regs = LifetimeAnalysis::analyze(&g, &hrms.schedule).max_live();
        assert_eq!(hrms_regs, 6);
        assert!(
            td_regs > hrms_regs,
            "paper: top-down needs 8 registers vs 6 for HRMS (got {td_regs} vs {hrms_regs})"
        );
    }

    #[test]
    fn handles_recurrences() {
        let mut b = DdgBuilder::new("rec");
        let ld = b.node("ld", OpKind::Load, 2);
        let add = b.node("add", OpKind::FpAdd, 1);
        b.edge(ld, add, DepKind::RegFlow, 0).unwrap();
        b.edge(add, add, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let outcome = TopDownScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.ii, 1);
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
    }

    #[test]
    fn rejects_invalid_graphs() {
        let mut b = DdgBuilder::new("bad");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let err = TopDownScheduler::new()
            .schedule_loop(&g, &presets::govindarajan())
            .unwrap_err();
        assert_eq!(err, SchedError::ZeroDistanceCycle);
    }
}
