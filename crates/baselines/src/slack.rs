//! Slack scheduling (Huff-style lifetime-sensitive baseline).
//!
//! Huff's *Lifetime-Sensitive Modulo Scheduling* (PLDI 1993) is the
//! heuristic closest in spirit to HRMS among the paper's comparison points:
//! it also tries to keep operand lifetimes short, but it does so by
//! scheduling operations in order of increasing *slack* (the freedom between
//! their earliest and latest feasible start) and choosing, per operation,
//! whether to place it early or late. When an operation finds no free slot
//! it is forced into place and the conflicting operations are ejected and
//! rescheduled, up to a per-II budget.
//!
//! This implementation is a re-implementation from the published
//! description (see *Substitutions* in docs/ARCHITECTURE.md); it shares the
//! force-place/eviction core with the iterative scheduler.

use hrms_ddg::LoopAnalysis;
use hrms_machine::Machine;
use hrms_modsched::{escalate_ii, ModuloScheduler, Perturbation, SchedError, ScheduleOutcome};

use crate::backtrack::{placement_budget, schedule_with_backtracking, Flavor};

/// Huff-style slack scheduler (per-II budget: [`placement_budget`]).
#[derive(Debug, Clone, Default)]
pub struct SlackScheduler;

impl SlackScheduler {
    /// Creates a slack scheduler.
    pub fn new() -> Self {
        SlackScheduler
    }
}

impl ModuloScheduler for SlackScheduler {
    fn name(&self) -> &str {
        "Slack"
    }

    fn schedule(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        _perturbation: &Perturbation,
    ) -> Result<ScheduleOutcome, SchedError> {
        let budget = placement_budget(analysis.ddg());
        escalate_ii(analysis, machine, |ii, starts| {
            schedule_with_backtracking(analysis, starts, machine, ii, Flavor::Slack, budget)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{Ddg, DdgBuilder, DepKind, NodeId, OpKind};
    use hrms_machine::presets;
    use hrms_modsched::validate_schedule;

    fn figure1() -> Ddg {
        let mut b = DdgBuilder::new("fig1");
        let ids: Vec<NodeId> = ["A", "B", "C", "D", "E", "F", "G"]
            .iter()
            .map(|n| b.node(*n, OpKind::Other, 2))
            .collect();
        for (s, t) in [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)] {
            b.edge(ids[s], ids[t], DepKind::RegFlow, 0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn schedules_the_motivating_example_at_mii() {
        let g = figure1();
        let m = presets::general_purpose();
        let outcome = SlackScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.ii, 2);
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
    }

    #[test]
    fn keeps_lifetimes_reasonably_short() {
        // Slack scheduling is lifetime-sensitive: on the motivating example
        // it should not be dramatically worse than HRMS.
        let g = figure1();
        let m = presets::general_purpose();
        let slack = SlackScheduler::new().schedule_loop(&g, &m).unwrap();
        let hrms = hrms_core::HrmsScheduler::new()
            .schedule_loop(&g, &m)
            .unwrap();
        assert!(slack.metrics.max_live <= hrms.metrics.max_live + 2);
    }

    #[test]
    fn recurrence_bound_loop_is_scheduled_at_rec_mii() {
        let mut b = DdgBuilder::new("rec");
        let x = b.node("x", OpKind::FpAdd, 1);
        let y = b.node("y", OpKind::FpDiv, 17);
        b.edge(x, y, DepKind::RegFlow, 0).unwrap();
        b.edge(y, x, DepKind::RegFlow, 2).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let outcome = SlackScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.rec_mii, 9);
        assert_eq!(outcome.metrics.ii, 9);
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
    }

    #[test]
    fn resource_heavy_loop_is_valid() {
        let mut b = DdgBuilder::new("res");
        let mut prev: Option<NodeId> = None;
        for i in 0..8 {
            let ld = b.node(format!("ld{i}"), OpKind::Load, 2);
            let add = b.node(format!("add{i}"), OpKind::FpAdd, 1);
            b.edge(ld, add, DepKind::RegFlow, 0).unwrap();
            if let Some(p) = prev {
                b.edge(p, add, DepKind::RegFlow, 0).unwrap();
            }
            prev = Some(add);
        }
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let outcome = SlackScheduler::new().schedule_loop(&g, &m).unwrap();
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
        assert!(outcome.metrics.ii >= 8, "eight loads on one unit");
    }
}
