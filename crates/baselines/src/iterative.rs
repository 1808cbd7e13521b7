//! Rau's iterative modulo scheduling (IMS).
//!
//! Not one of the paper's comparison points (it appeared at the same
//! MICRO-27/28 period), but the de-facto standard modulo scheduler in
//! production compilers and therefore a useful extra reference point for the
//! benchmark harness: it is register-oblivious like Top-Down but finds
//! tighter IIs on resource- and recurrence-constrained loops thanks to its
//! force-place/eviction mechanism.

use hrms_ddg::LoopAnalysis;
use hrms_machine::Machine;
use hrms_modsched::{escalate_ii, ModuloScheduler, Perturbation, SchedError, ScheduleOutcome};

use crate::backtrack::{placement_budget, schedule_with_backtracking, Flavor};

/// Iterative modulo scheduler (Rau, MICRO-27; per-II budget:
/// [`placement_budget`]).
#[derive(Debug, Clone, Default)]
pub struct IterativeScheduler;

impl IterativeScheduler {
    /// Creates an iterative scheduler.
    pub fn new() -> Self {
        IterativeScheduler
    }
}

impl ModuloScheduler for IterativeScheduler {
    fn name(&self) -> &str {
        "Iterative"
    }

    fn schedule(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        _perturbation: &Perturbation,
    ) -> Result<ScheduleOutcome, SchedError> {
        let budget = placement_budget(analysis.ddg());
        escalate_ii(analysis, machine, |ii, starts| {
            schedule_with_backtracking(analysis, starts, machine, ii, Flavor::Iterative, budget)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind, NodeId, OpKind};
    use hrms_machine::presets;
    use hrms_modsched::validate_schedule;

    #[test]
    fn schedules_a_mixed_loop_at_mii() {
        let mut b = DdgBuilder::new("mixed");
        let ld0 = b.node("ld0", OpKind::Load, 2);
        let ld1 = b.node("ld1", OpKind::Load, 2);
        let mul = b.node("mul", OpKind::FpMul, 2);
        let acc = b.node("acc", OpKind::FpAdd, 1);
        let st = b.node("st", OpKind::Store, 1);
        b.edge(ld0, mul, DepKind::RegFlow, 0).unwrap();
        b.edge(ld1, mul, DepKind::RegFlow, 0).unwrap();
        b.edge(mul, acc, DepKind::RegFlow, 0).unwrap();
        b.edge(acc, acc, DepKind::RegFlow, 1).unwrap();
        b.edge(acc, st, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let outcome = IterativeScheduler::new().schedule_loop(&g, &m).unwrap();
        // ResMII: 3 memory ops on 1 unit = 3.
        assert_eq!(outcome.metrics.ii, 3);
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
    }

    #[test]
    fn tight_recurrence_plus_resources() {
        // A recurrence whose window is tight enough that naive one-pass
        // scheduling fails at MII; eviction lets IMS still reach it or stay
        // close.
        let mut b = DdgBuilder::new("tight");
        let a = b.node("a", OpKind::Load, 2);
        let c = b.node("c", OpKind::FpAdd, 1);
        let d = b.node("d", OpKind::Load, 2);
        let e = b.node("e", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegAnti, 1).unwrap();
        b.edge(d, e, DepKind::RegFlow, 0).unwrap();
        b.edge(e, d, DepKind::RegAnti, 1).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let outcome = IterativeScheduler::new().schedule_loop(&g, &m).unwrap();
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
        assert!(outcome.metrics.ii <= outcome.metrics.mii + 1);
    }

    #[test]
    fn name_is_reported() {
        assert_eq!(IterativeScheduler::new().name(), "Iterative");
    }

    #[test]
    fn single_store_loop() {
        let mut b = DdgBuilder::new("st");
        let ld = b.node("ld", OpKind::Load, 2);
        let st = b.node("st", OpKind::Store, 1);
        b.edge(ld, st, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let m = presets::perfect_club();
        let outcome = IterativeScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.ii, 1);
        let _ = outcome.schedule.kernel();
        let names: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(names.len(), 2);
    }
}
