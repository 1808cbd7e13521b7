//! FRLC-style register-insensitive scheduler (decomposed software
//! pipelining).
//!
//! FRLC (Wang & Eisenbeis, *Decomposed Software Pipelining*) is the paper's
//! "heuristic that does not take register requirements into account". The
//! published algorithm first *decomposes* the cyclic scheduling problem by
//! assigning every operation a stage based on its resource-free earliest
//! start time, and then *compacts* the resulting acyclic body with list
//! scheduling. Operations are therefore placed as soon as their stage and
//! their already-placed producers allow, with no regard for how long the
//! produced values stay alive.
//!
//! This re-implementation (see *Substitutions* in docs/ARCHITECTURE.md)
//! follows that two-phase structure: earliest-start levels at the candidate
//! II drive both the scheduling order and the ASAP placement; loop-carried
//! constraints are checked after the fact, and the II is escalated when
//! they fail. The
//! resulting behaviour matches the role FRLC plays in Table 1: competitive
//! but not always optimal IIs, and clearly higher buffer requirements than
//! the lifetime-aware schedulers.

use hrms_ddg::{LoopAnalysis, NodeId, PerIiStarts};
use hrms_machine::Machine;
use hrms_modsched::{
    escalate_ii, validate_schedule, ModuloScheduler, PartialSchedule, Perturbation, SchedError,
    Schedule, ScheduleOutcome,
};

/// FRLC-style decomposed software-pipelining scheduler.
#[derive(Debug, Clone, Default)]
pub struct FrlcScheduler;

impl FrlcScheduler {
    /// Creates an FRLC-style scheduler.
    pub fn new() -> Self {
        FrlcScheduler
    }
}

impl ModuloScheduler for FrlcScheduler {
    fn name(&self) -> &str {
        "FRLC"
    }

    fn schedule(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        _perturbation: &Perturbation,
    ) -> Result<ScheduleOutcome, SchedError> {
        escalate_ii(analysis, machine, |ii, starts| {
            schedule_frlc_at_ii(analysis, starts, machine, ii)
        })
    }
}

/// One FRLC attempt at a fixed II, over the loop's shared analysis (dense
/// placement arcs for compaction) and the escalation driver's incremental
/// start-time cache (the decomposition levels update from the previous II
/// instead of rerunning Bellman-Ford from scratch).
fn schedule_frlc_at_ii(
    la: &LoopAnalysis<'_>,
    starts: &mut PerIiStarts,
    machine: &Machine,
    ii: u32,
) -> Option<Schedule> {
    let ddg = la.ddg();
    // Phase 1 (decomposition): resource-free earliest start times at this II
    // give each operation its stage and its scheduling priority.
    let est = starts.at(la, ii)?.earliest();
    let mut order: Vec<NodeId> = ddg.node_ids().collect();
    order.sort_by_key(|&n| (est[n.index()], n.index()));

    // Phase 2 (compaction): list-schedule in that order, placing every
    // operation as soon as possible — at or after both its level and its
    // already-placed producers — without looking at lifetimes or at
    // loop-carried successors.
    let mut partial = PartialSchedule::with_placement(machine, ii, la.placement().clone());
    for &u in &order {
        let lower = match partial.early_start(u) {
            Some(e) => e.max(est[u.index()]),
            None => est[u.index()],
        };
        partial.place_forward(ddg, machine, u, lower, ii)?;
    }
    let schedule = partial.into_schedule(ddg);

    // Loop-carried constraints towards already-placed operations were
    // ignored during compaction; reject the II if any is violated.
    if validate_schedule(ddg, machine, &schedule).is_err() {
        return None;
    }
    Some(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{Ddg, DdgBuilder, DepKind, OpKind};
    use hrms_machine::presets;
    use hrms_modsched::LifetimeAnalysis;

    fn saxpy_like() -> Ddg {
        let mut b = DdgBuilder::new("saxpy");
        let lx = b.node("lx", OpKind::Load, 2);
        let ly = b.node("ly", OpKind::Load, 2);
        let mul = b.node("mul", OpKind::FpMul, 2);
        let add = b.node("add", OpKind::FpAdd, 1);
        let st = b.node("st", OpKind::Store, 1);
        b.edge(lx, mul, DepKind::RegFlow, 0).unwrap();
        b.edge(mul, add, DepKind::RegFlow, 0).unwrap();
        b.edge(ly, add, DepKind::RegFlow, 0).unwrap();
        b.edge(add, st, DepKind::RegFlow, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn schedules_saxpy_at_mii_and_validates() {
        let g = saxpy_like();
        let m = presets::govindarajan();
        let outcome = FrlcScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.ii, 3, "3 memory ops on one unit");
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
    }

    #[test]
    fn recurrences_are_eventually_satisfied() {
        let mut b = DdgBuilder::new("rec");
        let x = b.node("x", OpKind::FpAdd, 1);
        let y = b.node("y", OpKind::FpMul, 2);
        let z = b.node("z", OpKind::FpAdd, 1);
        b.edge(x, y, DepKind::RegFlow, 0).unwrap();
        b.edge(y, z, DepKind::RegFlow, 0).unwrap();
        b.edge(z, x, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let outcome = FrlcScheduler::new().schedule_loop(&g, &m).unwrap();
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
        assert!(outcome.metrics.ii >= outcome.metrics.rec_mii);
    }

    #[test]
    fn uses_at_least_as_many_buffers_as_hrms() {
        // The defining property of the register-insensitive baseline.
        let g = saxpy_like();
        let m = presets::govindarajan();
        let frlc = FrlcScheduler::new().schedule_loop(&g, &m).unwrap();
        let hrms = hrms_core::HrmsScheduler::new()
            .schedule_loop(&g, &m)
            .unwrap();
        let frlc_buf = LifetimeAnalysis::analyze(&g, &frlc.schedule).buffers();
        let hrms_buf = LifetimeAnalysis::analyze(&g, &hrms.schedule).buffers();
        assert!(frlc_buf >= hrms_buf);
    }

    #[test]
    fn order_follows_earliest_start_levels() {
        let g = saxpy_like();
        let m = presets::govindarajan();
        let outcome = FrlcScheduler::new().schedule_loop(&g, &m).unwrap();
        // Loads are level 0, so they are issued no later than the multiply.
        let s = &outcome.schedule;
        let lx = g.node_by_name("lx").unwrap();
        let mul = g.node_by_name("mul").unwrap();
        assert!(s.cycle(lx) < s.cycle(mul));
    }
}
