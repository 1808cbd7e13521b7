//! Independent validation of modulo schedules.
//!
//! Every scheduler in the workspace is checked against this validator in the
//! integration and property tests: a schedule is *valid* when every
//! dependence is satisfied (modulo the `δ·II` slack of loop-carried
//! dependences) and no functional-unit class is oversubscribed in any modulo
//! slot.

use std::error::Error;
use std::fmt;

use hrms_ddg::{dependence_latency, Ddg, NodeId};
use hrms_machine::{ClassId, Machine};

use crate::schedule::Schedule;

/// A reason why a schedule is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidationError {
    /// The schedule does not assign a cycle to every operation.
    WrongLength {
        /// Operations in the graph.
        expected: usize,
        /// Cycles in the schedule.
        actual: usize,
    },
    /// A dependence `(source, target)` is violated.
    DependenceViolated {
        /// Producer operation.
        source: NodeId,
        /// Consumer operation.
        target: NodeId,
        /// Cycle assigned to the producer.
        source_cycle: i64,
        /// Cycle assigned to the consumer.
        target_cycle: i64,
        /// Minimum separation required (`latency − δ·II`).
        required: i64,
    },
    /// Some functional-unit class is oversubscribed: the total demand the
    /// schedule puts on one of the class's modulo slots exceeds the number
    /// of units.
    ResourceOversubscribed {
        /// The first operation (in schedule order) whose demand pushes the
        /// slot over capacity.
        node: NodeId,
        /// Its assigned cycle.
        cycle: i64,
        /// The oversubscribed functional-unit class.
        class: ClassId,
        /// The oversubscribed modulo slot (`0..II`).
        slot: usize,
        /// Total demand the whole schedule puts on that slot.
        demand: u32,
        /// Units available in the class.
        capacity: u32,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::WrongLength { expected, actual } => write!(
                f,
                "schedule covers {actual} operations but the loop has {expected}"
            ),
            ValidationError::DependenceViolated {
                source,
                target,
                source_cycle,
                target_cycle,
                required,
            } => write!(
                f,
                "dependence {source} -> {target} violated: {target_cycle} < {source_cycle} + {required}"
            ),
            ValidationError::ResourceOversubscribed {
                node,
                cycle,
                class,
                slot,
                demand,
                capacity,
            } => write!(
                f,
                "functional unit oversubscribed: {node} does not fit at cycle {cycle} \
                 (class {class} modulo slot {slot} needs {demand} units, has {capacity})"
            ),
        }
    }
}

impl Error for ValidationError {}

/// Checks that `schedule` is a valid modulo schedule of `ddg` on `machine`.
///
/// # Errors
///
/// Returns the first [`ValidationError`] found (dependences are checked
/// before resources).
pub fn validate_schedule(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
) -> Result<(), ValidationError> {
    if schedule.len() != ddg.num_nodes() {
        return Err(ValidationError::WrongLength {
            expected: ddg.num_nodes(),
            actual: schedule.len(),
        });
    }
    let ii = i64::from(schedule.ii());

    for (_, e) in ddg.edges() {
        let tu = schedule.cycle(e.source());
        let tv = schedule.cycle(e.target());
        let required = i64::from(dependence_latency(ddg, e)) - i64::from(e.distance()) * ii;
        if tv < tu + required {
            return Err(ValidationError::DependenceViolated {
                source: e.source(),
                target: e.target(),
                source_cycle: tu,
                target_cycle: tv,
                required,
            });
        }
    }

    check_resources(ddg, machine, schedule)
}

/// Adds the per-slot unit demand of one operation to `demand` (the row for
/// its class). Mirrors the MRT's occupancy model: pipelined operations take
/// one slot, non-pipelined ones take `occupancy` consecutive slots and wrap
/// the whole table when the occupancy exceeds the II.
fn add_demand(demand: &mut [u32], ii: usize, start: usize, occupancy: usize) {
    if occupancy <= ii {
        for k in 0..occupancy {
            let s = start + k;
            let s = if s >= ii { s - ii } else { s };
            demand[s] += 1;
        }
    } else {
        let base = (occupancy / ii) as u32;
        let rem = occupancy % ii;
        for (s, d) in demand.iter_mut().enumerate() {
            *d += base + u32::from((s + ii - start) % ii < rem);
        }
    }
}

/// Checks functional-unit capacity by summing every operation's per-slot
/// demand directly and comparing each (class, modulo slot) total against
/// the class capacity.
///
/// Unlike replaying placements through a
/// [`ModuloReservationTable`](crate::mrt::ModuloReservationTable), the
/// verdict is manifestly independent of the order operations are
/// considered in: the total demand of a slot is a sum, and the schedule is
/// resource-feasible iff every total is within capacity. (Sequential MRT
/// placement reaches the same verdict — a slot can only exceed capacity if
/// some placement fails — but establishes it indirectly; the property test
/// in this module pins the two checks against each other.) For error
/// reporting, the first operation in [`Schedule::iter`] order whose
/// cumulative demand crosses the capacity is blamed, which matches the
/// operation the placement-replay check used to report.
fn check_resources(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
) -> Result<(), ValidationError> {
    let ii = schedule.ii() as usize;
    let mut demand: Vec<Vec<u32>> = machine.classes().iter().map(|_| vec![0u32; ii]).collect();
    for (node, cycle) in schedule.iter() {
        let kind = ddg.node(node).kind();
        let class = machine.class_of(kind);
        let start = cycle.rem_euclid(schedule.ii() as i64) as usize;
        add_demand(
            &mut demand[class.index()],
            ii,
            start,
            machine.occupancy_of(kind) as usize,
        );
    }
    for (c, row) in demand.iter().enumerate() {
        let capacity = machine.classes()[c].count;
        if let Some((slot, &d)) = row.iter().enumerate().find(|&(_, &d)| d > capacity) {
            let class = ClassId(c as u32);
            let (node, cycle) = blame(ddg, machine, schedule, class, slot)
                .expect("an oversubscribed slot has a contributing operation");
            return Err(ValidationError::ResourceOversubscribed {
                node,
                cycle,
                class,
                slot,
                demand: d,
                capacity,
            });
        }
    }
    Ok(())
}

/// The first operation (in schedule order) whose cumulative demand pushes
/// the oversubscribed `(class, slot)` past capacity — the same operation a
/// sequential MRT replay would have failed on.
fn blame(
    ddg: &Ddg,
    machine: &Machine,
    schedule: &Schedule,
    class: ClassId,
    slot: usize,
) -> Option<(NodeId, i64)> {
    let ii = schedule.ii() as usize;
    let capacity = machine.class(class).count;
    let mut row = vec![0u32; ii];
    for (node, cycle) in schedule.iter() {
        let kind = ddg.node(node).kind();
        if machine.class_of(kind) != class {
            continue;
        }
        let start = cycle.rem_euclid(schedule.ii() as i64) as usize;
        add_demand(&mut row, ii, start, machine.occupancy_of(kind) as usize);
        if row[slot] > capacity {
            return Some((node, cycle));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrt::ModuloReservationTable;
    use hrms_ddg::{DdgBuilder, DepKind, OpKind};
    use hrms_machine::presets;

    /// The pre-fix resource check: replay every placement through an MRT in
    /// schedule order and fail on the first refused placement. Kept as the
    /// reference the order-independent check is pinned against.
    fn replay_verdict(
        ddg: &Ddg,
        machine: &Machine,
        schedule: &Schedule,
    ) -> Result<(), (NodeId, i64)> {
        let mut mrt = ModuloReservationTable::new(machine, schedule.ii());
        for (node, cycle) in schedule.iter() {
            if !mrt.place(machine, node, ddg.node(node).kind(), cycle) {
                return Err((node, cycle));
            }
        }
        Ok(())
    }

    fn loop_with_recurrence() -> Ddg {
        let mut b = DdgBuilder::new("v");
        let ld = b.node("ld", OpKind::Load, 2);
        let mul = b.node("mul", OpKind::FpMul, 2);
        let acc = b.node("acc", OpKind::FpAdd, 1);
        let st = b.node("st", OpKind::Store, 1);
        b.edge(ld, mul, DepKind::RegFlow, 0).unwrap();
        b.edge(mul, acc, DepKind::RegFlow, 0).unwrap();
        b.edge(acc, acc, DepKind::RegFlow, 1).unwrap();
        b.edge(acc, st, DepKind::RegFlow, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn a_correct_schedule_validates() {
        let g = loop_with_recurrence();
        let m = presets::govindarajan();
        // ld@0, mul@2, acc@4, st@5 with II = 2: the self-dependence of acc
        // needs t(acc) >= t(acc) + 1 - 1*2, which always holds, and the load
        // and store land in different modulo slots of the single load/store
        // unit.
        let s = Schedule::new(2, vec![0, 2, 4, 5]);
        assert_eq!(validate_schedule(&g, &m, &s), Ok(()));
    }

    #[test]
    fn dependence_violations_are_reported() {
        let g = loop_with_recurrence();
        let m = presets::govindarajan();
        // mul scheduled before the load finishes.
        let s = Schedule::new(2, vec![0, 1, 4, 7]);
        let err = validate_schedule(&g, &m, &s).unwrap_err();
        assert!(matches!(err, ValidationError::DependenceViolated { .. }));
        assert!(err.to_string().contains("violated"));
    }

    #[test]
    fn loop_carried_slack_is_honoured() {
        // a -> c with distance 1: at II = 4 the constraint
        // t(c) >= t(a) + 4 - 4 is satisfied by t(c) = t(a); at II = 3 it is
        // not.
        let mut b = DdgBuilder::new("carried");
        let a = b.node("a", OpKind::FpAdd, 4);
        let c = b.node("c", OpKind::FpMul, 1);
        b.edge(a, c, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let ok = Schedule::new(4, vec![0, 0]);
        assert_eq!(validate_schedule(&g, &m, &ok), Ok(()));
        let bad = Schedule::new(3, vec![0, 0]);
        assert!(validate_schedule(&g, &m, &bad).is_err());
    }

    #[test]
    fn resource_oversubscription_is_reported() {
        let m = presets::govindarajan();
        let mut b = DdgBuilder::new("two_loads");
        b.node("l0", OpKind::Load, 2);
        b.node("l1", OpKind::Load, 2);
        let g = b.build().unwrap();
        // Both loads in the same modulo slot of the single load/store unit.
        let s = Schedule::new(2, vec![0, 2]);
        let err = validate_schedule(&g, &m, &s).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::ResourceOversubscribed { .. }
        ));
        // Different slots are fine.
        let s = Schedule::new(2, vec![0, 1]);
        assert_eq!(validate_schedule(&g, &m, &s), Ok(()));
    }

    #[test]
    fn wrong_length_is_reported() {
        let g = loop_with_recurrence();
        let m = presets::govindarajan();
        let s = Schedule::new(1, vec![0, 2]);
        assert!(matches!(
            validate_schedule(&g, &m, &s),
            Err(ValidationError::WrongLength {
                expected: 4,
                actual: 2
            })
        ));
    }

    #[test]
    fn oversubscription_reports_slot_demand_and_capacity() {
        let m = presets::govindarajan();
        let mut b = DdgBuilder::new("two_loads");
        b.node("l0", OpKind::Load, 2);
        b.node("l1", OpKind::Load, 2);
        let g = b.build().unwrap();
        let s = Schedule::new(2, vec![0, 2]);
        match validate_schedule(&g, &m, &s).unwrap_err() {
            ValidationError::ResourceOversubscribed {
                node,
                cycle,
                class,
                slot,
                demand,
                capacity,
            } => {
                assert_eq!((node, cycle), (NodeId(1), 2), "blame matches MRT replay");
                assert_eq!(class, m.class_of(OpKind::Load));
                assert_eq!((slot, demand, capacity), (0, 2, 1));
            }
            other => panic!("expected ResourceOversubscribed, got {other:?}"),
        }
    }

    #[test]
    fn direct_check_matches_mrt_replay_on_randomised_schedules() {
        // A deterministic congruential generator keeps the sweep
        // reproducible without a rand dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: i64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64).rem_euclid(bound)
        };

        let mut divs = DdgBuilder::new("div_mix");
        divs.node("d0", OpKind::FpDiv, 17);
        divs.node("d1", OpKind::FpDiv, 17);
        divs.node("s0", OpKind::FpSqrt, 30);
        divs.node("l0", OpKind::Load, 2);
        divs.node("l1", OpKind::Load, 2);
        let graphs = [loop_with_recurrence(), divs.build().unwrap()];
        let machines = [
            presets::govindarajan(),
            presets::perfect_club(),
            presets::general_purpose(),
        ];
        let mut disagreements = 0usize;
        let mut oversubscribed = 0usize;
        for g in &graphs {
            for m in &machines {
                for _ in 0..200 {
                    let ii = 1 + next(28) as u32;
                    let cycles: Vec<i64> = (0..g.num_nodes()).map(|_| next(60) - 20).collect();
                    let s = Schedule::new(ii, cycles);
                    let direct = check_resources(g, m, &s);
                    match (replay_verdict(g, m, &s), direct) {
                        (Ok(()), Ok(())) => {}
                        (
                            Err((node, cycle)),
                            Err(ValidationError::ResourceOversubscribed {
                                node: n2,
                                cycle: c2,
                                demand,
                                capacity,
                                ..
                            }),
                        ) => {
                            oversubscribed += 1;
                            assert!(demand > capacity);
                            // The direct check reports the first
                            // oversubscribed slot's first offender; the
                            // replay reports the first refused placement.
                            // These coincide for the common single-slot
                            // violation but may legitimately differ when
                            // several slots overflow at once — the verdict
                            // (and its order independence) is the contract.
                            if (node, cycle) != (n2, c2) {
                                disagreements += 1;
                            }
                        }
                        (replay, direct) => panic!(
                            "verdicts diverge on {} / {} at ii={}: replay {replay:?}, direct {direct:?}",
                            g.name(),
                            m.name(),
                            s.ii(),
                        ),
                    }
                }
            }
        }
        assert!(oversubscribed > 100, "the sweep exercises the error path");
        assert!(
            disagreements * 10 <= oversubscribed,
            "blame should almost always match the replay: {disagreements}/{oversubscribed}"
        );
    }

    #[test]
    fn non_pipelined_resources_are_checked() {
        let m = presets::perfect_club();
        let mut b = DdgBuilder::new("divs");
        b.node("d0", OpKind::FpDiv, 17);
        b.node("d1", OpKind::FpDiv, 17);
        b.node("d2", OpKind::FpDiv, 17);
        let g = b.build().unwrap();
        // Three 17-cycle divisions on two non-pipelined units need II >= 26,
        // and even then the issue slots must be staggered so that no modulo
        // slot sees all three divisions at once.
        let bad = Schedule::new(17, vec![0, 1, 2]);
        assert!(validate_schedule(&g, &m, &bad).is_err());
        let clustered = Schedule::new(26, vec![0, 1, 2]);
        assert!(validate_schedule(&g, &m, &clustered).is_err());
        let ok = Schedule::new(26, vec![0, 17, 8]);
        assert_eq!(validate_schedule(&g, &m, &ok), Ok(()));
    }
}
