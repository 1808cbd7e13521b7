//! Backtracking (force-place / eviction) scheduling core shared by the
//! Slack and Iterative baseline schedulers.
//!
//! Both Huff's slack scheduling and Rau's iterative modulo scheduling keep a
//! partial schedule and, when an operation finds no conflict-free slot in
//! its window, *force* it into place and evict whatever it collides with
//! (resource conflicts and violated dependences). Evicted operations go back
//! to the unscheduled pool. A per-II budget bounds the total number of
//! placements so the search always terminates; when the budget is exhausted
//! the caller increases the II.

use std::collections::{HashMap, HashSet};

use hrms_ddg::{Ddg, LoopAnalysis, NodeId, PerIiStarts, PlacementCsr};
use hrms_machine::Machine;
use hrms_modsched::{PartialSchedule, Schedule};

/// The per-II placement budget of the Slack and Iterative schedulers:
/// `min(50·|V| + 200, 200 000)` placements. Huff bounds the placements of
/// one II attempt to a small multiple of the operation count.
pub fn placement_budget(ddg: &Ddg) -> u64 {
    (50 * ddg.num_nodes() as u64 + 200).min(200_000)
}

/// Which heuristic drives node selection and placement direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Rau's iterative modulo scheduling: highest priority = smallest
    /// latest-start (most critical), placement always as soon as possible.
    Iterative,
    /// Huff's lifetime-sensitive slack scheduling: highest priority =
    /// smallest dynamic slack, placement direction chosen to keep operand
    /// lifetimes short.
    Slack,
}

/// One attempt at a fixed II, over the loop's shared analysis (cached
/// dependence edges for the static bounds, dense placement arcs for the
/// dynamic ones and for eviction) and the escalation driver's incremental
/// start-time cache (the static bounds update from the previous II instead
/// of rerunning Bellman-Ford from scratch). Returns `None` if the placement
/// budget was exhausted (caller escalates the II).
pub fn schedule_with_backtracking(
    la: &LoopAnalysis<'_>,
    starts: &mut PerIiStarts,
    machine: &Machine,
    ii: u32,
    flavor: Flavor,
    budget: u64,
) -> Option<Schedule> {
    let ddg = la.ddg();
    let solved = starts.at(la, ii)?;
    let est = solved.earliest().to_vec();
    let horizon = est.iter().copied().max().unwrap_or(0)
        + ddg
            .nodes()
            .map(|(_, node)| i64::from(node.latency()))
            .max()
            .unwrap_or(1);
    let lst = solved.latest(horizon);

    let mut partial = PartialSchedule::with_placement(machine, ii, la.placement().clone());
    let mut unscheduled: HashSet<NodeId> = ddg.node_ids().collect();
    // The last cycle each node was placed at; forcing moves strictly past it
    // so repeated evictions make forward progress.
    let mut last_time: HashMap<NodeId, i64> = HashMap::new();
    let mut placements: u64 = 0;

    while !unscheduled.is_empty() {
        if placements >= budget {
            return None;
        }
        let u = pick_node(&partial, &unscheduled, &est, &lst, flavor);

        // Dynamic bounds from already-placed neighbours.
        let dyn_early = match partial.early_start(u) {
            Some(e) => e.max(est[u.index()]),
            None => est[u.index()],
        };
        let dyn_late = partial.late_start(u);

        let place_late = match flavor {
            Flavor::Iterative => false,
            Flavor::Slack => {
                let has_sched_pred = !partial.scheduled_predecessors(ddg, u).is_empty();
                let has_sched_succ = !partial.scheduled_successors(ddg, u).is_empty();
                if has_sched_succ && !has_sched_pred {
                    true
                } else if has_sched_pred {
                    false
                } else {
                    // No scheduled neighbour: prefer the direction of the
                    // fewer stretchable flow dependences (Huff's tie-break).
                    ddg.consumers(u).count() < ddg.predecessors(u).len()
                }
            }
        };

        let attempted = if place_late {
            let from = dyn_late.unwrap_or(lst[u.index()]);
            let span = if let Some(e) = partial.early_start(u) {
                ((from - e.max(est[u.index()]) + 1).max(0) as u64).min(u64::from(ii)) as u32
            } else {
                ii
            };
            partial.place_backward(ddg, machine, u, from, span)
        } else {
            let span = if let Some(l) = dyn_late {
                ((l - dyn_early + 1).max(0) as u64).min(u64::from(ii)) as u32
            } else {
                ii
            };
            partial.place_forward(ddg, machine, u, dyn_early, span)
        };

        let cycle = match attempted {
            Some(c) => c,
            None => {
                // Force placement (Rau's rule): strictly after the node's
                // previous position so progress is guaranteed.
                let force_at = match last_time.get(&u) {
                    Some(&prev) => dyn_early.max(prev + 1),
                    None => dyn_early,
                };
                force_place(
                    ddg,
                    la.placement(),
                    machine,
                    &mut partial,
                    &mut unscheduled,
                    u,
                    force_at,
                    ii,
                );
                force_at
            }
        };
        last_time.insert(u, cycle);
        unscheduled.remove(&u);
        placements += 1;
    }

    Some(partial.into_schedule(ddg))
}

/// Picks the next node to schedule.
fn pick_node(
    partial: &PartialSchedule,
    unscheduled: &HashSet<NodeId>,
    est: &[i64],
    lst: &[i64],
    flavor: Flavor,
) -> NodeId {
    let mut best: Option<(i64, i64, usize, NodeId)> = None;
    for &u in unscheduled {
        let key = match flavor {
            Flavor::Iterative => {
                // Smallest latest start first (critical path first), then
                // smallest earliest start.
                (lst[u.index()], est[u.index()], u.index(), u)
            }
            Flavor::Slack => {
                // Smallest dynamic slack first.
                let dyn_early = match partial.early_start(u) {
                    Some(e) => e.max(est[u.index()]),
                    None => est[u.index()],
                };
                let dyn_late = match partial.late_start(u) {
                    Some(l) => l.min(lst[u.index()]),
                    None => lst[u.index()],
                };
                (dyn_late - dyn_early, est[u.index()], u.index(), u)
            }
        };
        match best {
            Some(b) if (b.0, b.1, b.2) <= (key.0, key.1, key.2) => {}
            _ => best = Some(key),
        }
    }
    best.expect("unscheduled set is non-empty").3
}

/// Forces `u` to cycle `at`, evicting resource-conflicting operations of the
/// same class and any operation whose dependence with `u` would be violated.
/// Violation checks scan the dense placement arcs (precomputed latencies,
/// self-loops already excluded).
#[allow(clippy::too_many_arguments)]
fn force_place(
    ddg: &Ddg,
    arcs: &PlacementCsr,
    machine: &Machine,
    partial: &mut PartialSchedule,
    unscheduled: &mut HashSet<NodeId>,
    u: NodeId,
    at: i64,
    ii: u32,
) {
    // 1. Evict dependence violators.
    let mut victims: Vec<NodeId> = Vec::new();
    for a in arcs.out_arcs(u.index()) {
        let w = NodeId(a.other);
        if let Some(tw) = partial.cycle_of(w) {
            let required = at + i64::from(a.latency) - i64::from(a.distance) * i64::from(ii);
            if tw < required {
                victims.push(w);
            }
        }
    }
    for a in arcs.in_arcs(u.index()) {
        let w = NodeId(a.other);
        if let Some(tw) = partial.cycle_of(w) {
            let required = tw + i64::from(a.latency) - i64::from(a.distance) * i64::from(ii);
            if at < required {
                victims.push(w);
            }
        }
    }
    for v in victims {
        if partial.unplace(v) {
            unscheduled.insert(v);
        }
    }

    // 2. Evict same-class operations until `u` fits at `at`.
    if !partial.place_at(ddg, machine, u, at) {
        let class = machine.class_of(ddg.node(u).kind());
        let mut same_class: Vec<(NodeId, i64)> = partial
            .placements()
            .filter(|&(v, _)| machine.class_of(ddg.node(v).kind()) == class)
            .collect();
        // Evict the ones whose modulo slot is closest to ours first.
        let occupancy = i64::from(machine.occupancy_of(ddg.node(u).kind()));
        same_class.sort_by_key(|&(v, c)| {
            let delta = (c - at).rem_euclid(i64::from(ii));
            (delta >= occupancy, delta, v.index())
        });
        for (v, _) in same_class {
            partial.unplace(v);
            unscheduled.insert(v);
            if partial.place_at(ddg, machine, u, at) {
                return;
            }
        }
        // With every same-class operation evicted the placement must
        // succeed (the class has at least one unit).
        assert!(
            partial.place_at(ddg, machine, u, at),
            "forced placement failed even after evicting every same-class operation"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind, OpKind};
    use hrms_machine::presets;
    use hrms_modsched::validate_schedule;

    fn dense_loads() -> Ddg {
        // Four loads feeding one chain of adds; the single load/store unit
        // makes II = 4 and forces conflicts that exercise the eviction path.
        let mut b = DdgBuilder::new("dense");
        let mut adds = Vec::new();
        let mut prev_add: Option<NodeId> = None;
        for i in 0..4 {
            let ld = b.node(format!("ld{i}"), OpKind::Load, 2);
            let add = b.node(format!("add{i}"), OpKind::FpAdd, 1);
            b.edge(ld, add, DepKind::RegFlow, 0).unwrap();
            if let Some(p) = prev_add {
                b.edge(p, add, DepKind::RegFlow, 0).unwrap();
            }
            prev_add = Some(add);
            adds.push(add);
        }
        b.build().unwrap()
    }

    #[test]
    fn both_flavors_produce_valid_schedules() {
        let g = dense_loads();
        let m = presets::govindarajan();
        let la = LoopAnalysis::analyze(&g);
        for flavor in [Flavor::Iterative, Flavor::Slack] {
            let s = schedule_with_backtracking(&la, &mut PerIiStarts::new(), &m, 4, flavor, 10_000)
                .unwrap_or_else(|| panic!("{flavor:?} failed at II = 4"));
            validate_schedule(&g, &m, &s).unwrap();
            assert_eq!(s.ii(), 4);
        }
    }

    #[test]
    fn recurrences_are_respected() {
        let mut b = DdgBuilder::new("rec");
        let x = b.node("x", OpKind::FpAdd, 1);
        let y = b.node("y", OpKind::FpMul, 2);
        let z = b.node("z", OpKind::FpAdd, 1);
        b.edge(x, y, DepKind::RegFlow, 0).unwrap();
        b.edge(y, z, DepKind::RegFlow, 0).unwrap();
        b.edge(z, x, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let la = LoopAnalysis::analyze(&g);
        for flavor in [Flavor::Iterative, Flavor::Slack] {
            let s = schedule_with_backtracking(&la, &mut PerIiStarts::new(), &m, 4, flavor, 10_000)
                .unwrap();
            validate_schedule(&g, &m, &s).unwrap();
        }
    }

    #[test]
    fn infeasible_ii_returns_none_via_est() {
        let mut b = DdgBuilder::new("tight");
        let a = b.node("a", OpKind::FpAdd, 4);
        b.edge(a, a, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let la = LoopAnalysis::analyze(&g);
        assert!(schedule_with_backtracking(
            &la,
            &mut PerIiStarts::new(),
            &m,
            3,
            Flavor::Iterative,
            1000
        )
        .is_none());
        assert!(schedule_with_backtracking(
            &la,
            &mut PerIiStarts::new(),
            &m,
            4,
            Flavor::Iterative,
            1000
        )
        .is_some());
    }

    #[test]
    fn a_tiny_budget_fails_gracefully() {
        let g = dense_loads();
        let m = presets::govindarajan();
        let la = LoopAnalysis::analyze(&g);
        assert!(
            schedule_with_backtracking(&la, &mut PerIiStarts::new(), &m, 4, Flavor::Slack, 2)
                .is_none()
        );
    }
}
