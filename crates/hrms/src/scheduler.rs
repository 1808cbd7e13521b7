//! The scheduling step of HRMS (Section 3.3) and the top-level scheduler.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hrms_ddg::{Ddg, LoopAnalysis, NodeId, PlacementCsr};
use hrms_machine::Machine;
use hrms_modsched::{
    escalate_ii, ModuloScheduler, PartialSchedule, Perturbation, SchedError, Schedule,
    ScheduleOutcome, StartHint,
};

use crate::preorder::{pre_order, pre_order_with, PreOrderOptions, StartNodePolicy};

/// How the node order handed to the scheduling step is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingMode {
    /// The hypernode-reduction pre-ordering of the paper (default).
    #[default]
    HypernodeReduction,
    /// Plain program order — the "no pre-ordering" ablation. The scheduling
    /// step is unchanged, so the difference in register pressure and II
    /// isolates the contribution of the ordering phase.
    ProgramOrder,
}

/// Configuration of the HRMS scheduler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HrmsOptions {
    /// Pre-ordering options (initial hypernode selection).
    pub preorder: PreOrderOptions,
    /// Ordering mode (hypernode reduction or the program-order ablation).
    pub ordering: OrderingMode,
}

/// Hypernode Reduction Modulo Scheduling.
///
/// The scheduler runs the pre-ordering phase once, then tries increasing
/// initiation intervals starting at `MII`; for each II the nodes are placed
/// one at a time in the pre-computed order:
///
/// * only predecessors already placed → as **soon** as possible, scanning
///   `Early_Start(u) .. Early_Start(u) + II − 1`,
/// * only successors already placed → as **late** as possible, scanning
///   `Late_Start(u) .. Late_Start(u) − II + 1`,
/// * both (the node closes a recurrence) → forward scan limited to
///   `min(Late_Start(u), Early_Start(u) + II − 1)`,
/// * neither (first node of a component) → as soon as possible from cycle 0.
///
/// If any node cannot be placed the II is increased by one and the
/// scheduling step restarts; the ordering is *not* recomputed (one of the
/// stated advantages of HRMS).
///
/// # Example
///
/// ```
/// use hrms_core::HrmsScheduler;
/// use hrms_modsched::ModuloScheduler;
/// use hrms_machine::presets;
/// use hrms_ddg::{DdgBuilder, OpKind, DepKind};
///
/// # fn main() -> Result<(), hrms_modsched::SchedError> {
/// let mut b = DdgBuilder::new("example");
/// let ld = b.node("ld", OpKind::Load, 2);
/// let add = b.node("add", OpKind::FpAdd, 1);
/// b.edge(ld, add, DepKind::RegFlow, 0)?;
/// let ddg = b.build()?;
/// let outcome = HrmsScheduler::new().schedule_loop(&ddg, &presets::govindarajan())?;
/// assert_eq!(outcome.metrics.ii, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct HrmsScheduler {
    options: HrmsOptions,
}

impl HrmsScheduler {
    /// Creates an HRMS scheduler with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an HRMS scheduler with the given options.
    pub fn with_options(options: HrmsOptions) -> Self {
        HrmsScheduler { options }
    }

    /// The options in use.
    pub fn options(&self) -> &HrmsOptions {
        &self.options
    }
}

impl ModuloScheduler for HrmsScheduler {
    fn name(&self) -> &str {
        match self.options.ordering {
            OrderingMode::HypernodeReduction => "HRMS",
            OrderingMode::ProgramOrder => "HRMS-no-preorder",
        }
    }

    /// HRMS's ordering is derived by hypernode reduction rather than a
    /// priority sort, so the perturbation's [`StartHint`] maps onto the
    /// pre-ordering's [`StartNodePolicy`]: changing where the hypernode
    /// starts growing reorders the whole traversal around the hinted node.
    /// Per-node boosts are ignored (they have no hypernode analogue).
    fn schedule(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        perturbation: &Perturbation,
    ) -> Result<ScheduleOutcome, SchedError> {
        // One shared analysis for the whole loop: the MII, the pre-ordering
        // and every placement pass read from the same cache (Tarjan,
        // backward edges, CSRs and dependence latencies are computed once
        // per core — shared across machines when the caller builds every
        // cell's analysis over one `Arc<LoopCore>`).
        let ddg = analysis.ddg();
        let mut preorder = self.options.preorder;
        match perturbation.start {
            StartHint::Default => {}
            StartHint::Last => preorder.start_node = StartNodePolicy::LastInProgramOrder,
            StartHint::Node(node) => preorder.start_node = StartNodePolicy::Fixed(node),
        }
        let mut ordering_time = Duration::ZERO;
        let mut order: Option<Cow<'_, [NodeId]>> = None;
        // Robustness fallback order: the HRMS order can leave an operation
        // with an empty placement window that no II increase can open, or
        // with no free slot in its resource class. A plain earliest-start
        // order places every operation after its intra-iteration
        // predecessors, so each II is retried with it before escalating.
        // At seed 801 it fires on 2.8 % of the `perfect_club` cells and on
        // 97.9 % of the `large_loops` cells (`perfbench/NOTES.md`).
        let mut fallback: Option<Vec<NodeId>> = None;
        let mut outcome = escalate_ii(analysis, machine, |ii, _| {
            // The first attempt orders the nodes, once: by then the driver
            // has computed the MII, which rejects an invalid loop. The
            // default hypernode order lives in the loop's core, so the
            // loop's other cells reuse it; every other order (a perturbed
            // start, another start policy, program order) is this cell's
            // own and never touches the core's slot.
            let order = order.get_or_insert_with(|| {
                let order_start = Instant::now();
                let order = match self.options.ordering {
                    OrderingMode::HypernodeReduction if preorder == PreOrderOptions::default() => {
                        Cow::Borrowed(analysis.hrms_order(|| pre_order(analysis).order))
                    }
                    OrderingMode::HypernodeReduction => {
                        Cow::Owned(pre_order_with(analysis, &preorder).order)
                    }
                    OrderingMode::ProgramOrder => Cow::Owned(ddg.node_ids().collect()),
                };
                ordering_time = order_start.elapsed();
                order
            });
            schedule_at_ii_with(ddg, machine, analysis.placement(), order, ii).or_else(|| {
                // The HRMS order runs first and the first attempt is at the
                // MII, so the fallback is always ordered at the MII.
                let fallback = fallback.get_or_insert_with(|| earliest_start_order(analysis, ii));
                schedule_at_ii_with(ddg, machine, analysis.placement(), fallback, ii)
            })
        })?;
        outcome.ordering_time = ordering_time;
        Ok(outcome)
    }
}

/// A topological-by-earliest-start order used as the robustness fallback of
/// [`HrmsScheduler`]'s II escalation: with it, every operation is placed after
/// all of its intra-iteration predecessors, so only loop-carried constraints
/// can close a placement window — and those always open up as the II grows.
fn earliest_start_order(la: &LoopAnalysis<'_>, ii: u32) -> Vec<NodeId> {
    let ddg = la.ddg();
    let est = la
        .earliest_starts(ii)
        .unwrap_or_else(|| vec![0; ddg.num_nodes()]);
    let mut order: Vec<NodeId> = ddg.node_ids().collect();
    order.sort_by_key(|n| (est[n.index()], n.index()));
    order
}

/// One pass of the scheduling step (Section 3.3) at a fixed II, over
/// prebuilt dense placement arcs (typically `analysis.placement()` of the
/// loop's [`LoopAnalysis`]): the paper's per-node case analysis (preds only
/// → ASAP, succs only → ALAP, both → bounded forward scan, neither → ASAP
/// from 0), with every `Early_Start`/`Late_Start` evaluation scanning flat
/// arc slices with precomputed dependence latencies. Returns the schedule,
/// or `None` if some node found no free slot (the caller then increases the
/// II).
pub fn schedule_at_ii_with(
    ddg: &Ddg,
    machine: &Machine,
    arcs: &Arc<PlacementCsr>,
    order: &[NodeId],
    ii: u32,
) -> Option<Schedule> {
    let mut partial = PartialSchedule::with_placement(machine, ii, arcs.clone());
    for &u in order {
        let early = partial.early_start(u);
        let late = partial.late_start(u);
        let placed = match (early, late) {
            (Some(early), None) => partial.place_forward(ddg, machine, u, early, ii),
            (None, Some(late)) => partial.place_backward(ddg, machine, u, late, ii),
            (Some(early), Some(late)) => {
                // The node closes a recurrence: it must land inside
                // [early, late], and scanning more than II slots is useless.
                if late < early {
                    None
                } else {
                    let window = (late - early + 1).min(i64::from(ii)) as u32;
                    partial.place_forward(ddg, machine, u, early, window)
                }
            }
            (None, None) => partial.place_forward(ddg, machine, u, 0, ii),
        };
        placed?;
    }
    Some(partial.into_schedule(ddg))
}

/// Convenience constructor for the "no pre-ordering" ablation scheduler.
pub fn program_order_scheduler() -> HrmsScheduler {
    HrmsScheduler::with_options(HrmsOptions {
        ordering: OrderingMode::ProgramOrder,
        ..HrmsOptions::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind, OpKind};
    use hrms_machine::presets;
    use hrms_modsched::{validate_schedule, LifetimeAnalysis};

    /// The motivating example of the paper (Figure 1 / Section 2.1).
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
    fn motivating_example_matches_the_paper() {
        // Section 2.1: MII = 2; HRMS places A@0, B@2, C@4, D@4, F@7, E@5,
        // G@9 and the loop variants need 6 registers (6 live in row 0 and 5
        // in row 1).
        let (g, ids) = figure1();
        let m = presets::general_purpose();
        let outcome = HrmsScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.mii, 2);
        assert_eq!(outcome.metrics.ii, 2);
        let s = &outcome.schedule;
        let cycles: Vec<i64> = ids.iter().map(|&n| s.cycle(n)).collect();
        assert_eq!(cycles, vec![0, 2, 4, 4, 5, 7, 9]);
        validate_schedule(&g, &m, s).unwrap();

        let lt = LifetimeAnalysis::analyze(&g, s);
        assert_eq!(
            lt.live_at_row(0),
            6,
            "paper: 6 alive registers in the first row"
        );
        assert_eq!(
            lt.live_at_row(1),
            5,
            "paper: 5 alive registers in the second row"
        );
        assert_eq!(lt.max_live(), 6);
    }

    #[test]
    fn accumulator_recurrence_is_scheduled_at_mii() {
        let mut b = DdgBuilder::new("acc");
        let ld = b.node("ld", OpKind::Load, 2);
        let mul = b.node("mul", OpKind::FpMul, 2);
        let acc = b.node("acc", OpKind::FpAdd, 1);
        let st = b.node("st", OpKind::Store, 1);
        b.edge(ld, mul, DepKind::RegFlow, 0).unwrap();
        b.edge(mul, acc, DepKind::RegFlow, 0).unwrap();
        b.edge(acc, acc, DepKind::RegFlow, 1).unwrap();
        b.edge(acc, st, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let outcome = HrmsScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.ii, outcome.metrics.mii);
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
    }

    #[test]
    fn recurrence_closing_node_lands_between_its_bounds() {
        // x -> y -> z -> x (distance 1 on the back edge). Whatever the
        // order, the node that closes the recurrence has both a scheduled
        // predecessor and a scheduled successor.
        let mut b = DdgBuilder::new("cycle3");
        let x = b.node("x", OpKind::FpAdd, 1);
        let y = b.node("y", OpKind::FpMul, 2);
        let z = b.node("z", OpKind::FpAdd, 1);
        b.edge(x, y, DepKind::RegFlow, 0).unwrap();
        b.edge(y, z, DepKind::RegFlow, 0).unwrap();
        b.edge(z, x, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let outcome = HrmsScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.rec_mii, 4);
        assert_eq!(outcome.metrics.ii, 4);
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
    }

    #[test]
    fn ii_escalates_when_resources_are_scarce() {
        // Five independent loads on a single load/store unit: MII = 5 is
        // already resource-exact, but add a recurrence that forces conflicts
        // between the recurrence window and the loads at low II.
        let mut b = DdgBuilder::new("escalate");
        let mut prev: Option<NodeId> = None;
        for i in 0..5 {
            let ld = b.node(format!("ld{i}"), OpKind::Load, 2);
            if let Some(p) = prev {
                b.edge(p, ld, DepKind::Memory, 0).unwrap();
            }
            prev = Some(ld);
        }
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let outcome = HrmsScheduler::new().schedule_loop(&g, &m).unwrap();
        assert_eq!(outcome.metrics.ii, 5);
        assert!(outcome.attempts >= 1);
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
    }

    #[test]
    fn zero_distance_cycles_are_rejected() {
        let mut b = DdgBuilder::new("bad");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let err = HrmsScheduler::new()
            .schedule_loop(&g, &presets::govindarajan())
            .unwrap_err();
        assert_eq!(err, SchedError::ZeroDistanceCycle);
    }

    #[test]
    fn program_order_ablation_also_produces_valid_schedules() {
        let (g, _) = figure1();
        let m = presets::general_purpose();
        let ablation = program_order_scheduler();
        assert_eq!(ablation.name(), "HRMS-no-preorder");
        let outcome = ablation.schedule_loop(&g, &m).unwrap();
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
        // The ablation may or may not use more registers on this tiny graph,
        // but it must never beat HRMS's II here.
        let hrms = HrmsScheduler::new().schedule_loop(&g, &m).unwrap();
        assert!(hrms.metrics.ii <= outcome.metrics.ii);
    }

    #[test]
    fn hrms_uses_fewer_registers_than_program_order_on_a_stretchy_graph() {
        // A graph designed to punish orderings that place source nodes too
        // early: many independent producers feeding one late consumer chain.
        let mut b = DdgBuilder::new("stretchy");
        let mut chain_prev = None;
        let mut chain_nodes = Vec::new();
        for i in 0..6 {
            let n = b.node(format!("chain{i}"), OpKind::FpAdd, 2);
            if let Some(p) = chain_prev {
                b.edge(p, n, DepKind::RegFlow, 0).unwrap();
            }
            chain_prev = Some(n);
            chain_nodes.push(n);
        }
        for (i, &chain_node) in chain_nodes.iter().enumerate() {
            let src = b.node(format!("src{i}"), OpKind::Load, 2);
            b.edge(src, chain_node, DepKind::RegFlow, 0).unwrap();
        }
        let g = b.build().unwrap();
        let m = presets::perfect_club();
        let hrms = HrmsScheduler::new().schedule_loop(&g, &m).unwrap();
        let ablation = program_order_scheduler().schedule_loop(&g, &m).unwrap();
        validate_schedule(&g, &m, &hrms.schedule).unwrap();
        validate_schedule(&g, &m, &ablation.schedule).unwrap();
        assert!(
            hrms.metrics.max_live <= ablation.metrics.max_live,
            "hypernode ordering should not need more registers ({} vs {})",
            hrms.metrics.max_live,
            ablation.metrics.max_live
        );
    }

    #[test]
    fn ordering_time_is_part_of_the_outcome() {
        let (g, _) = figure1();
        let outcome = HrmsScheduler::new()
            .schedule_loop(&g, &presets::general_purpose())
            .unwrap();
        assert!(outcome.ordering_time <= outcome.elapsed);
    }

    #[test]
    fn single_node_loop_schedules_at_ii_one() {
        let mut b = DdgBuilder::new("single");
        b.node("only", OpKind::FpAdd, 1);
        let g = b.build().unwrap();
        let outcome = HrmsScheduler::new()
            .schedule_loop(&g, &presets::govindarajan())
            .unwrap();
        assert_eq!(outcome.metrics.ii, 1);
        assert_eq!(outcome.schedule.cycle(NodeId(0)), 0);
    }

    #[test]
    fn larger_random_style_graph_is_scheduled_and_valid() {
        // A deterministic but irregular graph exercising all placement
        // branches (preds only, succs only, both, neither).
        let mut b = DdgBuilder::new("irregular");
        let mut ids = Vec::new();
        for i in 0..20 {
            let kind = match i % 5 {
                0 => OpKind::Load,
                1 => OpKind::FpMul,
                2 => OpKind::FpAdd,
                3 => OpKind::FpDiv,
                _ => OpKind::Store,
            };
            let lat = match kind {
                OpKind::Load | OpKind::FpMul => 2,
                OpKind::FpDiv => 17,
                _ => 1,
            };
            ids.push(b.node(format!("n{i}"), kind, lat));
        }
        for i in 0..15 {
            // Stores produce no value, so dependences leaving them are
            // memory-ordering edges.
            let kind = |src: usize| {
                if src % 5 == 4 {
                    DepKind::Memory
                } else {
                    DepKind::RegFlow
                }
            };
            b.edge(ids[i], ids[i + 3], kind(i), 0).unwrap();
            if i % 4 == 0 {
                b.edge(ids[i + 3], ids[i], kind(i + 3), 2).unwrap();
            }
        }
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let outcome = HrmsScheduler::new().schedule_loop(&g, &m).unwrap();
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
        assert!(outcome.metrics.ii >= outcome.metrics.mii);
    }
}
