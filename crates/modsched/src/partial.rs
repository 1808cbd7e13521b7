//! Partial schedules: the mutable state a scheduler builds up node by node.

use std::sync::Arc;

use hrms_ddg::{Ddg, NodeId, PlacementCsr};
use hrms_machine::Machine;

use crate::mrt::ModuloReservationTable;
use crate::schedule::Schedule;

/// Sentinel for "not placed" in the dense cycle array. Real cycles are sums
/// of latencies and `II` multiples and can never reach `i64::MIN`.
const UNPLACED: i64 = i64::MIN;

/// A partially-built modulo schedule: a set of placed operations together
/// with the modulo reservation table that tracks their resource usage.
///
/// Both HRMS and the baselines drive scheduling through this type, which
/// exposes the paper's `Early_Start` / `Late_Start` computations and the
/// modulo-constrained slot scans of Section 3.3.
///
/// # Dense placement path
///
/// Placed cycles live in a dense `Vec<i64>` indexed by node id, so
/// `cycle_of`/`is_scheduled` are array reads instead of hash lookups. The
/// schedule holds the loop's [`PlacementCsr`] — per-node dependence arcs
/// with precomputed [`hrms_ddg::dependence_latency`] values — and computes
/// `Early_Start`/`Late_Start` by scanning those flat slices (`O(degree)`
/// with no per-edge latency dispatch).
#[derive(Debug, Clone)]
pub struct PartialSchedule {
    ii: u32,
    /// Cycle per node index, [`UNPLACED`] when absent.
    cycles: Vec<i64>,
    /// Number of placed operations (kept incrementally).
    placed: usize,
    mrt: ModuloReservationTable,
    /// Dense dependence arcs of the loop being scheduled. Shared via
    /// [`Arc`]: cloning a partial schedule (the branch-and-bound search
    /// does this on every leaf) must not copy the arc arrays.
    arcs: Arc<PlacementCsr>,
}

impl PartialSchedule {
    /// Creates an empty partial schedule for the given II that computes
    /// `Early_Start` / `Late_Start` over the loop's dense placement arcs
    /// (typically `analysis.placement().clone()` from a
    /// [`hrms_ddg::LoopAnalysis`]).
    ///
    /// # Panics
    ///
    /// Panics if `ii` is 0.
    pub fn with_placement(machine: &Machine, ii: u32, arcs: Arc<PlacementCsr>) -> Self {
        PartialSchedule {
            ii,
            cycles: vec![UNPLACED; arcs.node_bound()],
            placed: 0,
            mrt: ModuloReservationTable::new(machine, ii),
            arcs,
        }
    }

    /// The initiation interval being scheduled for.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Number of operations already placed.
    #[inline]
    pub fn len(&self) -> usize {
        self.placed
    }

    /// Whether no operation has been placed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placed == 0
    }

    /// The cycle at dense index `i`, if placed.
    #[inline]
    fn cycle_at(&self, i: usize) -> Option<i64> {
        match self.cycles.get(i) {
            Some(&c) if c != UNPLACED => Some(c),
            _ => None,
        }
    }

    /// Records `cycle` for `node`.
    #[inline]
    fn set_cycle(&mut self, node: NodeId, cycle: i64) {
        let i = node.index();
        debug_assert_eq!(self.cycles[i], UNPLACED, "node {node} placed twice");
        self.cycles[i] = cycle;
        self.placed += 1;
    }

    /// The cycle assigned to `node`, if it has been placed.
    #[inline]
    pub fn cycle_of(&self, node: NodeId) -> Option<i64> {
        self.cycle_at(node.index())
    }

    /// Whether `node` has been placed.
    #[inline]
    pub fn is_scheduled(&self, node: NodeId) -> bool {
        self.cycle_at(node.index()).is_some()
    }

    /// Iterates over the placed operations and their cycles, in ascending
    /// node-id order.
    pub fn placements(&self) -> impl Iterator<Item = (NodeId, i64)> + '_ {
        self.cycles
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != UNPLACED)
            .map(|(i, &c)| (NodeId::from_index(i), c))
    }

    /// The *predecessors scheduled previously* of `u` — `PSP(u)` in the
    /// paper.
    pub fn scheduled_predecessors(&self, ddg: &Ddg, u: NodeId) -> Vec<NodeId> {
        ddg.predecessors(u)
            .into_iter()
            .filter(|p| *p != u && self.is_scheduled(*p))
            .collect()
    }

    /// The *successors scheduled previously* of `u` — `PSS(u)` in the paper.
    pub fn scheduled_successors(&self, ddg: &Ddg, u: NodeId) -> Vec<NodeId> {
        ddg.successors(u)
            .into_iter()
            .filter(|s| *s != u && self.is_scheduled(*s))
            .collect()
    }

    /// The paper's `Early_Start(u)`:
    /// `max over scheduled predecessors v of t(v) + λ(v) − δ(v,u)·II`.
    ///
    /// Returns `None` when no predecessor has been scheduled. `O(in-degree)`
    /// over the dense arc slice (self-dependences excluded: they only bound
    /// the II, never a placement).
    pub fn early_start(&self, u: NodeId) -> Option<i64> {
        let ii = i64::from(self.ii);
        let mut best: Option<i64> = None;
        for a in self.arcs.in_arcs(u.index()) {
            let Some(tv) = self.cycle_at(a.other as usize) else {
                continue;
            };
            let bound = tv + i64::from(a.latency) - i64::from(a.distance) * ii;
            best = Some(best.map_or(bound, |b: i64| b.max(bound)));
        }
        best
    }

    /// The paper's `Late_Start(u)`:
    /// `min over scheduled successors v of t(v) − λ(u) + δ(u,v)·II`.
    ///
    /// Returns `None` when no successor has been scheduled. `O(out-degree)`
    /// over the dense arc slice.
    pub fn late_start(&self, u: NodeId) -> Option<i64> {
        let ii = i64::from(self.ii);
        let mut best: Option<i64> = None;
        for a in self.arcs.out_arcs(u.index()) {
            let Some(tv) = self.cycle_at(a.other as usize) else {
                continue;
            };
            let bound = tv - i64::from(a.latency) + i64::from(a.distance) * ii;
            best = Some(best.map_or(bound, |b: i64| b.min(bound)));
        }
        best
    }

    /// Scans forward from `from` (inclusive) over at most `span` cycles for
    /// the first cycle where `u` fits in the reservation table, and places it
    /// there. Returns the chosen cycle, or `None` if no slot was free or `u`
    /// is already placed.
    ///
    /// Scanning more than II cycles is pointless because of the modulo
    /// constraint; the schedulers pass `span = II` (or the distance to a
    /// deadline if smaller).
    ///
    /// The cycle is the first `from + k` that
    /// [`ModuloReservationTable::can_place`] accepts, but the scan does not
    /// test each candidate: it looks the operation's class up once, steps
    /// the modulo slot instead of dividing, and skips every start whose
    /// window covers a saturated slot it has already seen.
    pub fn place_forward(
        &mut self,
        ddg: &Ddg,
        machine: &Machine,
        u: NodeId,
        from: i64,
        span: u32,
    ) -> Option<i64> {
        self.place_first_fit(ddg, machine, u, from, span, true)
    }

    /// Scans backward from `from` (inclusive) over at most `span` cycles for
    /// the first cycle where `u` fits, and places it there. The mirror image
    /// of [`PartialSchedule::place_forward`].
    pub fn place_backward(
        &mut self,
        ddg: &Ddg,
        machine: &Machine,
        u: NodeId,
        from: i64,
        span: u32,
    ) -> Option<i64> {
        self.place_first_fit(ddg, machine, u, from, span, false)
    }

    fn place_first_fit(
        &mut self,
        ddg: &Ddg,
        machine: &Machine,
        u: NodeId,
        from: i64,
        span: u32,
        forward: bool,
    ) -> Option<i64> {
        if self.is_scheduled(u) {
            return None;
        }
        let kind = ddg.node(u).kind();
        let cycle = self.mrt.first_fit(machine, kind, from, span, forward)?;
        let placed = self.mrt.place(machine, u, kind, cycle);
        debug_assert!(placed, "the scan returned a cycle the table refuses");
        self.set_cycle(u, cycle);
        Some(cycle)
    }

    /// Places `u` exactly at `cycle` if the reservation table allows it.
    pub fn place_at(&mut self, ddg: &Ddg, machine: &Machine, u: NodeId, cycle: i64) -> bool {
        let kind = ddg.node(u).kind();
        if self.mrt.place(machine, u, kind, cycle) {
            self.set_cycle(u, cycle);
            true
        } else {
            false
        }
    }

    /// Removes `u` from the partial schedule (used by backtracking
    /// schedulers such as Slack). Returns whether it was present.
    pub fn unplace(&mut self, u: NodeId) -> bool {
        let i = u.index();
        if self.cycle_at(i).is_some() {
            self.cycles[i] = UNPLACED;
            self.placed -= 1;
            self.mrt.remove(u);
            true
        } else {
            false
        }
    }

    /// Finalises the partial schedule into an immutable [`Schedule`].
    ///
    /// # Panics
    ///
    /// Panics if some node of `ddg` has not been placed; schedulers only
    /// call this once every node is scheduled.
    pub fn into_schedule(self, ddg: &Ddg) -> Schedule {
        let cycles: Vec<i64> = ddg
            .node_ids()
            .map(|n| {
                self.cycle_at(n.index())
                    .unwrap_or_else(|| panic!("node {n} was never scheduled"))
            })
            .collect();
        Schedule::new(self.ii, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind, OpKind};
    use hrms_machine::{presets, ClassId, MachineBuilder, ResourceClass};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// An empty partial schedule over `g`'s placement arcs.
    fn partial(g: &Ddg, m: &Machine, ii: u32) -> PartialSchedule {
        PartialSchedule::with_placement(m, ii, Arc::new(PlacementCsr::from_graph(g)))
    }

    fn simple() -> (Ddg, Vec<NodeId>) {
        // a -> b (flow, dist 0), b -> c (flow, dist 1)
        let mut bld = DdgBuilder::new("p");
        let a = bld.node("a", OpKind::Load, 2);
        let b = bld.node("b", OpKind::FpMul, 2);
        let c = bld.node("c", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, c, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        (g, vec![a, b, c])
    }

    #[test]
    fn early_start_uses_latency_and_distance() {
        let (g, ids) = simple();
        let m = presets::govindarajan();
        let mut ps = partial(&g, &m, 2);
        assert!(ps.early_start(ids[1]).is_none());
        ps.place_at(&g, &m, ids[0], 0);
        assert_eq!(ps.early_start(ids[1]), Some(2), "t(a) + λ(a)");
        ps.place_at(&g, &m, ids[1], 2);
        // c depends on b with distance 1: early start = 2 + 2 - 1*2 = 2.
        assert_eq!(ps.early_start(ids[2]), Some(2));
    }

    #[test]
    fn late_start_mirrors_early_start() {
        let (g, ids) = simple();
        let m = presets::govindarajan();
        let mut ps = partial(&g, &m, 2);
        ps.place_at(&g, &m, ids[2], 6);
        // b must finish before c (+ distance 1): late = 6 - 2 + 2 = 6.
        assert_eq!(ps.late_start(ids[1]), Some(6));
        ps.place_at(&g, &m, ids[1], 4);
        assert_eq!(ps.late_start(ids[0]), Some(2));
        assert!(ps.late_start(ids[2]).is_none());
    }

    #[test]
    fn self_loops_do_not_constrain_placement() {
        let mut bld = DdgBuilder::new("self");
        let a = bld.node("a", OpKind::FpAdd, 1);
        bld.edge(a, a, DepKind::RegFlow, 1).unwrap();
        let g = bld.build().unwrap();
        let m = presets::govindarajan();
        let mut ps = partial(&g, &m, 1);
        ps.place_at(&g, &m, a, 0);
        assert_eq!(ps.early_start(a), None);
        assert_eq!(ps.late_start(a), None);
    }

    #[test]
    fn forward_scan_skips_busy_slots() {
        let (g, ids) = simple();
        let m = presets::govindarajan();
        let mut ps = partial(&g, &m, 2);
        // Fill the load/store unit's slot 0 with node a.
        assert_eq!(ps.place_forward(&g, &m, ids[0], 0, 2), Some(0));
        // b is a multiply: unaffected, goes at its requested cycle.
        assert_eq!(ps.place_forward(&g, &m, ids[1], 2, 2), Some(2));
        assert_eq!(ps.len(), 2);
        assert!(ps.is_scheduled(ids[0]));
        assert!(!ps.is_scheduled(ids[2]));
    }

    #[test]
    fn forward_scan_fails_when_window_is_full() {
        let m = presets::govindarajan();
        let mut bld = DdgBuilder::new("loads");
        let l0 = bld.node("l0", OpKind::Load, 2);
        let l1 = bld.node("l1", OpKind::Load, 2);
        let l2 = bld.node("l2", OpKind::Load, 2);
        let g = bld.build().unwrap();
        let mut ps = partial(&g, &m, 2);
        assert!(ps.place_forward(&g, &m, l0, 0, 2).is_some());
        assert!(ps.place_forward(&g, &m, l1, 0, 2).is_some());
        assert!(
            ps.place_forward(&g, &m, l2, 0, 2).is_none(),
            "both modulo slots of the single load/store unit are taken"
        );
    }

    #[test]
    fn backward_scan_places_as_late_as_possible() {
        let m = presets::govindarajan();
        let mut bld = DdgBuilder::new("l");
        let first = bld.node("first", OpKind::Load, 2);
        let extra = bld.node("extra", OpKind::Load, 2);
        let g = bld.build().unwrap();
        let mut ps = partial(&g, &m, 2);
        assert_eq!(ps.place_backward(&g, &m, first, 5, 2), Some(5));
        // Second load: slot 5 mod 2 = 1 is taken, so it lands on 4.
        assert_eq!(ps.place_backward(&g, &m, extra, 5, 2), Some(4));
    }

    #[test]
    fn unplace_restores_resources() {
        let (g, ids) = simple();
        let m = presets::govindarajan();
        let mut ps = partial(&g, &m, 1);
        assert!(ps.place_at(&g, &m, ids[0], 0));
        assert!(!ps.place_at(&g, &m, ids[0], 1), "already placed");
        assert!(ps.unplace(ids[0]));
        assert!(!ps.unplace(ids[0]));
        assert!(ps.place_at(&g, &m, ids[0], 1));
    }

    #[test]
    fn into_schedule_collects_all_cycles() {
        let (g, ids) = simple();
        let m = presets::govindarajan();
        let mut ps = partial(&g, &m, 2);
        ps.place_at(&g, &m, ids[0], 0);
        ps.place_at(&g, &m, ids[1], 2);
        ps.place_at(&g, &m, ids[2], 4);
        let s = ps.into_schedule(&g);
        assert_eq!(s.ii(), 2);
        assert_eq!(s.cycle(ids[2]) - s.cycle(ids[0]), 4);
    }

    #[test]
    fn unplacing_a_node_drops_the_bounds_it_imposed() {
        let (g, ids) = simple();
        let m = presets::govindarajan();
        let mut ps = partial(&g, &m, 2);
        for (u, c) in [(ids[0], 0i64), (ids[2], 6)] {
            assert!(ps.place_at(&g, &m, u, c));
        }
        assert_eq!(ps.early_start(ids[1]), Some(2));
        assert_eq!(ps.late_start(ids[1]), Some(6));
        assert_eq!(ps.len(), 2);
        assert!(ps.unplace(ids[2]));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.late_start(ids[1]), None);
    }

    #[test]
    fn placements_iterate_in_node_order() {
        let (g, ids) = simple();
        let m = presets::govindarajan();
        let mut ps = partial(&g, &m, 2);
        ps.place_at(&g, &m, ids[2], 4);
        ps.place_at(&g, &m, ids[0], 0);
        let got: Vec<(NodeId, i64)> = ps.placements().collect();
        assert_eq!(got, vec![(ids[0], 0), (ids[2], 4)]);
    }

    #[test]
    #[should_panic(expected = "never scheduled")]
    fn into_schedule_panics_on_missing_nodes() {
        let (g, ids) = simple();
        let m = presets::govindarajan();
        let mut ps = partial(&g, &m, 2);
        ps.place_at(&g, &m, ids[0], 0);
        let _ = ps.into_schedule(&g);
    }

    /// A machine with one non-pipelined unit whose kinds keep it busy for
    /// fewer, exactly II and more cycles than `ii`, next to a non-pipelined
    /// class of two units (where an operation longer than II can fit) and a
    /// pipelined one.
    fn scan_machine(ii: u32, rng: &mut StdRng) -> Machine {
        let below = ii.saturating_sub(1).max(1);
        let above = ii + rng.gen_range(1..=2 * ii);
        MachineBuilder::new("scan")
            .class(ResourceClass::unpipelined("np1", 1))
            .class(ResourceClass::unpipelined("np2", 2))
            .class(ResourceClass::pipelined("p", 2))
            .map(OpKind::FpAdd, 0, 1)
            .map(OpKind::FpMul, 0, below)
            .map(OpKind::FpDiv, 0, ii)
            .map(OpKind::FpSqrt, 0, above)
            .map(OpKind::IntAlu, 1, rng.gen_range(1..=2 * ii))
            .map_all_remaining_to(2, 2)
            .build()
            .unwrap()
    }

    /// The per-candidate scan the placement scans replace: the first
    /// `from ± k`, `k < span`, that the table accepts.
    fn reference_scan(
        mrt: &ModuloReservationTable,
        machine: &Machine,
        kind: OpKind,
        from: i64,
        span: u32,
        forward: bool,
    ) -> Option<i64> {
        (0..i64::from(span))
            .map(|k| if forward { from + k } else { from - k })
            .find(|&c| mrt.can_place(machine, kind, c))
    }

    #[test]
    fn scans_pick_the_first_slot_the_table_accepts() {
        let kinds = [
            OpKind::FpAdd,
            OpKind::FpMul,
            OpKind::FpDiv,
            OpKind::FpSqrt,
            OpKind::IntAlu,
            OpKind::Load,
        ];
        let mut rng = StdRng::seed_from_u64(0x5CA7);
        let mut scans = [0usize; 2];
        for _ in 0..400 {
            let ii = rng.gen_range(1..=9u32);
            let m = scan_machine(ii, &mut rng);
            let mut b = DdgBuilder::new("scan");
            let nodes: Vec<NodeId> = (0..10)
                .map(|i| b.node(format!("n{i}"), kinds[rng.gen_range(0..kinds.len())], 1))
                .collect();
            let g = b.build().unwrap();
            let mut ps = partial(&g, &m, ii);
            for _ in 0..40 {
                let u = nodes[rng.gen_range(0..nodes.len())];
                if ps.is_scheduled(u) && rng.gen_bool(0.5) {
                    // Free some slots so the table's fill keeps varying.
                    ps.unplace(u);
                    continue;
                }
                let kind = g.node(u).kind();
                let ii = i64::from(ii);
                let from = rng.gen_range(-3 * ii..=3 * ii);
                let span = rng.gen_range(0..=2 * ii as u32 + 2);
                let forward = rng.gen_bool(0.5);
                let expected = if ps.is_scheduled(u) {
                    None
                } else {
                    reference_scan(&ps.mrt, &m, kind, from, span, forward)
                };
                let mut reference = ps.mrt.clone();
                if let Some(c) = expected {
                    assert!(reference.place(&m, u, kind, c));
                }
                let got = if forward {
                    ps.place_forward(&g, &m, u, from, span)
                } else {
                    ps.place_backward(&g, &m, u, from, span)
                };
                assert_eq!(
                    got,
                    expected,
                    "{kind:?} (occupancy {}) at II {ii}, from {from}, span {span}, \
                     forward {forward}",
                    m.occupancy_of(kind)
                );
                scans[usize::from(got.is_some())] += 1;
                for class in 0..m.num_classes() as u32 {
                    for slot in 0..ii as usize {
                        let class = ClassId(class);
                        assert_eq!(ps.mrt.usage(class, slot), reference.usage(class, slot));
                    }
                }
                assert_eq!((ps.len(), ps.mrt.len()), (reference.len(), reference.len()));
            }
        }
        // Both outcomes are common, so neither path is tested vacuously.
        assert!(scans.iter().all(|&n| n > 3000), "{scans:?}");
    }
}
