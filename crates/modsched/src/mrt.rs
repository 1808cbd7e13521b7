//! The modulo reservation table (MRT).

use hrms_ddg::{NodeId, OpKind};
use hrms_machine::{ClassId, Machine};

/// Tracks functional-unit usage per *modulo slot*.
///
/// A modulo schedule re-executes the same kernel every II cycles, so an
/// operation placed at cycle `t` occupies a unit of its class in modulo slot
/// `t mod II` (and, for non-pipelined units, in the following
/// `occupancy − 1` slots as well). The MRT counts how many units of each
/// class are busy in each slot and refuses placements that would exceed the
/// class size.
///
/// Cycles may be negative (bottom-up and late placements schedule backwards
/// from cycle 0), so the slot is computed with Euclidean remainder.
#[derive(Debug, Clone)]
pub struct ModuloReservationTable {
    ii: u32,
    /// usage[class][slot] = number of busy units.
    usage: Vec<Vec<u32>>,
    /// capacity per class.
    capacity: Vec<u32>,
    /// Per node index: (class, first cycle, occupancy) while placed. Dense
    /// and grown lazily, so the once-per-placement-attempt "already placed?"
    /// check is an array read rather than a hash lookup.
    placements: Vec<Option<(ClassId, i64, u32)>>,
    /// Number of placed operations (kept incrementally).
    placed: usize,
}

impl ModuloReservationTable {
    /// Creates an empty table for the given machine and initiation interval.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is 0.
    pub fn new(machine: &Machine, ii: u32) -> Self {
        assert!(ii > 0, "the initiation interval must be at least 1");
        ModuloReservationTable {
            ii,
            usage: machine
                .classes()
                .iter()
                .map(|_| vec![0; ii as usize])
                .collect(),
            capacity: machine.classes().iter().map(|c| c.count).collect(),
            placements: Vec::new(),
            placed: 0,
        }
    }

    /// The initiation interval this table was built for.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Number of operations currently placed.
    #[inline]
    pub fn len(&self) -> usize {
        self.placed
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placed == 0
    }

    /// The recorded placement of `node`, if any.
    #[inline]
    fn placement_of(&self, node: NodeId) -> Option<(ClassId, i64, u32)> {
        self.placements.get(node.index()).copied().flatten()
    }

    fn slot(&self, cycle: i64) -> usize {
        cycle.rem_euclid(i64::from(self.ii)) as usize
    }

    /// Whether an operation of kind `kind` can be placed at `cycle` without
    /// oversubscribing its functional-unit class.
    ///
    /// A non-pipelined operation whose occupancy exceeds the II wraps around
    /// the table and demands the same slot more than once (its own execution
    /// overlaps the next iteration's instance), so the check accumulates the
    /// operation's per-slot demand before comparing against the capacity.
    ///
    /// Allocation-free: `O(occupancy)` when the operation fits inside one
    /// table period (the overwhelmingly common case), `O(II)` with a
    /// closed-form per-slot demand when it wraps. The placement scans of
    /// [`crate::PartialSchedule`] do not call it per candidate cycle: they
    /// scan the table once, with the same check, and accept exactly the
    /// cycles it accepts.
    pub fn can_place(&self, machine: &Machine, kind: OpKind, cycle: i64) -> bool {
        self.first_fit(machine, kind, cycle, 1, true).is_some()
    }

    /// Scans at most `span` cycles from `from` (inclusive), forward or
    /// backward, for the first cycle at which an operation of kind `kind`
    /// fits, or `None`. The table is left untouched: the caller commits
    /// with [`ModuloReservationTable::place`].
    ///
    /// The class is looked up once and the modulo slot is stepped, not
    /// recomputed, from one candidate to the next. When an operation that
    /// fits inside one period (`occupancy ≤ II`) is refused, the scan jumps
    /// past the refused window's last saturated slot (forward) or before
    /// its first one (backward): every start it skips covers that slot, so
    /// the cycle returned is the first one a candidate-by-candidate
    /// [`ModuloReservationTable::can_place`] scan accepts.
    pub(crate) fn first_fit(
        &self,
        machine: &Machine,
        kind: OpKind,
        from: i64,
        span: u32,
        forward: bool,
    ) -> Option<i64> {
        let class = machine.class_of(kind).index();
        let usage = &self.usage[class];
        let capacity = self.capacity[class];
        let occupancy = machine.occupancy_of(kind) as usize;
        let ii = self.ii as usize;
        // Window offsets stay below `II`, so one subtraction wraps a slot.
        let full = |s: usize| usage[if s >= ii { s - ii } else { s }] >= capacity;
        let mut slot = self.slot(from);
        let mut k = 0;
        while k < span as usize {
            // How many candidates the refusal at `slot` rules out.
            let refused = if occupancy > ii {
                // The operation covers every slot `occupancy / II` times and
                // `occupancy mod II` further slots from `slot` on.
                let base = (occupancy / ii) as u32;
                let rem = occupancy % ii;
                let fits = (0..ii).all(|s| {
                    let extra = u32::from((s + ii - slot) % ii < rem);
                    usage[s] + base + extra <= capacity
                });
                (!fits).then_some(1)
            } else if forward {
                (0..occupancy)
                    .rev()
                    .find(|&j| full(slot + j))
                    .map(|j| j + 1)
            } else {
                (0..occupancy)
                    .find(|&j| full(slot + j))
                    .map(|j| occupancy - j)
            };
            let Some(step) = refused else {
                let k = k as i64;
                return Some(if forward { from + k } else { from - k });
            };
            k += step;
            // `step ≤ II`, so one correction keeps the slot in `0..II`.
            slot = if forward {
                slot + step
            } else {
                slot + ii - step
            };
            if slot >= ii {
                slot -= ii;
            }
        }
        None
    }

    /// Places `node` (of kind `kind`) at `cycle`. Returns `false` (and leaves
    /// the table untouched) if the placement would oversubscribe a unit or if
    /// the node is already placed.
    pub fn place(&mut self, machine: &Machine, node: NodeId, kind: OpKind, cycle: i64) -> bool {
        if self.placement_of(node).is_some() || !self.can_place(machine, kind, cycle) {
            return false;
        }
        let class = machine.class_of(kind);
        let occupancy = machine.occupancy_of(kind);
        for k in 0..occupancy {
            let slot = self.slot(cycle + i64::from(k));
            self.usage[class.index()][slot] += 1;
        }
        let i = node.index();
        if i >= self.placements.len() {
            self.placements.resize(i + 1, None);
        }
        self.placements[i] = Some((class, cycle, occupancy));
        self.placed += 1;
        true
    }

    /// Removes a previously placed node, freeing its slots. Returns whether
    /// the node was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let Some((class, cycle, occupancy)) = self.placement_of(node) else {
            return false;
        };
        self.placements[node.index()] = None;
        self.placed -= 1;
        for k in 0..occupancy {
            let slot = self.slot(cycle + i64::from(k));
            debug_assert!(self.usage[class.index()][slot] > 0);
            self.usage[class.index()][slot] -= 1;
        }
        true
    }

    /// Number of units of `class` busy in modulo slot `slot`.
    pub fn usage(&self, class: ClassId, slot: usize) -> u32 {
        self.usage[class.index()][slot % self.ii as usize]
    }

    /// Total number of busy unit-slots divided by total capacity, a utilisation
    /// figure in `[0, 1]` used by reports.
    pub fn utilisation(&self) -> f64 {
        let busy: u32 = self.usage.iter().flatten().sum();
        let total: u32 = self.capacity.iter().map(|c| c * self.ii).sum();
        if total == 0 {
            0.0
        } else {
            f64::from(busy) / f64::from(total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_machine::presets;

    #[test]
    fn placement_respects_capacity() {
        let m = presets::govindarajan(); // single load/store unit
        let mut mrt = ModuloReservationTable::new(&m, 2);
        assert!(mrt.place(&m, NodeId(0), OpKind::Load, 0));
        assert!(!mrt.can_place(&m, OpKind::Load, 2), "slot 0 is taken");
        assert!(mrt.can_place(&m, OpKind::Load, 1));
        assert!(mrt.place(&m, NodeId(1), OpKind::Load, 5)); // slot 1
        assert!(!mrt.can_place(&m, OpKind::Store, 0));
        assert!(!mrt.can_place(&m, OpKind::Store, 1));
        // A different class is unaffected.
        assert!(mrt.can_place(&m, OpKind::FpAdd, 0));
        assert_eq!(mrt.len(), 2);
    }

    #[test]
    fn negative_cycles_wrap_correctly() {
        let m = presets::govindarajan();
        let mut mrt = ModuloReservationTable::new(&m, 3);
        assert!(mrt.place(&m, NodeId(0), OpKind::Load, -1)); // slot 2
        assert!(!mrt.can_place(&m, OpKind::Load, 2));
        assert!(mrt.can_place(&m, OpKind::Load, 0));
    }

    #[test]
    fn removal_frees_slots() {
        let m = presets::govindarajan();
        let mut mrt = ModuloReservationTable::new(&m, 2);
        assert!(mrt.place(&m, NodeId(0), OpKind::FpMul, 0));
        assert!(!mrt.can_place(&m, OpKind::FpMul, 0));
        assert!(mrt.remove(NodeId(0)));
        assert!(mrt.can_place(&m, OpKind::FpMul, 0));
        assert!(!mrt.remove(NodeId(0)), "already removed");
        assert!(mrt.is_empty());
    }

    #[test]
    fn duplicate_placement_is_rejected() {
        let m = presets::govindarajan();
        let mut mrt = ModuloReservationTable::new(&m, 4);
        assert!(mrt.place(&m, NodeId(0), OpKind::FpAdd, 0));
        assert!(!mrt.place(&m, NodeId(0), OpKind::FpAdd, 1));
    }

    #[test]
    fn non_pipelined_ops_occupy_multiple_slots() {
        let m = presets::perfect_club(); // 2 non-pipelined div/sqrt units, div latency 17
        let mut mrt = ModuloReservationTable::new(&m, 9);
        // One division occupies ceil(17/9) = 2 units in some slots, so a
        // second division cannot be placed anywhere, but the capacity of 2
        // units makes a single one fit.
        assert!(mrt.place(&m, NodeId(0), OpKind::FpDiv, 0));
        // With II = 9 and occupancy 17, slots 0..8 all have usage >= 1 and
        // slots 0..7 have usage 2.
        let class = m.class_of(OpKind::FpDiv);
        assert_eq!(mrt.usage(class, 0), 2);
        assert_eq!(mrt.usage(class, 8), 1);
        assert!(!mrt.can_place(&m, OpKind::FpDiv, 0));
        // The adders are untouched.
        assert!(mrt.can_place(&m, OpKind::FpAdd, 0));
    }

    #[test]
    fn non_pipelined_two_divisions_need_ii_17() {
        let m = presets::perfect_club();
        let mut mrt = ModuloReservationTable::new(&m, 17);
        assert!(mrt.place(&m, NodeId(0), OpKind::FpDiv, 0));
        assert!(mrt.place(&m, NodeId(1), OpKind::FpDiv, 5));
        assert!(!mrt.can_place(&m, OpKind::FpDiv, 11), "both units busy");
    }

    #[test]
    fn wrapping_op_counts_its_own_double_demand() {
        // A square root (occupancy 30) at II = 24 demands two units in six
        // of the slots; if one of those slots already has a unit busy, the
        // placement must be refused even though each single check would
        // pass.
        let m = presets::perfect_club();
        let mut mrt = ModuloReservationTable::new(&m, 24);
        assert!(mrt.place(&m, NodeId(0), OpKind::FpDiv, 22)); // slots 22..14
        assert!(
            !mrt.can_place(&m, OpKind::FpSqrt, 22),
            "the sqrt needs 2 units in slot 22 but only 1 is free"
        );
        assert!(mrt.place(&m, NodeId(1), OpKind::FpSqrt, 15));
    }

    #[test]
    fn pipelined_units_only_occupy_issue_slot() {
        let m = presets::govindarajan();
        let mut mrt = ModuloReservationTable::new(&m, 2);
        // The divider is pipelined: latency 17 but occupancy 1.
        assert!(mrt.place(&m, NodeId(0), OpKind::FpDiv, 0));
        assert!(mrt.place(&m, NodeId(1), OpKind::FpDiv, 1));
        assert!(!mrt.can_place(&m, OpKind::FpDiv, 2));
    }

    #[test]
    fn utilisation_reflects_busy_slots() {
        let m = presets::general_purpose(); // 4 units, ii 2 -> 8 unit-slots
        let mut mrt = ModuloReservationTable::new(&m, 2);
        assert_eq!(mrt.utilisation(), 0.0);
        mrt.place(&m, NodeId(0), OpKind::FpAdd, 0);
        mrt.place(&m, NodeId(1), OpKind::FpAdd, 1);
        assert!((mrt.utilisation() - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ii_panics() {
        let m = presets::govindarajan();
        let _ = ModuloReservationTable::new(&m, 0);
    }
}
