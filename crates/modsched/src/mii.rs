//! Minimum initiation interval: `MII = max(ResMII, RecMII)`.
//!
//! The ResMII comes from the machine's resources ([`res_mii`]). The RecMII
//! is a fact of the loop alone: [`LoopAnalysis::rec_mii`] reads it off the
//! loop's cycle-ratio pass, which runs once per loop and is shared by
//! every machine.

use hrms_ddg::LoopAnalysis;
use hrms_machine::{res_mii, Machine};

use crate::error::SchedError;

/// The three lower bounds on the initiation interval of a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiiInfo {
    /// Resource-constrained bound.
    pub res_mii: u32,
    /// Recurrence-constrained bound (0 when the loop has no recurrence).
    pub rec_mii: u32,
}

impl MiiInfo {
    /// Computes both bounds over a shared per-loop analysis: the ResMII
    /// from `machine`'s resources, the RecMII from (and cached in)
    /// `analysis` — so a scheduler that also pre-orders or computes start
    /// times pays the recurrence analysis only once, and N machines
    /// sharing one [`hrms_ddg::LoopCore`] pay it once in total.
    ///
    /// This is the single entry point (the old `compute(ddg, machine)` /
    /// `compute_with(ddg, machine, analysis)` pair collapsed into it);
    /// callers without an analysis at hand wrap the graph on the spot:
    /// `MiiInfo::compute(&machine, &LoopAnalysis::analyze(&ddg))`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::ZeroDistanceCycle`] if the loop body contains a
    /// dependence cycle of total distance zero, and
    /// [`SchedError::NoValidSchedule`] with `max_ii_tried: u32::MAX` if the
    /// RecMII exceeds the largest II a schedule can have.
    pub fn compute(machine: &Machine, analysis: &LoopAnalysis<'_>) -> Result<Self, SchedError> {
        let res = res_mii(analysis.ddg(), machine);
        let rec = analysis.rec_mii().ok_or(SchedError::ZeroDistanceCycle)?;
        let rec = u32::try_from(rec).map_err(|_| SchedError::NoValidSchedule {
            max_ii_tried: u32::MAX,
        })?;
        Ok(MiiInfo {
            res_mii: res,
            rec_mii: rec,
        })
    }

    /// The minimum initiation interval `max(ResMII, RecMII)` (at least 1).
    pub fn mii(&self) -> u32 {
        self.res_mii.max(self.rec_mii).max(1)
    }

    /// Whether the loop is recurrence-bound (its recurrences are more
    /// restrictive than its resource usage).
    pub fn recurrence_bound(&self) -> bool {
        self.rec_mii > self.res_mii
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{dependence_latency, Ddg, DdgBuilder, DepKind, OpKind};
    use hrms_machine::presets;

    fn rec_mii(g: &Ddg) -> Option<u64> {
        LoopAnalysis::analyze(g).rec_mii()
    }

    fn accumulator_loop() -> Ddg {
        // load -> mul -> acc(+), acc has a self-dependence of distance 1.
        let mut b = DdgBuilder::new("acc");
        let ld = b.node("ld", OpKind::Load, 2);
        let mul = b.node("mul", OpKind::FpMul, 2);
        let acc = b.node("acc", OpKind::FpAdd, 1);
        b.edge(ld, mul, DepKind::RegFlow, 0).unwrap();
        b.edge(mul, acc, DepKind::RegFlow, 0).unwrap();
        b.edge(acc, acc, DepKind::RegFlow, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn acyclic_graph_has_zero_rec_mii() {
        let g = hrms_ddg::chain("c", 5, OpKind::FpAdd, 1);
        assert_eq!(rec_mii(&g), Some(0));
        let info = MiiInfo::compute(&presets::govindarajan(), &LoopAnalysis::analyze(&g)).unwrap();
        assert_eq!(info.rec_mii, 0);
        assert_eq!(info.mii(), info.res_mii);
        assert!(!info.recurrence_bound());
    }

    #[test]
    fn self_loop_rec_mii_equals_latency_over_distance() {
        let g = accumulator_loop();
        assert_eq!(rec_mii(&g), Some(1));
        let mut b = DdgBuilder::new("slow_acc");
        let acc = b.node("acc", OpKind::FpAdd, 4);
        b.edge(acc, acc, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(rec_mii(&g), Some(4));
    }

    #[test]
    fn two_node_recurrence_rec_mii() {
        // a(λ=17) -> b(λ=1) -> a with distance 2: RecMII = ceil(18/2) = 9.
        let mut b = DdgBuilder::new("r");
        let a = b.node("a", OpKind::FpDiv, 17);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 2).unwrap();
        let g = b.build().unwrap();
        assert_eq!(rec_mii(&g), Some(9));
    }

    #[test]
    fn rec_mii_matches_circuit_enumeration_bound() {
        let g = accumulator_loop();
        let info = hrms_oracle::RecurrenceInfo::analyze(&g);
        assert_eq!(rec_mii(&g).unwrap(), info.rec_mii_lower_bound());
    }

    #[test]
    fn zero_distance_cycle_is_rejected() {
        let mut b = DdgBuilder::new("bad");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(rec_mii(&g), None);
        assert_eq!(
            MiiInfo::compute(&presets::govindarajan(), &LoopAnalysis::analyze(&g)),
            Err(SchedError::ZeroDistanceCycle)
        );
    }

    #[test]
    fn mii_takes_the_larger_bound() {
        let g = accumulator_loop();
        let m = presets::govindarajan();
        let info = MiiInfo::compute(&m, &LoopAnalysis::analyze(&g)).unwrap();
        // ResMII: 1 load + 1 mul + 1 add on distinct single units -> 1 each;
        // RecMII = 1; MII = 1.
        assert_eq!(info.mii(), 1);

        // Make the recurrence slower than the resources.
        let mut b = DdgBuilder::new("rec_bound");
        let acc = b.node("acc", OpKind::FpAdd, 1);
        let div = b.node("div", OpKind::FpDiv, 17);
        b.edge(acc, div, DepKind::RegFlow, 0).unwrap();
        b.edge(div, acc, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let info = MiiInfo::compute(&m, &LoopAnalysis::analyze(&g)).unwrap();
        assert_eq!(info.rec_mii, 18);
        assert!(info.recurrence_bound());
        assert_eq!(info.mii(), 18);
    }

    #[test]
    fn a_rec_mii_above_u32_max_has_no_valid_schedule() {
        // Two operations of 3·10⁹ cycles in one circuit of distance 1:
        // RecMII 6·10⁹, which no u32 II reaches.
        let mut b = DdgBuilder::new("huge");
        let a = b.node("a", OpKind::FpAdd, 3_000_000_000);
        let c = b.node("c", OpKind::FpAdd, 3_000_000_000);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(rec_mii(&g), Some(6_000_000_000));
        assert_eq!(
            MiiInfo::compute(&presets::govindarajan(), &LoopAnalysis::analyze(&g)),
            Err(SchedError::NoValidSchedule {
                max_ii_tried: u32::MAX
            })
        );
    }

    #[test]
    fn anti_dependences_only_need_issue_order() {
        let mut b = DdgBuilder::new("anti");
        let ld = b.node("ld", OpKind::Load, 2);
        let st = b.node("st", OpKind::Store, 1);
        b.edge(ld, st, DepKind::RegAnti, 0).unwrap();
        let g = b.build().unwrap();
        let (_, e) = g.edges().next().unwrap();
        assert_eq!(dependence_latency(&g, e), 1);
    }

    #[test]
    fn earliest_starts_respect_latencies() {
        let g = accumulator_loop();
        let est = LoopAnalysis::analyze(&g).earliest_starts(1).unwrap();
        assert_eq!(est, vec![0, 2, 4]);
        // Infeasible II returns None.
        let mut b = DdgBuilder::new("tight");
        let a = b.node("a", OpKind::FpAdd, 4);
        b.edge(a, a, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let la = LoopAnalysis::analyze(&g);
        assert!(la.earliest_starts(3).is_none());
        assert!(la.earliest_starts(4).is_some());
    }
}
