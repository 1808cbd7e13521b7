//! Minimum initiation interval: `MII = max(ResMII, RecMII)`.
//!
//! The Bellman-Ford cores (longest paths, positive-cycle detection, the
//! exact RecMII binary search) live in [`hrms_ddg::analysis`] so they run
//! over the flat, latency-resolved edge list a [`LoopAnalysis`] caches once
//! per loop; its `earliest_starts` / `latest_starts` / `rec_mii` methods
//! (and [`zero_slack_nodes`] here) are the only entry points.

use hrms_ddg::analysis::{latest_starts_from, longest_paths};
use hrms_ddg::{LoopAnalysis, NodeId};
use hrms_machine::{res_mii, Machine};

use crate::error::SchedError;

// Re-exported from the analysis module (moved there so the shared per-loop
// cache can precompute latencies without depending on this crate); the
// `hrms_modsched::mii::dependence_latency` path remains valid.
pub use hrms_ddg::analysis::dependence_latency;

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
    /// dependence cycle of total distance zero.
    pub fn compute(machine: &Machine, analysis: &LoopAnalysis<'_>) -> Result<Self, SchedError> {
        let res = res_mii(analysis.ddg(), machine);
        let rec = analysis.rec_mii().ok_or(SchedError::ZeroDistanceCycle)?;
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

/// Convenience: the set of nodes whose earliest and latest start coincide at
/// `ii` (zero slack), i.e. the nodes on the binding recurrence/critical
/// path, over a shared per-loop analysis (the cached edge list drives both
/// Bellman-Ford passes; the old `zero_slack_nodes(ddg, ii)` /
/// `zero_slack_nodes_with(analysis, ii)` pair collapsed into this).
pub fn zero_slack_nodes(analysis: &LoopAnalysis<'_>, ii: u32) -> Vec<NodeId> {
    let (ddg, edges) = (analysis.ddg(), analysis.dep_edges());
    let n = ddg.num_nodes();
    let Some(early) = longest_paths(n, edges, ii) else {
        return Vec::new();
    };
    let horizon = early.iter().copied().max().unwrap_or(0)
        + ddg
            .nodes()
            .map(|(_, node)| i64::from(node.latency()))
            .max()
            .unwrap_or(0);
    let Some(late) = latest_starts_from(n, edges, ii, horizon) else {
        return Vec::new();
    };
    let min_slack = (0..n).map(|i| late[i] - early[i]).min().unwrap_or(0);
    (0..n)
        .filter(|&i| late[i] - early[i] == min_slack)
        .map(NodeId::from_index)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{Ddg, DdgBuilder, DepKind, OpKind};
    use hrms_machine::presets;

    fn rec_mii(g: &Ddg) -> Option<u32> {
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
        assert_eq!(u64::from(rec_mii(&g).unwrap()), info.rec_mii_lower_bound());
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

    #[test]
    fn latest_starts_are_consistent_with_earliest() {
        let g = accumulator_loop();
        let la = LoopAnalysis::analyze(&g);
        let est = la.earliest_starts(2).unwrap();
        let horizon = 10;
        let lst = la.latest_starts(2, horizon).unwrap();
        for i in 0..g.num_nodes() {
            assert!(lst[i] >= est[i], "slack must be non-negative");
        }
    }

    #[test]
    fn zero_slack_nodes_lie_on_the_critical_recurrence() {
        let mut b = DdgBuilder::new("critical");
        let a = b.node("a", OpKind::FpAdd, 4);
        let c = b.node("c", OpKind::FpAdd, 4);
        let free = b.node("free", OpKind::Load, 2);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 1).unwrap();
        b.edge(free, c, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let critical = zero_slack_nodes(&LoopAnalysis::analyze(&g), 8);
        assert!(critical.contains(&a));
        assert!(critical.contains(&c));
        assert!(!critical.contains(&free));
    }
}
