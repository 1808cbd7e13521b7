//! The scheduler interface shared by HRMS and the baseline schedulers.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hrms_ddg::{Ddg, LoopAnalysis, LoopCore, PerIiStarts};
use hrms_machine::Machine;

use crate::error::SchedError;
use crate::feedback::{FeedbackTrace, Perturbation};
use crate::lifetime::LifetimeAnalysis;
use crate::mii::MiiInfo;
use crate::schedule::Schedule;

/// The largest II any scheduler tries. A modulo reservation table holds
/// `classes × II` counters, so the cap bounds it at 4 MiB per class.
pub const MAX_II: u32 = 1 << 20;

/// Scheduler configuration: the II cap of [`escalate_ii`], which every
/// scheduler shares, and the per-II budget of the branch-and-bound search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Per-II effort budget of the branch-and-bound search (its explored
    /// node count). The other schedulers have no settable budget.
    pub budget_per_ii: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            budget_per_ii: 200_000,
        }
    }
}

impl SchedulerConfig {
    /// The highest II [`escalate_ii`] tries for a loop:
    /// `MII + sum of latencies + number of operations`, which is always
    /// sufficient for a work-conserving scheduler, but at most [`MAX_II`].
    /// It is below `mii` when the MII itself is above the cap.
    pub fn effective_max_ii(&self, ddg: &Ddg, mii: u32) -> u32 {
        let total: u64 = ddg.total_latency() + ddg.num_nodes() as u64;
        mii.saturating_add(total.min(u64::from(u32::MAX)) as u32)
            .min(MAX_II)
    }
}

/// The II-escalation driver shared by every scheduler: computes the MII
/// from the loop's analysis, then tries `attempt(ii, &mut starts)` for
/// II = MII, MII+1, ... up to [`SchedulerConfig::effective_max_ii`], and
/// bundles the first schedule an attempt returns into a
/// [`ScheduleOutcome`] with a zero `ordering_time`.
///
/// A loop with a zero-distance dependence cycle is rejected with
/// [`SchedError::ZeroDistanceCycle`], and one whose MII is above
/// [`MAX_II`] with [`SchedError::NoValidSchedule`], before `attempt` is
/// ever called, so a
/// scheduler may defer work that needs a valid loop (such as its node
/// order) to its first attempt. Attempts read the caller's analysis (dense
/// placement arcs, cached dependence edges), and the [`PerIiStarts`] cache
/// updates the resource-free earliest/latest start times **incrementally**
/// from one II to the next, so per-II passes neither rebuild per-loop
/// structures nor rerun the Bellman-Ford passes from scratch.
///
/// # Errors
///
/// The MII's errors, or [`SchedError::NoValidSchedule`] when every II up
/// to the cap fails.
pub fn escalate_ii<F>(
    analysis: &LoopAnalysis<'_>,
    machine: &Machine,
    mut attempt: F,
) -> Result<ScheduleOutcome, SchedError>
where
    F: FnMut(u32, &mut PerIiStarts) -> Option<Schedule>,
{
    let start = Instant::now();
    let ddg = analysis.ddg();
    let mii = MiiInfo::compute(machine, analysis)?;
    let max_ii = SchedulerConfig::default().effective_max_ii(ddg, mii.mii());
    let mut starts = PerIiStarts::new();
    for (attempts, ii) in (1..).zip(mii.mii()..=max_ii) {
        if let Some(schedule) = attempt(ii, &mut starts) {
            return Ok(ScheduleOutcome::new(
                ddg,
                schedule,
                mii,
                attempts,
                start.elapsed(),
                Duration::ZERO,
            ));
        }
    }
    Err(SchedError::NoValidSchedule {
        max_ii_tried: max_ii,
    })
}

/// Summary metrics of a finished schedule; every number the paper's tables
/// and figures report can be derived from these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleMetrics {
    /// Achieved initiation interval.
    pub ii: u32,
    /// Lower bound `MII`.
    pub mii: u32,
    /// Resource-constrained bound.
    pub res_mii: u32,
    /// Recurrence-constrained bound.
    pub rec_mii: u32,
    /// Number of pipeline stages.
    pub stage_count: u32,
    /// Flat length of one iteration's schedule.
    pub span: i64,
    /// Register requirement of the loop variants (`MaxLive`).
    pub max_live: u64,
    /// `MaxLive` plus one register per loop invariant.
    pub max_live_with_invariants: u64,
    /// Buffer requirement (Govindarajan et al. metric, used by Table 1).
    pub buffers: u64,
    /// Sum of loop-variant lifetime lengths.
    pub total_lifetime: i64,
}

impl ScheduleMetrics {
    /// Computes the metrics of `schedule`.
    pub fn compute(ddg: &Ddg, schedule: &Schedule, mii: MiiInfo) -> Self {
        let lt = LifetimeAnalysis::analyze(ddg, schedule);
        ScheduleMetrics {
            ii: schedule.ii(),
            mii: mii.mii(),
            res_mii: mii.res_mii,
            rec_mii: mii.rec_mii,
            stage_count: schedule.stage_count(),
            span: schedule.span(),
            max_live: lt.max_live(),
            max_live_with_invariants: lt.max_live_with_invariants(),
            buffers: lt.buffers(),
            total_lifetime: lt.total_lifetime(),
        }
    }

    /// Whether the achieved II equals the lower bound (an "optimal" II in the
    /// paper's terminology).
    pub fn ii_is_optimal(&self) -> bool {
        self.ii == self.mii
    }

    /// The ratio `II / MII` (1.0 when optimal).
    pub fn ii_ratio(&self) -> f64 {
        f64::from(self.ii) / f64::from(self.mii.max(1))
    }
}

impl fmt::Display for ScheduleMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "II={} (MII={}), SC={}, MaxLive={}, buffers={}",
            self.ii, self.mii, self.stage_count, self.max_live, self.buffers
        )
    }
}

/// The result of scheduling one loop.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The schedule itself.
    pub schedule: Schedule,
    /// The MII bounds of the loop.
    pub mii: MiiInfo,
    /// Derived metrics.
    pub metrics: ScheduleMetrics,
    /// Number of II values tried before a schedule was found.
    pub attempts: u32,
    /// Wall-clock time spent by the scheduler (total).
    pub elapsed: Duration,
    /// Wall-clock time this cell spent in the pre-ordering phase (zero for
    /// schedulers without one); lets the harness reproduce the paper's
    /// "ordering is only 9% of the time" measurement. HRMS keeps its
    /// default order in the loop's shared analysis core, so a cell that
    /// reuses an order another cell of the same loop computed reports ≈0
    /// here.
    pub ordering_time: Duration,
    /// Whether the recurrence analysis feeding the scheduler was truncated
    /// (a circuit-enumeration budget was hit), silently degrading the
    /// ordering's recurrence priority. Always `false`: every scheduler
    /// reads the enumeration-free recurrence analysis, which cannot
    /// truncate. The field stays so that code replicating a scheduler's
    /// driver can still pass a flag through.
    pub recurrence_truncated: bool,
    /// Machine-readable record of the feedback-guided rescheduling run that
    /// produced this schedule; `None` for one-shot schedulers. Attached by
    /// [`crate::feedback::IterativeRescheduler`] and rendered into JSON
    /// reports.
    pub feedback: Option<FeedbackTrace>,
}

impl ScheduleOutcome {
    /// Bundles a finished schedule with its metrics.
    pub fn new(
        ddg: &Ddg,
        schedule: Schedule,
        mii: MiiInfo,
        attempts: u32,
        elapsed: Duration,
        ordering_time: Duration,
    ) -> Self {
        let metrics = ScheduleMetrics::compute(ddg, &schedule, mii);
        ScheduleOutcome {
            schedule,
            mii,
            metrics,
            attempts,
            elapsed,
            ordering_time,
            recurrence_truncated: false,
            feedback: None,
        }
    }

    /// Records whether the recurrence analysis behind this schedule was
    /// truncated (see [`ScheduleOutcome::recurrence_truncated`]).
    #[must_use]
    pub fn with_recurrence_truncated(mut self, truncated: bool) -> Self {
        self.recurrence_truncated = truncated;
        self
    }

    /// Attaches the trace of the feedback run that produced this schedule
    /// (see [`ScheduleOutcome::feedback`]).
    #[must_use]
    pub fn with_feedback(mut self, trace: FeedbackTrace) -> Self {
        self.feedback = Some(trace);
        self
    }
}

/// A resource-constrained software-pipelining scheduler.
///
/// Implemented by HRMS (`hrms-core`) and by every baseline
/// (`hrms-baselines`); the benchmark harness and the register-allocation
/// passes only interact with schedulers through this trait.
///
/// A scheduler implements exactly two methods: [`ModuloScheduler::name`]
/// and [`ModuloScheduler::schedule`]. The one scheduling method receives
/// the loop's [`LoopAnalysis`] — so a batch driver that shares one
/// [`LoopCore`] across machines shares it with every scheduler by
/// construction — and a [`Perturbation`], so every scheduler takes part in
/// the feedback loop of [`crate::feedback::IterativeRescheduler`].
/// [`ModuloScheduler::schedule_loop`] and
/// [`ModuloScheduler::schedule_loop_with_core`] are provided conveniences
/// over it.
pub trait ModuloScheduler {
    /// Short identifier used in reports ("HRMS", "Top-Down", "Slack", ...).
    fn name(&self) -> &str;

    /// Schedules the analysed loop on the given machine under a priority
    /// [`Perturbation`].
    ///
    /// `analysis` wraps the loop's [`Ddg`] and its (possibly shared)
    /// machine-independent [`LoopCore`]: Tarjan, the cycle-ratio λ-search
    /// and every other structural fact are read from it, so a core shared
    /// by several calls is computed once. `Perturbation::default()` is the
    /// identity and must produce the scheduler's one-shot schedule.
    /// Schedulers with a perturbable ordering honour the parts that apply
    /// to them (HRMS the start-node hint, the directional baselines the
    /// per-node boosts) and ignore the rest.
    ///
    /// # Errors
    ///
    /// Returns a [`SchedError`] when the loop cannot be scheduled (malformed
    /// graph, or the II/search budget was exhausted).
    fn schedule(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        perturbation: &Perturbation,
    ) -> Result<ScheduleOutcome, SchedError>;

    /// Schedules one loop on the given machine with a private analysis and
    /// the identity perturbation.
    ///
    /// # Errors
    ///
    /// Same as [`ModuloScheduler::schedule`].
    fn schedule_loop(&self, ddg: &Ddg, machine: &Machine) -> Result<ScheduleOutcome, SchedError> {
        let analysis = LoopAnalysis::analyze(ddg);
        self.schedule(&analysis, machine, &Perturbation::default())
    }

    /// Schedules one loop on the given machine over a shared
    /// machine-independent analysis core, with the identity perturbation.
    ///
    /// # Errors
    ///
    /// Same as [`ModuloScheduler::schedule`].
    fn schedule_loop_with_core(
        &self,
        ddg: &Ddg,
        machine: &Machine,
        core: &Arc<LoopCore>,
    ) -> Result<ScheduleOutcome, SchedError> {
        let analysis = LoopAnalysis::with_core(ddg, Arc::clone(core));
        self.schedule(&analysis, machine, &Perturbation::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind, OpKind};
    use hrms_machine::presets;

    #[test]
    fn metrics_derive_from_schedule() {
        let mut b = DdgBuilder::new("m");
        let ld = b.node("ld", OpKind::Load, 2);
        let add = b.node("add", OpKind::FpAdd, 1);
        b.edge(ld, add, DepKind::RegFlow, 0).unwrap();
        b.invariants(1);
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let mii = MiiInfo::compute(&m, &hrms_ddg::LoopAnalysis::analyze(&g)).unwrap();
        let s = Schedule::new(1, vec![0, 2]);
        let metrics = ScheduleMetrics::compute(&g, &s, mii);
        assert_eq!(metrics.ii, 1);
        assert_eq!(metrics.mii, 1);
        assert!(metrics.ii_is_optimal());
        assert_eq!(metrics.stage_count, 3);
        assert_eq!(metrics.span, 3);
        assert_eq!(metrics.max_live, 2, "lifetime 2 at II 1 overlaps twice");
        assert_eq!(metrics.max_live_with_invariants, 3);
        assert_eq!(metrics.buffers, 2);
        assert!((metrics.ii_ratio() - 1.0).abs() < 1e-12);
        assert!(metrics.to_string().contains("II=1"));
    }

    #[test]
    fn default_config_has_a_generous_ii_cap() {
        let g = hrms_ddg::chain("c", 3, OpKind::FpAdd, 1);
        let cfg = SchedulerConfig::default();
        assert!(cfg.effective_max_ii(&g, 2) >= 2 + 3 + 3);
        // But never above MAX_II, even for an MII above it.
        assert_eq!(cfg.effective_max_ii(&g, MAX_II - 1), MAX_II);
        assert_eq!(cfg.effective_max_ii(&g, u32::MAX), MAX_II);
    }

    fn diamond() -> Ddg {
        let mut b = DdgBuilder::new("diamond");
        let a = b.node("a", OpKind::Load, 2);
        let x = b.node("x", OpKind::FpMul, 2);
        let y = b.node("y", OpKind::FpAdd, 1);
        let d = b.node("d", OpKind::Store, 1);
        b.edge(a, x, DepKind::RegFlow, 0).unwrap();
        b.edge(a, y, DepKind::RegFlow, 0).unwrap();
        b.edge(x, d, DepKind::RegFlow, 0).unwrap();
        b.edge(y, d, DepKind::RegFlow, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn escalation_stops_at_the_cap() {
        let g = diamond();
        let m = presets::govindarajan();
        let la = LoopAnalysis::analyze(&g);
        let mii = MiiInfo::compute(&m, &la).unwrap().mii();
        let cap = SchedulerConfig::default().effective_max_ii(&g, mii);
        // An attempt that always fails must try every II up to the cap.
        let mut tried = Vec::new();
        let err = escalate_ii(&la, &m, |ii, _| {
            tried.push(ii);
            None
        })
        .unwrap_err();
        assert_eq!(err, SchedError::NoValidSchedule { max_ii_tried: cap });
        assert_eq!(tried, (mii..=cap).collect::<Vec<_>>());
    }

    #[test]
    fn escalation_reports_attempts() {
        let g = diamond();
        let m = presets::govindarajan();
        let la = LoopAnalysis::analyze(&g);
        // A valid schedule that only fits from II = 4 on.
        let outcome = escalate_ii(&la, &m, |ii, _| {
            (ii >= 4).then(|| Schedule::new(ii, vec![0, 2, 2, 5]))
        })
        .unwrap();
        crate::validate::validate_schedule(&g, &m, &outcome.schedule).unwrap();
        assert_eq!(outcome.metrics.mii, 2);
        assert_eq!(outcome.metrics.ii, 4);
        assert_eq!(outcome.attempts, 3, "II 2 and 3 failed, 4 succeeded");
        assert_eq!(outcome.ordering_time, Duration::ZERO);
    }

    #[test]
    fn a_zero_distance_cycle_is_rejected_before_any_attempt() {
        let mut b = DdgBuilder::new("bad");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let la = LoopAnalysis::analyze(&g);
        let mut called = false;
        let err = escalate_ii(&la, &presets::govindarajan(), |_, _| {
            called = true;
            None
        })
        .unwrap_err();
        assert_eq!(err, SchedError::ZeroDistanceCycle);
        assert!(!called, "the attempt must never run on an invalid loop");
    }

    #[test]
    fn outcome_carries_timing_information() {
        let mut b = DdgBuilder::new("o");
        b.node("a", OpKind::FpAdd, 1);
        let g = b.build().unwrap();
        let m = presets::govindarajan();
        let mii = MiiInfo::compute(&m, &hrms_ddg::LoopAnalysis::analyze(&g)).unwrap();
        let outcome = ScheduleOutcome::new(
            &g,
            Schedule::new(1, vec![0]),
            mii,
            1,
            Duration::from_millis(3),
            Duration::from_millis(1),
        );
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.elapsed.as_millis(), 3);
        assert_eq!(outcome.ordering_time.as_millis(), 1);
        assert_eq!(outcome.metrics.ii, 1);
    }
}
