//! Feedback-guided iterative rescheduling.
//!
//! HRMS and the baselines schedule one-shot: the node order is fixed before
//! placement and never revisited, even when the result degrades — the
//! achieved II exceeds the MII, or the register requirement (`MaxLive`)
//! exceeds the target machine's register file and the loop would have to
//! spill. Subgraph-extraction feedback scheduling (Ye et al., applied to
//! HLS) closes that loop:
//!
//! 1. **Schedule** the loop with the wrapped scheduler and **evaluate** the
//!    result: achieved II vs MII, `MaxLive` vs a [`RegisterBudget`], and —
//!    when a [`SpillEvaluator`] is wired in — the number of values the
//!    register allocator would spill to make the loop fit.
//! 2. **Extract the critical subgraph** when the schedule degrades: the
//!    binding recurrence group (nodes at the maximum
//!    [`cycle ratio`](hrms_ddg::CycleRatios)) when the II is the problem,
//!    the producers and consumers of the longest (multi-II) lifetimes when
//!    pressure is, or the operations of the saturated resource class when
//!    neither applies.
//! 3. **Perturb** the pre-ordering priorities of the extracted nodes (a
//!    [`Perturbation`] — start-node hints for HRMS's hypernode reduction,
//!    priority boosts for the list-scheduling baselines) and reschedule.
//! 4. **Iterate to a bounded fixpoint**, keeping the lexicographically best
//!    `(spills, II, MaxLive)` attempt. Attempt 0 is always the unperturbed
//!    one-shot schedule, so the rescheduler never returns a worse result
//!    than the scheduler it wraps.
//!
//! The whole run is recorded in a machine-readable [`FeedbackTrace`]
//! (per-iteration II / MaxLive / spills / subgraph size) carried on the
//! returned [`ScheduleOutcome`] and embedded in JSON reports.
//!
//! This module deliberately does not depend on the register allocator (the
//! `hrms-regalloc` crate depends on *this* crate): the spill count is
//! obtained through the object-safe [`SpillEvaluator`] trait, implemented
//! over `schedule_with_register_budget` one layer up and injected by the
//! registry.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

use hrms_ddg::{Ddg, LoopAnalysis, NodeId};
use hrms_machine::Machine;

use crate::error::SchedError;
use crate::lifetime::LifetimeAnalysis;
use crate::report::push_json_str;
use crate::scheduler::{ModuloScheduler, ScheduleOutcome};

/// A register-file size the feedback loop evaluates schedules against
/// (variants plus invariants, the same convention as the spill pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterBudget {
    /// Number of architectural registers available to the loop.
    pub registers: u64,
}

impl RegisterBudget {
    /// The smaller register file of the paper's evaluated machines.
    pub const PAPER: RegisterBudget = RegisterBudget { registers: 32 };
}

/// Configuration of the [`IterativeRescheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackConfig {
    /// Register budget the schedule must fit; `None` disables the pressure
    /// and spill signals (the II-vs-MII signal still drives the loop).
    pub budget: Option<RegisterBudget>,
    /// Total scheduling attempts, including the unperturbed baseline (so
    /// `1` degenerates to one-shot scheduling). The fixpoint bound.
    pub max_iterations: usize,
    /// Spill/reschedule round cap handed to the [`SpillEvaluator`].
    pub max_spill_rounds: usize,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            budget: Some(RegisterBudget::PAPER),
            max_iterations: 6,
            max_spill_rounds: 16,
        }
    }
}

impl FeedbackConfig {
    /// A short stable tag encoding the configuration, e.g. `r32,i6,s16`
    /// (`r-` for no budget). Embedded in the rescheduler's
    /// [`ModuloScheduler::name`] so content-addressed cache keys — which
    /// hash the scheduler name — distinguish feedback configurations.
    pub fn tag(&self) -> String {
        let mut tag = String::new();
        match self.budget {
            Some(b) => {
                let _ = write!(tag, "r{}", b.registers);
            }
            None => tag.push_str("r-"),
        }
        let _ = write!(tag, ",i{},s{}", self.max_iterations, self.max_spill_rounds);
        tag
    }
}

/// Where a perturbed pre-ordering should start growing its hypernode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartHint {
    /// Keep the scheduler's own default.
    #[default]
    Default,
    /// Start from the last node in program order.
    Last,
    /// Start from this node (falls back to the default when the node is
    /// not a valid start for a component).
    Node(NodeId),
}

/// One priority perturbation: how a rescheduling attempt should differ from
/// the scheduler's default ordering.
///
/// Schedulers consume whichever part applies to them: HRMS honours the
/// [`StartHint`] (its ordering is derived, not priority-sorted), the
/// directional baselines honour the per-node boosts. A scheduler that
/// understands neither ignores the perturbation in its
/// [`ModuloScheduler::schedule`], which keeps `feedback:<slug>`
/// well-defined for every slug. `Perturbation::default()` is the identity.
#[derive(Debug, Clone, Default)]
pub struct Perturbation {
    /// Stable human-readable label recorded in the [`FeedbackTrace`].
    pub label: String,
    /// Start-node hint for hypernode-reduction orderings.
    pub start: StartHint,
    /// Per-node priority boosts, indexed by [`NodeId::index`]; nodes past
    /// the end of the vector (or an empty vector) have boost 0. Larger
    /// boosts mean "order this node earlier".
    pub boost: Vec<u64>,
}

impl Perturbation {
    /// The identity perturbation (attempt 0 of every feedback run).
    pub fn baseline() -> Self {
        Perturbation {
            label: "baseline".to_string(),
            ..Perturbation::default()
        }
    }

    /// The boost of `node` (0 when none was assigned).
    pub fn boost_of(&self, node: NodeId) -> u64 {
        self.boost.get(node.index()).copied().unwrap_or(0)
    }

    /// Whether this perturbation changes anything at all.
    pub fn is_identity(&self) -> bool {
        self.start == StartHint::Default && self.boost.iter().all(|&b| b == 0)
    }
}

/// What a [`SpillEvaluator`] reports for one schedule attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillSignals {
    /// Number of values spilled to (try to) fit the budget.
    pub spills: u64,
    /// Whether the spilled loop fits the budget.
    pub fits: bool,
}

/// Object-safe hook the register allocator implements so the feedback loop
/// can count spills without this crate depending on `hrms-regalloc`.
pub trait SpillEvaluator: Sync + Send {
    /// Evaluates how many values `scheduler` would have to spill for `ddg`
    /// on `machine` to fit `registers` (variants plus invariants), spending
    /// at most `max_rounds` spill/reschedule rounds.
    ///
    /// # Errors
    ///
    /// Returns a [`SchedError`] when the spilled loop cannot be scheduled
    /// at all.
    fn evaluate(
        &self,
        ddg: &Ddg,
        machine: &Machine,
        scheduler: &dyn ModuloScheduler,
        registers: u64,
        max_rounds: usize,
    ) -> Result<SpillSignals, SchedError>;
}

/// One scheduling attempt of a feedback run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackIteration {
    /// Attempt index (0 is the unperturbed baseline).
    pub attempt: usize,
    /// Label of the [`Perturbation`] used.
    pub perturbation: String,
    /// Achieved II.
    pub ii: u32,
    /// `MaxLive` plus invariants — the number compared against the budget.
    pub max_live: u64,
    /// Spill count under the budget (0 when the schedule fits, when no
    /// budget is set, or when no evaluator is wired in).
    pub spills: u64,
    /// Size of the critical subgraph extracted from the *previous* best
    /// schedule that seeded this attempt (0 for the baseline).
    pub subgraph: usize,
}

impl FeedbackIteration {
    /// The selection key: attempts are compared lexicographically by
    /// `(spills, II, MaxLive)` — fewer spills beats a lower II beats lower
    /// residual pressure.
    pub fn score(&self) -> (u64, u32, u64) {
        (self.spills, self.ii, self.max_live)
    }
}

/// Machine-readable record of one feedback run, carried on the returned
/// [`ScheduleOutcome`] and embedded in JSON reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackTrace {
    /// Every attempt, in execution order (index 0 is the baseline).
    pub iterations: Vec<FeedbackIteration>,
    /// Index into `iterations` of the attempt whose schedule was returned.
    pub selected: usize,
    /// `true` when the loop stopped *before* exhausting
    /// [`FeedbackConfig::max_iterations`] because the best schedule was no
    /// longer degraded; `false` when the budget or the candidate pool ran
    /// out first.
    pub converged: bool,
}

impl FeedbackTrace {
    /// The winning attempt.
    pub fn best(&self) -> &FeedbackIteration {
        &self.iterations[self.selected]
    }

    /// Serialises the trace as one JSON object (no trailing newline), the
    /// `"feedback"` value of a report line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 * self.iterations.len());
        let _ = write!(
            out,
            "{{\"selected\":{},\"converged\":{},\"iterations\":[",
            self.selected, self.converged
        );
        for (i, it) in self.iterations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"attempt\":{},\"perturbation\":", it.attempt);
            push_json_str(&mut out, &it.perturbation);
            let _ = write!(
                out,
                ",\"ii\":{},\"max_live\":{},\"spills\":{},\"subgraph\":{}}}",
                it.ii, it.max_live, it.spills, it.subgraph
            );
        }
        out.push_str("]}");
        out
    }
}

/// Adapter presenting one fixed perturbation of a scheduler as a plain
/// [`ModuloScheduler`], so the spill evaluator (which reschedules grown,
/// spilled graph variants) re-applies the same perturbation on every round.
struct PerturbedScheduler<'a> {
    inner: &'a dyn ModuloScheduler,
    perturbation: &'a Perturbation,
}

impl ModuloScheduler for PerturbedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        _perturbation: &Perturbation,
    ) -> Result<ScheduleOutcome, SchedError> {
        self.inner.schedule(analysis, machine, self.perturbation)
    }
}

/// Feedback-guided iterative rescheduler: wraps any [`ModuloScheduler`]
/// and drives it to a bounded fixpoint (see the module docs).
///
/// The rescheduler is itself a [`ModuloScheduler`], so it slots into the
/// registry, the batch engine, the service and the CLI unchanged — and
/// engine containment applies to it like any other scheduler (a panicking
/// inner scheduler, e.g. `feedback:chaos`, degrades to a per-cell error).
pub struct IterativeRescheduler {
    inner: Box<dyn ModuloScheduler + Sync + Send>,
    config: FeedbackConfig,
    evaluator: Option<Box<dyn SpillEvaluator>>,
    name: String,
}

impl std::fmt::Debug for IterativeRescheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterativeRescheduler")
            .field("name", &self.name)
            .field("config", &self.config)
            .field("evaluator", &self.evaluator.is_some())
            .finish()
    }
}

impl IterativeRescheduler {
    /// Wraps `inner` under `config`. The display name is
    /// `"<inner>+feedback[<tag>]"` — the configuration tag is part of the
    /// name so content-addressed cache keys include the feedback config.
    pub fn new(inner: Box<dyn ModuloScheduler + Sync + Send>, config: FeedbackConfig) -> Self {
        let name = format!("{}+feedback[{}]", inner.name(), config.tag());
        IterativeRescheduler {
            inner,
            config,
            evaluator: None,
            name,
        }
    }

    /// Wires in a spill evaluator (the registry injects the regalloc-backed
    /// one). Without an evaluator the spill signal degrades to the
    /// over-budget excess `MaxLive − budget`.
    #[must_use]
    pub fn with_evaluator(mut self, evaluator: Box<dyn SpillEvaluator>) -> Self {
        self.evaluator = Some(evaluator);
        self
    }

    /// The feedback configuration.
    pub fn config(&self) -> &FeedbackConfig {
        &self.config
    }

    /// Whether the best attempt so far still warrants another iteration.
    fn degraded(&self, it: &FeedbackIteration, mii: u32) -> bool {
        let over_budget = match self.config.budget {
            Some(b) => it.max_live > b.registers,
            None => false,
        };
        it.ii > mii || it.spills > 0 || over_budget
    }

    /// Runs one attempt: schedule under `perturbation`, then evaluate the
    /// pressure and spill signals.
    fn run_attempt(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        perturbation: &Perturbation,
        attempt: usize,
        subgraph: usize,
    ) -> Result<(ScheduleOutcome, FeedbackIteration), SchedError> {
        let outcome = self.inner.schedule(analysis, machine, perturbation)?;
        let max_live = outcome.metrics.max_live_with_invariants;
        let spills = match self.config.budget {
            Some(budget) if max_live > budget.registers => match &self.evaluator {
                Some(evaluator) => {
                    let adapter = PerturbedScheduler {
                        inner: self.inner.as_ref(),
                        perturbation,
                    };
                    match evaluator.evaluate(
                        analysis.ddg(),
                        machine,
                        &adapter,
                        budget.registers,
                        self.config.max_spill_rounds,
                    ) {
                        Ok(signals) => signals.spills,
                        // A spilled variant that cannot be scheduled at all:
                        // fall back to the raw over-budget excess so the
                        // attempt stays comparable instead of aborting the
                        // whole feedback run.
                        Err(_) => max_live - budget.registers,
                    }
                }
                None => max_live - budget.registers,
            },
            _ => 0,
        };
        let iteration = FeedbackIteration {
            attempt,
            perturbation: perturbation.label.clone(),
            ii: outcome.metrics.ii,
            max_live,
            spills,
            subgraph,
        };
        Ok((outcome, iteration))
    }

    /// Extracts the critical subgraph from the current best schedule:
    /// the ranked list of nodes to perturb (most critical first) and the
    /// size of the full extracted node set.
    fn extract_subgraph(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        best: &ScheduleOutcome,
        best_it: &FeedbackIteration,
    ) -> (Vec<NodeId>, Vec<u64>, usize) {
        let ddg = analysis.ddg();
        let over_budget = self
            .config
            .budget
            .is_some_and(|b| best_it.max_live > b.registers);
        if over_budget || best_it.spills > 0 {
            return pressure_subgraph(ddg, best);
        }
        // II degradation: the binding recurrence group, ranked by the exact
        // per-node cycle ratios; for recurrence-free loops the saturated
        // resource class is the binding region instead.
        let ratios = analysis.cycle_ratios().per_node();
        let max_ratio = ratios.iter().copied().max().unwrap_or(0);
        if max_ratio > 0 {
            let mut ranked: Vec<NodeId> = ddg
                .node_ids()
                .filter(|n| ratios[n.index()] == max_ratio)
                .collect();
            ranked.sort_by_key(|n| n.index());
            let boost: Vec<u64> = ratios.to_vec();
            let size = ranked.len();
            return (ranked, boost, size);
        }
        resource_subgraph(ddg, machine)
    }
}

/// The pressure-critical subgraph: producers of the longest lifetimes
/// (those spanning more than one II — the allocator's spill candidates),
/// plus their consumers. Ranked by decreasing lifetime length; boosts are
/// the lifetime lengths themselves.
fn pressure_subgraph(ddg: &Ddg, best: &ScheduleOutcome) -> (Vec<NodeId>, Vec<u64>, usize) {
    let lt = LifetimeAnalysis::analyze(ddg, &best.schedule);
    let ii = i64::from(best.schedule.ii());
    let mut long: Vec<(i64, NodeId)> = lt
        .lifetimes()
        .iter()
        .filter(|l| l.length() > ii)
        .map(|l| (l.length(), l.producer))
        .collect();
    if long.is_empty() {
        // Nothing spans multiple IIs; take the longest quarter instead so
        // the extraction always yields a candidate set.
        let mut all: Vec<(i64, NodeId)> = lt
            .lifetimes()
            .iter()
            .map(|l| (l.length(), l.producer))
            .collect();
        all.sort_by_key(|&(len, n)| (std::cmp::Reverse(len), n.index()));
        all.truncate(all.len().div_ceil(4));
        long = all;
    }
    long.sort_by_key(|&(len, n)| (std::cmp::Reverse(len), n.index()));
    let mut boost = vec![0u64; ddg.num_nodes()];
    let mut members: HashSet<NodeId> = HashSet::new();
    for &(len, producer) in &long {
        members.insert(producer);
        boost[producer.index()] = boost[producer.index()].max(len.max(0) as u64);
        for (consumer, _) in ddg.consumers(producer) {
            members.insert(consumer);
            boost[consumer.index()] = boost[consumer.index()].max(len.max(0) as u64);
        }
    }
    let ranked: Vec<NodeId> = long.into_iter().map(|(_, n)| n).collect();
    let size = members.len();
    (ranked, boost, size)
}

/// The resource-saturated subgraph: every operation mapped to the class
/// with the highest occupancy-weighted demand per unit (the MRT region
/// that binds ResMII), in program order.
fn resource_subgraph(ddg: &Ddg, machine: &Machine) -> (Vec<NodeId>, Vec<u64>, usize) {
    let mut demand = vec![0u64; machine.num_classes()];
    for (_, node) in ddg.nodes() {
        let class = machine.class_of(node.kind());
        demand[class.index()] += u64::from(machine.occupancy_of(node.kind()));
    }
    let saturated = (0..machine.num_classes())
        .max_by_key(|&i| {
            let units = u64::from(machine.classes()[i].count.max(1));
            (demand[i].div_ceil(units), std::cmp::Reverse(i))
        })
        .unwrap_or(0);
    let mut boost = vec![0u64; ddg.num_nodes()];
    let ranked: Vec<NodeId> = ddg
        .node_ids()
        .filter(|&n| machine.class_of(ddg.node(n).kind()).index() == saturated)
        .collect();
    for &n in &ranked {
        boost[n.index()] = 1;
    }
    let size = ranked.len();
    (ranked, boost, size)
}

/// Generates the next untried perturbation from the ranked critical nodes:
/// first the `hypernode:last` start hint, then fixed starts at the top
/// ranked nodes (each also carrying the boost vector for priority-sorted
/// schedulers).
fn next_candidate(
    ranked: &[NodeId],
    boost: &[u64],
    tried: &HashSet<String>,
) -> Option<Perturbation> {
    if !tried.contains("hypernode:last") {
        return Some(Perturbation {
            label: "hypernode:last".to_string(),
            start: StartHint::Last,
            boost: boost.to_vec(),
        });
    }
    for &node in ranked {
        let label = format!("critical:n{}", node.index());
        if !tried.contains(&label) {
            return Some(Perturbation {
                label,
                start: StartHint::Node(node),
                boost: boost.to_vec(),
            });
        }
    }
    None
}

impl ModuloScheduler for IterativeRescheduler {
    fn name(&self) -> &str {
        &self.name
    }

    /// The rescheduler owns the perturbation axis: it ignores the
    /// perturbation it is given and drives its own, starting from
    /// [`Perturbation::baseline`].
    fn schedule(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        _perturbation: &Perturbation,
    ) -> Result<ScheduleOutcome, SchedError> {
        let start = Instant::now();
        let max_iterations = self.config.max_iterations.max(1);

        let (baseline, baseline_it) =
            self.run_attempt(analysis, machine, &Perturbation::baseline(), 0, 0)?;
        let mii = baseline.mii.mii();
        let mut iterations = vec![baseline_it];
        let mut best = baseline;
        let mut best_idx = 0usize;
        let mut tried: HashSet<String> = HashSet::new();
        let mut converged = false;
        let mut attempts_used = 1usize;

        while attempts_used < max_iterations {
            if !self.degraded(&iterations[best_idx], mii) {
                converged = true;
                break;
            }
            let (ranked, boost, subgraph) =
                self.extract_subgraph(analysis, machine, &best, &iterations[best_idx]);
            let Some(perturbation) = next_candidate(&ranked, &boost, &tried) else {
                break;
            };
            tried.insert(perturbation.label.clone());
            let attempt = attempts_used;
            attempts_used += 1;
            // A perturbed attempt that fails outright (e.g. the fixed start
            // pushes the II search past its cap) is simply skipped: the
            // baseline already succeeded, so the run still returns a
            // schedule.
            let Ok((outcome, iteration)) =
                self.run_attempt(analysis, machine, &perturbation, attempt, subgraph)
            else {
                continue;
            };
            let improved = iteration.score() < iterations[best_idx].score();
            iterations.push(iteration);
            if improved {
                best = outcome;
                best_idx = iterations.len() - 1;
            }
        }
        if !converged && !self.degraded(&iterations[best_idx], mii) {
            converged = true;
        }

        let trace = FeedbackTrace {
            iterations,
            selected: best_idx,
            converged,
        };
        best.elapsed = start.elapsed();
        Ok(best.with_feedback(trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mii::MiiInfo;
    use crate::schedule::Schedule;
    use crate::validate::validate_schedule;
    use hrms_ddg::OpKind;
    use hrms_machine::presets;
    use std::time::Duration;

    /// A trivial one-shot scheduler for framework tests: places nodes in
    /// program order at consecutive cycles (valid only for chains).
    struct NaiveChain;

    impl ModuloScheduler for NaiveChain {
        fn name(&self) -> &str {
            "Naive"
        }

        fn schedule(
            &self,
            la: &LoopAnalysis<'_>,
            machine: &Machine,
            _perturbation: &Perturbation,
        ) -> Result<ScheduleOutcome, SchedError> {
            let ddg = la.ddg();
            let mii = MiiInfo::compute(machine, la)?;
            let mut cycle = 0i64;
            let mut cycles = Vec::with_capacity(ddg.num_nodes());
            for (_, node) in ddg.nodes() {
                cycles.push(cycle);
                cycle += i64::from(node.latency());
            }
            let schedule = Schedule::new(mii.mii().max(1), cycles);
            Ok(ScheduleOutcome::new(
                ddg,
                schedule,
                mii,
                1,
                Duration::ZERO,
                Duration::ZERO,
            ))
        }
    }

    fn chain() -> Ddg {
        hrms_ddg::chain("c", 4, OpKind::FpAdd, 1)
    }

    #[test]
    fn config_tag_is_stable_and_distinguishes_configs() {
        assert_eq!(FeedbackConfig::default().tag(), "r32,i6,s16");
        let no_budget = FeedbackConfig {
            budget: None,
            ..FeedbackConfig::default()
        };
        assert_eq!(no_budget.tag(), "r-,i6,s16");
        assert_ne!(FeedbackConfig::default().tag(), no_budget.tag());
    }

    #[test]
    fn name_embeds_the_config_tag() {
        let r = IterativeRescheduler::new(Box::new(NaiveChain), FeedbackConfig::default());
        assert_eq!(r.name(), "Naive+feedback[r32,i6,s16]");
    }

    #[test]
    fn baseline_attempt_is_always_recorded_and_never_beaten_by_worse() {
        let g = chain();
        let m = presets::govindarajan();
        let r = IterativeRescheduler::new(Box::new(NaiveChain), FeedbackConfig::default());
        let one_shot = NaiveChain.schedule_loop(&g, &m).unwrap();
        let outcome = r.schedule_loop(&g, &m).unwrap();
        let trace = outcome.feedback.as_ref().expect("trace attached");
        assert_eq!(trace.iterations[0].perturbation, "baseline");
        assert!(trace.best().score() <= trace.iterations[0].score());
        assert!(outcome.metrics.ii <= one_shot.metrics.ii);
        validate_schedule(&g, &m, &outcome.schedule).unwrap();
    }

    #[test]
    fn fixpoint_terminates_within_the_iteration_budget() {
        let g = chain();
        let m = presets::govindarajan();
        let config = FeedbackConfig {
            budget: Some(RegisterBudget { registers: 0 }), // unattainable
            max_iterations: 3,
            ..FeedbackConfig::default()
        };
        let r = IterativeRescheduler::new(Box::new(NaiveChain), config);
        let trace = r.schedule_loop(&g, &m).unwrap().feedback.unwrap();
        assert!(trace.iterations.len() <= 3);
        assert!(!trace.converged, "a zero-register budget can never be met");
    }

    #[test]
    fn converges_immediately_when_nothing_degrades() {
        let g = chain();
        let m = presets::govindarajan();
        let config = FeedbackConfig {
            budget: Some(RegisterBudget { registers: 64 }),
            ..FeedbackConfig::default()
        };
        let r = IterativeRescheduler::new(Box::new(NaiveChain), config);
        let trace = r.schedule_loop(&g, &m).unwrap().feedback.unwrap();
        // The naive chain schedule is at MII with tiny pressure: one
        // attempt, converged.
        assert_eq!(trace.iterations.len(), 1);
        assert!(trace.converged);
        assert_eq!(trace.selected, 0);
    }

    #[test]
    fn trace_json_is_schema_stable() {
        let trace = FeedbackTrace {
            iterations: vec![
                FeedbackIteration {
                    attempt: 0,
                    perturbation: "baseline".into(),
                    ii: 4,
                    max_live: 37,
                    spills: 3,
                    subgraph: 0,
                },
                FeedbackIteration {
                    attempt: 1,
                    perturbation: "critical:n7".into(),
                    ii: 4,
                    max_live: 33,
                    spills: 1,
                    subgraph: 9,
                },
            ],
            selected: 1,
            converged: false,
        };
        assert_eq!(
            trace.to_json(),
            "{\"selected\":1,\"converged\":false,\"iterations\":[\
             {\"attempt\":0,\"perturbation\":\"baseline\",\"ii\":4,\"max_live\":37,\
             \"spills\":3,\"subgraph\":0},\
             {\"attempt\":1,\"perturbation\":\"critical:n7\",\"ii\":4,\"max_live\":33,\
             \"spills\":1,\"subgraph\":9}]}"
        );
    }

    #[test]
    fn perturbation_boosts_default_to_zero() {
        let p = Perturbation::baseline();
        assert!(p.is_identity());
        assert_eq!(p.boost_of(NodeId(42)), 0);
        let boosted = Perturbation {
            label: "b".into(),
            start: StartHint::Default,
            boost: vec![0, 5],
        };
        assert!(!boosted.is_identity());
        assert_eq!(boosted.boost_of(NodeId(1)), 5);
        assert_eq!(boosted.boost_of(NodeId(9)), 0);
    }

    #[test]
    fn candidates_are_deduplicated_by_label() {
        let ranked = [NodeId(3), NodeId(1)];
        let boost = vec![0u64; 4];
        let mut tried = HashSet::new();
        let c1 = next_candidate(&ranked, &boost, &tried).unwrap();
        assert_eq!(c1.label, "hypernode:last");
        tried.insert(c1.label);
        let c2 = next_candidate(&ranked, &boost, &tried).unwrap();
        assert_eq!(c2.label, "critical:n3");
        tried.insert(c2.label);
        let c3 = next_candidate(&ranked, &boost, &tried).unwrap();
        assert_eq!(c3.label, "critical:n1");
        tried.insert(c3.label);
        assert!(next_candidate(&ranked, &boost, &tried).is_none());
    }
}
