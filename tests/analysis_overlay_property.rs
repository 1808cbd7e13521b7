//! Property suite for the shared analysis core: scheduling a loop
//! through a shared [`LoopCore`] must be indistinguishable — byte for
//! byte — from scheduling it from scratch, on every machine preset, and
//! the machine-independent analysis must run exactly once per loop no
//! matter how many machines share the core.
//!
//! The suite sweeps all 24 reference loops plus a band of generated
//! loops, across every preset and every registered scheduler except the
//! budget-bound branch-and-bound search, with one core per loop shared by
//! all of them. Each schedule is produced three ways — from scratch, over
//! the shared core, and through [`ModuloScheduler::schedule`] with the
//! identity [`Perturbation`] — and all three must render the same report
//! bytes. The third route pins that the feedback loop's attempt 0
//! (`Perturbation::baseline()`, the identity with a label) reproduces the
//! one-shot schedule through every scheduler's one scheduling method; that
//! the directional baselines' `boost_order` keeps an order unchanged under
//! the identity is pinned by its unit test in `hrms-baselines`.
//!
//! The core also caches HRMS's default order. The cells that must not use
//! it — the program-order ablation and HRMS under perturbed starts — run on
//! the same core before and after the default HRMS cell, and must match
//! their from-scratch runs.

use std::sync::Arc;

use hrms_repro::ddg::{Ddg, LoopAnalysis, LoopCore};
use hrms_repro::hrms::{program_order_scheduler, HrmsScheduler};
use hrms_repro::machine::presets;
use hrms_repro::modsched::{report_line, ModuloScheduler, Perturbation, ReportOptions, StartHint};
use hrms_repro::registry::{scheduler_by_slug, SCHEDULER_SLUGS};

mod corpus;

/// The loops under test: every reference loop plus generated ones spanning
/// sparse and recurrence-heavy shapes.
fn suite() -> Vec<Ddg> {
    ["reference24", "overlay"]
        .into_iter()
        .flat_map(corpus::loops)
        .collect()
}

#[test]
fn shared_core_schedules_are_byte_identical_to_from_scratch_on_every_preset() {
    let schedulers: Vec<_> = SCHEDULER_SLUGS
        .iter()
        .filter(|&&slug| slug != "bnb")
        .map(|slug| scheduler_by_slug(slug).expect("listed slugs resolve"))
        .collect();
    let hrms = HrmsScheduler::new();
    let program_order = program_order_scheduler();
    let options = ReportOptions { timing: false };
    let machines = presets::all();
    for ddg in &suite() {
        // One core serves every scheduler, start and machine of this loop,
        // as in `BatchEngine::schedule_matrix`.
        let core = Arc::new(LoopCore::new());
        let render = |scheduler: &dyn ModuloScheduler, machine, result: Result<_, _>| {
            result.map(|outcome| report_line(ddg, machine, scheduler.name(), &outcome, options))
        };
        // The cells that must neither read nor fill the core's HRMS order
        // slot: the program-order ablation and HRMS under perturbed starts.
        // They run before and after the default HRMS cell has filled it.
        let last = ddg.node_ids().last().expect("non-empty loop");
        let side_cells = [
            (&program_order, Perturbation::default()),
            (&hrms, perturbed(StartHint::Last)),
            (&hrms, perturbed(StartHint::Node(last))),
        ];
        let check_side_cells = |when: &str| {
            for (scheduler, perturbation) in &side_cells {
                for machine in &machines {
                    let run = |analysis: LoopAnalysis<'_>| {
                        let result = scheduler.schedule(&analysis, machine, perturbation);
                        render(*scheduler, machine, result)
                    };
                    assert_eq!(
                        run(LoopAnalysis::analyze(ddg)),
                        run(LoopAnalysis::with_core(ddg, Arc::clone(&core))),
                        "shared core drifted {when} the default HRMS cell: loop `{}` x {} \
                         ({}) x {}",
                        ddg.name(),
                        scheduler.name(),
                        perturbation.label,
                        machine.name()
                    );
                }
            }
        };
        check_side_cells("before");
        for scheduler in &schedulers {
            for machine in &machines {
                let cell = format!(
                    "loop `{}` x {} x {}",
                    ddg.name(),
                    scheduler.name(),
                    machine.name()
                );
                let report = |result| render(&**scheduler, machine, result);
                let fresh = report(scheduler.schedule_loop(ddg, machine));
                let shared = report(scheduler.schedule_loop_with_core(ddg, machine, &core));
                let identity = report(scheduler.schedule(
                    &LoopAnalysis::with_core(ddg, Arc::clone(&core)),
                    machine,
                    &Perturbation::baseline(),
                ));
                assert_eq!(fresh, shared, "shared core drifted: {cell}");
                assert_eq!(fresh, identity, "identity perturbation drifted: {cell}");
            }
        }
        check_side_cells("after");
    }
}

/// A feedback-style perturbation that only moves HRMS's start node.
fn perturbed(start: StartHint) -> Perturbation {
    Perturbation {
        label: format!("{start:?}"),
        start,
        ..Perturbation::default()
    }
}

#[test]
fn overlay_analysis_fingerprints_match_from_scratch_analysis() {
    for ddg in suite() {
        let fresh = LoopAnalysis::analyze(&ddg);
        let core = Arc::new(LoopCore::new());
        let shared = LoopAnalysis::with_core(&ddg, Arc::clone(&core));
        assert_eq!(fresh.fingerprint(), shared.fingerprint(), "{}", ddg.name());
        // A second overlay on the already-populated core still agrees.
        let again = LoopAnalysis::with_core(&ddg, core);
        assert_eq!(fresh.fingerprint(), again.fingerprint(), "{}", ddg.name());
    }
}

#[test]
fn the_machine_independent_analysis_runs_once_per_loop_across_all_presets() {
    use hrms_repro::ddg::instrument;
    use hrms_repro::hrms::pre_order;

    let scheduler = HrmsScheduler::new();
    let loops = suite();
    let machines = presets::all();
    // Computed before the counters are reset: each runs on a private core.
    let orders: Vec<_> = loops
        .iter()
        .map(|ddg| pre_order(&LoopAnalysis::analyze(ddg)).order)
        .collect();
    instrument::reset();
    for (ddg, order) in loops.iter().zip(&orders) {
        let core = Arc::new(LoopCore::new());
        for (i, machine) in machines.iter().enumerate() {
            let _ = scheduler.schedule_loop_with_core(ddg, machine, &core);
            if i == 0 {
                // The first cell stored the loop's order; the accessor must
                // return it without running its closure again.
                let analysis = LoopAnalysis::with_core(ddg, Arc::clone(&core));
                let cached = analysis.hrms_order(|| panic!("`{}` was ordered twice", ddg.name()));
                assert_eq!(cached, &order[..], "cached order of `{}`", ddg.name());
            }
        }
    }
    assert_eq!(
        instrument::tarjan_runs(),
        loops.len(),
        "one Tarjan SCC pass per loop, shared across {} machines",
        machines.len()
    );
    assert_eq!(
        instrument::cycle_ratio_runs(),
        loops.len(),
        "one lambda-search (cycle-ratio) pass per loop, shared across {} machines",
        machines.len()
    );
}
