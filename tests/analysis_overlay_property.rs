//! Property suite for the shared analysis core: scheduling a loop
//! through a shared [`LoopCore`] must be indistinguishable — byte for
//! byte — from scheduling it from scratch, on every machine preset, and
//! the machine-independent analysis must run exactly once per loop no
//! matter how many machines share the core.
//!
//! The suite sweeps all 24 reference loops plus a band of generated
//! loops, across every preset and every registered scheduler except the
//! budget-bound branch-and-bound search. Each schedule is produced three
//! ways — from scratch, over a shared core, and through
//! [`ModuloScheduler::schedule`] with the identity [`Perturbation`] — and
//! all three must render the same report bytes. The third route pins that
//! the feedback loop's attempt 0 (`Perturbation::baseline()`, the identity
//! with a label) reproduces the one-shot schedule through every
//! scheduler's one scheduling method; that the directional baselines'
//! `boost_order` keeps an order unchanged under the identity is pinned by
//! its unit test in `hrms-baselines`.

use std::sync::Arc;

use hrms_repro::ddg::{Ddg, LoopAnalysis, LoopCore};
use hrms_repro::machine::presets;
use hrms_repro::modsched::{report_line, Perturbation, ReportOptions};
use hrms_repro::registry::{scheduler_by_slug, SCHEDULER_SLUGS};
use hrms_repro::workloads::{reference24, GeneratorConfig, LoopGenerator};

/// The loops under test: every reference loop plus generated ones spanning
/// sparse and recurrence-heavy shapes.
fn suite() -> Vec<Ddg> {
    let mut loops = reference24::all();
    let config = GeneratorConfig {
        min_ops: 8,
        mean_ops: 24.0,
        max_ops: 48,
        ..GeneratorConfig::default()
    };
    let mut generator = LoopGenerator::new(7, config);
    for _ in 0..6 {
        loops.push(generator.next_loop());
    }
    loops
}

#[test]
fn shared_core_schedules_are_byte_identical_to_from_scratch_on_every_preset() {
    let schedulers: Vec<_> = SCHEDULER_SLUGS
        .iter()
        .filter(|&&slug| slug != "bnb")
        .map(|slug| scheduler_by_slug(slug).expect("listed slugs resolve"))
        .collect();
    let options = ReportOptions { timing: false };
    let loops = suite();
    for ddg in &loops {
        for scheduler in &schedulers {
            // One core serves every machine this loop is scheduled on.
            let core = Arc::new(LoopCore::new());
            for machine in presets::all() {
                let cell = format!(
                    "loop `{}` x {} x {}",
                    ddg.name(),
                    scheduler.name(),
                    machine.name()
                );
                let render = |result: Result<_, _>| {
                    result.map(|outcome| {
                        report_line(ddg, &machine, scheduler.name(), &outcome, options)
                    })
                };
                let fresh = render(scheduler.schedule_loop(ddg, &machine));
                let shared = render(scheduler.schedule_loop_with_core(ddg, &machine, &core));
                let identity = render(scheduler.schedule(
                    &LoopAnalysis::with_core(ddg, Arc::clone(&core)),
                    &machine,
                    &Perturbation::baseline(),
                ));
                assert_eq!(fresh, shared, "shared core drifted: {cell}");
                assert_eq!(fresh, identity, "identity perturbation drifted: {cell}");
            }
        }
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

// The verify-recurrence feature runs an extra circuit-enumeration oracle
// that moves the instrumentation counters, so the exact once-per-loop pin
// only holds in the default build.
#[cfg(not(feature = "verify-recurrence"))]
#[test]
fn the_machine_independent_analysis_runs_once_per_loop_across_all_presets() {
    use hrms_repro::ddg::instrument;
    use hrms_repro::hrms::HrmsScheduler;
    use hrms_repro::modsched::ModuloScheduler;

    let scheduler = HrmsScheduler::new();
    let loops = suite();
    let machines = presets::all();
    instrument::reset();
    for ddg in &loops {
        let core = Arc::new(LoopCore::new());
        for machine in &machines {
            let _ = scheduler.schedule_loop_with_core(ddg, machine, &core);
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
