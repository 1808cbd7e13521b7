//! Property tier for the feedback-guided iterative rescheduler.
//!
//! Every property is checked over three corpora — the 24-loop reference
//! suite, recurrence-heavy bodies, and the register-pressure suite whose
//! schedules exceed the paper machines' 32-register files — and every
//! schedule the rescheduler accepts must pass the independent certifier:
//!
//! * the fixpoint terminates within the configured iteration budget;
//! * the selected attempt is never lexicographically worse than the
//!   unperturbed one-shot baseline on `(spills, II, MaxLive)`;
//! * the whole run is deterministic (schedules and trace bytes);
//! * on the register-pressure suite the feedback loop strictly improves
//!   the spill count or the achieved II on a meaningful fraction of the
//!   degraded loops, with zero regressions anywhere.

use hrms_repro::ddg::Ddg;
use hrms_repro::machine::{presets, Machine};
use hrms_repro::modsched::{FeedbackConfig, FeedbackTrace, ModuloScheduler};
use hrms_repro::registry::{scheduler_by_slug, wrap_feedback, BoxedScheduler};
use hrms_repro::verify::certify;

mod corpus;

/// The feedback-wrapped HRMS scheduler exactly as the registry builds it
/// for the `feedback:hrms` slug (spill evaluator wired in).
fn feedback_hrms(config: FeedbackConfig) -> BoxedScheduler {
    wrap_feedback(
        scheduler_by_slug("hrms").expect("hrms is registered"),
        config,
    )
}

/// Runs one loop through the rescheduler and checks every per-loop
/// invariant of the tier, returning the trace for corpus-level statistics.
fn check_one(
    scheduler: &dyn ModuloScheduler,
    ddg: &Ddg,
    machine: &Machine,
    config: &FeedbackConfig,
) -> FeedbackTrace {
    let outcome = scheduler
        .schedule_loop(ddg, machine)
        .unwrap_or_else(|e| panic!("`{}` failed: {e}", ddg.name()));
    let trace = outcome.feedback.clone().expect("feedback trace attached");

    // Termination: the fixpoint respects the iteration budget.
    assert!(
        trace.iterations.len() <= config.max_iterations.max(1),
        "`{}`: {} attempts exceed the budget of {}",
        ddg.name(),
        trace.iterations.len(),
        config.max_iterations
    );

    // Never worse than one-shot: attempt 0 is the unperturbed baseline.
    let baseline = &trace.iterations[0];
    assert_eq!(baseline.perturbation, "baseline", "`{}`", ddg.name());
    assert!(
        trace.best().score() <= baseline.score(),
        "`{}`: selected {:?} is worse than the one-shot {:?}",
        ddg.name(),
        trace.best().score(),
        baseline.score()
    );

    // The returned outcome is the selected attempt's schedule of the
    // *original* loop, and it certifies independently.
    assert_eq!(outcome.metrics.ii, trace.best().ii, "`{}`", ddg.name());
    let cert = certify(ddg, machine, &outcome.schedule);
    assert!(
        cert.passed(),
        "`{}`: certificate failed: {:?}",
        ddg.name(),
        cert.diagnostics
    );

    // Determinism: a second run reproduces the schedule and the trace bytes.
    let again = scheduler.schedule_loop(ddg, machine).unwrap();
    assert_eq!(outcome.schedule, again.schedule, "`{}`", ddg.name());
    assert_eq!(
        trace.to_json(),
        again.feedback.expect("trace attached").to_json(),
        "`{}`: trace bytes differ between runs",
        ddg.name()
    );

    trace
}

#[test]
fn feedback_terminates_never_degrades_and_certifies_on_the_reference_suite() {
    let config = FeedbackConfig::default();
    let scheduler = feedback_hrms(config);
    let machine = presets::perfect_club();
    for ddg in corpus::loops("reference24") {
        check_one(scheduler.as_ref(), &ddg, &machine, &config);
    }
}

#[test]
fn feedback_ii_signal_drives_recurrence_heavy_loops_without_a_budget() {
    // No register budget: the II-vs-MII signal alone drives the loop, the
    // recurrence-group extraction path (cycle ratios) is the one exercised.
    let config = FeedbackConfig {
        budget: None,
        ..FeedbackConfig::default()
    };
    let scheduler = feedback_hrms(config);
    let machine = presets::govindarajan();
    for ddg in corpus::loops("recurrence-heavy-small") {
        let trace = check_one(scheduler.as_ref(), &ddg, &machine, &config);
        // Without a budget the spill signal must stay silent.
        assert!(
            trace.iterations.iter().all(|it| it.spills == 0),
            "`{}`: spill signal fired with no budget",
            ddg.name()
        );
    }
}

#[test]
fn feedback_improves_a_quarter_of_the_degraded_register_pressure_loops() {
    let config = FeedbackConfig::default();
    let scheduler = feedback_hrms(config);
    let machine = presets::perfect_club();

    let mut degraded = 0usize;
    let mut improved = 0usize;
    for ddg in corpus::loops("register-pressure") {
        let trace = check_one(scheduler.as_ref(), &ddg, &machine, &config);
        let baseline = &trace.iterations[0];
        let best = trace.best();
        // Zero regressions anywhere (stronger than the lexicographic bound:
        // no component of the tuple the run optimises may regress without a
        // strict win earlier in the tuple — already implied by score(), so
        // assert the implied per-loop bound explicitly).
        assert!(best.score() <= baseline.score(), "`{}`", ddg.name());
        let was_degraded =
            baseline.spills > 0 || baseline.ii > trace_mii(&trace) || baseline.max_live > 32;
        if was_degraded {
            degraded += 1;
            if best.spills < baseline.spills || best.ii < baseline.ii {
                improved += 1;
            }
        }
    }
    assert!(
        degraded > 0,
        "the register-pressure suite must contain degraded one-shot schedules"
    );
    assert!(
        improved * 4 >= degraded,
        "feedback improved spills or II on only {improved}/{degraded} degraded loops"
    );
}

/// The MII is not recorded in the trace; recover it as the smallest II any
/// attempt achieved bounded below by the selected attempt's II (exact
/// enough for the degradation predicate: a baseline at an II above the
/// eventual best is degraded by definition).
fn trace_mii(trace: &FeedbackTrace) -> u32 {
    trace.iterations.iter().map(|it| it.ii).min().unwrap_or(0)
}
