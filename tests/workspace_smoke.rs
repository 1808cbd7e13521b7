//! End-to-end smoke test of the workspace wiring: every scheduler the
//! workspace ships (the six baselines plus HRMS) schedules every loop of
//! the 24-loop reference suite, and every schedule passes the independent
//! validator. A failure here means a crate boundary, re-export or
//! scheduler contract broke — regardless of which crate's unit tests
//! still pass.

use hrms_repro::baselines::all_baselines;
use hrms_repro::prelude::*;

mod corpus;

#[test]
fn every_scheduler_schedules_every_reference_loop() {
    let machine = presets::govindarajan();
    let loops = corpus::loops("reference24");
    assert_eq!(loops.len(), 24, "the reference suite should have 24 loops");

    let mut schedulers: Vec<Box<dyn ModuloScheduler>> = all_baselines();
    schedulers.push(Box::new(HrmsScheduler::new()));
    assert_eq!(schedulers.len(), 7);

    for ddg in &loops {
        for scheduler in &schedulers {
            let outcome = scheduler
                .schedule_loop(ddg, &machine)
                .unwrap_or_else(|e| panic!("{} failed on `{}`: {e}", scheduler.name(), ddg.name()));
            validate_schedule(ddg, &machine, &outcome.schedule).unwrap_or_else(|e| {
                panic!(
                    "{} produced an invalid schedule for `{}`: {e}",
                    scheduler.name(),
                    ddg.name()
                )
            });
            assert!(
                outcome.metrics.ii >= outcome.metrics.mii,
                "{} scheduled `{}` below the MII ({} < {})",
                scheduler.name(),
                ddg.name(),
                outcome.metrics.ii,
                outcome.metrics.mii
            );
        }
    }
}
