//! Cross-crate integration tests: every scheduler produces valid schedules
//! on every workload family, and the derived metrics are mutually
//! consistent.

use hrms_repro::baselines::all_baselines;
use hrms_repro::ddg::{parse_loop, LoopAnalysis};
use hrms_repro::modsched::{SchedError, MAX_II};
use hrms_repro::prelude::*;
use hrms_repro::registry::{scheduler_by_slug, SCHEDULER_SLUGS};

mod corpus;

fn all_schedulers() -> Vec<Box<dyn ModuloScheduler>> {
    let mut v: Vec<Box<dyn ModuloScheduler>> = vec![Box::new(HrmsScheduler::new())];
    v.extend(all_baselines());
    v
}

/// The paper's figures, the reference suite and the first 20
/// Perfect-Club-like loops.
fn workload_sample() -> Vec<Ddg> {
    let mut loops = corpus::loops("motivating");
    loops.extend(corpus::loops("reference24"));
    loops.extend(corpus::loops("perfect-club-like").into_iter().take(20));
    loops
}

#[test]
fn every_scheduler_produces_valid_schedules_on_every_workload() {
    let machines = [presets::govindarajan(), presets::perfect_club()];
    let schedulers = all_schedulers();
    for ddg in workload_sample() {
        for machine in &machines {
            for scheduler in &schedulers {
                // The exhaustive scheduler is exercised only on small loops
                // to keep the test fast.
                if scheduler.name().starts_with("B&B") && ddg.num_nodes() > 12 {
                    continue;
                }
                let outcome = scheduler.schedule_loop(&ddg, machine).unwrap_or_else(|e| {
                    panic!("{} failed on `{}`: {e}", scheduler.name(), ddg.name())
                });
                validate_schedule(&ddg, machine, &outcome.schedule).unwrap_or_else(|e| {
                    panic!(
                        "{} produced an invalid schedule on `{}`: {e}",
                        scheduler.name(),
                        ddg.name()
                    )
                });
                assert!(outcome.metrics.ii >= outcome.metrics.mii);
                assert!(outcome.metrics.stage_count >= 1);
            }
        }
    }
}

#[test]
fn metrics_are_internally_consistent() {
    let machine = presets::perfect_club();
    let hrms = HrmsScheduler::new();
    for ddg in workload_sample() {
        let outcome = hrms.schedule_loop(&ddg, &machine).unwrap();
        let lifetimes = LifetimeAnalysis::analyze(&ddg, &outcome.schedule);
        // MaxLive is a lower bound on buffers (per value, ceil(len/II)
        // instances are counted by both, and buffers add the stores).
        assert!(lifetimes.max_live() <= lifetimes.buffers());
        assert_eq!(outcome.metrics.max_live, lifetimes.max_live());
        assert_eq!(outcome.metrics.buffers, lifetimes.buffers());
        // Kernel row population matches the schedule.
        let kernel = outcome.schedule.kernel();
        assert_eq!(kernel.num_ops(), ddg.num_nodes());
        assert_eq!(kernel.ii(), outcome.schedule.ii());
        // Estimated cycles follow II × iterations.
        assert_eq!(
            outcome.schedule.estimated_cycles(ddg.iteration_count()),
            u64::from(outcome.metrics.ii) * ddg.iteration_count()
        );
    }
}

#[test]
fn rotating_allocation_succeeds_on_every_hrms_schedule() {
    let machine = presets::perfect_club();
    let hrms = HrmsScheduler::new();
    for ddg in workload_sample() {
        let outcome = hrms.schedule_loop(&ddg, &machine).unwrap();
        let allocation = allocate_rotating(&ddg, &outcome.schedule);
        assert!(allocation.registers >= allocation.max_live);
        // On the structured (paper / reference) loops the end-fit strategy
        // stays within a few registers of the MaxLive lower bound; randomly
        // generated lifetime patterns can cost a little more, so only the
        // lower bound is asserted for those.
        if !ddg.name().starts_with("synthetic") {
            assert!(
                allocation.overhead() <= 4,
                "`{}` needed {} rotating registers for MaxLive {}",
                ddg.name(),
                allocation.registers,
                allocation.max_live
            );
        }
    }
}

#[test]
fn spill_scheduling_respects_budgets_across_schedulers() {
    let machine = presets::perfect_club();
    for ddg in &corpus::loops("perfect-club-like")[..10] {
        for scheduler in [
            &HrmsScheduler::new() as &dyn ModuloScheduler,
            &TopDownScheduler::new() as &dyn ModuloScheduler,
        ] {
            let unlimited =
                schedule_with_register_budget(ddg, &machine, scheduler, &SpillConfig::new(10_000))
                    .unwrap();
            let baseline = unlimited.registers(PressureKind::VariantsAndInvariants);
            let budget = (baseline / 2).max(4);
            let result =
                schedule_with_register_budget(ddg, &machine, scheduler, &SpillConfig::new(budget))
                    .unwrap();
            validate_schedule(&result.ddg, &machine, &result.outcome.schedule).unwrap();
            if result.fits {
                assert!(result.registers(PressureKind::VariantsAndInvariants) <= budget);
            }
            assert!(result.outcome.metrics.ii >= unlimited.outcome.metrics.ii);
        }
    }
}

#[test]
fn preordering_covers_every_node_exactly_once_on_all_workloads() {
    for ddg in workload_sample() {
        let order =
            hrms_repro::hrms::pre_order(&hrms_repro::ddg::LoopAnalysis::analyze(&ddg)).order;
        let mut sorted: Vec<NodeId> = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ddg.num_nodes(), "`{}`", ddg.name());
    }
}

#[test]
fn a_rec_mii_above_the_largest_ii_is_rejected_before_any_attempt() {
    // Every scheduler reads the MII before its first attempt, so each must
    // give up there instead of truncating the bound or sizing a
    // reservation table by it. RecMII 6·10⁹ exceeds u32::MAX; RecMII 2·10⁹
    // fits in u32 but exceeds MAX_II, the largest II any scheduler tries.
    let cases = [
        ("recmii_overflow", 6_000_000_000, u32::MAX),
        ("huge_ii", 2_000_000_000, MAX_II),
    ];
    let machine = presets::govindarajan();
    for (name, rec_mii, max_ii_tried) in cases {
        let path = format!("tests/fixtures/{name}.loop");
        let ddg = parse_loop(&corpus::repo_file(&path)).unwrap();
        assert_eq!(LoopAnalysis::analyze(&ddg).rec_mii(), Some(rec_mii));
        let slugs = SCHEDULER_SLUGS.into_iter().chain(["feedback:hrms"]);
        for slug in slugs {
            let scheduler = scheduler_by_slug(slug).unwrap();
            assert_eq!(
                scheduler.schedule_loop(&ddg, &machine).err(),
                Some(SchedError::NoValidSchedule { max_ii_tried }),
                "`{name}` under `{slug}`"
            );
        }
    }
}
