//! Golden pins of the scheduling step (Section 3.3) and of every
//! scheduler's end-to-end result.
//!
//! For every loop, machine and node order of four corpora, this suite pins
//! the first initiation interval at or above the MII at which one placement
//! pass (`schedule_at_ii_with` over the loop's dense placement arcs)
//! succeeds, together with an FNV-1a fingerprint of that schedule. Each
//! loop is placed in two orders: the HRMS pre-ordering and plain program
//! order. A fifth file pins the II and fingerprint that each registered
//! scheduler returns, one-shot and wrapped in the feedback loop, so the
//! shared II-escalation driver is pinned through all seven schedulers.
//! Every pinned schedule must also pass the independent certifier
//! (`hrms_verify::certify`), so a pin can never freeze an invalid schedule.
//!
//! The pins were blessed while the `Ddg`-walking reference placement still
//! ran beside the dense path and asserted byte-equality with it at every
//! II, so they freeze the output both paths agreed on. Each test owns its
//! golden file under `tests/golden/`, so concurrent bless runs cannot race.
//!
//! Regenerate the golden files after an *intentional* placement change
//! with: `HRMS_BLESS=1 cargo test --test placement_pins`.

use std::fmt::Write as _;

use hrms_repro::ddg::{Ddg, Fnv64, LoopAnalysis, NodeId};
use hrms_repro::hrms::{pre_order, schedule_at_ii_with};
use hrms_repro::machine::{presets, Machine};
use hrms_repro::modsched::{FeedbackConfig, MiiInfo, Schedule};
use hrms_repro::prelude::{
    BranchAndBoundScheduler, HrmsScheduler, ModuloScheduler, SchedulerConfig,
};
use hrms_repro::registry::{feedback_scheduler, scheduler_by_slug};
use hrms_repro::verify::certify;

mod corpus;

/// FNV-1a over the II and every node's cycle: the pinned fingerprint of
/// one schedule.
fn fingerprint(s: &Schedule) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(u64::from(s.ii())).write_u64(s.len() as u64);
    for (_, cycle) in s.iter() {
        h.write(&cycle.to_le_bytes());
    }
    h.finish()
}

/// Certifies `schedule` and appends its `key ii fingerprint` pin line.
fn pin(out: &mut String, key: &str, g: &Ddg, machine: &Machine, schedule: &Schedule) {
    let cert = certify(g, machine, schedule);
    assert!(
        cert.passed(),
        "`{key}`: certificate failed: {:?}",
        cert.diagnostics
    );
    let _ = writeln!(
        out,
        "{key} {} {:016x}",
        schedule.ii(),
        fingerprint(schedule)
    );
}

/// One placement pass per II from the MII up, returning the first schedule
/// the scheduling step accepts for `order`.
fn first_feasible(g: &Ddg, machine: &Machine, la: &LoopAnalysis<'_>, order: &[NodeId]) -> Schedule {
    let mii = MiiInfo::compute(machine, la)
        .unwrap_or_else(|e| panic!("`{}` is not a valid loop body: {e}", g.name()))
        .mii();
    // Generous cap: every corpus loop schedules well before it.
    let max_ii = mii + 256;
    (mii..=max_ii)
        .find_map(|ii| schedule_at_ii_with(g, machine, la.placement(), order, ii))
        .unwrap_or_else(|| panic!("`{}`: no II in [{mii}, {max_ii}] schedules", g.name()))
}

/// Pins `g` on `machine` in both orders: the HRMS pre-ordering and program
/// order.
fn pin_orders(out: &mut String, key: &str, g: &Ddg, machine: &Machine) {
    let la = LoopAnalysis::analyze(g);
    let hrms_order = pre_order(&la).order;
    let program_order: Vec<NodeId> = g.node_ids().collect();
    for (tag, order) in [("hrms", &hrms_order), ("program", &program_order)] {
        let schedule = first_feasible(g, machine, &la, order);
        pin(out, &format!("{key}/{tag}"), g, machine, &schedule);
    }
}

#[test]
fn reference24_placements_match_the_golden_pins() {
    let mut out = String::new();
    for (key, g) in corpus::keyed("reference24") {
        for machine in [presets::govindarajan(), presets::perfect_club()] {
            let key = format!("{key}/{}", machine.name());
            pin_orders(&mut out, &key, &g, &machine);
        }
    }
    corpus::assert_matches_golden("placement_reference24.txt", &out);
}

#[test]
fn generated_loop_placements_match_the_golden_pins() {
    let m = presets::govindarajan();
    let mut out = String::new();
    for (key, g) in corpus::keyed("gen") {
        pin_orders(&mut out, &key, &g, &m);
    }
    corpus::assert_matches_golden("placement_generated.txt", &out);
}

#[test]
fn multi_component_placements_match_the_golden_pins() {
    let m = presets::perfect_club();
    let mut out = String::new();
    // The first ten merged loops: seeds 0..10.
    for (key, g) in corpus::keyed("merged").into_iter().take(10) {
        pin_orders(&mut out, &key, &g, &m);
    }
    corpus::assert_matches_golden("placement_multi_component.txt", &out);
}

#[test]
fn hrms_end_to_end_schedules_match_the_golden_pins() {
    // The schedule the full HrmsScheduler returns is the first one a plain
    // II escalation over the same pre-ordering accepts, for every
    // reference loop (none needs the robustness fallback), and it is
    // pinned in its own right.
    let m = presets::govindarajan();
    let mut out = String::new();
    for (key, g) in corpus::keyed("reference24") {
        let outcome = HrmsScheduler::new().schedule_loop(&g, &m).unwrap();
        let la = LoopAnalysis::analyze(&g);
        let escalated = first_feasible(&g, &m, &la, &pre_order(&la).order);
        assert_eq!(
            outcome.schedule,
            escalated,
            "`{}`: the scheduler's result differs from a plain escalation",
            g.name()
        );
        let key = format!("{key}/{}", m.name());
        pin(&mut out, &key, &g, &m, &outcome.schedule);
    }
    corpus::assert_matches_golden("placement_end_to_end.txt", &out);
}

/// The heuristic schedulers pinned end to end, by registry slug.
const HEURISTIC_SLUGS: [&str; 6] = [
    "hrms",
    "top-down",
    "bottom-up",
    "slack",
    "frlc",
    "iterative",
];

/// Schedules `g` with `scheduler` and pins the result under `key`.
fn pin_scheduler(
    out: &mut String,
    key: &str,
    scheduler: &dyn ModuloScheduler,
    g: &Ddg,
    machine: &Machine,
) {
    let outcome = scheduler
        .schedule_loop(g, machine)
        .unwrap_or_else(|e| panic!("`{key}` failed: {e}"));
    pin(out, key, g, machine, &outcome.schedule);
}

#[test]
fn every_scheduler_end_to_end_matches_the_golden_pins() {
    let mut out = String::new();
    let reference = corpus::keyed("reference24");
    for slug in HEURISTIC_SLUGS {
        let scheduler = scheduler_by_slug(slug).expect("registered slug");
        for machine in [presets::govindarajan(), presets::perfect_club()] {
            for (key, g) in &reference {
                let key = format!("{slug}/{key}/{}", machine.name());
                pin_scheduler(&mut out, &key, scheduler.as_ref(), g, &machine);
            }
        }
    }
    // The register-pressure suite is where the feedback loop perturbs and
    // reschedules, so every attempt of the driver is exercised.
    let m = presets::govindarajan();
    let register_pressure = corpus::keyed("register-pressure");
    for slug in HEURISTIC_SLUGS {
        let scheduler = feedback_scheduler(slug, FeedbackConfig::default()).expect("registered");
        for (key, g) in &register_pressure {
            let key = format!("feedback:{slug}/{key}/{}", m.name());
            pin_scheduler(&mut out, &key, scheduler.as_ref(), g, &m);
        }
    }
    let bnb = BranchAndBoundScheduler {
        config: SchedulerConfig {
            budget_per_ii: 5_000,
        },
    };
    for (key, g) in &reference[..6] {
        let key = format!("bnb/{key}/{}", m.name());
        pin_scheduler(&mut out, &key, &bnb, g, &m);
    }
    corpus::assert_matches_golden("scheduler_end_to_end.txt", &out);
}
