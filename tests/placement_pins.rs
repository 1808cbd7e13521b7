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

use hrms_repro::ddg::{Ddg, DdgBuilder, LoopAnalysis, NodeId};
use hrms_repro::hrms::{pre_order, schedule_at_ii_with};
use hrms_repro::machine::{presets, Machine};
use hrms_repro::modsched::{FeedbackConfig, MiiInfo, Schedule};
use hrms_repro::prelude::{
    BranchAndBoundScheduler, HrmsScheduler, ModuloScheduler, SchedulerConfig,
};
use hrms_repro::registry::{feedback_scheduler, scheduler_by_slug};
use hrms_repro::verify::certify;
use hrms_repro::workloads::synthetic::register_pressure_suite;
use hrms_repro::workloads::{reference24, GeneratorConfig, LoopGenerator};

/// Builds a deterministic generator loop (same shape as the pre-ordering
/// pins).
fn generated(seed: u64, size: usize, recurrence_probability: f64) -> Ddg {
    let config = GeneratorConfig {
        min_ops: size.max(3),
        mean_ops: size as f64,
        max_ops: size.max(3) + 6,
        recurrence_probability,
        ..GeneratorConfig::default()
    };
    LoopGenerator::new(seed, config).next_loop()
}

/// Concatenates two loops into one multi-component graph.
fn merged(a: &Ddg, b: &Ddg) -> Ddg {
    let mut bld = DdgBuilder::new(format!("{}+{}", a.name(), b.name()));
    for (half, g) in [a, b].into_iter().enumerate() {
        let ids: Vec<NodeId> = g
            .nodes()
            .map(|(_, n)| bld.node(format!("h{half}_{}", n.name()), n.kind(), n.latency()))
            .collect();
        for (_, e) in g.edges() {
            bld.edge(
                ids[e.source().index()],
                ids[e.target().index()],
                e.kind(),
                e.distance(),
            )
            .expect("merged ids are in range");
        }
    }
    bld.build().expect("merging two valid loops is valid")
}

/// FNV-1a over the II and every node's cycle: the pinned fingerprint of
/// one schedule.
fn fingerprint(s: &Schedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: [u8; 8]| {
        for byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(u64::from(s.ii()).to_le_bytes());
    eat((s.len() as u64).to_le_bytes());
    for (_, cycle) in s.iter() {
        eat(cycle.to_le_bytes());
    }
    h
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

/// Compares `actual` with the golden file `tests/golden/<file>`, or
/// rewrites the file when `HRMS_BLESS` is set.
fn assert_matches_golden(file: &str, actual: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("HRMS_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}; regenerate with HRMS_BLESS=1"));
    assert_eq!(
        actual, golden,
        "placements drifted from tests/golden/{file}; if the change is intentional, \
         regenerate with `HRMS_BLESS=1 cargo test --test placement_pins`"
    );
}

#[test]
fn reference24_placements_match_the_golden_pins() {
    let mut out = String::new();
    for g in reference24::all() {
        for machine in [presets::govindarajan(), presets::perfect_club()] {
            let key = format!("reference24/{}/{}", g.name(), machine.name());
            pin_orders(&mut out, &key, &g, &machine);
        }
    }
    assert_matches_golden("placement_reference24.txt", &out);
}

#[test]
fn generated_loop_placements_match_the_golden_pins() {
    let m = presets::govindarajan();
    let mut out = String::new();
    let mut checked = 0usize;
    for seed in 0..120u64 {
        let size = 4 + (seed as usize * 7) % 44;
        // Recurrence-heavy and recurrence-free variants of every seed.
        for rec_prob in [0.0, 0.8] {
            let g = generated(seed, size, rec_prob);
            pin_orders(&mut out, &format!("gen/s{seed}/p{rec_prob}"), &g, &m);
            checked += 1;
        }
    }
    assert!(checked >= 240, "the suite must cover at least 240 loops");
    assert_matches_golden("placement_generated.txt", &out);
}

#[test]
fn multi_component_placements_match_the_golden_pins() {
    let m = presets::perfect_club();
    let mut out = String::new();
    for seed in 0..10u64 {
        let a = generated(seed, 6 + (seed as usize % 20), 0.7);
        let b = generated(seed + 1000, 4 + (seed as usize % 14), 0.0);
        pin_orders(&mut out, &format!("merged/s{seed}"), &merged(&a, &b), &m);
    }
    assert_matches_golden("placement_multi_component.txt", &out);
}

#[test]
fn hrms_end_to_end_schedules_match_the_golden_pins() {
    // The schedule the full HrmsScheduler returns is the first one a plain
    // II escalation over the same pre-ordering accepts, for every
    // reference loop (none needs the robustness fallback), and it is
    // pinned in its own right.
    let m = presets::govindarajan();
    let mut out = String::new();
    for g in reference24::all() {
        let outcome = HrmsScheduler::new().schedule_loop(&g, &m).unwrap();
        let la = LoopAnalysis::analyze(&g);
        let escalated = first_feasible(&g, &m, &la, &pre_order(&la).order);
        assert_eq!(
            outcome.schedule,
            escalated,
            "`{}`: the scheduler's result differs from a plain escalation",
            g.name()
        );
        let key = format!("reference24/{}/{}", g.name(), m.name());
        pin(&mut out, &key, &g, &m, &outcome.schedule);
    }
    assert_matches_golden("placement_end_to_end.txt", &out);
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
    let reference = reference24::all();
    for slug in HEURISTIC_SLUGS {
        let scheduler = scheduler_by_slug(slug).expect("registered slug");
        for machine in [presets::govindarajan(), presets::perfect_club()] {
            for g in &reference {
                let key = format!("{slug}/reference24/{}/{}", g.name(), machine.name());
                pin_scheduler(&mut out, &key, scheduler.as_ref(), g, &machine);
            }
        }
    }
    // The register-pressure suite is where the feedback loop perturbs and
    // reschedules, so every attempt of the driver is exercised.
    let m = presets::govindarajan();
    for slug in HEURISTIC_SLUGS {
        let scheduler = feedback_scheduler(slug, FeedbackConfig::default()).expect("registered");
        // Loop names repeat across the suite's sizes, so the key also
        // carries the suite index.
        for (i, g) in register_pressure_suite().iter().enumerate() {
            let key = format!("feedback:{slug}/rp{i:02}/{}/{}", g.name(), m.name());
            pin_scheduler(&mut out, &key, scheduler.as_ref(), g, &m);
        }
    }
    let bnb = BranchAndBoundScheduler {
        config: SchedulerConfig {
            budget_per_ii: 5_000,
        },
    };
    for g in &reference[..6] {
        let key = format!("bnb/reference24/{}/{}", g.name(), m.name());
        pin_scheduler(&mut out, &key, &bnb, g, &m);
    }
    assert_matches_golden("scheduler_end_to_end.txt", &out);
}
