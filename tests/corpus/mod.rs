//! The named loop corpora of the root tests, in one table.
//!
//! Every root test binary compiles this module through `mod corpus;` and
//! takes its loops from [`REGISTRY`] by name, and
//! `recurrence_differential.rs` cross-checks every distinct loop of the
//! table, so each corpus is defined once, for the test that runs it and
//! for the cross-check. A loop keeps the key its golden pins use, such as
//! `gen/s{seed}/p{prob}`. Hand-built graphs stay inline in their tests.
//!
//! Each binary uses a different part of this module, so unused items are
//! allowed here, and only here.

#![allow(dead_code)]

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use hrms_repro::ddg::{parse_loops, Ddg, DdgBuilder, LoopAnalysis, NodeId};
use hrms_repro::engine::BatchEngine;
use hrms_repro::machine::{presets, Machine};
use hrms_repro::modsched::{
    push_json_str, FeedbackConfig, ModuloScheduler, Perturbation, RegisterBudget, SchedError,
    ScheduleOutcome,
};
use hrms_repro::regalloc::{schedule_with_register_budget, PressureKind, SpillConfig};
use hrms_repro::registry::{scheduler_by_slug, wrap_feedback, BoxedScheduler};
use hrms_repro::serve::json;
use hrms_repro::workloads::synthetic::{
    self, interleaved_recurrence_config, recurrence_heavy_config, stress_config, suite_config,
};
use hrms_repro::workloads::{motivating, reference24, GeneratorConfig, LoopGenerator};
use proptest::prelude::{any, Strategy};

/// The loops of a corpus, each with its key.
pub type Keyed = Vec<(String, Ddg)>;

/// One named corpus of the table.
pub struct Corpus {
    /// The name tests take the corpus by.
    pub name: &'static str,
    /// How many loops the corpus holds; the registry test pins it.
    pub len: usize,
    /// Whether Johnson's enumeration completes on the corpus's loops. The
    /// cross-check checks only the `RecMII` of the other loops.
    pub enumerable: bool,
    build: Build,
}

/// How a corpus builds and keys its loops.
enum Build {
    /// Keys `{corpus}/{loop name}`.
    Named(fn() -> Vec<Ddg>),
    /// The keys the builder gives, which golden pins use.
    Pinned(fn() -> Keyed),
}

impl Corpus {
    /// Builds the corpus: every loop with its key, in a fixed order.
    pub fn build(&self) -> Keyed {
        match self.build {
            Build::Named(loops) => loops()
                .into_iter()
                .map(|g| (format!("{}/{}", self.name, g.name()), g))
                .collect(),
            Build::Pinned(loops) => loops(),
        }
    }
}

const fn corpus(name: &'static str, len: usize, build: Build) -> Corpus {
    Corpus {
        name,
        len,
        enumerable: true,
        build,
    }
}

const fn named(name: &'static str, len: usize, loops: fn() -> Vec<Ddg>) -> Corpus {
    corpus(name, len, Build::Named(loops))
}

const fn pinned(name: &'static str, len: usize, loops: fn() -> Keyed) -> Corpus {
    corpus(name, len, Build::Pinned(loops))
}

/// Every corpus of the root tests. The derived runs come last, costliest
/// first: [`built`] claims corpora in table order, and the ones before
/// them take milliseconds.
pub const REGISTRY: &[Corpus] = &[
    // The named suites of `hrms_workloads`.
    named("reference24", 24, reference24::all),
    named("motivating", 5, motivating::all),
    named("perfect-club-like", 60, || {
        synthetic::perfect_club_like_sized(60)
    }),
    named("stress", 6, synthetic::stress_suite),
    named("interleaved", 6, synthetic::interleaved_recurrence_suite),
    Corpus {
        enumerable: false,
        ..named("recurrence-heavy", 4, synthetic::recurrence_heavy_suite)
    },
    // Loop names repeat across the suite's sizes, so the key carries the
    // suite index.
    pinned("register-pressure", 12, || {
        let suite = synthetic::register_pressure_suite().into_iter();
        let key = |(i, g): (usize, Ddg)| (format!("rp{i:02}/{}", g.name()), g);
        suite.enumerate().map(key).collect()
    }),
    // Loops read from files: the shipped example and every loop of the
    // serve request fixture.
    named("examples", 1, || {
        parse_loops(&repo_file("examples/loops/dotprod.loop")).unwrap()
    }),
    named("serve-requests", 6, || {
        let mut loops = Vec::new();
        for line in repo_file("tests/fixtures/serve/requests.jsonl").lines() {
            let request = json::parse(line).unwrap();
            let texts = request.get("loops").and_then(|l| l.as_array());
            for text in texts.unwrap_or(&[]) {
                loops.extend(parse_loops(text.as_str().unwrap()).unwrap_or_default());
            }
        }
        loops
    }),
    // Seeded generator corpora.
    pinned("gen", 240, || {
        let mut loops = Vec::new();
        for seed in 0..120u64 {
            // Recurrence-free and recurrence-heavy variants of every seed.
            for prob in [0.0, 0.8] {
                let g = generated(seed, 4 + (seed as usize * 7) % 44, prob, 0);
                loops.push((format!("gen/s{seed}/p{prob}"), g));
            }
        }
        loops
    }),
    pinned("merged", 20, || {
        let merge = |seed| (format!("merged/s{seed}"), merged(merged_halves(seed)));
        (0..20).map(merge).collect()
    }),
    named("merged-halves", 40, || {
        (0..20).flat_map(merged_halves).collect()
    }),
    pinned("policy", 3, || {
        let policy = |seed| (format!("policy/s{seed}"), generated(seed, 20, 0.5, 0));
        [3, 17, 99].into_iter().map(policy).collect()
    }),
    named("per-scc", 20, || {
        let per_scc = |seed| generated(seed, 10 + (seed as usize * 5) % 30, 0.8, 0);
        (0..20).map(per_scc).collect()
    }),
    // Overlapping ancestor back edges over 20-60 operations: circuits
    // threading three or more backward edges.
    named("dense", 30, || {
        let dense = |seed: u64| {
            let size = 20 + (seed as usize * 3) % 40;
            generated(seed ^ 0xDEAD, size, 1.0, 2 + (seed as usize % 5))
        };
        (0..30).map(dense).collect()
    }),
    // 30 seeds, then one dense-recurrence shape.
    named("escalation", 31, || {
        let escalation = |seed| generated(seed, 6 + (seed as usize * 5) % 30, 0.7, 0);
        let mut loops: Vec<Ddg> = (0..30).map(escalation).collect();
        loops.push(generated(7, 40, 1.0, 6));
        loops
    }),
    named("overlay", 6, || {
        let config = GeneratorConfig {
            min_ops: 8,
            mean_ops: 24.0,
            max_ops: 48,
            ..GeneratorConfig::default()
        };
        generate(7, config, 6)
    }),
    named("roundtrip/default", 120, || {
        generate(2024, GeneratorConfig::default(), 120)
    }),
    named("roundtrip/recurrence-heavy", 60, || {
        generate(77, recurrence_heavy_config(24), 60)
    }),
    named("roundtrip/interleaved", 60, || {
        generate(78, interleaved_recurrence_config(30), 60)
    }),
    named("preset/suite", 8, || generate(7, suite_config(), 8)),
    named("preset/stress", 4, || generate(11, stress_config(24), 4)),
    named("preset/recurrence-heavy", 4, || {
        generate(13, recurrence_heavy_config(20), 4)
    }),
    named("preset/interleaved-recurrences", 4, || {
        generate(17, interleaved_recurrence_config(24), 4)
    }),
    // Recurrence-heavy bodies small enough for a test tier (the named
    // suite's 500–2000-op loops belong to the benchmarks).
    named("recurrence-heavy-small", 3, || {
        let sized = |size| generate(0xFEED ^ size as u64, recurrence_heavy_config(size), 1);
        [40, 80, 120].into_iter().flat_map(sized).collect()
    }),
    // Every case of `property_based.rs`, test by test.
    named("property", 7 * CASES_PER_PROPERTY, || {
        let cases = PROPERTY_TESTS.into_iter().flat_map(property_cases);
        cases.map(|case| case.ddg()).collect()
    }),
    // Derived runs: `feedback:<slug>` for each heuristic scheduler on the
    // register-pressure suite and the Govindarajan machine
    // (`placement_pins.rs`), ...
    named("feedback:slack", 728, || pressure_feedback("slack")),
    // ... `feedback:hrms` on the reference and register-pressure suites
    // and the Perfect Club machine (`feedback_property.rs`), ...
    named("feedback:hrms/perfect-club", 1189, || {
        let suites = ["reference24", "register-pressure"].into_iter();
        let suites: Vec<Ddg> = suites.flat_map(loops).collect();
        let config = FeedbackConfig::default();
        feedback_run("hrms", config, &suites, &presets::perfect_club())
    }),
    named("feedback:frlc", 1224, || pressure_feedback("frlc")),
    named("feedback:iterative", 846, || pressure_feedback("iterative")),
    named("feedback:hrms", 826, || pressure_feedback("hrms")),
    named("feedback:top-down", 264, || pressure_feedback("top-down")),
    named("feedback:bottom-up", 169, || pressure_feedback("bottom-up")),
    // ... the serve fixture's four-register feedback request on the
    // example, ...
    named("feedback:hrms/4-registers", 9, || {
        let budget = Some(RegisterBudget { registers: 4 });
        let config = FeedbackConfig {
            budget,
            ..FeedbackConfig::default()
        };
        feedback_run("hrms", config, &loops("examples"), &presets::govindarajan())
    }),
    // ... the spill test of `scheduler_validity.rs` (the first ten
    // Perfect-Club-like loops under HRMS and Top-Down, spilled without a
    // limit and then under half the registers that needed), ...
    named("spilled/perfect-club-like", 201, || {
        let machine = presets::perfect_club();
        let mut recorded = Vec::new();
        for g in &loops("perfect-club-like")[..10] {
            for slug in ["hrms", "top-down"] {
                let unlimited = SpillConfig::new(10_000);
                let (loops, registers) = spill_run(g, &machine, slug, &unlimited);
                recorded.extend(loops);
                let half = SpillConfig::new((registers / 2).max(4));
                recorded.extend(spill_run(g, &machine, slug, &half).0);
            }
        }
        recorded
    }),
    // ... and every case of `spilling_is_sound`, spilled by HRMS under its
    // budget.
    named("spilled/property", 222, || {
        let machine = presets::perfect_club();
        let mut recorded = Vec::new();
        for case in property_cases("spilling_is_sound") {
            let config = SpillConfig {
                registers: case.budget.expect("the spill property samples a budget"),
                kind: PressureKind::VariantsOnly,
                max_rounds: 16,
            };
            recorded.extend(spill_run(&case.ddg(), &machine, "hrms", &config).0);
        }
        recorded
    }),
];

/// The loops of the corpus `name`, with their keys.
///
/// # Panics
///
/// If no corpus has that name.
pub fn keyed(name: &str) -> Keyed {
    REGISTRY
        .iter()
        .find(|corpus| corpus.name == name)
        .unwrap_or_else(|| panic!("no corpus is named `{name}`"))
        .build()
}

/// The loops of the corpus `name`.
pub fn loops(name: &str) -> Vec<Ddg> {
    keyed(name).into_iter().map(|(_, g)| g).collect()
}

/// Every corpus of the table with its loops, in table order. The corpora
/// are built once per test binary, on the batch engine's workers.
pub fn built() -> &'static [(&'static Corpus, Keyed)] {
    static BUILT: OnceLock<Vec<(&'static Corpus, Keyed)>> = OnceLock::new();
    BUILT.get_or_init(|| {
        let loops = BatchEngine::new().map(REGISTRY, |_, corpus| corpus.build());
        REGISTRY.iter().zip(loops).collect()
    })
}

/// Reads a file of the repository.
pub fn repo_file(path: &str) -> String {
    std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// A deterministic generator loop of `size` operations (at least three).
fn generated(seed: u64, size: usize, recurrence_probability: f64, extra: usize) -> Ddg {
    let config = GeneratorConfig {
        min_ops: size.max(3),
        mean_ops: size as f64,
        max_ops: size.max(3) + 6,
        recurrence_probability,
        extra_backward_edges: extra,
        ..GeneratorConfig::default()
    };
    LoopGenerator::new(seed, config).next_loop()
}

/// The first `count` loops of the generator seeded with `seed`.
fn generate(seed: u64, config: GeneratorConfig, count: usize) -> Vec<Ddg> {
    LoopGenerator::new(seed, config).generate(count)
}

/// The two loops the `merged/s{seed}` loop concatenates: a
/// recurrence-bearing one and a recurrence-free one.
fn merged_halves(seed: u64) -> [Ddg; 2] {
    [
        generated(seed, 6 + (seed as usize % 20), 0.7, 0),
        generated(seed + 1000, 4 + (seed as usize % 14), 0.0, 0),
    ]
}

/// Concatenates two loops into one multi-component graph (no edges
/// between the halves).
fn merged([a, b]: [Ddg; 2]) -> Ddg {
    let mut bld = DdgBuilder::new(format!("{}+{}", a.name(), b.name()));
    for (half, g) in [a, b].iter().enumerate() {
        let ids: Vec<NodeId> = g
            .nodes()
            .map(|(_, n)| bld.node(format!("h{half}_{}", n.name()), n.kind(), n.latency()))
            .collect();
        for (_, e) in g.edges() {
            let (source, target) = (ids[e.source().index()], ids[e.target().index()]);
            bld.edge(source, target, e.kind(), e.distance())
                .expect("merged ids are in range");
        }
    }
    bld.build().expect("merging two valid loops is valid")
}

/// Cases per property test of `property_based.rs`.
pub const CASES_PER_PROPERTY: usize = 48;

/// The property tests of `property_based.rs`, in file order.
pub const PROPERTY_TESTS: [&str; 7] = [
    "preordering_is_a_permutation_with_references",
    "preordering_never_traps_a_node_between_neighbours",
    "schedulers_produce_valid_schedules",
    "register_metrics_are_consistent",
    "rotating_allocation_is_near_max_live",
    "spilling_is_sound",
    "rec_mii_matches_circuit_enumeration",
];

/// One case of a property test: the inputs its loop is generated from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PropertyCase {
    /// The generator seed.
    pub seed: u64,
    /// The loop size.
    pub size: usize,
    /// Whether the loop may carry recurrences.
    pub recurrences: bool,
    /// The register budget, for the spill property.
    pub budget: Option<u64>,
}

impl PropertyCase {
    /// The loop the case checks.
    pub fn ddg(&self) -> Ddg {
        let recurrence_probability = if self.recurrences { 0.7 } else { 0.0 };
        generated(self.seed, self.size, recurrence_probability, 0)
    }
}

/// The cases of the property test `test`, replayed from the property
/// runner's random stream for that test name.
///
/// # Panics
///
/// If `test` is not one of [`PROPERTY_TESTS`], whose cases the `property`
/// corpus holds, or has no strategies here.
pub fn property_cases(test: &str) -> Vec<PropertyCase> {
    assert!(
        PROPERTY_TESTS.contains(&test),
        "`{test}` is missing from `PROPERTY_TESTS`, so its loops escape the cross-check"
    );
    // The strategies in the order the runner sampled them: a seed below
    // `seeds`, a size in `sizes`, then `recurrences` if the test samples
    // it (otherwise it is `true`) and a register budget in `2..12` if the
    // test samples one.
    let strategies: (u64, Range<usize>, bool, bool) = match test {
        "preordering_is_a_permutation_with_references" => (10_000, 3..40, true, false),
        "preordering_never_traps_a_node_between_neighbours" => (10_000, 3..40, false, false),
        "schedulers_produce_valid_schedules" => (5_000, 3..28, true, false),
        "register_metrics_are_consistent" => (5_000, 3..30, false, false),
        "rotating_allocation_is_near_max_live" => (5_000, 3..26, false, false),
        "spilling_is_sound" => (2_000, 4..22, false, true),
        "rec_mii_matches_circuit_enumeration" => (10_000, 3..30, false, false),
        _ => panic!("`property_based.rs` has no property test `{test}`"),
    };
    let (seeds, sizes, samples_recurrences, samples_budget) = strategies;
    let mut rng = proptest::rng_for_test(test);
    let mut case = || {
        let seed = (0..seeds).sample(&mut rng);
        let size = sizes.clone().sample(&mut rng);
        let recurrences = !samples_recurrences || any::<bool>().sample(&mut rng);
        let budget = samples_budget.then(|| (2u64..12).sample(&mut rng));
        PropertyCase {
            seed,
            size,
            recurrences,
            budget,
        }
    };
    (0..CASES_PER_PROPERTY).map(|_| case()).collect()
}

/// A scheduler that records every loop it is asked to schedule, then
/// delegates. The spill rewriter and the feedback loop schedule rewritten
/// copies of a loop that no test builds directly; this is how the derived
/// runs get them.
struct Recording {
    inner: BoxedScheduler,
    seen: Arc<Mutex<Vec<Ddg>>>,
}

impl Recording {
    /// Wraps the scheduler registered as `slug`.
    fn new(slug: &str) -> Self {
        let inner = scheduler_by_slug(slug).expect("registered slug");
        let seen = Arc::default();
        Recording { inner, seen }
    }
}

impl ModuloScheduler for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(
        &self,
        analysis: &LoopAnalysis<'_>,
        machine: &Machine,
        perturbation: &Perturbation,
    ) -> Result<ScheduleOutcome, SchedError> {
        self.seen.lock().unwrap().push(analysis.ddg().clone());
        self.inner.schedule(analysis, machine, perturbation)
    }
}

/// Every loop `feedback:<slug>` schedules under `config` while it runs
/// `loops` on `machine`: the originals, and the spill-rewritten copies of
/// every attempt.
fn feedback_run(slug: &str, config: FeedbackConfig, loops: &[Ddg], machine: &Machine) -> Vec<Ddg> {
    let recording = Recording::new(slug);
    let seen = Arc::clone(&recording.seen);
    let scheduler = wrap_feedback(Box::new(recording), config);
    for g in loops {
        let _ = scheduler.schedule_loop(g, machine);
    }
    let recorded = std::mem::take(&mut *seen.lock().unwrap());
    recorded
}

/// The loops `feedback:<slug>` schedules on the register-pressure suite
/// with the default configuration, on the Govindarajan machine.
fn pressure_feedback(slug: &str) -> Vec<Ddg> {
    let suite = loops("register-pressure");
    feedback_run(
        slug,
        FeedbackConfig::default(),
        &suite,
        &presets::govindarajan(),
    )
}

/// Every loop `schedule_with_register_budget` schedules with the `slug`
/// scheduler under `config`, and the registers the result needs.
fn spill_run(g: &Ddg, machine: &Machine, slug: &str, config: &SpillConfig) -> (Vec<Ddg>, u64) {
    let recording = Recording::new(slug);
    let result = schedule_with_register_budget(g, machine, &recording, config)
        .unwrap_or_else(|e| panic!("`{}`: spilling failed: {e}", g.name()));
    let recorded = std::mem::take(&mut *recording.seen.lock().unwrap());
    (recorded, result.registers(config.kind))
}

/// Compares `actual` with the golden file `tests/golden/<file>`, or
/// rewrites the file when `HRMS_BLESS` is set.
pub fn assert_matches_golden(file: &str, actual: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("HRMS_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}; regenerate with HRMS_BLESS=1"));
    assert_eq!(
        actual,
        golden,
        "output drifted from tests/golden/{file}; if the change is intentional, \
         regenerate with `HRMS_BLESS=1 cargo test --test {}`",
        env!("CARGO_CRATE_NAME")
    );
}

/// Command-line arguments as the CLI entry point takes them.
pub fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Renders `text` as a JSON string literal for a request line.
pub fn quoted(text: &str) -> String {
    let mut out = String::new();
    push_json_str(&mut out, text);
    out
}
