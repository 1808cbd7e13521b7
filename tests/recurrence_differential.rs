//! Differential and property tests of the enumeration-free recurrence
//! analysis, the per-node cycle-ratio analysis and the incremental per-II
//! start times.
//!
//! Four guarantees are pinned here, mirroring the module docs of
//! `hrms_ddg::recurrence`, `hrms_ddg::cycle_ratio` and
//! `hrms_ddg::analysis`:
//!
//! 1. Across the 24-loop reference suite, 200+ generated loops,
//!    multi-component merges and the interleaved-recurrence suite, the
//!    SCC-derived recurrence groups are **exactly interchangeable** with
//!    Johnson's circuit enumeration — identical subgraphs, identical
//!    simplified node lists, identical ranked recurrence lists fed to the
//!    pre-ordering (whose output the golden pre-order pins freeze), with the
//!    multi-backward-edge coarsening *counted and proven zero* (the old
//!    "1 in 200" documented exception is gone). Circuits threading three
//!    or more backward edges (absent from those corpora; present in the
//!    moderately dense shapes) are the only remaining fallback, and every
//!    occurrence is quantified by the [`cross_check`] report.
//! 2. The per-node cycle-ratio bound equals, node for node, the maximum
//!    `RecMII` over the enumerated circuits through that node wherever
//!    the enumeration completes in the two-edge regime, and its per-SCC
//!    maximum equals the exact component `RecMII` on **every** suite —
//!    recurrence-heavy stress loops included, where no enumeration can
//!    run at all.
//! 3. The recurrence-heavy stress suite (dense SCCs, hundreds of backward
//!    edges, 500–2000 ops) is analysed and scheduled **without any
//!    enumeration budget**: the new path has no truncation by
//!    construction, while the enumeration provably blows its budget on
//!    the very same loops.
//! 4. Advancing `IncrementalStarts` from II to II+1 yields exactly the
//!    same earliest/latest start times as a from-scratch Bellman-Ford pass
//!    at every escalation step.
//! 5. Every distinct loop the workspace's test suite builds — the corpora
//!    of every test file, the property-test loops and the spill-rewritten
//!    copies the spill rewriter and the feedback loop schedule — passes
//!    the cross-check against the enumeration wherever the enumeration
//!    completes, and its scheduling `RecMII` equals the oracle's
//!    whole-graph bisection; so does the `RecMII` of seeded copies in
//!    which some flow edges became anti or output dependences
//!    (`every_suite_loop_passes_the_recurrence_cross_check`).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use hrms_oracle::{
    cross_check, exact_rec_mii, latest_starts_from, CrossCheckReport, RecurrenceInfo,
    DEFAULT_CIRCUIT_BUDGET,
};
use hrms_repro::ddg::analysis::{collect_dep_edges, longest_paths, DepEdge};
use hrms_repro::ddg::{
    parse_loops, scc, CycleRatios, Ddg, DdgBuilder, DepKind, Fnv64, IncrementalStarts,
    LoopAnalysis, NodeId, OpKind, RecurrenceGroups,
};
use hrms_repro::hrms::{pre_order, HrmsScheduler};
use hrms_repro::machine::{presets, Machine};
use hrms_repro::modsched::{
    validate_schedule, FeedbackConfig, ModuloScheduler, Perturbation, RegisterBudget, SchedError,
    ScheduleOutcome,
};
use hrms_repro::regalloc::{schedule_with_register_budget, PressureKind, SpillConfig};
use hrms_repro::registry::{scheduler_by_slug, wrap_feedback, BoxedScheduler};
use hrms_repro::workloads::{motivating, reference24, synthetic, GeneratorConfig, LoopGenerator};
use proptest::prelude::{any, Strategy};

/// Builds a deterministic generator loop.
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

/// Cross-checks the SCC-derived groups of `g` against a complete
/// enumeration (skipping the loop when even a generous budget truncates),
/// returning the report with the counted multi-edge statistics.
fn check_against_enumeration(g: &Ddg) -> Option<CrossCheckReport> {
    let oracle = RecurrenceInfo::analyze_with_budget(g, 200_000);
    if oracle.truncated {
        return None;
    }
    let la = LoopAnalysis::analyze(g);
    let groups = la.recurrence_groups();
    Some(cross_check(groups, &oracle).unwrap_or_else(|e| panic!("`{}`: {e}", g.name())))
}

/// Asserts that `g`'s analyses are exactly interchangeable with the
/// enumeration, down to the pre-ordering's entire input: the ranked
/// recurrence lists built once from the groups and once from Johnson's
/// circuits must match ([`CrossCheckReport::ordering_match`]) — the form
/// of "the cycle-ratio ranking matches Johnson's ordering" that needs no
/// second pre-ordering implementation. (The orderings themselves are
/// pinned in `tests/golden/preorder_fingerprints.txt`.) Returns the report
/// for corpus-wide accounting.
fn assert_exact_and_ordering_match(g: &Ddg) -> CrossCheckReport {
    let report = check_against_enumeration(g)
        .unwrap_or_else(|| panic!("`{}`: enumeration truncated", g.name()));
    assert!(
        report.ordering_match,
        "`{}`: cycle-ratio ranking diverges from Johnson's ordering: {report:?}",
        g.name()
    );
    assert!(
        report.is_exact(),
        "`{}`: coarsening left over: {report:?}",
        g.name()
    );
    report
}

/// The per-node oracle: for every node, the maximum `RecMII` over the
/// **enumerated** circuits containing it (0 for nodes on no circuit).
fn per_node_from_circuits(g: &Ddg, oracle: &RecurrenceInfo) -> Vec<u64> {
    let mut best = vec![0u64; g.num_nodes()];
    for c in &oracle.circuits {
        for &n in &c.nodes {
            best[n.index()] = best[n.index()].max(c.rec_mii());
        }
    }
    best
}

/// The exact node-latency-metric `RecMII` of one strongly connected
/// component (member self-loops included), via the Bellman-Ford binary
/// search — the independent reference for the per-SCC maximum property.
fn scc_rec_mii_node_metric(g: &Ddg, component: &[NodeId]) -> u64 {
    let members: HashSet<NodeId> = component.iter().copied().collect();
    let edges: Vec<DepEdge> = g
        .edges()
        .filter(|(_, e)| members.contains(&e.source()) && members.contains(&e.target()))
        .map(|(_, e)| DepEdge {
            source: e.source().0,
            target: e.target().0,
            latency: g.node(e.source()).latency(),
            distance: e.distance(),
        })
        .collect();
    exact_rec_mii(g.num_nodes(), &edges).map_or(u64::MAX, u64::from)
}

/// Every node of a non-trivial SCC must appear in at least one group:
/// the coverage invariant that replaces the enumeration's budget flag.
fn assert_full_coverage(g: &Ddg, groups: &RecurrenceGroups) {
    let in_group: HashSet<NodeId> = groups
        .groups
        .iter()
        .flat_map(|gr| gr.nodes.iter().copied())
        .collect();
    for comp in scc::strongly_connected_components(g) {
        if comp.len() < 2 {
            continue;
        }
        for n in comp {
            assert!(
                in_group.contains(&n),
                "`{}`: recurrence node {n} not covered by any group",
                g.name()
            );
        }
    }
}

#[test]
fn reference24_grouping_matches_the_enumeration_exactly() {
    for g in reference24::all() {
        let report = assert_exact_and_ordering_match(&g);
        assert_eq!(
            report.interleaved_subgraphs, 0,
            "every reference loop is in the single-backward-edge regime"
        );
    }
}

#[test]
fn generated_corpus_has_no_coarsening_carve_out() {
    // The acceptance bar of the cycle-ratio analysis: the grouping, the
    // simplified node lists AND the pre-ordering's ranked input match
    // Johnson's enumeration on every corpus loop — including the interleaved
    // multi-backward-edge one that used to be the "1 in 200" documented
    // exception. The coarsening statistic must come out exactly zero.
    let mut checked = 0usize;
    let mut interleaved_loops = 0usize;
    let mut total = CrossCheckReport {
        ordering_match: true,
        ..CrossCheckReport::default()
    };
    for seed in 0..100u64 {
        let size = 4 + (seed as usize * 7) % 44;
        for rec_prob in [0.0, 0.8] {
            let g = generated(seed, size, rec_prob, 0);
            let report = assert_exact_and_ordering_match(&g);
            interleaved_loops += usize::from(report.interleaved_subgraphs > 0);
            total.absorb(&report);
            checked += 1;
        }
    }
    assert!(checked >= 200, "the corpus must cover at least 200 loops");
    assert!(
        interleaved_loops >= 1,
        "the corpus must keep exercising the interleaved regime"
    );
    assert_eq!(total.coarsening(), 0, "proven-zero coarsening: {total:?}");
    assert!(total.ordering_match);
}

#[test]
fn interleaved_suite_matches_johnson_ordering_exactly() {
    // Loops that *force* circuits threading two backward edges — the
    // regime the pre-cycle-ratio analysis coarsened into one residual
    // group per SCC. Grouping, node lists, per-subgraph RecMII and the
    // pre-ordering's ranked input must now all match the enumeration.
    for g in synthetic::interleaved_recurrence_suite() {
        let report = assert_exact_and_ordering_match(&g);
        assert!(
            report.interleaved_subgraphs > 0,
            "`{}` must contain a multi-backward-edge subgraph",
            g.name()
        );
        assert_eq!(report.residual_groups, 0, "`{}`", g.name());
    }
}

#[test]
fn multi_component_grouping_matches_the_enumeration() {
    for seed in 0..20u64 {
        let a = generated(seed, 6 + (seed as usize % 20), 0.7, 0);
        let b = generated(seed + 1000, 4 + (seed as usize % 14), 0.0, 0);
        let g = merged(&a, &b);
        assert_exact_and_ordering_match(&g);
    }
}

#[test]
fn per_node_bounds_match_the_enumerated_circuits() {
    // Node for node, the cycle-ratio bound equals the maximum RecMII over
    // the enumerated circuits through that node, on every corpus loop in
    // the ≤ 2-backward-edge regime (which test
    // `generated_corpus_has_no_coarsening_carve_out` proves is the whole
    // reference + generated + interleaved corpus).
    let mut graphs = reference24::all();
    for seed in 0..50u64 {
        let size = 4 + (seed as usize * 7) % 44;
        graphs.push(generated(seed, size, 0.8, 0));
    }
    graphs.extend(synthetic::interleaved_recurrence_suite());
    let mut nodes_checked = 0usize;
    for g in &graphs {
        let oracle = RecurrenceInfo::analyze_with_budget(g, 200_000);
        assert!(!oracle.truncated, "`{}`", g.name());
        if oracle
            .subgraphs
            .iter()
            .any(|sg| sg.backward_edges.len() > 2)
        {
            continue; // deeper interleavings only promise the max property
        }
        let expected = per_node_from_circuits(g, &oracle);
        let ratios = CycleRatios::analyze(g);
        assert_eq!(
            ratios.per_node(),
            &expected[..],
            "`{}`: per-node bounds diverge from the circuit oracle",
            g.name()
        );
        nodes_checked += g.num_nodes();
    }
    assert!(nodes_checked > 1000, "the property must cover many nodes");
}

#[test]
fn per_scc_maximum_equals_the_exact_rec_mii_everywhere() {
    // max(per-node bound) == exact component RecMII on every SCC — the
    // invariant that holds with *no* enumerability requirement, pinned
    // across the reference corpus, the interleaved suite and the
    // recurrence-heavy stress loops whose enumeration cannot complete.
    let mut graphs = reference24::all();
    for seed in 0..20u64 {
        graphs.push(generated(seed, 10 + (seed as usize * 5) % 30, 0.8, 0));
    }
    graphs.extend(synthetic::interleaved_recurrence_suite());
    graphs.push(synthetic::recurrence_heavy_suite().remove(0));
    let mut sccs_checked = 0usize;
    for g in &graphs {
        let ratios = CycleRatios::analyze(g);
        for component in scc::strongly_connected_components(g) {
            let has_self_loop = g
                .edges()
                .any(|(_, e)| e.is_self_loop() && e.source() == component[0]);
            if component.len() < 2 && !has_self_loop {
                continue;
            }
            let expected = scc_rec_mii_node_metric(g, &component);
            let max_bound = component
                .iter()
                .map(|&n| ratios.bound(n))
                .max()
                .unwrap_or(0);
            assert_eq!(
                max_bound,
                expected,
                "`{}`: SCC {:?} max per-node bound diverges",
                g.name(),
                component
            );
            sccs_checked += 1;
        }
    }
    assert!(sccs_checked > 50, "the property must cover many SCCs");
}

#[test]
fn moderately_dense_recurrence_shapes_quantify_their_coarsening() {
    // The recurrence-heavy generator shape scaled down to sizes where the
    // enumeration still completes: overlapping ancestor back edges over
    // 20-60 operations, including circuits threading three or more
    // backward edges — the one regime that still falls back to residual
    // coarsening. The fallback is *counted*, not silent: the loops in the
    // ≤ 2-edge regime must be exact, and the census of the rest is pinned
    // so any regression (or improvement) shows up here.
    let mut checked = 0usize;
    let mut exact = 0usize;
    let mut shallow = 0usize; // loops whose subgraphs all use ≤ 2 edges
    let mut total = CrossCheckReport {
        ordering_match: true,
        ..CrossCheckReport::default()
    };
    for seed in 0..30u64 {
        let size = 20 + (seed as usize * 3) % 40;
        let g = generated(seed ^ 0xDEAD, size, 1.0, 2 + (seed as usize % 5));
        let oracle = RecurrenceInfo::analyze_with_budget(&g, 200_000);
        if oracle.truncated {
            continue;
        }
        let la = LoopAnalysis::analyze(&g);
        let report = cross_check(la.recurrence_groups(), &oracle)
            .unwrap_or_else(|e| panic!("`{}`: {e}", g.name()));
        if oracle
            .subgraphs
            .iter()
            .all(|sg| sg.backward_edges.len() <= 2)
        {
            shallow += 1;
            assert!(
                report.is_exact(),
                "`{}`: a ≤2-edge loop must be exact: {report:?}",
                g.name()
            );
        }
        checked += 1;
        exact += usize::from(report.is_exact());
        total.absorb(&report);
    }
    assert!(
        checked >= 20,
        "only {checked}/30 dense shapes kept the enumeration under budget"
    );
    assert!(shallow >= 10, "the ≤2-edge regime must stay represented");
    // The measured census at the time of writing: 27/30 exact, 4 of 23
    // interleaved subgraphs coarsened (all on loops with ≥3-edge
    // circuits). Allow slack, but a collapse of exactness fails here.
    assert!(
        exact * 10 >= checked * 8,
        "only {exact}/{checked} dense shapes exact: {total:?}"
    );
}

#[test]
fn recurrence_heavy_suite_needs_no_budget_while_the_enumeration_truncates() {
    for g in synthetic::recurrence_heavy_suite() {
        // The new path: complete, polynomial, no truncation to even report.
        let la = LoopAnalysis::analyze(&g);
        let groups = la.recurrence_groups();
        assert!(groups.has_recurrence());
        assert_full_coverage(&g, groups);

        // The old path on the same loop: the budget is provably hit (this
        // is the regime the ROADMAP excluded from the stress preset).
        let oracle = RecurrenceInfo::analyze_with_budget(&g, 10_000);
        assert!(
            oracle.truncated,
            "`{}` ({} ops): enumeration unexpectedly completed",
            g.name(),
            g.num_nodes()
        );

        // And the pre-ordering built on the groups is a valid permutation.
        let p = pre_order(&LoopAnalysis::analyze(&g));
        assert!(!p.truncated);
        let mut sorted = p.order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), g.num_nodes(), "`{}`", g.name());
        assert!(p.recurrence_subgraphs > 0);
    }
}

#[test]
fn recurrence_heavy_loop_schedules_end_to_end() {
    // Full HRMS run on the 500-op recurrence-heavy loop: MII, pre-order
    // and placement all ride the enumeration-free path.
    let g = synthetic::recurrence_heavy_suite().remove(0);
    let m = presets::perfect_club();
    let outcome = HrmsScheduler::new().schedule_loop(&g, &m).unwrap();
    validate_schedule(&g, &m, &outcome.schedule).unwrap();
    assert!(
        !outcome.recurrence_truncated,
        "the default path must never truncate"
    );
    assert!(outcome.metrics.ii >= outcome.metrics.rec_mii);
}

#[test]
fn johnson_truncates_on_k9_while_hrms_orders_and_schedules_cleanly() {
    // A dense SCC past the default circuit budget: Johnson's enumeration
    // truncates, while the pre-ordering and the scheduler, which read the
    // enumeration-free groups, have nothing to truncate.
    let mut bld = DdgBuilder::new("k9");
    let ids: Vec<NodeId> = (0..9)
        .map(|i| bld.node(format!("n{i}"), hrms_repro::ddg::OpKind::FpAdd, 1))
        .collect();
    for &u in &ids {
        for &v in &ids {
            if u != v {
                bld.edge(u, v, hrms_repro::ddg::DepKind::RegFlow, 1)
                    .unwrap();
            }
        }
    }
    let g = bld.build().unwrap();
    assert!(
        RecurrenceInfo::analyze(&g).truncated,
        "K9 has ~125k elementary circuits"
    );
    let p = pre_order(&LoopAnalysis::analyze(&g));
    assert!(!p.truncated);
    let mut sorted = p.order.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), g.num_nodes());

    let m = presets::govindarajan();
    let outcome = HrmsScheduler::new().schedule_loop(&g, &m).unwrap();
    assert!(!outcome.recurrence_truncated);
    validate_schedule(&g, &m, &outcome.schedule).unwrap();
}

#[test]
fn incremental_starts_equal_scratch_recomputation_at_every_escalation_step() {
    let mut graphs = reference24::all();
    for seed in 0..30u64 {
        graphs.push(generated(seed, 6 + (seed as usize * 5) % 30, 0.7, 0));
    }
    graphs.push(generated(7, 40, 1.0, 6)); // dense-recurrence shape
    let mut escalations = 0usize;
    for g in &graphs {
        let la = LoopAnalysis::analyze(g);
        let Some(rec_mii) = la.rec_mii() else {
            continue;
        };
        let rec_mii = u32::try_from(rec_mii).expect("suite RecMIIs fit an II");
        let n = g.num_nodes();
        let edges = la.dep_edges();
        let ii0 = rec_mii.max(1);
        if rec_mii >= 1 {
            assert_eq!(
                IncrementalStarts::new(n, edges, rec_mii - 1).is_some(),
                longest_paths(n, edges, u64::from(rec_mii - 1)).is_some(),
                "`{}`: infeasibility must agree below RecMII",
                g.name()
            );
        }
        let mut inc = IncrementalStarts::new(n, edges, ii0).unwrap();
        for ii in ii0..ii0 + 8 {
            assert!(inc.advance(edges, ii), "`{}` is feasible at {ii}", g.name());
            let scratch_est = longest_paths(n, edges, u64::from(ii)).unwrap();
            assert_eq!(
                inc.earliest(),
                scratch_est,
                "`{}`: earliest starts diverge at II {ii}",
                g.name()
            );
            let horizon = scratch_est.iter().copied().max().unwrap_or(0)
                + g.nodes()
                    .map(|(_, o)| i64::from(o.latency()))
                    .max()
                    .unwrap();
            assert_eq!(
                inc.latest(horizon),
                latest_starts_from(n, edges, ii, horizon).unwrap(),
                "`{}`: latest starts diverge at II {ii}",
                g.name()
            );
            escalations += 1;
        }
    }
    assert!(
        escalations >= 8 * 40,
        "the property must cover hundreds of escalation steps"
    );
}

/// What the recurrence analyses read of a loop: node latencies and every
/// edge with its kind and distance (names and operation kinds do not
/// matter), so two loops with the same key get the same verdict.
fn shape_key(g: &Ddg) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(g.num_nodes() as u64);
    for (_, n) in g.nodes() {
        h.write_u32(n.latency());
    }
    h.write_u64(g.num_edges() as u64);
    for (_, e) in g.edges() {
        h.write_u32(e.source().0)
            .write_u32(e.target().0)
            .write_str(e.kind().label())
            .write_u32(e.distance());
    }
    h.finish()
}

/// The distinct loops of a corpus, by [`shape_key`], in insertion order.
#[derive(Default)]
struct Corpus {
    keys: HashSet<u64>,
    loops: Vec<Ddg>,
}

impl Corpus {
    fn add(&mut self, g: Ddg) {
        if self.keys.insert(shape_key(&g)) {
            self.loops.push(g);
        }
    }

    fn extend(&mut self, loops: impl IntoIterator<Item = Ddg>) {
        for g in loops {
            self.add(g);
        }
    }
}

/// A scheduler that records every loop it is asked to schedule, then
/// delegates. The spill rewriter and the feedback loop schedule rewritten
/// copies of a loop that no test builds directly; this is how the corpus
/// gets them.
struct Recording {
    inner: BoxedScheduler,
    seen: Arc<Mutex<Vec<Ddg>>>,
}

impl Recording {
    /// Wraps the scheduler registered as `slug`; the returned handle reads
    /// the recorded loops.
    fn new(slug: &str) -> (Self, Arc<Mutex<Vec<Ddg>>>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let inner = scheduler_by_slug(slug).expect("registered slug");
        let recording = Recording {
            inner,
            seen: Arc::clone(&seen),
        };
        (recording, seen)
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
/// `loops`: the originals, and the spill-rewritten copies of every attempt.
fn feedback_loops(
    slug: &str,
    config: FeedbackConfig,
    loops: &[Ddg],
    machine: &Machine,
) -> Vec<Ddg> {
    let (recording, seen) = Recording::new(slug);
    let scheduler = wrap_feedback(Box::new(recording), config);
    for g in loops {
        let _ = scheduler.schedule_loop(g, machine);
    }
    let recorded = std::mem::take(&mut *seen.lock().unwrap());
    recorded
}

/// Every loop `schedule_with_register_budget` schedules with the `slug`
/// scheduler under `config`, and the registers the result needs.
fn spill_loops(g: &Ddg, machine: &Machine, slug: &str, config: &SpillConfig) -> (Vec<Ddg>, u64) {
    let (recording, seen) = Recording::new(slug);
    let result = schedule_with_register_budget(g, machine, &recording, config)
        .unwrap_or_else(|e| panic!("`{}`: spilling failed: {e}", g.name()));
    let recorded = std::mem::take(&mut *seen.lock().unwrap());
    (recorded, result.registers(config.kind))
}

/// The loop `tests/property_based.rs` builds from one sampled case.
fn property_loop(seed: u64, size: usize, recurrences: bool) -> Ddg {
    let config = GeneratorConfig {
        min_ops: size.max(3),
        mean_ops: size as f64,
        max_ops: size.max(3) + 4,
        recurrence_probability: if recurrences { 0.7 } else { 0.0 },
        ..GeneratorConfig::default()
    };
    LoopGenerator::new(seed, config).next_loop()
}

/// The `(seed, size, recurrences, spill budget)` cases of every property
/// in `tests/property_based.rs`, replayed from the runner's random stream
/// for each test name: the same strategies in the same order, 48 cases.
fn property_cases() -> Vec<(u64, usize, bool, Option<u64>)> {
    // (test, seed bound, size range, samples `recurrences`, samples a budget)
    let properties: [(&str, u64, std::ops::Range<usize>, bool, bool); 7] = [
        (
            "preordering_is_a_permutation_with_references",
            10_000,
            3..40,
            true,
            false,
        ),
        (
            "preordering_never_traps_a_node_between_neighbours",
            10_000,
            3..40,
            false,
            false,
        ),
        (
            "schedulers_produce_valid_schedules",
            5_000,
            3..28,
            true,
            false,
        ),
        (
            "register_metrics_are_consistent",
            5_000,
            3..30,
            false,
            false,
        ),
        (
            "rotating_allocation_is_near_max_live",
            5_000,
            3..26,
            false,
            false,
        ),
        ("spilling_is_sound", 2_000, 4..22, false, true),
        (
            "rec_mii_matches_circuit_enumeration",
            10_000,
            3..30,
            false,
            false,
        ),
    ];
    let mut cases = Vec::new();
    for (name, seeds, sizes, sampled_recurrences, sampled_budget) in properties {
        let mut rng = proptest::rng_for_test(name);
        for _ in 0..48 {
            let seed = (0..seeds).sample(&mut rng);
            let size = sizes.clone().sample(&mut rng);
            let recurrences = !sampled_recurrences || any::<bool>().sample(&mut rng);
            let budget = sampled_budget.then(|| (2u64..12).sample(&mut rng));
            cases.push((seed, size, recurrences, budget));
        }
    }
    cases
}

/// Reads a file of the repository.
fn repo_file(path: &str) -> String {
    std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Every distinct loop the root test suite analyses or schedules, apart
/// from a few hand-built graphs, plus (second) the recurrence-heavy suite,
/// on which Johnson's enumeration never completes. Each block names the
/// test files whose loops it rebuilds.
fn suite_loops() -> (Vec<Ddg>, Vec<Ddg>) {
    let mut corpus = Corpus::default();
    let govindarajan = presets::govindarajan();
    let perfect_club = presets::perfect_club();

    // The named suites and the paper's figures, used across the suite.
    corpus.extend(reference24::all());
    corpus.extend(motivating::all());
    corpus.extend(synthetic::perfect_club_like_sized(60));
    corpus.extend(synthetic::stress_suite());
    corpus.extend(synthetic::interleaved_recurrence_suite());
    let register_pressure = synthetic::register_pressure_suite();
    corpus.extend(register_pressure.iter().cloned());

    // Seeded generator loops: placement_pins, preorder_property and this
    // file.
    for seed in 0..120u64 {
        for rec_prob in [0.0, 0.8] {
            corpus.add(generated(seed, 4 + (seed as usize * 7) % 44, rec_prob, 0));
        }
    }
    for seed in 0..20u64 {
        let a = generated(seed, 6 + (seed as usize % 20), 0.7, 0);
        let b = generated(seed + 1000, 4 + (seed as usize % 14), 0.0, 0);
        corpus.add(merged(&a, &b));
        corpus.extend([a, b]);
        corpus.add(generated(seed, 10 + (seed as usize * 5) % 30, 0.8, 0));
    }
    for seed in 0..30u64 {
        let extra = 2 + (seed as usize % 5);
        corpus.add(generated(
            seed ^ 0xDEAD,
            20 + (seed as usize * 3) % 40,
            1.0,
            extra,
        ));
        corpus.add(generated(seed, 6 + (seed as usize * 5) % 30, 0.7, 0));
    }
    corpus.add(generated(7, 40, 1.0, 6));
    for seed in [3u64, 17, 99] {
        corpus.add(generated(seed, 20, 0.5, 0));
    }
    // analysis_overlay_property.
    let overlay = GeneratorConfig {
        min_ops: 8,
        mean_ops: 24.0,
        max_ops: 48,
        ..GeneratorConfig::default()
    };
    corpus.extend(LoopGenerator::new(7, overlay).generate(6));
    // format_roundtrip.
    corpus.extend(LoopGenerator::with_seed(2024).generate(120));
    corpus.extend(LoopGenerator::new(77, synthetic::recurrence_heavy_config(24)).generate(60));
    corpus
        .extend(LoopGenerator::new(78, synthetic::interleaved_recurrence_config(30)).generate(60));
    // lint_diagnostics.
    corpus.extend(LoopGenerator::new(7, synthetic::suite_config()).generate(8));
    corpus.extend(LoopGenerator::new(11, synthetic::stress_config(24)).generate(4));
    corpus.extend(LoopGenerator::new(13, synthetic::recurrence_heavy_config(20)).generate(4));
    corpus.extend(LoopGenerator::new(17, synthetic::interleaved_recurrence_config(24)).generate(4));
    // feedback_property's recurrence-heavy bodies (no register budget, so
    // the feedback loop schedules only the originals).
    for size in [40usize, 80, 120] {
        let config = synthetic::recurrence_heavy_config(size);
        corpus.add(LoopGenerator::new(0xFEED ^ size as u64, config).next_loop());
    }
    // The shipped example, and the loops of the serve request fixture.
    let dotprod = parse_loops(&repo_file("examples/loops/dotprod.loop")).unwrap();
    corpus.extend(dotprod.iter().cloned());
    for line in repo_file("tests/fixtures/serve/requests.jsonl").lines() {
        let request = hrms_repro::serve::json::parse(line).unwrap();
        for text in request
            .get("loops")
            .and_then(|l| l.as_array())
            .unwrap_or(&[])
        {
            corpus.extend(parse_loops(text.as_str().unwrap()).unwrap_or_default());
        }
    }

    // property_based: every sampled loop, and the copies that
    // spilling_is_sound schedules.
    for (seed, size, recurrences, budget) in property_cases() {
        let g = property_loop(seed, size, recurrences);
        if let Some(registers) = budget {
            let config = SpillConfig {
                registers,
                kind: PressureKind::VariantsOnly,
                max_rounds: 16,
            };
            corpus.extend(spill_loops(&g, &perfect_club, "hrms", &config).0);
        }
        corpus.add(g);
    }

    // scheduler_validity: spilling without a limit, then under half the
    // registers that needed.
    for g in synthetic::perfect_club_like_sized(10) {
        for slug in ["hrms", "top-down"] {
            let (unlimited, registers) =
                spill_loops(&g, &perfect_club, slug, &SpillConfig::new(10_000));
            corpus.extend(unlimited);
            let half = SpillConfig::new((registers / 2).max(4));
            corpus.extend(spill_loops(&g, &perfect_club, slug, &half).0);
        }
    }

    // The feedback loop: feedback_property (HRMS on perfect-club),
    // placement_pins (each heuristic scheduler on govindarajan) and the
    // serve fixture's four-register request.
    let mut feedback_inputs = reference24::all();
    feedback_inputs.extend(register_pressure.iter().cloned());
    let config = FeedbackConfig::default();
    corpus.extend(feedback_loops(
        "hrms",
        config,
        &feedback_inputs,
        &perfect_club,
    ));
    for slug in [
        "hrms",
        "top-down",
        "bottom-up",
        "slack",
        "frlc",
        "iterative",
    ] {
        corpus.extend(feedback_loops(
            slug,
            config,
            &register_pressure,
            &govindarajan,
        ));
    }
    let four_registers = FeedbackConfig {
        budget: Some(RegisterBudget { registers: 4 }),
        ..config
    };
    corpus.extend(feedback_loops(
        "hrms",
        four_registers,
        &dotprod,
        &govindarajan,
    ));

    (corpus.loops, synthetic::recurrence_heavy_suite())
}

/// The oracle's `RecMII` of `g`: the whole-graph bisection over its
/// dependence edges.
fn bisected_rec_mii(g: &Ddg) -> Option<u64> {
    exact_rec_mii(g.num_nodes(), &collect_dep_edges(g)).map(u64::from)
}

/// Panics unless `la`'s scheduling `RecMII` equals the oracle's bisection
/// and the cycle-ratio bound covers it: the paper-metric maximum
/// (operation-latency sums) can never undershoot the dependence-latency
/// bound the MII is built from, and on a loop with no anti or output edge
/// the two metrics agree. Returns whether they differ on this loop.
fn assert_rec_mii_is_exact(la: &LoopAnalysis<'_>) -> bool {
    let g = la.ddg();
    let rec_mii = la.rec_mii();
    assert_eq!(
        rec_mii,
        bisected_rec_mii(g),
        "`{}`: RecMII differs from the whole-graph bisection",
        g.name()
    );
    let bound = la.cycle_ratios().rec_mii_lower_bound();
    let exact = rec_mii.unwrap_or(u64::MAX);
    assert!(
        bound >= exact,
        "`{}`: cycle-ratio bound {bound} undershoots the exact RecMII {exact}",
        g.name()
    );
    let issue_order_only = g
        .edges()
        .any(|(_, e)| matches!(e.kind(), DepKind::RegAnti | DepKind::RegOutput));
    if !issue_order_only {
        assert_eq!(
            bound,
            exact,
            "`{}`: a loop with no anti or output edge has one RecMII",
            g.name()
        );
    }
    bound != exact
}

/// A copy of `g` in which some flow edges from operations of latency > 1
/// become anti or output dependences, by a coin seeded with `seed` and the
/// edge's id: the dependence metric then charges them 1 cycle where the
/// operation metric charges the producer's latency.
fn with_anti_and_output_edges(g: &Ddg, seed: u64) -> Ddg {
    let mut bld = DdgBuilder::new(format!("{}~ao{seed}", g.name()));
    let ids: Vec<NodeId> = g
        .nodes()
        .map(|(_, n)| bld.node(n.name(), n.kind(), n.latency()))
        .collect();
    for (eid, e) in g.edges() {
        let coin = Fnv64::new().write_u64(seed).write_u32(eid.0).finish() % 4;
        let kind = match (e.kind(), coin) {
            (DepKind::RegFlow, 0) if g.node(e.source()).latency() > 1 => DepKind::RegAnti,
            (DepKind::RegFlow, 1) if g.node(e.source()).latency() > 1 => DepKind::RegOutput,
            (kind, _) => kind,
        };
        bld.edge(
            ids[e.source().index()],
            ids[e.target().index()],
            kind,
            e.distance(),
        )
        .expect("the copy's ids are in range");
    }
    bld.build().expect("changing edge kinds keeps a loop valid")
}

/// Seeded anti/output copies of recurrence-rich generated corpora: the
/// suite's loops have flow and memory edges only, so these are the loops
/// on which the dependence metric's `RecMII` drops below the cycle ratios.
fn anti_output_copies() -> Vec<Ddg> {
    let mut originals = Vec::new();
    for seed in 0..120u64 {
        originals.push(generated(seed, 4 + (seed as usize * 7) % 44, 0.8, 0));
    }
    originals.extend(LoopGenerator::new(77, synthetic::recurrence_heavy_config(24)).generate(60));
    originals
        .extend(LoopGenerator::new(78, synthetic::interleaved_recurrence_config(30)).generate(60));
    originals
        .iter()
        .flat_map(|g| [1u64, 2].map(|seed| with_anti_and_output_edges(g, seed)))
        .collect()
}

#[test]
fn anti_and_output_edges_lower_the_rec_mii_below_the_operation_metric() {
    // ld(2) -> mul(5) -> ld closes with an anti edge and mul(5) -> st(1) ->
    // mul with an output edge of distance 2. Operation latencies give the
    // circuits 7/1 and 6/2, so the cycle ratios read 7; issue order charges
    // the anti and output edges 1 cycle each: 3/1 and 6/2, so RecMII is 3.
    let mut bld = DdgBuilder::new("anti_output");
    let ld = bld.node("ld", OpKind::Load, 2);
    let mul = bld.node("mul", OpKind::FpMul, 5);
    let st = bld.node("st", OpKind::Store, 1);
    bld.edge(ld, mul, DepKind::RegFlow, 0).unwrap();
    bld.edge(mul, ld, DepKind::RegAnti, 1).unwrap();
    bld.edge(mul, st, DepKind::RegFlow, 0).unwrap();
    bld.edge(st, mul, DepKind::RegOutput, 2).unwrap();
    let g = bld.build().unwrap();
    let la = LoopAnalysis::analyze(&g);
    assert_eq!(la.cycle_ratios().rec_mii_lower_bound(), 7);
    assert_eq!(la.rec_mii(), Some(3));
    assert_eq!(bisected_rec_mii(&g), Some(3));
    assert!(assert_rec_mii_is_exact(&la));
}

#[test]
fn every_suite_loop_passes_the_recurrence_cross_check() {
    // Each distinct loop is checked once. Wherever Johnson's enumeration
    // completes within its default budget, the SCC-derived groups must
    // match it exactly, or be inexact only on a loop with a subgraph
    // threading three or more backward edges (the documented residual
    // fallback); in the two-edge regime the per-node cycle-ratio bounds
    // must equal the enumerated per-node maxima.
    let (loops, heavy) = suite_loops();
    let mut enumerated = 0usize;
    let mut per_node_checked = 0usize;
    for g in &loops {
        let la = LoopAnalysis::analyze(g);
        assert_rec_mii_is_exact(&la);
        let oracle = RecurrenceInfo::analyze_with_budget(g, DEFAULT_CIRCUIT_BUDGET);
        if oracle.truncated {
            continue;
        }
        enumerated += 1;
        let report = cross_check(la.recurrence_groups(), &oracle).unwrap_or_else(|e| {
            panic!(
                "`{}`: SCC-derived recurrence groups diverge from the circuit enumeration: {e}",
                g.name()
            )
        });
        assert!(
            report.is_exact() || report.deep_subgraphs > 0,
            "`{}`: recurrence groups diverge from the circuit enumeration without any \
             subgraph threading three or more backward edges: {report:?}",
            g.name()
        );
        let deep = oracle
            .subgraphs
            .iter()
            .any(|sg| sg.backward_edges.len() > 2);
        if !deep && la.rec_mii().is_some() {
            assert_eq!(
                la.cycle_ratios().per_node(),
                &per_node_from_circuits(g, &oracle)[..],
                "`{}`: per-node bounds diverge from the enumerated circuits",
                g.name()
            );
            per_node_checked += 1;
        }
    }
    // The enumeration cannot complete on the recurrence-heavy suite, so
    // only the RecMII is checked there.
    for g in &heavy {
        assert_rec_mii_is_exact(&LoopAnalysis::analyze(g));
    }
    // No suite loop has an anti or output edge, so only the copies run the
    // dependence metric's downward search.
    let copies = anti_output_copies();
    let lowered = copies
        .iter()
        .filter(|g| assert_rec_mii_is_exact(&LoopAnalysis::analyze(g)))
        .count();
    // At the time of writing: 3,112 distinct loops, every one enumerated,
    // 3,105 of them in the two-edge regime, and 349 of the 480 copies with
    // a RecMII below their cycle ratios. A shrinking corpus fails here.
    assert!(loops.len() >= 3_000, "only {} distinct loops", loops.len());
    assert!(lowered >= 300, "only {lowered} copies lower the RecMII");
    assert!(enumerated >= 3_000, "only {enumerated} loops enumerated");
    assert!(
        per_node_checked >= 3_000,
        "only {per_node_checked} per-node checks"
    );
}
