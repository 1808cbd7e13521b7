//! Differential and property tests of the enumeration-free recurrence
//! analysis, the per-node cycle-ratio analysis and the incremental per-II
//! start times.
//!
//! Five guarantees are pinned here, mirroring the module docs of
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
//! 5. Every distinct loop of the corpus registry (`tests/corpus/mod.rs`),
//!    spill-rewritten copies and feedback attempts included, passes the
//!    cross-check against the enumeration wherever the enumeration
//!    completes, and its scheduling `RecMII` equals the oracle's
//!    whole-graph bisection; so does the `RecMII` of seeded copies in
//!    which some flow edges became anti or output dependences. Each
//!    registry corpus holds its documented number of loops.

use std::collections::HashSet;

use hrms_oracle::{
    cross_check, exact_rec_mii, latest_starts_from, CrossCheckReport, RecurrenceInfo,
    DEFAULT_CIRCUIT_BUDGET,
};
use hrms_repro::ddg::analysis::{collect_dep_edges, longest_paths, DepEdge};
use hrms_repro::ddg::{
    scc, CycleRatios, Ddg, DdgBuilder, DepKind, Fnv64, IncrementalStarts, LoopAnalysis, NodeId,
    OpKind, RecurrenceGroups,
};
use hrms_repro::engine::BatchEngine;
use hrms_repro::hrms::{pre_order, HrmsScheduler};
use hrms_repro::machine::presets;
use hrms_repro::modsched::{validate_schedule, ModuloScheduler};

mod corpus;

/// The `gen` loops with recurrences: the `p0.8` variant of every seed, in
/// seed order.
fn recurrent_gen_loops() -> impl Iterator<Item = Ddg> {
    let keyed = corpus::keyed("gen").into_iter();
    keyed
        .filter(|(key, _)| key.ends_with("/p0.8"))
        .map(|(_, g)| g)
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
    for g in corpus::loops("reference24") {
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
    for g in corpus::loops("gen") {
        let report = assert_exact_and_ordering_match(&g);
        interleaved_loops += usize::from(report.interleaved_subgraphs > 0);
        total.absorb(&report);
        checked += 1;
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
    for g in corpus::loops("interleaved") {
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
    for g in corpus::loops("merged") {
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
    let mut graphs = corpus::loops("reference24");
    graphs.extend(recurrent_gen_loops().take(50));
    graphs.extend(corpus::loops("interleaved"));
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
    let mut graphs = corpus::loops("reference24");
    graphs.extend(corpus::loops("per-scc"));
    graphs.extend(corpus::loops("interleaved"));
    graphs.push(corpus::loops("recurrence-heavy").remove(0));
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
    for g in corpus::loops("dense") {
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
    for g in corpus::loops("recurrence-heavy") {
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
    let g = corpus::loops("recurrence-heavy").remove(0);
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
    let mut graphs = corpus::loops("reference24");
    graphs.extend(corpus::loops("escalation"));
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
    let mut originals: Vec<Ddg> = recurrent_gen_loops().collect();
    originals.extend(corpus::loops("roundtrip/recurrence-heavy"));
    originals.extend(corpus::loops("roundtrip/interleaved"));
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

/// Cross-checks one loop's `RecMII` against the bisection and, if the
/// loop is `enumerable` and the enumeration completes within its default
/// budget, its groups and (in the two-edge regime) its per-node bounds
/// against the circuits. Returns `None` when the enumeration does not run
/// to completion, else whether the per-node bounds were compared.
fn cross_check_loop(g: &Ddg, enumerable: bool) -> Option<bool> {
    let la = LoopAnalysis::analyze(g);
    assert_rec_mii_is_exact(&la);
    if !enumerable {
        return None;
    }
    let oracle = RecurrenceInfo::analyze_with_budget(g, DEFAULT_CIRCUIT_BUDGET);
    if oracle.truncated {
        return None;
    }
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
    let per_node = !deep && la.rec_mii().is_some();
    if per_node {
        assert_eq!(
            la.cycle_ratios().per_node(),
            &per_node_from_circuits(g, &oracle)[..],
            "`{}`: per-node bounds diverge from the enumerated circuits",
            g.name()
        );
    }
    Some(per_node)
}

#[test]
fn every_suite_loop_passes_the_recurrence_cross_check() {
    // Each distinct loop of the registry, by shape, is checked once on the
    // batch engine's workers, which re-raise a failed check's panic. The
    // enumeration cannot complete on the recurrence-heavy suite, so only
    // its RecMII is checked; those loops go first, as the costliest.
    let mut shapes = HashSet::new();
    let mut loops: Vec<(bool, &Ddg)> = corpus::built()
        .iter()
        .flat_map(|(corpus, loops)| loops.iter().map(|(_, g)| (corpus.enumerable, g)))
        .filter(|&(_, g)| shapes.insert(shape_key(g)))
        .collect();
    loops.sort_by_key(|&(enumerable, _)| enumerable);
    let engine = BatchEngine::new();
    let verdicts: Vec<bool> = engine
        .map(&loops, |_, &(enumerable, g)| {
            cross_check_loop(g, enumerable)
        })
        .into_iter()
        .flatten()
        .collect();
    let distinct = loops.iter().filter(|&&(enumerable, _)| enumerable).count();
    let enumerated = verdicts.len();
    let per_node_checked = verdicts.iter().filter(|&&per_node| per_node).count();
    // No suite loop has an anti or output edge, so only the copies run the
    // dependence metric's downward search.
    let copies = anti_output_copies();
    let lowered = engine
        .map(&copies, |_, g| {
            assert_rec_mii_is_exact(&LoopAnalysis::analyze(g))
        })
        .into_iter()
        .filter(|&lowered| lowered)
        .count();
    // At the time of writing: 3,112 distinct loops, every one enumerated,
    // 3,105 of them in the two-edge regime, and 349 of the 480 copies with
    // a RecMII below their cycle ratios. A shrinking corpus fails here.
    assert!(distinct >= 3_000, "only {distinct} distinct loops");
    assert!(lowered >= 300, "only {lowered} copies lower the RecMII");
    assert!(enumerated >= 3_000, "only {enumerated} loops enumerated");
    assert!(
        per_node_checked >= 3_000,
        "only {per_node_checked} per-node checks"
    );
}

#[test]
fn every_registry_corpus_has_a_unique_name_and_its_documented_size() {
    let names: HashSet<&str> = corpus::REGISTRY.iter().map(|c| c.name).collect();
    assert_eq!(names.len(), corpus::REGISTRY.len(), "corpus names repeat");
    let wrong: Vec<String> = corpus::built()
        .iter()
        .filter(|(c, loops)| loops.len() != c.len)
        .map(|(c, loops)| format!("`{}` holds {} loops, not {}", c.name, loops.len(), c.len))
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("; "));
}
