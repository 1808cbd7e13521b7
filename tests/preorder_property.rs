//! Property and golden-pin tests of the pre-ordering phase.
//!
//! These promote the `neighbour_invariant_holds` /
//! `every_ordered_node_has_a_reference_neighbour` unit checks (which used to
//! run on two hand-built paper figures only) to a property suite over the
//! 24-loop reference suite, the large-loop stress suite and 240+ seeded
//! generator loops — including multi-component and recurrence-heavy
//! configurations.
//!
//! **Golden pins.** Earlier revisions of this suite ran every loop through
//! both the dense pre-ordering path and a hash-based legacy implementation
//! (built on Johnson's circuit enumeration) and asserted the two
//! byte-identical. That equivalence was proven across the whole corpus —
//! including the interleaved multi-backward-edge loops that used to be the
//! documented exception — and then frozen into golden fingerprint pins:
//! every corpus ordering is hashed into
//! `tests/golden/preorder_fingerprints.txt`. The legacy implementation is
//! gone; any behavioural drift in the one remaining path fails the pin.
//!
//! Regenerate the golden file after an *intentional* ordering change with:
//! `HRMS_BLESS=1 cargo test --test preorder_property`.

use std::collections::HashSet;
use std::fmt::Write as _;

use hrms_repro::ddg::{parse_loops, Ddg, DdgBuilder, DepKind, Fnv64, LoopAnalysis, NodeId, OpKind};
use hrms_repro::hrms::{pre_order, pre_order_with, PreOrderOptions, PreOrdering};
use hrms_repro::modsched::StartHint;

mod corpus;

/// FNV-1a over the ordering and its structural counters: the pinned
/// fingerprint of one pre-ordering.
fn fingerprint(p: &PreOrdering) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(p.order.len() as u64);
    for &n in &p.order {
        h.write_u64(n.index() as u64);
    }
    h.write_u64(p.components as u64)
        .write_u64(p.recurrence_subgraphs as u64)
        .write_u64(u64::from(p.truncated))
        .finish()
}

/// Runs the dense pre-ordering on `g` and checks every promoted property.
fn check(g: &Ddg, options: &PreOrderOptions) -> PreOrdering {
    let dense = pre_order_with(&LoopAnalysis::analyze(g), options);
    check_invariants(g, &dense);
    dense
}

/// The promoted ordering invariants — structural, so they run on every
/// corpus including the recurrence-heavy loops whose circuit enumeration
/// used to truncate.
fn check_invariants(g: &Ddg, dense: &PreOrdering) {
    // The ordering is a permutation of the nodes.
    let mut sorted = dense.order.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        g.num_nodes(),
        "`{}`: not a permutation",
        g.name()
    );

    // Adjacency of the acyclic graph (backward edges dropped) and of the
    // full graph, precomputed so the property checks stay O(V + E).
    let la = LoopAnalysis::analyze(g);
    let dropped = la.backward_edges();
    let n = g.num_nodes();
    let mut acyclic_preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut acyclic_succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut full_neigh: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (eid, e) in g.edges() {
        if e.is_self_loop() {
            continue;
        }
        let (s, t) = (e.source().index(), e.target().index());
        full_neigh[s].push(t);
        full_neigh[t].push(s);
        if !dropped.contains(&eid) {
            acyclic_succs[s].push(t);
            acyclic_preds[t].push(s);
        }
    }

    // Promoted `neighbour_invariant_holds`: on the acyclic graph, no node is
    // ordered while both a predecessor and a successor are already placed —
    // this holds unconditionally (recurrence-closing nodes only have "both
    // sides" through their dropped backward edge).
    let mut placed = vec![false; n];
    for &node in &dense.order {
        let i = node.index();
        let preds_in = acyclic_preds[i].iter().any(|&p| placed[p]);
        let succs_in = acyclic_succs[i].iter().any(|&s| placed[s]);
        assert!(
            !(preds_in && succs_in),
            "`{}`: node {node} ordered between already-placed neighbours",
            g.name()
        );
        placed[i] = true;
    }

    // Promoted `every_ordered_node_has_a_reference_neighbour`: nodes without
    // an already-ordered neighbour in the *full* graph are limited to the
    // first node of each weakly connected component, plus (for
    // recurrence-bearing loops) the entry node of a recurrence subgraph that
    // is unreachable from the hypernode. Recurrence-free loops get the exact
    // bound.
    let mut placed = vec![false; n];
    let mut without_reference = 0usize;
    for &node in &dense.order {
        let i = node.index();
        if !full_neigh[i].iter().any(|&m| placed[m]) {
            without_reference += 1;
        }
        placed[i] = true;
    }
    if dense.recurrence_subgraphs == 0 {
        assert_eq!(
            without_reference,
            dense.components,
            "`{}`: exactly one reference-free node (the initial hypernode) per component",
            g.name()
        );
    } else {
        assert!(
            without_reference <= dense.components + dense.recurrence_subgraphs,
            "`{}`: {} nodes without a reference (components {}, recurrence subgraphs {})",
            g.name(),
            without_reference,
            dense.components,
            dense.recurrence_subgraphs
        );
    }
}

/// The pinned corpus: every `(key, ordering)` pair, in a stable order. The
/// keys embed the generator parameters so same-named loops from different
/// seeds stay distinct.
fn pinned_corpus() -> Vec<(String, PreOrdering)> {
    let mut entries: Vec<(String, PreOrdering)> = Vec::new();
    let defaults = PreOrderOptions::default();

    let suites = ["reference24", "stress", "interleaved"].into_iter();
    // The first 200 `gen` loops: seeds 0..100.
    let gen = corpus::keyed("gen").into_iter().take(200);
    for (key, g) in suites.flat_map(corpus::keyed).chain(gen) {
        entries.push((key, check(&g, &defaults)));
    }
    for (key, g) in corpus::keyed("merged") {
        let p = check(&g, &defaults);
        assert!(
            p.components >= 2,
            "merging two loops must give at least two components"
        );
        entries.push((key, p));
    }
    for (key, g) in corpus::keyed("policy") {
        for (tag, policy) in [
            ("first", StartHint::Default),
            ("last", StartHint::Last),
            ("fixed2", StartHint::Node(NodeId(2))),
        ] {
            let p = check(&g, &PreOrderOptions { start_node: policy });
            entries.push((format!("{key}/{tag}"), p));
        }
    }
    for g in zoo() {
        for (tag, policy) in [("first", StartHint::Default), ("last", StartHint::Last)] {
            let p = check(&g, &PreOrderOptions { start_node: policy });
            entries.push((format!("zoo/{}/{tag}", g.name()), p));
        }
    }
    entries
}

/// Small hand-built graphs with varied structure: a chain, a diamond with
/// a recurrence and a tail, and two components whose recurrences are
/// bridged only through a dropped backward edge (the disconnected-remainder
/// fallback) plus a self-loop.
fn zoo() -> Vec<Ddg> {
    let mut graphs = vec![hrms_repro::ddg::chain("chain", 9, OpKind::FpAdd, 1)];

    let mut b = DdgBuilder::new("diamond_rec");
    let ids: Vec<NodeId> = (0..7)
        .map(|i| b.node(format!("n{i}"), OpKind::FpAdd, 2))
        .collect();
    for (s, t) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)] {
        b.edge(ids[s], ids[t], DepKind::RegFlow, 0).unwrap();
    }
    b.edge(ids[4], ids[3], DepKind::RegFlow, 1).unwrap();
    graphs.push(b.build().unwrap());

    let mut b = DdgBuilder::new("islands");
    let ids: Vec<NodeId> = (0..8)
        .map(|i| b.node(format!("m{i}"), OpKind::FpMul, 1))
        .collect();
    b.edge(ids[0], ids[1], DepKind::RegFlow, 0).unwrap();
    b.edge(ids[1], ids[2], DepKind::RegFlow, 0).unwrap();
    b.edge(ids[3], ids[4], DepKind::RegFlow, 0).unwrap();
    b.edge(ids[4], ids[3], DepKind::RegFlow, 1).unwrap();
    b.edge(ids[5], ids[6], DepKind::RegFlow, 0).unwrap();
    b.edge(ids[6], ids[5], DepKind::RegFlow, 2).unwrap();
    b.edge(ids[4], ids[5], DepKind::RegFlow, 1).unwrap();
    b.edge(ids[7], ids[7], DepKind::RegFlow, 1).unwrap();
    graphs.push(b.build().unwrap());

    graphs
}

/// Renders the corpus as the golden file body: one `key fingerprint` line
/// per entry.
fn render(entries: &[(String, PreOrdering)]) -> String {
    let mut out = String::new();
    for (key, p) in entries {
        let _ = writeln!(out, "{key} {:016x}", fingerprint(p));
    }
    out
}

#[test]
fn dense_orderings_match_the_golden_fingerprints() {
    corpus::assert_matches_golden("preorder_fingerprints.txt", &render(&pinned_corpus()));
}

#[test]
fn recurrence_heavy_suite_holds_the_invariants() {
    // The dense-SCC regime where Johnson's enumeration used to blow its
    // budget: every promoted ordering invariant must hold. (Not pinned:
    // the 500–2000-op orderings would dominate golden churn without adding
    // coverage beyond the invariants.)
    for g in corpus::loops("recurrence-heavy") {
        let p = pre_order_with(&LoopAnalysis::analyze(&g), &PreOrderOptions::default());
        assert!(!p.truncated, "the enumeration-free path never truncates");
        assert!(p.recurrence_subgraphs > 0, "`{}`", g.name());
        check_invariants(&g, &p);
    }
}

#[test]
fn ordering_is_stable_across_repeated_runs() {
    // Guards the determinism contract end to end (components, recurrence
    // analysis, tie-breaks): two independent runs must agree exactly.
    let fingerprints =
        |orders: &[PreOrdering]| -> Vec<u64> { orders.iter().map(fingerprint).collect() };
    let run = || -> Vec<PreOrdering> {
        corpus::loops("reference24")
            .iter()
            .map(|g| pre_order_with(&LoopAnalysis::analyze(g), &PreOrderOptions::default()))
            .collect()
    };
    let deduped: HashSet<Vec<u64>> = [fingerprints(&run()), fingerprints(&run())]
        .into_iter()
        .collect();
    assert_eq!(deduped.len(), 1, "repeated runs must be byte-identical");
}

/// A copy of `g` with one more dependence cycle of distance 0, between two
/// of its nodes picked by `seed`: a loop no II satisfies.
fn with_zero_distance_cycle(g: &Ddg, seed: u64) -> Ddg {
    let mut bld = DdgBuilder::new(format!("{}~zero{seed}", g.name()));
    let ids: Vec<NodeId> = g
        .nodes()
        .map(|(_, n)| bld.node(n.name(), n.kind(), n.latency()))
        .collect();
    for (_, e) in g.edges() {
        let (s, t) = (ids[e.source().index()], ids[e.target().index()]);
        bld.edge(s, t, e.kind(), e.distance()).unwrap();
    }
    let n = ids.len() as u64;
    let a = seed % n;
    let b = (a + 1 + (seed / 7) % (n - 1)) % n;
    bld.edge(ids[a as usize], ids[b as usize], DepKind::Memory, 0)
        .unwrap();
    bld.edge(ids[b as usize], ids[a as usize], DepKind::Memory, 0)
        .unwrap();
    bld.build().unwrap()
}

#[test]
fn loops_with_a_zero_distance_cycle_are_ordered_in_program_order() {
    // The smallest loop whose work graph keeps a cycle that no hypernode
    // step can sort: distance-0 edges n1 -> n2, n2 -> n0, n0 -> n2 and
    // n2 -> n1.
    let mut bld = DdgBuilder::new("zero_distance");
    let ids: Vec<NodeId> = (0..3)
        .map(|i| bld.node(format!("n{i}"), OpKind::FpAdd, 1))
        .collect();
    for (s, t) in [(1, 2), (2, 0), (0, 2), (2, 1)] {
        bld.edge(ids[s], ids[t], DepKind::RegFlow, 0).unwrap();
    }
    let mut loops = vec![bld.build().unwrap()];
    let fixture = corpus::repo_file("tests/fixtures/malformed/05_zero_distance_cycle.loop");
    loops.extend(parse_loops(&fixture).unwrap());
    let gen = corpus::loops("gen").into_iter().enumerate();
    loops.extend(
        gen.filter(|(_, g)| g.num_nodes() >= 2)
            .map(|(i, g)| with_zero_distance_cycle(&g, i as u64)),
    );
    assert!(loops.len() > 200);
    for g in &loops {
        let la = LoopAnalysis::analyze(g);
        assert_eq!(
            la.rec_mii(),
            None,
            "`{}` has a zero-distance cycle",
            g.name()
        );
        let p = pre_order(&la);
        let program: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(p.order, program, "`{}`", g.name());
        assert_eq!(p.recurrence_subgraphs, 0);
    }
}
