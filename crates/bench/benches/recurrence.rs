//! Recurrence-heavy stress benchmarks: the enumeration-free SCC-derived
//! recurrence analysis against Johnson's circuit enumeration on loop
//! bodies whose dense SCCs used to blow the enumeration budget, plus the
//! pre-ordering and the incremental per-II start times in the same regime.
//!
//! This is the benchmark backing the enumeration-free acceptance
//! criterion: the 500–2000-op recurrence-heavy preset must be analysed
//! and pre-ordered with **no** circuit-enumeration budget in sight, at a
//! small fraction of what even a *truncated* enumeration costs (the
//! measured margins are recorded in docs/ARCHITECTURE.md). CI runs this
//! bench with `-- --test` as a single-sample smoke check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrms_core::pre_order;
use hrms_ddg::{CycleRatios, IncrementalStarts, LoopAnalysis, RecurrenceGroups};
use hrms_oracle::{latest_starts_from, RecurrenceInfo};
use hrms_workloads::synthetic;

fn bench_recurrence_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("recurrence_analysis");
    group.sample_size(10);
    for ddg in synthetic::recurrence_heavy_suite() {
        let ops = ddg.num_nodes();
        group.bench_with_input(BenchmarkId::new("scc_groups", ops), &ddg, |b, ddg| {
            b.iter(|| RecurrenceGroups::analyze(std::hint::black_box(ddg)))
        });
        // The per-node cycle-ratio pass alone (the groups above are
        // assembled from it, so this isolates the new analysis cost).
        group.bench_with_input(BenchmarkId::new("cycle_ratios", ops), &ddg, |b, ddg| {
            b.iter(|| CycleRatios::analyze(std::hint::black_box(ddg)))
        });
        // The old default path on the same loop. The budget caps the
        // enumeration at 10k circuits — these loops span astronomically
        // more — so this measures the *truncated* (and therefore
        // incomplete) analysis; the complete one does not terminate in
        // any reasonable time, which is the point of the comparison.
        group.bench_with_input(
            BenchmarkId::new("johnson_truncated_10k", ops),
            &ddg,
            |b, ddg| {
                b.iter(|| RecurrenceInfo::analyze_with_budget(std::hint::black_box(ddg), 10_000))
            },
        );
    }
    group.finish();
}

fn bench_interleaved_suite(c: &mut Criterion) {
    // The interleaved-recurrence differential corpus: small loops whose
    // circuits thread backward-edge *pairs*. Measures the exact
    // cycle-ratio ranking against the complete enumeration on the same
    // loops (both are fast here — the point is the per-loop margin and a
    // CI smoke-check that the exact path stays cheap on its own corpus).
    let mut group = c.benchmark_group("interleaved_recurrence");
    group.sample_size(10);
    for ddg in synthetic::interleaved_recurrence_suite() {
        let ops = ddg.num_nodes();
        group.bench_with_input(BenchmarkId::new("cycle_ratios", ops), &ddg, |b, ddg| {
            b.iter(|| CycleRatios::analyze(std::hint::black_box(ddg)))
        });
        group.bench_with_input(BenchmarkId::new("johnson_complete", ops), &ddg, |b, ddg| {
            b.iter(|| RecurrenceInfo::analyze_with_budget(std::hint::black_box(ddg), 500_000))
        });
    }
    group.finish();
}

fn bench_recurrence_heavy_preorder(c: &mut Criterion) {
    let mut group = c.benchmark_group("recurrence_preorder");
    group.sample_size(10);
    // End-to-end pre-ordering (recurrence groups + hypernode reduction) on
    // the dense-SCC loops the classic stress preset had to avoid.
    for ddg in synthetic::recurrence_heavy_suite() {
        let ops = ddg.num_nodes();
        group.bench_with_input(BenchmarkId::new("pre_order", ops), &ddg, |b, ddg| {
            b.iter(|| pre_order(&hrms_ddg::LoopAnalysis::analyze(std::hint::black_box(ddg))))
        });
    }
    group.finish();
}

fn bench_incremental_starts(c: &mut Criterion) {
    let mut group = c.benchmark_group("recurrence_escalation_starts");
    group.sample_size(10);
    // Ten II-escalation steps of both start-time solutions: incremental
    // warm-started updates vs from-scratch Bellman-Ford at every II.
    for ddg in synthetic::recurrence_heavy_suite() {
        let ops = ddg.num_nodes();
        let la = LoopAnalysis::analyze(&ddg);
        let rec_mii = la.rec_mii().expect("suite loops are valid");
        let rec_mii = u32::try_from(rec_mii).expect("suite RecMIIs fit an II");
        let n = ddg.num_nodes();
        group.bench_with_input(BenchmarkId::new("incremental", ops), &ddg, |b, _| {
            let edges = la.dep_edges();
            b.iter(|| {
                let mut inc =
                    IncrementalStarts::new(n, edges, rec_mii).expect("feasible at RecMII");
                for ii in rec_mii + 1..rec_mii + 10 {
                    assert!(inc.advance(edges, ii));
                }
                inc
            })
        });
        group.bench_with_input(BenchmarkId::new("from_scratch", ops), &ddg, |b, _| {
            let edges = la.dep_edges();
            b.iter(|| {
                let mut last = None;
                for ii in rec_mii..rec_mii + 10 {
                    let est = hrms_ddg::analysis::longest_paths(n, edges, u64::from(ii))
                        .expect("feasible at RecMII");
                    let horizon = est.iter().copied().max().unwrap_or(0);
                    last = latest_starts_from(n, edges, ii, horizon);
                }
                last
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_recurrence_analysis,
    bench_interleaved_suite,
    bench_recurrence_heavy_preorder,
    bench_incremental_starts
);
criterion_main!(benches);
