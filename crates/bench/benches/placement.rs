//! Placement micro-benchmark: one pass of the scheduling step (Section 3.3)
//! at a fixed, feasible II over the dense placement arcs of the shared
//! per-loop analysis (`schedule_at_ii_with`) on 200–2000-operation loop
//! bodies. Two more groups time the other kernels every II attempt pays
//! for: a *failing* pass (the HRMS order at the MII on the recurrence-heavy
//! loops, where the order runs out of slots, so most of the escalation's
//! passes look like this) and `ScheduleOutcome::new` (the lifetime and
//! `MaxLive` metrics of a finished schedule). The analysis-construction
//! group measures the one-off cost of the shared per-loop facts the
//! scheduling step reads (SCCs, backward edges, dependence edges and the
//! placement CSR), so the placement cost can be judged net of it. CI runs
//! this bench with `-- --test` as a single-sample smoke check.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrms_core::{pre_order, schedule_at_ii_with};
use hrms_ddg::{Ddg, LoopAnalysis, NodeId};
use hrms_machine::presets;
use hrms_modsched::{MiiInfo, ScheduleOutcome};
use hrms_workloads::synthetic;

/// The loop's MII on the Perfect-Club machine.
fn mii(ddg: &Ddg, la: &LoopAnalysis<'_>) -> MiiInfo {
    MiiInfo::compute(&presets::perfect_club(), la)
        .unwrap_or_else(|e| panic!("stress loop `{}` invalid: {e}", ddg.name()))
}

/// The first II at or above the MII that the scheduling step accepts for
/// this order (found once, outside the measured region).
fn first_feasible_ii(ddg: &Ddg, la: &LoopAnalysis<'_>, order: &[NodeId]) -> u32 {
    let machine = presets::perfect_club();
    let mii = mii(ddg, la).mii();
    (mii..mii + 4096)
        .find(|&ii| schedule_at_ii_with(ddg, &machine, la.placement(), order, ii).is_some())
        .unwrap_or_else(|| panic!("stress loop `{}` never scheduled", ddg.name()))
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_placement");
    group.sample_size(30);
    let machine = presets::perfect_club();
    for ddg in synthetic::stress_suite() {
        let ops = ddg.num_nodes();
        let la = LoopAnalysis::analyze(&ddg);
        let order = pre_order(&la).order;
        let ii = first_feasible_ii(&ddg, &la, &order);
        group.bench_with_input(BenchmarkId::new("dense", ops), &ddg, |b, ddg| {
            b.iter(|| {
                schedule_at_ii_with(
                    std::hint::black_box(ddg),
                    &machine,
                    la.placement(),
                    &order,
                    ii,
                )
                .expect("ii was verified feasible")
            })
        });
    }
    group.finish();
}

fn bench_failing_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("recurrence_heavy_pass_at_mii");
    group.sample_size(30);
    let machine = presets::perfect_club();
    for ddg in synthetic::recurrence_heavy_suite() {
        let ops = ddg.num_nodes();
        let la = LoopAnalysis::analyze(&ddg);
        let order = pre_order(&la).order;
        let ii = mii(&ddg, &la).mii();
        group.bench_with_input(BenchmarkId::new("hrms_order", ops), &ddg, |b, ddg| {
            b.iter(|| {
                schedule_at_ii_with(
                    std::hint::black_box(ddg),
                    &machine,
                    la.placement(),
                    &order,
                    ii,
                )
            })
        });
    }
    group.finish();
}

fn bench_outcome(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_outcome");
    group.sample_size(30);
    let machine = presets::perfect_club();
    for ddg in synthetic::stress_suite() {
        let ops = ddg.num_nodes();
        let la = LoopAnalysis::analyze(&ddg);
        let order = pre_order(&la).order;
        let ii = first_feasible_ii(&ddg, &la, &order);
        let mii = mii(&ddg, &la);
        let schedule = schedule_at_ii_with(&ddg, &machine, la.placement(), &order, ii)
            .expect("ii was verified feasible");
        // The clone copies one cycle per node, a small share of the
        // lifetime analysis it feeds.
        group.bench_with_input(BenchmarkId::new("new", ops), &ddg, |b, ddg| {
            b.iter(|| {
                ScheduleOutcome::new(
                    std::hint::black_box(ddg),
                    schedule.clone(),
                    mii,
                    1,
                    Duration::ZERO,
                    Duration::ZERO,
                )
            })
        });
    }
    group.finish();
}

fn bench_loop_analysis_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_loop_analysis");
    group.sample_size(30);
    for ddg in synthetic::stress_suite() {
        let ops = ddg.num_nodes();
        group.bench_with_input(BenchmarkId::new("analyze", ops), &ddg, |b, ddg| {
            b.iter(|| {
                // `analyze` is lazy, so each fact is forced explicitly.
                let la = LoopAnalysis::analyze(std::hint::black_box(ddg));
                la.sccs();
                la.backward_edges();
                la.dep_edges();
                la.placement();
                la
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_placement,
    bench_failing_pass,
    bench_outcome,
    bench_loop_analysis_construction
);
criterion_main!(benches);
