//! Placement micro-benchmark: one pass of the scheduling step (Section 3.3)
//! at a fixed, feasible II over the dense placement arcs of the shared
//! per-loop analysis (`schedule_at_ii_with`) on 200–2000-operation loop
//! bodies. The analysis-construction group measures the one-off cost of
//! building the shared cache so the placement cost can be judged net of
//! it. CI runs this bench with `-- --test` as a single-sample smoke check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrms_core::{pre_order, schedule_at_ii_with};
use hrms_ddg::{Ddg, LoopAnalysis, NodeId};
use hrms_machine::presets;
use hrms_modsched::MiiInfo;
use hrms_workloads::synthetic;

/// The first II at or above the MII that the scheduling step accepts for
/// this order (found once, outside the measured region).
fn first_feasible_ii(ddg: &Ddg, la: &LoopAnalysis<'_>, order: &[NodeId]) -> u32 {
    let machine = presets::perfect_club();
    let mii = MiiInfo::compute(&machine, la)
        .unwrap_or_else(|e| panic!("stress loop `{}` invalid: {e}", ddg.name()))
        .mii();
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

fn bench_loop_analysis_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_loop_analysis");
    group.sample_size(30);
    for ddg in synthetic::stress_suite() {
        let ops = ddg.num_nodes();
        group.bench_with_input(BenchmarkId::new("analyze", ops), &ddg, |b, ddg| {
            b.iter(|| LoopAnalysis::analyze(std::hint::black_box(ddg)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_placement, bench_loop_analysis_construction);
criterion_main!(benches);
