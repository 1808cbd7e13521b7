//! Criterion benchmarks of the design-choice ablations: what the
//! pre-ordering phase costs (and buys) relative to program-order scheduling,
//! and whether the initial hypernode choice matters for speed.

use criterion::{criterion_group, criterion_main, Criterion};
use hrms_core::{program_order_scheduler, HrmsScheduler};
use hrms_ddg::LoopAnalysis;
use hrms_machine::presets;
use hrms_modsched::{ModuloScheduler, Perturbation, StartHint};
use hrms_workloads::synthetic;

fn bench_ordering_modes(c: &mut Criterion) {
    let machine = presets::perfect_club();
    let loops = synthetic::perfect_club_like_sized(32);
    let last_node_start = Perturbation {
        start: StartHint::Last,
        ..Perturbation::default()
    };
    let variants = [
        (
            "hypernode_reduction",
            HrmsScheduler::new(),
            Perturbation::default(),
        ),
        (
            "program_order",
            program_order_scheduler(),
            Perturbation::default(),
        ),
        ("last_node_start", HrmsScheduler::new(), last_node_start),
    ];
    let mut group = c.benchmark_group("ordering_ablation");
    group.sample_size(10);
    for (name, scheduler, perturbation) in variants {
        group.bench_function(name, |b| {
            b.iter(|| {
                for ddg in &loops {
                    let analysis = LoopAnalysis::analyze(ddg);
                    scheduler
                        .schedule(&analysis, &machine, &perturbation)
                        .unwrap();
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ordering_modes);
criterion_main!(benches);
