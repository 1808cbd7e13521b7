//! Criterion benchmarks of every scheduler on representative loops — the
//! compilation-time comparison behind Tables 1 and 3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrms_baselines::{
    BranchAndBoundScheduler, FrlcScheduler, IterativeScheduler, SlackScheduler, TopDownScheduler,
};
use hrms_core::HrmsScheduler;
use hrms_machine::presets;
use hrms_modsched::{ModuloScheduler, SchedulerConfig};
use hrms_workloads::{motivating, reference24, synthetic};

fn bench_heuristics(c: &mut Criterion) {
    let machine = presets::govindarajan();
    let loops = vec![
        motivating::figure1(),
        reference24::inner_product(),
        reference24::equation_of_state(),
        reference24::implicit_hydro(),
    ];
    let schedulers: Vec<Box<dyn ModuloScheduler>> = vec![
        Box::new(HrmsScheduler::new()),
        Box::new(TopDownScheduler::new()),
        Box::new(SlackScheduler::new()),
        Box::new(FrlcScheduler::new()),
        Box::new(IterativeScheduler::new()),
    ];
    let mut group = c.benchmark_group("heuristic_schedulers");
    for ddg in &loops {
        for scheduler in &schedulers {
            group.bench_with_input(
                BenchmarkId::new(scheduler.name(), ddg.name()),
                ddg,
                |b, ddg| {
                    b.iter(|| {
                        scheduler
                            .schedule_loop(std::hint::black_box(ddg), &machine)
                            .expect("benchmark loops are schedulable")
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_optimal_vs_hrms(c: &mut Criterion) {
    // The Table 3 claim: the optimal method is orders of magnitude slower
    // than HRMS for the same result.
    let machine = presets::govindarajan();
    let ddg = reference24::complex_multiply();
    let hrms = HrmsScheduler::new();
    let bb = BranchAndBoundScheduler {
        config: SchedulerConfig {
            budget_per_ii: 20_000,
        },
    };
    let mut group = c.benchmark_group("optimal_vs_hrms");
    group.sample_size(10);
    group.bench_function("HRMS/complex_multiply", |b| {
        b.iter(|| hrms.schedule_loop(&ddg, &machine).unwrap())
    });
    group.bench_function("B&B/complex_multiply", |b| {
        b.iter(|| bb.schedule_loop(&ddg, &machine).unwrap())
    });
    group.finish();
}

fn bench_suite_throughput(c: &mut Criterion) {
    // How fast the whole synthetic suite can be scheduled (the paper quotes
    // 5.5 minutes for 1258 loops on a Sparc-10/40).
    let machine = presets::perfect_club();
    let loops = synthetic::perfect_club_like_sized(64);
    let hrms = HrmsScheduler::new();
    let mut group = c.benchmark_group("suite_throughput");
    group.sample_size(10);
    group.bench_function("HRMS/64_synthetic_loops", |b| {
        b.iter(|| {
            for ddg in &loops {
                hrms.schedule_loop(ddg, &machine).unwrap();
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_heuristics,
    bench_optimal_vs_hrms,
    bench_suite_throughput
);
criterion_main!(benches);
