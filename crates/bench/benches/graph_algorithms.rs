//! Criterion benchmarks of the graph substrate: SCCs, recurrence-circuit
//! enumeration, path search and MII computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrms_ddg::{scc, NodeId};
use hrms_machine::presets;
use hrms_modsched::MiiInfo;
use hrms_oracle::{search_all_paths, RecurrenceInfo};
use hrms_workloads::{GeneratorConfig, LoopGenerator};

fn graphs() -> Vec<hrms_ddg::Ddg> {
    [24usize, 48, 96]
        .into_iter()
        .map(|size| {
            let config = GeneratorConfig {
                min_ops: size,
                mean_ops: size as f64,
                max_ops: size,
                ..GeneratorConfig::default()
            };
            LoopGenerator::new(13, config).next_loop()
        })
        .collect()
}

fn bench_scc_and_circuits(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_analysis");
    for ddg in graphs() {
        group.bench_with_input(
            BenchmarkId::new("tarjan_scc", ddg.num_nodes()),
            &ddg,
            |b, ddg| b.iter(|| scc::strongly_connected_components(std::hint::black_box(ddg))),
        );
        group.bench_with_input(
            BenchmarkId::new("recurrence_info", ddg.num_nodes()),
            &ddg,
            |b, ddg| b.iter(|| RecurrenceInfo::analyze(std::hint::black_box(ddg))),
        );
        group.bench_with_input(BenchmarkId::new("mii", ddg.num_nodes()), &ddg, |b, ddg| {
            let machine = presets::perfect_club();
            b.iter(|| {
                let la = hrms_ddg::LoopAnalysis::analyze(std::hint::black_box(ddg));
                MiiInfo::compute(&machine, &la).unwrap()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("search_all_paths", ddg.num_nodes()),
            &ddg,
            |b, ddg| {
                let seeds: Vec<NodeId> = vec![
                    NodeId(0),
                    NodeId((ddg.num_nodes() as u32) / 2),
                    NodeId(ddg.num_nodes() as u32 - 1),
                ];
                b.iter(|| search_all_paths(std::hint::black_box(ddg), &seeds))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scc_and_circuits);
criterion_main!(benches);
