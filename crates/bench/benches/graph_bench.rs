//! Graph-construction scaling: dependency graph, order-of-execution graph
//! (with transitive closure) and sharing graph (adjacency and components)
//! on programs up to SCALE-LES size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kfuse_core::depgraph::DependencyGraph;
use kfuse_core::exec_order::ExecOrderGraph;
use kfuse_core::kinship::ShareGraph;
use kfuse_core::relax::relax_expandable;
use kfuse_workloads::{SuiteParams, TestSuite};
use std::hint::black_box;

fn bench_graphs(c: &mut Criterion) {
    let mut g = c.benchmark_group("graphs");
    for kernels in [20usize, 60, 100, 142] {
        let params = SuiteParams {
            kernels,
            arrays: (kernels * 2).min(200),
            ..SuiteParams::default()
        };
        let program = TestSuite::generate_on_grid(&params, [128, 32, 4], (32, 4));
        g.bench_with_input(BenchmarkId::new("dependency", kernels), &program, |b, p| {
            b.iter(|| DependencyGraph::build(black_box(p)))
        });
        g.bench_with_input(BenchmarkId::new("exec_order", kernels), &program, |b, p| {
            b.iter(|| ExecOrderGraph::build(black_box(p)))
        });
        let dep = DependencyGraph::build(&program);
        g.bench_with_input(BenchmarkId::new("kinship", kernels), &program, |b, p| {
            b.iter(|| ShareGraph::build(black_box(&dep), p.kernels.len()))
        });
        g.bench_with_input(BenchmarkId::new("relaxation", kernels), &program, |b, p| {
            b.iter(|| relax_expandable(black_box(p)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_graphs);
criterion_main!(benches);
