//! Mapping-algorithm benchmarks: the paper's "fast algorithm" claim
//! (Section 5: NMAP completes in seconds where the routing ILP takes
//! minutes; Table 2's scale sweep).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bench::{random_instance_25, table2_instance_65, vopd_instance};
use nmap::{initialize, map_single_path, map_with_splitting, routing, SinglePathOptions};
use nmap::{PathScope, SplitOptions};
use noc_baselines::{gmap, pbb, pmap, PbbOptions};
use noc_graph::{RandomGraphConfig, Topology};

fn bench_initialize(c: &mut Criterion) {
    let vopd = vopd_instance();
    let rand25 = random_instance_25();
    let mut group = c.benchmark_group("initialize");
    group.bench_function("vopd_16c", |b| b.iter(|| black_box(initialize(&vopd))));
    group.bench_function("random_25c", |b| b.iter(|| black_box(initialize(&rand25))));
    group.finish();
}

fn bench_router(c: &mut Criterion) {
    let vopd = vopd_instance();
    let mapping = initialize(&vopd);
    c.bench_function("route_min_paths/vopd_16c", |b| {
        b.iter(|| black_box(routing::route_min_paths(&vopd, &mapping).unwrap()))
    });
}

fn bench_single_path_mappers(c: &mut Criterion) {
    let vopd = vopd_instance();
    let mut group = c.benchmark_group("mappers_vopd");
    group.sample_size(10);
    group.bench_function("nmap_paper_exact", |b| {
        b.iter(|| black_box(map_single_path(&vopd, &SinglePathOptions::paper_exact()).unwrap()))
    });
    group.bench_function("nmap_default", |b| {
        b.iter(|| black_box(map_single_path(&vopd, &SinglePathOptions::default()).unwrap()))
    });
    group.bench_function("pmap", |b| b.iter(|| black_box(pmap(&vopd))));
    group.bench_function("gmap", |b| b.iter(|| black_box(gmap(&vopd))));
    group.bench_function("pbb_small_budget", |b| {
        b.iter(|| {
            black_box(pbb(&vopd, &PbbOptions { max_queue: 1_000, max_expansions: 10_000 }).unwrap())
        })
    });
    // Table 2's budget on its largest instance: 50k expansions, so the
    // per-expansion cost of the search loop dominates.
    let table2 = table2_instance_65();
    group.bench_function("pbb_table2_budget", |b| {
        b.iter(|| {
            black_box(
                pbb(&table2, &PbbOptions { max_queue: 5_000, max_expansions: 50_000 }).unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_split_mapper(c: &mut Criterion) {
    // Split mapping solves O(|U|^2) LPs; bench on the small PIP app.
    let problem =
        nmap::MappingProblem::new(noc_apps::pip(), noc_graph::Topology::mesh(3, 3, 1_000.0))
            .unwrap();
    let mut group = c.benchmark_group("map_with_splitting_pip");
    group.sample_size(10);
    group.bench_function("quadrant", |b| {
        b.iter(|| {
            black_box(
                map_with_splitting(
                    &problem,
                    &SplitOptions { scope: PathScope::Quadrant, passes: 1 },
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_nmap_scaling(c: &mut Criterion) {
    // Table 2's independent variable: core count.
    let mut group = c.benchmark_group("nmap_scaling");
    group.sample_size(10);
    for cores in [15usize, 25, 35] {
        let graph = RandomGraphConfig { cores, ..Default::default() }.generate(7);
        let (w, h) = Topology::fit_mesh_dims(cores);
        let problem = nmap::MappingProblem::new(graph, Topology::mesh(w, h, 1e9)).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(cores), &problem, |b, p| {
            b.iter(|| black_box(map_single_path(p, &SinglePathOptions::paper_exact()).unwrap()))
        });
    }
    group.finish();
}

/// The swap-delta claim: the O(deg) delta-gated descent kernel beats the
/// full-recompute kernel on the Table-2 workloads (bundled apps and the
/// random-graph family) while producing bit-identical outcomes (pinned
/// by `crates/core/tests/swap_delta_identity.rs` — here we only measure).
fn bench_swap_delta_kernels(c: &mut Criterion) {
    use nmap::{map_single_path_kernel, EvalContext, SwapKernel};

    let mut group = c.benchmark_group("swap_delta");
    group.sample_size(10);
    let mut instances = vec![("vopd_16c".to_string(), vopd_instance())];
    for cores in [25usize, 35, 50] {
        let graph = RandomGraphConfig { cores, ..Default::default() }.generate(7);
        let (w, h) = Topology::fit_mesh_dims(cores);
        let problem = nmap::MappingProblem::new(graph, Topology::mesh(w, h, 1e9)).unwrap();
        instances.push((format!("random_{cores}c"), problem));
    }
    // Sweep-realistic effort (multiple passes and restarts): the descent
    // dominates over the shared initialize()/routing fixed costs, which
    // both kernels pay identically.
    let options = SinglePathOptions { passes: 2, restarts: 4 };
    for (label, problem) in &instances {
        for (kernel_label, kernel) in
            [("full", SwapKernel::FullRecompute), ("delta", SwapKernel::DeltaGated)]
        {
            group.bench_function(BenchmarkId::new(kernel_label, label), |b| {
                b.iter(|| {
                    black_box(
                        map_single_path_kernel(&mut EvalContext::new(problem), &options, kernel)
                            .unwrap(),
                    )
                })
            });
        }
    }
    group.finish();
}

/// The kernel's customers: the SA and tabu searches propose/scan moves
/// through `swap_delta`, so their cost is dominated by O(deg) work.
fn bench_search_mappers(c: &mut Criterion) {
    use nmap::search::{Mapper, SaMapper, SaOptions, TabuMapper, TabuOptions};
    use nmap::EvalContext;

    let vopd = vopd_instance();
    let mut group = c.benchmark_group("search_mappers_vopd");
    group.sample_size(10);
    group.bench_function("sa_default", |b| {
        let mapper = SaMapper::new(SaOptions::default(), 7);
        b.iter(|| black_box(mapper.map(&mut EvalContext::new(&vopd)).unwrap()))
    });
    group.bench_function("tabu_default", |b| {
        let mapper = TabuMapper::new(TabuOptions::default());
        b.iter(|| black_box(mapper.map(&mut EvalContext::new(&vopd)).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_initialize,
    bench_router,
    bench_single_path_mappers,
    bench_split_mapper,
    bench_nmap_scaling,
    bench_swap_delta_kernels,
    bench_search_mappers
);
criterion_main!(benches);
