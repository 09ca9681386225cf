//! `graph_build` — construction and clone cost of the two graphs every
//! candidate fabric, scenario and `MappingProblem` carries: the NoC
//! topology `P(U, F)` (CSR adjacency, plus the all-pairs hop table of a
//! custom fabric) and the core graph `G(V, E)` (forward-star lists and
//! one name buffer).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use noc_graph::{NodeId, RandomGraphConfig, Topology};

/// Topology constructors: 2-D mesh and torus, a 3-D mesh, and a custom
/// bidirectional ring of 16 nodes.
fn bench_topologies(c: &mut Criterion) {
    let ring: Vec<(NodeId, NodeId, f64)> = (0..16)
        .flat_map(|i| {
            let (a, b) = (NodeId::new(i), NodeId::new((i + 1) % 16));
            [(a, b, 1_000.0), (b, a, 1_000.0)]
        })
        .collect();
    let mut group = c.benchmark_group("graph_build");
    group.bench_function("mesh_8x8", |b| b.iter(|| black_box(Topology::mesh(8, 8, 1_000.0))));
    group.bench_function("torus_5x4", |b| b.iter(|| black_box(Topology::torus(5, 4, 1_000.0))));
    group.bench_function("mesh_4x4x2", |b| {
        b.iter(|| black_box(Topology::mesh_nd(&[4, 4, 2], 1_000.0).unwrap()))
    });
    group.bench_function("custom_ring_16", |b| {
        b.iter(|| black_box(Topology::custom(16, ring.iter().copied()).unwrap()))
    });
    group.finish();
}

/// Core graphs: the VOPD app built and cloned, and a 65-core random
/// graph (the Table 2 scale) generated.
fn bench_core_graphs(c: &mut Criterion) {
    let vopd = noc_apps::vopd();
    let mut group = c.benchmark_group("graph_build");
    group.bench_function("vopd_build", |b| b.iter(|| black_box(noc_apps::vopd())));
    group.bench_function("vopd_clone", |b| b.iter(|| black_box(vopd.clone())));
    group.bench_function("random_65c_generate", |b| {
        b.iter(|| black_box(RandomGraphConfig { cores: 65, ..Default::default() }.generate(1)))
    });
    group.finish();
}

criterion_group!(benches, bench_topologies, bench_core_graphs);
criterion_main!(benches);
