//! LP-solver benchmarks: the MCF programs NMAP solves per swap (the
//! paper's lp_solve workload).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bench::{dsd_torus_instance, dsp_instance, vopd_instance};
use nmap::{initialize, map_single_path, mcf::solve_mcf, McfKind, PathScope, SinglePathOptions};
use noc_lp::{LinearProgram, Sense};

fn bench_mcf_models(c: &mut Criterion) {
    let vopd = vopd_instance();
    let vopd_mapping = initialize(&vopd);
    let dsp = dsp_instance();
    let dsp_mapping = initialize(&dsp);

    let mut group = c.benchmark_group("mcf");
    group.sample_size(10);
    group.bench_function("mcf1_slack_vopd_quadrant", |b| {
        b.iter(|| {
            black_box(
                solve_mcf(&vopd, &vopd_mapping, McfKind::SlackMin, PathScope::Quadrant).unwrap(),
            )
        })
    });
    group.bench_function("mcf2_flow_vopd_quadrant", |b| {
        b.iter(|| {
            black_box(
                solve_mcf(&vopd, &vopd_mapping, McfKind::FlowMin, PathScope::Quadrant).unwrap(),
            )
        })
    });
    group.bench_function("minmax_vopd_allpaths", |b| {
        b.iter(|| {
            black_box(
                solve_mcf(&vopd, &vopd_mapping, McfKind::MinMaxLoad, PathScope::AllPaths).unwrap(),
            )
        })
    });
    // NMAP's placement, as the topology exploration solves it.
    let dsd = dsd_torus_instance();
    let dsd_mapping = map_single_path(&dsd, &SinglePathOptions::default()).unwrap().mapping;
    group.bench_function("minmax_dsd_torus5x4_allpaths", |b| {
        b.iter(|| {
            black_box(
                solve_mcf(&dsd, &dsd_mapping, McfKind::MinMaxLoad, PathScope::AllPaths).unwrap(),
            )
        })
    });
    group.bench_function("mcf2_flow_dsp_allpaths", |b| {
        b.iter(|| {
            black_box(solve_mcf(&dsp, &dsp_mapping, McfKind::FlowMin, PathScope::AllPaths).unwrap())
        })
    });
    group.finish();
}

fn bench_dense_simplex(c: &mut Criterion) {
    // A dense synthetic LP exercising the raw tableau pivots.
    c.bench_function("simplex_dense_30x40", |b| {
        b.iter(|| {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let vars: Vec<_> = (0..40)
                .map(|i| lp.add_variable(format!("x{i}"), ((i * 7) % 11) as f64 - 5.0))
                .collect();
            for r in 0..30usize {
                let terms: Vec<_> = vars
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| (v, (((r * 13 + j * 5) % 17) as f64) / 4.0 - 1.0))
                    .collect();
                lp.add_le(&terms, 25.0 + (r % 7) as f64);
            }
            for &v in &vars {
                lp.add_le(&[(v, 1.0)], 10.0);
            }
            black_box(lp.solve().unwrap())
        })
    });
}

criterion_group!(benches, bench_mcf_models, bench_dense_simplex);
criterion_main!(benches);
