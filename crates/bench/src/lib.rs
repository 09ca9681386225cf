//! Shared fixtures for the Criterion benchmarks.
//!
//! The benchmark targets live in `benches/`:
//!
//! * `mapping` — `initialize()`, the greedy router, full single-path NMAP,
//!   PMAP/GMAP/PBB, and NMAP-with-splitting on a small instance.
//! * `lp` — simplex solves of MCF1/MCF2/min-max-load models.
//! * `simulator` — wormhole simulator cycles/second on the DSP design.
//! * `figures` — end-to-end regeneration of each paper artifact on
//!   reduced parameter sets (the shapes benchmarked are the same code
//!   paths the experiment binaries run at full scale).

#![forbid(unsafe_code)]

use nmap::MappingProblem;
use noc_graph::{RandomGraphConfig, RandomGraphFamily, Topology};

/// A deterministic mid-size random instance (25 cores on a 5×5 mesh) used
/// by several benchmarks.
pub fn random_instance_25() -> MappingProblem {
    let graph = RandomGraphConfig { cores: 25, ..Default::default() }.generate(1);
    MappingProblem::new(graph, Topology::mesh(5, 5, 1e9)).expect("fits")
}

/// Table 2's largest instance: the 65-core `RandomGraphFamily` graph 0 on
/// its fitted mesh, as `table2_scaling` and the `mapper-scaling` benchmark
/// map it.
pub fn table2_instance_65() -> MappingProblem {
    let graph = RandomGraphFamily::new(RandomGraphConfig::default()).graph(65, 0);
    let (w, h) = Topology::fit_mesh_dims(65);
    MappingProblem::new(graph, Topology::mesh(w, h, 1e9)).expect("fits")
}

/// The paper's VOPD instance on its 4×4 mesh with generous capacity.
pub fn vopd_instance() -> MappingProblem {
    MappingProblem::new(noc_apps::vopd(), Topology::mesh(4, 4, 2_000.0)).expect("fits")
}

/// The DSD app on a 5×4 torus, the topology exploration's costliest
/// min-max-load candidate under the edge formulation.
pub fn dsd_torus_instance() -> MappingProblem {
    MappingProblem::new(noc_apps::dsd(), Topology::torus(5, 4, 1e9)).expect("fits")
}

/// The paper's DSP instance on its 3×2 mesh.
pub fn dsp_instance() -> MappingProblem {
    MappingProblem::new(noc_apps::dsp_filter(), Topology::mesh(3, 2, 2_000.0)).expect("fits")
}
