//! Video-pipeline walkthrough: compare all mapping algorithms on the six
//! video applications the paper evaluates, under both routing regimes.
//!
//! For each application this prints the communication cost of PMAP, GMAP,
//! PBB and NMAP, and the minimum link bandwidth the NMAP mapping needs
//! under single-path vs split-traffic routing — the data behind the
//! paper's Figures 3 and 4.
//!
//! Run with: `cargo run --release --example video_pipeline`

use nmap_suite::apps::App;
use nmap_suite::baselines::{gmap, pbb, pmap, PbbOptions};
use nmap_suite::graph::Topology;
use nmap_suite::nmap::{
    map_single_path, mcf::solve_mcf, MappingProblem, McfKind, PathScope, SinglePathOptions,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:>6} {:>7} {:>7} {:>7} {:>7}   {:>9} {:>9} {:>9}",
        "app", "PMAP", "GMAP", "PBB", "NMAP", "BW minp", "BW TM", "BW TA"
    );
    for app in App::all() {
        let graph = app.core_graph();
        let (w, h) = app.mesh_dims();
        let problem = MappingProblem::new(graph, Topology::mesh(w, h, 1e9))?;

        let pmap_cost = problem.comm_cost(&pmap(&problem));
        let gmap_cost = problem.comm_cost(&gmap(&problem));
        let pbb_cost = pbb(&problem, &PbbOptions::default())?.comm_cost;
        let nmap_out = map_single_path(&problem, &SinglePathOptions::default())?;

        // Minimum uniform link capacity this mapping needs under each
        // routing regime (Figure 4's metric).
        let bw_minp = nmap_out.link_loads.max();
        let bw_tm =
            solve_mcf(&problem, &nmap_out.mapping, McfKind::MinMaxLoad, PathScope::Quadrant)?
                .objective;
        let bw_ta =
            solve_mcf(&problem, &nmap_out.mapping, McfKind::MinMaxLoad, PathScope::AllPaths)?
                .objective;

        println!(
            "{:>6} {:>7.0} {:>7.0} {:>7.0} {:>7.0}   {:>9.0} {:>9.0} {:>9.0}",
            app.name(),
            pmap_cost,
            gmap_cost,
            pbb_cost,
            nmap_out.comm_cost,
            bw_minp,
            bw_tm,
            bw_ta
        );
    }
    println!("\ncosts in hops x MB/s; BW columns in MB/s (lower is better everywhere)");
    println!("TM = split over minimal paths (low jitter), TA = split over all paths");
    Ok(())
}
