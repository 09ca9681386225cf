//! Table 1: per-application ratios of the baselines' cost and bandwidth
//! requirements to NMAP's (split-traffic) requirements.
//!
//! `cstr` — average communication cost of {PMAP, GMAP, PBB} divided by
//! NMAP's cost (the paper reports an average of 1.47, i.e. ≈32% cost
//! reduction).
//!
//! `bwr` — average minimum bandwidth of the baselines under their own
//! routing (PMAP/GMAP with min-path routing, plus PBB's min-path
//! bandwidth) divided by NMAP's split-traffic bandwidth (NMAPTA); the
//! paper reports an average of 2.13, i.e. ≈53% bandwidth savings.

use nmap::{map_single_path, mcf::solve_mcf, routing, McfKind, PathScope, SinglePathOptions};
use noc_apps::App;
use noc_baselines::{gmap, pbb, pmap, PbbOptions};

use crate::{app_problem, fig3, GENEROUS_CAPACITY, UNLIMITED_CAPACITY};

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Application name.
    pub app: App,
    /// Cost ratio (baseline average / NMAP).
    pub cstr: f64,
    /// Bandwidth ratio (baseline average / NMAP split-traffic).
    pub bwr: f64,
}

/// Computes one application's ratios.
pub fn run_app(app: App) -> Table1Row {
    // Cost side: reuse the Figure 3 pipeline (generous shared capacity).
    let costs = fig3::run_app(app);
    let cstr = (costs.pmap + costs.gmap + costs.pbb) / 3.0 / costs.nmap;

    // Bandwidth side: minimum bandwidth under each algorithm's mapping
    // with single-path routing, vs NMAP with all-path splitting.
    let problem = app_problem(app, UNLIMITED_CAPACITY);
    let (_, pmap_loads) = routing::route_min_paths(&problem, &pmap(&problem)).expect("mesh");
    let (_, gmap_loads) = routing::route_min_paths(&problem, &gmap(&problem)).expect("mesh");
    let feasibility_problem = app_problem(app, GENEROUS_CAPACITY);
    let pbb_mapping = pbb(&feasibility_problem, &PbbOptions::default())
        .expect("app mesh is within PBB's node limit")
        .mapping;
    let (_, pbb_loads) = routing::route_min_paths(&problem, &pbb_mapping).expect("mesh");
    let nmap_out =
        map_single_path(&problem, &SinglePathOptions::default()).expect("mesh routing succeeds");
    let nmapta = solve_mcf(&problem, &nmap_out.mapping, McfKind::MinMaxLoad, PathScope::AllPaths)
        .expect("min-max LP is always feasible")
        .objective;

    let baseline_avg = (pmap_loads.max() + gmap_loads.max() + pbb_loads.max()) / 3.0;
    Table1Row { app, cstr, bwr: baseline_avg / nmapta }
}

/// Computes the whole table plus the average row.
pub fn run_all() -> (Vec<Table1Row>, Table1Row) {
    let rows: Vec<Table1Row> = App::all().into_iter().map(run_app).collect();
    let n = rows.len() as f64;
    let avg = Table1Row {
        app: App::Mpeg4, // placeholder tag for the average row
        cstr: rows.iter().map(|r| r.cstr).sum::<f64>() / n,
        bwr: rows.iter().map(|r| r.bwr).sum::<f64>() / n,
    };
    (rows, avg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_favor_nmap_on_pip() {
        // PBB near-exhausts the search space on 8 cores and may edge out
        // NMAP slightly ("for small number of cores, PBB gives good
        // performance, comparable to NMAP"), so the cost ratio is allowed
        // a little below 1; the bandwidth ratio must favor splitting.
        let row = run_app(App::Pip);
        assert!(row.cstr >= 0.9, "cstr {} — baselines far better than NMAP", row.cstr);
        assert!(row.bwr >= 1.0 - 1e-9, "bwr {} < 1: baselines need less BW", row.bwr);
    }
}
