//! Figure 3: communication cost (hops × bandwidth) of the four mapping
//! algorithms on the six video applications, under identical (generous)
//! bandwidth constraints.

use nmap::{map_single_path, SinglePathOptions};
use noc_apps::App;
use noc_baselines::{gmap, pbb, pmap, PbbOptions};

use crate::{app_problem, GENEROUS_CAPACITY};

/// One bar group of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Application name.
    pub app: App,
    /// PMAP communication cost (Equation 7).
    pub pmap: f64,
    /// GMAP communication cost.
    pub gmap: f64,
    /// PBB communication cost.
    pub pbb: f64,
    /// NMAP (single-minimum-path) communication cost.
    pub nmap: f64,
}

/// Computes one application's costs.
pub fn run_app(app: App) -> Fig3Row {
    let problem = app_problem(app, GENEROUS_CAPACITY);
    let pmap_cost = problem.comm_cost(&pmap(&problem));
    let gmap_cost = problem.comm_cost(&gmap(&problem));
    let pbb_out =
        pbb(&problem, &PbbOptions::default()).expect("app mesh is within PBB's node limit");
    let nmap_out =
        map_single_path(&problem, &SinglePathOptions::default()).expect("mesh routing succeeds");
    Fig3Row {
        app,
        pmap: pmap_cost.to_f64(),
        gmap: gmap_cost.to_f64(),
        pbb: pbb_out.comm_cost.to_f64(),
        nmap: nmap_out.comm_cost.to_f64(),
    }
}

/// Computes the full figure (all six applications).
pub fn run_all() -> Vec<Fig3Row> {
    App::all().into_iter().map(run_app).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pip_costs_are_ordered_like_the_paper() {
        // On the smallest app, NMAP and PBB should both be at least as
        // good as the two greedy baselines — the qualitative claim of
        // Figure 3.
        let row = run_app(App::Pip);
        assert!(row.nmap <= row.pmap + 1e-9, "NMAP {} vs PMAP {}", row.nmap, row.pmap);
        assert!(row.nmap <= row.gmap + 1e-9, "NMAP {} vs GMAP {}", row.nmap, row.gmap);
        assert!(row.pbb <= row.pmap + 1e-9, "PBB {} vs PMAP {}", row.pbb, row.pmap);
    }

    #[test]
    fn costs_are_bounded_below_by_total_bandwidth() {
        let row = run_app(App::Pip);
        let lb = App::Pip.core_graph().total_bandwidth().to_f64();
        for cost in [row.pmap, row.gmap, row.pbb, row.nmap] {
            assert!(cost >= lb - 1e-9, "cost {cost} below 1-hop bound {lb}");
        }
    }
}
