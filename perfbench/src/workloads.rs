//! The benchmark's inputs, generated from the workload seed alone: `.dse`
//! sweep text for the engine workloads, seeded random core graphs and the
//! candidate fabrics of a topology exploration.

use nmap::{map_single_path, mcf::solve_mcf, McfKind, PathScope, SinglePathOptions};
use nmap::{MappingProblem, McfSolution, SinglePathOutcome};
use noc_apps::App;
use noc_dse::{parse_spec, Scenario};
use noc_graph::{CoreGraph, RandomGraphConfig, Topology};
use noc_units::Mbps;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fabric-explore", "mapper-scaling", "latency-sweep"];

/// Link budget of the fabric exploration, MB/s: NMAP maps against it and
/// a candidate is feasible when its min-max split load fits under it.
pub const FABRIC_CAPACITY: f64 = 1_000.0;

/// One topology-selection candidate: NMAP on a fabric, then the all-paths
/// min-max-load LP on the resulting placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// `app@fabric`, for messages.
    pub label: String,
    /// The application.
    pub graph: CoreGraph,
    /// The candidate fabric.
    pub topology: Topology,
}

/// A candidate's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateOut {
    /// NMAP's single-path result.
    pub nmap: SinglePathOutcome,
    /// The min-max-load split routing of NMAP's placement.
    pub min_max: McfSolution,
}

impl Candidate {
    /// Builds the problem, maps it and solves the min-max LP, untraced.
    pub fn run(&self) -> nmap::Result<CandidateOut> {
        let problem = MappingProblem::new(self.graph.clone(), self.topology.clone())?;
        let nmap = map_single_path(&problem, &SinglePathOptions::default())?;
        let min_max = solve_mcf(&problem, &nmap.mapping, McfKind::MinMaxLoad, PathScope::AllPaths)?;
        Ok(CandidateOut { nmap, min_max })
    }
}

/// One queued unit of work.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A topology-selection candidate.
    Candidate(Candidate),
    /// An engine scenario, run by `run_scenario_cached`.
    Scenario(Scenario),
}

/// A workload's generated inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The batch, in dispatch order.
    pub items: Vec<Item>,
    /// Simulated scenarios with a link capacity below this are in the
    /// loaded half of the bandwidth axis, the rest in the light half.
    pub loaded_below: Mbps,
}

/// Generates `workload`'s inputs for `seed`.
pub fn generate(workload: &str, seed: u64) -> Result<Inputs, String> {
    let (specs, candidates, loaded_below) = match workload {
        "fabric-explore" => (vec![fabric_spec(seed)], fabric_candidates(seed), 0.0),
        "mapper-scaling" => (mapper_specs(seed), Vec::new(), 0.0),
        "latency-sweep" => (vec![latency_spec(seed)], Vec::new(), latency_split()),
        other => {
            return Err(format!("unknown workload {other:?} (known: {})", WORKLOADS.join(", ")))
        }
    };
    let mut items: Vec<Item> = candidates.into_iter().map(Item::Candidate).collect();
    for spec in specs {
        let set = parse_spec(&spec).map_err(|e| format!("{workload} spec: {e}"))?.scenarios();
        items.extend(set.scenarios().iter().cloned().map(Item::Scenario));
    }
    Ok(Inputs { items, loaded_below: Mbps::raw(loaded_below) })
}

/// Core counts of the seeded random graphs the exploration maps.
const CANDIDATE_RANDOM_CORES: [usize; 3] = [12, 14, 16];
/// Average out-degree of those graphs: as sparse as the bundled apps.
const CANDIDATE_RANDOM_DEGREE: f64 = 1.25;

/// The exploration's candidates: every kept fabric of the six bundled
/// apps, then the fitted mesh of each seeded random graph.
fn fabric_candidates(seed: u64) -> Vec<Candidate> {
    let mut out = Vec::new();
    for app in App::all() {
        let graph = app.core_graph();
        for topology in candidate_fabrics(graph.core_count()) {
            out.push(candidate(app.name(), &graph, topology));
        }
    }
    for (i, &cores) in CANDIDATE_RANDOM_CORES.iter().enumerate() {
        let config = RandomGraphConfig {
            cores,
            avg_degree: CANDIDATE_RANDOM_DEGREE,
            ..RandomGraphConfig::default()
        };
        let graph = config.generate(mix(seed, i as u64));
        let (w, h) = Topology::fit_mesh_dims(cores);
        out.push(candidate(&format!("rand{cores}"), &graph, Topology::mesh(w, h, FABRIC_CAPACITY)));
    }
    out
}

fn candidate(app: &str, graph: &CoreGraph, topology: Topology) -> Candidate {
    let label = format!("{app}@{}", topology.kind().describe());
    Candidate { label, graph: graph.clone(), topology }
}

/// The topology-selection candidates for `cores` cores: meshes with
/// `width ≥ height ≥ 2` and `cores ≤ nodes ≤ 5·cores/4`, plus the torus of
/// each one at least 3 wide and high.
fn candidate_fabrics(cores: usize) -> Vec<Topology> {
    let mut out = Vec::new();
    for h in 2..=cores {
        for w in h..=cores {
            let nodes = w * h;
            if nodes < cores || 4 * nodes > 5 * cores {
                continue;
            }
            out.push(Topology::mesh(w, h, FABRIC_CAPACITY));
            if h >= 3 {
                out.push(Topology::torus(w, h, FABRIC_CAPACITY));
            }
        }
    }
    out
}

/// NMAP-split over all paths (one MCF1 LP per swap candidate) on bundled
/// apps and a random graph.
fn fabric_spec(seed: u64) -> String {
    format!(
        "# fabric-explore: split-traffic NMAP\n\
         capacity {FABRIC_CAPACITY}\n\
         seed {seed}\n\
         app all\n\
         topology fit\n\
         mapper nmap-split-all\n\
         routing min-path\n"
    )
}

/// The Table 2 shape, in two sweeps on fitted meshes: PBB at the Table 2
/// budget on a random graph of every fourth core count from 25 to 65, then
/// the swap-delta searches on a random graph of every core count from 25
/// to 65. One graph per size keeps the latency distribution smooth, so its
/// median and tail do not sit on a gap between size classes; the searches
/// are cheap, so they get three times the graphs, which steadies the
/// median. The PBB sweep is queued first, so the searches fill the pool
/// behind its long items.
fn mapper_specs(seed: u64) -> Vec<String> {
    let sweep = |sizes: &mut dyn Iterator<Item = usize>, mappers: &str| {
        let randoms: String = sizes.map(|cores| format!("random {cores} 1\n")).collect();
        format!(
            "# mapper-scaling: Table 2 through the engine\n\
             capacity 1200\n\
             seed {seed}\n\
             {randoms}\
             topology fit\n\
             mapper {mappers}\n\
             routing min-path\n"
        )
    };
    vec![
        sweep(&mut (25..=65).step_by(4), "pbb[q5000e50000]"),
        sweep(&mut (25..=65), "nmap sa tabu"),
    ]
}

/// Bandwidth points of the latency sweep, MB/s, loaded to light.
const LATENCY_BANDWIDTHS: [f64; 6] = [400.0, 550.0, 750.0, 1_000.0, 1_400.0, 2_000.0];

/// The capacity splitting the bandwidth axis into its loaded and light
/// halves.
fn latency_split() -> f64 {
    LATENCY_BANDWIDTHS[LATENCY_BANDWIDTHS.len() / 2]
}

/// The Fig. 5(c) and mesh3d shape: constructive NMAP placements on 2-D
/// and 3-D meshes, routed single-path and by the quadrant MCF LP, then
/// simulated across the bandwidth axis.
fn latency_spec(seed: u64) -> String {
    let bandwidths: Vec<String> = LATENCY_BANDWIDTHS.iter().map(f64::to_string).collect();
    format!(
        "# latency-sweep: Fig. 5(c) and mesh3d through the engine\n\
         capacity 2000\n\
         seed {seed}\n\
         app dsp pip mwa mpeg4 vopd\n\
         random 12 1\n\
         topology fit\n\
         topology mesh 4x4x2\n\
         mapper nmap-init\n\
         routing min-path mcf-quadrant\n\
         simulate {{\n\
         bandwidths {}\n\
         warmup 2000\n\
         measure 20000\n\
         drain 4000\n\
         }}\n",
        bandwidths.join(" ")
    )
}

/// SplitMix64-style mix of the workload seed with a stream index.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_generates_and_is_seed_deterministic() {
        for w in WORKLOADS {
            let a = generate(w, 3).unwrap();
            let b = generate(w, 3).unwrap();
            assert!(!a.items.is_empty(), "{w}");
            assert_eq!(a, b, "{w}");
        }
        assert!(generate("nope", 1).is_err());
    }

    #[test]
    fn the_seed_changes_the_random_inputs() {
        let a = generate("mapper-scaling", 1).unwrap();
        let b = generate("mapper-scaling", 2).unwrap();
        assert_eq!(a.items.len(), b.items.len());
        assert_ne!(a, b);
    }

    #[test]
    fn candidates_include_tori() {
        let fabrics = candidate_fabrics(16);
        assert!(fabrics.iter().any(|t| t.kind().describe().starts_with("torus")));
        assert!(fabrics.iter().all(|t| (16..=20).contains(&t.node_count())));
    }
}
