//! A `.dse` spec is valid for any core count, but PBB's occupancy bitmask
//! holds 128 nodes: the engine must report a larger fabric as a typed
//! per-scenario failure instead of panicking mid-sweep.

use noc_dse::{parse_spec, run_sweep, EngineOptions};

#[test]
fn pbb_on_a_fabric_beyond_128_nodes_is_a_scenario_failure() {
    let set = parse_spec("seed 1\nrandom 130 1\ntopology fit\nmapper pbb\n")
        .expect("the spec is valid")
        .scenarios();
    let report = run_sweep(&set, &EngineOptions { threads: 1, ..EngineOptions::default() });
    assert_eq!(report.records.len(), 1);
    let record = &report.records[0];
    assert!(!record.is_ok());
    assert!(
        record.error.contains("the topology has 132 nodes but this mapper supports at most 128"),
        "{}",
        record.error
    );
}
