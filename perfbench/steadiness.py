#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

Runs the command in BENCHMARK.json once per (seed, workload), seed-major so
machine drift spreads over every workload, and prints for each end-to-end
metric (per-layer with --trace 1) its median, quartiles
(statistics.quantiles, n=4) and the quartile spread as a share of the
median next to the metric's bound. With --write-baseline the figures go
to perfbench/baseline.json together with the git revision, the CPU count
and the layer map.

    python3 perfbench/steadiness.py                       # seeds 1..10
    python3 perfbench/steadiness.py --seeds 1,2,3 --workloads latency-sweep
    python3 perfbench/steadiness.py --write-baseline
    python3 perfbench/steadiness.py --trace 1 --write-baseline   # then the traced figures

Run it from the repository root. CARGO_TARGET_DIR defaults to .bench_build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1

# Which batch metric a gain in each per-layer metric should move, and
# on which workload; the other workloads should show no change.
LAYER_MAP = {
    "dse": {
        "dse.pool_busy_frac": ["items_per_s", "mapper-scaling"],
        "dse.cache.map_hit_rate": ["items_per_s", "latency-sweep"],
        "dse.cache.route_hit_rate": ["items_per_s", "latency-sweep"],
        "dse.cache.self_ms": ["item_p50_ms", "latency-sweep, fabric-explore"],
        "dse.flows_ms": ["items_per_s", "latency-sweep (small)"],
    },
    "graph": {"graph.build_ms": ["item_p50_ms", "all (small)"]},
    "nmap": {
        "nmap.swap.map_ms": ["item_p50_ms", "mapper-scaling"],
        "nmap.swap.candidates": ["item_p50_ms", "mapper-scaling"],
        "nmap.swap.us_per_candidate": ["item_p50_ms", "mapper-scaling"],
        "nmap.split.map_ms": ["items_per_s, item_tail_ms", "fabric-explore"],
        "nmap.split.lp_solves": ["items_per_s, item_tail_ms", "fabric-explore"],
        "nmap.split.ms_per_lp": ["items_per_s, item_tail_ms", "fabric-explore"],
        "nmap.init.map_ms": ["items_per_s", "latency-sweep (small)"],
        "nmap.route_ms": ["item_p50_ms", "mapper-scaling (small)"],
        "nmap.routes": ["item_p50_ms", "mapper-scaling (small)"],
    },
    "baselines": {
        "baselines.pbb_ms": ["item_tail_ms, items_per_s", "mapper-scaling"],
        "baselines.pbb_expansions": ["item_tail_ms, items_per_s", "mapper-scaling"],
        "baselines.pbb_us_per_expansion": ["item_tail_ms, items_per_s", "mapper-scaling"],
    },
    "lp": {
        "lp.minmax.solves": ["items_per_s, item_tail_ms", "fabric-explore"],
        "lp.minmax.ms_per_solve": ["items_per_s, item_tail_ms", "fabric-explore"],
        "lp.route.solves": ["items_per_s", "latency-sweep (small; unchanged by objective-only LP work)"],
        "lp.route.ms_per_solve": ["items_per_s", "latency-sweep (small)"],
        "lp.route.fallbacks": ["items_per_s", "latency-sweep (small)"],
        "lp.route.paths_per_commodity": ["items_per_s", "latency-sweep (small)"],
    },
    "sim": {
        "sim.new_ms": ["sim_cycles_per_s, items_per_s", "latency-sweep"],
        "sim.run_ms": ["sim_cycles_per_s, items_per_s", "latency-sweep"],
        "sim.cycles": ["sim_cycles_per_s, items_per_s", "latency-sweep"],
        "sim.packets": ["sim_cycles_per_s, items_per_s", "latency-sweep"],
        "sim.executed_frac.loaded": ["sim_cycles_per_s", "latency-sweep"],
        "sim.executed_frac.light": ["sim_cycles_per_s", "latency-sweep"],
        "sim.ns_per_cycle.loaded": ["sim_cycles_per_s", "latency-sweep"],
        "sim.ns_per_cycle.light": ["sim_cycles_per_s", "latency-sweep"],
        "sim.ns_per_packet": ["sim_cycles_per_s", "latency-sweep"],
    },
    "trace": {"trace.overhead_frac": ["none", "keeps the traced numbers honest"]},
}


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{done.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    catalogue = bench["per_layer"] if args.trace else bench["end_to_end"]

    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            values = run_once(bench["command"], w, seed, bench["run_seconds"], args.trace)
            runs[w].append(values)
            shown = " ".join(f"{m['name']}={values[m['name']]:.6g}" for m in catalogue)
            print(f"  {w} seed {seed}: {shown}", file=sys.stderr, flush=True)

    figures = {}
    steady = True
    for w in workloads:
        print(f"\n{w} ({len(seeds)} seeds)")
        figures[w] = {}
        for metric in catalogue:
            name = metric["name"]
            s = summary([r[name] for r in runs[w]])
            figures[w][name] = s
            bound = metric.get("bound")
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = s["spread"] < bound / 3
                steady = steady and ok
                verdict = "ok" if ok else "WIDE"
            limit = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"  {name:34} median {s['median']:16.6f}  q1 {s['q1']:16.6f}  q3 {s['q3']:16.6f}"
                  f"  spread {s['spread']:7.4f}  bound {limit}  {verdict}")

    if args.write_baseline:
        path = os.path.join(ROOT, "perfbench", "baseline.json")
        if args.trace:
            # The traced figures join the end-to-end baseline written before.
            with open(path) as f:
                baseline = json.load(f)
            baseline.pop("claim", None)
            baseline["baseline_traced"] = figures
            baseline["claim"] = None
        else:
            baseline = {
                "git_rev": git_rev(),
                "nproc": len(os.sched_getaffinity(0)),
                "threads": len(os.sched_getaffinity(0)),
                "default_seed": DEFAULT_SEED,
                "seeds": seeds,
                "run_seconds": bench["run_seconds"],
                "layer_map": LAYER_MAP,
                "baseline": figures,
                "claim": None,
            }
        with open(path, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"\nwrote {path}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
