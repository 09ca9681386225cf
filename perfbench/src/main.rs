//! `perfbench`: the NMAP suite's benchmark (see `README.md`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's batch from the seed, repeats it in rounds of
//! one `pool_map` call each until `--seconds` have passed, checks every
//! output, and prints a table followed by one JSON result line. With
//! `--trace 1` untraced and traced rounds alternate and the result line
//! carries the per-layer metrics; the spans of the last traced round are
//! written to `.bench_out/`.

mod check;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use noc_dse::StageCache;

use crate::report::{Quality, Timing};
use crate::run::{Output, Round};
use crate::workloads::{Inputs, Item};

const USAGE: &str = "usage: perfbench --workload <fabric-explore|mapper-scaling|latency-sweep> \
--seed <n> --seconds <s> --trace <0|1>";

/// Measured rounds a run makes at least, however short `--seconds` is:
/// untraced rounds, or untraced+traced pairs with `--trace 1`.
const MIN_ROUNDS: usize = 3;
const MIN_TRACED_PAIRS: usize = 2;
/// No round starts after this much measuring, whatever the minimum.
const HARD_STOP: Duration = Duration::from_secs(100);
/// Each batch of set-up repetitions runs at least this often, then until
/// [`SETUP_BATCH`] has passed; one batch runs before every round.
const SETUP_MIN_REPS: usize = 5;
const SETUP_BATCH: Duration = Duration::from_millis(250);
/// Failure and mismatch messages printed before going quiet.
const MAX_MESSAGES: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One batch of set-ups: generates the inputs and creates a stage cache,
/// repeatedly, and appends the batch's best repetition time in seconds to
/// `times` (the best for the reason `report::item_latencies` gives);
/// returns the last inputs.
fn setup(workload: &str, seed: u64, times: &mut Vec<f64>) -> Result<Inputs, String> {
    let start = Instant::now();
    let mut reps = 0;
    let mut best = f64::INFINITY;
    loop {
        let t = Instant::now();
        let inputs = workloads::generate(workload, seed)?;
        std::hint::black_box(StageCache::in_memory());
        best = best.min(t.elapsed().as_secs_f64());
        reps += 1;
        if reps >= SETUP_MIN_REPS && start.elapsed() >= SETUP_BATCH {
            times.push(best);
            return Ok(inputs);
        }
    }
}

/// Correctness bookkeeping across rounds: failures, the traced/untraced
/// differential and the repeat-determinism of work counts.
struct Ledger {
    /// Each item's first output, wall-clock fields cleared.
    reference: Vec<Option<Output>>,
    /// The first traced round's work counts.
    work: Option<BTreeMap<&'static str, u64>>,
    /// The first round's cache tallies.
    cache: Option<noc_dse::CacheStats>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    messages: usize,
}

impl Ledger {
    fn new(items: usize) -> Self {
        Self {
            reference: vec![None; items],
            work: None,
            cache: None,
            attempted: 0,
            failed: 0,
            mismatches: 0,
            messages: 0,
        }
    }

    fn say(&mut self, message: String) {
        self.messages += 1;
        if self.messages <= MAX_MESSAGES {
            eprintln!("perfbench: {message}");
        }
    }

    fn record(&mut self, inputs: &Inputs, round: &Round, kind: &str) {
        for (i, (item, run)) in inputs.items.iter().zip(&round.items).enumerate() {
            self.attempted += 1;
            let problem = match &run.output {
                Err(e) => Some(e.clone()),
                Ok(output) => {
                    let untimed = output.untimed();
                    match &self.reference[i] {
                        None => {
                            self.reference[i] = Some(untimed);
                            None
                        }
                        Some(first) if *first != untimed => {
                            Some("output differs from the item's first run".to_string())
                        }
                        Some(_) => None,
                    }
                }
            };
            if let Some(problem) = problem.or_else(|| round.check_failures[i].clone()) {
                self.failed += 1;
                self.say(format!("{kind} item {i} ({}): {problem}", label(item)));
            }
        }
        match self.cache {
            None => self.cache = Some(round.cache),
            Some(first) if first != round.cache => {
                self.mismatches += 1;
                self.say(format!("{kind} cache tallies {:?} differ from {first:?}", round.cache));
            }
            Some(_) => {}
        }
        if kind == "traced" {
            let work = report::work(round);
            match &self.work {
                None => self.work = Some(work),
                Some(first) if *first != work => {
                    self.mismatches += 1;
                    self.say(format!("traced work counts {work:?} differ from {first:?}"));
                }
                Some(_) => {}
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }
}

fn label(item: &Item) -> String {
    match item {
        Item::Candidate(c) => c.label.clone(),
        Item::Scenario(s) => format!(
            "{} {} {} {} @{}",
            s.label,
            s.topology.name(),
            s.mapper.name(),
            s.routing.name(),
            s.capacity
        ),
    }
}

/// Peak resident memory of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn bench(args: &Args) -> Result<bool, String> {
    let mut setup_times = Vec::new();
    let inputs = setup(&args.workload, args.seed, &mut setup_times)?;
    let mut ledger = Ledger::new(inputs.items.len());
    let mut timings = Vec::new();
    let mut layer_rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last_spans = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let min_rounds = if args.trace { MIN_TRACED_PAIRS } else { MIN_ROUNDS };
    let start = Instant::now();
    let mut last_start = start;
    loop {
        setup(&args.workload, args.seed, &mut setup_times)?;
        let plain = run::round(&inputs, args.threads, false);
        ledger.record(&inputs, &plain, "untraced");
        timings.push(Timing::of(&inputs, &plain));
        if args.trace {
            let traced = run::round(&inputs, args.threads, true);
            ledger.record(&inputs, &traced, "traced");
            layer_rounds.push(report::layers(&inputs, &traced, args.threads));
            traced_walls.push(traced.wall.as_secs_f64());
            last_spans = traced.items.into_iter().flat_map(|r| r.spans).collect();
        }
        // Stop when one more iteration would end further past the budget
        // than stopping now falls short of it.
        let elapsed = start.elapsed();
        let expected_end = elapsed + last_start.elapsed() / 2;
        last_start = Instant::now();
        if (timings.len() >= min_rounds && expected_end >= budget) || elapsed >= HARD_STOP {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    let setup_s = stats::median(&setup_times);

    let median_of =
        |f: &dyn Fn(&Timing) -> f64| stats::median(&timings.iter().map(f).collect::<Vec<_>>());
    let quality = Quality::of(&inputs, &ledger.reference);
    let latencies = report::item_latencies(&timings);
    let tail = stats::tail(&latencies)
        .ok_or_else(|| format!("{} items are too few for a tail", latencies.len()))?;
    let e2e = BTreeMap::from([
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("comm_cost_mean", quality.comm_cost_mean),
        ("feasible_frac", quality.feasible_frac),
        ("link_load_mean_mbps", quality.link_load_mean_mbps),
    ]);
    let timing = [
        ("items_per_s", report::best_items_per_s(&timings), "items/s"),
        ("item_p50_ms", stats::median(&latencies), "ms"),
        ("item_tail_ms", tail.value, "ms"),
    ];
    let sim_cycles_per_s = median_of(&|t| t.sim_cycles_per_s);
    let simulates =
        inputs.items.iter().any(|i| matches!(i, Item::Scenario(s) if s.simulate.is_some()));

    println!(
        "perfbench {} seed {}: {} items, threads = nproc = {}, {} rounds{} in {measured_s:.1} s",
        args.workload,
        args.seed,
        inputs.items.len(),
        args.threads,
        timings.len(),
        if args.trace { " untraced + as many traced" } else { "" },
    );
    println!("end-to-end (untraced):");
    for m in metrics::END_TO_END {
        let note = match m.name {
            "setup_s" => format!("median of {} set-up batches' best", setup_times.len()),
            _ => String::new(),
        };
        println!("{}", report::line(m.name, e2e[m.name], m.unit, &note));
    }
    let failure_rate = stats::ratio(ledger.failed as f64, ledger.attempted as f64);
    let note = format!("{} of {} item runs", ledger.failed, ledger.attempted);
    println!("{}", report::line("failure_rate", failure_rate, "fraction", &note));
    println!("timing (untraced; these go in the JSON line of the traced run):");
    for (name, value, unit) in timing {
        let note = match name {
            "item_tail_ms" => format!(
                "p{:.1} of {} item bests, {} beyond",
                tail.percentile,
                tail.samples,
                stats::TAIL_BEYOND
            ),
            _ => String::new(),
        };
        println!("{}", report::line(name, value, unit, &note));
    }
    if simulates {
        let latency = quality.sim_latency_mean_cycles;
        println!("{}", report::line("sim_latency_mean_cycles", latency, "cycles", ""));
        println!("{}", report::line("sim_cycles_per_s", sim_cycles_per_s, "cycles/s", ""));
    }

    let (catalogue, values) = if args.trace {
        let mut values = BTreeMap::new();
        for m in metrics::PER_LAYER {
            let per_round: Vec<f64> =
                layer_rounds.iter().filter_map(|r| r.get(m.name).copied()).collect();
            values.insert(m.name, stats::median(&per_round));
        }
        let untraced_wall = median_of(&|t| t.wall_s);
        values.insert("trace.overhead_frac", stats::median(&traced_walls) / untraced_wall - 1.0);
        values.insert("sim_latency_mean_cycles", quality.sim_latency_mean_cycles);
        values.insert("sim_cycles_per_s", sim_cycles_per_s);
        values.extend(timing.map(|(name, value, _)| (name, value)));
        println!("per-layer (traced; span times are self time per round):");
        for m in metrics::PER_LAYER {
            println!("{}", report::line(m.name, values[m.name], m.unit, ""));
        }
        write_spans(args, &last_spans);
        (&metrics::PER_LAYER[..], values)
    } else {
        (&metrics::END_TO_END[..], e2e)
    };
    let correct = ledger.correct();
    println!("{}", report::json_line(correct, ledger.attempted, ledger.failed, catalogue, &values));
    Ok(correct)
}

/// Writes the last traced round's spans as JSON lines under `.bench_out/`.
fn write_spans(args: &Args, spans: &[trace::Span]) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::spans_jsonl(spans)));
    match written {
        Ok(()) => println!("spans: {} ({} spans)", path.display(), spans.len()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = parse(&[
            "--workload",
            "latency-sweep",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("latency-sweep", 7, 10.0, true)
        );
        assert!(a.threads >= 1);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        assert!(parse(&["--workload", "x", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(
            parse(&["--workload", "x", "--seed", "-1", "--seconds", "1", "--trace", "0"]).is_err()
        );
        assert!(
            parse(&["--workload", "x", "--seed", "1", "--seconds", "0", "--trace", "0"]).is_err()
        );
        assert!(
            parse(&["--workload", "x", "--seed", "1", "--seconds", "1", "--trace", "2"]).is_err()
        );
        assert!(parse(&["--bogus", "1"]).is_err());
    }
}
