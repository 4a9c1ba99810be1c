//! End-to-end and per-layer benchmark of the Orion reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload colloc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one simulation thread. The run sets the workload up three
//! times (the median is `setup_s`), then runs whole rounds of the
//! workload's operations until `--seconds` have passed. Every round runs
//! the same operations on the same inputs, so its simulated outputs must
//! repeat exactly; host time is drift-corrected (see [`clock`]). With
//! `--trace 1` every other round records spans, and the run reports the
//! per-layer metrics instead of the end-to-end ones. The last line of
//! standard output is one JSON object; a readable table goes to stderr.

mod cells;
mod clock;
mod fleet;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use clock::Meter;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untraced rounds a run makes at the least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;

/// End-to-end metrics: (name, unit). Every workload reports all of them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("sim_s_per_host_s", "s/s"),
    ("peak_rss_mib", "MiB"),
    ("hp_slowdown_p50", "x"),
    ("hp_slowdown_p99", "x"),
    ("be_tput", "1/s"),
];

/// Per-layer metrics: (name, unit). A layer a workload does not reach
/// reads 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("workloads.build_s", "s"),
    ("workloads.kernels_built", "count"),
    ("workloads.fleet_trace_s", "s"),
    ("workloads.llm_step_build_us", "us"),
    ("serving.step_build_est_s", "s"),
    ("profiler.profile_s", "s"),
    ("profiler.kernels_profiled", "count"),
    ("world.dedicated_s", "s"),
    ("world.dedicated_runs", "count"),
    ("world.cell_s", "s"),
    ("world.cell_s.temporal", "s"),
    ("world.cell_s.streams", "s"),
    ("world.cell_s.stream_priority", "s"),
    ("world.cell_s.mps", "s"),
    ("world.cell_s.reef", "s"),
    ("world.cell_s.ticktock", "s"),
    ("world.cell_s.orion", "s"),
    ("world.hp_requests", "count"),
    ("world.be_iters", "count"),
    ("world.hp_p99_ms", "ms"),
    ("validate.overhead_s", "s"),
    ("validate.rounds", "count"),
    ("validate.ops_tracked", "count"),
    ("validate.violations", "count"),
    ("supervisor.device_faults", "count"),
    ("supervisor.resubmitted_ops", "count"),
    ("supervisor.retries", "count"),
    ("supervisor.shed_requests", "count"),
    ("online.admissions", "count"),
    ("online.demotions", "count"),
    ("online.clean_samples", "count"),
    ("online.latency_estimates", "count"),
    ("cluster.control_s", "s"),
    ("cluster.episode_s", "s"),
    ("cluster.episodes", "count"),
    ("cluster.migrations", "count"),
    ("cluster.never_placed", "count"),
    ("cluster.jobs_served", "count"),
    ("cluster.hp_p99_ms", "ms"),
    ("serving.run_s", "s"),
    ("serving.decode_steps", "count"),
    ("serving.prefill_steps", "count"),
    ("serving.completed", "count"),
    ("serving.mean_batch", "count"),
    ("serving.joins_mid", "count"),
    ("serving.evictions", "count"),
    ("serving.deferred_kv", "count"),
    ("serving.deferred_slo", "count"),
    ("serving.kv_peak_mib", "MiB"),
    ("serving.ttft_p50_ms", "ms"),
    ("serving.ttft_p95_ms", "ms"),
    ("serving.tpot_p50_ms", "ms"),
    ("serving.tpot_p99_ms", "ms"),
    ("bench.raw_host_s", "s"),
    ("bench.reference_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "%"),
    ("trace.spans", "count"),
];

/// The simulated outputs and accounting of one round.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Round {
    /// Named simulated outputs; deterministic, so every round repeats them.
    pub values: Vec<(&'static str, f64)>,
    /// Simulated device-seconds the round covered.
    pub sim_seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl Round {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }
}

enum Bench {
    Colloc(cells::Grid),
    Checked(cells::Grid),
    Fleet(fleet::Fleet),
    Serving(serving::Serving),
}

impl Bench {
    fn setup(workload: &str, seed: u64) -> Bench {
        match workload {
            "colloc" => Bench::Colloc(cells::setup_colloc(seed)),
            "checked" => Bench::Checked(cells::setup_checked(seed)),
            "fleet" => Bench::Fleet(fleet::setup(seed)),
            "serving" => Bench::Serving(serving::setup(seed)),
            _ => unreachable!("workload names are checked when parsed"),
        }
    }

    fn round(&self, meter: &mut Meter) -> Round {
        match self {
            Bench::Colloc(g) | Bench::Checked(g) => g.round(meter),
            Bench::Fleet(f) => f.round(meter),
            Bench::Serving(s) => s.round(meter),
        }
    }

    /// Layer measurements made only in the traced run.
    fn extras(&self, round: &Round) -> Vec<(&'static str, f64)> {
        match self {
            Bench::Colloc(g) | Bench::Checked(g) => {
                vec![("validate.overhead_s", g.validate_overhead())]
            }
            Bench::Fleet(_) => vec![],
            Bench::Serving(s) => {
                let us = s.step_build_us();
                let steps: f64 = round
                    .values
                    .iter()
                    .filter(|(n, _)| *n == "serving.decode_steps" || *n == "serving.prefill_steps")
                    .map(|(_, v)| v)
                    .sum();
                vec![
                    ("workloads.llm_step_build_us", us),
                    ("serving.step_build_est_s", us * steps * 1e-6),
                ]
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["colloc", "fleet", "serving", "checked"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}: colloc, fleet, serving or checked"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host seconds of a round at the reference speed: each operation's median
/// over the rounds, summed, so one disturbed operation does not move it.
fn host_seconds(rounds: &[Vec<f64>]) -> f64 {
    let n = rounds[0].len();
    (0..n)
        .map(|i| stats::median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .sum()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <colloc|fleet|serving|checked> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let mut errors: Vec<String> = Vec::new();
    trace::set_recording(args.trace);
    let mut meter = Meter::new();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take()); // free the previous set-up before building the next
        bench = Some(trace::span("setup", || {
            meter.time(|| Bench::setup(&args.workload, args.seed))
        }));
        setups.push(meter.take()[0].1);
    }
    let bench = bench.expect("at least one set-up ran");

    // Untraced and traced rounds alternate in the traced run, so the
    // tracing overhead is measured under the same host conditions.
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<Vec<f64>>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
    let mut raw_round = Vec::new();
    let mut first: Option<Round> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let record = args.trace && plain.len() > traced.len();
        trace::set_recording(record);
        let round = trace::span("round", || bench.round(&mut meter));
        trace::set_recording(args.trace);
        let times = meter.take();
        if record {
            traced.push(times.iter().map(|t| t.1).collect());
        } else {
            raw_round.push(times.iter().map(|t| t.0).sum::<f64>());
            plain.push(times.iter().map(|t| t.1).collect());
        }
        attempted += round.attempted;
        failed += round.failed;
        errors.extend(round.errors.iter().cloned());
        match &first {
            None => first = Some(round),
            Some(f) if *f == round => {}
            Some(_) => errors.push(format!(
                "round {} differs from round 0",
                plain.len() + traced.len() - 1
            )),
        }
        let enough = plain.len() >= MIN_ROUNDS && (!args.trace || !traced.is_empty());
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let first = first.expect("at least one round ran");
    if plain
        .iter()
        .chain(&traced)
        .any(|r| r.len() != plain[0].len())
    {
        errors.push("rounds timed different numbers of operations".into());
    }
    let host_s = host_seconds(&plain);

    let mut metrics: BTreeMap<&'static str, f64> = first.values.iter().copied().collect();
    metrics.insert("setup_s", stats::median(&setups));
    metrics.insert("host_s", host_s);
    metrics.insert("sim_s_per_host_s", first.sim_seconds / host_s);
    let table: &[(&str, &str)] = if args.trace {
        trace::set_recording(true);
        let extras = trace::span("extras", || bench.extras(&first));
        metrics.extend(extras);
        let spans = trace::spans();
        let per_setup = |name| trace::total(&spans, "setup", name) / SETUPS as f64;
        let per_round = |name| trace::total(&spans, "round", name) / traced.len() as f64;
        metrics.insert("workloads.build_s", per_setup("workloads.build"));
        metrics.insert(
            "workloads.fleet_trace_s",
            per_setup("workloads.fleet_trace"),
        );
        metrics.insert("profiler.profile_s", per_setup("profiler.profile"));
        metrics.insert("world.dedicated_s", per_setup("world.dedicated"));
        let mut cell_total = 0.0;
        for (span, metric) in cells::CELL_SPANS {
            let t = per_round(span);
            cell_total += t;
            metrics.insert(metric, t);
        }
        metrics.insert("world.cell_s", cell_total);
        metrics.insert("cluster.control_s", per_round("cluster.control"));
        metrics.insert("cluster.episode_s", per_round("cluster.episode"));
        metrics.insert("serving.run_s", per_round("serving.run"));
        metrics.insert("bench.raw_host_s", stats::median(&raw_round));
        metrics.insert(
            "bench.reference_ms",
            1e3 * meter.ref_total / meter.ref_runs as f64,
        );
        metrics.insert("trace.overhead_s", host_seconds(&traced) - host_s);
        metrics.insert("trace.coverage", 100.0 * trace::coverage(&spans));
        metrics.insert("trace.spans", spans.len() as f64);
        let dir = std::path::Path::new(".bench_build/e2ebench-spans");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans)))
        {
            eprintln!("e2ebench: could not write {}: {e}", path.display());
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    metrics.insert("peak_rss_mib", peak_rss_mib());

    for e in &errors {
        eprintln!("e2ebench: check failed: {e}");
    }
    let mut json = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        // Adding +0 turns the -0 of an empty sum into 0.
        let value = metrics.get(name).copied().unwrap_or(0.0) + 0.0;
        if !value.is_finite() {
            errors.push(format!("{name} is not a finite number"));
        }
        eprintln!("{:>30} {:>16.6} {unit}", name, value);
        json.push_str(&format!(
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    eprintln!(
        "{:>30} {} rounds ({} traced), {attempted} operations, {failed} failed",
        "rounds",
        plain.len() + traced.len(),
        traced.len()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        errors.is_empty()
    );
    ExitCode::SUCCESS
}
