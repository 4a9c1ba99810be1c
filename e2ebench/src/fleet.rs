//! The `fleet` workload: 128 GPUs, a 1000-job churn trace and six
//! one-second epochs in `orion-online+mig` mode (online profiling from a
//! cold start, learned re-placement, migration).
//!
//! Set-up synthesizes the trace and runs each distinct workload alone on a
//! dedicated GPU. A round drives the control plane (`FleetSim`) epoch by
//! epoch on this thread, timing every call into it and every episode.

use std::collections::{BTreeMap, BTreeSet};

use orion_core::cluster::{
    dedicated_ref_inputs, dedicated_refs_serial, DedicatedRef, FleetConfig, FleetSim, FleetTrace,
    FleetTraceConfig,
};
use orion_core::prelude::*;
use orion_core::world::run_dedicated;
use orion_desim::rng::cell_seed;
use orion_desim::time::SimTime;

use crate::clock::Meter;
use crate::{stats, trace, Round};

const GPUS: usize = 128;
const JOBS: usize = 1000;
const EPOCHS: usize = 6;
/// Seed stream of the benchmark's own dedicated runs, disjoint from the cells'.
const DEDICATED_STREAM: u64 = 1 << 32;

pub struct Fleet {
    trace: FleetTrace,
    cfg: FleetConfig,
    dedicated: BTreeMap<String, DedicatedRef>,
    /// Median HP request latency alone, seconds, by workload label.
    hp_median: BTreeMap<String, f64>,
}

fn config(seed: u64) -> FleetConfig {
    let mut fc = FleetConfig::new(GPUS, EPOCHS);
    fc.epoch = SimTime::from_secs(1);
    fc.policy = PolicyKind::orion_default();
    fc.rc.seed = seed;
    fc.online = true;
    fc.migration = true;
    fc
}

pub fn setup(seed: u64) -> Fleet {
    let cfg = config(seed);
    let trace = trace::span("workloads.fleet_trace", || {
        let mut tc = FleetTraceConfig::new(JOBS, cfg.horizon());
        tc.seed = seed;
        FleetTrace::synthesize(&tc)
    });
    let (dedicated, hp_median) = trace::span("world.dedicated", || {
        let dedicated = dedicated_refs_serial(&trace, &cfg)
            .unwrap_or_else(|e| panic!("dedicated references: {e}"));
        // The control plane's one-epoch reference sees only a few requests
        // of a slow model (none, on some seeds), too few for a median: the
        // slowdown's yardstick runs 12 s.
        let hp_median: BTreeMap<String, f64> = dedicated_ref_inputs(&trace, &cfg)
            .into_iter()
            .enumerate()
            .filter(|(_, (_, client, _))| client.priority == ClientPriority::HighPriority)
            .map(|(i, (label, client, _))| {
                let long = RunConfig::paper_default()
                    .with_seed(cell_seed(seed, DEDICATED_STREAM + i as u64));
                let r = run_dedicated(client, &long).expect("a single model fits on the device");
                let lat: Vec<f64> = r.clients[0]
                    .latency
                    .samples()
                    .iter()
                    .map(|s| s.as_secs_f64())
                    .collect();
                (label, stats::median(&lat))
            })
            .collect();
        (dedicated, hp_median)
    });
    Fleet {
        trace,
        cfg,
        dedicated,
        hp_median,
    }
}

/// Peak number of jobs alive at once, recomputed from the trace: a job is
/// alive on `[arrive, depart)`.
fn peak_alive(trace: &FleetTrace) -> usize {
    let mut edges: Vec<(SimTime, bool)> = Vec::new();
    for j in trace.jobs.iter().filter(|j| j.depart > j.arrive) {
        edges.push((j.arrive, true));
        edges.push((j.depart, false));
    }
    // At equal times a departure (false) sorts before an arrival (true).
    edges.sort();
    let (mut alive, mut peak) = (0usize, 0usize);
    for (_, arrive) in edges {
        if arrive {
            alive += 1;
            peak = peak.max(alive);
        } else {
            alive -= 1;
        }
    }
    peak
}

impl Fleet {
    pub fn round(&self, meter: &mut Meter) -> Round {
        let mut out = Round::default();
        let mut sim = meter
            .time(|| {
                trace::span("cluster.control", || {
                    FleetSim::new(self.trace.clone(), self.cfg.clone(), self.dedicated.clone())
                })
            })
            .expect("online mode profiles nothing up front");
        let mut placed = BTreeSet::new();
        let mut slowdowns = Vec::new();
        let mut be_iters = 0u64;
        let mut online = [0u64; 4];
        let mut episodes = 0u64;
        while let Some(specs) = meter.time(|| trace::span("cluster.control", || sim.next_epoch())) {
            let mut results = Vec::with_capacity(specs.len());
            for spec in specs {
                let res = meter.time(|| trace::span("cluster.episode", || spec.run()));
                episodes += 1;
                out.attempted += 1;
                out.sim_seconds += spec.rc.horizon.as_secs_f64();
                placed.extend(spec.jobs.iter().copied());
                match &res {
                    Ok(r) => {
                        for (c, job) in r.clients.iter().zip(&spec.clients) {
                            if job.priority == ClientPriority::HighPriority {
                                let ded = self.hp_median[&job.workload.label()];
                                slowdowns.extend(
                                    c.latency.samples().iter().map(|s| s.as_secs_f64() / ded),
                                );
                            } else {
                                be_iters += c.completed;
                            }
                        }
                        if let Some(o) = &r.online {
                            online[0] += o.admissions;
                            online[1] += o.demotions;
                            online[2] += o.clean_samples;
                            online[3] += o.latency_estimates;
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        eprintln!(
                            "e2ebench: episode gpu {} epoch {} failed: {e}",
                            spec.gpu, spec.epoch
                        );
                    }
                }
                results.push((spec, res));
            }
            meter.time(|| trace::span("cluster.control", || sim.absorb(results)));
        }
        let report = meter.time(|| trace::span("cluster.control", || sim.into_report()));

        trace::span("bench.check", || {
            let peak = peak_alive(&self.trace);
            if report.dedicated_gpus_needed != peak {
                out.errors.push(format!(
                    "dedicated_gpus_needed {} but {peak} jobs are alive at once",
                    report.dedicated_gpus_needed
                ));
            }
            if placed.len() + report.never_placed != self.trace.jobs.len() {
                out.errors.push(format!(
                    "{} jobs ran in an episode and {} were never placed, of {}",
                    placed.len(),
                    report.never_placed,
                    self.trace.jobs.len()
                ));
            }
            if report.episode_errors != out.failed {
                out.errors.push(format!(
                    "{} episode errors reported, {} episodes failed",
                    report.episode_errors, out.failed
                ));
            }
        });
        if slowdowns.is_empty() {
            out.errors.push("no HP request completed".into());
        } else {
            out.push("hp_slowdown_p50", stats::percentile(&slowdowns, 0.50));
            out.push("hp_slowdown_p99", stats::percentile(&slowdowns, 0.99));
        }
        out.push("cluster.hp_p99_ms", report.hp_p99.as_millis_f64());
        // Every episode measures the epoch minus its warmup.
        let window = (self.cfg.epoch - self.cfg.epoch / 5).as_secs_f64();
        out.push("be_tput", be_iters as f64 / (EPOCHS as f64 * window));
        out.push("cluster.episodes", episodes as f64);
        out.push("cluster.migrations", report.migrations as f64);
        out.push("cluster.never_placed", report.never_placed as f64);
        out.push("cluster.jobs_served", placed.len() as f64);
        out.push("online.admissions", online[0] as f64);
        out.push("online.demotions", online[1] as f64);
        out.push("online.clean_samples", online[2] as f64);
        out.push("online.latency_estimates", online[3] as f64);
        out.push("world.be_iters", be_iters as f64);
        out.push("world.hp_requests", slowdowns.len() as f64);
        out.push(
            "world.dedicated_runs",
            (self.dedicated.len() + self.hp_median.len()) as f64,
        );
        out
    }
}
