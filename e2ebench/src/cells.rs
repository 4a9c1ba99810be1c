//! The collocation workloads, `colloc` and `checked`: grids of single-GPU
//! collocation cells, each one high-priority (HP) inference client against
//! one best-effort (BE) trainer.
//!
//! Set-up builds the workloads, profiles each one offline and runs every
//! model alone on a dedicated GPU (the paper's "Ideal"). A round then runs
//! every cell with the pre-built profiles, so the timed phase is the
//! collocation event loop, the policy and the engine alone.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use orion_core::prelude::*;
use orion_core::world::run_dedicated;
use orion_desim::rng::{cell_seed, DetRng};
use orion_desim::time::SimTime;
use orion_profiler::{profile_workload, ProfileTable};
use orion_workloads::{
    inference_workload, training_workload, ArrivalProcess, ModelKind, PaperRates, ALL_MODELS,
};

use crate::clock::Meter;
use crate::{stats, trace, Round};

/// Seed stream of the dedicated reference runs, disjoint from the cells'.
const DEDICATED_STREAM: u64 = 1 << 32;

/// A grid's shape: which clients meet under which policies, and how.
struct GridSpec {
    hp: Vec<(ModelKind, f64)>,
    be: Vec<ModelKind>,
    policies: Vec<PolicyKind>,
    /// Cells per (HP, policy, BE) triple, each with its own arrival seed.
    seeds: usize,
    rc: RunConfig,
}

/// The Figure 7 inf-train grid under Orion: every HP model at its Table 3
/// Poisson rate against every BE trainer, 12 s horizon, oracle off.
fn colloc_spec() -> GridSpec {
    GridSpec {
        hp: ALL_MODELS
            .iter()
            .map(|&m| (m, PaperRates::inf_train_poisson(m)))
            .collect(),
        be: ALL_MODELS.to_vec(),
        policies: vec![PolicyKind::orion_default()],
        seeds: 1,
        rc: RunConfig::paper_default(),
    }
}

/// ResNet-50 inference (Poisson, 30 rps) with MobileNetV2 training under
/// all seven policies, with the strict oracle and a fixed fault plan of
/// sticky kernel faults and copy failures (Temporal excepted, see
/// [`Grid::cells`]). How much work a fault leaves
/// behind depends on where it lands, so each policy runs four short cells
/// with their own seeds rather than one long one.
fn checked_spec() -> GridSpec {
    let mut rc = RunConfig::paper_default()
        .with_validate(ValidateMode::Strict)
        .with_faults(FaultConfig::none().with_rates(FaultRates {
            kernel_fault: 2e-4,
            copy_fail: 2e-3,
            ..FaultRates::default()
        }));
    rc.horizon = SimTime::from_millis(2500);
    rc.warmup = SimTime::from_millis(500);
    GridSpec {
        hp: vec![(ModelKind::ResNet50, 30.0)],
        be: vec![ModelKind::MobileNetV2],
        policies: vec![
            PolicyKind::Temporal,
            PolicyKind::Streams,
            PolicyKind::StreamPriority,
            PolicyKind::Mps,
            PolicyKind::reef_default(),
            PolicyKind::TickTock,
            PolicyKind::orion_default(),
        ],
        seeds: 4,
        rc,
    }
}

/// One model, built and profiled, with its dedicated-GPU reference.
struct Client {
    spec: ClientSpec,
    table: ProfileTable,
    /// HP: median request latency alone (s). BE: iterations/s alone.
    dedicated: f64,
    /// Sum of the model's solo kernel durations: no request can be faster.
    solo: SimTime,
}

/// A set-up grid, ready to run rounds.
pub struct Grid {
    spec: GridSpec,
    seed: u64,
    hp: Vec<Client>,
    be: Vec<Client>,
    kernels_built: u64,
    kernels_profiled: u64,
    dedicated_runs: u64,
}

pub fn setup_colloc(seed: u64) -> Grid {
    Grid::setup(colloc_spec(), seed)
}

pub fn setup_checked(seed: u64) -> Grid {
    Grid::setup(checked_spec(), seed)
}

/// Trace span of one cell under `policy`, so time splits by policy.
fn cell_span(policy: &PolicyKind) -> &'static str {
    let i = match policy {
        PolicyKind::Temporal => 0,
        PolicyKind::Streams => 1,
        PolicyKind::StreamPriority => 2,
        PolicyKind::Mps => 3,
        PolicyKind::ReefN { .. } => 4,
        PolicyKind::TickTock => 5,
        PolicyKind::Orion(_) => 6,
    };
    CELL_SPANS[i].0
}

/// Every per-policy cell span with the per-layer metric of its time.
pub const CELL_SPANS: [(&str, &str); 7] = [
    ("world.cell.temporal", "world.cell_s.temporal"),
    ("world.cell.streams", "world.cell_s.streams"),
    ("world.cell.stream_priority", "world.cell_s.stream_priority"),
    ("world.cell.mps", "world.cell_s.mps"),
    ("world.cell.reef", "world.cell_s.reef"),
    ("world.cell.ticktock", "world.cell_s.ticktock"),
    ("world.cell.orion", "world.cell_s.orion"),
];

impl Grid {
    fn setup(spec: GridSpec, seed: u64) -> Grid {
        let (hp_specs, be_specs) = trace::span("workloads.build", || {
            let hp: Vec<ClientSpec> = spec
                .hp
                .iter()
                .map(|&(m, rps)| {
                    ClientSpec::high_priority(
                        inference_workload(m),
                        ArrivalProcess::Poisson { rps },
                    )
                })
                .collect();
            let be: Vec<ClientSpec> = spec
                .be
                .iter()
                .map(|&m| ClientSpec::best_effort(training_workload(m), ArrivalProcess::ClosedLoop))
                .collect();
            (hp, be)
        });
        let all = || hp_specs.iter().chain(&be_specs);
        let kernels_built = all().map(|c| c.workload.kernel_count() as u64).sum();
        let tables: Vec<ProfileTable> = trace::span("profiler.profile", || {
            all()
                .map(|c| {
                    profile_workload(&c.workload, &spec.rc.spec)
                        .expect("a single model fits on the device")
                        .table()
                })
                .collect()
        });
        let kernels_profiled = tables.iter().map(|t| t.len() as u64).sum();
        // Ideal references, without the oracle or faults: they are the
        // yardstick, not the system under test.
        let mut ded_rc = spec.rc.clone();
        ded_rc.validate = ValidateMode::Off;
        ded_rc.faults = FaultConfig::none();
        let dedicated: Vec<f64> = trace::span("world.dedicated", || {
            all()
                .enumerate()
                .map(|(i, c)| {
                    let rc = ded_rc
                        .clone()
                        .with_seed(cell_seed(seed, DEDICATED_STREAM + i as u64));
                    let r =
                        run_dedicated(c.clone(), &rc).expect("a single model fits on the device");
                    let alone = &r.clients[0];
                    match c.priority {
                        ClientPriority::HighPriority => {
                            let lat: Vec<f64> = alone
                                .latency
                                .samples()
                                .iter()
                                .map(|s| s.as_secs_f64())
                                .collect();
                            stats::median(&lat)
                        }
                        ClientPriority::BestEffort => alone.throughput,
                    }
                })
                .collect()
        });
        let mut clients = all()
            .zip(tables)
            .zip(dedicated)
            .map(|((c, table), dedicated)| Client {
                solo: c.workload.solo_kernel_time(),
                spec: c.clone(),
                table,
                dedicated,
            })
            .collect::<Vec<_>>();
        let be = clients.split_off(hp_specs.len());
        Grid {
            dedicated_runs: (clients.len() + be.len()) as u64,
            spec,
            seed,
            hp: clients,
            be,
            kernels_built,
            kernels_profiled,
        }
    }

    fn cells(&self) -> impl Iterator<Item = (usize, &PolicyKind, usize, RunConfig)> + '_ {
        let (nb, ns) = (self.be.len(), self.spec.seeds);
        (0..self.hp.len()).flat_map(move |hi| {
            self.spec.policies.iter().flat_map(move |p| {
                (0..nb * ns).map(move |j| {
                    // Seed-paired: every policy sees the same arrivals.
                    let seed = cell_seed(self.seed, (hi * nb * ns + j) as u64);
                    let mut rc = self.spec.rc.clone().with_seed(seed);
                    // Under the fault plan, Temporal breaks the oracle's
                    // `exclusive-owner` invariant on some seeds (a BE copy
                    // in flight while an HP request owns the device), so
                    // it runs under the oracle without faults.
                    if matches!(p, PolicyKind::Temporal) {
                        rc.faults = FaultConfig::none();
                    }
                    (hi, p, j / ns, rc)
                })
            })
        })
    }

    fn run_cell(
        &self,
        hi: usize,
        policy: &PolicyKind,
        bi: usize,
        rc: &RunConfig,
    ) -> Result<RunResult, String> {
        let (hp, be) = (&self.hp[hi], &self.be[bi]);
        let clients = vec![hp.spec.clone(), be.spec.clone()];
        let profiles = vec![Some(hp.table.clone()), Some(be.table.clone())];
        let policy = policy.clone();
        // The strict oracle panics on its first violation: that fails the
        // cell, not the run. The panic is caught inside the span, so the
        // span still closes.
        let res = trace::span(cell_span(&policy), move || {
            panic::catch_unwind(AssertUnwindSafe(move || {
                run_collocation_with_profiles(policy, clients, profiles, rc)
            }))
        });
        match res {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(p) => Err(p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into())),
        }
    }

    pub fn round(&self, meter: &mut Meter) -> Round {
        let mut out = Round::default();
        let mut slowdowns = Vec::new();
        let mut hp_lat_ms = Vec::new();
        let (mut be_iters, mut be_window) = (0u64, 0.0);
        let (mut hp_requests, mut v_rounds, mut v_ops, mut v_violations) = (0u64, 0u64, 0u64, 0u64);
        let mut robust = RobustnessReport::default();
        for (hi, policy, bi, rc) in self.cells() {
            out.attempted += 1;
            out.sim_seconds += rc.horizon.as_secs_f64();
            let res = meter.time(|| self.run_cell(hi, policy, bi, &rc));
            let r = match res {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("e2ebench: cell failed: {e}");
                    continue;
                }
            };
            trace::span("bench.check", || {
                if let Some(v) = &r.validation {
                    v_rounds += v.rounds;
                    v_ops += v.ops_tracked;
                    v_violations += v.violations.len() as u64;
                }
                robust.merge(&r.robustness);
                if let Err(e) = self.check_cell(hi, bi, &rc, &r) {
                    out.errors.push(e);
                }
                let hp = r.hp();
                let ded = self.hp[hi].dedicated;
                hp_requests += hp.completed;
                for s in hp.latency.samples() {
                    slowdowns.push(s.as_secs_f64() / ded);
                    hp_lat_ms.push(s.as_millis_f64());
                }
                for c in r
                    .clients
                    .iter()
                    .filter(|c| c.priority == ClientPriority::BestEffort)
                {
                    be_iters += c.completed;
                }
                be_window += r.window.as_secs_f64();
            });
        }
        if !slowdowns.is_empty() {
            out.push("hp_slowdown_p50", stats::percentile(&slowdowns, 0.50));
            out.push("hp_slowdown_p99", stats::percentile(&slowdowns, 0.99));
            out.push("world.hp_p99_ms", stats::percentile(&hp_lat_ms, 0.99));
            out.push("be_tput", be_iters as f64 / be_window);
        }
        out.push("world.hp_requests", hp_requests as f64);
        out.push("world.be_iters", be_iters as f64);
        out.push("validate.rounds", v_rounds as f64);
        out.push("validate.ops_tracked", v_ops as f64);
        out.push("validate.violations", v_violations as f64);
        out.push("supervisor.device_faults", robust.device_faults as f64);
        out.push("supervisor.resubmitted_ops", robust.resubmitted_ops as f64);
        out.push("supervisor.retries", robust.retries as f64);
        out.push("supervisor.shed_requests", robust.shed_requests as f64);
        out.push("workloads.kernels_built", self.kernels_built as f64);
        out.push("profiler.kernels_profiled", self.kernels_profiled as f64);
        out.push("world.dedicated_runs", self.dedicated_runs as f64);
        out
    }

    /// Output checks that use only the inputs and the model definitions,
    /// never the program's own accounting.
    fn check_cell(
        &self,
        hi: usize,
        bi: usize,
        rc: &RunConfig,
        r: &RunResult,
    ) -> Result<(), String> {
        let hp = r.hp();
        let solo = self.hp[hi].solo;
        if let Some(s) = hp.latency.samples().iter().find(|&&s| s < solo) {
            return Err(format!(
                "HP latency {s:?} below the solo kernel time {solo:?}"
            ));
        }
        // The world draws client 0's arrivals from the first fork of the
        // cell seed; regenerate them the same way.
        let arrivals = self.spec.hp[hi].1;
        let arrived = ArrivalProcess::Poisson { rps: arrivals }
            .schedule(rc.horizon, &mut DetRng::new(rc.seed).fork(1))
            .len() as u64;
        if hp.completed > arrived || hp.latency.len() as u64 != hp.completed {
            return Err(format!(
                "HP completed {} ({} latencies) of {arrived} arrivals",
                hp.completed,
                hp.latency.len()
            ));
        }
        // Completions are counted whole in the window, so allow one
        // iteration of quantisation over the dedicated rate.
        let window = r.window.as_secs_f64();
        let be_tput = r.be_throughput();
        let bound = self.be[bi].dedicated + 1.0 / window;
        if be_tput > bound {
            return Err(format!(
                "BE {be_tput} it/s above its dedicated {bound} it/s"
            ));
        }
        match &r.validation {
            None if rc.validate.enabled() => Err("oracle enabled but no report".into()),
            Some(v) if !v.is_clean() => Err(format!("{} oracle violations", v.violations.len())),
            _ => Ok(()),
        }
    }

    /// Traced-run extra: the oracle's cost, as the same cells run with the
    /// oracle off subtracted from the strict run. Zero when the grid runs
    /// without the oracle.
    pub fn validate_overhead(&self) -> f64 {
        if !self.spec.rc.validate.enabled() {
            return 0.0;
        }
        let (mut on, mut off) = (0.0, 0.0);
        for (hi, policy, bi, rc) in self.cells() {
            let t0 = Instant::now();
            let _ = self.run_cell(hi, policy, bi, &rc);
            on += t0.elapsed().as_secs_f64();
            let rc = rc.with_validate(ValidateMode::Off);
            let t0 = Instant::now();
            let _ = trace::span("world.cell_unchecked", || {
                self.run_cell(hi, policy, bi, &rc)
            });
            off += t0.elapsed().as_secs_f64();
        }
        on - off
    }
}
