//! The `serving` workload: LLM continuous batching with a collocated
//! ResNet-50 trainer under serving's Orion phase gate, plus a cell whose
//! device leaves only a 1536-token KV budget, so the KV ledger's
//! allocate/grow/free cycle runs under pressure.
//!
//! Both kinds of cell run at rates where no request is dropped, and queued
//! requests wait instead of being shed. Set-up runs
//! the serving stream alone on a dedicated GPU, the reference for the HP
//! slowdown.

use std::time::Instant;

use orion_core::prelude::*;
use orion_core::serving::generate_requests;
use orion_desim::rng::cell_seed;
use orion_desim::time::SimTime;
use orion_workloads::models::llm::{
    kv_cache_bytes, llm_batched_decode_step, llm_prefill, llm_weight_bytes,
};
use orion_workloads::{training_workload, ArrivalProcess, ModelKind};

use crate::clock::Meter;
use crate::{stats, trace, Round};

/// Cells of each kind per round. Short cells let the drift correction
/// follow the host's speed within a round.
const CELLS: u64 = 12;
/// Simulated horizon of one cell.
const HORIZON_S: u64 = 75;
/// Request rate of the collocated cells.
const ORION_RPS: f64 = 0.7;
/// Request rate and context budget of the KV-constrained cells.
const KV_RPS: f64 = 0.7;
const KV_TOKENS: u32 = 1536;
/// Seed stream of the dedicated reference, disjoint from the cells'.
const DEDICATED_STREAM: u64 = 1 << 32;

pub struct Serving {
    cells: Vec<ServingConfig>,
    /// Median per-token decode time of the stream served alone, seconds.
    dedicated_tpot: f64,
}

fn base(seed: u64) -> ServingConfig {
    let mut sc = ServingConfig::paper_default();
    sc.seed = seed;
    sc.horizon = SimTime::from_secs(HORIZON_S);
    // Queued requests wait rather than being shed. With the default 2 s
    // limit a deferred or evicted request occasionally outwaits it even at
    // these rates (one cell in about 240), so `failed` would depend on the
    // seed.
    sc.admission.max_queue_wait = sc.horizon;
    sc
}

fn collocated(seed: u64) -> ServingConfig {
    let mut sc = base(seed)
        .with_policy(ServingPolicy::orion_default())
        .with_be(ClientSpec::best_effort(
            training_workload(ModelKind::ResNet50),
            ArrivalProcess::ClosedLoop,
        ));
    sc.rps = ORION_RPS;
    sc
}

fn constrained(seed: u64) -> ServingConfig {
    let mut sc = base(seed);
    sc.spec.memory_capacity = llm_weight_bytes() + kv_cache_bytes(KV_TOKENS);
    sc.rps = KV_RPS;
    sc
}

pub fn setup(seed: u64) -> Serving {
    let cells = trace::span("workloads.build", || {
        (0..CELLS)
            .flat_map(|k| {
                [
                    collocated(cell_seed(seed, 2 * k)),
                    constrained(cell_seed(seed, 2 * k + 1)),
                ]
            })
            .collect()
    });
    let dedicated_tpot = trace::span("world.dedicated", || {
        let mut alone = base(cell_seed(seed, DEDICATED_STREAM));
        alone.rps = ORION_RPS;
        let r = run_serving(&alone).expect("the serving stream fits alone");
        let tpot: Vec<f64> = r
            .per_token
            .samples()
            .iter()
            .map(|s| s.as_secs_f64())
            .collect();
        stats::median(&tpot)
    });
    Serving {
        cells,
        dedicated_tpot,
    }
}

/// Checks one cell against its regenerated request trace.
fn check(sc: &ServingConfig, r: &ServingReport) -> Result<(), String> {
    let requests = generate_requests(sc);
    if r.arrived != requests.len() as u64 {
        return Err(format!(
            "{} arrivals, the trace has {}",
            r.arrived,
            requests.len()
        ));
    }
    let ended = r.completed + r.shed_queue + r.shed_oversized + r.dropped_evicted;
    if ended > r.arrived {
        return Err(format!("{ended} requests ended of {} arrived", r.arrived));
    }
    // No request finishes sooner than alone: its solo prefill, then one
    // batch-1 decode step at the smallest context per further token. So
    // completions are at most the requests that could finish by the horizon
    // that way; the rest are in flight or were shed or dropped.
    let prefill: Vec<SimTime> = requests
        .iter()
        .map(|q| llm_prefill(q.prompt_tokens).solo_kernel_time())
        .collect();
    let step = llm_batched_decode_step(1, 1).solo_kernel_time();
    let finishable = requests
        .iter()
        .zip(&prefill)
        .filter(|(q, &p)| {
            q.arrival + p + step * u64::from(q.output_tokens.saturating_sub(1)) <= sc.horizon
        })
        .count() as u64;
    if r.completed > finishable {
        return Err(format!(
            "{} completed, only {finishable} could finish by the horizon",
            r.completed
        ));
    }
    // TTFT_i >= solo prefill_i for every request, so the k-th smallest
    // recorded TTFT is at least the k-th smallest solo prefill time.
    let mut solo = prefill;
    solo.sort();
    let mut ttft = r.ttft.samples().to_vec();
    ttft.sort();
    if let Some((t, s)) = ttft.iter().zip(&solo).find(|(t, s)| t < s) {
        return Err(format!("TTFT {t:?} below the solo prefill time {s:?}"));
    }
    if r.ledger_high_water > r.ledger_capacity {
        return Err(format!(
            "KV ledger high water {} above capacity {}",
            r.ledger_high_water, r.ledger_capacity
        ));
    }
    Ok(())
}

impl Serving {
    pub fn round(&self, meter: &mut Meter) -> Round {
        let mut out = Round::default();
        let (mut slowdowns, mut ttft_ms, mut tpot_ms) = (vec![], vec![], vec![]);
        let (mut be_iters, mut be_window) = (0u64, 0.0);
        let mut counts = [0u64; 7];
        let (mut batch_sum, mut kv_peak) = (0.0, 0u64);
        for sc in &self.cells {
            out.sim_seconds += sc.horizon.as_secs_f64();
            let res = meter.time(|| trace::span("serving.run", || run_serving(sc)));
            let r = match res {
                Ok(r) => r,
                Err(e) => {
                    let n = generate_requests(sc).len() as u64;
                    out.attempted += n;
                    out.failed += n;
                    eprintln!("e2ebench: serving cell failed: {e}");
                    continue;
                }
            };
            trace::span("bench.check", || {
                out.attempted += r.arrived;
                out.failed += r.shed_queue + r.shed_oversized + r.dropped_evicted;
                if let Err(e) = check(sc, &r) {
                    out.errors.push(e);
                }
                if sc.be.is_some() {
                    for s in r.per_token.samples() {
                        slowdowns.push(s.as_secs_f64() / self.dedicated_tpot);
                    }
                    be_iters += r.be_completed;
                    be_window += r.window.as_secs_f64();
                }
                ttft_ms.extend(r.ttft.samples().iter().map(|s| s.as_millis_f64()));
                tpot_ms.extend(r.per_token.samples().iter().map(|s| s.as_millis_f64()));
                for (c, v) in counts.iter_mut().zip([
                    r.decode_steps,
                    r.prefill_steps,
                    r.joins_mid,
                    r.evictions,
                    r.deferred_kv,
                    r.deferred_slo,
                    r.completed,
                ]) {
                    *c += v;
                }
                batch_sum += r.mean_batch * r.decode_steps as f64;
                kv_peak = kv_peak.max(r.kv_peak_bytes);
            });
        }
        if !slowdowns.is_empty() {
            out.push("hp_slowdown_p50", stats::percentile(&slowdowns, 0.50));
            out.push("hp_slowdown_p99", stats::percentile(&slowdowns, 0.99));
            out.push("be_tput", be_iters as f64 / be_window);
        }
        if !ttft_ms.is_empty() {
            out.push("serving.ttft_p50_ms", stats::percentile(&ttft_ms, 0.50));
            out.push("serving.ttft_p95_ms", stats::percentile(&ttft_ms, 0.95));
            out.push("serving.tpot_p50_ms", stats::percentile(&tpot_ms, 0.50));
            out.push("serving.tpot_p99_ms", stats::percentile(&tpot_ms, 0.99));
        }
        let names = [
            "serving.decode_steps",
            "serving.prefill_steps",
            "serving.joins_mid",
            "serving.evictions",
            "serving.deferred_kv",
            "serving.deferred_slo",
            "serving.completed",
        ];
        for (name, c) in names.into_iter().zip(counts) {
            out.push(name, c as f64);
        }
        out.push("serving.mean_batch", batch_sum / counts[0].max(1) as f64);
        out.push("serving.kv_peak_mib", kv_peak as f64 / (1 << 20) as f64);
        out.push("world.be_iters", be_iters as f64);
        out.push("world.dedicated_runs", 1.0);
        out
    }

    /// Traced-run extra: microseconds to build one step workload, timed on
    /// direct calls with the shapes the serving loop builds.
    pub fn step_build_us(&self) -> f64 {
        const CALLS: u32 = 400;
        let t0 = Instant::now();
        let kernels: usize = trace::span("workloads.llm_step_build", || {
            (0..CALLS)
                .map(|i| {
                    let w = if i % 4 == 0 {
                        llm_prefill(64 + i % 257)
                    } else {
                        llm_batched_decode_step(1 + i % 8, 64 + i % 400)
                    };
                    std::hint::black_box(w).ops.len()
                })
                .sum()
        });
        std::hint::black_box(kernels);
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
    }
}
