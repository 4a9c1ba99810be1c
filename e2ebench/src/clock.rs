//! Drift-corrected host time.
//!
//! Raw host time on a shared VM does not repeat: the same collocation cell
//! runs up to twice as slow for seconds at a time, and the thread's CPU
//! time tracks its wall time, so the slowdown is the CPU's, not a wait. The [`Meter`] therefore
//! times a fixed reference computation owned by the benchmark, interleaved
//! with the measured work, and divides each stretch of measured work by the
//! reference time around it. The result is scaled back to seconds at the
//! reference's nominal speed ([`REF_NOMINAL_S`]).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::trace;

/// Duration of one reference run at the nominal speed, seconds: the median
/// reference time on the host the benchmark was calibrated on (a 2-vCPU
/// Xeon VM at 2.1 GHz), so corrected times read close to raw seconds there.
pub const REF_NOMINAL_S: f64 = 0.004;

/// Raw measured seconds after which the next operation boundary closes a
/// segment and runs the reference again.
const SEGMENT_S: f64 = 0.1;

/// Iterations of the reference loop.
const REF_ITERS: u64 = 4000;

/// Boxed shapes the reference dispatches through a trait object.
trait Shape {
    fn area(&self) -> f64;
    fn grow(&mut self, k: f64);
}

struct Square(f64);
struct Circle(f64);
struct Triangle(f64, f64);

impl Shape for Square {
    fn area(&self) -> f64 {
        self.0 * self.0
    }
    fn grow(&mut self, k: f64) {
        self.0 += k;
    }
}

impl Shape for Circle {
    fn area(&self) -> f64 {
        std::f64::consts::PI * self.0 * self.0
    }
    fn grow(&mut self, k: f64) {
        self.0 *= 1.0 + k * 1e-3;
    }
}

impl Shape for Triangle {
    fn area(&self) -> f64 {
        0.5 * self.0 * self.1
    }
    fn grow(&mut self, k: f64) {
        self.1 += k;
        self.0 -= 0.5 * k;
    }
}

/// Runs the reference computation once and returns its raw duration.
///
/// The computation is a fixed mix of what a simulator spends its time on:
/// small allocations, string formatting and parsing, an ordered map with
/// string keys, dynamic dispatch through boxed trait objects and a sort.
/// A tight arithmetic loop or a table walk would not do: under host
/// contention the simulator slows 2-3 times as much as those do, while this
/// mix slows nearly as much as the simulator. It calls no code of the
/// program under test, so a change to the program cannot move it.
fn reference() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut names: BTreeMap<String, f64> = BTreeMap::new();
    let mut shapes: Vec<Box<dyn Shape>> = Vec::new();
    let mut acc = 0.0;
    for i in 0..REF_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("k{}-{:.3}", x % 5000, (x % 1000) as f64 / 7.0);
        let v: f64 = key
            .rsplit('-')
            .next()
            .and_then(|t| t.parse().ok())
            .unwrap_or(0.0);
        *names.entry(key).or_insert(0.0) += v;
        match x % 3 {
            0 => shapes.push(Box::new(Square(v))),
            1 => shapes.push(Box::new(Circle(v))),
            _ => shapes.push(Box::new(Triangle(v, 1.0))),
        }
        if shapes.len() > 256 {
            shapes.swap_remove((x % 256) as usize);
        }
        if i % 8 == 0 {
            for s in &mut shapes {
                s.grow(0.01);
                acc += s.area();
            }
        }
    }
    let mut keys: Vec<&String> = names.keys().collect();
    keys.sort_by(|a, b| b.len().cmp(&a.len()).then(a.cmp(b)));
    black_box((acc, keys.len()));
    t0.elapsed().as_secs_f64()
}

/// Times operations and corrects them for host-speed drift.
pub struct Meter {
    /// Duration of the reference run that opened the current segment.
    last_ref: f64,
    /// Raw durations of the operations in the open segment.
    pending: Vec<f64>,
    /// Raw and corrected durations of the closed operations, in order.
    corrected: Vec<(f64, f64)>,
    /// Seconds spent in reference runs so far.
    pub ref_total: f64,
    /// Reference runs so far.
    pub ref_runs: u64,
}

impl Meter {
    /// A meter whose first segment is opened by a fresh reference run.
    pub fn new() -> Meter {
        let mut m = Meter {
            last_ref: 0.0,
            pending: Vec::new(),
            corrected: Vec::new(),
            ref_total: 0.0,
            ref_runs: 0,
        };
        reference(); // warm the allocator and the code
        m.last_ref = m.run_reference();
        m
    }

    fn run_reference(&mut self) -> f64 {
        let r = trace::span("bench.reference", reference);
        self.ref_total += r;
        self.ref_runs += 1;
        r
    }

    /// Runs `f` as one timed operation.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.pending.push(dt);
        if self.pending.iter().sum::<f64>() >= SEGMENT_S {
            self.close_segment();
        }
        out
    }

    /// Closes the open segment: runs the reference and converts the
    /// segment's operations at the mean of the two reference times that
    /// bracket it.
    fn close_segment(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let r = self.run_reference();
        let factor = REF_NOMINAL_S / (0.5 * (self.last_ref + r));
        self.corrected
            .extend(self.pending.drain(..).map(|dt| (dt, dt * factor)));
        self.last_ref = r;
    }

    /// Closes the open segment and returns the raw and corrected durations
    /// of every operation timed since the last call, in order.
    pub fn take(&mut self) -> Vec<(f64, f64)> {
        self.close_segment();
        std::mem::take(&mut self.corrected)
    }
}
