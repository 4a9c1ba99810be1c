//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only while recording is on (in the `--trace 1` run);
//! with it off, [`span`] costs one thread-local check. They are kept in
//! memory and written out once, as a Chrome trace, when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span: name, start and end in seconds since the run began,
/// and the index of the span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off; spans already recorded are kept.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Runs `f` inside a span called `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let rec = &mut *r.borrow_mut();
        rec.on.then(|| {
            let idx = rec.spans.len();
            rec.spans.push(Span {
                name,
                start: rec.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: rec.open.last().copied(),
            });
            rec.open.push(idx);
            idx
        })
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let rec = &mut *r.borrow_mut();
            rec.spans[idx].end = rec.origin.elapsed().as_secs_f64();
            rec.open.pop();
        });
    }
    out
}

/// Every span recorded so far, in start order.
pub fn spans() -> Vec<Span> {
    REC.with(|r| r.borrow().spans.clone())
}

/// The root span each span descends from.
fn root(spans: &[Span], mut i: usize) -> usize {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    i
}

/// Total seconds of the spans called `name` that descend from a root span
/// called `under`.
pub fn total(spans: &[Span], under: &str, name: &str) -> f64 {
    spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| s.name == name && spans[root(spans, i)].name == under)
        .map(|(_, s)| s.end - s.start)
        .sum()
}

/// Share of the root spans' time (the phases: set-up, rounds, extras) that
/// their direct children cover, i.e. that is attributed to a named call.
/// Children of one parent do not overlap, so their durations add.
pub fn coverage(spans: &[Span]) -> f64 {
    let roots: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum();
    let direct: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].parent.is_none()))
        .map(|s| s.end - s.start)
        .sum();
    if roots > 0.0 {
        direct / roots
    } else {
        0.0
    }
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): complete
/// events with microsecond timestamps; each carries its parent's index.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}{}",
            s.name,
            s.start * 1e6,
            (s.end - s.start) * 1e6,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}
