//! In-memory span recorder for the traced run.
//!
//! A span is one layer's share of one cell: the layer name, the cell it
//! belongs to, its duration and the work counters it reported. The
//! benchmark's own calls (lock, resynthesis, lint, verification) are timed
//! around the call; the attack's internal layers come from the attack's own
//! per-step durations (`AttackRun::steps`), so every span is a self time
//! and no span contains another. Spans are appended to one global buffer
//! and analysed after the round; nothing is written while the workload
//! runs. With tracing off, [`record`] returns at once and the buffer stays
//! empty.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One layer's share of one cell.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the cell (the job) the span belongs to.
    pub cell: usize,
    /// Layer span name (`core.qbf`, `synth.verify`, ...).
    pub name: &'static str,
    /// Self time, in seconds.
    pub secs: f64,
    /// Work counters reported by the layer.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// The named counter, 0 when the layer did not report it.
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(key, _)| *key == name)
            .map(|(_, value)| value)
            .sum()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Switches recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Records a span of `secs` seconds for `cell`.
pub fn record(cell: usize, name: &'static str, secs: f64, counts: &[(&'static str, u64)]) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let span = Span {
        cell,
        name,
        secs,
        counts: counts.to_vec(),
    };
    SPANS.lock().expect("span buffer lock").push(span);
}

/// Runs `call` inside a span without counters.
pub fn timed<T>(cell: usize, name: &'static str, call: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let result = call();
    record(cell, name, start.elapsed().as_secs_f64(), &[]);
    result
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer lock"))
}

/// Summed duration of the named spans.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.secs)
        .sum()
}

/// Summed counter of the named spans.
pub fn total_count(spans: &[Span], name: &str, counter: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.count(counter))
        .sum()
}
