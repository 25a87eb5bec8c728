//! What one pass of a workload reports back to the measuring loop.

use std::collections::BTreeMap;

use crate::trace::Tracer;

/// One closed-loop pass: set-up, then the workload's calls one at a time.
#[derive(Default)]
pub struct Pass {
    /// Host seconds spent building what the pass needs (inputs, engines).
    pub setup_s: f64,
    /// Host seconds spent in the program during the pass. Set-up and the
    /// benchmark's own output checks are excluded.
    pub wall_s: f64,
    /// Host milliseconds of each call, in call order.
    pub call_ms: Vec<f64>,
    /// Work items processed: discrete-event simulation events on the
    /// simulator workloads, records sorted on the real runtime.
    pub events: u64,
    /// Job input bytes processed: simulated bytes on the simulator
    /// workloads, real bytes on the runtime.
    pub input_bytes: u64,
    /// Calls that failed or gave a wrong output, refused calls included.
    pub failed: u64,
    /// Calls not made because the program is known not to survive them.
    pub refused: u64,
    /// Exact per-layer work counts observed in the pass.
    pub counts: BTreeMap<String, f64>,
}

impl Pass {
    pub fn attempted(&self) -> u64 {
        self.call_ms.len() as u64 + self.refused
    }

    pub fn count(&mut self, name: &str, n: impl Into<f64>) {
        *self.counts.entry(name.to_owned()).or_insert(0.0) += n.into();
    }

    /// Record a failed check: one failed call, with its reason on stderr.
    pub fn fail(&mut self, workload: &str, why: impl std::fmt::Display) {
        eprintln!("{workload}: check failed: {why}");
        self.failed += 1;
    }

    /// Record a call that was attempted but not made; it counts as failed.
    pub fn refuse(&mut self, workload: &str, why: impl std::fmt::Display) {
        eprintln!("{workload}: not run: {why}");
        self.refused += 1;
        self.failed += 1;
    }
}

/// A benchmark workload: each call to `pass` sets up and runs one pass,
/// checking its outputs.
pub trait Workload {
    fn name(&self) -> &'static str;
    fn pass(&mut self, tr: &mut Tracer) -> Pass;
}

/// Set-up is repeated while it stays this cheap, so that a set-up of a
/// few hundred microseconds is measured more than once per pass.
const SETUP_REPEAT_BUDGET_S: f64 = 0.02;
const SETUP_REPEATS: usize = 15;

/// Build a pass's inputs, timed. Untraced, a cheap build is repeated (up
/// to [`SETUP_REPEATS`] times within [`SETUP_REPEAT_BUDGET_S`]), each copy
/// dropped before the next is built; the last copy is kept and the median
/// build time returned. Traced, it is built once so spans count one build.
pub fn set_up<T>(tr: &mut Tracer, mut build: impl FnMut(&mut Tracer) -> T) -> (T, f64) {
    let (mut built, first) = timed(|| build(tr));
    let mut secs = vec![first];
    while !tr.is_on() && secs.len() < SETUP_REPEATS && secs.iter().sum::<f64>() < SETUP_REPEAT_BUDGET_S {
        drop(built);
        let (again, s) = timed(|| build(tr));
        built = again;
        secs.push(s);
    }
    (built, crate::stats::median(&secs))
}

/// Time `f` in host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
