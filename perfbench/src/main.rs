//! The ALM reproduction's benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-paper --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the named workload closed-loop for `--seconds` host
//! seconds and reports the end-to-end metrics; `--trace 1` makes the
//! per-crate traced run instead. Either way every output is checked, and
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod campaign;
mod layers;
mod pass;
mod replay;
mod sim_paper;
mod stats;
mod terasort;
mod trace;
mod warehouse;

use std::time::Instant;

use pass::{Pass, Workload};
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["sim-paper", "sim-campaign", "runtime-terasort", "warehouse"];

/// Passes measured at least, however long they take.
pub const MIN_PASSES: usize = 3;

/// The seed whose simulator outputs are recorded: `sim-paper`'s reports in
/// `src/sim_paper.rs` and the campaign gate's golden report. It is the
/// default `--seed`.
pub const GOLDEN_SEED: u64 = 42;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, GOLDEN_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

pub fn make(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "sim-paper" => Box::new(sim_paper::SimPaper::new(seed)),
        "sim-campaign" => Box::new(campaign::Campaign::new(seed)?),
        "runtime-terasort" => Box::new(terasort::RuntimeTerasort::new(seed)),
        "warehouse" => Box::new(warehouse::WarehouseRun::new(seed)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Outcome of a whole run, printed as the final JSON line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn tally(&mut self, pass: &Pass) {
        self.attempted += pass.attempted();
        self.failed += pass.failed;
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// One warm-up pass, then passes until `seconds` have gone by (and at
/// least [`MIN_PASSES`]). Returns the measured passes; every pass counts
/// toward `attempted` and `failed`.
fn measure(w: &mut dyn Workload, seconds: f64, out: &mut Outcome) -> Vec<Pass> {
    let mut tr = Tracer::off();
    out.tally(&w.pass(&mut tr));
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let p = w.pass(&mut tr);
        out.tally(&p);
        passes.push(p);
    }
    passes
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let mut w = make(&args.workload, args.seed)?;
    let mut out = Outcome::default();
    let passes = measure(w.as_mut(), args.seconds, &mut out);
    let per_pass = |f: &dyn Fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let calls: Vec<f64> = passes.iter().flat_map(|p| p.call_ms.iter().copied()).collect();
    let (tail_pct, tail_ms) = stats::tail(&calls);
    eprintln!(
        "{}: {} passes, {} calls; run_ms_tail is p{tail_pct:.1}",
        args.workload,
        passes.len(),
        calls.len()
    );
    out.push("setup_s", per_pass(&|p| p.setup_s), "s");
    out.push("wall_s", per_pass(&|p| p.wall_s), "s");
    out.push("events_per_s", per_pass(&|p| p.events as f64 / p.wall_s), "1/s");
    out.push("mib_per_s", per_pass(&|p| p.input_bytes as f64 / (1 << 20) as f64 / p.wall_s), "MiB/s");
    out.push("run_ms_p50", stats::median(&calls), "ms");
    out.push("run_ms_tail", tail_ms, "ms");
    out.push("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    golden_check(&args.workload, args.seed, &mut out)?;
    Ok(out)
}

/// On a simulator workload run at another seed than [`GOLDEN_SEED`], one
/// untimed pass at that seed, whose checks compare every output with the
/// recorded one. It runs after the measured passes and the memory reading,
/// so it moves no metric; its calls count toward `attempted` and `failed`.
pub fn golden_check(workload: &str, seed: u64, out: &mut Outcome) -> Result<(), String> {
    if seed != GOLDEN_SEED && matches!(workload, "sim-paper" | "sim-campaign") {
        out.tally(&make(workload, GOLDEN_SEED)?.pass(&mut Tracer::off()));
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result =
        if args.trace { layers::traced(&args.workload, args.seed, args.seconds) } else { end_to_end(&args) };
    match result {
        Ok(out) => {
            for (name, value, unit) in &out.metrics {
                eprintln!("  {name:<40} {value:>16.4} {unit}");
            }
            println!("{}", out.json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
