//! The per-crate traced run (`--trace 1`).
//!
//! Every layer probe runs under one in-memory span recorder: the
//! `sim-paper`, `sim-campaign`, `runtime-terasort` and `warehouse` passes,
//! the warehouse scaling probe (64 jobs per tenant) and the data-plane
//! [`replay`](crate::replay). Spans wrap the benchmark's calls into each
//! crate, and each layer's time is the self time of its spans. The probes
//! run [`REPS`] times and each metric is the median over the repetitions;
//! counts are exact and repeat. The named workload's tracing overhead is
//! its traced minus its untraced pass time, from alternating passes. At
//! another seed than [`GOLDEN_SEED`](crate::GOLDEN_SEED) the run ends with
//! the recorded-value checks of both simulator workloads.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::pass::{Pass, Workload};
use crate::sim_paper::{SimPaper, MODES};
use crate::trace::Tracer;
use crate::warehouse::WarehouseRun;
use crate::{campaign, make, replay, stats, terasort, Outcome, MIN_PASSES};

const REPS: usize = 3;

/// Every per-layer metric other than the sixteen `sim.run_ms.*` ones.
const LAYER_METRICS: [(&str, &str); 51] = [
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.new_ms", "ms"),
    ("sim.alg_tick_ms_320", "ms"),
    ("sim.alg_snapshots", "count"),
    ("sim.failures", "count"),
    ("sim.map_attempts", "count"),
    ("sim.reduce_attempts", "count"),
    ("sim.fcm_attempts", "count"),
    ("sim.uplink_bytes", "bytes"),
    ("sim.corruption_refetches", "count"),
    ("chaos.sample_ms", "ms"),
    ("chaos.lower_ms", "ms"),
    ("chaos.sim_new_ms", "ms"),
    ("chaos.sim_ms", "ms"),
    ("chaos.analyze_ms", "ms"),
    ("chaos.triage_ms", "ms"),
    ("chaos.canonical_ms", "ms"),
    ("sched.new_ms", "ms"),
    ("sched.run_ms", "ms"),
    ("sched.events", "count"),
    ("sched.ns_per_event", "ns"),
    ("sched.ns_per_event_quarter", "ns"),
    ("runtime.cluster_new_ms", "ms"),
    ("runtime.job_ms.free", "ms"),
    ("runtime.job_ms.kill", "ms"),
    ("runtime.map_attempts", "count"),
    ("runtime.reduce_attempts", "count"),
    ("runtime.fcm_attempts", "count"),
    ("runtime.output_records", "count"),
    ("runtime.failures", "count"),
    ("shuffle.spill_ms", "ms"),
    ("shuffle.spills", "count"),
    ("shuffle.mof_bytes", "bytes"),
    ("shuffle.merge_ms", "ms"),
    ("shuffle.merge_segments", "count"),
    ("shuffle.frame_ms", "ms"),
    ("dfs.write_ms", "ms"),
    ("dfs.read_ms", "ms"),
    ("dfs.bytes_written", "bytes"),
    ("dfs.repair_ms", "ms"),
    ("dfs.repair_bytes", "bytes"),
    ("core.alg.log_ms", "ms"),
    ("core.alg.records", "count"),
    ("core.alg.bytes", "bytes"),
    ("core.alg.flush_bytes", "bytes"),
    ("core.alg.recover_ms", "ms"),
    ("core.fcm.merge_ms", "ms"),
    ("core.fcm.single_ms", "ms"),
    ("core.fcm.vs_single", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Every per-layer metric with its unit, in print order: the fixed list,
/// then one `sim.run_ms.<gb>.<mode>.<free|crash>` per `sim-paper` call.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &str)> = LAYER_METRICS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for gb in [100, 320] {
        for (_, mode) in MODES {
            for kind in ["free", "crash"] {
                all.push((format!("sim.run_ms.{gb}.{mode}.{kind}"), "ms"));
            }
        }
    }
    all
}

/// One repetition of every probe under a fresh recorder: its passes and
/// its metric values by name.
fn probe(
    seed: u64,
    spans_out: Option<&std::path::Path>,
) -> Result<(Vec<Pass>, BTreeMap<String, f64>), String> {
    let mut tr = Tracer::on();
    let mut passes = vec![
        SimPaper::new(seed).pass(&mut tr),
        campaign::Campaign::new(seed)?.pass(&mut tr),
        terasort::RuntimeTerasort::new(seed).pass(&mut tr),
        WarehouseRun::new(seed).pass(&mut tr),
        WarehouseRun::quarter(seed).pass(&mut tr),
    ];
    passes.push(replay::replay(seed, &mut tr));
    let mut m = tr.self_ms();
    for p in &passes {
        for (name, n) in &p.counts {
            *m.entry(name.clone()).or_insert(0.0) += n;
        }
    }
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let sim_run_ms: f64 = m.iter().filter(|(k, _)| k.starts_with("sim.run_ms.")).map(|(_, v)| v).sum();
    let derived = [
        ("sim.ns_per_event", sim_run_ms * 1e6 / get(&m, "sim.events")),
        ("sim.alg_tick_ms_320", get(&m, "sim.run_ms.320.sfm_alg.free") - get(&m, "sim.run_ms.320.sfm.free")),
        ("sched.ns_per_event", get(&m, "sched.run_ms") * 1e6 / get(&m, "sched.events")),
        (
            "sched.ns_per_event_quarter",
            get(&m, "sched.quarter.run_ms") * 1e6 / get(&m, "sched.quarter.events"),
        ),
    ];
    for (name, v) in derived {
        m.insert(name.to_owned(), v);
    }
    if let Some(path) = spans_out {
        tr.write_tsv(path).map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok((passes, m))
}

/// Traced minus untraced pass time of `workload`, in ms, from alternating
/// passes over `seconds` (at least [`MIN_PASSES`] of each).
fn overhead_ms(workload: &str, seed: u64, seconds: f64, out: &mut Outcome) -> Result<f64, String> {
    let mut w = make(workload, seed)?;
    out.tally(&w.pass(&mut Tracer::off()));
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while off.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        for (traced, walls) in [(false, &mut off), (true, &mut on)] {
            let p = w.pass(&mut if traced { Tracer::on() } else { Tracer::off() });
            out.tally(&p);
            walls.push(p.wall_s);
        }
    }
    Ok((stats::median(&on) - stats::median(&off)) * 1e3)
}

pub fn traced(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let overhead = overhead_ms(workload, seed, seconds, &mut out)?;
    let spans = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/spans"))
        .join(format!("{workload}-seed{seed}.tsv"));
    let mut reps = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let (passes, m) = probe(seed, (rep + 1 == REPS).then_some(spans.as_path()))?;
        passes.iter().for_each(|p| out.tally(p));
        reps.push(m);
    }
    for (name, unit) in per_layer_metrics() {
        let value = if name == "trace.overhead_ms" {
            overhead
        } else {
            stats::median(&reps.iter().map(|m| m.get(&name).copied().unwrap_or(0.0)).collect::<Vec<_>>())
        };
        out.push(name, value, unit);
    }
    for w in ["sim-paper", "sim-campaign"] {
        crate::golden_check(w, seed, &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in super::per_layer_metrics() {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"better\"").count(), super::per_layer_metrics().len() + 7);
    }
}
