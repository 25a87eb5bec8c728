//! Warehouse-scheduler perf baseline: wall-clock per simulated job.
//!
//! Runs the fixed-seed 1000-node / 3-tenant / 24-job fair-policy campaign
//! (with a mid-campaign rack crash so the recovery paths are on the
//! measured path), once as warmup and then in [`MEASURED_SAMPLES`] timed
//! samples. One run takes about a millisecond, too short to time alone, so
//! each sample repeats the campaign back to back until at least
//! [`MIN_WINDOW_MS`] have passed. The binary reports the **median** sample
//! of:
//!
//! * `wall_clock_per_simulated_job_us` — the headline metric: host
//!   microseconds spent per simulated job;
//! * `events_per_sec` — DES kernel throughput over the same runs.
//!
//! ```sh
//! cargo run --release -p alm-bench --bin bench_sched            # gate
//! cargo run --release -p alm-bench --bin bench_sched -- --bless # re-baseline
//! ```
//!
//! The gate compares against the committed `BENCH_sched.json` at the repo
//! root and fails (exit 1) when the per-job wall clock regresses by more
//! than [`REGRESSION_PCT`]%. Faster-than-baseline runs pass but print a
//! hint to re-bless so the bar ratchets down. The simulated results
//! themselves are covered by the determinism tests and the golden gate —
//! this binary only guards the kernel's speed.

use alm_chaos::{CampaignReport, WarehouseChaosCampaign};
use alm_sched::{SchedPolicyKind, WarehouseCampaign, WarehouseFault};
use alm_types::RecoveryMode;

const SEED: u64 = 42;
const NODES: u32 = 1000;
const TENANTS: u32 = 3;
const JOBS_PER_TENANT: u32 = 8;
const MEASURED_SAMPLES: usize = 3;
const MIN_WINDOW_MS: u64 = 100;
const REGRESSION_PCT: f64 = 25.0;

fn baseline_path() -> std::path::PathBuf {
    // crates/bench -> repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sched.json")
}

fn campaign() -> WarehouseCampaign {
    WarehouseCampaign::synthetic(
        NODES,
        TENANTS,
        JOBS_PER_TENANT,
        SchedPolicyKind::Fair,
        RecoveryMode::SfmAlg,
        SEED,
    )
    .with_fault(WarehouseFault::CrashRack { rack: 3, at_secs: 120.0 })
}

/// One run of the campaign: its simulated event count.
fn run_once(c: &WarehouseCampaign) -> u64 {
    let report = c.run().expect("bench campaign must run");
    assert!(report.succeeded(), "bench campaign must finish all jobs");
    report.events
}

/// One timed sample: back-to-back runs until [`MIN_WINDOW_MS`] have
/// passed. Returns host microseconds per run.
fn timed_sample(c: &WarehouseCampaign, events: u64) -> f64 {
    let start = std::time::Instant::now(); // alm-lint: allow(wall-clock) — perf harness measures host time by design
    let mut runs = 0u32;
    while runs == 0 || start.elapsed().as_millis() < MIN_WINDOW_MS as u128 {
        assert_eq!(run_once(c), events, "bench campaign must be deterministic");
        runs += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / runs as f64
}

struct Measurement {
    wall_clock_per_simulated_job_us: u64,
    events_per_sec: u64,
    events: u64,
    jobs: u64,
}

fn measure() -> Measurement {
    let c = campaign();
    let jobs = c.jobs.len() as u64;
    let events = run_once(&c); // warmup: page in code, warm the allocator
    let mut us_per_run: Vec<f64> = (0..MEASURED_SAMPLES).map(|_| timed_sample(&c, events)).collect();
    us_per_run.sort_unstable_by(f64::total_cmp);
    let med_us = us_per_run[us_per_run.len() / 2];
    Measurement {
        wall_clock_per_simulated_job_us: ((med_us / jobs as f64) as u64).max(1),
        events_per_sec: (events as f64 * 1e6 / med_us) as u64,
        events,
        jobs,
    }
}

fn render(m: &Measurement) -> String {
    use serde_json::Value;
    let root = Value::Object(vec![
        ("bench".to_string(), Value::Str("bench_sched".to_string())),
        ("seed".to_string(), Value::U64(SEED)),
        ("nodes".to_string(), Value::U64(NODES as u64)),
        ("tenants".to_string(), Value::U64(TENANTS as u64)),
        ("jobs".to_string(), Value::U64(m.jobs)),
        ("events".to_string(), Value::U64(m.events)),
        ("measured_samples".to_string(), Value::U64(MEASURED_SAMPLES as u64)),
        ("min_window_ms".to_string(), Value::U64(MIN_WINDOW_MS)),
        ("wall_clock_per_simulated_job_us".to_string(), Value::U64(m.wall_clock_per_simulated_job_us)),
        ("events_per_sec".to_string(), Value::U64(m.events_per_sec)),
    ]);
    let mut s = serde_json::to_string_pretty(&root).expect("bench json");
    s.push('\n');
    s
}

/// Extract `"key": <u64>` from the committed baseline without needing the
/// full report type — the file is flat by construction.
fn field_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let digits: String = line.chars().filter(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn main() {
    let bless = std::env::args().any(|a| a == "--bless");
    // Keep the sanity path warm: the same campaign also renders through the
    // chaos report (exercises per-tenant rows end to end at bench scale).
    let mut sanity = CampaignReport::new("bench-sched-sanity", SEED);
    let chaos = WarehouseChaosCampaign {
        nodes: 100,
        tenants: TENANTS,
        jobs_per_tenant: 2,
        policy: SchedPolicyKind::Fair,
        modes: vec![RecoveryMode::SfmAlg],
        seed: SEED,
    };
    let scenario = alm_chaos::ChaosScenario::new("bench-rack")
        .with(alm_chaos::ChaosFault::CrashRack { rack: 1, at_secs: 60.0 });
    let (_, rows) = chaos.run_scenario(&scenario, RecoveryMode::SfmAlg).expect("sanity campaign");
    sanity.extend_tenants(rows);
    assert!(sanity.tenant_table().is_some(), "tenant rows must render");

    let m = measure();
    let actual = render(&m);
    let path = baseline_path();

    if bless {
        std::fs::write(&path, &actual).expect("write bench baseline");
        println!("bench_sched: blessed {} ({} us/job)", path.display(), m.wall_clock_per_simulated_job_us);
        return;
    }

    print!("{actual}");
    let baseline = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "bench_sched: cannot read baseline {} ({e}); run with --bless to create it",
                path.display()
            );
            std::process::exit(2);
        }
    };
    let base_us = field_u64(&baseline, "wall_clock_per_simulated_job_us")
        .expect("baseline has wall_clock_per_simulated_job_us");
    let limit = base_us as f64 * (1.0 + REGRESSION_PCT / 100.0);
    if (m.wall_clock_per_simulated_job_us as f64) > limit {
        eprintln!(
            "bench_sched: REGRESSION — {} us/job vs baseline {} us/job (limit {:.0}); \
             investigate, or re-bless with rationale if the slowdown is intentional",
            m.wall_clock_per_simulated_job_us, base_us, limit
        );
        std::process::exit(1);
    }
    println!(
        "bench_sched: OK — {} us/job within {REGRESSION_PCT}% of baseline {} us/job{}",
        m.wall_clock_per_simulated_job_us,
        base_us,
        if (m.wall_clock_per_simulated_job_us as f64) < base_us as f64 * 0.75 {
            " (much faster: consider --bless to ratchet the bar down)"
        } else {
            ""
        }
    );
}
