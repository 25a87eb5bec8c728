//! `sim-paper`: the paper-scale simulator on its own.
//!
//! Sixteen `Simulation::run` calls per pass: Terasort at 100 GB and 320 GB
//! with 20 reduces, under each of the four recovery modes, once
//! failure-free and once with node 3 crashing when reducer 0 reaches 50 %
//! of its reduce phase.

use alm_sim::{ExperimentEnv, SimFault, SimJobSpec, SimReport, Simulation};
use alm_types::units::GB;
use alm_types::RecoveryMode;
use alm_workloads::WorkloadKind;

use crate::pass::{set_up, timed, Pass, Workload};
use crate::trace::Tracer;
use crate::GOLDEN_SEED;

pub const MODES: [(RecoveryMode, &str); 4] = [
    (RecoveryMode::Baseline, "baseline"),
    (RecoveryMode::Alg, "alg"),
    (RecoveryMode::Sfm, "sfm"),
    (RecoveryMode::SfmAlg, "sfm_alg"),
];
const SIZES_GB: [u64; 2] = [100, 320];

/// Each call's report at [`GOLDEN_SEED`], as [`fingerprint`] renders it.
#[rustfmt::skip]
const GOLDEN: [&str; 16] = [
    "sim.run_ms.100.baseline.free ok=true job_secs=171.152230602 failures=0 maps=800 reduces=20 events=12716",
    "sim.run_ms.100.baseline.crash ok=true job_secs=250.32058445 failures=2 maps=840 reduces=22 events=16208",
    "sim.run_ms.100.alg.free ok=true job_secs=132.900092147 failures=0 maps=800 reduces=20 events=12655",
    "sim.run_ms.100.alg.crash ok=true job_secs=249.217989752 failures=2 maps=840 reduces=22 events=14649",
    "sim.run_ms.100.sfm.free ok=true job_secs=171.152230602 failures=0 maps=800 reduces=20 events=12716",
    "sim.run_ms.100.sfm.crash ok=true job_secs=197.556539304 failures=1 maps=840 reduces=21 events=12880",
    "sim.run_ms.100.sfm_alg.free ok=true job_secs=132.900092147 failures=0 maps=800 reduces=20 events=12655",
    "sim.run_ms.100.sfm_alg.crash ok=true job_secs=197.556539304 failures=1 maps=840 reduces=21 events=12859",
    "sim.run_ms.320.baseline.free ok=true job_secs=537.093911454 failures=0 maps=2560 reduces=20 events=40802",
    "sim.run_ms.320.baseline.crash ok=true job_secs=627.751052362 failures=3 maps=2688 reduces=23 events=55885",
    "sim.run_ms.320.alg.free ok=true job_secs=422.503156929 failures=0 maps=2560 reduces=20 events=40665",
    "sim.run_ms.320.alg.crash ok=true job_secs=549.830503021 failures=2 maps=2688 reduces=22 events=46629",
    "sim.run_ms.320.sfm.free ok=true job_secs=537.093911454 failures=0 maps=2560 reduces=20 events=40802",
    "sim.run_ms.320.sfm.crash ok=true job_secs=547.721020702 failures=1 maps=2688 reduces=21 events=41128",
    "sim.run_ms.320.sfm_alg.free ok=true job_secs=422.503156929 failures=0 maps=2560 reduces=20 events=40665",
    "sim.run_ms.320.sfm_alg.crash ok=true job_secs=461.181973754 failures=1 maps=2688 reduces=21 events=41021",
];

struct Call {
    /// Span and metric name: `sim.run_ms.<gb>.<mode>.<free|crash>`.
    name: String,
    spec: SimJobSpec,
    env: ExperimentEnv,
    faults: Vec<SimFault>,
}

pub struct SimPaper {
    calls: Vec<Call>,
    golden: bool,
    first: Option<Vec<String>>,
}

impl SimPaper {
    pub fn new(seed: u64) -> SimPaper {
        let mut calls = Vec::new();
        for gb in SIZES_GB {
            for (mode, mode_name) in MODES {
                for (kind, faults) in [
                    ("free", vec![]),
                    (
                        "crash",
                        vec![SimFault::CrashNodeAtReduceProgress {
                            node: 3,
                            reduce_index: 0,
                            at_progress: 0.5,
                        }],
                    ),
                ] {
                    calls.push(Call {
                        name: format!("sim.run_ms.{gb}.{mode_name}.{kind}"),
                        spec: SimJobSpec::new(WorkloadKind::Terasort, gb * GB, 20, seed),
                        env: ExperimentEnv::paper(mode),
                        faults,
                    });
                }
            }
        }
        SimPaper { calls, golden: seed == GOLDEN_SEED, first: None }
    }
}

/// The parts of a report the checks compare: success, job time, failures,
/// attempts and events.
pub fn fingerprint(name: &str, r: &SimReport) -> String {
    format!(
        "{name} ok={} job_secs={:?} failures={} maps={} reduces={} events={}",
        r.succeeded,
        r.job_secs,
        r.failures.len(),
        r.map_attempts,
        r.reduce_attempts,
        r.events
    )
}

/// Add one simulator report's work counts to the pass.
pub fn count_report(pass: &mut Pass, r: &SimReport) {
    pass.count("sim.alg_snapshots", r.alg_snapshots as f64);
    pass.count("sim.failures", r.failures.len() as f64);
    pass.count("sim.map_attempts", r.map_attempts);
    pass.count("sim.reduce_attempts", r.reduce_attempts);
    pass.count("sim.fcm_attempts", r.fcm_attempts);
    pass.count("sim.uplink_bytes", r.uplink_bytes as f64);
    pass.count("sim.corruption_refetches", r.corruption_refetches);
}

impl Workload for SimPaper {
    fn name(&self) -> &'static str {
        "sim-paper"
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let (sims, setup_s) = set_up(tr, |tr| {
            self.calls
                .iter()
                .map(|c| {
                    tr.span("sim.new_ms", |_| {
                        Simulation::new(c.spec.clone(), c.env.clone(), c.faults.clone())
                    })
                })
                .collect::<Vec<_>>()
        });
        pass.setup_s = setup_s;
        let mut prints = Vec::with_capacity(self.calls.len());
        for (c, sim) in self.calls.iter().zip(sims) {
            let (r, secs) = timed(|| tr.span(&c.name, |_| sim.run()));
            pass.wall_s += secs;
            pass.call_ms.push(secs * 1e3);
            pass.events += r.events;
            pass.input_bytes += c.spec.input_bytes;
            count_report(&mut pass, &r);
            prints.push(fingerprint(&c.name, &r));
        }
        pass.count("sim.events", pass.events as f64);
        for (i, (c, got)) in self.calls.iter().zip(&prints).enumerate() {
            if !got.contains(" ok=true ") {
                pass.fail(self.name(), format!("{} did not succeed", c.name));
            } else if self.first.as_ref().is_some_and(|first| first[i] != *got) {
                pass.fail(self.name(), format!("report changed between passes: {got}"));
            } else if self.golden && GOLDEN[i] != got {
                pass.fail(
                    self.name(),
                    format!("report differs from seed {GOLDEN_SEED}: {got} != {}", GOLDEN[i]),
                );
            }
        }
        self.first.get_or_insert(prints);
        pass
    }
}
