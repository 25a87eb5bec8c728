//! Pinned simulator fingerprints at seed 42.
//!
//! Paper-scale Terasort (20 reduces) under Baseline and SFM+ALG, failure-free
//! and with node 3 crashing when reducer 0 reaches 50 % progress. The
//! expected values are the ones the benchmark records for the same calls
//! (`perfbench/src/sim_paper.rs`). Comparing two runs in one process cannot
//! see the event order drift between builds; comparing with recorded values
//! can. A change that moves any of them changes the simulator's behaviour
//! and must update both places on purpose.

use alm_mapreduce::prelude::*;
use alm_mapreduce::types::units::GB;

/// `(input GB, mode, crash node 3?, job_secs, failures, map attempts,
/// reduce attempts, events)`.
type Fingerprint = (u64, RecoveryMode, bool, f64, usize, u32, u32, u64);

#[rustfmt::skip]
const PINNED: [Fingerprint; 5] = [
    (100, RecoveryMode::Baseline, false, 171.152230602, 0, 800, 20, 12716),
    (100, RecoveryMode::Baseline, true, 250.32058445, 2, 840, 22, 16208),
    (100, RecoveryMode::SfmAlg, false, 132.900092147, 0, 800, 20, 12655),
    (100, RecoveryMode::SfmAlg, true, 197.556539304, 1, 840, 21, 12859),
    (320, RecoveryMode::SfmAlg, true, 461.181973754, 1, 2688, 21, 41021),
];

#[test]
fn paper_scale_runs_match_recorded_fingerprints() {
    for (gb, mode, crash, job_secs, failures, maps, reduces, events) in PINNED {
        let spec = SimJobSpec::new(WorkloadKind::Terasort, gb * GB, 20, 42);
        let faults = if crash {
            vec![SimFault::CrashNodeAtReduceProgress { node: 3, reduce_index: 0, at_progress: 0.5 }]
        } else {
            vec![]
        };
        let r = Simulation::new(spec, ExperimentEnv::paper(mode), faults).run();
        let got = (r.succeeded, r.job_secs, r.failures.len(), r.map_attempts, r.reduce_attempts, r.events);
        assert_eq!(got, (true, job_secs, failures, maps, reduces, events), "{gb} GB {mode:?} crash={crash}");
    }
}
