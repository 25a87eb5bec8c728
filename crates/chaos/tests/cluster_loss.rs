//! A scenario that crashes every worker must fail the job at once.
//!
//! Scenario 000 of `SimCampaign::golden_gate(62, 20)` crashes both racks of
//! the paper cluster, one after the other. Nothing can run afterwards and
//! no node is left to notice the losses, so the simulator must end the job
//! as failed at the instant the last worker dies, rather than keep its
//! sampling tick alive until the event cap.

use std::collections::BTreeSet;

use alm_chaos::SimCampaign;
use alm_sim::experiment::run_one;
use alm_sim::{ExperimentEnv, SimFault};
use alm_types::{AlmConfig, JobId};

#[test]
fn losing_every_worker_fails_the_job_at_once() {
    let (campaign, scenarios) = SimCampaign::golden_gate(62, 20);
    let scenario = &scenarios[0];
    assert!(scenario.name.contains("000"), "{}", scenario.name);
    let faults = SimFault::lower_plan(&scenario.lower(JobId(0), &campaign.profile()));
    let crashes: Vec<(u32, f64)> = faults
        .iter()
        .filter_map(|f| match f {
            SimFault::CrashNodeAtSecs { node, at_secs } => Some((*node, *at_secs)),
            _ => None,
        })
        .collect();
    let crashed: BTreeSet<u32> = crashes.iter().map(|(n, _)| *n).collect();
    assert_eq!(crashed.len() as u32, campaign.cluster.worker_nodes(), "the scenario must crash every worker");
    // Crash faults fire on the simulator's 1-second sampling tick.
    let last_crash_tick = crashes.iter().map(|(_, at)| at.ceil()).fold(0.0, f64::max);

    for &mode in &campaign.modes {
        let env = ExperimentEnv {
            cluster: campaign.cluster.clone(),
            yarn: campaign.yarn.clone(),
            alm: AlmConfig::with_mode(mode),
        };
        let report = run_one(&campaign.spec, &env, faults.clone());
        assert!(!report.succeeded, "{mode:?}: no job survives losing its cluster");
        assert!(report.events < 1_000_000, "{mode:?}: ran {} events after the cluster died", report.events);
        assert_eq!(report.job_secs, last_crash_tick, "{mode:?}: the job ends when the last worker dies");
    }
}
