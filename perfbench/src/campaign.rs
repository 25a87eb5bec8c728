//! `sim-campaign`: the 80-run golden fault campaign.
//!
//! `SimCampaign::golden_gate(seed, 20)` samples 20 scenarios; each runs
//! under all four recovery modes at paper scale. The pass replays
//! `SimCampaign::run_scenario` step by step through public items so each
//! step can carry its own span: set-up samples the scenarios, lowers each
//! run's fault plan and builds its `Simulation`; each call then runs one
//! simulation and analyzes it. The pass ends by rendering the triage and
//! the canonical report, as the `campaign_gate` gate does.

use std::collections::BTreeSet;

use alm_chaos::{analyze_sim, CampaignReport, SimCampaign};
use alm_sim::{ExperimentEnv, SimFault, Simulation};
use alm_types::{AlmConfig, JobId};

use crate::pass::{set_up, timed, Pass, Workload};
use crate::sim_paper::count_report;
use crate::trace::Tracer;
use crate::GOLDEN_SEED;

const SCENARIOS: usize = 20;
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../crates/bench/golden/campaign_gate.json");

/// Why a scenario that crashes every worker node is not simulated.
const DEAD_CLUSTER: &str = "the simulator does not fail a job whose cluster is dead: it runs to its \
    50M-event cap while its progress timelines grow by gigabytes";

/// Whether the lowered faults crash every one of `workers` worker nodes.
fn crashes_every_worker(faults: &[SimFault], workers: u32) -> bool {
    let crashed: BTreeSet<u32> = faults
        .iter()
        .filter_map(|f| match f {
            SimFault::CrashNodeAtSecs { node, .. } | SimFault::CrashNodeAtReduceProgress { node, .. } => {
                Some(*node)
            }
            _ => None,
        })
        .collect();
    (0..workers).all(|n| crashed.contains(&n))
}

pub struct Campaign {
    seed: u64,
    /// The expected canonical report: the committed golden file at its
    /// seed, otherwise the first pass's report.
    expected: Option<String>,
}

impl Campaign {
    pub fn new(seed: u64) -> Result<Campaign, String> {
        let expected = if seed == GOLDEN_SEED {
            let golden = std::fs::read_to_string(GOLDEN_PATH)
                .map_err(|e| format!("cannot read {GOLDEN_PATH}: {e}"))?;
            Some(golden)
        } else {
            None
        };
        Ok(Campaign { seed, expected })
    }
}

impl Workload for Campaign {
    fn name(&self) -> &'static str {
        "sim-campaign"
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let (runs, setup_s) = set_up(tr, |tr| {
            let (campaign, scenarios) =
                tr.span("chaos.sample_ms", |_| SimCampaign::golden_gate(self.seed, SCENARIOS));
            let profile = campaign.profile();
            let mut runs = Vec::with_capacity(scenarios.len() * campaign.modes.len());
            for scenario in scenarios {
                for &mode in &campaign.modes {
                    let env = ExperimentEnv {
                        cluster: campaign.cluster.clone(),
                        yarn: campaign.yarn.clone(),
                        alm: AlmConfig::with_mode(mode),
                    };
                    let faults = tr.span("chaos.lower_ms", |_| {
                        SimFault::lower_plan(&scenario.lower(JobId(0), &profile))
                    });
                    let sim = (!crashes_every_worker(&faults, profile.workers)).then(|| {
                        tr.span("chaos.sim_new_ms", |_| Simulation::new(campaign.spec.clone(), env, faults))
                    });
                    runs.push((scenario.clone(), mode, sim));
                }
            }
            (runs, profile, campaign.spec.input_bytes)
        });
        pass.setup_s = setup_s;
        let (runs, profile, input_bytes) = runs;
        let mut outcomes = Vec::with_capacity(runs.len());
        for (scenario, mode, sim) in runs {
            let Some(sim) = sim else {
                pass.refuse(
                    self.name(),
                    format!("{} {mode:?} crashes every worker node; {DEAD_CLUSTER}", scenario.name),
                );
                continue;
            };
            let (outcome, secs) = timed(|| {
                let report = tr.span("chaos.sim_ms", |_| sim.run());
                pass.events += report.events;
                count_report(&mut pass, &report);
                tr.span("chaos.analyze_ms", |_| analyze_sim(&scenario, mode, &report, &profile))
            });
            pass.wall_s += secs;
            pass.call_ms.push(secs * 1e3);
            pass.input_bytes += input_bytes;
            outcomes.push(outcome);
        }
        let (json, secs) = timed(|| {
            let mut report = CampaignReport::new("campaign-gate", self.seed);
            report.extend(outcomes);
            tr.span("chaos.triage_ms", |_| report.triage().render_markdown());
            let mut json = tr.span("chaos.canonical_ms", |_| report.canonical_json());
            json.push('\n');
            json
        });
        pass.wall_s += secs;
        match &self.expected {
            Some(expected) if *expected != json => {
                // The canonical report covers every run of the pass.
                let runs = pass.call_ms.len() as u64;
                pass.fail(self.name(), first_divergence(expected, &json));
                pass.failed = runs;
            }
            Some(_) => {}
            None => self.expected = Some(json),
        }
        pass
    }
}

fn first_divergence(expected: &str, actual: &str) -> String {
    match expected.lines().zip(actual.lines()).enumerate().find(|(_, (e, a))| e != a) {
        Some((i, (e, a))) => format!("canonical report differs at line {}: expected {e}, got {a}", i + 1),
        None => format!(
            "canonical report has {} lines, expected {}",
            actual.lines().count(),
            expected.lines().count()
        ),
    }
}
