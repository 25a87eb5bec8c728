//! `warehouse`: the 1000-node multi-tenant scheduler campaign.
//!
//! `WarehouseCampaign::synthetic(1000 nodes, 3 tenants, 256 jobs each,
//! Fair, SfmAlg, seed)` with rack 3 crashing at 120 s: the large form of
//! `bench_sched`'s 24-job mix. The DES kernel runs under `alm-sched` with
//! no per-task simulator handlers.
//!
//! A pass runs [`CAMPAIGNS`] such campaigns, at the run's seed and at seeds
//! derived from it. Event counts and per-event cost differ by up to 15 %
//! between job mixes; summing several mixes per pass keeps the figures of
//! one seed close to those of another.

use alm_sched::{SchedPolicyKind, Warehouse, WarehouseCampaign, WarehouseFault};
use alm_types::RecoveryMode;

use crate::pass::{set_up, timed, Pass, Workload};
use crate::trace::Tracer;

const NODES: u32 = 1000;
const TENANTS: u32 = 3;
pub const JOBS_PER_TENANT: u32 = 256;
/// The scaling probe: the same mix with a quarter of the jobs in flight.
pub const QUARTER_JOBS_PER_TENANT: u32 = 64;
/// Campaigns per pass, one `Warehouse::run` call each.
pub const CAMPAIGNS: u64 = 4;

/// The seed of a pass's `i`-th campaign; the first is the run's seed.
fn campaign_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

pub fn campaign(seed: u64, jobs_per_tenant: u32) -> WarehouseCampaign {
    WarehouseCampaign::synthetic(
        NODES,
        TENANTS,
        jobs_per_tenant,
        SchedPolicyKind::Fair,
        RecoveryMode::SfmAlg,
        seed,
    )
    .with_fault(WarehouseFault::CrashRack { rack: 3, at_secs: 120.0 })
}

pub struct WarehouseRun {
    seed: u64,
    jobs_per_tenant: u32,
    /// Prefix of the span and count names: `sched` or `sched.quarter`.
    layer: &'static str,
    /// Each campaign's event count in the first pass.
    first_events: Option<Vec<u64>>,
}

impl WarehouseRun {
    pub fn new(seed: u64) -> WarehouseRun {
        WarehouseRun::sized(seed, JOBS_PER_TENANT, "sched")
    }

    /// The scaling probe's mix, under its own span names.
    pub fn quarter(seed: u64) -> WarehouseRun {
        WarehouseRun::sized(seed, QUARTER_JOBS_PER_TENANT, "sched.quarter")
    }

    fn sized(seed: u64, jobs_per_tenant: u32, layer: &'static str) -> WarehouseRun {
        WarehouseRun { seed, jobs_per_tenant, layer, first_events: None }
    }
}

impl Workload for WarehouseRun {
    fn name(&self) -> &'static str {
        "warehouse"
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let (new_span, run_span) = (format!("{}.new_ms", self.layer), format!("{}.run_ms", self.layer));
        let (built, setup_s) = set_up(tr, |tr| {
            (0..CAMPAIGNS)
                .map(|i| {
                    let c = campaign(campaign_seed(self.seed, i), self.jobs_per_tenant);
                    let input: u64 = c.jobs.iter().map(|j| j.job.input_bytes).sum();
                    tr.span(&new_span, |_| Warehouse::new(c.spec.clone(), c.seed, &c.jobs, &c.faults))
                        .map(|w| (w, input))
                })
                .collect::<Result<Vec<_>, _>>()
        });
        pass.setup_s = setup_s;
        let warehouses = match built {
            Ok(built) => built,
            Err(e) => {
                pass.refuse(self.name(), format!("campaign rejected: {e}"));
                return pass;
            }
        };
        let mut events = Vec::with_capacity(warehouses.len());
        for (i, (warehouse, input)) in warehouses.into_iter().enumerate() {
            let (report, secs) = timed(|| tr.span(&run_span, |_| warehouse.run()));
            pass.wall_s += secs;
            pass.call_ms.push(secs * 1e3);
            pass.events += report.events;
            pass.input_bytes += input;
            let first = self.first_events.as_ref().map(|f| f[i]);
            if !report.succeeded() {
                pass.fail(self.name(), format!("campaign {i}: not every job finished"));
            } else if let Some(e) = first.filter(|&e| e != report.events) {
                pass.fail(self.name(), format!("campaign {i}: {} events, first pass had {e}", report.events));
            }
            events.push(report.events);
        }
        pass.count(&format!("{}.events", self.layer), pass.events as f64);
        self.first_events.get_or_insert(events);
        pass
    }
}
