//! Pluggable slot-arbitration policies.
//!
//! The warehouse engine asks a [`SchedPolicy`] one question, once per free
//! slot: *which tenant gets it?* The policy sees a per-tenant view
//! (runnable work, held slots, weight, guaranteed share, oldest waiting
//! job) and answers with a [`TenantId`] or `None` (leave the slot idle —
//! only the strict capacity policy ever does). Job selection *within* the
//! winning tenant is the engine's job and is always oldest-job-first, so
//! policies stay engine-agnostic and trivially deterministic: every
//! tie breaks on the lower tenant id.
//!
//! The three policies span the design space mapped in "MapReduce
//! Scheduler: A 360-degree view": global FIFO (one elephant starves the
//! cluster), guaranteed capacity shares with bounded spillover, and
//! weighted max-min fair sharing.

use serde::{Deserialize, Serialize};

use crate::config::{SchedConfig, SchedPolicyKind};

/// Identifier of a tenant: its index in the campaign's tenant list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TenantId(pub u32);

/// One tenant's scheduling inputs for a single dispatch decision.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantView {
    /// Tasks runnable right now, of the slot kind under dispatch, across
    /// the tenant's admitted jobs.
    pub runnable_tasks: u64,
    /// Slots (map + reduce) the tenant holds cluster-wide.
    pub running_slots: u64,
    pub weight: u32,
    pub guaranteed_share_pct: u32,
    /// Global arrival sequence of the oldest admitted job with runnable
    /// work — the FIFO policy's sort key.
    pub head_arrival_seq: u64,
}

/// Everything a policy may look at.
pub struct SchedView<'a> {
    /// One row per tenant, indexed by tenant id. A tenant with no runnable
    /// work of the dispatched kind has `runnable_tasks == 0` and must be
    /// treated as absent: it never wins a slot and its guarantee does not
    /// count against the spillover pool.
    pub tenants: &'a [TenantView],
    /// Total slots of the dispatched kind on alive nodes.
    pub total_slots: u64,
}

/// A slot-arbitration policy. Implementations must be deterministic pure
/// functions of the view plus their own (deterministically updated) state.
pub trait SchedPolicy {
    fn kind(&self) -> SchedPolicyKind;
    /// Tenant to receive the next free slot; `None` leaves it idle.
    fn pick(&mut self, view: &SchedView) -> Option<TenantId>;
}

impl SchedView<'_> {
    /// Tenants with runnable work, in ascending id order.
    pub fn runnable(&self) -> impl Iterator<Item = (TenantId, &TenantView)> {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.runnable_tasks > 0)
            .map(|(i, t)| (TenantId(i as u32), t))
    }
}

/// Global arrival order: the tenant owning the globally oldest admitted
/// job with runnable work wins every slot until that job drains.
#[derive(Debug, Default)]
pub struct FifoPolicy;

impl SchedPolicy for FifoPolicy {
    fn kind(&self) -> SchedPolicyKind {
        SchedPolicyKind::Fifo
    }

    fn pick(&mut self, view: &SchedView) -> Option<TenantId> {
        view.runnable().min_by_key(|(id, t)| (t.head_arrival_seq, *id)).map(|(id, _)| id)
    }
}

/// Guaranteed per-tenant shares with bounded work-conserving spillover.
#[derive(Debug)]
pub struct CapacityPolicy {
    /// Percentage of the unguaranteed slot pool one tenant may absorb
    /// beyond its guarantee (0 = strict, 100 = fully work-conserving).
    pub spillover_pct: u32,
}

impl CapacityPolicy {
    fn guaranteed(total: u64, pct: u32) -> u64 {
        total * pct as u64 / 100
    }
}

impl SchedPolicy for CapacityPolicy {
    fn kind(&self) -> SchedPolicyKind {
        SchedPolicyKind::Capacity
    }

    fn pick(&mut self, view: &SchedView) -> Option<TenantId> {
        // Pass 1: the most-deficient tenant still under its guarantee,
        // deficits compared as fractions of the guarantee (cross-
        // multiplied to stay in integers).
        let under = view
            .runnable()
            .filter(|(_, t)| t.running_slots < Self::guaranteed(view.total_slots, t.guaranteed_share_pct))
            .min_by(|(ida, a), (idb, b)| {
                let la = a.running_slots as u128 * b.guaranteed_share_pct as u128;
                let lb = b.running_slots as u128 * a.guaranteed_share_pct as u128;
                la.cmp(&lb).then(ida.cmp(idb))
            })
            .map(|(id, _)| id);
        if under.is_some() {
            return under;
        }
        // Pass 2: spillover. The unguaranteed pool is what no tenant's
        // guarantee covers; each tenant may hold at most `spillover_pct`
        // of it beyond its own guarantee.
        let guaranteed_total: u64 =
            view.runnable().map(|(_, t)| Self::guaranteed(view.total_slots, t.guaranteed_share_pct)).sum();
        let pool = view.total_slots.saturating_sub(guaranteed_total);
        let allowed_extra = pool * self.spillover_pct as u64 / 100;
        view.runnable()
            .filter(|(_, t)| {
                t.running_slots < Self::guaranteed(view.total_slots, t.guaranteed_share_pct) + allowed_extra
            })
            .min_by_key(|(id, t)| {
                let over = t
                    .running_slots
                    .saturating_sub(Self::guaranteed(view.total_slots, t.guaranteed_share_pct));
                (over, *id)
            })
            .map(|(id, _)| id)
    }
}

/// Weighted max-min fairness on held slots: each slot goes to the tenant
/// with the smallest `running_slots / weight`, granted in bursts of
/// `fair_burst_slots` before the deficit is re-evaluated.
#[derive(Debug)]
pub struct FairPolicy {
    pub burst: u32,
    burst_left: u32,
    last: Option<TenantId>,
}

impl FairPolicy {
    pub fn new(burst: u32) -> FairPolicy {
        FairPolicy { burst: burst.max(1), burst_left: 0, last: None }
    }
}

impl SchedPolicy for FairPolicy {
    fn kind(&self) -> SchedPolicyKind {
        SchedPolicyKind::Fair
    }

    fn pick(&mut self, view: &SchedView) -> Option<TenantId> {
        if self.burst_left > 0 {
            if let Some(last) = self.last {
                if view.tenants.get(last.0 as usize).is_some_and(|t| t.runnable_tasks > 0) {
                    self.burst_left -= 1;
                    return Some(last);
                }
            }
        }
        let winner = view
            .runnable()
            .min_by(|(ida, a), (idb, b)| {
                // a.slots/a.weight < b.slots/b.weight, cross-multiplied.
                let la = a.running_slots as u128 * b.weight as u128;
                let lb = b.running_slots as u128 * a.weight as u128;
                la.cmp(&lb).then(ida.cmp(idb))
            })
            .map(|(id, _)| id)?;
        self.last = Some(winner);
        self.burst_left = self.burst - 1;
        Some(winner)
    }
}

/// Instantiate the policy a [`SchedConfig`] names.
pub fn policy_for(config: &SchedConfig) -> Box<dyn SchedPolicy> {
    match config.policy {
        SchedPolicyKind::Fifo => Box::new(FifoPolicy),
        SchedPolicyKind::Capacity => {
            Box::new(CapacityPolicy { spillover_pct: config.capacity_spillover_pct })
        }
        SchedPolicyKind::Fair => Box::new(FairPolicy::new(config.fair_burst_slots)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows of `(runnable, running, weight, share, seq)`, tenant id = index.
    fn view_of(rows: &[(u64, u64, u32, u32, u64)]) -> Vec<TenantView> {
        rows.iter()
            .map(|&(runnable, running, weight, share, seq)| TenantView {
                runnable_tasks: runnable,
                running_slots: running,
                weight,
                guaranteed_share_pct: share,
                head_arrival_seq: seq,
            })
            .collect()
    }

    #[test]
    fn fifo_picks_globally_oldest_job() {
        let tenants = view_of(&[(4, 10, 1, 0, 7), (4, 0, 1, 0, 3), (0, 0, 1, 0, 1)]);
        let mut p = FifoPolicy;
        // Tenant 2 has the oldest seq but no runnable work.
        assert_eq!(p.pick(&SchedView { tenants: &tenants, total_slots: 100 }), Some(TenantId(1)));
    }

    #[test]
    fn capacity_serves_deficit_first_then_spills_over() {
        // Tenant 0 is under its 50% guarantee; tenant 1 is over its 10%.
        let tenants = view_of(&[(5, 10, 1, 50, 0), (5, 30, 1, 10, 1)]);
        let mut p = CapacityPolicy { spillover_pct: 100 };
        assert_eq!(p.pick(&SchedView { tenants: &tenants, total_slots: 100 }), Some(TenantId(0)));
        // Both over guarantee: least-over tenant wins the spillover.
        let tenants = view_of(&[(5, 60, 1, 50, 0), (5, 30, 1, 10, 1)]);
        assert_eq!(p.pick(&SchedView { tenants: &tenants, total_slots: 100 }), Some(TenantId(0)));
        // A tenant with no runnable work is absent: its guarantee does not
        // shrink the spillover pool (100 - 50 = 50 extra slots, cap 100).
        let tenants = view_of(&[(5, 60, 1, 50, 0), (0, 0, 1, 40, 1)]);
        assert_eq!(p.pick(&SchedView { tenants: &tenants, total_slots: 100 }), Some(TenantId(0)));
        // Strict shares: nobody under guarantee, slot stays idle.
        let tenants = view_of(&[(5, 60, 1, 50, 0), (5, 30, 1, 10, 1)]);
        let mut strict = CapacityPolicy { spillover_pct: 0 };
        assert_eq!(strict.pick(&SchedView { tenants: &tenants, total_slots: 100 }), None);
    }

    #[test]
    fn fair_is_weighted_max_min_with_id_ties() {
        // slots/weight: a=10/1=10, b=15/2=7.5 -> b wins.
        let tenants = view_of(&[(5, 10, 1, 0, 0), (5, 15, 2, 0, 1)]);
        let mut p = FairPolicy::new(1);
        assert_eq!(p.pick(&SchedView { tenants: &tenants, total_slots: 100 }), Some(TenantId(1)));
        // Exact tie on the ratio: lower id wins.
        let tenants = view_of(&[(5, 10, 1, 0, 0), (5, 20, 2, 0, 1)]);
        assert_eq!(p.pick(&SchedView { tenants: &tenants, total_slots: 100 }), Some(TenantId(0)));
    }

    #[test]
    fn fair_burst_sticks_to_the_winner() {
        let tenants = view_of(&[(5, 0, 1, 0, 0), (5, 1, 1, 0, 1)]);
        let mut p = FairPolicy::new(3);
        let view = SchedView { tenants: &tenants, total_slots: 100 };
        assert_eq!(p.pick(&view), Some(TenantId(0)));
        // The view is stale (slots unchanged) but the burst sticks anyway.
        assert_eq!(p.pick(&view), Some(TenantId(0)));
        assert_eq!(p.pick(&view), Some(TenantId(0)));
    }

    #[test]
    fn factory_maps_config_to_policy() {
        for (kind, expect) in [
            (SchedPolicyKind::Fifo, "fifo"),
            (SchedPolicyKind::Capacity, "capacity"),
            (SchedPolicyKind::Fair, "fair"),
        ] {
            let p = policy_for(&SchedConfig::with_policy(kind));
            assert_eq!(p.kind().as_str(), expect);
        }
    }
}
