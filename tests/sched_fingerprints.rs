//! Pinned warehouse-scheduler fingerprints.
//!
//! Each campaign pins its DES event count and an FNV-1a hash of its
//! `WarehouseReport::canonical_json()`. Comparing two runs in one process
//! cannot see behaviour drift between builds; comparing with recorded values
//! can. A change to `alm-sched` that moves any of them changes the
//! scheduler's behaviour and must update this table on purpose.
//!
//! The campaigns:
//! - the benchmark's `warehouse` campaign (`perfbench/src/warehouse.rs`):
//!   1000 nodes, 3 tenants × 256 jobs, fair, SFM+ALG, rack 3 crashing at
//!   120 s, seed 42;
//! - the 200-node acceptance campaign of `crates/sched/tests/determinism.rs`
//!   under every policy × recovery mode;
//! - one tenant job in flight at a time with fair bursts of 3 slots and
//!   strict capacity shares, which covers the fair policy's per-round burst
//!   reset and the capacity policy's idle-slot path.

use alm_mapreduce::prelude::*;

/// `(campaign label, events, FNV-1a of canonical_json)`.
type Fingerprint = (String, u64, u64);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn fingerprint(label: String, c: &WarehouseCampaign) -> Fingerprint {
    let r = c.run().expect("campaign runs");
    assert!(r.succeeded(), "{label}: every job must finish");
    (label, r.events, fnv1a(r.canonical_json().as_bytes()))
}

const POLICIES: [SchedPolicyKind; 3] =
    [SchedPolicyKind::Fifo, SchedPolicyKind::Capacity, SchedPolicyKind::Fair];
const MODES: [RecoveryMode; 4] =
    [RecoveryMode::Baseline, RecoveryMode::Alg, RecoveryMode::Sfm, RecoveryMode::SfmAlg];

fn acceptance_200(policy: SchedPolicyKind, mode: RecoveryMode) -> WarehouseCampaign {
    WarehouseCampaign::synthetic(200, 3, 8, policy, mode, 7)
        .with_fault(WarehouseFault::CrashRack { rack: 2, at_secs: 90.0 })
}

const PINNED_BENCHMARK: (u64, u64) = (101467, 1188657403289230646);

#[test]
fn benchmark_campaign_matches_recorded_fingerprint() {
    let c = WarehouseCampaign::synthetic(1000, 3, 256, SchedPolicyKind::Fair, RecoveryMode::SfmAlg, 42)
        .with_fault(WarehouseFault::CrashRack { rack: 3, at_secs: 120.0 });
    let (_, events, hash) = fingerprint("benchmark".into(), &c);
    assert_eq!((events, hash), PINNED_BENCHMARK);
}

#[rustfmt::skip]
const PINNED_ACCEPTANCE: [(&str, u64, u64); 12] = [
    ("fifo/Baseline", 2929, 6224077985870790093),
    ("fifo/Alg", 2905, 15400784626375459156),
    ("fifo/Sfm", 2800, 6532037438544322292),
    ("fifo/SfmAlg", 2753, 1268116414551408673),
    ("capacity/Baseline", 2929, 7418220473443449071),
    ("capacity/Alg", 2905, 12677214112893842650),
    ("capacity/Sfm", 2800, 1238224998545535554),
    ("capacity/SfmAlg", 2753, 6404334988614563611),
    ("fair/Baseline", 2929, 16377681806535474969),
    ("fair/Alg", 2905, 10872474942101793568),
    ("fair/Sfm", 2800, 397073038939502536),
    ("fair/SfmAlg", 2753, 741024110378549029),
];

#[test]
fn acceptance_campaigns_match_recorded_fingerprints() {
    let mut got = Vec::new();
    for policy in POLICIES {
        for mode in MODES {
            got.push(fingerprint(format!("{}/{mode:?}", policy.as_str()), &acceptance_200(policy, mode)));
        }
    }
    let want: Vec<Fingerprint> = PINNED_ACCEPTANCE.iter().map(|&(l, e, h)| (l.to_owned(), e, h)).collect();
    assert_eq!(got, want);
}

#[rustfmt::skip]
const PINNED_STRICT: [(&str, u64, u64); 2] = [
    ("capacity", 2879, 17713268641787684265),
    ("fair", 2879, 3780213684879717123),
];

#[test]
fn burst_and_strict_share_campaigns_match_recorded_fingerprints() {
    let mut got = Vec::new();
    for policy in [SchedPolicyKind::Capacity, SchedPolicyKind::Fair] {
        let mut c = acceptance_200(policy, RecoveryMode::Baseline);
        c.spec.sched.fair_burst_slots = 3;
        c.spec.sched.capacity_spillover_pct = 0;
        c.spec.sched.max_concurrent_jobs_per_tenant = 1;
        got.push(fingerprint(policy.as_str().to_owned(), &c));
    }
    let want: Vec<Fingerprint> = PINNED_STRICT.iter().map(|&(l, e, h)| (l.to_owned(), e, h)).collect();
    assert_eq!(got, want);
}
