//! `runtime-terasort`: the real data plane, no discrete-event simulation.
//!
//! Terasort over 200k generated records (~19 MiB) on a five-node
//! `MiniCluster::for_tests`, 8 maps and 4 reduces under SFM+ALG. One pass
//! is a failure-free job and a job whose reducer 0 is killed at 50 %
//! progress, in its merge phase, which exercises FCM. Both outputs must equal
//! the reference oracle and the killed job must show exactly one failure.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use alm_runtime::am::run_job;
use alm_runtime::{FaultPlan, JobDef, JobReport, MiniCluster};
use alm_shuffle::codec::decode_at;
use alm_types::{AlmConfig, JobId, RecoveryMode, TaskId};
use alm_workloads::reference::reference_output;
use alm_workloads::Terasort;
use bytes::Bytes;

use crate::pass::{set_up, timed, Pass, Workload};
use crate::trace::Tracer;

pub const MAPS: u32 = 8;
pub const REDUCES: u32 = 4;
pub const RECORDS_PER_SPLIT: u32 = 25_000;
pub const NODES: u32 = 5;
/// ALG logging interval. The cumulative partial-output flush makes job
/// times swing by up to 8x at 200 ms and below on a slow host, and at
/// 10 ms on a fast one; see the benchmark's README.
pub const LOG_INTERVAL_MS: u64 = 500;

/// An order-insensitive digest of a multiset of records: the record and
/// byte counts and two wrapping sums over a hash of each record. Equal
/// multisets have equal digests, so comparing digests compares sorted
/// outputs without holding either.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    records: u64,
    bytes: u64,
    sum: u64,
    sum_sq: u64,
}

impl Digest {
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        let mut h = DefaultHasher::new();
        (key, value).hash(&mut h);
        let h = h.finish();
        self.records += 1;
        self.bytes += (key.len() + value.len()) as u64;
        self.sum = self.sum.wrapping_add(h);
        self.sum_sq = self.sum_sq.wrapping_add(h.wrapping_mul(h));
    }
}

pub struct RuntimeTerasort {
    seed: u64,
    /// Per reduce partition, the digest of the reference oracle's output:
    /// what both jobs must commit. The oracle belongs to the check, not to
    /// the program, so it is built once and not timed as set-up, and only
    /// its digests stay in memory while the jobs run.
    oracle: Vec<Digest>,
    /// Input bytes of one job: every record's key and value.
    input_bytes: u64,
    /// Records of one job.
    records: u64,
}

impl RuntimeTerasort {
    pub fn new(seed: u64) -> RuntimeTerasort {
        // Terasort's map and reduce keep every input record as it is.
        let oracle = oracle_digests(seed);
        let input_bytes = oracle.iter().map(|d| d.bytes).sum();
        let records = oracle.iter().map(|d| d.records).sum();
        RuntimeTerasort { seed, oracle, input_bytes, records }
    }

    fn job(&self, id: JobId) -> JobDef {
        let mut alm = AlmConfig::with_mode(RecoveryMode::SfmAlg);
        alm.logging_interval_ms = LOG_INTERVAL_MS;
        JobDef::new(id, Arc::new(Terasort::new(RECORDS_PER_SPLIT)), MAPS, REDUCES, self.seed, alm)
    }
}

/// Per reduce partition, the digest of the reference oracle's output.
pub fn oracle_digests(seed: u64) -> Vec<Digest> {
    reference_output(&Terasort::new(RECORDS_PER_SPLIT), MAPS, REDUCES, seed)
        .iter()
        .map(|part| {
            let mut d = Digest::default();
            part.iter().for_each(|r| d.add(&r.key, &r.value));
            d
        })
        .collect()
}

/// The digest of one encoded output file, decoded one record at a time;
/// `None` if it does not decode.
pub fn digest_of(data: &Bytes) -> Option<Digest> {
    let (mut d, mut off) = (Digest::default(), 0);
    while let Some((k, v, next)) = decode_at(data, off).ok()? {
        d.add(&k, &v);
        off = next;
    }
    Some(d)
}

/// The digest of every reduce partition's committed output; `None` if a
/// partition is missing or does not decode.
fn committed(cluster: &MiniCluster, job: &JobDef) -> Option<Vec<Digest>> {
    (0..job.num_reduces).map(|r| digest_of(&cluster.dfs.read(&job.output_path(r)).ok()?)).collect()
}

fn count_report(pass: &mut Pass, r: &JobReport) {
    pass.count("runtime.map_attempts", r.map_attempts);
    pass.count("runtime.reduce_attempts", r.reduce_attempts);
    pass.count("runtime.fcm_attempts", r.fcm_attempts);
    pass.count("runtime.output_records", r.total_output_records() as f64);
    pass.count("runtime.failures", r.failures.len() as f64);
}

impl Workload for RuntimeTerasort {
    fn name(&self) -> &'static str {
        "runtime-terasort"
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        // The program's set-up is the clusters: each job's map tasks
        // generate their own input inside `run_job`, so that is in `wall_s`.
        let (clusters, setup_s) = set_up(tr, |tr| {
            (0..2)
                .map(|_| tr.span("runtime.cluster_new_ms", |_| Arc::new(MiniCluster::for_tests(NODES))))
                .collect::<Vec<_>>()
        });
        pass.setup_s = setup_s;
        let free = self.job(JobId(1));
        let kill = self.job(JobId(2));
        let kill_plan = FaultPlan::kill_task(TaskId::reduce(kill.id, 0), 0.5);
        let runs = [
            ("runtime.job_ms.free", free, FaultPlan::none(), 0),
            ("runtime.job_ms.kill", kill, kill_plan, 1),
        ];
        for ((name, job, plan, want_failures), cluster) in runs.into_iter().zip(clusters) {
            let (report, secs) = timed(|| tr.span(name, |_| run_job(cluster.clone(), job.clone(), plan)));
            pass.wall_s += secs;
            pass.call_ms.push(secs * 1e3);
            pass.input_bytes += self.input_bytes;
            // The runtime has no event queue: its work items are records.
            pass.events += self.records;
            count_report(&mut pass, &report);
            if !report.succeeded {
                pass.fail(self.name(), format!("{name}: job did not succeed"));
            } else if report.failures.len() != want_failures {
                pass.fail(
                    self.name(),
                    format!("{name}: {} failures, expected {want_failures}", report.failures.len()),
                );
            } else if committed(&cluster, &job).as_ref() != Some(&self.oracle) {
                pass.fail(self.name(), format!("{name}: committed output differs from the reference oracle"));
            }
        }
        pass
    }
}
