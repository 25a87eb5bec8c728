//! Single-threaded replay of `runtime-terasort`'s data plane.
//!
//! The layers inside `run_job` cannot be timed from outside, so the traced
//! run replays the job on the same generated records through each crate's
//! public functions, one span per call:
//!
//! * `MapOutputBuffer::collect`/`finish` per map (spill, `alm-shuffle`);
//! * `frame::unframe` of each fetched MOF partition (CRC framing);
//! * a `MergeQueue` drain per reduce partition (merge);
//! * `AnalyticsLogger::maybe_log_reduce`, which flushes the
//!   `PartialOutput`, every [`LOG_EVERY`] records (ALG, `alm-core`); the
//!   bytes each call writes are read back from the DFS;
//! * `PartialOutput::commit` and verified `DfsCluster::read` of the output,
//!   then `set_node_alive(false)` and `repair` (`alm-dfs`);
//! * `recover_state` of reducer 0 from its logs (ALG recovery);
//! * `collective_merge` of reducer 0's segments against a single-node
//!   `MergeQueue` of the same segments (FCM).
//!
//! Logging every N records, not every T ms, keeps the ALG counts exact.
//! The replayed output must equal the reference oracle's.

use std::collections::BTreeMap;
use std::sync::Arc;

use alm_core::sfm::fcm::DEFAULT_CHUNK_BYTES;
use alm_core::{
    collective_merge, recover_state, AnalyticsLogger, LogPaths, PartialOutput, Participant, RecoveredState,
};
use alm_dfs::{DfsCluster, Topology};
use alm_shuffle::frame::unframe;
use alm_shuffle::{
    KeyCmp, LocalFs, MapOutputBuffer, MemFs, MergeQueue, MofData, SegmentReader, SegmentSource,
};
use alm_types::{AlmConfig, JobId, NodeId, RecoveryMode, TaskId, YarnConfig};
use alm_workloads::{Record, Terasort, Workload as _};
use bytes::Bytes;

use crate::pass::{set_up, timed, Pass};
use crate::terasort::{digest_of, oracle_digests, Digest, MAPS, NODES, RECORDS_PER_SPLIT, REDUCES};
use crate::trace::Tracer;

/// Reduce-stage log interval, in records processed.
pub const LOG_EVERY: u64 = 5_000;
/// The node whose death the DFS repair step handles.
const DEAD_NODE: NodeId = NodeId(1);
const JOB: JobId = JobId(9);

/// One map's output records: `(partition, key, value)`.
type MapOutput = Vec<(u32, Vec<u8>, Vec<u8>)>;

/// Everything the replay needs before its first timed call.
struct Inputs {
    w: Terasort,
    cmp: KeyCmp,
    map_out: Vec<MapOutput>,
    /// Per reduce partition: the digest of the oracle's output.
    oracle: Vec<Digest>,
}

fn inputs(seed: u64) -> Inputs {
    let w = Terasort::new(RECORDS_PER_SPLIT);
    let map_out = (0..MAPS)
        .map(|split| {
            let mut out = Vec::new();
            for rec in w.gen_split(split, seed) {
                w.map(&rec, &mut |r: Record| out.push((w.partition(&r.key, REDUCES), r.key, r.value)));
            }
            out
        })
        .collect();
    let oracle = oracle_digests(seed);
    let cmp: KeyCmp = Arc::new(|a: &[u8], b: &[u8]| Terasort::new(RECORDS_PER_SPLIT).compare_keys(a, b));
    Inputs { w, cmp, map_out, oracle }
}

fn node_of_map(m: usize) -> usize {
    m % NODES as usize
}

fn node_of_reduce(r: u32) -> NodeId {
    NodeId(r % NODES)
}

/// Order-sensitive digest of a merged stream.
fn digest(acc: &mut u64, k: &[u8], v: &[u8]) {
    for &b in k.iter().chain(v) {
        *acc = (*acc ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
}

/// Run the replay once, recording its calls, counts and check failures.
pub fn replay(seed: u64, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let (mut inp, setup_s) = set_up(tr, |_| inputs(seed));
    pass.setup_s = setup_s;
    let yarn = YarnConfig::scaled_for_tests();
    let dfs = DfsCluster::with_policy(
        Topology::even(NODES, 2),
        yarn.dfs_block_size,
        yarn.dfs_replication,
        yarn.dfs_verify_on_read,
        yarn.dfs_repair_concurrency,
    );
    let stores: Vec<MemFs> = (0..NODES).map(|_| MemFs::new()).collect();
    let mut alm = AlmConfig::with_mode(RecoveryMode::SfmAlg);
    alm.logging_interval_ms = LOG_EVERY;

    // Map side: sort, spill and commit one MOF per map.
    let spill_threshold = (yarn.map_heap_bytes / 4).max(4096);
    let mut mofs: Vec<MofData> = Vec::new();
    for (m, records) in std::mem::take(&mut inp.map_out).into_iter().enumerate() {
        let fs = &stores[node_of_map(m)];
        let (mof, secs) = timed(|| {
            tr.span("shuffle.spill_ms", |_| {
                let mut buf = MapOutputBuffer::new(
                    inp.cmp.clone(),
                    None,
                    REDUCES,
                    spill_threshold,
                    format!("map/{m}/"),
                );
                let (mut spilled_last, nonempty) = (false, !records.is_empty());
                for (p, k, v) in records {
                    let before = buf.spill_count();
                    buf.collect(fs, p, k, v)?;
                    spilled_last = buf.spill_count() > before;
                }
                // `finish` spills whatever the last threshold spill left.
                let spills = buf.spill_count() + u32::from(!spilled_last && nonempty);
                buf.finish(fs).map(|mof| (mof, spills))
            })
        });
        call(&mut pass, secs);
        match mof {
            Ok((mof, spills)) => {
                pass.count("shuffle.spills", spills);
                pass.count("shuffle.mof_bytes", mof.total_bytes() as f64);
                mofs.push(mof);
            }
            Err(e) => {
                pass.fail("replay", format!("map {m}: {e}"));
                return pass;
            }
        }
    }

    // Reduce side, one partition at a time.
    let mut reducer0: Option<(Vec<(usize, Bytes)>, u64)> = None;
    for r in 0..REDUCES {
        let (result, secs) = timed(|| reduce_partition(tr, &inp, &stores, &mofs, &dfs, &alm, r));
        call(&mut pass, secs);
        match result {
            Ok(st) => {
                pass.count("shuffle.merge_segments", st.segments.len() as f64);
                pass.count("core.alg.records", st.log_records as f64);
                pass.count("core.alg.bytes", st.log_bytes as f64);
                pass.count("core.alg.flush_bytes", (st.log_call_bytes - st.log_bytes) as f64);
                pass.count("dfs.bytes_written", st.log_call_bytes as f64);
                if r == 0 {
                    reducer0 = Some((st.segments, st.last_logged));
                }
            }
            Err(e) => pass.fail("replay", format!("reduce {r}: {e}")),
        }
    }

    // Verified reads of the committed output against the oracle.
    let (outputs, secs) = timed(|| {
        tr.span("dfs.read_ms", |_| (0..REDUCES).map(|r| dfs.read(&output_path(r)).ok()).collect::<Vec<_>>())
    });
    call(&mut pass, secs);
    for (r, (data, want)) in outputs.iter().zip(&inp.oracle).enumerate() {
        pass.count("dfs.bytes_written", data.as_ref().map_or(0, |d| d.len()) as f64);
        if data.as_ref().and_then(digest_of).as_ref() != Some(want) {
            pass.fail("replay", format!("partition {r} output differs from the reference oracle"));
        }
    }

    // Lose a node, then re-replicate what it held.
    let repair_before = dfs.stats().repair_bytes;
    let (_, secs) = timed(|| {
        tr.span("dfs.repair_ms", |_| {
            dfs.set_node_alive(DEAD_NODE, false);
            dfs.repair()
        })
    });
    call(&mut pass, secs);
    pass.count("dfs.repair_bytes", (dfs.stats().repair_bytes - repair_before) as f64);
    if let Some(r) = (0..REDUCES).find(|r| !dfs.is_available(&output_path(*r))) {
        pass.fail("replay", format!("partition {r} output unavailable after repair"));
    }

    let Some((segments, last_logged)) = reducer0 else {
        return pass;
    };

    // Recover reducer 0's reduce-stage state from its logs on the DFS.
    let paths = LogPaths::for_task(TaskId::reduce(JOB, 0));
    let (state, secs) = timed(|| tr.span("core.alg.recover_ms", |_| recover_state(None, &dfs, &paths)));
    call(&mut pass, secs);
    match state {
        RecoveredState::ReduceStage { records_processed, .. } if records_processed == last_logged => {}
        other => {
            pass.fail("replay", format!("reducer 0 recovered {other:?}, logged up to {last_logged} records"))
        }
    }

    // FCM: reducer 0's segments merged collectively, one participant per
    // map node, against one single-node merge of the same segments.
    let reader =
        |m: usize, data: &Bytes| SegmentReader::new(SegmentSource::Memory { id: m as u64 }, data.clone());
    let mut participants: Vec<Participant> =
        (0..NODES).map(|n| Participant { node: NodeId(n), segments: Vec::new() }).collect();
    for (m, data) in &segments {
        match reader(*m, data) {
            Ok(rd) => participants[node_of_map(*m)].segments.push(rd),
            Err(e) => pass.fail("replay", format!("segment of map {m}: {e}")),
        }
    }
    participants.retain(|p| !p.segments.is_empty());
    let mut fcm_digest = 0u64;
    let (fcm, fcm_s) = timed(|| {
        tr.span("core.fcm.merge_ms", |_| {
            collective_merge(&inp.cmp, participants, DEFAULT_CHUNK_BYTES, |k, v| {
                digest(&mut fcm_digest, k, v)
            })
        })
    });
    call(&mut pass, fcm_s);
    let mut single_digest = 0u64;
    let (single, single_s) = timed(|| {
        tr.span("core.fcm.single_ms", |_| -> Result<(), String> {
            let readers = segments.iter().map(|(m, d)| reader(*m, d)).collect::<Result<Vec<_>, _>>();
            let mut q = MergeQueue::new(inp.cmp.clone(), readers.map_err(|e| e.to_string())?);
            while let Some((k, v)) = q.pop().map_err(|e| e.to_string())? {
                digest(&mut single_digest, &k, &v);
            }
            Ok(())
        })
    });
    call(&mut pass, single_s);
    match (fcm, single) {
        (Ok(_), Ok(())) if fcm_digest == single_digest => pass.count("core.fcm.vs_single", fcm_s / single_s),
        (Ok(_), Ok(())) => pass.fail("replay", "collective merge order differs from the single-node merge"),
        (Err(e), _) => pass.fail("replay", format!("collective merge: {e}")),
        (_, Err(e)) => pass.fail("replay", format!("single-node merge: {e}")),
    }
    pass
}

/// Account one timed call.
fn call(pass: &mut Pass, secs: f64) {
    pass.wall_s += secs;
    pass.call_ms.push(secs * 1e3);
}

fn output_path(r: u32) -> String {
    format!("/out/{JOB}/part-{r:05}")
}

/// What one reduce partition did.
struct PartitionStats {
    /// The fetched, frame-verified MOF segments, with their map index.
    segments: Vec<(usize, Bytes)>,
    log_records: u64,
    /// Log record bytes, as the logger counts them.
    log_bytes: u64,
    /// Bytes the log calls wrote to the DFS: log records and partial-output
    /// flushes, as read back from it.
    log_call_bytes: u64,
    /// Records processed at the last log point.
    last_logged: u64,
}

/// Length of every file under `prefix` on the DFS, by path.
fn dfs_files(dfs: &DfsCluster, prefix: &str) -> BTreeMap<String, u64> {
    dfs.list(prefix).into_iter().filter_map(|p| Some((p.clone(), dfs.read(&p).ok()?.len() as u64))).collect()
}

/// Bytes written under a prefix between two listings. The DFS has no
/// append: a file that is new or whose length changed was written whole.
fn written(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> u64 {
    after.iter().filter(|(path, len)| before.get(*path) != Some(len)).map(|(_, len)| len).sum()
}

/// Fetch, merge, reduce, log and commit one reduce partition.
fn reduce_partition(
    tr: &mut Tracer,
    inp: &Inputs,
    stores: &[MemFs],
    mofs: &[MofData],
    dfs: &DfsCluster,
    alm: &AlmConfig,
    r: u32,
) -> Result<PartitionStats, String> {
    let node = node_of_reduce(r);
    let mut segments = Vec::with_capacity(mofs.len());
    for (m, mof) in mofs.iter().enumerate() {
        let blob = stores[node_of_map(m)].read(&mof.path).map_err(|e| e.to_string())?;
        let (off, len) = mof.frame_range(r).ok_or("partition out of range")?;
        let framed = blob.slice(off as usize..(off + len) as usize);
        segments.push((m, tr.span("shuffle.frame_ms", |_| unframe(&framed)).map_err(|e| e.to_string())?));
    }
    let mut logger = AnalyticsLogger::new(alm, TaskId::reduce(JOB, r).attempt(0));
    let mut output = PartialOutput::new(logger.paths());
    let prefix = logger.paths().dfs_prefix.clone();
    let mut files = BTreeMap::new();
    let (mut processed, mut log_call_bytes, mut last_logged) = (0u64, 0u64, 0u64);
    tr.span("shuffle.merge_ms", |tr| -> Result<(), String> {
        let readers = segments
            .iter()
            .map(|(m, data)| SegmentReader::new(SegmentSource::Memory { id: *m as u64 }, data.clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mut q = MergeQueue::new(inp.cmp.clone(), readers);
        while let Some((key, value)) = q.pop().map_err(|e| e.to_string())? {
            let mut values = vec![value.to_vec()];
            while q.peek().is_some_and(|(k, _)| inp.w.same_group(&key, k)) {
                let (_, v) = q.pop().map_err(|e| e.to_string())?.ok_or("peeked record vanished")?;
                values.push(v.to_vec());
            }
            inp.w.reduce(&key, &values, &mut |rec: Record| output.append(&rec.key, &rec.value));
            let before = processed;
            processed += values.len() as u64;
            if processed / LOG_EVERY > before / LOG_EVERY {
                let snapshot = q.snapshot();
                let logged = tr
                    .span("core.alg.log_ms", |_| {
                        logger.maybe_log_reduce(processed, dfs, node, &snapshot, processed, &mut output)
                    })
                    .map_err(|e| e.to_string())?;
                if logged.is_some() {
                    last_logged = processed;
                }
                // The read-back is the benchmark's, so its span is reported
                // under no layer.
                let now = tr.span("perfbench.dfs_probe", |_| dfs_files(dfs, &prefix));
                log_call_bytes += written(&files, &now);
                files = now;
            }
        }
        Ok(())
    })?;
    tr.span("dfs.write_ms", |_| output.commit(dfs, node, alm.log_replication, &output_path(r)))
        .map_err(|e| e.to_string())?;
    Ok(PartitionStats {
        segments,
        log_records: logger.records_written(),
        log_bytes: logger.bytes_written(),
        log_call_bytes,
        last_logged,
    })
}
