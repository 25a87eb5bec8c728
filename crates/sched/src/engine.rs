//! Task-level warehouse simulator.
//!
//! Where `alm-sim` models *one* job at flow fidelity (per-fetch bandwidth
//! sharing on every NIC and disk), this engine models *many* jobs from
//! many tenants at task fidelity: each task has a closed-form duration
//! derived from the same [`alm_sim::Quantities`] byte model and the
//! cluster's bandwidth numbers, and jobs contend through **slots** — the
//! scheduler's resource — rather than through per-byte flows. That is the
//! deliberate abstraction ladder: slot contention is what multi-tenant
//! scheduling policies arbitrate, and it is what makes 1000-node,
//! dozens-of-jobs campaigns run in milliseconds while staying bitwise
//! deterministic.
//!
//! Failure amplification survives the abstraction. A node crash kills the
//! tasks on it, and — the paper's core mechanism — orphans the completed
//! map outputs (MOFs) it hosted:
//!
//! * **SFM modes** regenerate lost maps proactively at detection; running
//!   reducers of the wounded job *suspend* (they hold their containers)
//!   and resume once the maps are back — no failure records, only delay.
//! * **Baseline/ALG** discover the loss through the reducers' fetch
//!   treadmill: one liveness window after detection, every running
//!   reducer of the job is preempted with `FetchFailureLimit` (spatial
//!   amplification, now *cross-tenant visible* through slot contention)
//!   and only then do the lost maps re-queue. ALG restarts the preempted
//!   reducers from their logged progress; baseline restarts from zero.

use std::collections::{BTreeSet, VecDeque};

use alm_des::{EventQueue, EventToken, SimDuration, SimTime};
use alm_sim::{Quantities, SimJobSpec};
use alm_types::{ClusterSpec, FailureKind, RecoveryMode, YarnConfig};
use serde::{Deserialize, Serialize};

use crate::config::{validate_tenants, SchedConfig, TenantSpec};
use crate::policy::{policy_for, SchedView, TenantId, TenantView};
use crate::report::{JobOutcome, WarehouseReport};

/// Runaway guard: no warehouse campaign at the scales this crate targets
/// comes near this event count.
const MAX_EVENTS: u64 = 20_000_000;

/// The shared cluster, its tenants, and the scheduler between them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarehouseSpec {
    pub cluster: ClusterSpec,
    pub yarn: YarnConfig,
    pub mode: RecoveryMode,
    pub sched: SchedConfig,
    pub tenants: Vec<TenantSpec>,
}

impl WarehouseSpec {
    /// A warehouse-scale cluster: paper per-node hardware (Table I NICs,
    /// SSDs, slot counts) scaled out to `nodes` nodes in ~40-node racks.
    pub fn warehouse(
        nodes: u32,
        sched: SchedConfig,
        tenants: Vec<TenantSpec>,
        mode: RecoveryMode,
    ) -> WarehouseSpec {
        let cluster = ClusterSpec { nodes, racks: (nodes / 40).clamp(2, 32), ..ClusterSpec::default() };
        WarehouseSpec { cluster, yarn: YarnConfig::default(), mode, sched, tenants }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.cluster.worker_nodes() == 0 {
            return Err("cluster needs at least one worker node".into());
        }
        if self.cluster.map_slots_per_node == 0 || self.cluster.reduce_slots_per_node == 0 {
            return Err("per-node slot counts must be >= 1".into());
        }
        self.yarn.validate()?;
        self.sched.validate()?;
        validate_tenants(&self.tenants)
    }
}

/// One job submission: which tenant, when, and what job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarehouseJob {
    /// Index into the spec's tenant list.
    pub tenant: u32,
    pub arrival_secs: f64,
    pub job: SimJobSpec,
}

/// Faults at warehouse granularity. Task-level kills and transient faults
/// live in the single-job engines; what crosses tenants is node and rack
/// loss, so that is the vocabulary here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WarehouseFault {
    CrashNode {
        node: u32,
        at_secs: f64,
    },
    /// Correlated loss: every node with `index % racks == rack` (the same
    /// placement convention `alm-chaos` lowers rack faults with).
    CrashRack {
        rack: u32,
        at_secs: f64,
    },
}

/// Closed-form per-task costs of one job, from the shared byte model.
#[derive(Debug, Clone)]
struct JobModel {
    num_maps: u32,
    num_reduces: u32,
    map_secs: f64,
    reduce_secs: f64,
    ideal_secs: f64,
}

impl JobModel {
    fn derive(spec: &SimJobSpec, cluster: &ClusterSpec, yarn: &YarnConfig) -> JobModel {
        let q = Quantities::derive(spec, &spec.workload.model(), yarn);
        let launch = cluster.container_launch_ms as f64 / 1000.0;
        let map_secs = launch
            + q.split_bytes as f64 / cluster.disk_read_bandwidth as f64
            + q.map_cpu_secs
            + q.map_out_bytes as f64 / cluster.disk_write_bandwidth as f64;
        // A reducer's shuffle drains its partition through its inbound
        // NIC (half-duplex share, matching the single-job engine's
        // observed steady state); spilled bytes take extra disk passes
        // per merge round.
        let shuffle_secs = q.partition_bytes as f64 / (cluster.nic_bandwidth as f64 / 2.0);
        let spill_secs = q.spilled_bytes as f64
            * (1.0 / cluster.disk_write_bandwidth as f64 + 1.0 / cluster.disk_read_bandwidth as f64)
            * (1 + q.merge_rounds) as f64;
        let reduce_secs = launch
            + shuffle_secs
            + spill_secs
            + q.reduce_cpu_secs
            + q.reduce_out_bytes as f64 / cluster.disk_write_bandwidth as f64;
        let map_slots = (cluster.worker_nodes() as u64 * cluster.map_slots_per_node as u64).max(1);
        let reduce_slots = (cluster.worker_nodes() as u64 * cluster.reduce_slots_per_node as u64).max(1);
        let map_waves = (q.num_maps as u64).div_ceil(map_slots);
        let reduce_waves = (q.num_reduces as u64).div_ceil(reduce_slots);
        JobModel {
            num_maps: q.num_maps,
            num_reduces: q.num_reduces,
            map_secs,
            reduce_secs,
            // The job alone on an empty, healthy cluster: the slowdown
            // denominator.
            ideal_secs: map_waves as f64 * map_secs + reduce_waves as f64 * reduce_secs,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RunningTask {
    node: u32,
    token: EventToken,
    started: SimTime,
    work_secs: f64,
}

impl RunningTask {
    fn remaining_at(&self, now: SimTime) -> f64 {
        (self.work_secs - now.since(self.started).as_secs_f64()).max(0.0)
    }
}

/// Per-task state of one job, indexed by task index: the dense form of an
/// ordered map keyed `0..n`. Iteration is in ascending index order.
#[derive(Debug, Clone)]
struct TaskTable<T> {
    slots: Vec<Option<T>>,
    len: u32,
}

impl<T> Default for TaskTable<T> {
    fn default() -> TaskTable<T> {
        TaskTable { slots: Vec::new(), len: 0 }
    }
}

impl<T: Copy> TaskTable<T> {
    fn with_tasks(n: u32) -> TaskTable<T> {
        TaskTable { slots: vec![None; n as usize], len: 0 }
    }

    fn len(&self) -> u32 {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn get(&self, i: u32) -> Option<&T> {
        self.slots.get(i as usize)?.as_ref()
    }

    fn insert(&mut self, i: u32, v: T) {
        if self.slots[i as usize].replace(v).is_none() {
            self.len += 1;
        }
    }

    fn remove(&mut self, i: u32) -> Option<T> {
        let v = self.slots.get_mut(i as usize)?.take()?;
        self.len -= 1;
        Some(v)
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, v)| Some((i as u32, v.as_ref()?)))
    }

    /// Remove every entry, in ascending index order; the table keeps its size.
    fn drain(&mut self) -> Vec<(u32, T)> {
        self.len = 0;
        self.slots.iter_mut().enumerate().filter_map(|(i, v)| Some((i as u32, v.take()?))).collect()
    }
}

#[derive(Debug)]
struct JobState {
    tenant: TenantId,
    model: JobModel,
    /// Global arrival sequence (FIFO key).
    seq: u64,
    admitted: bool,
    started: Option<SimTime>,
    finished: Option<SimTime>,
    pending_maps: VecDeque<u32>,
    /// The four task tables are sized at admission and freed at finish, so
    /// only jobs in flight hold per-task memory.
    running_maps: TaskTable<RunningTask>,
    /// Completed map index -> node hosting its MOF.
    map_home: TaskTable<u32>,
    reduces_started: bool,
    /// (reduce index, remaining work secs).
    pending_reduces: VecDeque<(u32, f64)>,
    running_reduces: TaskTable<RunningTask>,
    /// Reducers parked on lost map output (SFM path): they keep their
    /// node's container slot while the maps regenerate.
    suspended_reduces: TaskTable<(u32, f64)>,
    reduces_done: u32,
    /// Lost maps a baseline-mode job has not yet noticed (they re-queue
    /// when the fetch treadmill bites, one liveness window later).
    deferred_maps: Vec<u32>,
    /// When the deferred loss happened (the crash instant): logged reducer
    /// progress stops there, so ALG restart points are measured there.
    deferred_since: Option<SimTime>,
    map_attempts: u32,
    reduce_attempts: u32,
    failures: Vec<(f64, FailureKind)>,
    fcm_attempts: u32,
}

impl JobState {
    fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    fn maps_done(&self) -> bool {
        self.map_home.len() == self.model.num_maps
            && self.pending_maps.is_empty()
            && self.running_maps.is_empty()
            && self.deferred_maps.is_empty()
    }

    /// Tasks of `kind` this job could launch now. A reduce is only
    /// runnable when every map output it will fetch exists; launching it
    /// against lost sources would just feed the fetch treadmill.
    fn runnable(&self, kind: SlotKind) -> u64 {
        match kind {
            SlotKind::Map => self.pending_maps.len() as u64,
            SlotKind::Reduce if self.maps_done() => self.pending_reduces.len() as u64,
            SlotKind::Reduce => 0,
        }
    }

    fn admit(&mut self) {
        let (maps, reduces) = (self.model.num_maps, self.model.num_reduces);
        self.admitted = true;
        self.pending_maps = (0..maps).collect();
        self.running_maps = TaskTable::with_tasks(maps);
        self.map_home = TaskTable::with_tasks(maps);
        self.running_reduces = TaskTable::with_tasks(reduces);
        self.suspended_reduces = TaskTable::with_tasks(reduces);
    }

    fn finish(&mut self, now: SimTime) {
        debug_assert!(
            self.running_maps.is_empty()
                && self.running_reduces.is_empty()
                && self.suspended_reduces.is_empty(),
            "a finished job holds no task"
        );
        self.finished = Some(now);
        self.pending_maps = VecDeque::new();
        self.pending_reduces = VecDeque::new();
        self.running_maps = TaskTable::default();
        self.map_home = TaskTable::default();
        self.running_reduces = TaskTable::default();
        self.suspended_reduces = TaskTable::default();
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// Instant the node died; `None` while healthy. Completion events of
    /// tasks on a dead node are phantoms and must be ignored — the work
    /// stopped at the crash, the AM just doesn't know yet.
    crashed_at: Option<SimTime>,
    free_map_slots: u32,
    free_reduce_slots: u32,
}

impl NodeState {
    fn alive(&self) -> bool {
        self.crashed_at.is_none()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Map,
    Reduce,
}

#[derive(Debug, Clone, PartialEq)]
enum Ev {
    Arrive(u32),
    MapDone {
        job: u32,
        index: u32,
    },
    ReduceDone {
        job: u32,
        index: u32,
    },
    Crash(u32),
    Detect(u32),
    /// Baseline path: the fetch treadmill of `job`'s reducers exhausts its
    /// budget against the MOFs a detected crash orphaned.
    SourceLoss {
        job: u32,
    },
    Tick,
}

/// The multi-tenant warehouse simulation. Build with [`Warehouse::new`],
/// consume with [`Warehouse::run`].
pub struct Warehouse {
    spec: WarehouseSpec,
    seed: u64,
    q: EventQueue<Ev>,
    jobs: Vec<JobState>,
    arrivals: Vec<f64>,
    nodes: Vec<NodeState>,
    /// Per-tenant arrival queues awaiting admission, in arrival order.
    /// This and the next two fields are indexed by tenant id.
    waiting: Vec<VecDeque<u32>>,
    /// Per-tenant admitted, unfinished jobs in arrival-sequence order: a
    /// job joins at admission and leaves at its last reduce. Its length is
    /// the tenant's count of running jobs.
    active: Vec<Vec<u32>>,
    held_slots: Vec<u64>,
    finished_jobs: usize,
    total_map_slots: u64,
    total_reduce_slots: u64,
    rr_cursor: u32,
}

impl Warehouse {
    /// Validate the spec and lay out the simulation. `jobs` may arrive in
    /// any order; the global FIFO sequence is (arrival time, input index).
    pub fn new(
        spec: WarehouseSpec,
        seed: u64,
        jobs: &[WarehouseJob],
        faults: &[WarehouseFault],
    ) -> Result<Warehouse, String> {
        spec.validate()?;
        for j in jobs {
            if j.tenant as usize >= spec.tenants.len() {
                return Err(format!("job references tenant {} of {}", j.tenant, spec.tenants.len()));
            }
            if !j.arrival_secs.is_finite() || j.arrival_secs < 0.0 {
                return Err(format!("job arrival {} must be finite and >= 0", j.arrival_secs));
            }
        }
        let workers = spec.cluster.worker_nodes();
        let nodes = vec![
            NodeState {
                crashed_at: None,
                free_map_slots: spec.cluster.map_slots_per_node,
                free_reduce_slots: spec.cluster.reduce_slots_per_node,
            };
            workers as usize
        ];
        // Global FIFO sequence: arrival time, ties by submission order.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .arrival_secs
                .partial_cmp(&jobs[b].arrival_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut seq_of = vec![0u64; jobs.len()];
        for (seq, &idx) in order.iter().enumerate() {
            seq_of[idx] = seq as u64;
        }
        let mut q = EventQueue::new();
        let states: Vec<JobState> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                q.schedule_at(SimTime::from_secs_f64(j.arrival_secs), Ev::Arrive(i as u32));
                JobState {
                    tenant: TenantId(j.tenant),
                    model: JobModel::derive(&j.job, &spec.cluster, &spec.yarn),
                    seq: seq_of[i],
                    admitted: false,
                    started: None,
                    finished: None,
                    pending_maps: VecDeque::new(),
                    running_maps: TaskTable::default(),
                    map_home: TaskTable::default(),
                    reduces_started: false,
                    pending_reduces: VecDeque::new(),
                    running_reduces: TaskTable::default(),
                    suspended_reduces: TaskTable::default(),
                    reduces_done: 0,
                    deferred_maps: Vec::new(),
                    deferred_since: None,
                    map_attempts: 0,
                    reduce_attempts: 0,
                    failures: Vec::new(),
                    fcm_attempts: 0,
                }
            })
            .collect();
        // Expand rack faults with the shared `node % racks` placement and
        // dedupe coinciding crash targets, mirroring chaos lowering.
        let racks = spec.cluster.racks.max(1);
        let mut seen: BTreeSet<(u32, u64)> = BTreeSet::new();
        for f in faults {
            let mut crash = |node: u32, at_secs: f64, q: &mut EventQueue<Ev>| {
                let node = node % workers.max(1);
                let at = SimTime::from_secs_f64(at_secs.max(0.0));
                if seen.insert((node, at.as_nanos())) {
                    q.schedule_at(at, Ev::Crash(node));
                }
            };
            match f {
                WarehouseFault::CrashNode { node, at_secs } => crash(*node, *at_secs, &mut q),
                WarehouseFault::CrashRack { rack, at_secs } => {
                    for n in (0..workers).filter(|n| n % racks == rack % racks) {
                        crash(n, *at_secs, &mut q);
                    }
                }
            }
        }
        q.schedule_after(SimDuration::from_ms(spec.sched.dispatch_quantum_ms), Ev::Tick);
        let tenants = spec.tenants.len();
        Ok(Warehouse {
            total_map_slots: workers as u64 * spec.cluster.map_slots_per_node as u64,
            total_reduce_slots: workers as u64 * spec.cluster.reduce_slots_per_node as u64,
            waiting: vec![VecDeque::new(); tenants],
            active: vec![Vec::new(); tenants],
            held_slots: vec![0; tenants],
            finished_jobs: 0,
            spec,
            seed,
            q,
            jobs: states,
            arrivals: jobs.iter().map(|j| j.arrival_secs).collect(),
            nodes,
            rr_cursor: 0,
        })
    }

    /// Run to completion and reduce to a [`WarehouseReport`].
    pub fn run(mut self) -> WarehouseReport {
        while let Some((_, ev)) = self.q.pop() {
            if self.q.popped_count() > MAX_EVENTS {
                break;
            }
            match ev {
                Ev::Arrive(j) => self.on_arrive(j),
                Ev::MapDone { job, index } => self.on_map_done(job, index),
                Ev::ReduceDone { job, index } => self.on_reduce_done(job, index),
                Ev::Crash(n) => self.on_crash(n),
                Ev::Detect(n) => self.on_detect(n),
                Ev::SourceLoss { job } => self.on_source_loss(job),
                Ev::Tick => self.on_tick(),
            }
        }
        self.report()
    }

    fn on_arrive(&mut self, j: u32) {
        let tenant = self.jobs[j as usize].tenant;
        self.waiting[tenant.0 as usize].push_back(j);
        self.dispatch();
    }

    fn on_tick(&mut self) {
        self.dispatch();
        let work_left = self.finished_jobs < self.jobs.len();
        let capacity_left = self.total_map_slots > 0 && self.total_reduce_slots > 0;
        if work_left && capacity_left {
            self.q.schedule_after(SimDuration::from_ms(self.spec.sched.dispatch_quantum_ms), Ev::Tick);
        }
    }

    fn on_map_done(&mut self, job: u32, index: u32) {
        let now = self.q.now();
        let job_idx = job as usize;
        // Phantom completion: the node died mid-task. Leave the task in
        // `running_maps`; detection will requeue it.
        if self.jobs[job_idx].running_maps.get(index).is_some_and(|t| !self.nodes[t.node as usize].alive()) {
            return;
        }
        let Some(task) = self.jobs[job_idx].running_maps.remove(index) else { return };
        self.release_slot(task.node, SlotKind::Map, self.jobs[job_idx].tenant);
        self.jobs[job_idx].map_home.insert(index, task.node);
        if self.jobs[job_idx].maps_done() {
            if !self.jobs[job_idx].reduces_started {
                let st = &mut self.jobs[job_idx];
                st.reduces_started = true;
                let reduce_secs = st.model.reduce_secs;
                st.pending_reduces = (0..st.model.num_reduces).map(|r| (r, reduce_secs)).collect();
            } else {
                // Regenerated the lost sources: wake the parked reducers
                // (they kept their slots; no new attempt is charged).
                for (r, (node, remaining)) in self.jobs[job_idx].suspended_reduces.drain() {
                    let token = self.q.schedule_after(
                        SimDuration::from_secs_f64(remaining),
                        Ev::ReduceDone { job, index: r },
                    );
                    self.jobs[job_idx]
                        .running_reduces
                        .insert(r, RunningTask { node, token, started: now, work_secs: remaining });
                }
            }
        }
        self.dispatch();
    }

    fn on_reduce_done(&mut self, job: u32, index: u32) {
        let job_idx = job as usize;
        // Phantom completion on a dead node: detection will requeue it.
        if self.jobs[job_idx].running_reduces.get(index).is_some_and(|t| !self.nodes[t.node as usize].alive())
        {
            return;
        }
        // Wedged on lost sources: a reducer cannot finish while some of
        // its job's map outputs are gone and not yet regenerated — it is
        // stuck in the fetch-retry treadmill. `SourceLoss` decides its
        // fate (FetchFailureLimit preemption).
        if !self.jobs[job_idx].deferred_maps.is_empty() {
            return;
        }
        let Some(task) = self.jobs[job_idx].running_reduces.remove(index) else { return };
        let tenant = self.jobs[job_idx].tenant;
        self.release_slot(task.node, SlotKind::Reduce, tenant);
        self.jobs[job_idx].reduces_done += 1;
        if self.jobs[job_idx].reduces_done == self.jobs[job_idx].model.num_reduces {
            self.finish_job(job);
        }
        self.dispatch();
    }

    fn finish_job(&mut self, job: u32) {
        let st = &mut self.jobs[job as usize];
        st.finish(self.q.now());
        self.active[st.tenant.0 as usize].retain(|&j| j != job);
        self.finished_jobs += 1;
    }

    /// Every job in flight, in job-index order: the order the handlers
    /// below schedule events in, so it fixes tie-breaks in the queue.
    fn active_jobs_by_index(&self) -> Vec<u32> {
        let mut jobs: Vec<u32> = self.active.iter().flatten().copied().collect();
        jobs.sort_unstable();
        jobs
    }

    fn on_crash(&mut self, node: u32) {
        let n = node as usize;
        if !self.nodes[n].alive() {
            return;
        }
        // The node stops accepting work immediately; everything it was
        // holding dies at *detection*, one liveness window later. Only
        // jobs in flight hold tasks.
        let (mut maps, mut reduces) = (0u64, 0u64);
        for &j in self.active.iter().flatten() {
            let st = &self.jobs[j as usize];
            maps += st.running_maps.iter().filter(|(_, t)| t.node == node).count() as u64;
            reduces += st.running_reduces.iter().filter(|(_, t)| t.node == node).count() as u64
                + st.suspended_reduces.iter().filter(|(_, (sn, _))| *sn == node).count() as u64;
        }
        self.total_map_slots -= self.nodes[n].free_map_slots as u64 + maps;
        self.total_reduce_slots -= self.nodes[n].free_reduce_slots as u64 + reduces;
        self.nodes[n].crashed_at = Some(self.q.now());
        self.nodes[n].free_map_slots = 0;
        self.nodes[n].free_reduce_slots = 0;
        let liveness = SimDuration::from_ms(self.spec.yarn.node_liveness_timeout_ms);
        self.q.schedule_after(liveness, Ev::Detect(node));
    }

    fn on_detect(&mut self, node: u32) {
        let now = self.q.now();
        let now_secs = now.as_secs_f64();
        // Work on the dead node stopped at the crash, not at detection:
        // logged progress (and thus ALG restart points) is measured there.
        let crash_t = self.nodes[node as usize].crashed_at.unwrap_or(now);
        let sfm = self.spec.mode.sfm_enabled();
        let logs = self.spec.mode.logs_enabled();
        let treadmill_secs = self.spec.yarn.node_liveness_timeout_ms as f64 / 1000.0;
        for job in self.active_jobs_by_index() {
            let job_idx = job as usize;
            let tenant = self.jobs[job_idx].tenant.0 as usize;
            // Running maps on the dead node: relaunch from the front of
            // the queue (recovery work preempts fresh work).
            let killed_maps: Vec<u32> = self.jobs[job_idx]
                .running_maps
                .iter()
                .filter(|(_, t)| t.node == node)
                .map(|(i, _)| i)
                .collect();
            for i in killed_maps {
                let Some(task) = self.jobs[job_idx].running_maps.remove(i) else { continue };
                self.q.cancel(task.token);
                let st = &mut self.jobs[job_idx];
                st.failures.push((now_secs, FailureKind::NodeCrash));
                st.pending_maps.push_front(i);
                self.held_slots[tenant] = self.held_slots[tenant].saturating_sub(1);
            }
            // Running/suspended reduces on the dead node: relaunch, from
            // logged progress when ALG is on, from zero otherwise.
            let st = &self.jobs[job_idx];
            let killed_reduces: Vec<u32> = st
                .running_reduces
                .iter()
                .filter(|(_, t)| t.node == node)
                .map(|(i, _)| i)
                .chain(st.suspended_reduces.iter().filter(|(_, (sn, _))| *sn == node).map(|(i, _)| i))
                .collect();
            for r in killed_reduces {
                let st = &mut self.jobs[job_idx];
                let remaining = if let Some(task) = st.running_reduces.remove(r) {
                    self.q.cancel(task.token);
                    task.remaining_at(crash_t)
                } else if let Some((_, rem)) = st.suspended_reduces.remove(r) {
                    rem
                } else {
                    continue;
                };
                st.failures.push((now_secs, FailureKind::NodeCrash));
                let restart = if logs { remaining } else { st.model.reduce_secs };
                st.pending_reduces.push_front((r, restart));
                if sfm {
                    st.fcm_attempts += 1;
                }
                self.held_slots[tenant] = self.held_slots[tenant].saturating_sub(1);
            }
            // Orphaned MOFs: completed maps that lived on the dead node
            // and are still needed by unfinished reducers.
            let lost_mofs: Vec<u32> =
                self.jobs[job_idx].map_home.iter().filter(|(_, n)| **n == node).map(|(i, _)| i).collect();
            if lost_mofs.is_empty() {
                continue;
            }
            let st = &mut self.jobs[job_idx];
            for &i in &lost_mofs {
                st.map_home.remove(i);
            }
            if sfm || !st.reduces_started {
                // Proactive regeneration (or nothing is fetching yet):
                // the maps re-queue immediately.
                for i in lost_mofs {
                    st.pending_maps.push_front(i);
                }
                if sfm && st.reduces_started {
                    // Park the job's running reducers on the missing
                    // source; they keep their containers.
                    for (r, task) in st.running_reduces.drain() {
                        self.q.cancel(task.token);
                        st.suspended_reduces.insert(r, (task.node, task.remaining_at(now)));
                        st.fcm_attempts += 1;
                    }
                }
            } else {
                // Baseline/ALG: the AM only learns through the reducers'
                // fetch treadmill, one more liveness window from now.
                st.deferred_maps.extend(lost_mofs);
                st.deferred_since.get_or_insert(crash_t);
                self.q.schedule_after(SimDuration::from_secs_f64(treadmill_secs), Ev::SourceLoss { job });
            }
        }
        self.dispatch();
    }

    fn on_source_loss(&mut self, job: u32) {
        let now = self.q.now();
        let now_secs = now.as_secs_f64();
        let job_idx = job as usize;
        if self.jobs[job_idx].deferred_maps.is_empty() || self.jobs[job_idx].is_finished() {
            return;
        }
        let logs = self.spec.mode.logs_enabled();
        let tenant = self.jobs[job_idx].tenant;
        // Every running reducer of the job burned its retry budget against
        // the lost sources: FetchFailureLimit preemption — the spatial
        // amplification record.
        let preempted = self.jobs[job_idx].running_reduces.drain();
        // Logged progress stops where the sources vanished (the crash
        // instant): time spent wedged in the fetch treadmill is not
        // restorable progress.
        let logged_until = self.jobs[job_idx].deferred_since.take().unwrap_or(now);
        for (r, task) in preempted {
            self.q.cancel(task.token);
            let st = &mut self.jobs[job_idx];
            st.failures.push((now_secs, FailureKind::FetchFailureLimit));
            let restart = if logs { task.remaining_at(logged_until) } else { st.model.reduce_secs };
            st.pending_reduces.push_back((r, restart));
            self.release_slot(task.node, SlotKind::Reduce, tenant);
        }
        let lost: Vec<u32> = std::mem::take(&mut self.jobs[job_idx].deferred_maps);
        for i in lost {
            self.jobs[job_idx].pending_maps.push_front(i);
        }
        self.dispatch();
    }

    fn release_slot(&mut self, node: u32, kind: SlotKind, tenant: TenantId) {
        let n = node as usize;
        if self.nodes[n].alive() {
            match kind {
                SlotKind::Map => self.nodes[n].free_map_slots += 1,
                SlotKind::Reduce => self.nodes[n].free_reduce_slots += 1,
            }
        }
        let held = &mut self.held_slots[tenant.0 as usize];
        *held = held.saturating_sub(1);
    }

    /// Round-robin placement over alive nodes with a free slot of `kind`.
    fn place(&mut self, kind: SlotKind) -> Option<u32> {
        let n = self.nodes.len() as u32;
        for step in 0..n {
            let node = (self.rr_cursor + step) % n;
            let s = &mut self.nodes[node as usize];
            let free = match kind {
                SlotKind::Map => &mut s.free_map_slots,
                SlotKind::Reduce => &mut s.free_reduce_slots,
            };
            if s.crashed_at.is_none() && *free > 0 {
                *free -= 1;
                self.rr_cursor = (node + 1) % n;
                return Some(node);
            }
        }
        None
    }

    fn admit(&mut self) {
        let cap = self.spec.sched.max_concurrent_jobs_per_tenant as usize;
        for (waiting, active) in self.waiting.iter_mut().zip(&mut self.active) {
            while active.len() < cap {
                let Some(j) = waiting.pop_front() else { break };
                self.jobs[j as usize].admit();
                let seq = self.jobs[j as usize].seq;
                let at = active.partition_point(|&a| self.jobs[a as usize].seq < seq);
                active.insert(at, j);
            }
        }
    }

    /// Fill `view` with every tenant's row for `kind`, folding over the
    /// jobs in flight only.
    fn view_for(&self, kind: SlotKind, view: &mut Vec<TenantView>) {
        view.clear();
        for (t, active) in self.active.iter().enumerate() {
            let mut row = self.empty_row(t);
            for &j in active {
                let st = &self.jobs[j as usize];
                let runnable = st.runnable(kind);
                if runnable > 0 {
                    row.runnable_tasks += runnable;
                    row.head_arrival_seq = row.head_arrival_seq.min(st.seq);
                }
            }
            view.push(row);
        }
    }

    fn empty_row(&self, tenant: usize) -> TenantView {
        let spec = &self.spec.tenants[tenant];
        TenantView {
            runnable_tasks: 0,
            running_slots: self.held_slots[tenant],
            weight: spec.weight,
            guaranteed_share_pct: spec.guaranteed_share_pct,
            head_arrival_seq: u64::MAX,
        }
    }

    /// The earliest-arrived job in flight of `tenant` with pending work of
    /// `kind`.
    fn next_job_of(&self, tenant: TenantId, kind: SlotKind) -> Option<u32> {
        self.active[tenant.0 as usize].iter().copied().find(|&j| self.jobs[j as usize].runnable(kind) > 0)
    }

    /// Test oracle for the incremental state: recompute the active lists
    /// and both views by a full scan over every submitted job, and panic
    /// on any difference. Also checks that no job outside the active lists
    /// holds a task, which is what lets the crash handlers skip them.
    fn check_incremental_state(&self) {
        let in_flight = |st: &JobState| st.admitted && !st.is_finished();
        let mut by_seq: Vec<u32> =
            (0..self.jobs.len() as u32).filter(|&j| in_flight(&self.jobs[j as usize])).collect();
        by_seq.sort_by_key(|&j| self.jobs[j as usize].seq);
        let mut active = vec![Vec::new(); self.active.len()];
        for &j in &by_seq {
            active[self.jobs[j as usize].tenant.0 as usize].push(j);
        }
        assert_eq!(active, self.active, "active lists drifted from a full scan");
        let finished = self.jobs.iter().filter(|st| st.is_finished()).count();
        assert_eq!(finished, self.finished_jobs, "finished-job count drifted");
        for st in self.jobs.iter().filter(|st| !in_flight(st)) {
            assert!(
                st.running_maps.is_empty()
                    && st.running_reduces.is_empty()
                    && st.suspended_reduces.is_empty(),
                "a job out of flight holds a task"
            );
        }
        for kind in [SlotKind::Map, SlotKind::Reduce] {
            let mut full: Vec<TenantView> = (0..self.active.len()).map(|t| self.empty_row(t)).collect();
            for st in self.jobs.iter().filter(|st| in_flight(st)) {
                let runnable = st.runnable(kind);
                if runnable > 0 {
                    let row = &mut full[st.tenant.0 as usize];
                    row.runnable_tasks += runnable;
                    row.head_arrival_seq = row.head_arrival_seq.min(st.seq);
                }
            }
            let mut view = Vec::new();
            self.view_for(kind, &mut view);
            assert_eq!(view, full, "{kind:?} view drifted from a full scan");
        }
    }

    fn dispatch(&mut self) {
        self.admit();
        if cfg!(debug_assertions) {
            self.check_incremental_state();
        }
        // A fresh policy per round: burst state never outlives one dispatch.
        let mut policy = policy_for(&self.spec.sched);
        let mut view = Vec::with_capacity(self.active.len());
        for kind in [SlotKind::Map, SlotKind::Reduce] {
            loop {
                self.view_for(kind, &mut view);
                if view.iter().all(|t| t.runnable_tasks == 0) {
                    break;
                }
                let total_slots = match kind {
                    SlotKind::Map => self.total_map_slots,
                    SlotKind::Reduce => self.total_reduce_slots,
                };
                let Some(winner) = policy.pick(&SchedView { tenants: &view, total_slots }) else { break };
                let Some(job) = self.next_job_of(winner, kind) else { break };
                let Some(node) = self.place(kind) else { break };
                let now = self.q.now();
                let job_idx = job as usize;
                match kind {
                    SlotKind::Map => {
                        let Some(index) = self.jobs[job_idx].pending_maps.pop_front() else {
                            self.release_slot(node, kind, winner);
                            break;
                        };
                        let work = self.jobs[job_idx].model.map_secs;
                        let token = self
                            .q
                            .schedule_after(SimDuration::from_secs_f64(work), Ev::MapDone { job, index });
                        let st = &mut self.jobs[job_idx];
                        st.running_maps
                            .insert(index, RunningTask { node, token, started: now, work_secs: work });
                        st.map_attempts += 1;
                    }
                    SlotKind::Reduce => {
                        let Some((index, work)) = self.jobs[job_idx].pending_reduces.pop_front() else {
                            self.release_slot(node, kind, winner);
                            break;
                        };
                        let token = self
                            .q
                            .schedule_after(SimDuration::from_secs_f64(work), Ev::ReduceDone { job, index });
                        let st = &mut self.jobs[job_idx];
                        st.running_reduces
                            .insert(index, RunningTask { node, token, started: now, work_secs: work });
                        st.reduce_attempts += 1;
                    }
                }
                let st = &mut self.jobs[job_idx];
                if st.started.is_none() {
                    st.started = Some(now);
                }
                self.held_slots[winner.0 as usize] += 1;
            }
        }
    }

    fn report(self) -> WarehouseReport {
        let mut outcomes: Vec<JobOutcome> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let arrival_secs = self.arrivals[i];
                let finish_secs = st.finished.map(|t| t.as_secs_f64()).unwrap_or(-1.0);
                let latency_secs =
                    if finish_secs >= 0.0 { (finish_secs - arrival_secs).max(0.0) } else { -1.0 };
                let slowdown = if latency_secs >= 0.0 && st.model.ideal_secs > 0.0 {
                    latency_secs / st.model.ideal_secs
                } else {
                    -1.0
                };
                JobOutcome {
                    job: i as u32,
                    seq: st.seq,
                    tenant: st.tenant.0,
                    tenant_name: self.spec.tenants[st.tenant.0 as usize].name.clone(),
                    arrival_secs,
                    start_secs: st.started.map(|t| t.as_secs_f64()).unwrap_or(-1.0),
                    finish_secs,
                    latency_secs,
                    ideal_secs: st.model.ideal_secs,
                    slowdown,
                    map_attempts: st.map_attempts,
                    reduce_attempts: st.reduce_attempts,
                    failures: st.failures.len() as u32,
                    fetch_failures: st
                        .failures
                        .iter()
                        .filter(|(_, k)| *k == FailureKind::FetchFailureLimit)
                        .count() as u32,
                    node_loss_failures: st
                        .failures
                        .iter()
                        .filter(|(_, k)| *k == FailureKind::NodeCrash)
                        .count() as u32,
                    fcm_attempts: st.fcm_attempts,
                    succeeded: st.is_finished(),
                }
            })
            .collect();
        outcomes.sort_by_key(|o| (o.seq, o.job));
        WarehouseReport {
            policy: self.spec.sched.policy.as_str().to_string(),
            mode: self.spec.mode,
            seed: self.seed,
            nodes: self.spec.cluster.worker_nodes(),
            tenants: self.spec.tenants.iter().map(|t| t.name.clone()).collect(),
            jobs: outcomes,
            events: self.q.popped_count(),
            horizon_secs: self.q.now().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedPolicyKind;
    use alm_workloads::WorkloadKind;

    /// Tenant 0 submits `jobs` one-second-apart jobs; tenant 1 submits none.
    fn warehouse(jobs: u32, cap: u32) -> Warehouse {
        let sched = SchedConfig {
            max_concurrent_jobs_per_tenant: cap,
            ..SchedConfig::scaled_for_tests(SchedPolicyKind::Fifo)
        };
        let tenants = vec![TenantSpec::new("a", 1, 50), TenantSpec::new("b", 1, 50)];
        let spec = WarehouseSpec::warehouse(20, sched, tenants, RecoveryMode::Baseline);
        let jobs: Vec<WarehouseJob> = (0..jobs)
            .map(|i| WarehouseJob {
                tenant: 0,
                arrival_secs: i as f64,
                job: SimJobSpec::new(WorkloadKind::Wordcount, alm_types::units::GB, 4, i as u64),
            })
            .collect();
        Warehouse::new(spec, 1, &jobs, &[]).expect("valid warehouse")
    }

    #[test]
    fn dispatch_offers_only_jobs_in_flight() {
        // Jobs 0..=2 are admitted (the cap is 3); job 3 waits.
        let mut w = warehouse(4, 3);
        w.waiting[0].extend(0..4);
        w.admit();
        assert_eq!(w.active, [vec![0, 1, 2], vec![]]);
        // Job 0 finishes; job 1 has every map launched, so job 2 is the
        // oldest job in flight with a map to run.
        w.finish_job(0);
        w.jobs[1].pending_maps.clear();
        w.check_incremental_state();
        // Give the finished and the waiting job map work anyway: only the
        // active lists may decide what the policy sees.
        w.jobs[0].pending_maps.extend(0..5);
        w.jobs[3].pending_maps.extend(0..7);
        let mut view = Vec::new();
        w.view_for(SlotKind::Map, &mut view);
        assert_eq!(view.len(), 2);
        assert_eq!(view[0].runnable_tasks, w.jobs[2].pending_maps.len() as u64);
        assert_eq!(view[0].head_arrival_seq, w.jobs[2].seq);
        assert_eq!(view[1].runnable_tasks, 0);
        assert_eq!(w.next_job_of(TenantId(0), SlotKind::Map), Some(2));
        assert_eq!(w.next_job_of(TenantId(0), SlotKind::Reduce), None);
        assert_eq!(w.next_job_of(TenantId(1), SlotKind::Map), None);
        // Once job 1 has a map to run again, it is the oldest runnable.
        w.jobs[1].pending_maps.push_back(0);
        assert_eq!(w.next_job_of(TenantId(0), SlotKind::Map), Some(1));
    }

    #[test]
    fn task_table_is_a_dense_ordered_map() {
        let mut t: TaskTable<u32> = TaskTable::with_tasks(4);
        t.insert(3, 30);
        t.insert(1, 10);
        t.insert(1, 11);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1), Some(&11));
        assert_eq!(t.get(9), None);
        assert_eq!(t.iter().map(|(i, v)| (i, *v)).collect::<Vec<_>>(), [(1, 11), (3, 30)]);
        assert_eq!(t.remove(3), Some(30));
        assert_eq!(t.remove(3), None);
        assert_eq!(t.drain(), [(1, 11)]);
        assert!(t.is_empty());
        assert_eq!(t.slots.len(), 4);
    }
}
