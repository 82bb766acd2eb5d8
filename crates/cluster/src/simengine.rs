//! The virtual-time execution engine.
//!
//! Takes a [`DistFs`](dfs::DistFs) model, a set of worker processes with
//! their operation streams, and runs the whole benchmark in virtual time —
//! producing exactly the per-process time-interval progress logs that
//! DMetabench records on real systems (paper §3.2.5): every 0.1 s of
//! *virtual* time, each worker's operations-completed counter is sampled.
//!
//! The engine owns the generic resources (per-node processor-sharing CPUs,
//! per-server FIFO queues, semaphores) and executes the stage plans the
//! model compiles. Disturbances (CPU hogs, server pauses for snapshots,
//! competing sequential writes — Figs. 4.4–4.7) are injected here.
//!
//! # One engine: one domain or a partition
//!
//! Every run is a set of domains driven by the conservative window runtime
//! of `simcore::par`, each with its own scheduler, resources and workers.
//! A run without a partition is a single *solo* domain that owns everything:
//! it seeds its RNG with the run seed, records into the caller's telemetry
//! capture, runs in one window and stops at its last worker's finish — so
//! it pops events in exactly the global `(time, seq)` order of a sequential
//! loop over one scheduler, and supports every feature.
//!
//! A partitioned run (`--sim-threads`, see `parsim`) gets one domain per
//! entry of the model's [`dfs::PartitionPlan`]: disjoint server groups and
//! client nodes that interact only through the network. A worker's
//! `NetDelay → Server(remote) → NetDelay` stage triple becomes a request
//! message that lands on the server's domain one network latency later (≥
//! the lookahead, by construction), and the reply message resumes the
//! worker the same way. Everything that could depend on interleaving is
//! per-domain: each domain's RNG derives purely from `(seed, domain)`,
//! mailbox drains are canonically ordered by `simcore::par`, and telemetry
//! goes to per-domain captures absorbed in domain order — so partitioned
//! results, traces and timeseries are byte-identical at every thread count
//! (pinned by `tests/parsim_determinism.rs`). Features that couple domains
//! through non-network state (semaphores, pauses, background jobs, model
//! timers, disturbances) are refused with a structured
//! [`PartitionUnsupported`].

use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};

use dfs::{BackgroundJob, ClientCtx, DistFs, MetaOp, OpPlan, Stage};
use simcore::par::{self, Envelope, Outbox, WindowDomain};
use simcore::{
    prof, telemetry, DetRng, FifoResource, JobId, LatencyHistogram, PsResource, Scheduler,
    Semaphore, SimDuration, SimTime,
};

use crate::parsim::{PartitionUnsupported, PartitionedFeature};

/// A source of operations for one worker.
///
/// `index` is the number of operations the worker has completed so far;
/// returning `None` ends the worker (fixed problem size). Duration-bounded
/// benchmarks return `Some` forever and rely on the engine deadline.
pub trait OpStream: Send {
    /// Produce the next operation.
    fn next_op(&mut self, index: u64) -> Option<MetaOp>;
}

impl<F: FnMut(u64) -> Option<MetaOp> + Send> OpStream for F {
    fn next_op(&mut self, index: u64) -> Option<MetaOp> {
        self(index)
    }
}

/// One benchmark worker process.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Node (OS instance) the worker runs on.
    pub node: usize,
    /// Process index within the node.
    pub proc: usize,
    /// CPU scheduling weight (1.0 = normal; >1 favoured as by a negative
    /// `nice`, <1 disfavoured — paper §4.4).
    pub cpu_weight: f64,
}

impl WorkerSpec {
    /// A normal-priority worker.
    pub fn new(node: usize, proc: usize) -> Self {
        WorkerSpec {
            node,
            proc,
            cpu_weight: 1.0,
        }
    }
}

/// An external disturbance injected into the run (paper §4.2.3).
#[derive(Debug, Clone)]
pub enum Disturbance {
    /// CPU-intensive competitor processes on one node (the `stress` tool of
    /// Fig. 4.4): consumes a processor-sharing share of the node's CPU.
    CpuHog {
        /// Affected node.
        node: usize,
        /// Start time.
        start: SimTime,
        /// End time.
        end: SimTime,
        /// PS weight of the hog (e.g. number of hog processes).
        weight: f64,
    },
    /// A server pause — e.g. the filer creating snapshots (Fig. 4.5).
    ServerPause {
        /// Paused server (model resource index).
        server: usize,
        /// When the pause begins.
        at: SimTime,
        /// How long it lasts.
        duration: SimDuration,
    },
    /// Sustained extra server load — e.g. a large sequential write stream
    /// to the filer (Fig. 4.7): one background job every `interval`.
    ServerLoad {
        /// Loaded server.
        server: usize,
        /// Start time.
        start: SimTime,
        /// End time.
        end: SimTime,
        /// Service demand per injected job.
        demand: SimDuration,
        /// Injection period.
        interval: SimDuration,
    },
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Progress-sampling interval (the paper's default is 0.1 s).
    pub sample_interval: SimDuration,
    /// Wall-clock bound for duration-type benchmarks (e.g. MakeFiles runs
    /// 60 s); `None` = run until all streams end.
    pub duration: Option<SimDuration>,
    /// CPU cores per client node.
    pub node_cores: usize,
    /// RNG seed (runs are bit-for-bit reproducible per seed).
    pub seed: u64,
    /// Injected disturbances.
    pub disturbances: Vec<Disturbance>,
    /// Use the model's partition even when `--sim-threads` is unset (then on
    /// up to two host cores, at most one thread per domain, and on one
    /// thread inside a suite running several scenarios at once). A
    /// partitioned run is bit-identical at every thread count, but its
    /// tie-breaking of *same-instant* contention across domains can differ
    /// from a one-domain run's; scenario bodies that measure a partitionable
    /// model under contention set this so their blessed baselines hold at
    /// any `--sim-threads` setting. Models without a partition are
    /// unaffected.
    pub pin_windowed_engine: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            sample_interval: SimDuration::from_millis(100),
            duration: None,
            node_cores: 8,
            seed: 42,
            disturbances: Vec::new(),
            pin_windowed_engine: false,
        }
    }
}

/// Per-worker result: the time-interval progress log plus totals.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Node index.
    pub node: usize,
    /// Node display name.
    pub node_name: String,
    /// Process index within the node.
    pub proc: usize,
    /// `(timestamp, operations completed)` samples on the common grid.
    pub samples: Vec<(SimTime, u64)>,
    /// Total operations completed.
    pub ops_done: u64,
    /// Operations that failed (plan errors).
    pub errors: u64,
    /// When the worker finished (`None` = still running at engine stop,
    /// which cannot happen in a completed run).
    pub finished_at: Option<SimTime>,
    /// Per-operation latency distribution.
    pub latency: LatencyHistogram,
    /// RPC retransmissions this worker's operations performed (0 unless a
    /// fault plan is active).
    pub retries: u64,
    /// Failover events this worker's operations were the first to observe.
    pub failovers: u64,
}

/// The outcome of one simulated benchmark run.
#[derive(Debug, Clone)]
pub struct SimRunResult {
    /// Model name.
    pub fs_name: String,
    /// Sampling interval used.
    pub interval: SimDuration,
    /// Per-worker traces, in worker order.
    pub workers: Vec<WorkerTrace>,
    /// Virtual time when the last worker finished.
    pub wall_time: SimTime,
}

impl SimRunResult {
    /// Total operations across all workers.
    pub fn total_ops(&self) -> u64 {
        self.workers.iter().map(|w| w.ops_done).sum()
    }

    /// Total RPC retransmissions across all workers (fault injection).
    pub fn total_retries(&self) -> u64 {
        self.workers.iter().map(|w| w.retries).sum()
    }

    /// Total failover events observed across all workers.
    pub fn total_failovers(&self) -> u64 {
        self.workers.iter().map(|w| w.failovers).sum()
    }

    /// Merged per-operation latency distribution across all workers.
    pub fn latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for w in &self.workers {
            h.merge(&w.latency);
        }
        h
    }

    /// Wall-clock average throughput in operations/second (§3.2.5 "global
    /// throughput approach").
    pub fn wallclock_ops_per_sec(&self) -> f64 {
        let t = self.wall_time.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.total_ops() as f64 / t
        }
    }

    /// Stonewall average: total ops completed up to the moment the *first*
    /// worker finished, divided by that time (§3.2.5, IOzone's approach).
    pub fn stonewall_ops_per_sec(&self) -> f64 {
        let first_finish = self
            .workers
            .iter()
            .filter_map(|w| w.finished_at)
            .min()
            .unwrap_or(self.wall_time);
        let t = first_finish.as_secs_f64();
        if t <= 0.0 {
            return 0.0;
        }
        let total_at: u64 = self
            .workers
            .iter()
            .map(|w| {
                w.samples
                    .iter()
                    .take_while(|(ts, _)| *ts <= first_finish)
                    .map(|&(_, n)| n)
                    .last()
                    .unwrap_or(0)
            })
            .sum();
        total_at as f64 / t
    }
}

/// Job ids: a worker's is its index within its domain; background jobs,
/// CPU hogs and proxies for remote requests live above these bases.
const BG_BASE: u64 = 1 << 40;
const HOG_BASE: u64 = 1 << 41;
const REMOTE_BASE: u64 = 1 << 42;

/// A slab with recycled slots, so steady-state churn neither hashes nor
/// allocates: background jobs in flight (job id `BG_BASE + slot`) and remote
/// requests being served (proxy job id `REMOTE_BASE + slot`). Id reuse is
/// safe because these ids only identify FIFO-queue entries (queue order,
/// not id order, decides service) and a slot holds one live entry at a time.
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, entry: T) -> u64 {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(entry);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("slab overflow");
                self.slots.push(Some(entry));
                idx
            }
        };
        u64::from(idx)
    }

    fn get(&self, slot: u64) -> &T {
        self.slots[slot as usize].as_ref().expect("live slab entry")
    }

    fn remove(&mut self, slot: u64) -> Option<T> {
        let entry = self.slots.get_mut(slot as usize)?.take();
        if entry.is_some() {
            self.free.push(slot as u32);
        }
        entry
    }
}

#[derive(Debug)]
enum Ev {
    /// Start every local worker (the t = 0 MPI barrier, §3.3.3). Always the
    /// first event a domain schedules, so nothing at t = 0 runs before it.
    Kick,
    StageCompleted {
        job: JobId,
    },
    CpuDone {
        node: usize,
        generation: u64,
    },
    ServerDone {
        server: usize,
        job: JobId,
    },
    PauseEnd {
        server: usize,
    },
    Sample,
    ModelTimer,
    HogStart {
        node: usize,
        job: JobId,
        weight: f64,
    },
    HogEnd {
        node: usize,
        job: JobId,
    },
    LoadTick {
        idx: usize,
    },
    /// A remote request (slab slot) reaches its server.
    ReqArrive {
        slot: u64,
    },
    /// The reply to global worker `worker`'s remote RPC arrives.
    ReplyArrive {
        worker: usize,
    },
}

/// A cross-domain message.
enum Msg {
    /// An RPC request entering the server's domain. `deliver_at` of the
    /// envelope is the arrival instant (send time + request latency).
    Req(RemoteJob),
    /// The RPC response re-entering the client's domain; resumes the worker.
    Reply {
        /// Global worker index.
        worker: usize,
    },
}

/// A remote request: sent by the client's domain, served in the server's.
struct RemoteJob {
    /// Global server index.
    server: usize,
    /// Service demand at the server.
    demand: SimDuration,
    /// Response network latency, applied after service completes.
    resp_delay: SimDuration,
    /// Global worker index awaiting the reply.
    worker: usize,
}

/// The in-flight remote RPC of a local worker (the intercepted
/// `NetDelay → Server → NetDelay` stage run).
struct RemoteRpc {
    /// Stages consumed by the interception (2 without a trailing NetDelay,
    /// 3 with).
    skip: usize,
    /// Request plus response latency.
    network_ns: u64,
    demand_ns: u64,
}

/// Per-segment latency accumulators for the operation in flight. The
/// engine's invariant: every virtual nanosecond between op start and op
/// completion is spent inside exactly one blocking stage, so the five
/// segments sum exactly to the op's end-to-end latency (audited at every
/// op completion in debug builds).
#[derive(Debug, Clone, Copy, Default)]
struct SegAcc {
    client_ns: u64,
    network_ns: u64,
    queue_ns: u64,
    service_ns: u64,
    lock_ns: u64,
}

impl SegAcc {
    fn total(self) -> u64 {
        self.client_ns + self.network_ns + self.queue_ns + self.service_ns + self.lock_ns
    }
}

struct WState {
    spec: WorkerSpec,
    /// Global worker index (telemetry track id, result placement).
    global: usize,
    /// Pooled plan buffer, refilled in place by `DistFs::plan_into` for
    /// every operation (meaningful only while `active`). Its stage /
    /// background / pause vectors keep their capacity across ops, so
    /// steady-state planning performs zero allocations.
    plan: OpPlan,
    /// Whether `plan` describes an operation currently in flight.
    active: bool,
    stage: usize,
    /// Operations pulled from the stream (audit: issued = completed +
    /// failed at run end).
    #[cfg(debug_assertions)]
    issued: u64,
    ops_done: u64,
    errors: u64,
    finished_at: Option<SimTime>,
    samples: Vec<(SimTime, u64)>,
    op_started: SimTime,
    latency: LatencyHistogram,
    retries: u64,
    failovers: u64,
    /// Telemetry label of the operation in flight.
    op_name: &'static str,
    /// When the worker started blocking on a semaphore (telemetry only).
    sem_wait_start: Option<SimTime>,
    /// Causal id of the op span in flight (0 while telemetry is off).
    op_id: u64,
    /// When the worker entered its current blocking stage (critical-path
    /// attribution anchor; always advanced to `now` on stage completion).
    stage_entered: SimTime,
    /// Segment accumulators for the op in flight.
    seg: SegAcc,
    /// Cache outcome of the plan in flight.
    cache: telemetry::CacheTag,
    /// Flow id of the server RPC in flight (telemetry only).
    rpc_flow: Option<u64>,
    /// The remote RPC in flight (partitioned runs only).
    remote: Option<RemoteRpc>,
}

impl WState {
    fn new(global: usize, spec: WorkerSpec, sample_cap: usize) -> Self {
        WState {
            spec,
            global,
            plan: OpPlan::default(),
            active: false,
            stage: 0,
            #[cfg(debug_assertions)]
            issued: 0,
            ops_done: 0,
            errors: 0,
            finished_at: None,
            samples: Vec::with_capacity(sample_cap),
            op_started: SimTime::ZERO,
            latency: LatencyHistogram::new(),
            retries: 0,
            failovers: 0,
            op_name: "op",
            sem_wait_start: None,
            op_id: 0,
            stage_entered: SimTime::ZERO,
            seg: SegAcc::default(),
            cache: telemetry::CacheTag::Untagged,
            rpc_flow: None,
            remote: None,
        }
    }
}

/// Telemetry span name for an operation: its kind name, except that
/// traces spell open-close with a hyphen.
fn op_label(op: &MetaOp) -> &'static str {
    match op {
        MetaOp::OpenClose { .. } => "open-close",
        _ => op.kind_name(),
    }
}

/// One domain of a run: a scheduler, the servers and client nodes it owns,
/// a model (the caller's, or a partition replica), its workers and their
/// streams.
///
/// Cache-line aligned: neighbouring domains usually run on different
/// threads, and the per-event fields at the start of one must not share a
/// line with the tail of the other.
#[repr(align(128))]
struct Domain<'run> {
    idx: usize,
    /// The run's only domain. It owns every server, node and worker, so it
    /// may use the features that would couple domains (semaphores, pauses,
    /// background jobs, disturbances, model timers), and it stops at its
    /// last worker's finish, as a sequential `while unfinished > 0` loop
    /// does.
    solo: bool,
    model: &'run mut dyn DistFs,
    sched: Scheduler<Ev>,
    /// FIFO stations indexed by *global* server id (`Some` iff owned).
    servers: Vec<Option<FifoResource>>,
    /// CPU resources indexed by *global* node id (`Some` iff owned).
    cpus: Vec<Option<PsResource>>,
    sems: Vec<Semaphore>,
    rng: DetRng,
    states: Vec<WState>,
    streams: Vec<Box<dyn OpStream>>,
    /// Background jobs in flight: (job, arrival, causal parent op id).
    bg: Slab<(BackgroundJob, SimTime, u64)>,
    /// Remote requests queued at or served by this domain's servers.
    remote: Slab<RemoteJob>,
    unfinished: usize,
    /// Domain of every global server / worker (for message routing).
    server_domain: &'run [usize],
    worker_domain: &'run [usize],
    /// Local index of every global worker in its owning domain.
    worker_local: &'run [usize],
    disturbances: &'run [Disturbance],
    sample_interval: SimDuration,
    deadline: Option<SimTime>,
    /// This domain's telemetry capture (partitioned traced runs only);
    /// swapped onto the executing thread around every window. A solo
    /// domain records straight into the caller's capture.
    cap: Option<telemetry::ThreadCapture>,
    pid: u32,
}

fn server_arrive(
    sched: &mut Scheduler<Ev>,
    servers: &mut [Option<FifoResource>],
    server: usize,
    job: JobId,
    demand: SimDuration,
    now: SimTime,
) {
    let srv = servers[server]
        .as_mut()
        .expect("server owned by this domain");
    if let Some(start) = srv.arrive(now, job, demand) {
        sched.schedule_at(
            start.completes_at,
            Ev::ServerDone {
                server,
                job: start.job,
            },
        );
    }
}

fn apply_pause(
    sched: &mut Scheduler<Ev>,
    servers: &mut [Option<FifoResource>],
    server: usize,
    duration: SimDuration,
    now: SimTime,
    pid: u32,
    label: &'static str,
) {
    let until = now + duration;
    telemetry::span(pid, telemetry::server_tid(server), label, "cp", now, until);
    servers[server]
        .as_mut()
        .expect("server owned by this domain")
        .pause_until(until);
    sched.schedule_at(until, Ev::PauseEnd { server });
}

impl Domain<'_> {
    /// Open the domain's trace process and schedule its first events: the
    /// kick, then disturbances, the model timer and the first sample.
    fn begin(&mut self, node_names: &[String], resources: &dfs::FsResources) {
        self.with_capture(|dom| {
            // One trace "process" per domain, with one named track per
            // worker and per owned server (all no-ops unless a telemetry
            // capture is active on this thread).
            dom.pid = telemetry::begin_run(dom.model.name());
            if !telemetry::enabled() {
                return;
            }
            for st in &dom.states {
                telemetry::name_track(
                    dom.pid,
                    telemetry::worker_tid(st.global),
                    &format!("{}/p{}", node_names[st.spec.node], st.spec.proc),
                );
            }
            for (s, owned) in dom.servers.iter().enumerate() {
                if owned.is_some() {
                    let name = &resources.servers[s].name;
                    telemetry::name_track(dom.pid, telemetry::server_tid(s), name);
                }
            }
            for (i, spec) in resources.semaphores.iter().enumerate() {
                telemetry::name_track(dom.pid, telemetry::sem_tid(i), &spec.name);
            }
            telemetry::name_track(dom.pid, telemetry::ENGINE_TID, "engine");
        });
        self.sched.schedule_at(SimTime::ZERO, Ev::Kick);
        for (idx, d) in self.disturbances.iter().enumerate() {
            match d {
                Disturbance::CpuHog {
                    node,
                    start,
                    end,
                    weight,
                } => {
                    let job = JobId(HOG_BASE + idx as u64);
                    self.sched.schedule_at(
                        *start,
                        Ev::HogStart {
                            node: *node,
                            job,
                            weight: *weight,
                        },
                    );
                    self.sched
                        .schedule_at(*end, Ev::HogEnd { node: *node, job });
                }
                Disturbance::ServerPause { at: start, .. }
                | Disturbance::ServerLoad { start, .. } => {
                    self.sched.schedule_at(*start, Ev::LoadTick { idx });
                }
            }
        }
        if let Some(t) = self.model.first_timer() {
            self.sched.schedule_at(t, Ev::ModelTimer);
        }
        if !self.states.is_empty() {
            self.sched
                .schedule_at(SimTime::ZERO + self.sample_interval, Ev::Sample);
        }
    }

    /// Whether the run is over for this domain: a solo domain stops at its
    /// last worker's finish, so a queued timer, hog end or background
    /// completion never fires after it.
    fn halted(&self) -> bool {
        self.solo && self.unfinished == 0
    }

    /// Abort a partitioned run that uses a feature coupling domains. The
    /// typed panic unwinds through the window runtime (which rethrows the
    /// original payload) and becomes a structured error in `run_sim_checked`.
    fn refuse_unless_solo(&self, feature: PartitionedFeature) {
        if !self.solo {
            panic_any(PartitionUnsupported {
                model: self.model.name().to_owned(),
                feature,
            });
        }
    }

    fn schedule_cpu(&mut self, node: usize, now: SimTime) {
        let cpu = self.cpus[node].as_mut().expect("CPU owned by this domain");
        if let Some(c) = cpu.next_completion(now) {
            self.sched.schedule_at(
                c.at,
                Ev::CpuDone {
                    node,
                    generation: c.generation,
                },
            );
        }
    }

    fn finish_worker(&mut self, w: usize, now: SimTime) {
        let st = &mut self.states[w];
        if st.finished_at.is_none() {
            st.finished_at = Some(now);
            st.samples.push((now, st.ops_done));
            self.unfinished -= 1;
        }
    }

    /// Start the next operation of local worker `w`, or mark it finished.
    /// Returns whether the worker obtained a plan and should advance.
    fn start_op(&mut self, w: usize) -> bool {
        let now = self.sched.now();
        loop {
            if self.deadline.is_some_and(|d| now >= d) {
                self.finish_worker(w, now);
                return false;
            }
            let st = &mut self.states[w];
            let Some(op) = self.streams[w].next_op(st.ops_done) else {
                self.finish_worker(w, now);
                return false;
            };
            #[cfg(debug_assertions)]
            {
                st.issued += 1;
            }
            let client = ClientCtx {
                node: st.spec.node,
                proc: st.spec.proc,
            };
            if self
                .model
                .plan_into(client, &op, now, &mut self.rng, &mut st.plan)
                .is_err()
            {
                // skip to the next operation; charge nothing
                st.errors += 1;
                continue;
            }
            st.op_started = now;
            st.op_name = op_label(&op);
            st.op_id = telemetry::fresh_id();
            st.stage_entered = now;
            st.seg = SegAcc::default();
            st.cache = st.plan.cache;
            st.rpc_flow = None;
            st.remote = None;
            let f = st.plan.faults;
            if f.injected > 0 || f.retries > 0 || f.failovers > 0 {
                st.retries += u64::from(f.retries);
                st.failovers += u64::from(f.failovers);
                if telemetry::enabled() {
                    let tid = telemetry::worker_tid(st.global);
                    if f.injected > 0 {
                        telemetry::count("fault.injected", u64::from(f.injected));
                    }
                    if f.retries > 0 {
                        telemetry::count("rpc.retry", u64::from(f.retries));
                    }
                    if f.failovers > 0 {
                        telemetry::count("failover", u64::from(f.failovers));
                    }
                    if !f.stall.is_zero() {
                        let name = if f.failovers > 0 {
                            "failover"
                        } else {
                            "rpc.retry"
                        };
                        telemetry::span(self.pid, tid, name, "fault", now, now + f.stall);
                    } else {
                        telemetry::instant(self.pid, tid, "fault.injected", "fault", now);
                    }
                }
            }
            if !(st.plan.pauses.is_empty() && st.plan.background.is_empty()) {
                self.refuse_unless_solo(PartitionedFeature::PausesOrBackground);
            }
            let st = &mut self.states[w];
            for &(server, dur) in &st.plan.pauses {
                apply_pause(
                    &mut self.sched,
                    &mut self.servers,
                    server.0,
                    dur,
                    now,
                    self.pid,
                    "consistency-point",
                );
            }
            for job in &st.plan.background {
                let id = JobId(BG_BASE + self.bg.insert((*job, now, st.op_id)));
                server_arrive(
                    &mut self.sched,
                    &mut self.servers,
                    job.server.0,
                    id,
                    job.demand,
                    now,
                );
            }
            st.active = true;
            st.stage = 0;
            return true;
        }
    }

    /// Attribute the blocking stage local worker `w` just completed to one
    /// of its op's latency segments (called on every `StageCompleted`
    /// delivery, before the stage pointer advances). `stage_entered` is then
    /// re-anchored at `now`, so consecutive stages tile the op's latency
    /// exactly: client CPU (incl. processor-sharing delay), network (incl.
    /// retry/failover backoff), server service vs. queueing (incl. pause
    /// windows), and lock wait. A completed server stage also closes the RPC
    /// flow edge and emits the server-side `rpc` span.
    fn attribute_stage(&mut self, w: usize, now: SimTime) {
        let st = &mut self.states[w];
        if !st.active {
            return;
        }
        let Some(&stage) = st.plan.stages.get(st.stage) else {
            return;
        };
        let elapsed = now.saturating_since(st.stage_entered).as_nanos();
        match stage {
            Stage::ClientCpu { .. } => st.seg.client_ns += elapsed,
            Stage::NetDelay { .. } => st.seg.network_ns += elapsed,
            Stage::Server { server, demand } => {
                let service = demand.as_nanos().min(elapsed);
                st.seg.service_ns += service;
                st.seg.queue_ns += elapsed - service;
                if let Some(flow) = st.rpc_flow.take() {
                    let tid = telemetry::server_tid(server.0);
                    telemetry::span_with_id(
                        self.pid,
                        tid,
                        "rpc",
                        "rpc",
                        st.stage_entered,
                        now,
                        flow,
                        st.op_id,
                    );
                    telemetry::flow_finish(self.pid, tid, "rpc", "rpc", now, flow);
                }
            }
            Stage::AcquireSem { .. } => st.seg.lock_ns += elapsed,
            Stage::ReleaseSem { .. } => {}
        }
        st.stage_entered = now;
    }

    /// Record the completion of local worker `w`'s op at `now`.
    fn complete_op(&mut self, w: usize, now: SimTime) {
        let pid = self.pid;
        let st = &mut self.states[w];
        st.ops_done += 1;
        let lat = now.saturating_since(st.op_started);
        debug_assert_eq!(
            st.seg.total(),
            lat.as_nanos(),
            "{} op of worker {} ({}): latency segments {:?} do not tile its latency",
            st.op_name,
            st.global,
            self.model.name(),
            st.seg
        );
        st.latency.push(lat);
        let tid = telemetry::worker_tid(st.global);
        telemetry::span_with_id(pid, tid, st.op_name, "op", st.op_started, now, st.op_id, 0);
        telemetry::observe("op.latency", lat);
        telemetry::op_record(telemetry::OpRecord {
            pid,
            tid,
            name: st.op_name,
            id: st.op_id,
            start_ns: st.op_started.as_nanos(),
            dur_ns: lat.as_nanos(),
            client_ns: st.seg.client_ns,
            network_ns: st.seg.network_ns,
            queue_ns: st.seg.queue_ns,
            service_ns: st.seg.service_ns,
            lock_ns: st.seg.lock_ns,
            cache: st.cache,
        });
        st.active = false;
    }

    /// Advance local worker `w` through its plan until it blocks or its op
    /// stream ends.
    fn advance(&mut self, w: usize, out: &mut Outbox<Msg>) {
        let job = JobId(w as u64);
        loop {
            let now = self.sched.now();
            let st = &mut self.states[w];
            if let Some(wait_start) = st.sem_wait_start.take() {
                let tid = telemetry::worker_tid(st.global);
                telemetry::span(self.pid, tid, "sem-wait", "lock", wait_start, now);
            }
            debug_assert!(st.active, "advance() with no active plan");
            let Some(&stage) = st.plan.stages.get(st.stage) else {
                self.complete_op(w, now);
                if !self.start_op(w) {
                    return;
                }
                continue;
            };
            match stage {
                Stage::ClientCpu { demand } => {
                    let node = st.spec.node;
                    let weight = st.spec.cpu_weight;
                    self.cpus[node]
                        .as_mut()
                        .expect("worker node owned by its domain")
                        .arrive(now, job, demand, weight);
                    self.schedule_cpu(node, now);
                    return;
                }
                Stage::NetDelay { delay } => {
                    // Cross-domain RPC interception: a NetDelay followed by
                    // a Server stage on a *remote* server becomes a request
                    // message — the network leg is exactly the lookahead
                    // margin that makes the send conservative.
                    if let Some(&Stage::Server { server, demand }) =
                        st.plan.stages.get(st.stage + 1)
                    {
                        let dest = self.server_domain[server.0];
                        if dest != self.idx {
                            let (skip, resp_delay) = match st.plan.stages.get(st.stage + 2) {
                                Some(&Stage::NetDelay { delay: resp }) => (3, resp),
                                _ => (2, SimDuration::ZERO),
                            };
                            st.remote = Some(RemoteRpc {
                                skip,
                                network_ns: (delay + resp_delay).as_nanos(),
                                demand_ns: demand.as_nanos(),
                            });
                            let req = RemoteJob {
                                server: server.0,
                                demand,
                                resp_delay,
                                worker: st.global,
                            };
                            out.send(dest, now + delay, Msg::Req(req));
                            return; // resumed by the Reply message
                        }
                    }
                    self.sched.schedule_after(delay, Ev::StageCompleted { job });
                    return;
                }
                Stage::Server { server, demand } => {
                    assert!(
                        self.server_domain[server.0] == self.idx,
                        "partitioned run: a remote Server stage must be preceded by a \
                         NetDelay of at least the lookahead (model {} violates this)",
                        self.model.name()
                    );
                    if telemetry::enabled() {
                        let flow = telemetry::fresh_id();
                        st.rpc_flow = Some(flow);
                        let tid = telemetry::worker_tid(st.global);
                        telemetry::flow_start(self.pid, tid, "rpc", "rpc", now, flow);
                    }
                    server_arrive(
                        &mut self.sched,
                        &mut self.servers,
                        server.0,
                        job,
                        demand,
                        now,
                    );
                    return;
                }
                Stage::AcquireSem { sem } => {
                    self.refuse_unless_solo(PartitionedFeature::SemaphoreStages);
                    if self.sems[sem.0].acquire(job) {
                        self.states[w].stage += 1;
                        continue;
                    }
                    if telemetry::enabled() {
                        self.states[w].sem_wait_start = Some(now);
                    }
                    return; // resumed by a ReleaseSem / background release
                }
                Stage::ReleaseSem { sem } => {
                    self.refuse_unless_solo(PartitionedFeature::SemaphoreStages);
                    if let Some(granted) = self.sems[sem.0].release() {
                        // the waiter completes its Acquire stage
                        self.sched
                            .schedule_at(now, Ev::StageCompleted { job: granted });
                    }
                    self.states[w].stage += 1;
                    continue;
                }
            }
        }
    }

    /// Emit the virtual-time gauges. They piggyback on the progress-sample
    /// grid: no extra scheduled events, no RNG, pure observation — a traced
    /// run pops the exact same event sequence as an untraced one.
    fn sample_gauges(&self, now: SimTime) {
        let pid = self.pid;
        for (s, srv) in self.servers.iter().enumerate() {
            let Some(srv) = srv else { continue };
            let tid = telemetry::server_tid(s);
            telemetry::gauge(pid, tid, "queue_depth", now, srv.queue_len() as u64);
            telemetry::gauge(pid, tid, "in_service", now, srv.busy() as u64);
        }
        for (i, sem) in self.sems.iter().enumerate() {
            let waiters = sem.queue_len() as u64;
            telemetry::gauge(pid, telemetry::sem_tid(i), "waiters", now, waiters);
        }
        let outstanding = self
            .states
            .iter()
            .filter(|st| {
                st.finished_at.is_none()
                    && st.active
                    && (st.remote.is_some()
                        || matches!(st.plan.stages.get(st.stage), Some(Stage::Server { .. })))
            })
            .count();
        let tid = telemetry::ENGINE_TID;
        telemetry::gauge(pid, tid, "rpcs_outstanding", now, outstanding as u64);
        self.model.sample_gauges(&mut |name, value| {
            telemetry::gauge(pid, tid, name, now, value);
        });
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev, out: &mut Outbox<Msg>) {
        // wall-clock profiling of the dispatch hot path (no-op unless
        // DMETABENCH_PROF is on; see simcore::prof)
        let _prof = prof::scope(match &ev {
            Ev::Kick => "engine.kick",
            Ev::StageCompleted { .. } => "engine.stage_completed",
            Ev::CpuDone { .. } => "engine.cpu_done",
            Ev::ServerDone { .. } => "engine.server_done",
            Ev::PauseEnd { .. } => "engine.pause_end",
            Ev::Sample => "engine.sample",
            Ev::ModelTimer => "engine.model_timer",
            Ev::HogStart { .. } | Ev::HogEnd { .. } => "engine.hog",
            Ev::LoadTick { .. } => "engine.load_tick",
            Ev::ReqArrive { .. } | Ev::ReplyArrive { .. } => "engine.remote_rpc",
        });
        match ev {
            Ev::Kick => {
                for w in 0..self.states.len() {
                    if self.start_op(w) {
                        self.advance(w, out);
                    }
                }
            }
            Ev::StageCompleted { job } => {
                let w = job.0 as usize;
                if self.states[w].finished_at.is_some() {
                    return;
                }
                self.attribute_stage(w, now);
                self.states[w].stage += 1;
                self.advance(w, out);
            }
            Ev::CpuDone { node, generation } => {
                let cpu = self.cpus[node].as_mut().expect("CPU owned by this domain");
                if let Some(job) = cpu.on_completion(now, generation) {
                    if job.0 < BG_BASE {
                        self.sched.schedule_at(now, Ev::StageCompleted { job });
                    }
                }
                self.schedule_cpu(node, now);
            }
            Ev::ServerDone { server, job } => {
                let srv = self.servers[server]
                    .as_mut()
                    .expect("server owned by this domain");
                if let Some(start) = srv.complete(now) {
                    self.sched.schedule_at(
                        start.completes_at,
                        Ev::ServerDone {
                            server,
                            job: start.job,
                        },
                    );
                }
                if job.0 >= REMOTE_BASE {
                    // proxy job: send the reply home
                    let rj = self
                        .remote
                        .remove(job.0 - REMOTE_BASE)
                        .expect("live remote job");
                    let home = self.worker_domain[rj.worker];
                    out.send(home, now + rj.resp_delay, Msg::Reply { worker: rj.worker });
                } else if job.0 >= BG_BASE {
                    // background job finished (hog ids never reach a server)
                    if let Some((done, arrived, parent)) = self.bg.remove(job.0 - BG_BASE) {
                        telemetry::span_with_id(
                            self.pid,
                            telemetry::server_tid(done.server.0),
                            done.label.unwrap_or("background"),
                            "bg",
                            arrived,
                            now,
                            0,
                            parent,
                        );
                        self.model.on_background_complete(done.server, now);
                        if let Some(sem) = done.release_sem {
                            if let Some(granted) = self.sems[sem.0].release() {
                                self.sched
                                    .schedule_at(now, Ev::StageCompleted { job: granted });
                            }
                        }
                    }
                } else {
                    self.sched.schedule_at(now, Ev::StageCompleted { job });
                }
            }
            Ev::PauseEnd { server } => {
                let srv = self.servers[server]
                    .as_mut()
                    .expect("server owned by this domain");
                for start in srv.kick(now) {
                    self.sched.schedule_at(
                        start.completes_at,
                        Ev::ServerDone {
                            server,
                            job: start.job,
                        },
                    );
                }
            }
            Ev::Sample => {
                for st in self.states.iter_mut() {
                    if st.finished_at.is_none() {
                        st.samples.push((now, st.ops_done));
                    }
                }
                if telemetry::enabled() {
                    self.sample_gauges(now);
                }
                if self.unfinished > 0 {
                    self.sched.schedule_after(self.sample_interval, Ev::Sample);
                }
            }
            Ev::ModelTimer => {
                let action = self.model.on_timer(now);
                for (server, dur) in action.pauses {
                    apply_pause(
                        &mut self.sched,
                        &mut self.servers,
                        server.0,
                        dur,
                        now,
                        self.pid,
                        "consistency-point",
                    );
                }
                if let Some(next) = action.next {
                    if self.unfinished > 0 {
                        self.sched.schedule_at(next, Ev::ModelTimer);
                    }
                }
            }
            Ev::HogStart { node, job, weight } => {
                let cpu = self.cpus[node].as_mut().expect("CPU owned by this domain");
                cpu.arrive_background(now, job, weight);
                self.schedule_cpu(node, now);
            }
            Ev::HogEnd { node, job } => {
                let cpu = self.cpus[node].as_mut().expect("CPU owned by this domain");
                cpu.remove(now, job);
                self.schedule_cpu(node, now);
            }
            Ev::LoadTick { idx } => match self.disturbances[idx] {
                Disturbance::ServerPause {
                    server, duration, ..
                } => {
                    apply_pause(
                        &mut self.sched,
                        &mut self.servers,
                        server,
                        duration,
                        now,
                        self.pid,
                        "server-pause",
                    );
                }
                Disturbance::ServerLoad {
                    server,
                    end,
                    demand,
                    interval,
                    ..
                } => {
                    let job = BackgroundJob {
                        server: dfs::ServerId(server),
                        demand,
                        release_sem: None,
                        label: Some("server-load"),
                    };
                    // a disturbance has no causal parent op
                    let id = JobId(BG_BASE + self.bg.insert((job, now, 0)));
                    server_arrive(&mut self.sched, &mut self.servers, server, id, demand, now);
                    if now + interval < end && self.unfinished > 0 {
                        self.sched.schedule_after(interval, Ev::LoadTick { idx });
                    }
                }
                Disturbance::CpuHog { .. } => unreachable!("hogs use HogStart/HogEnd"),
            },
            Ev::ReqArrive { slot } => {
                let rj = self.remote.get(slot);
                let (server, demand) = (rj.server, rj.demand);
                let job = JobId(REMOTE_BASE + slot);
                server_arrive(&mut self.sched, &mut self.servers, server, job, demand, now);
            }
            Ev::ReplyArrive { worker } => {
                let w = self.worker_local[worker];
                let st = &mut self.states[w];
                if st.finished_at.is_some() {
                    return;
                }
                let rpc = st.remote.take().expect("reply matches an in-flight RPC");
                // The interception covered request latency + queueing +
                // service + response latency; the stage timings are exact
                // integers, so attribution tiles the elapsed time precisely
                // like the per-stage accounting.
                let elapsed = now.saturating_since(st.stage_entered).as_nanos();
                st.seg.network_ns += rpc.network_ns;
                st.seg.service_ns += rpc.demand_ns;
                st.seg.queue_ns += elapsed - rpc.network_ns - rpc.demand_ns;
                st.stage_entered = now;
                st.stage += rpc.skip;
                self.advance(w, out);
            }
        }
    }

    /// Run `f` with this domain's telemetry capture installed on the
    /// current thread (straight through when it has none).
    ///
    /// Restores the caller's capture even if `f` unwinds — a
    /// [`PartitionUnsupported`] panic travels through here, and leaking the
    /// domain capture onto the thread would corrupt the caller's telemetry
    /// on the error path (the domain's partial capture is discarded).
    fn with_capture<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        match self.cap.take() {
            Some(cap) => {
                struct Restore(Option<telemetry::ThreadCapture>);
                impl Drop for Restore {
                    fn drop(&mut self) {
                        if let Some(prev) = self.0.take() {
                            drop(telemetry::swap_capture(prev));
                        }
                    }
                }
                let mut guard = Restore(Some(telemetry::swap_capture(cap)));
                let r = f(self);
                let prev = guard.0.take().expect("guard still armed");
                self.cap = Some(telemetry::swap_capture(prev));
                r
            }
            None => f(self),
        }
    }
}

impl WindowDomain for Domain<'_> {
    type Msg = Msg;

    fn next_time(&mut self) -> Option<SimTime> {
        if self.halted() {
            return None;
        }
        self.sched.peek_time()
    }

    fn deliver(&mut self, env: Envelope<Msg>) {
        // Scheduling only — no telemetry, no RNG — so delivery needs no
        // capture swap and stays canonical under the sorted mailbox drain.
        let ev = match env.msg {
            Msg::Req(rj) => Ev::ReqArrive {
                slot: self.remote.insert(rj),
            },
            Msg::Reply { worker } => Ev::ReplyArrive { worker },
        };
        self.sched.schedule_at(env.deliver_at, ev);
    }

    fn run_window(&mut self, end: SimTime, out: &mut Outbox<Msg>) {
        self.with_capture(|dom| {
            while !dom.halted() {
                let Some((now, ev)) = dom.sched.pop_before(end) else {
                    break;
                };
                dom.dispatch(now, ev, out);
            }
        });
    }
}

/// Derive domain `d`'s RNG of a partitioned run purely from the run seed —
/// no draws from a parent stream, so the derivation is identical at every
/// thread count.
fn domain_rng(seed: u64, domain: usize) -> DetRng {
    DetRng::new(seed ^ (domain as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run one benchmark iteration on a model.
///
/// `node_names` supplies display names (hostnames) for the participating
/// nodes; `workers[i]` uses `streams[i]`.
///
/// Every run executes on the window runtime of `simcore::par`. By default
/// it is one domain that owns every server, node and worker: it supports
/// every feature and pops events in the exact `(time, seq)` order of a
/// sequential loop over one scheduler. When [`crate::set_sim_threads`] is
/// set (or the config sets
/// [`pin_windowed_engine`](SimConfig::pin_windowed_engine)) *and* the
/// model offers a [`dfs::PartitionPlan`], the run is split into the plan's
/// domains instead, whose results are bit-identical at every thread count.
/// It runs on `min(--sim-threads, host cores)` OS threads, or, when only
/// the config pins it, on up to two host cores (one while a
/// [`HostShare`](crate::HostShare) lives); never on more threads than the
/// plan has domains.
///
/// This is the fallible form: a partitioned run combined with a feature
/// that couples domains (semaphores, pauses, background jobs, disturbances,
/// model timers) returns a structured
/// [`PartitionUnsupported`](crate::PartitionUnsupported) instead of
/// asserting deep inside the engine. [`run_sim`] panics with the same
/// message for callers that cannot recover.
///
/// # Errors
///
/// [`PartitionUnsupported`](crate::PartitionUnsupported) as above — only
/// possible when the run is partitioned.
///
/// # Panics
///
/// Panics if `workers` and `streams` lengths differ, if a worker references
/// a node outside `node_names`, if the model's plans reference undeclared
/// resources, on a malformed partition plan or a lookahead violation, and
/// on deadlock (a worker that never finishes).
pub fn run_sim_checked(
    model: &mut dyn DistFs,
    node_names: &[String],
    workers: Vec<WorkerSpec>,
    streams: Vec<Box<dyn OpStream>>,
    config: &SimConfig,
) -> Result<SimRunResult, PartitionUnsupported> {
    assert_eq!(workers.len(), streams.len(), "one stream per worker");
    let nodes = node_names.len();
    for w in &workers {
        assert!(w.node < nodes, "worker on unknown node {}", w.node);
    }
    let refusal = |model: &dyn DistFs, feature| PartitionUnsupported {
        model: model.name().to_owned(),
        feature,
    };
    let partition = crate::parsim::window_threads(config.pin_windowed_engine)
        .and_then(|threads| Some((model.partition(nodes)?, threads)));
    if partition.is_some() {
        // The model wants partitioned execution: config-level restrictions
        // are hard errors rather than a silent fallback, so a
        // `--sim-threads` run never quietly loses its parallelism.
        if !config.disturbances.is_empty() {
            return Err(refusal(model, PartitionedFeature::Disturbances));
        }
        if model.first_timer().is_some() {
            return Err(refusal(model, PartitionedFeature::ModelTimers));
        }
    }
    model.register_clients(nodes);
    let resources = model.resources();
    let fs_name = model.name().to_owned();

    let (mut replicas, server_domain, node_domain, lookahead, threads) = match partition {
        None => (
            Vec::new(),
            vec![0; resources.servers.len()],
            vec![0; nodes],
            SimDuration::MAX,
            1,
        ),
        Some((mut plan, threads)) => {
            assert!(
                plan.domains() >= 2,
                "a partition needs at least two domains"
            );
            assert!(
                plan.lookahead > SimDuration::ZERO,
                "a partition needs a positive lookahead"
            );
            if !resources.semaphores.is_empty() {
                return Err(refusal(model, PartitionedFeature::Semaphores));
            }
            assert_eq!(
                plan.server_domain.len(),
                resources.servers.len(),
                "server_domain table must cover every server"
            );
            assert_eq!(
                plan.node_domain.len(),
                nodes,
                "node_domain table must cover every node"
            );
            let domains = plan.domains();
            assert!(
                plan.server_domain
                    .iter()
                    .chain(&plan.node_domain)
                    .all(|&d| d < domains),
                "domain index out of range"
            );
            for replica in &mut plan.models {
                replica.register_clients(nodes);
            }
            let dfs::PartitionPlan {
                models,
                server_domain,
                node_domain,
                lookahead,
            } = plan;
            (models, server_domain, node_domain, lookahead, threads)
        }
    };
    let solo = replicas.is_empty();
    let models: Vec<&mut dyn DistFs> = if solo {
        vec![model]
    } else {
        replicas.iter_mut().map(|m| &mut **m as _).collect()
    };

    // Distribute workers and streams to their domains in global order, so
    // each domain's local order is canonical.
    let worker_domain: Vec<usize> = workers.iter().map(|w| node_domain[w.node]).collect();
    let mut worker_local = vec![0; workers.len()];
    // Pre-size each worker's sample log: for duration-bounded runs the
    // sample count is known exactly; otherwise start with a page's worth.
    let sample_cap = config.duration.map_or(64, |d| {
        (d.as_nanos() / config.sample_interval.as_nanos().max(1) + 2) as usize
    });
    let mut local_states: Vec<Vec<WState>> = models.iter().map(|_| Vec::new()).collect();
    let mut local_streams: Vec<Vec<Box<dyn OpStream>>> =
        models.iter().map(|_| Vec::new()).collect();
    for (g, (spec, stream)) in workers.into_iter().zip(streams).enumerate() {
        let d = worker_domain[g];
        worker_local[g] = local_states[d].len();
        local_states[d].push(WState::new(g, spec, sample_cap));
        local_streams[d].push(stream);
    }

    let traced = telemetry::enabled();
    let mut doms: Vec<Domain<'_>> = Vec::with_capacity(models.len());
    let per_domain = models.into_iter().zip(local_states).zip(local_streams);
    for (d, ((model, states), streams)) in per_domain.enumerate() {
        let mut dom = Domain {
            idx: d,
            solo,
            model,
            sched: Scheduler::new(),
            servers: server_domain
                .iter()
                .zip(&resources.servers)
                .map(|(&sd, spec)| (sd == d).then(|| FifoResource::new(spec.parallelism)))
                .collect(),
            cpus: node_domain
                .iter()
                .map(|&nd| (nd == d).then(|| PsResource::new(config.node_cores)))
                .collect(),
            sems: resources
                .semaphores
                .iter()
                .map(|s| Semaphore::new(s.permits))
                .collect(),
            rng: if solo {
                DetRng::new(config.seed)
            } else {
                domain_rng(config.seed, d)
            },
            unfinished: states.len(),
            states,
            streams,
            bg: Slab::new(),
            remote: Slab::new(),
            server_domain: &server_domain,
            worker_domain: &worker_domain,
            worker_local: &worker_local,
            disturbances: &config.disturbances,
            sample_interval: config.sample_interval,
            deadline: config.duration.map(|d| SimTime::ZERO + d),
            // partitioned domains trace into captures of their own,
            // absorbed in domain order below, so the traced output is
            // identical at every thread count
            cap: (traced && !solo).then(telemetry::ThreadCapture::fresh),
            pid: 0,
        };
        dom.begin(node_names, &resources);
        doms.push(dom);
    }

    // A restricted feature discovered mid-run unwinds out of the window
    // runtime as a typed panic; downcast it back into the structured error
    // here so callers see a Result, not a panic. Anything else (model bugs,
    // lookahead violations) keeps unwinding.
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
        par::run_conservative(&mut doms, lookahead, threads);
    })) {
        match payload.downcast::<PartitionUnsupported>() {
            Ok(err) => return Err(*err),
            Err(payload) => resume_unwind(payload),
        }
    }
    for dom in &mut doms {
        if let Some(cap) = dom.cap.take() {
            telemetry::absorb(&cap.into_report());
        }
    }
    let unfinished: usize = doms.iter().map(|d| d.unfinished).sum();
    assert!(
        unfinished == 0,
        "deadlock: {unfinished} workers never finished"
    );

    let mut traces: Vec<Option<WorkerTrace>> = worker_domain.iter().map(|_| None).collect();
    let mut wall_time = SimTime::ZERO;
    for st in doms.into_iter().flat_map(|dom| dom.states) {
        #[cfg(debug_assertions)]
        assert_eq!(
            st.issued,
            st.ops_done + st.errors,
            "worker {}: issued ops != completed + failed",
            st.global
        );
        wall_time = wall_time.max(st.finished_at.expect("all workers finished"));
        traces[st.global] = Some(WorkerTrace {
            node: st.spec.node,
            node_name: node_names[st.spec.node].clone(),
            proc: st.spec.proc,
            ops_done: st.ops_done,
            errors: st.errors,
            finished_at: st.finished_at,
            samples: st.samples,
            latency: st.latency,
            retries: st.retries,
            failovers: st.failovers,
        });
    }
    Ok(SimRunResult {
        fs_name,
        interval: config.sample_interval,
        workers: traces
            .into_iter()
            .map(|t| t.expect("every worker produced a trace"))
            .collect(),
        wall_time,
    })
}

/// Infallible [`run_sim_checked`]: unsupported-feature errors become a
/// panic carrying the structured error (the suite runner downcasts it back
/// to show the scenario name plus the full message).
pub fn run_sim(
    model: &mut dyn DistFs,
    node_names: &[String],
    workers: Vec<WorkerSpec>,
    streams: Vec<Box<dyn OpStream>>,
    config: &SimConfig,
) -> SimRunResult {
    run_sim_checked(model, node_names, workers, streams, config)
        .unwrap_or_else(|e| std::panic::panic_any(e))
}

/// Convenience: a fixed-problem-size stream of file creations under
/// `workdir` — each worker creates `path/<f{i}>`.
pub fn create_stream(workdir: String, count: u64) -> Box<dyn OpStream> {
    Box::new(move |i: u64| {
        if i < count {
            Some(MetaOp::Create {
                path: format!("{workdir}/f{i}"),
                data_bytes: 0,
            })
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::{LocalFs, LustreFs, NfsFs};

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("node{i}")).collect()
    }

    fn workers(nodes: usize, ppn: usize) -> Vec<WorkerSpec> {
        let mut out = Vec::new();
        for n in 0..nodes {
            for p in 0..ppn {
                out.push(WorkerSpec::new(n, p));
            }
        }
        out
    }

    fn streams_for(workers: &[WorkerSpec], count: u64) -> Vec<Box<dyn OpStream>> {
        workers
            .iter()
            .map(|w| create_stream(format!("/w/n{}p{}", w.node, w.proc), count))
            .collect()
    }

    #[test]
    fn single_worker_completes_fixed_problem() {
        let mut fs = LocalFs::with_defaults();
        let ws = workers(1, 1);
        let st = streams_for(&ws, 500);
        let res = run_sim(&mut fs, &names(1), ws, st, &SimConfig::default());
        assert_eq!(res.total_ops(), 500);
        assert!(res.workers[0].finished_at.is_some());
        assert!(res.wallclock_ops_per_sec() > 0.0);
        // samples monotonically non-decreasing
        let s = &res.workers[0].samples;
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 <= w[1].0));
        assert_eq!(s.last().unwrap().1, 500);
    }

    #[test]
    fn nfs_scales_with_nodes_until_saturation() {
        let throughput = |nodes: usize| {
            let mut fs = NfsFs::with_defaults();
            let ws = workers(nodes, 1);
            let st = streams_for(&ws, 2000);
            let res = run_sim(&mut fs, &names(nodes), ws, st, &SimConfig::default());
            res.stonewall_ops_per_sec()
        };
        let t1 = throughput(1);
        let t4 = throughput(4);
        let t20 = throughput(20);
        assert!(t4 > t1 * 2.5, "4 nodes ≥ 2.5× 1 node: {t1} vs {t4}");
        assert!(t20 > t4, "20 nodes beat 4: {t4} vs {t20}");
        assert!(
            t20 < t1 * 20.0 * 0.8,
            "20 nodes saturate below linear: {t1} * 20 vs {t20}"
        );
    }

    #[test]
    fn lustre_intra_node_is_flat() {
        let throughput = |ppn: usize| {
            let mut fs = LustreFs::with_defaults();
            let ws = workers(1, ppn);
            let st = streams_for(&ws, 1000);
            let res = run_sim(&mut fs, &names(1), ws, st, &SimConfig::default());
            res.stonewall_ops_per_sec()
        };
        let t1 = throughput(1);
        let t8 = throughput(8);
        assert!(
            t8 < t1 * 1.5,
            "per-node modify lock keeps intra-node flat: {t1} vs {t8}"
        );
    }

    #[test]
    fn duration_bound_ends_run() {
        let mut fs = LocalFs::with_defaults();
        let ws = workers(1, 1);
        // unbounded stream
        let st: Vec<Box<dyn OpStream>> = vec![create_stream("/w/p0".into(), u64::MAX)];
        let mut cfg = SimConfig::default();
        cfg.duration = Some(SimDuration::from_secs(2));
        let res = run_sim(&mut fs, &names(1), ws, st, &cfg);
        assert!(res.wall_time >= SimTime::from_secs(2));
        assert!(res.wall_time < SimTime::from_millis(2100));
        assert!(res.total_ops() > 1000, "2 virtual seconds of local creates");
    }

    #[test]
    fn cpu_hog_slows_affected_node_only() {
        let run = |hog: bool| {
            let mut fs = NfsFs::with_defaults();
            let ws = workers(2, 1);
            let st = streams_for(&ws, 3000);
            let mut cfg = SimConfig::default();
            cfg.node_cores = 1;
            if hog {
                cfg.disturbances.push(Disturbance::CpuHog {
                    node: 0,
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(3600),
                    weight: 24.0,
                });
            }
            let res = run_sim(&mut fs, &names(2), ws, st, &cfg);
            (
                res.workers[0].finished_at.unwrap(),
                res.workers[1].finished_at.unwrap(),
            )
        };
        let (clean0, clean1) = run(false);
        let (hog0, hog1) = run(true);
        assert!(hog0 > clean0, "hogged node slower: {clean0} → {hog0}");
        let slowdown1 = hog1.as_secs_f64() / clean1.as_secs_f64();
        assert!(slowdown1 < 1.5, "other node barely affected: {slowdown1}");
    }

    #[test]
    fn server_pause_creates_progress_gap() {
        let mut fs = LocalFs::with_defaults();
        let ws = workers(1, 1);
        let st = streams_for(&ws, 100_000);
        let mut cfg = SimConfig::default();
        cfg.disturbances.push(Disturbance::ServerPause {
            server: 0,
            at: SimTime::from_millis(200),
            duration: SimDuration::from_millis(500),
        });
        let res = run_sim(&mut fs, &names(1), ws, st, &cfg);
        // find progress during [200ms, 700ms): should be ~zero
        let s = &res.workers[0].samples;
        let at = |t: SimTime| {
            s.iter()
                .take_while(|(ts, _)| *ts <= t)
                .map(|&(_, n)| n)
                .last()
                .unwrap_or(0)
        };
        let before = at(SimTime::from_millis(300));
        let during = at(SimTime::from_millis(600));
        let end = at(SimTime::from_millis(1200));
        assert!(during - before <= 1, "no progress while paused");
        assert!(end > during, "progress resumes after the pause");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut fs = NfsFs::with_defaults();
            let ws = workers(3, 2);
            let st = streams_for(&ws, 500);
            run_sim(&mut fs, &names(3), ws, st, &SimConfig::default())
        };
        let a = run();
        let b = run();
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.total_ops(), b.total_ops());
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.samples, wb.samples);
        }
    }

    #[test]
    fn worker_weights_shift_throughput() {
        // two workers on one single-core node with very different weights:
        // the favoured one must finish first (priority scheduling, §4.4)
        let mut fs = LocalFs::with_defaults();
        let ws = vec![
            WorkerSpec {
                node: 0,
                proc: 0,
                cpu_weight: 4.0,
            },
            WorkerSpec {
                node: 0,
                proc: 1,
                cpu_weight: 0.25,
            },
        ];
        let st = streams_for(&ws, 2000);
        let mut cfg = SimConfig::default();
        cfg.node_cores = 1;
        let res = run_sim(&mut fs, &names(1), ws, st, &cfg);
        let f0 = res.workers[0].finished_at.unwrap();
        let f1 = res.workers[1].finished_at.unwrap();
        assert!(f0 < f1, "high-priority worker finishes first: {f0} vs {f1}");
    }

    #[test]
    fn errors_counted_not_fatal() {
        let mut fs = LocalFs::with_defaults();
        let ws = workers(1, 1);
        // every op creates the same path → all but the first error out
        let st: Vec<Box<dyn OpStream>> = vec![Box::new(|i: u64| {
            if i < 1 {
                Some(MetaOp::Create {
                    path: "/w/same".into(),
                    data_bytes: 0,
                })
            } else {
                None
            }
        })];
        let res = run_sim(&mut fs, &names(1), ws, st, &SimConfig::default());
        assert_eq!(res.total_ops(), 1);
        assert_eq!(res.workers[0].errors, 0);
    }

    #[test]
    fn failed_plans_are_counted_and_charge_nothing() {
        // three creates of one path: the first succeeds, two fail with
        // EEXIST; the run-end audit (issued = completed + failed) sees them.
        // A stream is indexed by completed ops, so count issues here.
        let mut fs = LocalFs::with_defaults();
        let mut issued = 0;
        let st: Vec<Box<dyn OpStream>> = vec![Box::new(move |_: u64| {
            issued += 1;
            (issued <= 3).then(|| MetaOp::Create {
                path: "/w/same".into(),
                data_bytes: 0,
            })
        })];
        let res = run_sim(&mut fs, &names(1), workers(1, 1), st, &SimConfig::default());
        assert_eq!(res.total_ops(), 1);
        assert_eq!(res.workers[0].errors, 2);
        assert_eq!(res.latency().count(), 1, "failed plans record no latency");
    }
}
