//! The virtual-time execution engine.
//!
//! Takes a [`DistFs`](dfs::DistFs) model, a set of worker processes with
//! their operation streams, and runs the whole benchmark on `simcore`'s
//! deterministic event loop — producing exactly the per-process
//! time-interval progress logs that DMetabench records on real systems
//! (paper §3.2.5): every 0.1 s of *virtual* time, each worker's
//! operations-completed counter is sampled.
//!
//! The engine owns the generic resources (per-node processor-sharing CPUs,
//! per-server FIFO queues, semaphores) and executes the stage plans the
//! model compiles. Disturbances (CPU hogs, server pauses for snapshots,
//! competing sequential writes — Figs. 4.4–4.7) are injected here.

use dfs::{BackgroundJob, ClientCtx, DistFs, MetaOp, OpPlan, Stage};
use simcore::{
    prof, telemetry, DetRng, FifoResource, JobId, LatencyHistogram, PsResource, Scheduler,
    Semaphore, SimDuration, SimTime,
};

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
    /// Run a partitionable model on the conservative windowed engine even
    /// when `--sim-threads` is unset (then on up to two host cores, at most
    /// one thread per domain, and on one thread inside a suite running
    /// several scenarios at once). The windowed engine is bit-identical at
    /// every thread count, but its tie-breaking of *same-instant*
    /// contention can differ from the classic engine's; scenario bodies
    /// that measure a partitionable model under contention pin the windowed
    /// engine so their blessed baselines hold at any `--sim-threads`
    /// setting. Non-partitionable models are unaffected.
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

const BG_BASE: u64 = 1 << 40;
const HOG_BASE: u64 = 1 << 41;

/// Background jobs in flight, slab-allocated: job ids are `BG_BASE + slot`
/// and slots are recycled as soon as the job's (exactly-once) `ServerDone`
/// completion removes it. Replaces a `HashMap<u64, _>` so steady-state
/// background churn neither hashes nor allocates. Id reuse is safe because
/// background ids only identify FIFO-queue entries (queue order, not id
/// order, decides service) and at most one live job holds a slot at a time.
#[derive(Default)]
struct BgJobs {
    slots: Vec<Option<(BackgroundJob, SimTime, u64)>>,
    free: Vec<u32>,
}

impl BgJobs {
    fn insert(&mut self, job: BackgroundJob, arrived: SimTime, parent: u64) -> JobId {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some((job, arrived, parent));
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("background slab overflow");
                self.slots.push(Some((job, arrived, parent)));
                idx
            }
        };
        JobId(BG_BASE + u64::from(idx))
    }

    fn remove(&mut self, id: u64) -> Option<(BackgroundJob, SimTime, u64)> {
        let idx = (id - BG_BASE) as usize;
        let entry = self.slots.get_mut(idx)?.take();
        if entry.is_some() {
            self.free.push(idx as u32);
        }
        entry
    }
}

#[derive(Debug)]
enum Ev {
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
}

/// Per-segment latency accumulators for the operation in flight. The
/// engine's invariant: every virtual nanosecond between op start and op
/// completion is spent inside exactly one blocking stage, so the five
/// segments sum exactly to the op's end-to-end latency.
#[derive(Debug, Clone, Copy, Default)]
struct SegAcc {
    client_ns: u64,
    network_ns: u64,
    queue_ns: u64,
    service_ns: u64,
    lock_ns: u64,
}

struct WState {
    spec: WorkerSpec,
    /// Pooled plan buffer, refilled in place by `DistFs::plan_into` for
    /// every operation (meaningful only while `active`). Its stage /
    /// background / pause vectors keep their capacity across ops, so
    /// steady-state planning performs zero allocations.
    plan: OpPlan,
    /// Whether `plan` describes an operation currently in flight.
    active: bool,
    stage: usize,
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
}

/// Telemetry span name for an operation.
pub(crate) fn op_label(op: &MetaOp) -> &'static str {
    match op {
        MetaOp::Create { .. } => "create",
        MetaOp::Mkdir { .. } => "mkdir",
        MetaOp::Unlink { .. } => "unlink",
        MetaOp::Rmdir { .. } => "rmdir",
        MetaOp::Stat { .. } => "stat",
        MetaOp::OpenClose { .. } => "open-close",
        MetaOp::Readdir { .. } => "readdir",
        MetaOp::Rename { .. } => "rename",
        MetaOp::Link { .. } => "link",
        MetaOp::Symlink { .. } => "symlink",
        MetaOp::Chmod { .. } => "chmod",
        MetaOp::Utimes { .. } => "utimes",
    }
}

/// Run one benchmark iteration on a model.
///
/// `node_names` supplies display names (hostnames) for the participating
/// nodes; `workers[i]` uses `streams[i]`.
///
/// When [`crate::set_sim_threads`] has selected the conservative parallel
/// engine (or the config sets
/// [`pin_windowed_engine`](SimConfig::pin_windowed_engine)) *and* the
/// model offers a [`dfs::PartitionPlan`], the run is dispatched to the
/// windowed engine in `parsim` — whose results are bit-identical at every
/// thread count. It runs on `min(--sim-threads, host cores)` OS threads,
/// or, when only the config pins it, on up to two host cores (one while a
/// [`HostShare`](crate::HostShare) lives); never on more threads than the
/// plan has domains. Every other run (including all models that keep the
/// default `partition() == None`) takes the classic sequential engine
/// below, byte-for-byte unchanged.
///
/// This is the fallible form: a partitionable model combined with a
/// feature the windowed engine cannot execute (semaphores, pauses,
/// background jobs, disturbances, model timers) returns a structured
/// [`PartitionUnsupported`](crate::PartitionUnsupported) instead of
/// asserting deep inside the engine. [`run_sim`] panics with the same
/// message for callers that cannot recover.
///
/// # Errors
///
/// [`PartitionUnsupported`](crate::PartitionUnsupported) as above — only
/// possible when `--sim-threads` is set *and* the model partitions.
///
/// # Panics
///
/// Panics if `workers` and `streams` lengths differ, if a worker references
/// a node outside `node_names`, or if the model's plans reference undeclared
/// resources.
pub fn run_sim_checked(
    model: &mut dyn DistFs,
    node_names: &[String],
    workers: Vec<WorkerSpec>,
    streams: Vec<Box<dyn OpStream>>,
    config: &SimConfig,
) -> Result<SimRunResult, crate::parsim::PartitionUnsupported> {
    use crate::parsim::{PartitionUnsupported, PartitionedFeature};
    let threads = crate::parsim::window_threads(config.pin_windowed_engine);
    if let Some(threads) = threads {
        if let Some(plan) = model.partition(node_names.len()) {
            // The model wants partitioned execution: config-level
            // restrictions are now hard errors rather than a silent
            // fallback, so a `--sim-threads` run never quietly loses its
            // parallelism.
            if !config.disturbances.is_empty() {
                return Err(PartitionUnsupported {
                    model: model.name().to_owned(),
                    feature: PartitionedFeature::Disturbances,
                });
            }
            if model.first_timer().is_some() {
                return Err(PartitionUnsupported {
                    model: model.name().to_owned(),
                    feature: PartitionedFeature::ModelTimers,
                });
            }
            return crate::parsim::run_partitioned(
                model, plan, node_names, workers, streams, config, threads,
            );
        }
    }
    Ok(run_sim_classic(model, node_names, workers, streams, config))
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

/// The classic single-scheduler engine (every stage kind, disturbances,
/// timers, faults).
fn run_sim_classic(
    model: &mut dyn DistFs,
    node_names: &[String],
    workers: Vec<WorkerSpec>,
    mut streams: Vec<Box<dyn OpStream>>,
    config: &SimConfig,
) -> SimRunResult {
    assert_eq!(workers.len(), streams.len(), "one stream per worker");
    let nodes = node_names.len();
    for w in &workers {
        assert!(w.node < nodes, "worker on unknown node {}", w.node);
    }
    model.register_clients(nodes);
    let resources = model.resources();
    // One trace "process" per engine run, with one named track per worker
    // and per server resource (all no-ops unless a telemetry capture is
    // active on this thread).
    let pid = telemetry::begin_run(model.name());
    if telemetry::enabled() {
        for (w, spec) in workers.iter().enumerate() {
            telemetry::name_track(
                pid,
                telemetry::worker_tid(w),
                &format!("{}/p{}", node_names[spec.node], spec.proc),
            );
        }
        for (s, spec) in resources.servers.iter().enumerate() {
            telemetry::name_track(pid, telemetry::server_tid(s), &spec.name);
        }
        for (i, spec) in resources.semaphores.iter().enumerate() {
            telemetry::name_track(pid, telemetry::sem_tid(i), &spec.name);
        }
        telemetry::name_track(pid, telemetry::ENGINE_TID, "engine");
    }
    let mut servers: Vec<FifoResource> = resources
        .servers
        .iter()
        .map(|s| FifoResource::new(s.parallelism))
        .collect();
    let mut sems: Vec<Semaphore> = resources
        .semaphores
        .iter()
        .map(|s| Semaphore::new(s.permits))
        .collect();
    let mut cpus: Vec<PsResource> = (0..nodes)
        .map(|_| PsResource::new(config.node_cores))
        .collect();
    let mut rng = DetRng::new(config.seed);
    let mut sched: Scheduler<Ev> = Scheduler::new();
    let deadline = config.duration.map(|d| SimTime::ZERO + d);

    // Pre-size each worker's sample log: for duration-bounded runs the
    // sample count is known exactly; otherwise start with a page's worth.
    let sample_cap = config.duration.map_or(64, |d| {
        (d.as_nanos() / config.sample_interval.as_nanos().max(1) + 2) as usize
    });
    let mut states: Vec<WState> = workers
        .iter()
        .map(|spec| WState {
            spec: spec.clone(),
            plan: OpPlan::default(),
            active: false,
            stage: 0,
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
        })
        .collect();
    // background jobs in flight: slab of (job, arrival, causal parent op id)
    let mut bg = BgJobs::default();
    let mut unfinished = states.len();

    // prime disturbances
    for (idx, d) in config.disturbances.iter().enumerate() {
        match d {
            Disturbance::CpuHog {
                node,
                start,
                end,
                weight,
            } => {
                let job = JobId(HOG_BASE + idx as u64);
                sched.schedule_at(
                    *start,
                    Ev::HogStart {
                        node: *node,
                        job,
                        weight: *weight,
                    },
                );
                sched.schedule_at(*end, Ev::HogEnd { node: *node, job });
            }
            Disturbance::ServerPause { at, .. } => {
                // encoded via LoadTick-like one-shot below
                sched.schedule_at(*at, Ev::LoadTick { idx });
            }
            Disturbance::ServerLoad { start, .. } => {
                sched.schedule_at(*start, Ev::LoadTick { idx });
            }
        }
    }
    if let Some(t) = model.first_timer() {
        sched.schedule_at(t, Ev::ModelTimer);
    }
    sched.schedule_at(SimTime::ZERO + config.sample_interval, Ev::Sample);

    // --- helper closures are impossible with this much shared state; use
    // --- small macro-like fns instead.

    fn schedule_cpu(sched: &mut Scheduler<Ev>, cpus: &mut [PsResource], node: usize, now: SimTime) {
        if let Some(c) = cpus[node].next_completion(now) {
            sched.schedule_at(
                c.at,
                Ev::CpuDone {
                    node,
                    generation: c.generation,
                },
            );
        }
    }

    fn server_arrive(
        sched: &mut Scheduler<Ev>,
        servers: &mut [FifoResource],
        server: usize,
        job: JobId,
        demand: SimDuration,
        now: SimTime,
    ) {
        if let Some(start) = servers[server].arrive(now, job, demand) {
            sched.schedule_at(
                start.completes_at,
                Ev::ServerDone {
                    server,
                    job: start.job,
                },
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_pause(
        sched: &mut Scheduler<Ev>,
        servers: &mut [FifoResource],
        server: usize,
        duration: SimDuration,
        now: SimTime,
        pid: u32,
        label: &'static str,
    ) {
        let until = now + duration;
        telemetry::span(pid, telemetry::server_tid(server), label, "cp", now, until);
        servers[server].pause_until(until);
        sched.schedule_at(until, Ev::PauseEnd { server });
    }

    // Start an operation for worker `w`, or mark it finished. Returns jobs
    // (newly granted sem waiters) that must be advanced.
    #[allow(clippy::too_many_arguments)]
    fn start_op(
        w: usize,
        model: &mut dyn DistFs,
        states: &mut [WState],
        streams: &mut [Box<dyn OpStream>],
        sched: &mut Scheduler<Ev>,
        servers: &mut [FifoResource],
        bg: &mut BgJobs,
        rng: &mut DetRng,
        deadline: Option<SimTime>,
        unfinished: &mut usize,
        pid: u32,
    ) -> bool {
        // returns true if the worker obtained a plan and should advance
        let now = sched.now();
        loop {
            if deadline.is_some_and(|d| now >= d) {
                finish_worker(w, states, unfinished, now);
                return false;
            }
            let st = &mut states[w];
            let Some(op) = streams[w].next_op(st.ops_done) else {
                finish_worker(w, states, unfinished, now);
                return false;
            };
            let client = ClientCtx {
                node: st.spec.node,
                proc: st.spec.proc,
            };
            match model.plan_into(client, &op, now, rng, &mut st.plan) {
                Ok(()) => {
                    st.op_started = now;
                    st.op_name = op_label(&op);
                    st.op_id = telemetry::fresh_id();
                    st.stage_entered = now;
                    st.seg = SegAcc::default();
                    st.cache = st.plan.cache;
                    st.rpc_flow = None;
                    let f = st.plan.faults;
                    if f.injected > 0 || f.retries > 0 || f.failovers > 0 {
                        st.retries += u64::from(f.retries);
                        st.failovers += u64::from(f.failovers);
                        if telemetry::enabled() {
                            let tid = telemetry::worker_tid(w);
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
                                telemetry::span(pid, tid, name, "fault", now, now + f.stall);
                            } else {
                                telemetry::instant(pid, tid, "fault.injected", "fault", now);
                            }
                        }
                    }
                    for &(server, dur) in &st.plan.pauses {
                        apply_pause(sched, servers, server.0, dur, now, pid, "consistency-point");
                    }
                    for job in &st.plan.background {
                        let id = bg.insert(*job, now, st.op_id);
                        server_arrive(sched, servers, job.server.0, id, job.demand, now);
                    }
                    st.active = true;
                    st.stage = 0;
                    return true;
                }
                Err(_) => {
                    st.errors += 1;
                    // skip to the next operation; charge nothing
                    continue;
                }
            }
        }
    }

    // Attribute the blocking stage worker `w` just completed to one of its
    // op's latency segments (called on every `StageCompleted` delivery,
    // before the stage pointer advances). `stage_entered` is then re-anchored
    // at `now`, so consecutive stages tile the op's latency exactly: client
    // CPU (incl. processor-sharing delay), network (incl. retry/failover
    // backoff), server service vs. queueing (incl. pause windows), and lock
    // wait. A completed server stage also closes the RPC flow edge and emits
    // the server-side `rpc` span.
    fn attribute_stage(w: usize, states: &mut [WState], now: SimTime, pid: u32) {
        let st = &mut states[w];
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
                        pid,
                        tid,
                        "rpc",
                        "rpc",
                        st.stage_entered,
                        now,
                        flow,
                        st.op_id,
                    );
                    telemetry::flow_finish(pid, tid, "rpc", "rpc", now, flow);
                }
            }
            Stage::AcquireSem { .. } => st.seg.lock_ns += elapsed,
            Stage::ReleaseSem { .. } => {}
        }
        st.stage_entered = now;
    }

    fn finish_worker(w: usize, states: &mut [WState], unfinished: &mut usize, now: SimTime) {
        let st = &mut states[w];
        if st.finished_at.is_none() {
            st.finished_at = Some(now);
            st.samples.push((now, st.ops_done));
            *unfinished -= 1;
        }
    }

    // Advance worker w through its plan until it blocks or the op ends.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        w: usize,
        model: &mut dyn DistFs,
        states: &mut [WState],
        streams: &mut [Box<dyn OpStream>],
        sched: &mut Scheduler<Ev>,
        cpus: &mut [PsResource],
        servers: &mut [FifoResource],
        sems: &mut [Semaphore],
        bg: &mut BgJobs,
        rng: &mut DetRng,
        deadline: Option<SimTime>,
        unfinished: &mut usize,
        pid: u32,
    ) {
        let job = JobId(w as u64);
        loop {
            let now = sched.now();
            if let Some(wait_start) = states[w].sem_wait_start.take() {
                telemetry::span(
                    pid,
                    telemetry::worker_tid(w),
                    "sem-wait",
                    "lock",
                    wait_start,
                    now,
                );
            }
            let op_complete = {
                let st = &states[w];
                debug_assert!(st.active, "advance() with no active plan");
                st.stage >= st.plan.stages.len()
            };
            if op_complete {
                let st = &mut states[w];
                st.ops_done += 1;
                let lat = now.saturating_since(st.op_started);
                st.latency.push(lat);
                telemetry::span_with_id(
                    pid,
                    telemetry::worker_tid(w),
                    st.op_name,
                    "op",
                    st.op_started,
                    now,
                    st.op_id,
                    0,
                );
                telemetry::observe("op.latency", lat);
                telemetry::op_record(telemetry::OpRecord {
                    pid,
                    tid: telemetry::worker_tid(w),
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
                if !start_op(
                    w, model, states, streams, sched, servers, bg, rng, deadline, unfinished, pid,
                ) {
                    return;
                }
                continue;
            }
            let (stage, node) = {
                let st = &states[w];
                (st.plan.stages[st.stage], st.spec.node)
            };
            match stage {
                Stage::ClientCpu { demand } => {
                    cpus[node].arrive(now, job, demand, states[w].spec.cpu_weight);
                    schedule_cpu(sched, cpus, node, now);
                    return;
                }
                Stage::NetDelay { delay } => {
                    sched.schedule_after(delay, Ev::StageCompleted { job });
                    return;
                }
                Stage::Server { server, demand } => {
                    if telemetry::enabled() {
                        let flow = telemetry::fresh_id();
                        states[w].rpc_flow = Some(flow);
                        telemetry::flow_start(
                            pid,
                            telemetry::worker_tid(w),
                            "rpc",
                            "rpc",
                            now,
                            flow,
                        );
                    }
                    server_arrive(sched, servers, server.0, job, demand, now);
                    return;
                }
                Stage::AcquireSem { sem } => {
                    if sems[sem.0].acquire(job) {
                        states[w].stage += 1;
                        continue;
                    }
                    if telemetry::enabled() {
                        states[w].sem_wait_start = Some(now);
                    }
                    return; // resumed by a ReleaseSem / background release
                }
                Stage::ReleaseSem { sem } => {
                    if let Some(granted) = sems[sem.0].release() {
                        // the waiter completes its Acquire stage
                        sched.schedule_at(now, Ev::StageCompleted { job: granted });
                    }
                    states[w].stage += 1;
                    continue;
                }
            }
        }
    }

    // kick off all workers at t = 0 (the MPI barrier of §3.3.3)
    for w in 0..states.len() {
        if start_op(
            w,
            model,
            &mut states,
            &mut streams,
            &mut sched,
            &mut servers,
            &mut bg,
            &mut rng,
            deadline,
            &mut unfinished,
            pid,
        ) {
            advance(
                w,
                model,
                &mut states,
                &mut streams,
                &mut sched,
                &mut cpus,
                &mut servers,
                &mut sems,
                &mut bg,
                &mut rng,
                deadline,
                &mut unfinished,
                pid,
            );
        }
    }

    // main event loop
    while unfinished > 0 {
        let Some((now, ev)) = sched.pop() else {
            panic!("deadlock: {unfinished} workers never finished");
        };
        // wall-clock profiling of the dispatch hot path (no-op unless
        // DMETABENCH_PROF is on; see simcore::prof)
        let _prof = prof::scope(match &ev {
            Ev::StageCompleted { .. } => "engine.stage_completed",
            Ev::CpuDone { .. } => "engine.cpu_done",
            Ev::ServerDone { .. } => "engine.server_done",
            Ev::PauseEnd { .. } => "engine.pause_end",
            Ev::Sample => "engine.sample",
            Ev::ModelTimer => "engine.model_timer",
            Ev::HogStart { .. } | Ev::HogEnd { .. } => "engine.hog",
            Ev::LoadTick { .. } => "engine.load_tick",
        });
        match ev {
            Ev::StageCompleted { job } => {
                let w = job.0 as usize;
                debug_assert!(w < states.len());
                if states[w].finished_at.is_some() {
                    continue;
                }
                attribute_stage(w, &mut states, now, pid);
                states[w].stage += 1;
                advance(
                    w,
                    model,
                    &mut states,
                    &mut streams,
                    &mut sched,
                    &mut cpus,
                    &mut servers,
                    &mut sems,
                    &mut bg,
                    &mut rng,
                    deadline,
                    &mut unfinished,
                    pid,
                );
            }
            Ev::CpuDone { node, generation } => {
                if let Some(job) = cpus[node].on_completion(now, generation) {
                    if job.0 < BG_BASE {
                        sched.schedule_at(now, Ev::StageCompleted { job });
                    }
                }
                schedule_cpu(&mut sched, &mut cpus, node, now);
            }
            Ev::ServerDone { server, job } => {
                if let Some(start) = servers[server].complete(now) {
                    sched.schedule_at(
                        start.completes_at,
                        Ev::ServerDone {
                            server,
                            job: start.job,
                        },
                    );
                }
                if job.0 >= BG_BASE && job.0 < HOG_BASE {
                    // background job finished
                    if let Some((done, arrived, parent)) = bg.remove(job.0) {
                        telemetry::span_with_id(
                            pid,
                            telemetry::server_tid(done.server.0),
                            done.label.unwrap_or("background"),
                            "bg",
                            arrived,
                            now,
                            0,
                            parent,
                        );
                        model.on_background_complete(done.server, now);
                        if let Some(sem) = done.release_sem {
                            if let Some(granted) = sems[sem.0].release() {
                                sched.schedule_at(now, Ev::StageCompleted { job: granted });
                            }
                        }
                    }
                } else {
                    sched.schedule_at(now, Ev::StageCompleted { job });
                }
            }
            Ev::PauseEnd { server } => {
                for start in servers[server].kick(now) {
                    sched.schedule_at(
                        start.completes_at,
                        Ev::ServerDone {
                            server,
                            job: start.job,
                        },
                    );
                }
            }
            Ev::Sample => {
                for st in states.iter_mut() {
                    if st.finished_at.is_none() {
                        st.samples.push((now, st.ops_done));
                    }
                }
                // Virtual-time gauge sampling piggybacks on the existing
                // progress-sample grid: no extra scheduled events, no RNG,
                // pure observation — a traced run pops the exact same event
                // sequence as an untraced one.
                if telemetry::enabled() {
                    for (s, srv) in servers.iter().enumerate() {
                        let tid = telemetry::server_tid(s);
                        telemetry::gauge(pid, tid, "queue_depth", now, srv.queue_len() as u64);
                        telemetry::gauge(pid, tid, "in_service", now, srv.busy() as u64);
                    }
                    for (i, sem) in sems.iter().enumerate() {
                        telemetry::gauge(
                            pid,
                            telemetry::sem_tid(i),
                            "waiters",
                            now,
                            sem.queue_len() as u64,
                        );
                    }
                    let outstanding = states
                        .iter()
                        .filter(|st| {
                            st.finished_at.is_none()
                                && st.active
                                && matches!(
                                    st.plan.stages.get(st.stage),
                                    Some(Stage::Server { .. })
                                )
                        })
                        .count();
                    telemetry::gauge(
                        pid,
                        telemetry::ENGINE_TID,
                        "rpcs_outstanding",
                        now,
                        outstanding as u64,
                    );
                    model.sample_gauges(&mut |name, value| {
                        telemetry::gauge(pid, telemetry::ENGINE_TID, name, now, value);
                    });
                }
                if unfinished > 0 {
                    sched.schedule_after(config.sample_interval, Ev::Sample);
                }
            }
            Ev::ModelTimer => {
                let action = model.on_timer(now);
                for (server, dur) in action.pauses {
                    apply_pause(
                        &mut sched,
                        &mut servers,
                        server.0,
                        dur,
                        now,
                        pid,
                        "consistency-point",
                    );
                }
                if let Some(next) = action.next {
                    if unfinished > 0 {
                        sched.schedule_at(next, Ev::ModelTimer);
                    }
                }
            }
            Ev::HogStart { node, job, weight } => {
                cpus[node].arrive_background(now, job, weight);
                schedule_cpu(&mut sched, &mut cpus, node, now);
            }
            Ev::HogEnd { node, job } => {
                cpus[node].remove(now, job);
                schedule_cpu(&mut sched, &mut cpus, node, now);
            }
            Ev::LoadTick { idx } => match &config.disturbances[idx] {
                Disturbance::ServerPause {
                    server, duration, ..
                } => {
                    apply_pause(
                        &mut sched,
                        &mut servers,
                        *server,
                        *duration,
                        now,
                        pid,
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
                    let id = bg.insert(
                        BackgroundJob {
                            server: dfs::ServerId(*server),
                            demand: *demand,
                            release_sem: None,
                            label: Some("server-load"),
                        },
                        now,
                        0, // a disturbance has no causal parent op
                    );
                    server_arrive(&mut sched, &mut servers, *server, id, *demand, now);
                    if now + *interval < *end && unfinished > 0 {
                        sched.schedule_after(*interval, Ev::LoadTick { idx });
                    }
                }
                Disturbance::CpuHog { .. } => unreachable!("hogs use HogStart/HogEnd"),
            },
        }
    }

    let wall_time = states
        .iter()
        .filter_map(|s| s.finished_at)
        .max()
        .unwrap_or(sched.now());
    SimRunResult {
        fs_name: model.name().to_owned(),
        interval: config.sample_interval,
        workers: states
            .into_iter()
            .map(|st| WorkerTrace {
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
            })
            .collect(),
        wall_time,
    }
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
}
