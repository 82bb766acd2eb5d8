//! Conservative parallel execution of partitionable models.
//!
//! [`run_partitioned`] is the `--sim-threads` twin of the sequential engine
//! in `simengine.rs`: the model offers a domain decomposition
//! ([`dfs::PartitionPlan`]) — disjoint server groups and client nodes that
//! interact only through the network — and each domain runs on its own
//! timer-wheel [`Scheduler`] inside the synchronized lookahead windows of
//! [`simcore::par`]. Cross-domain RPCs travel as mailbox messages: the
//! client domain converts a `NetDelay → Server(remote) → NetDelay` stage
//! triple into a request message that lands on the server domain one network
//! latency later (≥ the lookahead, by construction), and the reply message
//! resumes the worker the same way.
//!
//! # Determinism
//!
//! Everything that could depend on interleaving is per-domain:
//!
//! * each domain owns a scheduler, its servers' FIFO queues, its nodes'
//!   CPUs, a model replica, and a [`DetRng`] derived purely from
//!   `(config.seed, domain index)` — never by drawing from a shared stream;
//! * mailbox drains are canonically ordered by `simcore::par`;
//! * telemetry is recorded into per-domain [`telemetry::ThreadCapture`]s
//!   (installed around every window by whichever thread executes it) and
//!   absorbed into the caller's capture in ascending domain order.
//!
//! `--sim-threads 1` therefore runs the *same* windowed algorithm — just on
//! one thread — and produces byte-identical results, traces, metrics and
//! timeseries to `--sim-threads N` (pinned by `tests/parsim_determinism.rs`).
//!
//! # Scope
//!
//! Partitioned mode supports the stage subset a partitionable model can
//! express: `ClientCpu`, `NetDelay`, and `Server` (local or remote).
//! Semaphores, background jobs, server pauses, model timers and
//! disturbances all couple domains through non-network state; models using
//! them must not offer a partition. When one sneaks through anyway the
//! engine aborts the run with a structured [`PartitionUnsupported`] error
//! naming the model, the offending feature, and the `--sim-threads 1`
//! escape hatch — surfaced as a `Result` through
//! [`run_sim_checked`](crate::run_sim_checked).

use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use dfs::{ClientCtx, DistFs, OpPlan, PartitionPlan, Stage};
use simcore::par::{self, Envelope, Outbox, WindowDomain};
use simcore::{
    prof, telemetry, DetRng, FifoResource, JobId, LatencyHistogram, PsResource, Scheduler,
    SimDuration, SimTime,
};

use crate::simengine::{op_label, OpStream, SimConfig, SimRunResult, WorkerSpec, WorkerTrace};

/// `--sim-threads` state: 0 = unset (sequential classic engine, the
/// default), N ≥ 1 = run partitionable models on the windowed engine with N
/// OS threads (at most one per host core).
static SIM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Select the engine for partitionable models: `Some(n)` runs them on the
/// conservative windowed engine with `n` OS threads, capped at the host's
/// cores (`n = 1` = the same algorithm, sequentially); `None` (the
/// default) keeps every model on the classic sequential engine unless its
/// run config pins the windowed engine. Process-wide, read at each
/// `run_sim` call.
pub fn set_sim_threads(threads: Option<usize>) {
    SIM_THREADS.store(threads.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// The current `--sim-threads` setting (`None` = unset).
#[must_use]
pub fn sim_threads() -> Option<usize> {
    match SIM_THREADS.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Most OS threads a run that pins the windowed engine takes with
/// `--sim-threads` unset. Two threads were measured to beat one on a
/// 2-vCPU host; more have not been measured, so the default stops there.
const PINNED_THREADS: usize = 2;

/// OS threads for a windowed run, or `None` for the classic engine. Output
/// is identical at every count, so the count is only a host-speed choice:
/// `--sim-threads` capped at the host's cores (oversubscribed window
/// threads just wait on each other at every barrier); with the knob unset,
/// a run that pins the windowed engine takes up to [`PINNED_THREADS`]
/// cores, or one while the host is shared ([`par::HostShare`]).
pub(crate) fn window_threads(pinned: bool) -> Option<usize> {
    match sim_threads() {
        Some(n) => Some(n.min(par::host_cores())),
        None if !pinned => None,
        None if par::host_shared() => Some(1),
        None => Some(par::host_cores().min(PINNED_THREADS)),
    }
}

/// A feature the conservative windowed engine cannot execute: these all
/// couple domains through non-network state, which would break the
/// lookahead contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionedFeature {
    /// The model declares semaphore resources in [`dfs::FsResources`].
    Semaphores,
    /// A plan carried `AcquireSem`/`ReleaseSem` stages.
    SemaphoreStages,
    /// A plan carried server pauses or background jobs.
    PausesOrBackground,
    /// The run configuration injects disturbances.
    Disturbances,
    /// The model drives itself with timers (`first_timer()`).
    ModelTimers,
}

impl PartitionedFeature {
    fn describe(self) -> &'static str {
        match self {
            PartitionedFeature::Semaphores => "declares semaphore resources",
            PartitionedFeature::SemaphoreStages => {
                "planned AcquireSem/ReleaseSem stages (semaphores couple domains)"
            }
            PartitionedFeature::PausesOrBackground => "planned server pauses or background jobs",
            PartitionedFeature::Disturbances => "the run configuration injects disturbances",
            PartitionedFeature::ModelTimers => "drives itself with model timers",
        }
    }
}

/// Structured "this run cannot go parallel" error: the partitioned engine
/// was selected (`--sim-threads`) and the model offered a partition, but
/// the run uses a feature the windowed engine does not support.
///
/// The display form names the model and the feature and ends with the
/// remedy, so a scenario failure or CLI error is self-explanatory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionUnsupported {
    /// `DistFs::name()` of the offending model.
    pub model: String,
    /// Which restriction fired.
    pub feature: PartitionedFeature,
}

impl std::fmt::Display for PartitionUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "partitioned run of model '{}' is unsupported: {}; \
             rerun without --sim-threads to use the classic sequential engine \
             (which supports every feature)",
            self.model,
            self.feature.describe()
        )
    }
}

impl std::error::Error for PartitionUnsupported {}

/// Derive domain `d`'s RNG purely from the run seed — no draws from a
/// parent stream, so the derivation is identical at every thread count.
fn domain_rng(seed: u64, domain: usize) -> DetRng {
    DetRng::new(seed ^ (domain as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Job ids at or above this are proxy jobs for remote requests; below are
/// domain-local worker indices.
const REMOTE_BASE: u64 = 1 << 40;

/// A cross-domain message.
enum Msg {
    /// An RPC request entering the server's domain. `deliver_at` of the
    /// envelope is the arrival instant (send time + request latency).
    Req {
        /// Global server index.
        server: usize,
        /// Service demand at the server.
        demand: SimDuration,
        /// Response network latency, applied after service completes.
        resp_delay: SimDuration,
        /// Global worker index awaiting the reply.
        worker: usize,
    },
    /// The RPC response re-entering the client's domain; resumes the worker.
    Reply {
        /// Global worker index.
        worker: usize,
    },
}

/// A remote request being served in this domain, slab-indexed by proxy job.
struct RemoteJob {
    server: usize,
    demand: SimDuration,
    resp_delay: SimDuration,
    worker: usize,
}

/// The in-flight remote RPC of a local worker (the intercepted
/// `NetDelay → Server → NetDelay` stage run).
struct RemoteRpc {
    /// Stages consumed by the interception (2 without a trailing NetDelay,
    /// 3 with).
    skip: usize,
    req_ns: u64,
    resp_ns: u64,
    demand_ns: u64,
}

enum PEv {
    /// Start all local workers (the t = 0 MPI barrier, §3.3.3).
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
    ReqArrive {
        slot: u32,
    },
    ReplyArrive {
        worker: usize,
    },
    Sample,
}

/// Per-worker in-flight state: the partitioned-mode subset of the classic
/// engine's worker record, plus the remote-RPC hold.
struct PState {
    spec: WorkerSpec,
    /// Global worker index (telemetry track id, result placement).
    global: usize,
    plan: OpPlan,
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
    op_name: &'static str,
    op_id: u64,
    stage_entered: SimTime,
    client_ns: u64,
    network_ns: u64,
    queue_ns: u64,
    service_ns: u64,
    cache: telemetry::CacheTag,
    rpc_flow: Option<u64>,
    remote: Option<RemoteRpc>,
}

/// Cache-line aligned: neighbouring domains usually run on different
/// threads, and the per-event fields at the start of one must not share a
/// line with the tail of the other.
#[repr(align(128))]
struct Domain<'run> {
    idx: usize,
    model: Box<dyn DistFs>,
    sched: Scheduler<PEv>,
    /// FIFO stations indexed by *global* server id (`Some` iff owned).
    servers: Vec<Option<FifoResource>>,
    /// CPU resources indexed by *global* node id (`Some` iff owned).
    cpus: Vec<Option<PsResource>>,
    rng: DetRng,
    states: Vec<PState>,
    streams: Vec<Box<dyn OpStream>>,
    remote: Vec<Option<RemoteJob>>,
    remote_free: Vec<u32>,
    unfinished: usize,
    /// Domain of every global server / worker (for message routing).
    server_domain: &'run [usize],
    worker_domain: &'run [usize],
    /// Local index of every global worker in its owning domain.
    worker_local: &'run [usize],
    sample_interval: SimDuration,
    deadline: Option<SimTime>,
    /// This domain's telemetry capture (`None` on untraced runs); swapped
    /// onto the executing thread around every window.
    cap: Option<telemetry::ThreadCapture>,
    pid: u32,
}

impl Domain<'_> {
    fn schedule_cpu(&mut self, node: usize, now: SimTime) {
        let cpu = self.cpus[node].as_mut().expect("CPU owned by this domain");
        if let Some(c) = cpu.next_completion(now) {
            self.sched.schedule_at(
                c.at,
                PEv::CpuDone {
                    node,
                    generation: c.generation,
                },
            );
        }
    }

    fn server_arrive(&mut self, server: usize, job: JobId, demand: SimDuration, now: SimTime) {
        let srv = self.servers[server]
            .as_mut()
            .expect("server owned by this domain");
        if let Some(start) = srv.arrive(now, job, demand) {
            self.sched.schedule_at(
                start.completes_at,
                PEv::ServerDone {
                    server,
                    job: start.job,
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

    /// Start the next operation of local worker `w` (classic `start_op`
    /// minus pauses/background, which partitionable plans may not carry).
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
            let client = ClientCtx {
                node: st.spec.node,
                proc: st.spec.proc,
            };
            match self
                .model
                .plan_into(client, &op, now, &mut self.rng, &mut st.plan)
            {
                Ok(()) => {
                    st.op_started = now;
                    st.op_name = op_label(&op);
                    st.op_id = telemetry::fresh_id();
                    st.stage_entered = now;
                    st.client_ns = 0;
                    st.network_ns = 0;
                    st.queue_ns = 0;
                    st.service_ns = 0;
                    st.cache = st.plan.cache;
                    st.rpc_flow = None;
                    st.remote = None;
                    let f = st.plan.faults;
                    if f.injected > 0 || f.retries > 0 || f.failovers > 0 {
                        st.retries += u64::from(f.retries);
                        st.failovers += u64::from(f.failovers);
                    }
                    if !(st.plan.pauses.is_empty() && st.plan.background.is_empty()) {
                        // typed panic: unwinds through the window runtime
                        // (which rethrows the original payload) and is
                        // downcast back to a structured error at the
                        // run_partitioned boundary
                        panic_any(PartitionUnsupported {
                            model: self.model.name().to_owned(),
                            feature: PartitionedFeature::PausesOrBackground,
                        });
                    }
                    st.active = true;
                    st.stage = 0;
                    return true;
                }
                Err(_) => {
                    st.errors += 1;
                    continue;
                }
            }
        }
    }

    /// Attribute the blocking stage local worker `w` just completed
    /// (classic `attribute_stage` for the supported subset).
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
            Stage::ClientCpu { .. } => st.client_ns += elapsed,
            Stage::NetDelay { .. } => st.network_ns += elapsed,
            Stage::Server { server, demand } => {
                let service = demand.as_nanos().min(elapsed);
                st.service_ns += service;
                st.queue_ns += elapsed - service;
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
            Stage::AcquireSem { .. } | Stage::ReleaseSem { .. } => {
                unreachable!("semaphore stages rejected at advance()")
            }
        }
        st.stage_entered = now;
    }

    /// Advance local worker `w` until it blocks or its op stream ends.
    fn advance(&mut self, w: usize, out: &mut Outbox<Msg>) {
        let job = JobId(w as u64);
        loop {
            let now = self.sched.now();
            let op_complete = {
                let st = &self.states[w];
                debug_assert!(st.active, "advance() with no active plan");
                st.stage >= st.plan.stages.len()
            };
            if op_complete {
                let st = &mut self.states[w];
                st.ops_done += 1;
                let lat = now.saturating_since(st.op_started);
                st.latency.push(lat);
                let tid = telemetry::worker_tid(st.global);
                telemetry::span_with_id(
                    self.pid,
                    tid,
                    st.op_name,
                    "op",
                    st.op_started,
                    now,
                    st.op_id,
                    0,
                );
                telemetry::observe("op.latency", lat);
                telemetry::op_record(telemetry::OpRecord {
                    pid: self.pid,
                    tid,
                    name: st.op_name,
                    id: st.op_id,
                    start_ns: st.op_started.as_nanos(),
                    dur_ns: lat.as_nanos(),
                    client_ns: st.client_ns,
                    network_ns: st.network_ns,
                    queue_ns: st.queue_ns,
                    service_ns: st.service_ns,
                    lock_ns: 0,
                    cache: st.cache,
                });
                st.active = false;
                if !self.start_op(w) {
                    return;
                }
                continue;
            }
            let (stage, node, global) = {
                let st = &self.states[w];
                (st.plan.stages[st.stage], st.spec.node, st.global)
            };
            match stage {
                Stage::ClientCpu { demand } => {
                    let weight = self.states[w].spec.cpu_weight;
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
                    let next = self.states[w].plan.stages.get(self.states[w].stage + 1);
                    if let Some(&Stage::Server { server, demand }) = next {
                        if self.server_domain[server.0] != self.idx {
                            let after = self.states[w].plan.stages.get(self.states[w].stage + 2);
                            let (skip, resp_delay) = match after {
                                Some(&Stage::NetDelay { delay: resp }) => (3, resp),
                                _ => (2, SimDuration::ZERO),
                            };
                            self.states[w].remote = Some(RemoteRpc {
                                skip,
                                req_ns: delay.as_nanos(),
                                resp_ns: resp_delay.as_nanos(),
                                demand_ns: demand.as_nanos(),
                            });
                            out.send(
                                self.server_domain[server.0],
                                now + delay,
                                Msg::Req {
                                    server: server.0,
                                    demand,
                                    resp_delay,
                                    worker: global,
                                },
                            );
                            return; // resumed by the Reply message
                        }
                    }
                    self.sched
                        .schedule_after(delay, PEv::StageCompleted { job });
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
                        self.states[w].rpc_flow = Some(flow);
                        telemetry::flow_start(
                            self.pid,
                            telemetry::worker_tid(global),
                            "rpc",
                            "rpc",
                            now,
                            flow,
                        );
                    }
                    self.server_arrive(server.0, job, demand, now);
                    return;
                }
                Stage::AcquireSem { .. } | Stage::ReleaseSem { .. } => {
                    panic_any(PartitionUnsupported {
                        model: self.model.name().to_owned(),
                        feature: PartitionedFeature::SemaphoreStages,
                    });
                }
            }
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: PEv, out: &mut Outbox<Msg>) {
        let _prof = prof::scope(match &ev {
            PEv::Kick => "parsim.kick",
            PEv::StageCompleted { .. } => "engine.stage_completed",
            PEv::CpuDone { .. } => "engine.cpu_done",
            PEv::ServerDone { .. } => "engine.server_done",
            PEv::ReqArrive { .. } | PEv::ReplyArrive { .. } => "parsim.remote_rpc",
            PEv::Sample => "engine.sample",
        });
        match ev {
            PEv::Kick => {
                for w in 0..self.states.len() {
                    if self.start_op(w) {
                        self.advance(w, out);
                    }
                }
            }
            PEv::StageCompleted { job } => {
                let w = job.0 as usize;
                if self.states[w].finished_at.is_some() {
                    return;
                }
                self.attribute_stage(w, now);
                self.states[w].stage += 1;
                self.advance(w, out);
            }
            PEv::CpuDone { node, generation } => {
                let done = self.cpus[node]
                    .as_mut()
                    .expect("CPU owned by this domain")
                    .on_completion(now, generation);
                if let Some(job) = done {
                    self.sched.schedule_at(now, PEv::StageCompleted { job });
                }
                self.schedule_cpu(node, now);
            }
            PEv::ServerDone { server, job } => {
                let next = self.servers[server]
                    .as_mut()
                    .expect("server owned by this domain")
                    .complete(now);
                if let Some(start) = next {
                    self.sched.schedule_at(
                        start.completes_at,
                        PEv::ServerDone {
                            server,
                            job: start.job,
                        },
                    );
                }
                if job.0 >= REMOTE_BASE {
                    // proxy job: send the reply home
                    let slot = (job.0 - REMOTE_BASE) as usize;
                    let rj = self.remote[slot].take().expect("live remote job");
                    self.remote_free
                        .push(u32::try_from(slot).expect("remote slab overflow"));
                    out.send(
                        self.worker_domain[rj.worker],
                        now + rj.resp_delay,
                        Msg::Reply { worker: rj.worker },
                    );
                } else {
                    self.sched.schedule_at(now, PEv::StageCompleted { job });
                }
            }
            PEv::ReqArrive { slot } => {
                let (server, demand) = {
                    let rj = self.remote[slot as usize]
                        .as_ref()
                        .expect("live remote job");
                    (rj.server, rj.demand)
                };
                self.server_arrive(server, JobId(REMOTE_BASE + u64::from(slot)), demand, now);
            }
            PEv::ReplyArrive { worker } => {
                let w = self.worker_local[worker];
                let st = &mut self.states[w];
                if st.finished_at.is_some() {
                    return;
                }
                let rpc = st.remote.take().expect("reply matches an in-flight RPC");
                // The interception covered request latency + queueing +
                // service + response latency; the stage timings are exact
                // integers, so attribution tiles the elapsed time precisely
                // like the classic engine's per-stage accounting.
                let elapsed = now.saturating_since(st.stage_entered).as_nanos();
                st.network_ns += rpc.req_ns + rpc.resp_ns;
                st.service_ns += rpc.demand_ns;
                st.queue_ns += elapsed - rpc.req_ns - rpc.resp_ns - rpc.demand_ns;
                st.stage_entered = now;
                st.stage += rpc.skip;
                self.advance(w, out);
            }
            PEv::Sample => {
                for st in self.states.iter_mut() {
                    if st.finished_at.is_none() {
                        st.samples.push((now, st.ops_done));
                    }
                }
                if telemetry::enabled() {
                    for (s, srv) in self.servers.iter().enumerate() {
                        let Some(srv) = srv else { continue };
                        let tid = telemetry::server_tid(s);
                        telemetry::gauge(self.pid, tid, "queue_depth", now, srv.queue_len() as u64);
                        telemetry::gauge(self.pid, tid, "in_service", now, srv.busy() as u64);
                    }
                    let outstanding = self
                        .states
                        .iter()
                        .filter(|st| {
                            st.finished_at.is_none()
                                && st.active
                                && (st.remote.is_some()
                                    || matches!(
                                        st.plan.stages.get(st.stage),
                                        Some(Stage::Server { .. })
                                    ))
                        })
                        .count();
                    telemetry::gauge(
                        self.pid,
                        telemetry::ENGINE_TID,
                        "rpcs_outstanding",
                        now,
                        outstanding as u64,
                    );
                    let pid = self.pid;
                    self.model.sample_gauges(&mut |name, value| {
                        telemetry::gauge(pid, telemetry::ENGINE_TID, name, now, value);
                    });
                }
                if self.unfinished > 0 {
                    self.sched.schedule_after(self.sample_interval, PEv::Sample);
                }
            }
        }
    }

    /// Run `f` with this domain's telemetry capture installed on the
    /// current thread (straight through when the run is untraced).
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
        self.sched.peek_time()
    }

    fn deliver(&mut self, env: Envelope<Msg>) {
        // Scheduling only — no telemetry, no RNG — so delivery needs no
        // capture swap and stays canonical under the sorted mailbox drain.
        match env.msg {
            Msg::Req {
                server,
                demand,
                resp_delay,
                worker,
            } => {
                let rj = RemoteJob {
                    server,
                    demand,
                    resp_delay,
                    worker,
                };
                let slot = match self.remote_free.pop() {
                    Some(slot) => {
                        self.remote[slot as usize] = Some(rj);
                        slot
                    }
                    None => {
                        let slot = u32::try_from(self.remote.len()).expect("remote slab overflow");
                        self.remote.push(Some(rj));
                        slot
                    }
                };
                self.sched
                    .schedule_at(env.deliver_at, PEv::ReqArrive { slot });
            }
            Msg::Reply { worker } => {
                self.sched
                    .schedule_at(env.deliver_at, PEv::ReplyArrive { worker });
            }
        }
    }

    fn run_window(&mut self, end: SimTime, out: &mut Outbox<Msg>) {
        self.with_capture(|dom| {
            while let Some((now, ev)) = dom.sched.pop_before(end) {
                dom.dispatch(now, ev, out);
            }
        });
    }
}

/// Run a partitioned model on the conservative windowed engine.
///
/// Called by `run_sim` once the model has offered a [`PartitionPlan`] and
/// the configuration is partition-safe (no disturbances, no model timers).
/// Results are bit-identical for every `threads` value.
///
/// # Errors
///
/// [`PartitionUnsupported`] when the model declares semaphores or its plans
/// use a restricted feature at runtime (semaphore stages, pauses,
/// background jobs).
///
/// # Panics
///
/// Panics on malformed plans (domain indices out of range, wrong table
/// lengths), on models that violate the lookahead contract, and on deadlock
/// (a worker that never finishes).
pub(crate) fn run_partitioned(
    model: &mut dyn DistFs,
    plan: PartitionPlan,
    node_names: &[String],
    workers: Vec<WorkerSpec>,
    streams: Vec<Box<dyn OpStream>>,
    config: &SimConfig,
    threads: usize,
) -> Result<SimRunResult, PartitionUnsupported> {
    assert_eq!(workers.len(), streams.len(), "one stream per worker");
    let nodes = node_names.len();
    for w in &workers {
        assert!(w.node < nodes, "worker on unknown node {}", w.node);
    }
    let domains = plan.domains();
    assert!(domains >= 2, "a partition needs at least two domains");
    assert!(
        plan.lookahead > SimDuration::ZERO,
        "a partition needs a positive lookahead"
    );
    model.register_clients(nodes);
    let resources = model.resources();
    if !resources.semaphores.is_empty() {
        return Err(PartitionUnsupported {
            model: model.name().to_owned(),
            feature: PartitionedFeature::Semaphores,
        });
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
    assert!(
        plan.server_domain
            .iter()
            .chain(&plan.node_domain)
            .all(|&d| d < domains),
        "domain index out of range"
    );

    let traced = telemetry::enabled();
    let worker_domain: Vec<usize> = workers.iter().map(|w| plan.node_domain[w.node]).collect();
    // local index of each global worker within its domain (assignment order
    // = ascending global index, so local order is canonical)
    let mut worker_local = vec![0usize; workers.len()];
    let mut local_counts = vec![0usize; domains];
    for (g, &d) in worker_domain.iter().enumerate() {
        worker_local[g] = local_counts[d];
        local_counts[d] += 1;
    }

    let deadline = config.duration.map(|d| SimTime::ZERO + d);
    let sample_cap = config.duration.map_or(64, |d| {
        (d.as_nanos() / config.sample_interval.as_nanos().max(1) + 2) as usize
    });

    // distribute workers and streams to their domains in global order
    let mut domain_specs: Vec<Vec<(usize, WorkerSpec)>> =
        (0..domains).map(|_| Vec::new()).collect();
    let mut domain_streams: Vec<Vec<Box<dyn OpStream>>> =
        (0..domains).map(|_| Vec::new()).collect();
    for ((g, spec), stream) in workers.iter().cloned().enumerate().zip(streams) {
        domain_specs[worker_domain[g]].push((g, spec));
        domain_streams[worker_domain[g]].push(stream);
    }

    let mut doms: Vec<Domain<'_>> = Vec::with_capacity(domains);
    for (d, (replica, local_streams)) in plan.models.into_iter().zip(domain_streams).enumerate() {
        let mut dom = Domain {
            idx: d,
            model: replica,
            sched: Scheduler::new(),
            servers: plan
                .server_domain
                .iter()
                .enumerate()
                .map(|(s, &sd)| {
                    (sd == d).then(|| FifoResource::new(resources.servers[s].parallelism))
                })
                .collect(),
            cpus: plan
                .node_domain
                .iter()
                .map(|&nd| (nd == d).then(|| PsResource::new(config.node_cores)))
                .collect(),
            rng: domain_rng(config.seed, d),
            states: domain_specs[d]
                .iter()
                .map(|&(g, ref spec)| PState {
                    spec: spec.clone(),
                    global: g,
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
                    op_id: 0,
                    stage_entered: SimTime::ZERO,
                    client_ns: 0,
                    network_ns: 0,
                    queue_ns: 0,
                    service_ns: 0,
                    cache: telemetry::CacheTag::Untagged,
                    rpc_flow: None,
                    remote: None,
                })
                .collect(),
            streams: local_streams,
            remote: Vec::new(),
            remote_free: Vec::new(),
            unfinished: domain_specs[d].len(),
            server_domain: &plan.server_domain,
            worker_domain: &worker_domain,
            worker_local: &worker_local,
            sample_interval: config.sample_interval,
            deadline,
            cap: traced.then(telemetry::ThreadCapture::fresh),
            pid: 0,
        };
        dom.model.register_clients(nodes);
        // One trace process per domain, named like the classic engine's run
        // process; absorbed in domain order below, so the traced output is
        // identical at every thread count.
        dom.with_capture(|dom| {
            dom.pid = telemetry::begin_run(dom.model.name());
            if telemetry::enabled() {
                for st in &dom.states {
                    telemetry::name_track(
                        dom.pid,
                        telemetry::worker_tid(st.global),
                        &format!("{}/p{}", node_names[st.spec.node], st.spec.proc),
                    );
                }
                for (s, owned) in dom.servers.iter().enumerate() {
                    if owned.is_some() {
                        telemetry::name_track(
                            dom.pid,
                            telemetry::server_tid(s),
                            &resources.servers[s].name,
                        );
                    }
                }
                telemetry::name_track(dom.pid, telemetry::ENGINE_TID, "engine");
            }
        });
        dom.sched.schedule_at(SimTime::ZERO, PEv::Kick);
        if !dom.states.is_empty() {
            dom.sched
                .schedule_at(SimTime::ZERO + config.sample_interval, PEv::Sample);
        }
        doms.push(dom);
    }

    // A restricted feature discovered mid-run unwinds out of the window
    // runtime as a typed panic; downcast it back into the structured error
    // here so callers see a Result, not a panic. Anything else (model bugs,
    // lookahead violations) keeps unwinding.
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
        par::run_conservative(&mut doms, plan.lookahead, threads);
    })) {
        match payload.downcast::<PartitionUnsupported>() {
            Ok(err) => return Err(*err),
            Err(payload) => resume_unwind(payload),
        }
    }

    // fold per-domain telemetry back into the caller's capture, in
    // canonical domain order
    if traced {
        for dom in &mut doms {
            if let Some(cap) = dom.cap.take() {
                telemetry::absorb(&cap.into_report());
            }
        }
    }

    let unfinished: usize = doms.iter().map(|d| d.unfinished).sum();
    assert!(
        unfinished == 0,
        "deadlock: {unfinished} workers never finished"
    );

    let mut traces: Vec<Option<WorkerTrace>> = (0..workers.len()).map(|_| None).collect();
    let mut wall_time = SimTime::ZERO;
    for dom in doms {
        for st in dom.states {
            let finished = st.finished_at.expect("all workers finished");
            wall_time = wall_time.max(finished);
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
    }
    Ok(SimRunResult {
        fs_name: model.name().to_owned(),
        interval: config.sample_interval,
        workers: traces
            .into_iter()
            .map(|t| t.expect("every worker produced a trace"))
            .collect(),
        wall_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With `--sim-threads` unset (never set by this crate's tests): only
    /// pinned runs go windowed, on at most two cores, and on one while the
    /// host is shared.
    #[test]
    fn pinned_default_takes_two_cores_or_one_when_shared() {
        assert_eq!(sim_threads(), None);
        assert_eq!(window_threads(false), None);
        assert_eq!(window_threads(true), Some(par::host_cores().min(2)));
        let share = par::HostShare::enter();
        assert_eq!(window_threads(true), Some(1));
        assert_eq!(window_threads(false), None);
        drop(share);
        assert_eq!(window_threads(true), Some(par::host_cores().min(2)));
    }
}
