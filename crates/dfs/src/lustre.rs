//! Lustre 1.6-style parallel file system model (paper §4.1.2, §4.3, §4.8).
//!
//! Structure follows the LRZ installation: one metadata server (MDS) and a
//! set of object storage servers (OSS). The behaviours that shape metadata
//! performance:
//!
//! * every metadata mutation is an intent-locked RPC to the single MDS,
//! * a client node keeps only **one modifying metadata RPC in flight** —
//!   intra-node parallelism does not help creates (the flat SMP curves of
//!   §4.5), modelled as a per-node semaphore,
//! * the MDS has no NVRAM; its journal commits are batched to disk by a
//!   commit pipeline (a separate queueing station),
//! * clients keep a copy of uncommitted operations (metadata write-back,
//!   §4.8): a per-node window semaphore is taken per mutation and released
//!   when the corresponding commit finishes — when the commit pipeline lags,
//!   clients stall in bursts,
//! * file creation pre-creates data objects on the OSSes in batches,
//!   which appears as background OSS load, not client latency,
//! * attribute caching is lock-based (LDLM): once a client holds the lock
//!   (e.g. it created the file), `stat` is local until the lock is dropped.

use crate::cache::CallbackCache;
use crate::costmodel::{apply_meta_op, ServiceCostModel};
use crate::op::MetaOp;
use crate::plan::{
    BackgroundJob, ClientCtx, DistFs, FaultStats, FsResources, OpPlan, SemId, SemSpec, ServerId,
    ServerSpec, Stage,
};
use memfs::{FsResult, MemFs, MemFsConfig};
use netsim::fault::FaultPlan;
use netsim::{LinkSpec, RpcProfile};
use simcore::{telemetry, DetRng, SimDuration, SimTime};

/// Tunables of the Lustre model.
#[derive(Debug, Clone)]
pub struct LustreConfig {
    /// MDS service slots.
    pub mds_parallelism: usize,
    /// Number of object storage servers.
    pub oss_count: usize,
    /// MDS service-time coefficients.
    pub cost: ServiceCostModel,
    /// Client ↔ server link.
    pub link: LinkSpec,
    /// Client CPU per RPC (the Lustre client stack is heavier than NFS).
    pub client_cpu: SimDuration,
    /// Client CPU for a lock-cached `stat`.
    pub cached_stat_cpu: SimDuration,
    /// Metadata write-back window per client node (uncommitted ops a client
    /// may hold; paper §4.8). `0` disables write-back tracking.
    pub writeback_window: usize,
    /// Commit-pipeline service time per operation (disk journal write).
    pub commit_demand: SimDuration,
    /// Every `precreate_batch`-th create triggers a background OSS
    /// object-pre-creation RPC.
    pub precreate_batch: u64,
    /// OSS service time for an object pre-creation batch.
    pub precreate_demand: SimDuration,
    /// MDS file-system configuration.
    pub fs_config: MemFsConfig,
    /// Link jitter.
    pub jitter: f64,
    /// Time for clients to declare the active MDS dead after a crash.
    pub failover_detect: SimDuration,
    /// Recovery replay on the standby MDS before it admits new requests
    /// (clients resend their uncommitted operations first).
    pub failover_replay: SimDuration,
}

impl Default for LustreConfig {
    fn default() -> Self {
        LustreConfig {
            mds_parallelism: 3,
            oss_count: 12,
            cost: ServiceCostModel {
                base: SimDuration::from_micros(500),
                ..ServiceCostModel::disk_mds()
            },
            link: LinkSpec::lan(),
            client_cpu: SimDuration::from_micros(100),
            cached_stat_cpu: SimDuration::from_micros(5),
            writeback_window: 4096,
            commit_demand: SimDuration::from_micros(25),
            precreate_batch: 32,
            precreate_demand: SimDuration::from_micros(400),
            fs_config: MemFsConfig::default(),
            jitter: 0.04,
            failover_detect: SimDuration::from_millis(1500),
            failover_replay: SimDuration::from_secs(3),
        }
    }
}

/// The Lustre model. See the module-level documentation.
#[derive(Debug)]
pub struct LustreFs {
    config: LustreConfig,
    mds_fs: MemFs,
    lock_caches: Vec<CallbackCache>,
    nodes: usize,
    creates_seen: u64,
    next_oss: usize,
    faults: Option<FaultPlan>,
    /// Crash events (by index in the plan) whose failover was already
    /// attributed to an operation.
    failovers_handled: usize,
    failovers: u64,
}

/// Server index of the MDS.
pub const LUSTRE_MDS: ServerId = ServerId(0);
/// Server index of the MDS commit (journal/disk) pipeline.
pub const LUSTRE_COMMIT: ServerId = ServerId(1);

impl LustreFs {
    /// Create the model.
    pub fn new(config: LustreConfig) -> Self {
        let mds_fs = MemFs::with_config(config.fs_config.clone());
        LustreFs {
            config,
            mds_fs,
            lock_caches: Vec::new(),
            nodes: 0,
            creates_seen: 0,
            next_oss: 0,
            faults: None,
            failovers_handled: 0,
            failovers: 0,
        }
    }

    /// Attach a fault plan. A `crash:0@T+D` clause crashes the **active
    /// MDS**: operations planned between the crash and the end of standby
    /// recovery (`T + failover_detect + failover_replay`) stall until the
    /// standby has replayed the journal; the first such operation accounts
    /// the failover event. The primary's own restart is irrelevant — the
    /// standby keeps serving (Lustre active/standby MDS pairs).
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// MDS failover events observed so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// The model with default tuning.
    pub fn with_defaults() -> Self {
        Self::new(LustreConfig::default())
    }

    /// Access the MDS namespace (for assertions in tests).
    pub fn mds_fs(&self) -> &MemFs {
        &self.mds_fs
    }

    /// Mutable access to the MDS namespace — used by experiments to
    /// pre-populate large directories without paying the RPC machinery.
    pub fn mds_fs_mut(&mut self) -> &mut MemFs {
        &mut self.mds_fs
    }

    fn modify_sem(&self, node: usize) -> SemId {
        SemId(node)
    }

    fn wb_sem(&self, node: usize) -> Option<SemId> {
        if self.config.writeback_window == 0 {
            None
        } else {
            Some(SemId(self.nodes + node))
        }
    }

    fn oss_server(&mut self) -> ServerId {
        let id = ServerId(2 + self.next_oss);
        self.next_oss = (self.next_oss + 1) % self.config.oss_count.max(1);
        id
    }
}

impl DistFs for LustreFs {
    fn resources(&self) -> FsResources {
        assert!(
            self.nodes > 0,
            "register_clients must be called before resources()"
        );
        let mut servers = vec![
            ServerSpec {
                name: "mds".to_owned(),
                parallelism: self.config.mds_parallelism,
            },
            ServerSpec {
                name: "mds-commit".to_owned(),
                parallelism: 1,
            },
        ];
        for i in 0..self.config.oss_count {
            servers.push(ServerSpec {
                name: format!("oss{i}"),
                parallelism: 4,
            });
        }
        let mut semaphores: Vec<SemSpec> = (0..self.nodes)
            .map(|n| SemSpec {
                name: format!("client{n}-modify"),
                permits: 1,
            })
            .collect();
        if self.config.writeback_window > 0 {
            semaphores.extend((0..self.nodes).map(|n| SemSpec {
                name: format!("client{n}-writeback"),
                permits: self.config.writeback_window,
            }));
        }
        FsResources {
            servers,
            semaphores,
        }
    }

    fn register_clients(&mut self, nodes: usize) {
        if self.nodes == nodes {
            return; // idempotent: keep cache state across benchmark phases
        }
        self.nodes = nodes;
        self.lock_caches = (0..nodes).map(|_| CallbackCache::new()).collect();
    }

    fn plan(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        now: SimTime,
        rng: &mut DetRng,
    ) -> FsResult<OpPlan> {
        let mut out = OpPlan::default();
        self.plan_into(client, op, now, rng, &mut out)?;
        Ok(out)
    }

    fn plan_into(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        now: SimTime,
        rng: &mut DetRng,
        out: &mut OpPlan,
    ) -> FsResult<()> {
        out.reset();
        // lock-cached reads are local
        let mut cache_tag = telemetry::CacheTag::Untagged;
        match op {
            MetaOp::Stat { path } | MetaOp::OpenClose { path }
                if self.lock_caches[client.node].lookup(path) =>
            {
                telemetry::count("lustre.lock_cache.hit", 1);
                out.stages.push(Stage::ClientCpu {
                    demand: self.config.cached_stat_cpu,
                });
                out.cache = telemetry::CacheTag::Hit;
                return Ok(());
            }
            MetaOp::Stat { .. } | MetaOp::OpenClose { .. } => {
                telemetry::count("lustre.lock_cache.miss", 1);
                cache_tag = telemetry::CacheTag::Miss;
            }
            _ => {}
        }
        // MDS failover: an RPC issued between the crash and the end of
        // standby recovery times out, reconnects and waits for journal
        // replay to finish before it is serviced.
        let mut fstats = FaultStats::default();
        if let Some(faults) = self.faults.as_ref() {
            if let Some((idx, crash)) = faults.last_crash_at_or_before(LUSTRE_MDS.0, now) {
                let takeover = crash.at + self.config.failover_detect + self.config.failover_replay;
                if now < takeover {
                    fstats.injected += 1;
                    fstats.retries += 1;
                    fstats.stall = takeover.since(now);
                    if idx >= self.failovers_handled {
                        self.failovers_handled = idx + 1;
                        self.failovers += 1;
                        fstats.failovers = 1;
                        telemetry::count("lustre.failover", 1);
                    }
                }
            }
            if faults.degradation(now + fstats.stall).is_some() {
                fstats.injected += 1;
            }
        }
        let send_at = now + fstats.stall;
        let cost = apply_meta_op(&mut self.mds_fs, op)?;
        let demand = self.config.cost.demand(cost);
        let link = self.config.link.with_jitter(self.config.jitter);
        let faults = self.faults.as_ref();
        let profile = match op {
            MetaOp::Readdir { .. } => RpcProfile::readdir(cost.dir_probes),
            _ => RpcProfile::metadata(),
        };
        if op.is_mutation() {
            // window slot for the uncommitted-operation copy (§4.8)
            if let Some(wb) = self.wb_sem(client.node) {
                out.stages.push(Stage::AcquireSem { sem: wb });
                // the journal commit is Lustre's consistency point: the
                // moment the uncommitted client-held copy becomes durable
                // server-side state (§4.8)
                out.background.push(BackgroundJob {
                    server: LUSTRE_COMMIT,
                    demand: self.config.commit_demand,
                    release_sem: Some(wb),
                    label: Some("consistency-point"),
                });
                telemetry::count("lustre.commit", 1);
            }
            // single modifying RPC in flight per node
            out.stages.push(Stage::AcquireSem {
                sem: self.modify_sem(client.node),
            });
        }
        // The failover stall sits after the semaphore acquires: the client
        // holds its window slot and modify slot while its RPC times out and
        // reconnects, and the commit background job scheduled at plan time
        // must never release a slot this op has not acquired yet.
        if !fstats.stall.is_zero() {
            out.stages.push(Stage::NetDelay {
                delay: fstats.stall,
            });
        }
        out.stages.push(Stage::ClientCpu {
            demand: self.config.client_cpu,
        });
        if op.is_mutation() {
            // LDLM intent-lock enqueue round trip preceding the modifying
            // RPC (Lustre 1.6 metadata path)
            out.stages.push(Stage::NetDelay {
                delay: link.one_way_at(64, send_at, faults, rng),
            });
            out.stages.push(Stage::NetDelay {
                delay: link.one_way_at(64, send_at, faults, rng),
            });
        }
        out.stages.push(Stage::NetDelay {
            delay: link.one_way_at(profile.request_bytes, send_at, faults, rng),
        });
        telemetry::count("lustre.rpc", 1);
        out.stages.push(Stage::Server {
            server: LUSTRE_MDS,
            demand,
        });
        out.stages.push(Stage::NetDelay {
            delay: link.one_way_at(profile.response_bytes, send_at, faults, rng),
        });
        if op.is_mutation() {
            out.stages.push(Stage::ReleaseSem {
                sem: self.modify_sem(client.node),
            });
            self.lock_caches[client.node].fill(op.primary_path());
        } else {
            self.lock_caches[client.node].fill(op.primary_path());
        }
        if matches!(op, MetaOp::Create { .. }) {
            self.creates_seen += 1;
            if self
                .creates_seen
                .is_multiple_of(self.config.precreate_batch)
            {
                let server = self.oss_server();
                out.background.push(BackgroundJob {
                    server,
                    demand: self.config.precreate_demand,
                    release_sem: None,
                    label: Some("precreate"),
                });
                telemetry::count("lustre.precreate", 1);
            }
        }
        out.faults = fstats;
        out.cache = cache_tag;
        Ok(())
    }

    fn crash_targets(&self) -> std::ops::Range<usize> {
        // MDS failover; a crashed OSS or commit thread is not modelled
        LUSTRE_MDS.0..LUSTRE_MDS.0 + 1
    }

    fn drop_caches(&mut self, node: usize) {
        if let Some(c) = self.lock_caches.get_mut(node) {
            c.clear();
        }
    }

    fn sample_gauges(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        let entries: usize = self.lock_caches.iter().map(CallbackCache::len).sum();
        emit("lustre.lock_cache.entries", entries as u64);
        let stats = self
            .lock_caches
            .iter()
            .map(|c| c.stats())
            .fold((0u64, 0u64), |acc, s| (acc.0 + s.hits, acc.1 + s.misses));
        if let Some(permille) = (stats.0 * 1000).checked_div(stats.0 + stats.1) {
            emit("lustre.lock_cache.hit_permille", permille);
        }
    }

    fn name(&self) -> &str {
        "lustre"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(node: usize) -> ClientCtx {
        ClientCtx { node, proc: 0 }
    }

    fn create_op(path: &str) -> MetaOp {
        MetaOp::Create {
            path: path.into(),
            data_bytes: 0,
        }
    }

    fn model() -> LustreFs {
        let mut m = LustreFs::with_defaults();
        m.register_clients(2);
        m
    }

    #[test]
    fn resources_declare_mds_commit_oss_and_sems() {
        let m = model();
        let r = m.resources();
        assert_eq!(r.servers.len(), 2 + 12);
        assert_eq!(r.servers[0].name, "mds");
        assert_eq!(r.servers[1].name, "mds-commit");
        // 2 modify locks + 2 write-back windows
        assert_eq!(r.semaphores.len(), 4);
        assert_eq!(r.semaphores[0].permits, 1);
        assert_eq!(r.semaphores[2].permits, 4096);
    }

    #[test]
    fn create_serializes_through_modify_sem() {
        let mut m = model();
        let mut rng = DetRng::new(1);
        let plan = m
            .plan(ctx(0), &create_op("/w/f"), SimTime::ZERO, &mut rng)
            .unwrap();
        let acquires: Vec<SemId> = plan
            .stages
            .iter()
            .filter_map(|s| match s {
                Stage::AcquireSem { sem } => Some(*sem),
                _ => None,
            })
            .collect();
        assert!(acquires.contains(&SemId(0)), "node-0 modify lock taken");
        // write-back slot + commit background job present
        assert_eq!(plan.background.len(), 1);
        assert_eq!(plan.background[0].server, LUSTRE_COMMIT);
        assert_eq!(plan.background[0].release_sem, Some(SemId(2)));
    }

    #[test]
    fn stat_after_create_is_lock_cached_locally() {
        let mut m = model();
        let mut rng = DetRng::new(1);
        m.plan(ctx(0), &create_op("/w/f"), SimTime::ZERO, &mut rng)
            .unwrap();
        let stat = MetaOp::Stat {
            path: "/w/f".into(),
        };
        assert!(m
            .plan(ctx(0), &stat, SimTime::from_secs(100), &mut rng)
            .unwrap()
            .is_client_only());
        assert!(!m
            .plan(ctx(1), &stat, SimTime::ZERO, &mut rng)
            .unwrap()
            .is_client_only());
    }

    #[test]
    fn precreate_batches_hit_oss_in_background() {
        let mut m = model();
        let mut rng = DetRng::new(1);
        let mut oss_jobs = 0;
        for i in 0..64 {
            let plan = m
                .plan(
                    ctx(0),
                    &create_op(&format!("/w/f{i}")),
                    SimTime::ZERO,
                    &mut rng,
                )
                .unwrap();
            oss_jobs += plan.background.iter().filter(|b| b.server.0 >= 2).count();
        }
        assert_eq!(oss_jobs, 2, "one pre-creation per 32 creates");
    }

    #[test]
    fn stats_do_not_take_modify_lock() {
        let mut m = model();
        let mut rng = DetRng::new(1);
        let stat = MetaOp::Stat { path: "/w".into() };
        // /w does not exist yet — create it via mkdir first
        m.plan(
            ctx(0),
            &MetaOp::Mkdir { path: "/w".into() },
            SimTime::ZERO,
            &mut rng,
        )
        .unwrap();
        m.drop_caches(0);
        let plan = m.plan(ctx(0), &stat, SimTime::ZERO, &mut rng).unwrap();
        assert!(
            !plan
                .stages
                .iter()
                .any(|s| matches!(s, Stage::AcquireSem { .. })),
            "read path is lock-free"
        );
    }

    #[test]
    fn mds_crash_stalls_ops_until_standby_recovers() {
        use netsim::fault::FaultSpec;
        let mut m = model();
        m.set_faults(FaultSpec::parse("crash:0@20s+5s").unwrap().build());
        let mut rng = DetRng::new(1);
        let before = m
            .plan(ctx(0), &create_op("/w/a"), SimTime::from_secs(10), &mut rng)
            .unwrap();
        assert_eq!(before.faults, FaultStats::default());
        // planned 1 s into the outage: stall to 20 + 1.5 + 3.0 = 24.5 s
        let during = m
            .plan(ctx(0), &create_op("/w/b"), SimTime::from_secs(21), &mut rng)
            .unwrap();
        assert_eq!(during.faults.failovers, 1, "first observer accounts it");
        assert_eq!(during.faults.retries, 1);
        assert_eq!(during.faults.stall, SimDuration::from_millis(3500));
        let later = m
            .plan(ctx(1), &create_op("/w/c"), SimTime::from_secs(22), &mut rng)
            .unwrap();
        assert_eq!(later.faults.failovers, 0, "failover already attributed");
        assert_eq!(later.faults.retries, 1);
        let after = m
            .plan(ctx(0), &create_op("/w/d"), SimTime::from_secs(30), &mut rng)
            .unwrap();
        assert_eq!(after.faults, FaultStats::default(), "standby is serving");
        assert_eq!(m.failovers(), 1);
    }

    #[test]
    fn writeback_disabled_removes_window() {
        let mut cfg = LustreConfig::default();
        cfg.writeback_window = 0;
        let mut m = LustreFs::new(cfg);
        m.register_clients(1);
        assert_eq!(m.resources().semaphores.len(), 1);
        let mut rng = DetRng::new(1);
        let plan = m
            .plan(ctx(0), &create_op("/w/f"), SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(plan.background.is_empty());
    }
}
