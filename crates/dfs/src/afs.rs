//! AFS model: external namespace aggregation (paper §2.5.1, §4.7.3).
//!
//! AFS assembles its namespace on the *client*: the cache manager consults a
//! volume location database (VLDB) to find the file server holding a volume,
//! then talks to that server directly. Three behaviours matter for metadata
//! performance:
//!
//! * the first access to a volume from a node pays an extra VLDB RPC; the
//!   location is then cached,
//! * the single-threaded client cache manager serializes all file-system
//!   RPCs of one OS instance — intra-node parallelism is flat (§4.7.3),
//! * open-to-close semantics with callbacks: once fetched, attributes stay
//!   locally valid until the server breaks the callback (§2.6.1).

use crate::cache::{AttrCache, CallbackCache};
use crate::costmodel::{apply_meta_op, ServiceCostModel};
use crate::op::MetaOp;
use crate::plan::{
    ClientCtx, DistFs, FaultStats, FsResources, OpPlan, SemId, SemSpec, ServerId, ServerSpec, Stage,
};
use crate::recovery::{retry_backoff, RetryPolicy};
use memfs::{FsError, FsResult, MemFs, MemFsConfig};
use netsim::fault::FaultPlan;
use netsim::{LinkSpec, RpcProfile};
use simcore::{telemetry, DetRng, SimDuration, SimTime};

/// A volume served by one AFS file server.
#[derive(Debug, Clone)]
pub struct AfsVolume {
    /// Top-level directory that addresses the volume.
    pub prefix: String,
    /// File-server index (0-based; the VLDB server is separate).
    pub server: usize,
}

/// Tunables of the AFS model.
#[derive(Debug, Clone)]
pub struct AfsConfig {
    /// Number of file servers.
    pub file_servers: usize,
    /// Volumes and their placement.
    pub volumes: Vec<AfsVolume>,
    /// Service slots per file server.
    pub server_parallelism: usize,
    /// File-server service-time coefficients (AFS servers are slower than
    /// NVRAM filers for mutations).
    pub cost: ServiceCostModel,
    /// VLDB lookup service time.
    pub vldb_demand: SimDuration,
    /// Client ↔ server link.
    pub link: LinkSpec,
    /// Client CPU per RPC (cache-manager overhead).
    pub client_cpu: SimDuration,
    /// Client CPU for a callback-cached `stat`.
    pub cached_stat_cpu: SimDuration,
    /// Per-volume file-system configuration.
    pub fs_config: MemFsConfig,
    /// Link jitter.
    pub jitter: f64,
    /// Cache-manager RPC timeout/backoff tuning when a fault plan is active.
    pub retry: RetryPolicy,
}

impl Default for AfsConfig {
    fn default() -> Self {
        let file_servers = 4;
        AfsConfig {
            file_servers,
            volumes: (0..file_servers * 2)
                .map(|i| AfsVolume {
                    prefix: format!("vol{i}"),
                    server: i % file_servers,
                })
                .collect(),
            server_parallelism: 4,
            cost: ServiceCostModel {
                base: SimDuration::from_micros(550),
                ..ServiceCostModel::disk_mds()
            },
            vldb_demand: SimDuration::from_micros(150),
            link: LinkSpec::lan(),
            client_cpu: SimDuration::from_micros(70),
            cached_stat_cpu: SimDuration::from_micros(6),
            fs_config: MemFsConfig::default(),
            jitter: 0.04,
            retry: RetryPolicy::nfs_soft(),
        }
    }
}

/// The AFS model. See the module-level documentation.
#[derive(Debug)]
pub struct AfsFs {
    config: AfsConfig,
    volume_fs: Vec<MemFs>,
    callback_caches: Vec<CallbackCache>,
    /// Cached VLDB answers per node: `vldb_cache[node]` knows these volumes.
    vldb_caches: Vec<AttrCache>,
    nodes: usize,
    faults: Option<FaultPlan>,
    /// Restart events (ordered by restart instant) already turned into a
    /// callback-break storm.
    restarts_handled: usize,
    callback_breaks: u64,
}

/// Server index of the VLDB server.
pub const AFS_VLDB: ServerId = ServerId(0);

impl AfsFs {
    /// Create the model.
    pub fn new(config: AfsConfig) -> Self {
        let volume_fs = config
            .volumes
            .iter()
            .map(|_| MemFs::with_config(config.fs_config.clone()))
            .collect();
        AfsFs {
            config,
            volume_fs,
            callback_caches: Vec::new(),
            vldb_caches: Vec::new(),
            nodes: 0,
            faults: None,
            restarts_handled: 0,
            callback_breaks: 0,
        }
    }

    /// Attach a fault plan. A crashed file server makes the cache manager
    /// retry with backoff; when the server restarts it has lost its callback
    /// state, so **every** outstanding callback on every node breaks at once
    /// (the restart storm of real AFS cells) and subsequent reads must
    /// refetch.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Callbacks broken by server-restart storms so far.
    pub fn callback_breaks(&self) -> u64 {
        self.callback_breaks
    }

    /// The model with default tuning.
    pub fn with_defaults() -> Self {
        Self::new(AfsConfig::default())
    }

    /// Resolve a path's volume.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] when the path addresses no known volume.
    pub fn volume_of(&self, path: &str) -> FsResult<usize> {
        let p = memfs::FsPath::parse(path)?;
        let first = p.components().first().ok_or(FsError::NotFound)?;
        self.config
            .volumes
            .iter()
            .position(|v| v.prefix.as_str() == &**first)
            .ok_or(FsError::NotFound)
    }

    fn cache_mgr_sem(&self, node: usize) -> SemId {
        SemId(node)
    }

    fn volume_relative(path: &str) -> FsResult<String> {
        let p = memfs::FsPath::parse(path)?;
        let comps = p.components();
        if comps.len() <= 1 {
            Ok("/".to_owned())
        } else {
            Ok(format!("/{}", comps[1..].join("/")))
        }
    }

    fn rewrite_op(op: &MetaOp) -> FsResult<MetaOp> {
        let mut op = op.clone();
        match &mut op {
            MetaOp::Create { path, .. }
            | MetaOp::Mkdir { path }
            | MetaOp::Unlink { path }
            | MetaOp::Rmdir { path }
            | MetaOp::Stat { path }
            | MetaOp::OpenClose { path }
            | MetaOp::Readdir { path }
            | MetaOp::Chmod { path, .. }
            | MetaOp::Utimes { path, .. } => *path = Self::volume_relative(path)?,
            MetaOp::Rename { from, to } => {
                *from = Self::volume_relative(from)?;
                *to = Self::volume_relative(to)?;
            }
            MetaOp::Link { existing, new } => {
                *existing = Self::volume_relative(existing)?;
                *new = Self::volume_relative(new)?;
            }
            MetaOp::Symlink { linkpath, .. } => *linkpath = Self::volume_relative(linkpath)?,
        }
        Ok(op)
    }
}

impl DistFs for AfsFs {
    fn resources(&self) -> FsResources {
        assert!(
            self.nodes > 0,
            "register_clients must be called before resources()"
        );
        let mut servers = vec![ServerSpec {
            name: "vldb".to_owned(),
            parallelism: 2,
        }];
        servers.extend((0..self.config.file_servers).map(|i| ServerSpec {
            name: format!("afs-fs{i}"),
            parallelism: self.config.server_parallelism,
        }));
        FsResources {
            servers,
            semaphores: (0..self.nodes)
                .map(|n| SemSpec {
                    name: format!("client{n}-cache-mgr"),
                    permits: 1,
                })
                .collect(),
        }
    }

    fn register_clients(&mut self, nodes: usize) {
        if self.nodes == nodes {
            return; // idempotent: keep cache state across benchmark phases
        }
        self.nodes = nodes;
        self.callback_caches = (0..nodes).map(|_| CallbackCache::new()).collect();
        // VLDB entries effectively never expire during a run
        self.vldb_caches = (0..nodes)
            .map(|_| AttrCache::new(SimDuration::from_secs(1 << 24)))
            .collect();
    }

    fn plan(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        now: SimTime,
        rng: &mut DetRng,
    ) -> FsResult<OpPlan> {
        // Server restarts completed by `now` have lost their callback state:
        // every outstanding callback breaks at once (the restart storm),
        // before any cache lookup below may answer locally.
        if let Some(faults) = self.faults.as_ref() {
            let restarts = faults.restarts();
            while self.restarts_handled < restarts.len()
                && restarts[self.restarts_handled].restart <= now
            {
                self.restarts_handled += 1;
                let mut broken = 0u64;
                for cache in &mut self.callback_caches {
                    broken += cache.len() as u64;
                    cache.clear();
                }
                self.callback_breaks += broken;
                telemetry::count("afs.callback_break", broken);
            }
        }
        let mut cache_tag = telemetry::CacheTag::Untagged;
        match op {
            MetaOp::Stat { path } | MetaOp::OpenClose { path }
                if self.callback_caches[client.node].lookup(path) =>
            {
                telemetry::count("afs.callback_cache.hit", 1);
                return Ok(
                    OpPlan::local(self.config.cached_stat_cpu).with_cache(telemetry::CacheTag::Hit)
                );
            }
            MetaOp::Stat { .. } | MetaOp::OpenClose { .. } => {
                telemetry::count("afs.callback_cache.miss", 1);
                cache_tag = telemetry::CacheTag::Miss;
            }
            _ => {}
        }
        let volume = self.volume_of(op.primary_path())?;
        // Atomic rename and hard links cannot cross volumes (paper §2.6.3).
        match op {
            MetaOp::Rename { from, .. } | MetaOp::Link { existing: from, .. }
                if self.volume_of(from)? != volume =>
            {
                return Err(FsError::CrossDevice);
            }
            _ => {}
        }
        let vol_op = Self::rewrite_op(op)?;
        let cost = apply_meta_op(&mut self.volume_fs[volume], &vol_op)?;
        let demand = self.config.cost.demand(cost);
        let server = ServerId(1 + self.config.volumes[volume].server);
        let link = self.config.link.with_jitter(self.config.jitter);
        let profile = RpcProfile::metadata();
        let sem = self.cache_mgr_sem(client.node);
        // A crashed file server: the cache manager times out and retries
        // with backoff while holding its slot (the whole node stalls).
        let mut fstats = FaultStats::default();
        let mut retry_stages = Vec::new();
        if let Some(faults) = self.faults.as_mut() {
            let (stages, stats) = retry_backoff(faults, Some(server.0), now, self.config.retry);
            retry_stages = stages;
            fstats = stats;
            if faults.degradation(now + fstats.stall).is_some() {
                fstats.injected += 1;
            }
        }
        let send_at = now + fstats.stall;
        let faults = self.faults.as_ref();
        let mut stages = vec![
            Stage::AcquireSem { sem },
            Stage::ClientCpu {
                demand: self.config.client_cpu,
            },
        ];
        stages.extend(retry_stages);
        // first touch of a volume from this node: VLDB round trip
        let vol_key = format!("vldb:{volume}");
        if !self.vldb_caches[client.node].lookup(&vol_key, now) {
            telemetry::count("afs.vldb_lookup", 1);
            stages.push(Stage::NetDelay {
                delay: link.one_way_at(profile.request_bytes, send_at, faults, rng),
            });
            stages.push(Stage::Server {
                server: AFS_VLDB,
                demand: self.config.vldb_demand,
            });
            stages.push(Stage::NetDelay {
                delay: link.one_way_at(profile.response_bytes, send_at, faults, rng),
            });
            self.vldb_caches[client.node].fill(&vol_key, now);
        }
        stages.push(Stage::NetDelay {
            delay: link.one_way_at(profile.request_bytes, send_at, faults, rng),
        });
        telemetry::count("afs.rpc", 1);
        stages.push(Stage::Server { server, demand });
        stages.push(Stage::NetDelay {
            delay: link.one_way_at(profile.response_bytes, send_at, faults, rng),
        });
        stages.push(Stage::ReleaseSem { sem });
        self.callback_caches[client.node].fill(op.primary_path());
        Ok(OpPlan {
            stages,
            faults: fstats,
            cache: cache_tag,
            ..Default::default()
        })
    }

    fn crash_targets(&self) -> std::ops::Range<usize> {
        // the file servers; the VLDB never crashes
        1..1 + self.config.file_servers
    }

    fn drop_caches(&mut self, node: usize) {
        // AFS has a persistent disk cache (paper §3.4.3 notes it survives
        // re-mounts); drop-caches clears callbacks but not VLDB knowledge.
        if let Some(c) = self.callback_caches.get_mut(node) {
            c.clear();
        }
    }

    fn sample_gauges(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        let callbacks: usize = self.callback_caches.iter().map(CallbackCache::len).sum();
        emit("afs.callback_cache.entries", callbacks as u64);
        let vldb: usize = self.vldb_caches.iter().map(AttrCache::len).sum();
        emit("afs.vldb_cache.entries", vldb as u64);
        let stats = self
            .callback_caches
            .iter()
            .map(|c| c.stats())
            .fold((0u64, 0u64), |acc, s| (acc.0 + s.hits, acc.1 + s.misses));
        if let Some(permille) = (stats.0 * 1000).checked_div(stats.0 + stats.1) {
            emit("afs.callback_cache.hit_permille", permille);
        }
    }

    fn name(&self) -> &str {
        "afs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create_op(path: &str) -> MetaOp {
        MetaOp::Create {
            path: path.into(),
            data_bytes: 0,
        }
    }

    fn vldb_visits(plan: &OpPlan) -> usize {
        plan.stages
            .iter()
            .filter(|s| matches!(s, Stage::Server { server, .. } if *server == AFS_VLDB))
            .count()
    }

    #[test]
    fn first_volume_access_pays_vldb_lookup() {
        let mut m = AfsFs::with_defaults();
        m.register_clients(2);
        let mut rng = DetRng::new(1);
        let c = ClientCtx { node: 0, proc: 0 };
        let p1 = m
            .plan(c, &create_op("/vol0/a"), SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(vldb_visits(&p1), 1, "cold VLDB");
        let p2 = m
            .plan(c, &create_op("/vol0/b"), SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(vldb_visits(&p2), 0, "VLDB cached");
        // another node is cold again
        let p3 = m
            .plan(
                ClientCtx { node: 1, proc: 0 },
                &create_op("/vol0/c"),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert_eq!(vldb_visits(&p3), 1);
    }

    #[test]
    fn cache_manager_serializes_per_node() {
        let mut m = AfsFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let plan = m
            .plan(
                ClientCtx { node: 0, proc: 0 },
                &create_op("/vol0/x"),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(matches!(plan.stages.first(), Some(Stage::AcquireSem { sem }) if *sem == SemId(0)));
    }

    #[test]
    fn callback_makes_repeat_stat_local() {
        let mut m = AfsFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let c = ClientCtx { node: 0, proc: 0 };
        m.plan(c, &create_op("/vol1/f"), SimTime::ZERO, &mut rng)
            .unwrap();
        let stat = MetaOp::Stat {
            path: "/vol1/f".into(),
        };
        assert!(
            m.plan(c, &stat, SimTime::from_secs(3600), &mut rng)
                .unwrap()
                .is_client_only(),
            "callbacks do not expire with time"
        );
    }

    #[test]
    fn server_restart_breaks_all_callbacks_at_once() {
        use netsim::fault::FaultSpec;
        let mut m = AfsFs::with_defaults();
        m.register_clients(2);
        // vol1 lives on file server 1 → ServerId(2)
        m.set_faults(FaultSpec::parse("crash:2@10s+2s").unwrap().build());
        let mut rng = DetRng::new(1);
        let stat = MetaOp::Stat {
            path: "/vol1/f".into(),
        };
        for node in 0..2 {
            m.plan(
                ClientCtx { node, proc: 0 },
                &create_op(&format!("/vol1/n{node}")),
                SimTime::from_secs(1),
                &mut rng,
            )
            .unwrap();
            m.plan(
                ClientCtx { node, proc: 0 },
                &create_op("/vol1/f").clone(),
                SimTime::from_secs(1),
                &mut rng,
            )
            .unwrap_or_else(|_| OpPlan::default()); // second node: Exists is fine
        }
        assert!(m
            .plan(
                ClientCtx { node: 0, proc: 0 },
                &stat,
                SimTime::from_secs(5),
                &mut rng
            )
            .unwrap()
            .is_client_only());
        // while the server is down, the cache manager retries with backoff
        let during = m
            .plan(
                ClientCtx { node: 0, proc: 0 },
                &create_op("/vol1/g"),
                SimTime::from_secs(10),
                &mut rng,
            )
            .unwrap();
        assert!(during.faults.retries >= 1);
        assert!(during.faults.stall >= SimDuration::from_secs(2));
        // after the restart every callback is gone: stats must refetch
        let refetch = m
            .plan(
                ClientCtx { node: 0, proc: 0 },
                &stat,
                SimTime::from_secs(13),
                &mut rng,
            )
            .unwrap();
        assert!(
            !refetch.is_client_only(),
            "restart storm broke the callback"
        );
        assert!(m.callback_breaks() > 0);
    }

    #[test]
    fn volumes_route_to_their_servers() {
        let mut m = AfsFs::with_defaults();
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let c = ClientCtx { node: 0, proc: 0 };
        // default layout: vol5 lives on file server 5 % 4 = 1 → ServerId(2)
        let plan = m
            .plan(c, &create_op("/vol5/f"), SimTime::ZERO, &mut rng)
            .unwrap();
        let touched: Vec<ServerId> = plan
            .stages
            .iter()
            .filter_map(|s| match s {
                Stage::Server { server, .. } => Some(*server),
                _ => None,
            })
            .collect();
        assert!(touched.contains(&ServerId(2)));
    }
}
