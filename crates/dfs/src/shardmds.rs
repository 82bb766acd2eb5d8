//! Sharded multi-MDS metadata service behind a placement layer.
//!
//! The paper's testbeds all funnel metadata through a single server (one
//! NVRAM filer, one Lustre MDS); §2.5 and §4.7 show the scaling path is to
//! *partition the namespace* over several metadata servers behind a location
//! service. This model builds that service explicitly:
//!
//! * **N MDS shards** behind a thin placement layer. Placement is either
//!   **hash** (FNV-1a of the parent directory, modulo shard count) or
//!   **subtree** (an AFS-VLDB-style longest-prefix table mapping namespace
//!   subtrees to shards),
//! * **online resharding**: a declarative, time-scheduled list of
//!   [`ReshardEvent`]s splits, migrates, or merges subtrees while traffic is
//!   live. Authority at any instant is a *pure function* of
//!   `(config, now, path)` — every lookup resolves to exactly one shard,
//! * **lazy migration**: clients cache shard locations; after a subtree
//!   moves, the first touch from each node still lands on the old shard and
//!   pays a forwarding hop plus the migration pull before the cache heals,
//! * **failover**: a crashed shard (netsim `crash:S@T+D` grammar) is
//!   detected after one timeout and its traffic rerouted to the next alive
//!   shard on the ring, accounted as a failover per affected operation,
//! * **partitioned execution**: [`DistFs::partition`] offers one domain per
//!   shard group, so `--sim-threads` runs the model on the conservative
//!   windowed engine bit-identically to the classic sequential engine.
//!
//! Costs are deliberately *flat* (a pure function of the op kind and path
//! depth, via [`ServiceCostModel`]): a shard replica inside one window
//! domain must plan exactly what the unsplit model would plan, which rules
//! out demands that depend on namespace state mutated by other domains'
//! clients.

use crate::costmodel::ServiceCostModel;
use crate::op::MetaOp;
use crate::plan::{
    ClientCtx, DistFs, FaultStats, FsResources, OpPlan, PartitionPlan, ServerId, ServerSpec, Stage,
};
use memfs::{FsResult, OpCost};
use netsim::fault::FaultPlan;
use netsim::{LinkSpec, RpcProfile};
use simcore::{telemetry, DetRng, SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// How the placement layer maps a path to its authoritative shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlacement {
    /// FNV-1a of the parent directory, modulo the shard count. Spreads
    /// uniformly, cannot exploit locality, never resharded.
    Hash,
    /// Longest-prefix match in the subtree table (VLDB-style). Resharding
    /// events edit this table at their scheduled instants.
    Subtree,
}

/// One scheduled change to the subtree table.
#[derive(Debug, Clone)]
pub struct ReshardEvent {
    /// Instant at which the new mapping becomes authoritative.
    pub at: SimTime,
    /// What changes.
    pub action: ReshardAction,
}

/// The table edit a [`ReshardEvent`] performs.
#[derive(Debug, Clone)]
pub enum ReshardAction {
    /// Map `prefix` to shard `to`: a **split** when the prefix was covered
    /// by a shorter entry, a **migration** when it moves an existing entry.
    Assign {
        /// Subtree root being (re)assigned.
        prefix: String,
        /// Destination shard.
        to: usize,
    },
    /// Remove the entry for `prefix`: the subtree **merges** back into
    /// whatever shorter prefix covers it.
    Remove {
        /// Subtree root whose entry is dropped.
        prefix: String,
    },
}

/// Tunables of the sharded metadata service.
#[derive(Debug, Clone)]
pub struct ShardMdsConfig {
    /// Number of MDS shards.
    pub shards: usize,
    /// Placement mode.
    pub placement: ShardPlacement,
    /// Initial subtree table (`Subtree` mode only). Longest prefix wins;
    /// keep a `"/"` entry so every path resolves.
    pub table: Vec<(String, usize)>,
    /// Scheduled splits / migrations / merges, applied in `at` order.
    pub reshard: Vec<ReshardEvent>,
    /// Service-time coefficients of one shard.
    pub cost: ServiceCostModel,
    /// Service slots per shard.
    pub shard_parallelism: usize,
    /// Placement-service lookup demand (cold clients only).
    pub locsvc_demand: SimDuration,
    /// Old-shard work to forward one misdirected request.
    pub forward_demand: SimDuration,
    /// New-shard work to pull a migrated subtree's hot state on first touch.
    pub migration_pull: SimDuration,
    /// Client ↔ server link (keep jitter at 0 for partitioned runs).
    pub link: LinkSpec,
    /// Client CPU per operation.
    pub client_cpu: SimDuration,
    /// Crash-detection timeout before rerouting to the failover shard.
    pub failover_detect: SimDuration,
    /// Allow [`DistFs::partition`] to offer a domain decomposition.
    pub allow_partition: bool,
}

impl Default for ShardMdsConfig {
    fn default() -> Self {
        ShardMdsConfig {
            shards: 4,
            placement: ShardPlacement::Hash,
            table: vec![("/".to_owned(), 0)],
            reshard: Vec::new(),
            cost: ServiceCostModel::disk_mds(),
            shard_parallelism: 2,
            locsvc_demand: SimDuration::from_micros(120),
            forward_demand: SimDuration::from_micros(80),
            migration_pull: SimDuration::from_millis(2),
            link: LinkSpec::lan(),
            client_cpu: SimDuration::from_micros(40),
            failover_detect: SimDuration::from_millis(700),
            allow_partition: true,
        }
    }
}

/// Server index of the placement (location) service.
pub const SHARD_LOCSVC: ServerId = ServerId(0);

/// One subtree-table entry with the reshard generation that last wrote it.
#[derive(Debug, Clone)]
struct TableEntry {
    prefix: String,
    shard: usize,
    generation: u64,
}

/// What a client node remembers about a routing key.
#[derive(Debug, Clone, Copy)]
struct CachedLoc {
    shard: usize,
    generation: u64,
}

/// The sharded multi-MDS model. See the module-level documentation.
#[derive(Debug)]
pub struct ShardMds {
    /// Shared with the partition replicas, which are built per run.
    config: Arc<ShardMdsConfig>,
    /// Current subtree table (entries sorted by prefix for determinism).
    table: Vec<TableEntry>,
    /// Reshard events not yet applied (sorted by `at`).
    pending: Vec<ReshardEvent>,
    applied: usize,
    /// Reshard generation: bumped once per applied event.
    generation: u64,
    /// Per-node location cache: routing key → (shard, generation seen).
    loc_caches: Vec<HashMap<String, CachedLoc>>,
    nodes: usize,
    faults: Option<FaultPlan>,
    lookups: u64,
    migrations: u64,
    placement_rpcs: u64,
    failovers: u64,
}

/// FNV-1a, the placement hash (stable across platforms and runs).
fn fnv1a(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Parent directory of `path` (the routing key of both placement modes).
fn parent_dir(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

/// Does `prefix` cover `path` on whole components?
fn covers(prefix: &str, path: &str) -> bool {
    if prefix == "/" {
        return true;
    }
    path.strip_prefix(prefix)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

impl ShardMds {
    /// Create the model.
    ///
    /// # Panics
    ///
    /// Panics on zero shards, an out-of-range shard in the table or a
    /// reshard event, a duplicate table prefix, a scheduled `Remove` of the
    /// `"/"` anchor, or (in `Subtree` mode) a table without a `"/"` entry.
    pub fn new(config: ShardMdsConfig) -> Self {
        Self::with_shared(Arc::new(config))
    }

    /// [`ShardMds::new`] over a configuration shared with other instances
    /// (the partition replicas), so building one allocates only its own
    /// state.
    fn with_shared(config: Arc<ShardMdsConfig>) -> Self {
        assert!(config.shards > 0, "a shard service needs at least one MDS");
        let mut pending = config.reshard.clone();
        pending.sort_by_key(|e| e.at);
        let mut table: Vec<TableEntry> = config
            .table
            .iter()
            .map(|(prefix, shard)| {
                assert!(*shard < config.shards, "table entry beyond shard count");
                TableEntry {
                    prefix: prefix.clone(),
                    shard: *shard,
                    generation: 0,
                }
            })
            .collect();
        table.sort_by(|a, b| a.prefix.cmp(&b.prefix));
        assert!(
            table.windows(2).all(|w| w[0].prefix != w[1].prefix),
            "duplicate subtree-table prefix"
        );
        if config.placement == ShardPlacement::Subtree {
            assert!(
                table.iter().any(|e| e.prefix == "/"),
                "subtree table needs a \"/\" entry so every path resolves"
            );
        }
        for ev in &pending {
            match &ev.action {
                ReshardAction::Assign { to, .. } => {
                    assert!(*to < config.shards, "reshard event beyond shard count");
                }
                ReshardAction::Remove { prefix } => {
                    assert!(
                        prefix != "/",
                        "the root entry anchors the table and cannot merge away"
                    );
                }
            }
        }
        ShardMds {
            config,
            table,
            pending,
            applied: 0,
            generation: 0,
            loc_caches: Vec::new(),
            nodes: 0,
            faults: None,
            lookups: 0,
            migrations: 0,
            placement_rpcs: 0,
            failovers: 0,
        }
    }

    /// The model with default tuning.
    pub fn with_defaults() -> Self {
        Self::new(ShardMdsConfig::default())
    }

    /// Attach a fault plan (netsim grammar; `crash:S@T+D` crashes raw server
    /// index `S`, where shard `s` is server `s + 1` behind the placement
    /// service at index 0).
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Placement resolutions performed so far (one per planned op).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lazy-migration forwards paid so far (stale client locations).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Cold placement-service round trips so far.
    pub fn placement_rpcs(&self) -> u64 {
        self.placement_rpcs
    }

    /// Operations rerouted to a failover shard so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Apply every reshard event scheduled at or before `now`.
    fn apply_resharding(&mut self, now: SimTime) {
        while self.applied < self.pending.len() && self.pending[self.applied].at <= now {
            let ev = self.pending[self.applied].clone();
            self.applied += 1;
            self.generation += 1;
            match ev.action {
                ReshardAction::Assign { prefix, to } => {
                    match self.table.iter_mut().find(|e| e.prefix == prefix) {
                        Some(entry) => {
                            entry.shard = to;
                            entry.generation = self.generation;
                        }
                        None => {
                            self.table.push(TableEntry {
                                prefix,
                                shard: to,
                                generation: self.generation,
                            });
                            self.table.sort_by(|a, b| a.prefix.cmp(&b.prefix));
                        }
                    }
                }
                ReshardAction::Remove { prefix } => {
                    if let Some(pos) = self.table.iter().position(|e| e.prefix == prefix) {
                        assert!(
                            prefix != "/",
                            "the root entry anchors the table and cannot merge away"
                        );
                        self.table.remove(pos);
                        // falling back to the covering entry is a location
                        // change for the subtree: stamp the survivor so
                        // cached locations under the removed prefix go stale
                        let generation = self.generation;
                        if let Some(survivor) = self.resolve_entry_mut(&prefix) {
                            survivor.generation = generation;
                        }
                    }
                }
            }
            telemetry::count("shardmds.reshard_events", 1);
        }
    }

    fn resolve_entry_mut(&mut self, path: &str) -> Option<&mut TableEntry> {
        self.table
            .iter_mut()
            .filter(|e| covers(&e.prefix, path))
            .max_by_key(|e| e.prefix.len())
    }

    /// The authoritative `(routing key, shard, generation)` for `path` once
    /// resharding up to `now` is applied. Longest prefix wins in `Subtree`
    /// mode, so exactly one entry answers; hash mode is stateless.
    fn resolve(&self, path: &str) -> (String, usize, u64) {
        let key = parent_dir(path);
        match self.config.placement {
            ShardPlacement::Hash => (
                key.to_owned(),
                (fnv1a(key) % self.config.shards as u64) as usize,
                0,
            ),
            ShardPlacement::Subtree => {
                let entry = self
                    .table
                    .iter()
                    .filter(|e| covers(&e.prefix, key))
                    .max_by_key(|e| e.prefix.len())
                    .expect("the \"/\" entry covers every path");
                (entry.prefix.clone(), entry.shard, entry.generation)
            }
        }
    }

    /// The authoritative shard for `path` at `now` — a pure function of the
    /// declarative reshard schedule, usable without mutating client caches.
    pub fn authority_of(&self, path: &str, now: SimTime) -> usize {
        let key = parent_dir(path);
        match self.config.placement {
            ShardPlacement::Hash => (fnv1a(key) % self.config.shards as u64) as usize,
            ShardPlacement::Subtree => {
                // replay the schedule onto the initial table without state
                // (sorted by instant, exactly like the incremental path)
                let mut table: Vec<(String, usize)> = self.config.table.clone();
                let mut due: Vec<&ReshardEvent> =
                    self.config.reshard.iter().filter(|e| e.at <= now).collect();
                due.sort_by_key(|e| e.at);
                for ev in due {
                    match &ev.action {
                        ReshardAction::Assign { prefix, to } => {
                            match table.iter_mut().find(|(p, _)| p == prefix) {
                                Some(slot) => slot.1 = *to,
                                None => table.push((prefix.clone(), *to)),
                            }
                        }
                        ReshardAction::Remove { prefix } => {
                            table.retain(|(p, _)| p != prefix);
                        }
                    }
                }
                table
                    .iter()
                    .filter(|(p, _)| covers(p, key))
                    .max_by(|a, b| a.0.len().cmp(&b.0.len()))
                    .map(|(_, s)| *s)
                    .expect("the \"/\" entry covers every path")
            }
        }
    }

    /// Engine server index of a shard.
    fn shard_server(&self, shard: usize) -> ServerId {
        ServerId(1 + shard)
    }

    /// First alive shard on the ring after `from` at `now` (including
    /// `from` itself when healthy).
    fn alive_shard(&self, from: usize, now: SimTime) -> (usize, bool) {
        let Some(faults) = self.faults.as_ref() else {
            return (from, false);
        };
        for step in 0..self.config.shards {
            let s = (from + step) % self.config.shards;
            if faults.server_down(self.shard_server(s).0, now).is_none() {
                return (s, step > 0);
            }
        }
        (from, false) // every shard down: send anyway, soft-mount style
    }

    /// Flat service cost: a pure function of the op kind and path depth so
    /// shard replicas plan identically to the unsplit model.
    fn synthetic_cost(op: &MetaOp) -> OpCost {
        let depth = op
            .primary_path()
            .split('/')
            .filter(|c| !c.is_empty())
            .count() as u64;
        let mut cost = OpCost {
            dir_probes: depth + 1,
            components_resolved: depth,
            ..OpCost::default()
        };
        match op {
            MetaOp::Create { .. } | MetaOp::Mkdir { .. } | MetaOp::Symlink { .. } => {
                cost.alloc_scans = 1;
                cost.blocks_allocated = 1;
                cost.journal_records = 2;
                cost.journal_commits = 1;
            }
            MetaOp::Unlink { .. } | MetaOp::Rmdir { .. } => {
                cost.blocks_freed = 1;
                cost.journal_records = 2;
                cost.journal_commits = 1;
            }
            MetaOp::Rename { .. } | MetaOp::Link { .. } => {
                cost.dir_probes += depth + 1;
                cost.journal_records = 2;
                cost.journal_commits = 1;
            }
            MetaOp::Chmod { .. } | MetaOp::Utimes { .. } => {
                cost.journal_records = 1;
                cost.journal_commits = 1;
            }
            MetaOp::Stat { .. } | MetaOp::OpenClose { .. } | MetaOp::Readdir { .. } => {}
        }
        cost
    }
}

impl DistFs for ShardMds {
    fn resources(&self) -> FsResources {
        let mut servers = vec![ServerSpec {
            name: "locsvc".to_owned(),
            parallelism: 4,
        }];
        servers.extend((0..self.config.shards).map(|s| ServerSpec {
            name: format!("mds{s}"),
            parallelism: self.config.shard_parallelism,
        }));
        FsResources {
            servers,
            semaphores: Vec::new(),
        }
    }

    fn register_clients(&mut self, nodes: usize) {
        if self.nodes == nodes {
            return; // idempotent: keep location caches across phases
        }
        self.nodes = nodes;
        self.loc_caches = (0..nodes).map(|_| HashMap::new()).collect();
    }

    fn partition(&self, nodes: usize) -> Option<PartitionPlan> {
        if !self.config.allow_partition || self.faults.is_some() || self.config.link.jitter > 0.0 {
            // faults stall plans off the fault clock and jitter draws RNG;
            // both would diverge from the per-domain replicas
            return None;
        }
        let domains = self.config.shards.min(nodes);
        if domains < 2 {
            return None;
        }
        let mut server_domain = vec![0usize]; // locsvc rides with domain 0
        server_domain.extend((0..self.config.shards).map(|s| s % domains));
        Some(PartitionPlan {
            server_domain,
            node_domain: (0..nodes).map(|n| n % domains).collect(),
            models: (0..domains)
                .map(|_| {
                    Box::new(ShardMds::with_shared(Arc::clone(&self.config))) as Box<dyn DistFs>
                })
                .collect(),
            // every server stage below is preceded by a full one-way link
            // delay, and jitter is zero here, so the minimum link latency
            // bounds all cross-domain signalling
            lookahead: self.config.link.min_latency(),
        })
    }

    fn plan(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        now: SimTime,
        rng: &mut DetRng,
    ) -> FsResult<OpPlan> {
        self.apply_resharding(now);
        let (key, home, entry_generation) = self.resolve(op.primary_path());
        self.lookups += 1;
        telemetry::count("shardmds.lookups", 1);

        let mut stages = vec![Stage::ClientCpu {
            demand: self.config.client_cpu,
        }];
        let link = self.config.link;
        let profile = RpcProfile::metadata();
        let req = link.one_way(profile.request_bytes, rng);
        let rsp = link.one_way(profile.response_bytes, rng);

        // placement: cold nodes ask the location service; stale nodes get
        // forwarded by the old shard and pull the migrated subtree
        let mut pull = SimDuration::ZERO;
        let cached = self.loc_caches[client.node].get(&key).copied().or_else(|| {
            // a split introduces a *new* table entry the client has never
            // seen; it still routes by the coarsest covering entry in its
            // stale map (exactly one candidate per length can cover, so
            // longest-match is deterministic despite the HashMap)
            (self.config.placement == ShardPlacement::Subtree)
                .then(|| {
                    self.loc_caches[client.node]
                        .iter()
                        .filter(|(p, _)| covers(p, &key))
                        .max_by_key(|(p, _)| p.len())
                        .map(|(_, loc)| *loc)
                })
                .flatten()
        });
        match cached {
            None => {
                self.placement_rpcs += 1;
                telemetry::count("shardmds.placement_rpcs", 1);
                stages.push(Stage::NetDelay { delay: req });
                stages.push(Stage::Server {
                    server: SHARD_LOCSVC,
                    demand: self.config.locsvc_demand,
                });
                stages.push(Stage::NetDelay { delay: rsp });
            }
            Some(loc) if loc.generation < entry_generation && loc.shard != home => {
                // lazy migration: first touch after the move still goes to
                // the cached (old) shard, which answers with a referral
                // (AFS-style VMOVED); the client retries at the new home,
                // which pulls the subtree's hot state on this first touch.
                // Each hop is a complete request/response RPC so the
                // conservative engine can treat it as one remote exchange.
                self.migrations += 1;
                telemetry::count("shardmds.migrations", 1);
                stages.push(Stage::NetDelay { delay: req });
                stages.push(Stage::Server {
                    server: self.shard_server(loc.shard),
                    demand: self.config.forward_demand,
                });
                stages.push(Stage::NetDelay { delay: rsp });
                pull = self.config.migration_pull;
            }
            Some(_) => {}
        }
        self.loc_caches[client.node].insert(
            key,
            CachedLoc {
                shard: home,
                generation: entry_generation,
            },
        );

        // failover: a crashed home shard costs one detection timeout, then
        // the ring successor serves (and keeps serving until the restart)
        let mut fstats = FaultStats::default();
        let (serving, failed_over) = self.alive_shard(home, now);
        if failed_over {
            self.failovers += 1;
            fstats.failovers = 1;
            fstats.retries = 1;
            fstats.injected = 1;
            fstats.stall = self.config.failover_detect;
            telemetry::count("shardmds.failovers", 1);
            stages.push(Stage::NetDelay {
                delay: self.config.failover_detect,
            });
        }

        let demand = self.config.cost.demand(Self::synthetic_cost(op)) + pull;
        stages.push(Stage::NetDelay { delay: req });
        stages.push(Stage::Server {
            server: self.shard_server(serving),
            demand,
        });
        stages.push(Stage::NetDelay { delay: rsp });
        Ok(OpPlan {
            stages,
            faults: fstats,
            ..Default::default()
        })
    }

    fn drop_caches(&mut self, node: usize) {
        if let Some(c) = self.loc_caches.get_mut(node) {
            c.clear();
        }
    }

    fn sample_gauges(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        emit("shardmds.table_entries", self.table.len() as u64);
        emit("shardmds.generation", self.generation);
        let cached: usize = self.loc_caches.iter().map(HashMap::len).sum();
        emit("shardmds.cached_locations", cached as u64);
    }

    fn name(&self) -> &str {
        "shardmds"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create(path: &str) -> MetaOp {
        MetaOp::Create {
            path: path.into(),
            data_bytes: 0,
        }
    }

    fn servers_visited(plan: &OpPlan) -> Vec<ServerId> {
        plan.stages
            .iter()
            .filter_map(|s| match s {
                Stage::Server { server, .. } => Some(*server),
                _ => None,
            })
            .collect()
    }

    fn subtree_config() -> ShardMdsConfig {
        ShardMdsConfig {
            placement: ShardPlacement::Subtree,
            table: vec![("/".to_owned(), 0), ("/hot".to_owned(), 1)],
            ..ShardMdsConfig::default()
        }
    }

    #[test]
    fn hash_placement_is_stable_and_spreads() {
        let m = ShardMds::with_defaults();
        let a = m.authority_of("/bench/n0p0/f1", SimTime::ZERO);
        assert_eq!(a, m.authority_of("/bench/n0p0/f2", SimTime::ZERO));
        let hit: std::collections::BTreeSet<usize> = (0..64)
            .map(|d| m.authority_of(&format!("/bench/d{d}/f"), SimTime::ZERO))
            .collect();
        assert!(hit.len() >= 2, "64 directories spread over several shards");
        assert!(hit.iter().all(|&s| s < 4), "authority within shard range");
    }

    #[test]
    fn subtree_longest_prefix_wins() {
        let m = ShardMds::new(ShardMdsConfig {
            table: vec![
                ("/".to_owned(), 0),
                ("/a".to_owned(), 1),
                ("/a/b".to_owned(), 2),
            ],
            ..subtree_config()
        });
        assert_eq!(m.authority_of("/a/b/c/f", SimTime::ZERO), 2);
        assert_eq!(m.authority_of("/a/x/f", SimTime::ZERO), 1);
        assert_eq!(
            m.authority_of("/ab/f", SimTime::ZERO),
            0,
            "no partial-component match"
        );
        assert_eq!(m.authority_of("/z/f", SimTime::ZERO), 0);
    }

    #[test]
    fn reshard_moves_authority_at_its_instant() {
        let m = ShardMds::new(ShardMdsConfig {
            reshard: vec![ReshardEvent {
                at: SimTime::from_secs(5),
                action: ReshardAction::Assign {
                    prefix: "/hot/sub".to_owned(),
                    to: 3,
                },
            }],
            ..subtree_config()
        });
        let p = "/hot/sub/f";
        assert_eq!(m.authority_of(p, SimTime::from_secs(4)), 1);
        assert_eq!(
            m.authority_of(p, SimTime::from_secs(5)),
            3,
            "inclusive at the instant"
        );
        assert_eq!(m.authority_of(p, SimTime::from_secs(6)), 3);
        assert_eq!(
            m.authority_of("/hot/other", SimTime::from_secs(6)),
            1,
            "siblings stay"
        );
    }

    #[test]
    fn merge_falls_back_to_covering_entry() {
        let m = ShardMds::new(ShardMdsConfig {
            reshard: vec![ReshardEvent {
                at: SimTime::from_secs(5),
                action: ReshardAction::Remove {
                    prefix: "/hot".to_owned(),
                },
            }],
            ..subtree_config()
        });
        assert_eq!(m.authority_of("/hot/f", SimTime::from_secs(4)), 1);
        assert_eq!(m.authority_of("/hot/f", SimTime::from_secs(5)), 0);
    }

    #[test]
    fn cold_client_pays_placement_rpc_once() {
        let mut m = ShardMds::with_defaults();
        m.register_clients(2);
        let mut rng = DetRng::new(1);
        let c = ClientCtx { node: 0, proc: 0 };
        let p1 = m
            .plan(c, &create("/d/a/f1"), SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(servers_visited(&p1).contains(&SHARD_LOCSVC), "cold lookup");
        let p2 = m
            .plan(c, &create("/d/a/f2"), SimTime::ZERO, &mut rng)
            .unwrap();
        assert!(
            !servers_visited(&p2).contains(&SHARD_LOCSVC),
            "location cached"
        );
        let p3 = m
            .plan(
                ClientCtx { node: 1, proc: 0 },
                &create("/d/a/f3"),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(
            servers_visited(&p3).contains(&SHARD_LOCSVC),
            "other node cold"
        );
        assert_eq!(m.placement_rpcs(), 2);
        assert_eq!(m.lookups(), 3);
    }

    #[test]
    fn stale_client_pays_forwarding_exactly_once() {
        let mut m = ShardMds::new(ShardMdsConfig {
            reshard: vec![ReshardEvent {
                at: SimTime::from_secs(10),
                action: ReshardAction::Assign {
                    prefix: "/hot".to_owned(),
                    to: 2,
                },
            }],
            ..subtree_config()
        });
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let c = ClientCtx { node: 0, proc: 0 };
        let warm = m
            .plan(c, &create("/hot/f1"), SimTime::from_secs(1), &mut rng)
            .unwrap();
        assert!(
            servers_visited(&warm).contains(&ServerId(2)),
            "old home = shard 1"
        );
        // first touch after the move: forwarded by shard 1, served by shard 2
        let stale = m
            .plan(c, &create("/hot/f2"), SimTime::from_secs(11), &mut rng)
            .unwrap();
        let visited = servers_visited(&stale);
        assert!(
            visited.contains(&ServerId(2)),
            "forward hop via the old shard"
        );
        assert!(visited.contains(&ServerId(3)), "served by the new home");
        assert_eq!(m.migrations(), 1);
        // cache healed: straight to the new home
        let healed = m
            .plan(c, &create("/hot/f3"), SimTime::from_secs(12), &mut rng)
            .unwrap();
        assert_eq!(servers_visited(&healed), vec![ServerId(3)]);
        assert_eq!(m.migrations(), 1, "forwarding paid exactly once");
    }

    #[test]
    fn split_forwards_via_the_coarse_cached_entry() {
        // a split creates a brand-new table entry; a client that only knows
        // the coarser "/hot" location must be forwarded by the old shard,
        // not treated as cold (no placement-service round trip)
        let mut m = ShardMds::new(ShardMdsConfig {
            reshard: vec![ReshardEvent {
                at: SimTime::from_secs(10),
                action: ReshardAction::Assign {
                    prefix: "/hot/sub".to_owned(),
                    to: 3,
                },
            }],
            ..subtree_config()
        });
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let c = ClientCtx { node: 0, proc: 0 };
        let warm = m
            .plan(c, &create("/hot/sub/f1"), SimTime::from_secs(1), &mut rng)
            .unwrap();
        assert_eq!(
            servers_visited(&warm).last(),
            Some(&ServerId(2)),
            "pre-split home"
        );
        let split = m
            .plan(c, &create("/hot/sub/f2"), SimTime::from_secs(11), &mut rng)
            .unwrap();
        let visited = servers_visited(&split);
        assert!(!visited.contains(&SHARD_LOCSVC), "not a cold lookup");
        assert_eq!(
            visited,
            vec![ServerId(2), ServerId(4)],
            "forwarded old → new"
        );
        assert_eq!(m.migrations(), 1);
        let healed = m
            .plan(c, &create("/hot/sub/f3"), SimTime::from_secs(12), &mut rng)
            .unwrap();
        assert_eq!(servers_visited(&healed), vec![ServerId(4)], "cache healed");
    }

    #[test]
    fn crashed_shard_fails_over_to_ring_successor() {
        use netsim::fault::FaultSpec;
        let mut m = ShardMds::new(subtree_config());
        // shard 1 is server 2
        m.set_faults(FaultSpec::parse("crash:2@10s+5s").unwrap().build());
        m.register_clients(1);
        let mut rng = DetRng::new(1);
        let c = ClientCtx { node: 0, proc: 0 };
        let before = m
            .plan(c, &create("/hot/f1"), SimTime::from_secs(1), &mut rng)
            .unwrap();
        assert!(servers_visited(&before).contains(&ServerId(2)));
        assert_eq!(before.faults, FaultStats::default());
        let during = m
            .plan(c, &create("/hot/f2"), SimTime::from_secs(11), &mut rng)
            .unwrap();
        assert!(
            servers_visited(&during).contains(&ServerId(3)),
            "ring successor serves"
        );
        assert_eq!(during.faults.failovers, 1);
        assert!(during.faults.stall >= SimDuration::from_millis(700));
        let after = m
            .plan(c, &create("/hot/f3"), SimTime::from_secs(16), &mut rng)
            .unwrap();
        assert!(
            servers_visited(&after).contains(&ServerId(2)),
            "restart heals routing"
        );
        assert_eq!(m.failovers(), 1);
    }

    #[test]
    fn partition_offers_one_domain_per_shard_group() {
        let m = ShardMds::with_defaults(); // 4 shards
        let plan = m.partition(8).expect("partitionable");
        assert_eq!(plan.domains(), 4);
        assert_eq!(plan.server_domain.len(), 5, "locsvc + 4 shards");
        assert_eq!(plan.server_domain[0], 0, "locsvc rides with domain 0");
        assert_eq!(plan.node_domain.len(), 8);
        assert!(plan.lookahead > SimDuration::ZERO);
        // single shard or crashed cluster: no decomposition
        assert!(ShardMds::new(ShardMdsConfig {
            shards: 1,
            ..ShardMdsConfig::default()
        })
        .partition(8)
        .is_none());
        let mut faulty = ShardMds::with_defaults();
        faulty.set_faults(
            netsim::fault::FaultSpec::parse("crash:1@1s+1s")
                .unwrap()
                .build(),
        );
        assert!(faulty.partition(8).is_none());
    }

    #[test]
    fn every_lookup_resolves_to_exactly_one_authority() {
        // during a migration schedule, authority is a total function with a
        // single winner at every instant — sampled across the boundary
        let m = ShardMds::new(ShardMdsConfig {
            reshard: vec![
                ReshardEvent {
                    at: SimTime::from_secs(2),
                    action: ReshardAction::Assign {
                        prefix: "/hot/a".to_owned(),
                        to: 2,
                    },
                },
                ReshardEvent {
                    at: SimTime::from_secs(4),
                    action: ReshardAction::Remove {
                        prefix: "/hot/a".to_owned(),
                    },
                },
            ],
            ..subtree_config()
        });
        for t in 0..6 {
            let now = SimTime::from_secs(t);
            for p in ["/hot/a/f", "/hot/b/f", "/cold/f"] {
                let s = m.authority_of(p, now);
                assert!(s < 4);
                assert_eq!(s, m.authority_of(p, now), "resolution is a function");
            }
        }
        assert_eq!(m.authority_of("/hot/a/f", SimTime::from_secs(3)), 2);
        assert_eq!(
            m.authority_of("/hot/a/f", SimTime::from_secs(5)),
            1,
            "merged back"
        );
    }
}
