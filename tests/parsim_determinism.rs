//! The conservative parallel engine's headline invariant: a partitioned
//! run's **results and telemetry are byte-identical at every
//! `--sim-threads` value**. The domain decomposition, per-domain RNGs and
//! per-domain telemetry captures are properties of the model, not of the
//! host, so `--sim-threads 1` (the windowed algorithm on one thread) and
//! `--sim-threads {2,4,8}` must agree bit for bit.
//!
//! Uses a self-contained partitionable model (four servers, round-robin
//! per-client targeting) so most RPCs cross domains and exercise the
//! request/reply mailbox protocol, not just the local fast path.

use cluster::{run_sim, set_sim_threads, SimConfig, WorkerSpec};
use dfs::{
    ClientCtx, DistFs, FsResources, MetaOp, OpPlan, PartitionPlan, ReshardAction, ReshardEvent,
    ServerId, ServerSpec, ShardMds, ShardMdsConfig, ShardPlacement, Stage,
};
use memfs::FsResult;
use simcore::{telemetry, DetRng, SimDuration, SimTime};

/// `set_sim_threads` is process-global; both matrix tests toggle it.
static KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

const SERVERS: usize = 4;
const NODES: usize = 4;
const PROCS_PER_NODE: usize = 2;
const OPS_PER_WORKER: u64 = 60;

/// A partitionable toy model: every op is `ClientCpu → NetDelay → Server →
/// NetDelay`, with the server a pure function of `(node, proc, op index)` —
/// so a domain replica plans identically to the unsplit model for its own
/// clients, and three quarters of all RPCs target a remote domain.
struct RoundRobinFs {
    calls: std::collections::HashMap<(usize, usize), u64>,
}

impl RoundRobinFs {
    fn new() -> Self {
        RoundRobinFs {
            calls: std::collections::HashMap::new(),
        }
    }
}

impl DistFs for RoundRobinFs {
    fn resources(&self) -> FsResources {
        FsResources {
            servers: (0..SERVERS)
                .map(|i| ServerSpec {
                    name: format!("srv{i}"),
                    parallelism: 2,
                })
                .collect(),
            semaphores: Vec::new(),
        }
    }

    fn register_clients(&mut self, _nodes: usize) {}

    fn partition(&self, nodes: usize) -> Option<PartitionPlan> {
        let domains = SERVERS.min(nodes);
        if domains < 2 {
            return None;
        }
        Some(PartitionPlan {
            server_domain: (0..SERVERS).map(|s| s % domains).collect(),
            node_domain: (0..nodes).map(|n| n % domains).collect(),
            models: (0..domains)
                .map(|_| Box::new(RoundRobinFs::new()) as Box<dyn DistFs>)
                .collect(),
            lookahead: SimDuration::from_micros(40),
        })
    }

    fn plan(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        _now: SimTime,
        _rng: &mut DetRng,
    ) -> FsResult<OpPlan> {
        let calls = self.calls.entry((client.node, client.proc)).or_insert(0);
        let server = ServerId((client.node + client.proc + *calls as usize) % SERVERS);
        *calls += 1;
        let demand = match op {
            MetaOp::Create { .. } => SimDuration::from_micros(25),
            _ => SimDuration::from_micros(8),
        };
        Ok(OpPlan {
            stages: vec![
                Stage::ClientCpu {
                    demand: SimDuration::from_micros(3),
                },
                Stage::NetDelay {
                    delay: SimDuration::from_micros(40),
                },
                Stage::Server { server, demand },
                Stage::NetDelay {
                    delay: SimDuration::from_micros(40),
                },
            ],
            ..Default::default()
        })
    }

    fn drop_caches(&mut self, _node: usize) {}

    fn name(&self) -> &str {
        "round-robin"
    }
}

fn run_traced(threads: usize) -> (String, String, String) {
    run_traced_cfg(Some(threads), false)
}

/// `threads = None` leaves the global knob unset, so the engine choice is
/// down to `SimConfig::pin_windowed_engine` alone.
fn run_traced_cfg(threads: Option<usize>, pin_windowed_engine: bool) -> (String, String, String) {
    set_sim_threads(threads);
    let (result, report) = telemetry::capture(|| {
        let mut model = RoundRobinFs::new();
        let node_names: Vec<String> = (0..NODES).map(|i| format!("pn{i}")).collect();
        let specs: Vec<WorkerSpec> = (0..NODES * PROCS_PER_NODE)
            .map(|w| WorkerSpec::new(w / PROCS_PER_NODE, w % PROCS_PER_NODE))
            .collect();
        let streams: Vec<Box<dyn cluster::OpStream>> = (0..specs.len())
            .map(|w| {
                Box::new(move |i: u64| {
                    if i >= OPS_PER_WORKER {
                        return None;
                    }
                    Some(match i % 3 {
                        0 => MetaOp::Create {
                            path: format!("/p/w{w}/f{i}"),
                            data_bytes: 0,
                        },
                        _ => MetaOp::Stat {
                            path: format!("/p/w{w}/f{i}"),
                        },
                    })
                }) as Box<dyn cluster::OpStream>
            })
            .collect();
        let mut cfg = SimConfig::default();
        cfg.pin_windowed_engine = pin_windowed_engine;
        run_sim(&mut model, &node_names, specs, streams, &cfg)
    });
    set_sim_threads(None);
    (
        format!("{result:?}"),
        report.to_chrome_trace_json(),
        report.to_timeseries_json(),
    )
}

/// The whole matrix in one test body: the global `--sim-threads` knob is
/// process-wide, so the runs are sequenced explicitly rather than spread
/// over tests that could race on it.
#[test]
fn partitioned_runs_bit_identical_across_thread_counts() {
    let _serial = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = run_traced(1);

    // evidence the windowed engine actually ran: one trace process per
    // domain (the classic engine would emit exactly one)
    assert_eq!(
        baseline.1.matches("process_name").count(),
        SERVERS,
        "expected one telemetry process per domain"
    );

    for threads in [2, 4, 8] {
        let run = run_traced(threads);
        assert_eq!(
            baseline.0, run.0,
            "SimRunResult differs between --sim-threads 1 and {threads}"
        );
        assert_eq!(
            baseline.1, run.1,
            "Chrome trace differs between --sim-threads 1 and {threads}"
        );
        assert_eq!(
            baseline.2, run.2,
            "timeseries differs between --sim-threads 1 and {threads}"
        );
    }

    // sanity on the workload itself: every op completed
    assert!(baseline.0.contains(&format!("ops_done: {OPS_PER_WORKER}")));
}

/// `SimConfig::pin_windowed_engine` routes a partitionable model to the
/// windowed engine even with the global `--sim-threads` knob unset, and is
/// byte-identical to an explicit `--sim-threads 1` run — so a scenario
/// that sets it gets the same blessed numbers at every knob setting.
#[test]
fn pin_windowed_engine_matches_sim_threads_1() {
    let _serial = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let explicit = run_traced_cfg(Some(1), false);
    let pinned = run_traced_cfg(None, true);
    assert_eq!(
        pinned.1.matches("process_name").count(),
        SERVERS,
        "the pin alone must select the windowed engine"
    );
    assert_eq!(explicit.0, pinned.0);
    assert_eq!(explicit.1, pinned.1);
    assert_eq!(explicit.2, pinned.2);
    // the pin composes with an explicit thread count rather than fighting it
    let both = run_traced_cfg(Some(4), true);
    assert_eq!(explicit.0, both.0);
    assert_eq!(explicit.1, both.1);
}

/// The sharded MDS service under a live migration schedule, run through the
/// public `run_sim` entry: `None` = the classic sequential engine,
/// `Some(t)` = the conservative windowed engine on `t` threads.
fn run_shardmds(threads: Option<usize>) -> (String, String, u64) {
    let (result, trace, _, migrations) = run_shardmds_cfg(threads, false);
    (result, trace, migrations)
}

/// [`run_shardmds`] with the config's `pin_windowed_engine` too; also
/// returns the timeseries.
fn run_shardmds_cfg(
    threads: Option<usize>,
    pin_windowed_engine: bool,
) -> (String, String, String, u64) {
    set_sim_threads(threads);
    let (result, report) = telemetry::capture(|| {
        let mut model = ShardMds::new(ShardMdsConfig {
            shards: 4,
            placement: ShardPlacement::Subtree,
            table: vec![("/".to_owned(), 0), ("/hot".to_owned(), 1)],
            // early enough that every event fires while traffic is live
            // (plans stop arriving a little before the ~45 ms makespan)
            reshard: vec![
                ReshardEvent {
                    at: SimTime::from_millis(10),
                    action: ReshardAction::Assign {
                        prefix: "/hot/sub0".to_owned(),
                        to: 2,
                    },
                },
                ReshardEvent {
                    at: SimTime::from_millis(20),
                    action: ReshardAction::Assign {
                        prefix: "/hot/sub1".to_owned(),
                        to: 3,
                    },
                },
                ReshardEvent {
                    at: SimTime::from_millis(30),
                    action: ReshardAction::Remove {
                        prefix: "/hot/sub0".to_owned(),
                    },
                },
            ],
            ..ShardMdsConfig::default()
        });
        let node_names: Vec<String> = (0..NODES).map(|i| format!("pn{i}")).collect();
        let specs: Vec<WorkerSpec> = (0..NODES * PROCS_PER_NODE)
            .map(|w| WorkerSpec::new(w / PROCS_PER_NODE, w % PROCS_PER_NODE))
            .collect();
        let streams: Vec<Box<dyn cluster::OpStream>> = (0..specs.len())
            .map(|w| {
                Box::new(move |i: u64| {
                    if i >= OPS_PER_WORKER {
                        return None;
                    }
                    // skewed mix: most traffic hammers the migrating /hot
                    // subtrees, the rest spreads over per-worker directories
                    Some(if !i.is_multiple_of(3) {
                        MetaOp::Create {
                            path: format!("/hot/sub{}/w{w}f{i}", i % 2),
                            data_bytes: 0,
                        }
                    } else {
                        MetaOp::Stat {
                            path: format!("/p/w{w}/f{i}"),
                        }
                    })
                }) as Box<dyn cluster::OpStream>
            })
            .collect();
        let mut cfg = SimConfig::default();
        cfg.pin_windowed_engine = pin_windowed_engine;
        run_sim(&mut model, &node_names, specs, streams, &cfg)
    });
    set_sim_threads(None);
    let migrations = report.counter("shardmds.migrations");
    (
        format!("{result:?}"),
        report.to_chrome_trace_json(),
        report.to_timeseries_json(),
        migrations,
    )
}

/// The tentpole model's determinism matrix: the classic engine and the
/// windowed engine at every thread count agree on the run result, and the
/// windowed engine's telemetry is byte-identical at every thread count.
#[test]
fn shardmds_bit_identical_across_engines_and_thread_counts() {
    let _serial = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let classic = run_shardmds(None);
    let windowed = run_shardmds(Some(1));
    assert_eq!(
        classic.0, windowed.0,
        "classic and windowed engines disagree on the shardmds run"
    );
    // the windowed engine really ran: one telemetry process per domain
    assert_eq!(windowed.1.matches("process_name").count(), 4);
    // and the schedule really migrated under live traffic, including
    // cross-domain referral hops, in both engines
    assert!(
        classic.2 > 0,
        "no lazy migrations fired — schedule too late?"
    );
    assert_eq!(classic.2, windowed.2);
    for threads in [2, 4, 8] {
        let run = run_shardmds(Some(threads));
        assert_eq!(
            windowed.0, run.0,
            "shardmds result differs between --sim-threads 1 and {threads}"
        );
        assert_eq!(
            windowed.1, run.1,
            "shardmds trace differs between --sim-threads 1 and {threads}"
        );
    }
}

/// A pinned run with `--sim-threads` unset takes up to two host cores (at
/// most one thread per domain) rather than one thread, and an explicit
/// count above the host's cores is capped: neither may show in the output.
/// The shardmds run crosses domains on every placement lookup, so the
/// mailbox protocol is exercised at whatever thread count the host yields.
#[test]
fn pinned_default_threads_match_sim_threads_1() {
    let _serial = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let one = run_shardmds_cfg(Some(1), false);
    assert_eq!(
        one.1.matches("process_name").count(),
        4,
        "windowed engine ran"
    );
    for (threads, label) in [(None, "unset"), (Some(64), "64 (capped)")] {
        let pinned = run_shardmds_cfg(threads, true);
        assert_eq!(
            one.0, pinned.0,
            "SimRunResult differs: --sim-threads 1 vs {label}"
        );
        assert_eq!(
            one.1, pinned.1,
            "Chrome trace differs: --sim-threads 1 vs {label}"
        );
        assert_eq!(
            one.2, pinned.2,
            "timeseries differs: --sim-threads 1 vs {label}"
        );
    }
}
