//! Cluster model and execution engines for the DMetabench reproduction.
//!
//! This crate provides the pieces between the file-system models (`dfs`) and
//! the benchmark framework (`dmetabench`):
//!
//! * [`MpiWorld`] / [`Placement`] / [`execution_plan`] — placement discovery
//!   and the (nodes × processes-per-node) execution plan of paper
//!   §3.3.3–3.3.4,
//! * [`run_sim`] — the deterministic virtual-time engine driving a
//!   [`dfs::DistFs`] model, with disturbance injection (CPU hogs, server
//!   pauses, competing load; Figs. 4.4–4.7),
//! * [`run_threads`] — the wall-clock engine driving a real
//!   [`memfs::Vfs`] backend with one OS thread per worker and the same
//!   100 ms time-interval progress logging.
//!
//! # Example
//!
//! ```
//! use cluster::{run_sim, create_stream, SimConfig, WorkerSpec};
//! use dfs::NfsFs;
//!
//! let mut fs = NfsFs::with_defaults();
//! let workers = vec![WorkerSpec::new(0, 0), WorkerSpec::new(1, 0)];
//! let streams = vec![
//!     create_stream("/w/n0".into(), 100),
//!     create_stream("/w/n1".into(), 100),
//! ];
//! let nodes = vec!["nodeA".into(), "nodeB".into()];
//! let result = run_sim(&mut fs, &nodes, workers, streams, &SimConfig::default());
//! assert_eq!(result.total_ops(), 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parsim;
mod placement;
mod simengine;
mod threadengine;

pub use parsim::{set_sim_threads, sim_threads, PartitionUnsupported, PartitionedFeature};
pub use placement::{execution_plan, MpiWorld, Placement, RunSpec};
pub use simcore::par::HostShare;
pub use simengine::{
    create_stream, run_sim, run_sim_checked, Disturbance, OpStream, SimConfig, SimRunResult,
    WorkerSpec, WorkerTrace,
};
pub use threadengine::{exec_op, hostname, run_threads, RealOpStream, ThreadRunConfig};
