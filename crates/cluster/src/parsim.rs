//! Partitioned runs: the `--sim-threads` knob and the features a partition
//! refuses.
//!
//! A run is partitioned when [`set_sim_threads`] is set (or the config pins
//! it) *and* the model offers a [`dfs::PartitionPlan`]; the engine in
//! `simengine.rs` then runs one domain per plan entry, on up to
//! [`window_threads`] OS threads, with results byte-identical at every
//! thread count. Semaphores, background jobs, server pauses, model timers
//! and disturbances all couple domains through non-network state; a
//! partitioned run that meets one aborts with a structured
//! [`PartitionUnsupported`] naming the model, the offending feature and the
//! escape hatch (run without `--sim-threads`, as one domain) — surfaced as
//! a `Result` through [`run_sim_checked`](crate::run_sim_checked).

use std::sync::atomic::{AtomicUsize, Ordering};

use simcore::par;

/// `--sim-threads` state: 0 = unset (one domain, the default), N ≥ 1 = run
/// partitionable models partitioned on N OS threads (at most one per host
/// core).
static SIM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Select partitioned execution: `Some(n)` runs partitionable models as
/// their partition's domains on `n` OS threads, capped at the host's cores
/// (`n = 1` = the same algorithm, sequentially); `None` (the default) runs
/// every model as one domain unless its run config pins the partition.
/// Process-wide, read at each `run_sim` call.
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

/// Most OS threads a run that pins its partition takes with
/// `--sim-threads` unset. Two threads were measured to beat one on a
/// 2-vCPU host; more have not been measured, so the default stops there.
const PINNED_THREADS: usize = 2;

/// OS threads for a partitioned run, or `None` for one domain. Output
/// is identical at every count, so the count is only a host-speed choice:
/// `--sim-threads` capped at the host's cores (oversubscribed window
/// threads just wait on each other at every barrier); with the knob unset,
/// a run that pins its partition takes up to [`PINNED_THREADS`]
/// cores, or one while the host is shared ([`par::HostShare`]).
pub(crate) fn window_threads(pinned: bool) -> Option<usize> {
    match sim_threads() {
        Some(n) => Some(n.min(par::host_cores())),
        None if !pinned => None,
        None if par::host_shared() => Some(1),
        None => Some(par::host_cores().min(PINNED_THREADS)),
    }
}

/// A feature a partitioned run cannot execute: these all couple domains
/// through non-network state, which would break the lookahead contract.
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

/// Structured "this run cannot go parallel" error: partitioned execution
/// was selected (`--sim-threads`) and the model offered a partition, but
/// the run uses a feature that couples domains.
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
             rerun without --sim-threads to run it as one domain, in the classic \
             sequential engine's event order (which supports every feature)",
            self.model,
            self.feature.describe()
        )
    }
}

impl std::error::Error for PartitionUnsupported {}

#[cfg(test)]
mod tests {
    use super::*;

    /// With `--sim-threads` unset (never set by this crate's tests): only
    /// pinned runs go partitioned, on at most two cores, and on one while the
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
