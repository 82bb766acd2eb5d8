//! Scenario registry and parallel shape-regression suite.
//!
//! Every experiment binary of the `bench` crate is a thin wrapper around a
//! [`Scenario`] registered here. A scenario is a pure function producing a
//! [`ShapeReport`]: the tables the binary used to print, the key numbers
//! (saturation points, plateau ratios, COV windows, crossover locations) as
//! [`Metric`]s with explicit comparison tolerances, and the former
//! `assert!` shape checks as recorded [`ShapeCheck`]s.
//!
//! Reports are compared against checked-in JSON baselines (see
//! [`crate::baseline`]); `dmetabench suite` runs the whole registry across
//! OS threads, and `tests/suite_shapes.rs` does the same under `cargo
//! test`. Scenario bodies are single-threaded discrete-event simulations on
//! virtual time, so a report is bit-identical no matter how many sibling
//! scenarios run concurrently or in which order the worker threads pick
//! them up — a property pinned by `tests/suite_determinism.rs`.

use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use crate::scenarios::registry;

// ---------------------------------------------------------------------------
// report model
// ---------------------------------------------------------------------------

/// One measured number with its baseline-comparison policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Stable metric name (unique within a report).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Comparison tolerance against the baseline: `None` = informational
    /// (never compared, e.g. wall-clock timings), `Some(0.0)` = must be
    /// bit-identical, `Some(t)` = relative band `|a-e| <= t*max(1,|e|)`.
    pub tolerance: Option<f64>,
}

/// A recorded shape assertion (former `assert!` in the experiment binary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShapeCheck {
    /// Short stable name of the property.
    pub name: String,
    /// Whether the property held in this run.
    pub passed: bool,
    /// Human-readable detail (the measured numbers behind the verdict).
    pub detail: String,
}

/// A printable experiment table (also the serialized report table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpTable {
    /// Table title (names the paper artifact, e.g. "Fig. 4.4").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl ExpTable {
    /// Create an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        ExpTable {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("\n=== {} ===\n", self.title);
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The full shape record of one scenario run — everything the baseline
/// comparison sees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShapeReport {
    /// Scenario id (equals the experiment binary name).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Paper artifact reference (e.g. "§4.3.2").
    pub paper_ref: String,
    /// Whether the scenario is a pure virtual-time simulation. Tables,
    /// notes and the summary of non-deterministic scenarios (wall-clock
    /// measurements) are exempt from baseline comparison.
    pub deterministic: bool,
    /// One-line "measured" summary for EXPERIMENTS.md.
    pub summary: String,
    /// Key numbers with comparison tolerances.
    pub metrics: Vec<Metric>,
    /// Shape assertions.
    pub checks: Vec<ShapeCheck>,
    /// The tables the binary prints.
    pub tables: Vec<ExpTable>,
    /// Free-form printed lines (ASCII charts, commentary).
    pub notes: Vec<String>,
}

impl ShapeReport {
    /// Whether every shape check passed.
    pub fn all_checks_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Look up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// A side file produced by a scenario (SVG chart, TSV dump). Artifacts are
/// written to `target/experiments/` and are not part of the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// File name within the experiments output directory.
    pub name: String,
    /// File content.
    pub content: String,
}

/// Report plus artifacts — what a scenario run yields.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutput {
    /// The comparable shape report.
    pub report: ShapeReport,
    /// Side files to write to `target/experiments/`.
    pub artifacts: Vec<Artifact>,
}

/// Incremental builder handed to scenario bodies.
#[derive(Debug)]
pub struct ReportBuilder {
    report: ShapeReport,
    artifacts: Vec<Artifact>,
}

impl ReportBuilder {
    /// Start a report pre-filled with the scenario's identity.
    pub fn new(scenario: &Scenario) -> Self {
        ReportBuilder {
            report: ShapeReport {
                id: scenario.id.to_owned(),
                title: scenario.title.to_owned(),
                paper_ref: scenario.paper_ref.to_owned(),
                deterministic: scenario.deterministic,
                summary: String::new(),
                metrics: Vec::new(),
                checks: Vec::new(),
                tables: Vec::new(),
                notes: Vec::new(),
            },
            artifacts: Vec::new(),
        }
    }

    /// Record an informational metric (never compared to the baseline).
    pub fn metric_info(&mut self, name: &str, value: f64) {
        self.push_metric(name, value, None);
    }

    /// Record a metric that must match the baseline bit-for-bit.
    pub fn metric_exact(&mut self, name: &str, value: f64) {
        self.push_metric(name, value, Some(0.0));
    }

    /// Record a metric compared within a relative tolerance band.
    pub fn metric_tol(&mut self, name: &str, value: f64, tolerance: f64) {
        self.push_metric(name, value, Some(tolerance));
    }

    fn push_metric(&mut self, name: &str, value: f64, tolerance: Option<f64>) {
        assert!(
            self.report.metric(name).is_none(),
            "duplicate metric name '{name}'"
        );
        self.report.metrics.push(Metric {
            name: name.to_owned(),
            value,
            tolerance,
        });
    }

    /// Record a shape check (a former `assert!`).
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.report.checks.push(ShapeCheck {
            name: name.to_owned(),
            passed,
            detail,
        });
    }

    /// Attach a finished table.
    pub fn table(&mut self, table: ExpTable) {
        self.report.tables.push(table);
    }

    /// Attach a printed line (ASCII chart, commentary).
    pub fn note(&mut self, line: impl Into<String>) {
        self.report.notes.push(line.into());
    }

    /// Set the one-line "measured" summary for EXPERIMENTS.md.
    pub fn summary(&mut self, text: impl Into<String>) {
        self.report.summary = text.into();
    }

    /// Attach a side file for `target/experiments/`.
    pub fn artifact(&mut self, name: &str, content: String) {
        self.artifacts.push(Artifact {
            name: name.to_owned(),
            content,
        });
    }

    /// Finish the report.
    pub fn finish(self) -> ScenarioOutput {
        ScenarioOutput {
            report: self.report,
            artifacts: self.artifacts,
        }
    }
}

// ---------------------------------------------------------------------------
// scenarios
// ---------------------------------------------------------------------------

/// A registered experiment scenario.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable id — equals the experiment binary name (`exp_fig_4_4`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// EXPERIMENTS.md section this scenario belongs to.
    pub group: &'static str,
    /// Paper artifact reference (e.g. "§4.3.2").
    pub paper_ref: &'static str,
    /// What the paper reports (the "Paper" column of EXPERIMENTS.md).
    pub paper: &'static str,
    /// Verdict cell for EXPERIMENTS.md when all checks pass.
    pub verdict: &'static str,
    /// Pure virtual-time simulation (bit-reproducible) vs. wall-clock.
    pub deterministic: bool,
    /// Rough relative runtime — the suite claims expensive scenarios first
    /// so the parallel tail stays short. Never affects results.
    pub cost_hint: u32,
    /// The scenario body.
    pub run: fn(&mut ReportBuilder),
}

/// Look up a scenario by id.
pub fn find(id: &str) -> Option<&'static Scenario> {
    registry().iter().find(|s| s.id == id)
}

// ---------------------------------------------------------------------------
// running
// ---------------------------------------------------------------------------

/// Outcome of one scenario execution.
#[derive(Debug)]
pub struct ScenarioRunResult {
    /// The scenario that ran.
    pub scenario: &'static Scenario,
    /// The output, or the panic message if the body panicked.
    pub outcome: Result<ScenarioOutput, String>,
    /// Wall-clock seconds this scenario took.
    pub wall_secs: f64,
    /// Telemetry captured during the run (traced runs only).
    pub telemetry: Option<simcore::TelemetryReport>,
}

/// Run one scenario, catching panics.
pub fn run_scenario(scenario: &'static Scenario) -> ScenarioRunResult {
    run_scenario_inner(scenario, false)
}

/// Run one scenario with the [`simcore::telemetry`] sink enabled; the
/// captured spans/counters/histograms come back in
/// [`ScenarioRunResult::telemetry`]. Telemetry is stamped with virtual
/// time only, so the report is bit-identical across repeat runs and
/// unaffected by sibling scenarios on other threads.
pub fn run_scenario_traced(scenario: &'static Scenario) -> ScenarioRunResult {
    run_scenario_inner(scenario, true)
}

fn run_scenario_inner(scenario: &'static Scenario, traced: bool) -> ScenarioRunResult {
    let t0 = Instant::now();
    let body = || {
        // catch_unwind sits *inside* the telemetry capture so a panicking
        // scenario still yields whatever events it recorded before dying.
        catch_unwind(AssertUnwindSafe(|| {
            let mut b = ReportBuilder::new(scenario);
            (scenario.run)(&mut b);
            b.finish()
        }))
        .map_err(|e| {
            if let Some(s) = e.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = e.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(p) = e.downcast_ref::<cluster::PartitionUnsupported>() {
                // structured engine error: the failure line already names
                // the scenario; the message adds model, feature and remedy
                format!("scenario '{}': {p}", scenario.id)
            } else {
                "scenario panicked".to_owned()
            }
        })
    };
    let (outcome, telemetry) = if traced {
        let (outcome, report) = simcore::telemetry::capture(body);
        (outcome, Some(report))
    } else {
        (body(), None)
    };
    ScenarioRunResult {
        scenario,
        outcome,
        wall_secs: t0.elapsed().as_secs_f64(),
        telemetry,
    }
}

/// A completed suite run.
#[derive(Debug)]
pub struct SuiteRun {
    /// Per-scenario results, in registry order regardless of scheduling.
    pub results: Vec<ScenarioRunResult>,
    /// Wall-clock seconds for the whole (parallel) run.
    pub wall_secs: f64,
}

impl SuiteRun {
    /// Sum of the individual scenario wall-clock times — the serial cost
    /// the parallel run avoided.
    pub fn serial_secs(&self) -> f64 {
        self.results.iter().map(|r| r.wall_secs).sum()
    }
}

/// Run scenarios concurrently on `jobs` OS threads.
///
/// Results come back in input order; the claim order of the shared work
/// queue does not affect any report (scenario bodies are independent
/// single-threaded simulations).
pub fn run_suite(scenarios: &[&'static Scenario], jobs: usize) -> SuiteRun {
    run_suite_inner(scenarios, jobs, &default_order(scenarios), false)
}

/// [`run_suite`] with the telemetry sink enabled per scenario; each
/// [`ScenarioRunResult`] carries its captured trace. Telemetry is scoped
/// per worker thread, so traces are bit-identical for any `jobs` level or
/// claim order.
pub fn run_suite_traced(scenarios: &[&'static Scenario], jobs: usize) -> SuiteRun {
    run_suite_inner(scenarios, jobs, &default_order(scenarios), true)
}

/// [`run_suite`] with an explicit work-claim order (a permutation of
/// `0..scenarios.len()`). Exposed so tests can shuffle scheduling and
/// assert reports are order-independent.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the scenario indices.
pub fn run_suite_ordered(
    scenarios: &[&'static Scenario],
    jobs: usize,
    order: &[usize],
) -> SuiteRun {
    run_suite_inner(scenarios, jobs, order, false)
}

/// [`run_suite_ordered`] with telemetry capture, for the determinism tests.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the scenario indices.
pub fn run_suite_ordered_traced(
    scenarios: &[&'static Scenario],
    jobs: usize,
    order: &[usize],
) -> SuiteRun {
    run_suite_inner(scenarios, jobs, order, true)
}

/// Claim expensive scenarios first: with a shared work queue this keeps
/// the long poles off the tail of the schedule. Purely a latency
/// optimization — reports are identical for any claim order.
fn default_order(scenarios: &[&'static Scenario]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scenarios.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(scenarios[i].cost_hint));
    order
}

fn run_suite_inner(
    scenarios: &[&'static Scenario],
    jobs: usize,
    order: &[usize],
    traced: bool,
) -> SuiteRun {
    let mut seen = vec![false; scenarios.len()];
    for &i in order {
        assert!(
            i < scenarios.len() && !seen[i],
            "order must be a permutation"
        );
        seen[i] = true;
    }
    assert!(seen.iter().all(|&b| b), "order must cover every scenario");

    let t0 = Instant::now();
    let jobs = jobs.clamp(1, scenarios.len().max(1));
    // scenarios side by side already fill the cores; a pinned windowed run
    // must not add spinning window threads on top
    let _share = (jobs > 1).then(cluster::HostShare::enter);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ScenarioRunResult>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::SeqCst);
                if k >= order.len() {
                    break;
                }
                let idx = order[k];
                let result = run_scenario_inner(scenarios[idx], traced);
                *slots[idx].lock().expect("slot lock") = Some(result);
            });
        }
    });
    SuiteRun {
        results: slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot lock")
                    .expect("every slot filled")
            })
            .collect(),
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Default worker-thread count for suite runs.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Entry point for the thin experiment binaries: run one scenario, print
/// its tables/notes/checks, write its artifacts, and exit non-zero if a
/// shape check failed (preserving the old `assert!` behaviour).
pub fn run_scenario_main(id: &str) {
    let scenario = find(id).unwrap_or_else(|| panic!("unknown scenario '{id}'"));
    let result = run_scenario(scenario);
    let output = match result.outcome {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("scenario {id} panicked: {msg}");
            std::process::exit(101);
        }
    };
    for table in &output.report.tables {
        table.print();
    }
    for note in &output.report.notes {
        println!("{note}");
    }
    for artifact in &output.artifacts {
        save_artifact(&artifact.name, &artifact.content);
    }
    let mut failed = 0usize;
    for check in &output.report.checks {
        if check.passed {
            println!("check ok   {} — {}", check.name, check.detail);
        } else {
            println!("check FAIL {} — {}", check.name, check.detail);
            failed += 1;
        }
    }
    if failed > 0 {
        println!(
            "\nSHAPE FAIL: {failed} of {} checks failed ({}).",
            output.report.checks.len(),
            scenario.paper_ref
        );
        std::process::exit(1);
    }
    println!(
        "\nSHAPE OK: {} checks hold ({} {}).",
        output.report.checks.len(),
        scenario.paper_ref,
        scenario.title
    );
}

// ---------------------------------------------------------------------------
// shared sweep helpers (moved here from the bench crate so scenario bodies
// and the Criterion benches use one implementation)
// ---------------------------------------------------------------------------

use cluster::{run_sim, OpStream, SimConfig, SimRunResult, WorkerSpec};
use dfs::{DistFs, MetaOp};

/// Uniform node names for simulated runs.
pub fn node_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("lxnode{i:02}")).collect()
}

/// `nodes × ppn` normal-priority workers.
pub fn make_workers(nodes: usize, ppn: usize) -> Vec<WorkerSpec> {
    let mut out = Vec::with_capacity(nodes * ppn);
    for n in 0..nodes {
        for p in 0..ppn {
            out.push(WorkerSpec::new(n, p));
        }
    }
    out
}

/// Per-worker create streams under distinct directories (MakeFiles-shaped;
/// unbounded — pair with a duration in [`SimConfig`]).
pub fn create_streams(workers: &[WorkerSpec], data_bytes: u64) -> Vec<Box<dyn OpStream>> {
    workers
        .iter()
        .map(|w| {
            let dir = format!("/bench/n{}p{}", w.node, w.proc);
            let b: Box<dyn OpStream> = Box::new(move |i: u64| {
                Some(MetaOp::Create {
                    path: format!("{dir}/sub{}/f{i}", i / 5000),
                    data_bytes,
                })
            });
            b
        })
        .collect()
}

/// Run a duration-bounded MakeFiles-style workload and return the result.
pub fn run_makefiles(
    model: &mut dyn DistFs,
    nodes: usize,
    ppn: usize,
    config: &SimConfig,
) -> SimRunResult {
    let workers = make_workers(nodes, ppn);
    let streams = create_streams(&workers, 0);
    run_sim(model, &node_names(nodes), workers, streams, config)
}

/// Stonewall throughput of a MakeFiles run at `nodes × ppn` — the standard
/// scaling probe used by several experiments.
pub fn makefiles_throughput(
    mut model: Box<dyn DistFs>,
    nodes: usize,
    ppn: usize,
    config: &SimConfig,
) -> f64 {
    let res = run_makefiles(model.as_mut(), nodes, ppn, config);
    res.stonewall_ops_per_sec()
}

/// Output directory for experiment artifacts (`target/experiments`).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

/// Write an artifact (chart, TSV) into the experiment output directory and
/// note it on stdout.
pub fn save_artifact(name: &str, content: &str) {
    let path = out_dir().join(name);
    std::fs::write(&path, content).expect("can write experiment artifact");
    println!("[artifact] {}", path.display());
}

/// Format ops/s for table cells.
pub fn fmt_ops(v: f64) -> String {
    format!("{v:.0}")
}

/// Format a ratio/factor for table cells.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

// ---------------------------------------------------------------------------
// EXPERIMENTS.md generation
// ---------------------------------------------------------------------------

/// Regenerate EXPERIMENTS.md from suite results (in registry order).
pub fn emit_markdown(run: &SuiteRun) -> String {
    let mut out = String::new();
    out.push_str(
        "# EXPERIMENTS — paper vs. measured\n\
         \n\
         Every table and figure of the thesis' evaluation, the scenario that\n\
         regenerates it, what the paper reports, and what this reproduction\n\
         measures. Absolute numbers come from behavioural models on virtual time\n\
         (see DESIGN.md §2), so the comparison target is the **shape**: who wins,\n\
         by roughly what factor, where the saturations and crossovers fall.\n\
         \n\
         This file is generated: `cargo run --release -p dmetabench --bin\n\
         dmetabench -- suite --emit-md EXPERIMENTS.md`. Each scenario records its\n\
         shape checks and key metrics in a [`ShapeReport`]; reports are compared\n\
         against the checked-in baselines in `baselines/*.json` on every `cargo\n\
         test` run (see `tests/suite_shapes.rs`) and by `dmetabench suite`.\n\
         Per-scenario binaries still exist (`cargo run --release -p bench --bin\n\
         exp_fig_4_4`) and exit non-zero if their shape checks fail.\n\
         \n\
         Charts are written to `target/experiments/*.svg`. Passing\n\
         `--trace-out <dir>` to `dmetabench suite` additionally writes a\n\
         Chrome/Perfetto trace and a metrics summary per scenario, and\n\
         `dmetabench analyze <id>` breaks each operation's end-to-end\n\
         latency into causal segments (network, queueing, service, lock\n\
         wait) from the same traces (see the README's Observability\n\
         section).\n",
    );
    let mut current_group = "";
    for result in &run.results {
        let s = result.scenario;
        if s.group != current_group {
            current_group = s.group;
            out.push_str(&format!(
                "\n## {}\n\n| Exp | Scenario | Paper | Measured | Verdict |\n|---|---|---|---|---|\n",
                s.group
            ));
        }
        let (measured, verdict) = match &result.outcome {
            Ok(o) if o.report.all_checks_passed() => {
                (o.report.summary.clone(), s.verdict.to_owned())
            }
            Ok(o) => (
                o.report.summary.clone(),
                format!(
                    "**FAILING** ({} checks)",
                    o.report.checks.iter().filter(|c| !c.passed).count()
                ),
            ),
            Err(msg) => (format!("panicked: {msg}"), "**PANICKED**".to_owned()),
        };
        out.push_str(&format!(
            "| {} | `{}` | {} | {} | {} |\n",
            s.title, s.id, s.paper, measured, verdict
        ));
    }
    out.push_str(
        "\n## Notes on calibration\n\
         \n\
         Model constants (service times, parallelism, link latencies) are in\n\
         `dfs/src/*.rs` `*Config::default()` and were calibrated once against the two\n\
         absolute anchors visible in the supplied text: Fig. 4.4 (≈5 500–6 000 ops/s\n\
         from 4 NFS clients) and Fig. 4.6 (filer saturation below 20 000 ops/s with a\n\
         ~10 s consistency-point sawtooth). Everything else follows from the\n\
         architecture models, not from per-experiment tuning; the same default\n\
         configurations are used across all experiments (the write-back study and the\n\
         latency sweep vary exactly the parameter they study).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let mut t = ExpTable::new("demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("=== demo ==="));
        assert!(s.contains("a  bbbb"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        let mut t = ExpTable::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let reg = registry();
        assert_eq!(reg.len(), 29, "all 29 experiments are registered");
        for (i, a) in reg.iter().enumerate() {
            for b in &reg[i + 1..] {
                assert_ne!(a.id, b.id, "duplicate scenario id");
            }
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut t = ExpTable::new("demo", &["a"]);
        t.row(vec!["1".into()]);
        let report = ShapeReport {
            id: "x".into(),
            title: "X".into(),
            paper_ref: "§0".into(),
            deterministic: true,
            summary: "s".into(),
            metrics: vec![
                Metric {
                    name: "m".into(),
                    value: 0.1 + 0.2,
                    tolerance: Some(0.0),
                },
                Metric {
                    name: "i".into(),
                    value: 3.5,
                    tolerance: None,
                },
            ],
            checks: vec![ShapeCheck {
                name: "c".into(),
                passed: true,
                detail: "d".into(),
            }],
            tables: vec![t],
            notes: vec!["n".into()],
        };
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        let back: ShapeReport = serde_json::from_str(&json).expect("decodes");
        assert_eq!(report, back);
        assert_eq!(
            report.metric("m").expect("present").value.to_bits(),
            back.metric("m").expect("present").value.to_bits()
        );
    }
}
