//! `tp simprof`: the metrics/profiling report, the perf-trend regression
//! gate, and the disabled-bus overhead guard.
//!
//! * **Report** (default): runs every selected cell with the
//!   full-interest [`MetricsSink`](tp_metrics::MetricsSink) and the host
//!   stage profiler attached, one cell at a time on one thread, and prints
//!   per-cell distribution and stage-profile tables. `--out PATH` writes
//!   the `tp-bench/metrics/v1` document, `--md PATH` the markdown report.
//!   `--sample` additionally runs each cell under sampled simulation and
//!   appends the cold/steady/ffwd phase series.
//! * **Diff** (`--diff OLD NEW`): compares two harness JSON documents
//!   (`tp-bench/speed/v2` or `tp-bench/metrics/v1`) cell by cell.
//!   Deterministic simulated figures (IPC, distribution percentiles)
//!   regress hard; host throughput only warns. `--gate` exits non-zero on
//!   any regression, `--ipc-tol PCT` adjusts the IPC gate (default 1%),
//!   `--md PATH` writes the markdown artifact.
//! * **Events guard** (`--events-guard PCT`): the tiny synthetic suite,
//!   bare vs with a `NullSink` attached (empty interest mask — the
//!   compiled-in event bus with every emission site masked off),
//!   alternating repetitions, minimum wall per variant. Exits non-zero if
//!   the attached run is more than `PCT` percent slower.

use tp_bench::cli::{Args, CellSpec, UsageError, MODEL, OUT, SAMPLE, SIZE, SUITE, WORKLOAD};
use tp_bench::json;
use tp_bench::metrics::{
    collect_cell, collect_phases, diff_documents, metrics_to_json, metrics_to_markdown,
    DiffThresholds, PhasePoint,
};
use tp_bench::sampled::{default_sample_for, Interval};
use tp_bench::sweep::{run_grid, Cell, CellConfig};
use tp_bench::tap::{measure_observability_overhead, ObsVariant};
use tp_workloads::Size;

use crate::{write_doc, write_json};

pub fn main(mut args: Args) -> Result<(), UsageError> {
    let spec = CellSpec::take(&mut args, &[WORKLOAD, SIZE, SUITE, MODEL, SAMPLE, OUT], Size::Tiny)?;
    let md_out = args.value("--md")?;
    let diff = args.values("--diff", 2)?;
    let gate = args.flag("--gate");
    let ipc_tol: Option<f64> = args.parsed("--ipc-tol")?;
    let events_guard: Option<f64> = args.parsed("--events-guard")?;
    args.finish(0)?;
    if let Some(max_pct) = events_guard {
        run_events_guard(max_pct);
        return Ok(());
    }
    if let Some(paths) = diff {
        let mut thresholds = DiffThresholds::default();
        if let Some(pct) = ipc_tol {
            thresholds.ipc_pct = pct;
        }
        return run_diff(&paths[0], &paths[1], &thresholds, gate, md_out.as_deref());
    }
    if gate || ipc_tol.is_some() {
        return Err(UsageError("--gate/--ipc-tol only apply to --diff".into()));
    }
    let configs = spec.configs(&CellConfig::MODELS)?;
    let workloads = spec.workloads()?;
    let cells = Cell::grid(&workloads, &configs, &spec.pes());
    let metrics = run_grid(&cells, 1, collect_cell);
    let phases = if spec.sample {
        let sample = default_sample_for(spec.size);
        run_grid(&cells, 1, |c| collect_phases(c, &sample))
    } else {
        Vec::new()
    };
    for c in &metrics {
        println!(
            "== {} / {} — IPC {:.3}, {} instrs, {} cycles, {:.2}s host",
            c.workload,
            c.config.name(),
            c.stats.ipc(),
            c.stats.retired_instrs,
            c.stats.cycles,
            c.wall_seconds
        );
        print!("{}", c.metrics.table());
        print!("{}", c.profiler.table());
    }
    for p in &phases {
        let (cold, steady): (Vec<_>, Vec<_>) =
            p.points.iter().filter(|pt| pt.phase != "ffwd").partition(|pt| pt.phase == "cold");
        let ipc = |pts: &[&PhasePoint]| {
            let (instrs, cycles) =
                pts.iter().fold((0, 0), |(i, c), p| (i + p.leg.instrs, c + p.leg.cycles));
            Interval { start_retired: 0, instrs, cycles }.ipc()
        };
        println!(
            "== {} / {} phases: cold ipc {:.3} ({} legs), steady ipc {:.3} ({} legs), \
             {} ffwd legs",
            p.workload,
            p.config.name(),
            ipc(&cold),
            cold.len(),
            ipc(&steady),
            steady.len(),
            p.points.iter().filter(|pt| pt.phase == "ffwd").count()
        );
    }
    if let Some(path) = &spec.out {
        write_json(path, &metrics_to_json(&metrics, spec.size, &phases));
    }
    if let Some(path) = &md_out {
        write_doc(path, &metrics_to_markdown(&metrics, &phases));
    }
    Ok(())
}

fn run_diff(
    old_path: &str,
    new_path: &str,
    thresholds: &DiffThresholds,
    gate: bool,
    md_out: Option<&str>,
) -> Result<(), UsageError> {
    let read = |path: &str| -> Result<json::Json, UsageError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| UsageError(format!("reading {path}: {e}")))?;
        json::parse(&text).map_err(|e| UsageError(format!("parsing {path}: {e}")))
    };
    let (old, new) = (read(old_path)?, read(new_path)?);
    let report = diff_documents(&old, &new, thresholds)
        .map_err(|e| UsageError(format!("diff failed: {e}")))?;
    println!(
        "perf-trend: {} cells compared, {} regressions, {} warnings",
        report.compared_cells,
        report.regressions.len(),
        report.warnings.len()
    );
    for r in &report.regressions {
        println!("REGRESSION {r}");
    }
    for w in &report.warnings {
        println!("warning    {w}");
    }
    if let Some(path) = md_out {
        write_doc(path, &report.to_markdown());
    }
    if gate && !report.gate_ok() {
        eprintln!("perf-trend gate FAILED: {} regressions", report.regressions.len());
        std::process::exit(1);
    }
    if gate {
        println!("perf-trend gate: OK");
    }
    Ok(())
}

/// The disabled-bus overhead guard: with only a `NullSink` attached every
/// emission site is still masked off, so the attached run must track the
/// bare run to within `max_pct` percent. A small absolute slack floor
/// absorbs scheduler jitter on the short tiny-suite runs. The
/// metrics-attached and profiler-enabled variants pay for observation by
/// design, so their figures are printed for the record but never gated.
fn run_events_guard(max_pct: f64) {
    let probe = measure_observability_overhead(5);
    for v in ObsVariant::ALL {
        println!(
            "events-guard: tiny suite {:<16} {:.3}s ({:+.2}%)",
            v.label(),
            probe.seconds(v),
            probe.overhead_pct(v)
        );
    }
    let pct = probe.overhead_pct(ObsVariant::NullSink);
    let slack = 0.02; // seconds; tiny runs are short enough to jitter
    if probe.null_sink_seconds > probe.bare_seconds * (1.0 + max_pct / 100.0) + slack {
        eprintln!("events-guard FAILED: NullSink overhead {pct:.2}% > {max_pct:.2}%");
        std::process::exit(1);
    }
    println!("events-guard: OK (null-sink <= {max_pct:.1}% + {slack:.2}s slack)");
}
