//! `tp baseline`: the speed baseline. Runs the workload suite under the
//! five-model control-independence matrix and writes `BENCH_speed.json`
//! (`tp-bench/speed/v2`; see README "Benchmarking").
//!
//! The checked-in `BENCH_speed.json` comes from a `--size full --suite
//! all --ffwd-bench` run (both suites' cells, the rv section last). Cells
//! are timed one at a time on one thread: the document records host
//! throughput. `--pes` adds a PE-count axis. `--guard` exits non-zero if
//! any CI model loses more than 1% IPC to the base model on any cell.
//! `--ffwd-bench` benchmarks the fast-forward engines (interpreter vs
//! superblock) on the *long*-size suite and embeds the throughput report
//! as the document's `sampled` section; `--gate MIN` fails when its
//! geomean speedup falls below `MIN`.
//!
//! `--sample` switches to sampled execution (the only tractable mode for
//! `--size long`) and writes the `tp-bench/sampled/v2` schema instead,
//! defaulting `--out` to `BENCH_sampled.json`. With `--ffwd-bench` it
//! runs only the fast-forward benchmark, at `--size`, and writes the
//! standalone throughput document (default `BENCH_ffwd.json`) — the CI
//! smoke gates it at 1.0: the superblock engine must never be slower.

use tp_bench::cli::{Args, CellSpec, UsageError, MODEL, OUT, PES, SAMPLE, SIZE, SUITE};
use tp_bench::ffwd::{ffwd_section_json, ffwd_to_json, run_ffwd_bench, speedup_geomean};
use tp_bench::sampled::{default_sample_for, run_sampled_cell, sampled_to_json};
use tp_bench::speed::{guard_violations, to_json_with_sampled};
use tp_bench::sweep::{run_cell, run_grid, Cell, CellConfig};
use tp_bench::FfwdBenchCell;
use tp_core::CiModel;
use tp_workloads::{Size, Workload};

use crate::write_doc;

/// The fast-forward benchmark's model: the sampled flow's usual one, whose
/// selection (ntb cuts, no fg padding) is the realistic per-trace warming
/// cost.
const FFWD_MODEL: CellConfig = CellConfig::Model(CiModel::MlbRet);

pub fn main(mut args: Args) -> Result<(), UsageError> {
    let spec = CellSpec::take(&mut args, &[SIZE, SUITE, MODEL, PES, SAMPLE, OUT], Size::Full)?;
    let guard = args.flag("--guard");
    let ffwd_bench = args.flag("--ffwd-bench");
    let gate: Option<f64> = args.parsed("--gate")?;
    args.finish(0)?;
    // A no-op --guard would be a false green: reject what a mode ignores.
    if spec.sample && guard {
        return Err(UsageError("--sample does not support --guard".into()));
    }
    if gate.is_some() && !ffwd_bench {
        return Err(UsageError("--gate only applies to --ffwd-bench".into()));
    }
    if spec.sample && ffwd_bench {
        let config = spec.config(FFWD_MODEL)?;
        let out = spec.out.as_deref().unwrap_or("BENCH_ffwd.json");
        let cells = ffwd_table(&spec.suite.workloads(spec.size), config);
        write_doc(out, &ffwd_to_json(&cells, spec.size, config));
        check_gate(&cells, gate);
        return Ok(());
    }
    let configs = spec.configs(&CellConfig::MODELS)?;
    let workloads = spec.suite.workloads(spec.size);
    let cells = Cell::grid(&workloads, &configs, &spec.pes());
    if spec.sample {
        // Sampled output is a different schema; never default onto the
        // checked-in detailed baseline.
        let out = spec.out.as_deref().unwrap_or("BENCH_sampled.json");
        sampled(&cells, spec.size, out);
        return Ok(());
    }
    let out = spec.out.as_deref().unwrap_or("BENCH_speed.json");
    let runs = run_grid(&cells, 1, run_cell);
    println!(
        "{:<10} {:<12} {:>3} {:>9} {:>9} {:>6} {:>8} {:>7} {:>7} {:>12}",
        "bench",
        "model",
        "pes",
        "instrs",
        "cycles",
        "ipc",
        "brmisp%",
        "trmisp%",
        "secs",
        "instrs/sec"
    );
    for c in &runs {
        let s = &c.stats;
        println!(
            "{:<10} {:<12} {:>3} {:>9} {:>9} {:>6.2} {:>8.1} {:>7.1} {:>7.2} {:>12.0}",
            c.workload,
            c.config.name(),
            c.pes,
            s.retired_instrs,
            s.cycles,
            s.ipc(),
            s.branch_misp_rate(),
            s.trace_misp_rate(),
            c.wall_seconds,
            c.instrs_per_sec()
        );
    }
    let total_wall: f64 = runs.iter().map(|c| c.wall_seconds).sum();
    let total_instrs: u64 = runs.iter().map(|c| c.stats.retired_instrs).sum();
    println!(
        "total: {} cells, {:.2}s wall, {:.0} instrs/sec",
        runs.len(),
        total_wall,
        total_instrs as f64 / total_wall.max(1e-9)
    );
    // The embedded section always measures the long-size suite — the
    // regime where fast-forward is the wall-clock floor — regardless of
    // the detailed grid's `--size`.
    let ffwd = ffwd_bench.then(|| ffwd_table(&spec.suite.workloads(Size::Long), FFWD_MODEL));
    let section = ffwd.as_ref().map(|c| ffwd_section_json(c, Size::Long, FFWD_MODEL, 4));
    write_doc(out, &to_json_with_sampled(&runs, spec.size, section.as_deref()));
    if let Some(cells) = &ffwd {
        check_gate(cells, gate);
    }
    if guard {
        let violations = guard_violations(&runs);
        if !violations.is_empty() {
            eprintln!("CI-model dominance guard FAILED:");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
        println!("guard: no CI model loses >1% IPC to base on any cell");
    }
    Ok(())
}

fn sampled(cells: &[Cell<'_>], size: Size, out: &str) {
    let sample = default_sample_for(size);
    let runs = run_grid(cells, 1, |c| run_sampled_cell(c, &sample));
    println!(
        "{:<10} {:<12} {:>10} {:>4} {:>7} {:>6} {:>8} {:>7}",
        "bench", "model", "instrs", "K", "frac%", "ipc", "ci95", "secs"
    );
    for c in &runs {
        let r = &c.run;
        println!(
            "{:<10} {:<12} {:>10} {:>4} {:>7.1} {:>6.2} {:>8.3} {:>7.2}",
            c.workload,
            c.config.name(),
            r.total_instrs,
            r.intervals.len(),
            100.0 * r.detailed_fraction(),
            r.ipc_estimate(),
            r.ipc_ci95(),
            r.wall_seconds,
        );
    }
    write_doc(out, &sampled_to_json(&runs, size, &sample));
}

/// Runs the fast-forward engine benchmark over `workloads`, printing one
/// row per workload and the geomean speedup.
fn ffwd_table(workloads: &[Workload], config: CellConfig) -> Vec<FfwdBenchCell> {
    let cells = run_ffwd_bench(workloads, config);
    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>8} {:>5}",
        "bench", "instrs", "interp-i/s", "superblk-i/s", "speedup", "tpck"
    );
    for c in &cells {
        println!(
            "{:<10} {:>10} {:>14.0} {:>14.0} {:>7.1}x {:>5}",
            c.workload,
            c.instrs,
            c.interp_ips,
            c.superblock_ips,
            c.speedup(),
            if c.tpck_equal { "ok" } else { "FAIL" }
        );
    }
    println!(
        "geomean speedup: {:.1}x (superblock over interpreter, {})",
        speedup_geomean(&cells),
        config.name()
    );
    cells
}

fn check_gate(cells: &[FfwdBenchCell], gate: Option<f64>) {
    let Some(min) = gate else { return };
    let geomean = speedup_geomean(cells);
    if geomean < min {
        eprintln!("ffwd gate FAILED: geomean speedup {geomean:.2}x < {min:.2}x");
        std::process::exit(1);
    }
    println!("ffwd gate: OK ({geomean:.1}x >= {min:.1}x)");
}
