//! The experiment grid and its one runner.
//!
//! Every experiment is a grid of independent cells — one workload, one
//! configuration, one PE count — each a single-threaded simulation. The
//! paper's tables and figures, the speed baseline, the metrics report and
//! the sampled grid all run through [`run_grid`], which fans the cells out
//! over a shared work queue. The caller fixes the worker count: harnesses
//! that report host throughput time their cells on one thread, while
//! sweeps use every core.
//!
//! The build environment is offline, so this uses `std::thread::scope`
//! rather than `rayon`. Results are written back by cell index, making
//! the output order — and therefore every downstream table — identical to
//! a sequential run (`parallel_sweep_matches_sequential` asserts exactly
//! that).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tp_core::{CiModel, SimStats, TraceProcessor, TraceProcessorConfig};
use tp_predict::TracePredictorStats;
use tp_stats::RecoveryAttribution;
use tp_trace::SelectionConfig;
use tp_workloads::Workload;

use crate::speed::CELL_BUDGET;

/// The configuration of one cell: a paper control-independence model, or
/// a selection-only baseline of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellConfig {
    /// One of the five models of §6.2 (`base` is [`CiModel::None`]).
    Model(CiModel),
    /// No control independence under the given trace selection
    /// (`base(ntb)`, `base(fg)`, `base(fg,ntb)`).
    Baseline(SelectionConfig),
}

/// The selection-only baselines of Table 3 beyond `base` itself, in the
/// paper's column order. Their labels come from [`SelectionConfig::name`].
const BASELINES: [fn() -> SelectionConfig; 3] =
    [SelectionConfig::with_ntb, SelectionConfig::with_fg, SelectionConfig::with_fg_ntb];

impl CellConfig {
    /// The five-model matrix of §6.2, `base` first.
    pub const MODELS: [CellConfig; 5] = [
        CellConfig::Model(CiModel::None),
        CellConfig::Model(CiModel::Ret),
        CellConfig::Model(CiModel::MlbRet),
        CellConfig::Model(CiModel::Fg),
        CellConfig::Model(CiModel::FgMlbRet),
    ];

    /// The eight-configuration sweep: the four selection baselines of
    /// Table 3, then the four control-independence models of Figure 10.
    pub fn sweep() -> Vec<CellConfig> {
        let mut configs = vec![CellConfig::Model(CiModel::None)];
        configs.extend(BASELINES.iter().map(|sel| CellConfig::Baseline(sel())));
        configs.extend_from_slice(&CellConfig::MODELS[1..]);
        configs
    }

    /// The paper's label: a model name or a `base(..)` baseline label.
    pub fn name(self) -> &'static str {
        match self {
            CellConfig::Model(m) => m.name(),
            CellConfig::Baseline(sel) => sel.name(),
        }
    }

    /// Parses a label (the inverse of [`CellConfig::name`]).
    pub fn parse(s: &str) -> Option<CellConfig> {
        CiModel::parse(s).map(CellConfig::Model).or_else(|| {
            BASELINES.iter().map(|sel| sel()).find(|sel| sel.name() == s).map(CellConfig::Baseline)
        })
    }

    /// The simulator configuration on a machine of `pes` processing
    /// elements.
    pub fn config(self, pes: usize) -> TraceProcessorConfig {
        let mut cfg = match self {
            CellConfig::Model(m) => TraceProcessorConfig::paper(m),
            CellConfig::Baseline(sel) => TraceProcessorConfig::baseline(sel),
        };
        cfg.num_pes = pes;
        cfg
    }
}

/// One grid cell: a workload under one configuration at one PE count.
#[derive(Clone, Copy, Debug)]
pub struct Cell<'w> {
    /// The workload to simulate.
    pub workload: &'w Workload,
    /// The configuration.
    pub config: CellConfig,
    /// Number of processing elements.
    pub pes: usize,
}

impl<'w> Cell<'w> {
    /// Every `(workload, PE count, configuration)` combination, in that
    /// nesting order (the row order of `BENCH_speed.json`).
    pub fn grid(workloads: &'w [Workload], configs: &[CellConfig], pes: &[usize]) -> Vec<Cell<'w>> {
        workloads
            .iter()
            .flat_map(|workload| {
                pes.iter().flat_map(move |&pes| {
                    configs.iter().map(move |&config| Cell { workload, config, pes })
                })
            })
            .collect()
    }

    /// The simulator configuration of this cell.
    pub fn tp_config(&self) -> TraceProcessorConfig {
        self.config.config(self.pes)
    }

    /// `workload config Npe`, for panic messages.
    fn label(&self) -> String {
        format!("{} {} {}pe", self.workload.name, self.config.name(), self.pes)
    }
}

/// Every core the host offers (one when unknown).
pub fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Runs `measure` on every cell with up to `threads` workers, returning
/// the results in cell order.
///
/// Workers pull cells from a shared counter, so long-running cells (e.g.
/// `gcc` under `Size::Full`) do not serialize behind short ones. With one
/// worker (or one cell) every cell runs on the calling thread.
///
/// # Panics
///
/// Propagates a panic from `measure` (a deadlocked or non-halting run).
pub fn run_grid<T: Send>(
    cells: &[Cell<'_>],
    threads: usize,
    measure: impl Fn(&Cell<'_>) -> T + Sync,
) -> Vec<T> {
    let threads = threads.min(cells.len()).max(1);
    if threads == 1 {
        return cells.iter().map(measure).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let out = measure(cell);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned").expect("every cell ran"))
        .collect()
}

/// One detailed cell's outcome: the simulated result plus the host time
/// it took.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Workload name (paper Table 2).
    pub workload: &'static str,
    /// The cell's configuration.
    pub config: CellConfig,
    /// Number of processing elements.
    pub pes: usize,
    /// Final simulation statistics.
    pub stats: SimStats,
    /// The misprediction outcome-attribution ledger.
    pub attribution: RecoveryAttribution,
    /// Next-trace predictor statistics.
    pub predictor: TracePredictorStats,
    /// Host wall-clock seconds for the run.
    pub wall_seconds: f64,
}

impl CellRun {
    /// Simulator throughput: retired instructions per host second.
    pub fn instrs_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.stats.retired_instrs as f64 / self.wall_seconds
        }
    }
}

/// Runs one cell in full detail to halt, timing the simulation (not its
/// construction).
///
/// # Panics
///
/// Panics if the run deadlocks or fails to halt — a result must never be
/// recorded from a broken run.
pub fn run_cell(cell: &Cell<'_>) -> CellRun {
    let mut sim = TraceProcessor::new(&cell.workload.program, cell.tp_config());
    let t = Instant::now();
    let r = sim.run(CELL_BUDGET).unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
    let wall_seconds = t.elapsed().as_secs_f64();
    assert!(r.halted, "{} did not halt", cell.label());
    CellRun {
        workload: cell.workload.name,
        config: cell.config,
        pes: cell.pes,
        stats: r.stats,
        attribution: r.attribution,
        predictor: r.predictor,
        wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_workloads::{by_name, Size};

    #[test]
    fn baseline_and_model_runs_complete() {
        let w = [by_name("m88ksim", Size::Tiny).unwrap()];
        let configs =
            [CellConfig::Baseline(SelectionConfig::base()), CellConfig::Model(CiModel::FgMlbRet)];
        let runs = run_grid(&Cell::grid(&w, &configs, &[16]), 1, run_cell);
        assert_eq!(runs[0].stats.retired_instrs, runs[1].stats.retired_instrs);
    }

    /// Acceptance: a 3-config parallel sweep produces exactly the same
    /// per-config stats as sequential runs.
    #[test]
    fn parallel_sweep_matches_sequential() {
        let w = [by_name("compress", Size::Tiny).unwrap()];
        let configs = [
            CellConfig::Baseline(SelectionConfig::base()),
            CellConfig::Model(CiModel::Fg),
            CellConfig::Model(CiModel::FgMlbRet),
        ];
        let cells = Cell::grid(&w, &configs, &[16]);
        let seq = run_grid(&cells, 1, run_cell);
        // Force the threaded path even on single-core machines.
        let par = run_grid(&cells, 3, run_cell);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.workload, p.workload);
            assert_eq!(s.config, p.config);
            assert_eq!(s.stats, p.stats, "stats diverged for {}", s.config.name());
        }
        // Sanity: the three configs genuinely differ.
        assert_ne!(seq[0].stats.cycles, seq[2].stats.cycles);
    }

    #[test]
    fn config_labels_round_trip() {
        let sweep = CellConfig::sweep();
        let labels: Vec<&str> = sweep.iter().map(|c| c.name()).collect();
        assert_eq!(
            labels,
            ["base", "base(ntb)", "base(fg)", "base(fg,ntb)", "RET", "MLB-RET", "FG", "FG+MLB-RET"]
        );
        for c in sweep {
            assert_eq!(CellConfig::parse(c.name()), Some(c));
            c.config(16).validate().unwrap();
        }
        assert_eq!(CellConfig::parse("b(fg)"), None);
    }
}
