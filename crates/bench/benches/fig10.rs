//! Figure 10: performance of control independence.
//!
//! Reproduces the paper's Figure 10: % IPC improvement over `base` for the
//! four control-independence models `RET`, `MLB-RET`, `FG` and
//! `FG+MLB-RET`, per benchmark. Also prints the paper's summary statistics:
//! the average improvement of `FG+MLB-RET` and the best-per-benchmark
//! average (the paper's headline "2% to 25%, and 13% on average").

use tp_bench::paper;
use tp_bench::sweep::{all_cores, run_cell, run_grid, Cell, CellConfig};
use tp_stats::{improvement_pct, mean, Table};
use tp_workloads::{suite, Size};

fn main() {
    let models = CellConfig::MODELS;
    let mut table =
        Table::new("% IPC over base", &["RET", "MLB-RET", "FG", "FG+MLB-RET", "paper(FG+MLB)"]);
    table.precision(1);
    let mut best = Vec::new();
    let mut fg_mlb = Vec::new();
    println!("Figure 10: % IPC improvement over base (paper: Rotenberg & Smith 1999)\n");
    let workloads = suite(Size::Full);
    let runs = run_grid(&Cell::grid(&workloads, &models, &[16]), all_cores(), run_cell);
    for (w, cells) in workloads.iter().zip(runs.chunks(models.len())) {
        let base = cells[0].stats.ipc();
        let mut row: Vec<f64> =
            cells[1..].iter().map(|c| improvement_pct(c.stats.ipc(), base)).collect();
        let paper_row = paper::lookup(&paper::FIG10_IMPROVEMENT, w.name).expect("known benchmark");
        best.push(row.iter().copied().fold(f64::MIN, f64::max));
        fg_mlb.push(row[3]);
        row.push(paper_row[3]);
        table.row(w.name, &row);
    }
    println!("{table}");
    println!(
        "average improvement, FG+MLB-RET : {:+.1}% (paper: ~10%)",
        mean(fg_mlb.iter().copied())
    );
    println!(
        "average improvement, best model : {:+.1}% (paper: 13%, range 2%..25%)",
        mean(best.iter().copied())
    );
}
