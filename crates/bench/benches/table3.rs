//! Table 3: IPC without control independence.
//!
//! Runs every benchmark under the four trace-selection baselines —
//! `base`, `base(ntb)`, `base(fg)`, `base(fg,ntb)` — with control
//! independence disabled, and prints measured IPC next to the paper's
//! Table 3 values, including the harmonic-mean row.

use tp_bench::paper;
use tp_bench::sweep::{all_cores, run_cell, run_grid, Cell, CellConfig};
use tp_stats::{harmonic_mean, Table};
use tp_workloads::{suite, Size};

fn main() {
    let selections = &CellConfig::sweep()[..4];
    println!("Table 3: IPC without control independence\n");
    let mut table =
        Table::new("IPC", &["base", "b(ntb)", "b(fg)", "b(fg,ntb)", "paper:base", "paper:fg,ntb"]);
    let mut per_sel: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let workloads = suite(Size::Full);
    let runs = run_grid(&Cell::grid(&workloads, selections, &[16]), all_cores(), run_cell);
    for (w, cells) in workloads.iter().zip(runs.chunks(selections.len())) {
        let mut row = Vec::new();
        for (i, c) in cells.iter().enumerate() {
            let ipc = c.stats.ipc();
            per_sel[i].push(ipc);
            row.push(ipc);
        }
        let p = paper::lookup(&paper::TABLE3_IPC, w.name).expect("known benchmark");
        row.push(p[0]);
        row.push(p[3]);
        table.row(w.name, &row);
    }
    let mut hm: Vec<f64> = per_sel.iter().map(|v| harmonic_mean(v.iter().copied())).collect();
    hm.push(paper::TABLE3_HMEAN[0]);
    hm.push(paper::TABLE3_HMEAN[3]);
    table.row("harmonic mean", &hm);
    println!("{table}");
    println!("(paper columns: Table 3 of Rotenberg & Smith 1999)");
}
