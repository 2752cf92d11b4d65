//! Figure 9: performance impact of trace selection.
//!
//! Reproduces the paper's Figure 9: % IPC improvement (usually a
//! degradation) of `base(ntb)`, `base(fg)` and `base(fg,ntb)` over `base`,
//! per benchmark — the cost of the selection constraints that expose
//! control independence, before any CI mechanism is enabled.

use tp_bench::sweep::{all_cores, run_cell, run_grid, Cell, CellConfig};
use tp_stats::{improvement_pct, Table};
use tp_workloads::{suite, Size};

fn main() {
    println!("Figure 9: % IPC impact of trace selection over base (no CI)\n");
    let mut table = Table::new("% IPC over base", &["base(ntb)", "base(fg)", "base(fg,ntb)"]);
    table.precision(1);
    let selections = &CellConfig::sweep()[..4];
    let workloads = suite(Size::Full);
    let runs = run_grid(&Cell::grid(&workloads, selections, &[16]), all_cores(), run_cell);
    for (w, cells) in workloads.iter().zip(runs.chunks(selections.len())) {
        let base = cells[0].stats.ipc();
        let row: Vec<f64> =
            cells[1..].iter().map(|c| improvement_pct(c.stats.ipc(), base)).collect();
        table.row(w.name, &row);
    }
    println!("{table}");
    println!("(paper's Figure 9 shows selection constraints costing 0-10% IPC, -2% avg)");
}
