//! Table 4: impact of trace selection on trace length, trace mispredictions
//! and trace cache misses.
//!
//! Runs every benchmark under the four selection baselines (no control
//! independence) and prints, per model: average trace length, trace
//! mispredictions per 1000 instructions (and rate), and trace cache misses
//! per 1000 instructions (and rate) — the quantities of the paper's
//! Table 4.

use tp_bench::paper;
use tp_bench::sweep::{all_cores, run_cell, run_grid, Cell, CellConfig};
use tp_stats::Table;
use tp_workloads::{suite, Size};

fn main() {
    let selections = &CellConfig::sweep()[..4];
    let workloads = suite(Size::Full);
    let runs = run_grid(&Cell::grid(&workloads, selections, &[16]), all_cores(), run_cell);
    println!("Table 4: impact of trace selection (no control independence)\n");
    for (i, sel) in selections.iter().enumerate() {
        println!("--- {} ---", sel.name());
        let mut table = Table::new(
            "bench",
            &["trace len", "tr misp/1k", "tr misp %", "tc$ miss/1k", "tc$ miss %"],
        );
        table.precision(1);
        for c in runs.iter().skip(i).step_by(selections.len()) {
            let s = &c.stats;
            table.row(
                c.workload,
                &[
                    s.avg_trace_len(),
                    s.trace_misp_per_kilo(),
                    s.trace_misp_rate(),
                    s.tcache_miss_per_kilo(),
                    s.tcache_miss_rate(),
                ],
            );
        }
        println!("{table}");
    }
    println!("paper reference (base): avg trace length / trace misp rate");
    let mut table = Table::new("bench", &["paper len", "paper misp %"]);
    table.precision(1);
    for b in paper::BENCHMARKS {
        table.row(
            b,
            &[
                paper::lookup1(&paper::TABLE4_BASE_TRACE_LEN, b).expect("known"),
                paper::lookup1(&paper::TABLE4_BASE_TRACE_MISP, b).expect("known"),
            ],
        );
    }
    println!("{table}");
}
