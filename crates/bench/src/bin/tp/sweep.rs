//! `tp sweep`: the parallel configuration sweep. Runs every workload
//! under the four trace-selection baselines (Table 3) and the four
//! control-independence models (Figures 9/10), one cell per core, and
//! prints a workload × config IPC matrix. The paper's numbers use
//! `--size full`.

use std::time::Instant;

use tp_bench::cli::{Args, CellSpec, UsageError, SIZE, SUITE};
use tp_bench::sweep::{all_cores, run_cell, run_grid, Cell, CellConfig};
use tp_stats::Table;
use tp_workloads::Size;

pub fn main(mut args: Args) -> Result<(), UsageError> {
    let spec = CellSpec::take(&mut args, &[SIZE, SUITE], Size::Small)?;
    args.finish(0)?;
    let configs = spec.configs(&CellConfig::sweep())?;
    let workloads = spec.suite.workloads(spec.size);
    let cells = Cell::grid(&workloads, &configs, &spec.pes());
    let cores = all_cores();
    eprintln!("sweeping {} cells on {cores} cores...", cells.len());
    let t = Instant::now();
    let runs = run_grid(&cells, cores, run_cell);
    let elapsed = t.elapsed();

    let labels: Vec<&str> = configs.iter().map(|c| c.name()).collect();
    let mut table = Table::new("IPC", &labels);
    for row in runs.chunks(configs.len()) {
        let ipcs: Vec<f64> = row.iter().map(|r| r.stats.ipc()).collect();
        table.row(row[0].workload, &ipcs);
    }
    println!("{table}");
    eprintln!("swept {} cells in {:.1}s", cells.len(), elapsed.as_secs_f64());
    Ok(())
}
