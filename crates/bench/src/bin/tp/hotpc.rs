//! `tp hotpc`: the hottest mispredicting branch PCs of the branchiest
//! workloads, from functional BTB profiling.

use tp_bench::cli::{workload, Args, UsageError};
use tp_bench::speed::CELL_BUDGET;
use tp_workloads::Size;

pub fn main(args: Args) -> Result<(), UsageError> {
    args.finish(0)?;
    for name in ["go", "jpeg", "compress", "perl"] {
        let w = workload(name, Size::Full)?;
        let p = tp_bench::profile_branches(&w.program, CELL_BUDGET);
        println!("== {name}: overall {:.1}%  (BTB profiling)", p.overall_misp_rate());
        for (pc, execs, misps) in p.hottest().into_iter().take(5) {
            println!(
                "   pc {:5}  {:?}  execs {:8} misps {:8} ({:.1}%)",
                pc,
                w.program.fetch(pc).expect("profiled pc is in the program"),
                execs,
                misps,
                100.0 * misps as f64 / execs as f64
            );
        }
    }
    Ok(())
}
