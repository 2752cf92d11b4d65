//! `tp`: the trace-processor experiment harness, one subcommand per job.
//!
//! Every subcommand reads its grid-picking flags through the shared
//! [`CellSpec`](tp_bench::cli::CellSpec) and runs its grid through
//! [`run_grid`](tp_bench::sweep::run_grid). A rejected command line exits
//! with status 2 before anything runs; a failed gate or check exits with
//! status 1.

mod baseline;
mod cfgstats;
mod cistats;
mod ckpt;
mod fuzz;
mod hotpc;
mod simprof;
mod sweep;
mod tracetap;

use tp_bench::cli::{Args, UsageError};
use tp_bench::json::Json;

const USAGE: &str = "\
usage: tp <subcommand> [flags]

  baseline  [--size S] [--suite U] [--model M] [--pes N,..] [--guard]
            [--ffwd-bench [--gate MIN]] [--out PATH]
  baseline  --sample [--size S] [--suite U] [--model M] [--ffwd-bench [--gate MIN]]
            [--out PATH]
  sweep     [--size S] [--suite U]
  simprof   [--workload W] [--size S] [--suite U] [--model M] [--sample]
            [--out PATH] [--md PATH]
  simprof   --diff OLD NEW [--gate] [--ipc-tol PCT] [--md PATH]
  simprof   --events-guard PCT
  cistats   [--workload W] [--model M [--json]]
  cfgstats  [--workload W] [--json]
  ckpt      create --workload W [--size S] [--model M] [--ffwd N] --out PATH
  ckpt      inspect PATH | verify PATH [--resume N] | smoke [--out PATH]
  fuzz      [--seed S] [--count N] [--budget B] [--config default|small]
            [--machine paper|small] [--jobs J] [--cfg-oracle] [--inject-bug]
            [--shrink] [--quiet]
  tracetap  --workload W [--size S] [--model M] [--budget N] [--sample [--rounds N]]
  tracetap  --ckpt PATH [--interval N] [--model M]
  tracetap  --fuzz-seed S [--isa synth|rv] [--machine paper|small]
            [--config default|small] [--model M] [--budget N]
            (every tracetap mode: [--out PATH])
  hotpc

  S: tiny|small|full|long    U: synth|rv|all
  M: base|RET|MLB-RET|FG|FG+MLB-RET|base(ntb)|base(fg)|base(fg,ntb)";

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let args = Args::new(argv);
    let result = match cmd.as_str() {
        "baseline" => baseline::main(args),
        "sweep" => sweep::main(args),
        "simprof" => simprof::main(args),
        "cistats" => cistats::main(args),
        "cfgstats" => cfgstats::main(args),
        "ckpt" => ckpt::main(args),
        "fuzz" => fuzz::main(args),
        "tracetap" => tracetap::main(args),
        "hotpc" => hotpc::main(args),
        _ => Err(UsageError(format!("unknown subcommand {cmd:?}"))),
    };
    if let Err(e) = result {
        eprintln!("{}: {e}\n{USAGE}", format!("tp {cmd}").trim_end());
        std::process::exit(2);
    }
}

/// Writes a JSON document, newline-terminated.
fn write_json(path: &str, doc: &Json) {
    write_doc(path, &format!("{doc}\n"));
}

/// Writes an output document, naming the path on failure.
fn write_doc(path: &str, body: &str) {
    std::fs::write(path, body).unwrap_or_else(|e| {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {path}");
}
