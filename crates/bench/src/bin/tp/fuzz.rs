//! `tp fuzz`: the differential fuzzer driver. Generated structured
//! programs run through all five control-independence models on both
//! frontends, against the functional oracle.
//!
//! * `--seed S`   first seed (default 0)
//! * `--count N`  number of seeds; `0` fuzzes forever (default 500)
//! * `--budget B` functional-oracle instruction budget per program
//! * `--config`   generator configuration (default `default`)
//! * `--machine`  simulated machine: `paper` (16 PEs) or `small` (4 PEs,
//!   short traces — keeps the window saturated; default `paper`)
//! * `--jobs J`   worker threads (default: available cores)
//! * `--cfg-oracle` also check every CGCI re-convergence detection against
//!   the static post-dominator analysis (`tp-cfg`); an unjustifiable
//!   detection is reported as a divergence
//! * `--shrink`   on divergence, shrink to a minimal reproducer and print
//!   its AST and RV64 source
//! * `--inject-bug` re-introduce the fixed CGCI retired-upstream stall
//!   bug, making divergences certain — a self-test of the whole
//!   divergence pipeline (reporting, event capture, shrinking)
//! * `--quiet`    suppress per-chunk progress
//!
//! Exit status is non-zero iff any seed diverged. Every divergent seed is
//! printed (`DIVERGE seed=... [isa model] detail`), so a failing run can
//! be replayed exactly with `--seed <seed> --count 1 --shrink`. Each
//! divergent seed whose failure reached simulation is additionally
//! re-run with the `tp-events` bus attached and the Chrome trace capture
//! is written to `divergence-<seed>.trace.json` in the working directory,
//! so the cycles leading up to the divergence can be inspected in
//! perfetto (`tp tracetap --fuzz-seed` reproduces the same capture on
//! demand).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tp_bench::cli::{Args, UsageError};
use tp_bench::sweep::all_cores;
use tp_bench::tap::capture_program;
use tp_fuzz::emit::{emit_rv, emit_synth};
use tp_fuzz::gen::generate;
use tp_fuzz::harness::{Divergence, Harness, Isa, Outcome};
use tp_fuzz::shrink::shrink;
use tp_fuzz::{emit_rv_source, FuzzConfig};

pub fn main(mut args: Args) -> Result<(), UsageError> {
    let first_seed = args.parsed("--seed")?.unwrap_or(0u64);
    let count = args.parsed("--count")?.unwrap_or(500u64);
    let jobs = args.parsed("--jobs")?.unwrap_or_else(all_cores);
    let config = fuzz_config(&mut args)?;
    let harness = Harness {
        oracle_budget: args.parsed("--budget")?.unwrap_or(2_000_000),
        small_machine: small_machine(&mut args)?,
        cfg_oracle: args.flag("--cfg-oracle"),
        inject_cgci_stall_bug: args.flag("--inject-bug"),
        ..Harness::default()
    };
    let do_shrink = args.flag("--shrink");
    let quiet = args.flag("--quiet");
    args.finish(0)?;
    let next = AtomicU64::new(first_seed);
    let end = if count == 0 { u64::MAX } else { first_seed.saturating_add(count) };
    let checked = AtomicU64::new(0);
    let skipped = AtomicU64::new(0);
    let failures: Mutex<Vec<(u64, Divergence)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..jobs.max(1) {
            scope.spawn(|| loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= end {
                    break;
                }
                match harness.check_seed(&config, seed) {
                    Outcome::Pass { .. } => {}
                    Outcome::TooLong => {
                        skipped.fetch_add(1, Ordering::Relaxed);
                    }
                    Outcome::Diverged(d) => {
                        println!("DIVERGE seed={seed} {d}");
                        failures.lock().unwrap().push((seed, d));
                    }
                }
                let n = checked.fetch_add(1, Ordering::Relaxed) + 1;
                if !quiet && n.is_multiple_of(500) {
                    eprintln!(
                        "fuzz: {n} programs checked (through seed ~{seed}), {} skipped, {} divergent",
                        skipped.load(Ordering::Relaxed),
                        failures.lock().unwrap().len()
                    );
                }
            });
        }
    });

    let n = checked.load(Ordering::Relaxed);
    let failures = failures.into_inner().unwrap();
    eprintln!(
        "fuzz: done — {n} programs, {} skipped (over budget), {} divergent",
        skipped.load(Ordering::Relaxed),
        failures.len()
    );
    if failures.is_empty() {
        return Ok(());
    }
    for (seed, d) in &failures {
        capture_divergence(&harness, &config, *seed, d);
    }
    if do_shrink {
        for (seed, _) in &failures {
            shrink_and_print(&harness, &config, *seed);
        }
    }
    std::process::exit(1);
}

/// `--config default|small`: the generator configuration (shared with
/// `tp tracetap --fuzz-seed`).
pub(crate) fn fuzz_config(args: &mut Args) -> Result<FuzzConfig, UsageError> {
    match args.value("--config")?.as_deref() {
        None | Some("default") => Ok(FuzzConfig::default()),
        Some("small") => Ok(FuzzConfig::small()),
        Some(other) => Err(UsageError(format!("unknown --config {other:?} (default|small)"))),
    }
}

/// `--machine paper|small`: whether to fuzz the small 4-PE machine
/// (shared with `tp tracetap --fuzz-seed`).
pub(crate) fn small_machine(args: &mut Args) -> Result<bool, UsageError> {
    match args.value("--machine")?.as_deref() {
        None | Some("paper") => Ok(false),
        Some("small") => Ok(true),
        Some(other) => Err(UsageError(format!("unknown --machine {other:?} (paper|small)"))),
    }
}

/// Replays a divergent seed with the `tp-events` bus attached and writes
/// the Chrome trace capture next to the reproducer output, preserving the
/// cycles leading up to the divergence. The capture survives a simulator
/// error or panic mid-replay — that failure point is exactly what the
/// trace is for.
fn capture_divergence(harness: &Harness, config: &FuzzConfig, seed: u64, d: &Divergence) {
    let Some(model) = d.model else {
        eprintln!("seed {seed}: divergence precedes simulation; no event capture");
        return;
    };
    let ast = generate(config, seed);
    let name = format!("fuzz-{seed}");
    let program = match d.isa {
        Isa::Synth => emit_synth(&ast, &name),
        Isa::Rv => match emit_rv(&ast, &name) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("seed {seed}: rv emission failed during event capture: {e}");
                return;
            }
        },
    };
    let budget = harness.oracle_budget.saturating_add(harness.sim_slack);
    let cap = capture_program(&program, harness.config(model), budget);
    let path = format!("divergence-{seed}.trace.json");
    match std::fs::write(&path, &cap.chrome_json) {
        Ok(()) => println!(
            "seed {seed}: event capture at {path} ({} retired, {} cycles{})",
            cap.retired,
            cap.cycles,
            match &cap.error {
                Some(e) => format!(", run ended: {e}"),
                None => String::new(),
            }
        ),
        Err(e) => eprintln!("seed {seed}: writing {path}: {e}"),
    }
}

/// Shrinks a divergent seed, preserving its first divergence's (isa,
/// model), and prints the minimal AST plus its RV64 rendering.
fn shrink_and_print(harness: &Harness, config: &FuzzConfig, seed: u64) {
    let ast = generate(config, seed);
    let Outcome::Diverged(orig) = harness.check_ast(&ast, "shrink") else {
        eprintln!("seed {seed}: divergence did not reproduce for shrinking");
        return;
    };
    let pred = |a: &tp_fuzz::FuzzAst| match harness.check_ast(a, "shrink") {
        Outcome::Diverged(d) => d.isa == orig.isa && d.model == orig.model,
        _ => false,
    };
    let before = ast.size();
    let (small, stats) = shrink(&ast, pred, 4_000);
    println!(
        "--- seed {seed}: shrunk {before} -> {} statements ({} evals) ---",
        small.size(),
        stats.evals
    );
    println!("{small:#?}");
    println!("--- rv64 rendering ---\n{}", emit_rv_source(&small));
}
