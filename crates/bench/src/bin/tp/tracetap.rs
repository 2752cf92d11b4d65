//! `tp tracetap`: run any (workload, model) cell — or resume a TPCK
//! checkpoint, or replay a fuzzer reproducer — with the `tp-events` bus
//! attached, and write Chrome trace-event JSON (loads directly in
//! perfetto / `chrome://tracing`) plus an optional counter timeline.
//!
//! Common flags: `--out PATH` (Chrome trace JSON, default
//! `tracetap.trace.json`) and `--counters PATH` (compact counter-timeline
//! JSON, only written when requested).
//!
//! * `--workload` runs a fresh simulator on a named workload for up to
//!   `--budget` retired instructions (default 200 000).
//! * `--ckpt` boots a detailed interval from a TPCK checkpoint (the
//!   source program is found by fingerprint, the model defaults to the
//!   checkpoint's warmed selection) and captures `--interval` retired
//!   instructions (default 10 000).
//! * `--fuzz-seed` regenerates the fuzzer program for a seed, emits it
//!   through the chosen frontend, and runs it under the same
//!   oracle-verified configuration the fuzzer uses — so a divergence
//!   reported by `tp fuzz` replays here with full event capture,
//!   and the capture survives even if the run errors or panics.
//! * `--sample` (with `--workload`) captures a *sampled* run instead:
//!   every detailed interval lands on one coherent timeline — timestamps
//!   offset by the cycles of earlier legs plus the instructions skipped
//!   by the functional legs — and each interval is stamped with an
//!   instant marker carrying its index and retired-instruction offset.
//!   `--rounds N` bounds the number of intervals (default 16).
//!
//! The exit status is non-zero if the captured run ended in a simulator
//! error; the trace documents are written either way — capturing the
//! events leading up to a failure is the whole point of the tap.

use tp_bench::cli::{workload, Args, CellSpec, UsageError, MODEL, OUT, SAMPLE, SIZE, WORKLOAD};
use tp_bench::sampled::default_sample_for;
use tp_bench::speed::size_name;
use tp_bench::sweep::CellConfig;
use tp_bench::tap::{capture_interval, capture_program, capture_sampled, Capture};
use tp_core::{CiModel, TraceProcessor};
use tp_fuzz::harness::{Harness, Isa};
use tp_fuzz::{emit_rv_source, generate};
use tp_workloads::Size;

use crate::ckpt::{find_program, read_checkpoint, warm_model};
use crate::fuzz::{fuzz_config, small_machine};
use crate::write_doc;

/// The model a capture runs under when `--model` is absent.
const DEFAULT_MODEL: CellConfig = CellConfig::Model(CiModel::MlbRet);

pub fn main(mut args: Args) -> Result<(), UsageError> {
    let spec = CellSpec::take(&mut args, &[WORKLOAD, SIZE, MODEL, SAMPLE, OUT], Size::Tiny)?;
    let ckpt: Option<String> = args.value("--ckpt")?;
    let fuzz_seed: Option<u64> = args.parsed("--fuzz-seed")?;
    let interval = args.parsed("--interval")?.unwrap_or(10_000);
    let budget = args.parsed("--budget")?.unwrap_or(200_000);
    let rounds = args.parsed("--rounds")?.unwrap_or(16);
    let counters = args.value("--counters")?;
    let isa = match args.value("--isa")?.as_deref() {
        None | Some("synth") => Isa::Synth,
        Some("rv") => Isa::Rv,
        Some(other) => return Err(UsageError(format!("unknown --isa {other:?} (synth|rv)"))),
    };
    let fuzz = fuzz_config(&mut args)?;
    let small = small_machine(&mut args)?;
    args.finish(0)?;
    let modes = usize::from(spec.workload.is_some())
        + usize::from(ckpt.is_some())
        + usize::from(fuzz_seed.is_some());
    if modes != 1 {
        return Err(UsageError("pick exactly one of --workload, --ckpt, --fuzz-seed".into()));
    }
    if spec.sample && spec.workload.is_none() {
        return Err(UsageError("--sample requires --workload".into()));
    }
    let out = spec.out.as_deref().unwrap_or("tracetap.trace.json");
    let (label, cap) = if let Some(name) = &spec.workload {
        let w = workload(name, spec.size)?;
        let config = spec.config(DEFAULT_MODEL)?;
        let cfg = config.config(16);
        if spec.sample {
            let sample = default_sample_for(spec.size);
            let cap = capture_sampled(&w.program, w.frontend, &cfg, &sample, rounds);
            write_doc(out, &cap.chrome_json);
            println!(
                "{name}/{} under {}: {} sampled intervals, {} instrs covered{}",
                size_name(spec.size),
                config.name(),
                cap.intervals,
                cap.total_instrs,
                if cap.halted { ", halted" } else { " (round budget reached)" }
            );
            return Ok(());
        }
        let label =
            format!("{name}/{} ({}) under {}", size_name(spec.size), w.frontend, config.name());
        (label, capture_program(&w.program, cfg, budget))
    } else if let Some(path) = &ckpt {
        run_checkpoint(path, &spec, interval)?
    } else {
        let seed = fuzz_seed.expect("mode checked above");
        let CellConfig::Model(model) = spec.config(DEFAULT_MODEL)? else {
            return Err(UsageError("--fuzz-seed replays one of the five CI models".into()));
        };
        let ast = generate(&fuzz, seed);
        let name = format!("fuzz-{seed}");
        let program = match isa {
            Isa::Synth => tp_fuzz::emit::emit_synth(&ast, &name),
            Isa::Rv => tp_fuzz::emit::emit_rv(&ast, &name).unwrap_or_else(|e| {
                eprintln!("seed {seed}: rv emission failed: {e}");
                eprintln!("--- rv64 rendering ---\n{}", emit_rv_source(&ast));
                std::process::exit(1);
            }),
        };
        let harness = Harness { small_machine: small, ..Harness::default() };
        let label = format!(
            "fuzz seed {seed} ({isa} frontend, {} machine) under {} (oracle on)",
            if small { "small" } else { "paper" },
            model.name()
        );
        (label, capture_program(&program, harness.config(model), budget))
    };
    write_doc(out, &cap.chrome_json);
    if let Some(path) = &counters {
        write_doc(path, &cap.counters_json);
    }
    println!(
        "{label}: {} retired, {} cycles{}{}",
        cap.retired,
        cap.cycles,
        if cap.halted { ", halted" } else { "" },
        match &cap.error {
            Some(e) => format!(" — run ended in error: {e}"),
            None => String::new(),
        }
    );
    if cap.error.is_some() {
        std::process::exit(1);
    }
    Ok(())
}

/// Boots a detailed interval from a TPCK checkpoint and captures
/// `interval` retired instructions. The model defaults to the
/// checkpoint's warmed trace selection, the same derivation `tp ckpt
/// verify` uses.
fn run_checkpoint(
    path: &str,
    spec: &CellSpec,
    interval: u64,
) -> Result<(String, Capture), UsageError> {
    let ckpt = read_checkpoint(path);
    let (program, size, _) = find_program(&ckpt).unwrap_or_else(|msg| {
        eprintln!("{path}: {msg}");
        std::process::exit(1);
    });
    let config = spec.config(CellConfig::Model(warm_model(&ckpt)))?;
    let cfg = config.config(16);
    let boot = ckpt.boot_image(&program, &cfg).unwrap_or_else(|e| {
        eprintln!("{path}: boot failed: {e}");
        std::process::exit(1);
    });
    let mut sim = TraceProcessor::from_checkpoint(&program, cfg, boot).unwrap_or_else(|e| {
        eprintln!("{path}: boot rejected: {e}");
        std::process::exit(1);
    });
    let label = format!(
        "{}/{} resumed at {} retired under {}",
        ckpt.program_name,
        size_name(size),
        ckpt.retired,
        config.name()
    );
    Ok((label, capture_interval(&mut sim, interval)))
}
