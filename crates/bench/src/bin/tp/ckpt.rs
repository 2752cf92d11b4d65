//! `tp ckpt`: create, inspect, and verify checkpoint files, plus the CI
//! smoke that validates the whole sampled pipeline.
//!
//! `verify` identifies the source program by fingerprint (searching the
//! workload suite across sizes), then proves the checkpoint resumes
//! bit-exactly: the resumed functional machine is compared against a
//! straight run, the interpreter and superblock fast-forward engines are
//! re-run to the checkpoint's position and must produce byte-identical
//! TPCK captures, and a detailed interval booted from the checkpoint runs
//! under full oracle verification.
//!
//! `smoke` is what CI runs (`just sample-smoke`): create + inspect +
//! verify a checkpoint (written to `--out` and uploaded as an artifact),
//! prove the interpreter and superblock fast-forward engines agree byte
//! for byte on every workload of both suites (and the superblock engine
//! is no slower), cross-check sampled vs. full IPC on the tiny suite for
//! base and MLB-RET (must agree within 5%), and demonstrate the >= 3x
//! wall-clock speedup of sampled execution on the long gcc/go/compress
//! variants.

use tp_bench::cli::{workload, Args, CellSpec, UsageError, MODEL, OUT, SIZE, WORKLOAD};
use tp_bench::ffwd::{run_ffwd_bench, speedup_geomean};
use tp_bench::sampled::{cross_check, run_sampled, SampleConfig};
use tp_bench::speed::size_name;
use tp_bench::sweep::CellConfig;
use tp_ckpt::{Checkpoint, FastForward};
use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use tp_isa::func::Machine;
use tp_isa::Frontend;
use tp_isa::Program;
use tp_workloads::{all_workloads, Size, Workload};

pub fn main(mut args: Args) -> Result<(), UsageError> {
    match args.verb().as_deref() {
        Some("create") => {
            let spec = CellSpec::take(&mut args, &[WORKLOAD, SIZE, MODEL, OUT], Size::Full)?;
            let ffwd = args.parsed("--ffwd")?.unwrap_or(20_000);
            args.finish(0)?;
            let (Some(name), Some(out)) = (&spec.workload, &spec.out) else {
                return Err(UsageError("create requires --workload and --out".into()));
            };
            let config = spec.config(CellConfig::Model(CiModel::None))?;
            create(&workload(name, spec.size)?, spec.size, config, ffwd, out);
        }
        Some("inspect") => inspect(&path(args)?),
        Some("verify") => {
            let resume = args.parsed("--resume")?.unwrap_or(10_000);
            verify(&path(args)?, resume);
        }
        Some("smoke") => {
            let spec = CellSpec::take(&mut args, &[OUT], Size::Full)?;
            args.finish(0)?;
            smoke(spec.out.as_deref().unwrap_or("ckpt_smoke.tpckpt"));
        }
        _ => return Err(UsageError("expected create|inspect|verify|smoke".into())),
    }
    Ok(())
}

/// The one positional argument: a checkpoint path.
fn path(args: Args) -> Result<String, UsageError> {
    args.finish(1)?.pop().ok_or_else(|| UsageError("missing checkpoint PATH".into()))
}

fn create(w: &Workload, size: Size, config: CellConfig, ffwd_budget: u64, out: &str) {
    let cfg = config.config(16);
    let mut ff = FastForward::new(&w.program, &cfg);
    ff.set_frontend(w.frontend);
    let s = ff.skip(ffwd_budget).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let ckpt = ff.checkpoint();
    let bytes = ckpt.encode();
    std::fs::write(out, &bytes).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!(
        "{out}: {} bytes; {}/{} ({}) {} after {} retired ({} traces{})",
        bytes.len(),
        w.name,
        size_name(size),
        w.frontend,
        cfg.selection.name(),
        ckpt.retired,
        s.traces,
        if s.halted { ", halted" } else { "" }
    );
}

pub(crate) fn read_checkpoint(path: &str) -> Checkpoint {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("reading {path}: {e}");
        std::process::exit(1);
    });
    Checkpoint::decode(&bytes).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    })
}

fn inspect(path: &str) {
    let ckpt = read_checkpoint(path);
    println!("program   : {} (fingerprint {:016x})", ckpt.program_name, ckpt.program_fingerprint);
    println!("frontend  : {}", ckpt.frontend);
    println!("pc        : {}", ckpt.pc);
    println!("retired   : {}", ckpt.retired);
    println!("halted    : {}", ckpt.halted);
    println!("mem delta : {} dirty words", ckpt.mem_delta.len());
    match &ckpt.warm {
        None => println!("warm      : none"),
        Some(w) => {
            println!(
                "warm      : selection {}, btb {} entries ({} indirect targets), gshare {} \
                 entries / {} history bits, ras {}/{}, predictor {}+{} entries, tcache {} \
                 lines ({}x{}), icache {} lines, dcache {} lines, history {}/{}",
                w.selection.name(),
                w.btb.counters.len(),
                w.btb.targets.len(),
                w.gshare.counters.len(),
                w.gshare.history_bits,
                w.ras.len(),
                w.ras_capacity,
                w.predictor.path.len(),
                w.predictor.simple.len(),
                w.tcache.len(),
                w.tcache_sets,
                w.tcache_ways,
                w.icache_lines.len(),
                w.dcache_lines.len(),
                w.history.len(),
                w.history_depth,
            );
        }
    }
}

/// Finds the workload program a checkpoint was captured from by
/// fingerprint search over both suites at every size (shared with
/// `tp tracetap --ckpt`). A fingerprint hit
/// is additionally frontend-checked; on a miss, a same-name workload in
/// the *other* frontend's suite produces a named mismatch diagnosis
/// instead of a bare "not found".
pub(crate) fn find_program(ckpt: &Checkpoint) -> Result<(Program, Size, Frontend), String> {
    let mut name_twin: Option<Frontend> = None;
    for size in [Size::Tiny, Size::Small, Size::Full, Size::Long] {
        for w in all_workloads(size) {
            if ckpt.verify_program(&w.program).is_ok() {
                return match ckpt.verify_frontend(w.frontend) {
                    Ok(()) => Ok((w.program, size, w.frontend)),
                    Err(e) => Err(e.to_string()),
                };
            }
            if w.name == ckpt.program_name && w.frontend != ckpt.frontend {
                name_twin = Some(w.frontend);
            }
        }
    }
    match name_twin {
        Some(twin) => Err(format!(
            "checkpoint records the {} frontend for `{}`; the workload of that name in this \
             build is {twin} — wrong ISA (no fingerprint matches)",
            ckpt.frontend, ckpt.program_name
        )),
        None => Err(format!(
            "no {} workload matches fingerprint {:016x} (captured from `{}`)",
            ckpt.frontend, ckpt.program_fingerprint, ckpt.program_name
        )),
    }
}

fn verify(path: &str, resume: u64) {
    let ckpt = read_checkpoint(path);
    let (program, size, frontend) = find_program(&ckpt).unwrap_or_else(|msg| {
        eprintln!("{path}: {msg}");
        std::process::exit(1);
    });
    println!("program   : {} at size {} ({frontend})", ckpt.program_name, size_name(size));

    // 1. Functional resume equals a straight run.
    let mut resumed = ckpt.machine(&program).expect("fingerprint verified");
    resumed.run(resume).expect("resume stays in program");
    let mut straight = Machine::new(&program);
    straight.run(resumed.retired()).expect("straight run stays in program");
    assert_eq!(resumed.pc(), straight.pc(), "resumed pc diverged");
    assert_eq!(resumed.arch_state(), straight.arch_state(), "resumed state diverged");
    println!(
        "resume    : OK ({} functional instructions, state bit-exact vs straight run)",
        resumed.retired() - ckpt.retired
    );

    let model = warm_model(&ckpt);

    // 2. The interpreter and superblock fast-forward engines agree byte
    // for byte at this checkpoint's position (meaningful for warmed
    // checkpoints, where the capture includes the warm images the two
    // engines build along different code paths).
    if ckpt.warm.is_some() && !ckpt.halted {
        let cfg = TraceProcessorConfig::paper(model);
        let mut fast = FastForward::new(&program, &cfg);
        fast.set_frontend(frontend);
        fast.skip(ckpt.retired).expect("superblock fast-forward stays in program");
        let mut slow = FastForward::new(&program, &cfg);
        slow.set_frontend(frontend);
        slow.set_superblock(false);
        slow.skip(ckpt.retired).expect("interpreter fast-forward stays in program");
        assert_eq!(
            fast.checkpoint().encode(),
            slow.checkpoint().encode(),
            "superblock and interpreter fast-forward TPCK bytes diverge"
        );
        println!(
            "engines   : OK (interpreter and superblock TPCK bytes identical at {} retired)",
            ckpt.retired
        );
    }

    // 3. A detailed interval boots and runs under full oracle verification.
    let cfg = TraceProcessorConfig::paper(model).with_oracle();
    let boot = ckpt.boot_image(&program, &cfg).unwrap_or_else(|e| {
        eprintln!("{path}: boot failed: {e}");
        std::process::exit(1);
    });
    let mut sim = TraceProcessor::from_checkpoint(&program, cfg, boot).unwrap_or_else(|e| {
        eprintln!("{path}: boot rejected: {e}");
        std::process::exit(1);
    });
    let r = sim.run_interval(resume.min(5_000)).unwrap_or_else(|e| {
        eprintln!("{path}: detailed interval failed: {e}");
        std::process::exit(1);
    });
    println!(
        "detailed  : OK ({} instructions retired oracle-verified under {}, ipc {:.3})",
        r.stats.retired_instrs,
        model.name(),
        r.stats.ipc()
    );
    println!("{path}: verified");
}

fn smoke(out: &str) {
    // 1. Create, inspect, verify a checkpoint (the uploaded artifact).
    let mlb_ret = CellConfig::Model(CiModel::MlbRet);
    let gcc = workload("gcc", Size::Full).expect("gcc is a suite workload");
    create(&gcc, Size::Full, mlb_ret, 20_000, out);
    inspect(out);
    verify(out, 10_000);

    // 2. The two fast-forward engines halt with byte-identical TPCK
    // checkpoints on every workload of both suites (run_ffwd_bench
    // asserts it), and the superblock engine is no slower than the
    // interpreter in aggregate.
    let ffwd_cells = run_ffwd_bench(&all_workloads(Size::Tiny), mlb_ret);
    for c in &ffwd_cells {
        println!(
            "ffwd      : {:<10} interp {:>12.0} i/s, superblock {:>12.0} i/s ({:.1}x, tpck ok)",
            c.workload,
            c.interp_ips,
            c.superblock_ips,
            c.speedup()
        );
    }
    let ffwd_geomean = speedup_geomean(&ffwd_cells);
    assert!(
        ffwd_geomean >= 1.0,
        "superblock fast-forward slower than the interpreter on the tiny suite \
         ({ffwd_geomean:.2}x)"
    );
    println!(
        "ffwd      : OK (all {} workloads byte-identical, geomean speedup {ffwd_geomean:.1}x)",
        ffwd_cells.len()
    );

    // 3. Sampled IPC within 5% of the full run on the tiny suite.
    let checks = cross_check(Size::Tiny, &[CiModel::None, CiModel::MlbRet], &SampleConfig::dense());
    let mut worst: f64 = 0.0;
    for c in &checks {
        println!(
            "accuracy  : {:<10} {:<8} full {:.3} sampled {:.3} err {:.2}%",
            c.workload,
            c.config.name(),
            c.full_ipc,
            c.sampled.ipc_estimate(),
            c.rel_err_pct()
        );
        worst = worst.max(c.rel_err_pct());
    }
    assert!(
        worst <= 5.0,
        "sampled IPC diverges {worst:.2}% (> 5%) from the full run on the tiny suite"
    );
    println!("accuracy  : OK (worst error {worst:.2}% <= 5%)");

    // 4. Sampled execution of the long variants is >= 3x faster than a
    // full detailed run.
    let (mut full_wall, mut sampled_wall) = (0.0f64, 0.0f64);
    for name in ["gcc", "go", "compress"] {
        let w = workload(name, Size::Long).expect("long variants of suite workloads exist");
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        let t = std::time::Instant::now();
        let mut sim = TraceProcessor::new(&w.program, cfg.clone());
        let full = sim.run(u64::MAX).unwrap_or_else(|e| panic!("{name} long: {e}"));
        assert!(full.halted, "{name} long did not halt");
        let fw = t.elapsed().as_secs_f64();
        let run = run_sampled(&w.program, &cfg, &SampleConfig::sparse());
        let err = 100.0 * (run.ipc_estimate() - full.stats.ipc()).abs() / full.stats.ipc();
        println!(
            "speedup   : {name:<10} {} instrs: detailed {fw:.1}s, sampled {:.1}s ({:.1}x, \
             ipc err {err:.2}%)",
            full.stats.retired_instrs,
            run.wall_seconds,
            fw / run.wall_seconds
        );
        full_wall += fw;
        sampled_wall += run.wall_seconds;
    }
    let speedup = full_wall / sampled_wall;
    assert!(
        speedup >= 3.0,
        "sampled long suite only {speedup:.1}x faster than detailed (need >= 3x)"
    );
    println!("speedup   : OK ({speedup:.1}x >= 3x on the long suite)");
    println!("smoke     : all checks passed; artifact at {out}");
}

/// The CI model whose trace selection a checkpoint's warm images were
/// built under (`base` for a cold checkpoint).
pub(crate) fn warm_model(ckpt: &Checkpoint) -> CiModel {
    match ckpt.warm.as_ref().map(|w| w.selection) {
        Some(sel) if sel.fg && sel.ntb => CiModel::FgMlbRet,
        Some(sel) if sel.fg => CiModel::Fg,
        Some(sel) if sel.ntb => CiModel::MlbRet,
        _ => CiModel::None,
    }
}
