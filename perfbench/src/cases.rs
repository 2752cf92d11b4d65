//! The four workloads: their fixed inputs, their set-up (program builds
//! and functional reference results) and the operation each one times.
//!
//! Every operation is checked against the functional `tp_isa` machine on
//! retired-instruction count and final architectural state, and returns
//! the simulated counts it produced so that repeats, and the traced run,
//! can be compared with it exactly.

use std::time::Instant;

use tp_bench::speed::CELL_BUDGET;
use tp_bench::SampleConfig;
use tp_ckpt::{Checkpoint, FastForward};
use tp_core::{CiModel, RunResult, SimError, SimStats, TraceProcessor, TraceProcessorConfig};
use tp_fuzz::{emit_rv, emit_synth, generate, FuzzConfig, Harness, Isa, MODELS};
use tp_isa::func::{ArchState, Machine, MachineState};
use tp_isa::{Frontend, Program};
use tp_workloads::{all_workloads, Size};

use crate::tracer::Tracer;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Full-size detailed cells that mispredict often.
    DetailedRecovery,
    /// Full-size detailed cells that predict well and reach high IPC.
    DetailedSteady,
    /// The long suite, sampled through `tp-ckpt`.
    SampledLong,
    /// Seeded fuzz programs on the differential-check path.
    FuzzCold,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] =
        [Kind::DetailedRecovery, Kind::DetailedSteady, Kind::SampledLong, Kind::FuzzCold];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DetailedRecovery => "detailed-recovery",
            Kind::DetailedSteady => "detailed-steady",
            Kind::SampledLong => "sampled-long",
            Kind::FuzzCold => "fuzz-cold",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the workload's inputs depend on `--seed`. The fixed-kernel
    /// workloads take none: their data seeds are built into
    /// `tp-workloads` and the `tp-rv` corpus.
    pub fn seeded(self) -> bool {
        self == Kind::FuzzCold
    }

    /// Name of the span around one operation.
    pub fn op_span(self) -> &'static str {
        match self {
            Kind::DetailedRecovery | Kind::DetailedSteady => "detailed.cell",
            Kind::SampledLong => "sampled.program",
            Kind::FuzzCold => "fuzz.program",
        }
    }
}

/// `detailed-recovery`: 13–88 mispredictions per kilo-instruction, where
/// recovery and re-dispatch dominate stage time.
const RECOVERY_PROGRAMS: [&str; 5] = ["crc32", "qsort", "strhash", "compress", "go"];
const RECOVERY_MODELS: [CiModel; 2] = [CiModel::Fg, CiModel::FgMlbRet];

/// `detailed-steady`: 0.1–7 mispredictions per kilo-instruction, where
/// dispatch, complete and the buses dominate stage time.
const STEADY_PROGRAMS: [&str; 6] = ["gcc", "m88ksim", "perl", "vortex", "matmul", "jpeg"];
const STEADY_MODELS: [CiModel; 2] = [CiModel::None, CiModel::FgMlbRet];

/// The sampled workload's model: what `baseline --sample` runs.
const SAMPLED_MODEL: CiModel = CiModel::MlbRet;

/// Fuzz programs per `fuzz-cold` set-up; operations cycle through them.
/// Host time follows simulated cycles, so `instrs_per_s` follows the
/// programs' mean IPC; with 160 programs that mean moved by 5% from seed
/// to seed, and this many bring it near 3%.
pub const FUZZ_PROGRAMS: u64 = 480;

/// Retired instructions per `run_interval` chunk in the traced run.
const CHUNK: u64 = 10_000;

/// What the functional machine retires and leaves behind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reference {
    /// Retired instructions up to and including `Halt`.
    pub retired: u64,
    /// Final architectural state.
    pub arch: ArchState,
}

/// How [`reference`] reports a program that runs past its budget.
const NO_HALT: &str = "functional machine did not halt";

/// Runs the functional machine on `program` to completion.
pub fn reference(program: &Program, budget: u64) -> Result<Reference, String> {
    let mut m = Machine::new(program);
    let s = m.run(budget).map_err(|e| format!("functional machine fault: {e}"))?;
    if !s.halted {
        return Err(format!("{NO_HALT} within {budget} instructions"));
    }
    Ok(Reference { retired: s.retired, arch: m.arch_state() })
}

/// One operation's inputs and expected results. A reference that could
/// not be computed makes every attempt at the operation fail.
pub enum Case {
    /// A full detailed run of one program under one model.
    Detailed {
        /// Workload name.
        name: &'static str,
        /// Control-independence model.
        model: CiModel,
        /// The program.
        program: Program,
        /// Expected result.
        reference: Result<Reference, String>,
    },
    /// A sampled run of one long program.
    Sampled {
        /// Workload name.
        name: &'static str,
        /// Frontend that produced the program.
        frontend: Frontend,
        /// The program.
        program: Program,
        /// Expected result.
        reference: Result<Reference, String>,
    },
    /// One generated fuzz program, emitted through both frontends.
    Fuzz {
        /// Generator seed.
        seed: u64,
        /// Expected results, synth emission then RV emission.
        reference: Result<[Reference; 2], String>,
    },
}

impl Case {
    /// A short label for reports.
    pub fn label(&self) -> String {
        match self {
            Case::Detailed { name, model, .. } => format!("{name}/{}", model.name()),
            Case::Sampled { name, .. } => format!("{name}/{}", SAMPLED_MODEL.name()),
            Case::Fuzz { seed, .. } => format!("fuzz-{seed}"),
        }
    }
}

/// A workload's set-up result and where its time went.
pub struct Setup {
    /// The operations, in the order they run.
    pub cases: Vec<Case>,
    /// Seconds spent building programs through `tp-workloads`.
    pub build_s: f64,
    /// Seconds spent producing reference results (for `fuzz-cold`: also
    /// generating and emitting the programs).
    pub reference_s: f64,
    /// Fuzz programs passed over because the functional machine did not
    /// halt within the harness budget (not operations, not failures).
    pub skipped: u64,
}

/// `SplitMix64`: derives the `i`-th fuzz program seed from the run seed.
pub fn program_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds `kind`'s programs and reference results.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    match kind {
        Kind::DetailedRecovery => detailed_setup(&RECOVERY_PROGRAMS, &RECOVERY_MODELS),
        Kind::DetailedSteady => detailed_setup(&STEADY_PROGRAMS, &STEADY_MODELS),
        Kind::SampledLong => sampled_setup(),
        Kind::FuzzCold => fuzz_setup(seed),
    }
}

fn detailed_setup(names: &[&'static str], models: &[CiModel]) -> Setup {
    let t = Instant::now();
    let suite = all_workloads(Size::Full);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut cases = Vec::new();
    for &name in names {
        let w = suite.iter().find(|w| w.name == name).expect("workload is in the full suite");
        let r = reference(&w.program, CELL_BUDGET);
        for &model in models {
            cases.push(Case::Detailed {
                name,
                model,
                program: w.program.clone(),
                reference: r.clone(),
            });
        }
    }
    Setup { cases, build_s, reference_s: t.elapsed().as_secs_f64(), skipped: 0 }
}

fn sampled_setup() -> Setup {
    let t = Instant::now();
    let suite = all_workloads(Size::Long);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cases = suite
        .into_iter()
        .map(|w| Case::Sampled {
            name: w.name,
            frontend: w.frontend,
            reference: reference(&w.program, CELL_BUDGET),
            program: w.program,
        })
        .collect();
    Setup { cases, build_s, reference_s: t.elapsed().as_secs_f64(), skipped: 0 }
}

fn fuzz_setup(seed: u64) -> Setup {
    let t = Instant::now();
    let (mut cases, mut skipped, mut i) = (Vec::new(), 0, 0);
    while (cases.len() as u64) < FUZZ_PROGRAMS {
        match fuzz_case(program_seed(seed, i)) {
            Some(case) => cases.push(case),
            None => skipped += 1,
        }
        i += 1;
    }
    Setup { cases, build_s: 0.0, reference_s: t.elapsed().as_secs_f64(), skipped }
}

/// Generates fuzz program `seed` and its reference results through both
/// frontends; `None` when the functional machine does not halt within the
/// harness budget (the harness skips such programs too).
pub fn fuzz_case(seed: u64) -> Option<Case> {
    let budget = Harness::default().oracle_budget;
    let ast = generate(&FuzzConfig::default(), seed);
    let name = format!("fuzz-{seed}");
    let synth = reference(&emit_synth(&ast, &name), budget);
    if synth.as_ref().is_err_and(|e| e.starts_with(NO_HALT)) {
        return None;
    }
    let rv = emit_rv(&ast, &name)
        .map_err(|e| format!("rv emission failed: {e}"))
        .and_then(|p| reference(&p, budget));
    Some(Case::Fuzz { seed, reference: synth.and_then(|a| rv.map(|b| [a, b])) })
}

/// Names of the simulated counts, in [`Counts`] order: `tp-core` first,
/// then the modelled components.
pub const COUNT_NAMES: [&str; 17] = [
    "core.cycles",
    "core.retired_instrs",
    "core.dispatched_traces",
    "core.squashed_traces",
    "core.preserved_traces",
    "core.redispatched_traces",
    "core.issue_events",
    "core.reissue_events",
    "core.full_squashes",
    "core.fgci_recoveries",
    "core.cgci_reconverged",
    "trace.bit_miss_handlers",
    "predict.predictions",
    "predict.trace_mispredictions",
    "cache.tcache_lookups",
    "cache.tcache_misses",
    "cache.load_snoop_reissues",
];

/// Simulated counts summed over an operation's pipeline runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts(pub [u64; COUNT_NAMES.len()]);

impl Counts {
    fn add_run(&mut self, s: &SimStats, predictions: u64) {
        let v = [
            s.cycles,
            s.retired_instrs,
            s.dispatched_traces,
            s.squashed_traces,
            s.preserved_traces,
            s.redispatched_traces,
            s.issue_events,
            s.reissue_events,
            s.full_squashes,
            s.fgci_recoveries,
            s.cgci_reconverged,
            s.bit_miss_handlers,
            predictions,
            s.trace_mispredictions,
            s.tcache_lookups,
            s.tcache_misses,
            s.load_snoop_reissues,
        ];
        self.merge(&Counts(v));
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Counts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// The count called `name` (one of [`COUNT_NAMES`]).
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNT_NAMES.iter().position(|n| *n == name).expect("a known count name");
        self.0[i]
    }
}

/// A successful operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpResult {
    /// Instructions credited to `instrs_per_s`.
    pub instrs: u64,
    /// Simulated counts; a repeat must reproduce them exactly.
    pub counts: Counts,
}

/// Runs one operation. `id` names the case in spans.
///
/// # Errors
///
/// A `SimError`, a failed checkpoint step, a run that does not halt, or a
/// retired count or final state that differs from the reference.
pub fn run_case(case: &Case, id: u64, tr: &mut Tracer) -> Result<OpResult, String> {
    match case {
        Case::Detailed { model, program, reference, .. } => {
            detailed(program, *model, reference.as_ref().map_err(Clone::clone)?, id, tr)
        }
        Case::Sampled { frontend, program, reference, .. } => {
            sampled(program, *frontend, reference.as_ref().map_err(Clone::clone)?, tr)
        }
        Case::Fuzz { seed, reference } => {
            fuzz(*seed, reference.as_ref().map_err(Clone::clone)?, id, tr)
        }
    }
}

fn check(halted: bool, retired: u64, arch: &ArchState, want: &Reference) -> Result<(), String> {
    if !halted {
        return Err(format!("did not halt (retired {retired}, reference {})", want.retired));
    }
    if retired != want.retired {
        return Err(format!("retired {retired} instructions, reference retired {}", want.retired));
    }
    if *arch != want.arch {
        return Err("final architectural state differs from the reference".into());
    }
    Ok(())
}

/// Runs `sim` until it halts or `max` instructions have retired: one `run`
/// call untraced; `run_interval` chunks when traced, with the wakeup-index
/// footprint sampled between chunks.
fn run_to(
    sim: &mut TraceProcessor<'_>,
    max: u64,
    id: u64,
    tr: &mut Tracer,
) -> Result<RunResult, SimError> {
    if !tr.on() {
        return sim.run(max);
    }
    loop {
        let n = CHUNK.min(max.saturating_sub(sim.stats().retired_instrs));
        let r = tr.span("core.run_interval", id, |_| sim.run_interval(n))?;
        tr.note_index(sim);
        if r.halted || r.stats.retired_instrs >= max {
            return Ok(r);
        }
    }
}

fn detailed(
    program: &Program,
    model: CiModel,
    want: &Reference,
    id: u64,
    tr: &mut Tracer,
) -> Result<OpResult, String> {
    let cfg = TraceProcessorConfig::paper(model);
    let mut sim = tr.span("core.new", id, |_| TraceProcessor::new(program, cfg));
    tr.attach(&mut sim);
    let r = run_to(&mut sim, CELL_BUDGET, id, tr).map_err(|e| e.to_string())?;
    tr.absorb_profile(&sim);
    check(r.halted, r.stats.retired_instrs, &sim.arch_state(), want)?;
    let mut counts = Counts::default();
    counts.add_run(&r.stats, r.predictor.predictions);
    Ok(OpResult { instrs: r.stats.retired_instrs, counts })
}

/// One sampled run, step for step as `tp_bench::sampled::run_sampled_as`
/// (which `baseline --sample` uses), with each `tp-ckpt` and `tp-core`
/// call in its own span.
fn sampled(
    program: &Program,
    frontend: Frontend,
    want: &Reference,
    tr: &mut Tracer,
) -> Result<OpResult, String> {
    let cfg = TraceProcessorConfig::paper(SAMPLED_MODEL);
    let sample = SampleConfig::sparse();
    let mut ff = FastForward::new(program, &cfg);
    ff.set_frontend(frontend);
    let mut counts = Counts::default();
    let mut halted = false;
    let mut round = 0u64;
    while !halted && !ff.halted() {
        let rid = round;
        round += 1;
        halted = tr.span("sampled.round", rid, |tr| -> Result<bool, String> {
            let (ckpt, boot) = tr.span("ckpt.roundtrip", rid, |tr| {
                let bytes = tr.span("ckpt.encode", rid, |_| ff.checkpoint().encode());
                tr.add("ckpt.bytes", bytes.len() as u64);
                let ckpt = tr.span("ckpt.decode", rid, |_| Checkpoint::decode(&bytes));
                let ckpt = ckpt.map_err(|e| format!("checkpoint round trip: {e}"))?;
                let boot = tr.span("ckpt.boot_image", rid, |_| ckpt.boot_image(program, &cfg));
                let boot = boot.map_err(|e| format!("checkpoint boot image: {e}"))?;
                Ok::<_, String>((ckpt, boot))
            })?;
            let (r, sim) = tr.span("sampled.detail", rid, |tr| {
                let sim = tr.span("core.from_checkpoint", rid, |_| {
                    TraceProcessor::from_checkpoint(program, cfg.clone(), boot)
                });
                let mut sim = sim.map_err(|e| format!("boot rejected: {e}"))?;
                tr.attach(&mut sim);
                let predictions = sim.predictor_stats().predictions;
                // The first round boots the initial state, so its cold
                // start is measured, not discarded as warmup.
                let warmup = if rid == 0 { 0 } else { sample.warmup };
                let w = tr.span("core.run_interval", rid, |_| sim.run_interval(warmup));
                w.map_err(|e| format!("warmup: {e}"))?;
                tr.note_index(&sim);
                let r = tr.span("core.run_interval", rid, |_| sim.run_interval(sample.interval));
                let r = r.map_err(|e| e.to_string())?;
                tr.note_index(&sim);
                tr.absorb_profile(&sim);
                counts.add_run(&r.stats, r.predictor.predictions - predictions);
                Ok::<_, String>((r, sim))
            })?;
            tr.span("ckpt.handback", rid, |_| {
                let (pc, retired_delta) = sim.retired_frontier();
                let regs = sim.arch_state().regs;
                let state = MachineState {
                    regs,
                    mem: sim.committed_mem_words().into_iter().collect(),
                    pc,
                    halted: r.halted,
                    retired: ckpt.retired + retired_delta,
                };
                let warm = sim.into_warm();
                ff.adopt(state, warm);
            });
            if r.halted {
                return Ok(true);
            }
            // Stratified skip length, uniform in [skip/2, 3*skip/2).
            let h = round.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
            let jittered = sample.skip / 2 + h % sample.skip;
            let s = tr.span("ckpt.ffwd", rid, |_| ff.skip(jittered));
            let s = s.map_err(|e| format!("fast-forward left the program: {e}"))?;
            tr.add("ckpt.ffwd_instrs", s.retired);
            Ok(s.halted)
        })?;
    }
    check(true, ff.retired(), &ff.machine().arch_state(), want)?;
    Ok(OpResult { instrs: ff.retired(), counts })
}

/// One fuzz program on the `Harness::check_seed` path: generate, then per
/// frontend emit, run the functional oracle, and run all five models with
/// per-retire oracle checking.
fn fuzz(seed: u64, want: &[Reference; 2], id: u64, tr: &mut Tracer) -> Result<OpResult, String> {
    let harness = Harness::default();
    let ast = tr.span("fuzz.gen", id, |_| generate(&FuzzConfig::default(), seed));
    let name = format!("fuzz-{seed}");
    let mut out = OpResult::default();
    for (isa, want) in [Isa::Synth, Isa::Rv].into_iter().zip(want) {
        let program = tr.span("fuzz.emit", id, |_| match isa {
            Isa::Synth => Ok(emit_synth(&ast, &name)),
            Isa::Rv => emit_rv(&ast, &name),
        });
        let program = program.map_err(|e| format!("rv emission failed: {e}"))?;
        let oracle = tr.span("isa.func", id, |_| Machine::new(&program).run(harness.oracle_budget));
        let oracle = oracle.map_err(|e| format!("[{isa}] functional oracle fault: {e}"))?;
        for model in MODELS {
            let cfg = harness.config(model);
            let mut sim = tr.span("core.new", id, |_| TraceProcessor::new(&program, cfg));
            tr.attach(&mut sim);
            let budget = oracle.retired + harness.sim_slack;
            let r = run_to(&mut sim, budget, id, tr)
                .map_err(|e| format!("[{isa} {}] {e}", model.name()))?;
            tr.absorb_profile(&sim);
            check(r.halted, r.stats.retired_instrs, &sim.arch_state(), want)
                .map_err(|e| format!("[{isa} {}] {e}", model.name()))?;
            out.counts.add_run(&r.stats, r.predictor.predictions);
            out.instrs += r.stats.retired_instrs;
        }
    }
    Ok(out)
}
