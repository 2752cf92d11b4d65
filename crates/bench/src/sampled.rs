//! Sampled simulation: alternating functional fast-forward and detailed
//! measurement intervals.
//!
//! A sampled run cuts the program into rounds of
//! `[detailed warmup + measured interval][functional skip]`: the detailed
//! cycle model only executes the intervals, while the fast-forward engine
//! executes the skips functionally *with predictor warming* and carries
//! the detailed model's own trained structures across each skip
//! ([`FastForward::adopt`]), so every interval starts with the predictor
//! state an uninterrupted detailed run would have had. Every checkpoint
//! handed to the detailed model goes through a full encode/decode of the
//! binary format — there is exactly one boot path, the one `tp ckpt` and
//! the CI artifacts use.
//!
//! Aggregation follows the standard systematic-sampling estimate: the IPC
//! estimate is `sum(interval instructions) / sum(interval cycles)`, and
//! the reported error bound is a 95% confidence interval over the
//! per-interval IPCs (normal approximation). Warmup instructions execute
//! in the detailed model but are excluded from the measurement.

use std::time::Instant;

use tp_ckpt::{Checkpoint, FastForward};
use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use tp_isa::func::MachineState;
use tp_isa::{Frontend, Program};
use tp_stats::{Json, RecoveryAttribution};
use tp_workloads::{suite, Size};

use crate::sweep::{run_cell, run_grid, Cell, CellConfig};

/// The sampling regime: how much detail per round, and how far to
/// fast-forward between rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleConfig {
    /// Detailed instructions per round whose statistics are discarded
    /// (absorbs the pipeline-fill transient after a checkpoint boot).
    pub warmup: u64,
    /// Detailed instructions measured per round.
    pub interval: u64,
    /// Instructions fast-forwarded functionally between rounds.
    pub skip: u64,
}

impl SampleConfig {
    /// Dense sampling for short (tiny/small) workloads: no skipping —
    /// every instruction runs detailed, in interval-sized chunks with
    /// warming carried across chunk boundaries. This is the *accuracy
    /// validation* regime behind the 5% cross-check and the CI smoke:
    /// boot transients are the only error source, and the interval length
    /// amortizes them to under a couple of percent (workloads that fit in
    /// one interval reproduce the full run's cycle count exactly). The
    /// warmup covers a 16-PE window refill (~512 in-flight instructions)
    /// with margin.
    pub fn dense() -> SampleConfig {
        SampleConfig { warmup: 768, interval: 5_000, skip: 0 }
    }

    /// Sparse sampling for long workloads — the *speedup* regime: ~12% of
    /// instructions run detailed, the rest fast-forward functionally with
    /// warming. Validated on the long suite at <0.5% IPC error against
    /// full detailed runs.
    pub fn sparse() -> SampleConfig {
        SampleConfig { warmup: 1_500, interval: 12_000, skip: 100_000 }
    }

    /// The length of the functional leg after round `round` (counted
    /// from 1): stratified deterministically around the configured mean,
    /// uniform in `[skip/2, 3*skip/2)`. Fixed-period systematic sampling
    /// can alias with a workload's phase structure and measure the same
    /// phase every round, which shows up as a large bias with a
    /// deceptively small confidence interval. Jitter breaks the lock-step
    /// while keeping runs reproducible.
    pub fn jittered_skip(&self, round: u64) -> u64 {
        if self.skip == 0 {
            return 0;
        }
        let h = round.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
        self.skip / 2 + h % self.skip
    }
}

/// One measured interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Retired-instruction position of the first measured instruction.
    pub start_retired: u64,
    /// Instructions measured (may overshoot the configured interval by up
    /// to one trace).
    pub instrs: u64,
    /// Cycles the interval took.
    pub cycles: u64,
}

impl Interval {
    /// The interval's IPC.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }
}

/// A completed sampled run.
#[derive(Clone, Debug)]
pub struct SampledRun {
    /// The measured intervals, in program order.
    pub intervals: Vec<Interval>,
    /// Total program instructions (functional + detailed legs together).
    pub total_instrs: u64,
    /// Instructions measured in detailed intervals.
    pub detailed_instrs: u64,
    /// Detailed instructions spent on (discarded) warmup.
    pub warmup_instrs: u64,
    /// Instructions covered by functional fast-forward.
    pub ffwd_instrs: u64,
    /// Host wall-clock seconds for the whole sampled run.
    pub wall_seconds: f64,
    /// Host wall-clock seconds spent inside the functional fast-forward
    /// legs (a subset of [`SampledRun::wall_seconds`]).
    pub ffwd_wall_seconds: f64,
    /// Merged misprediction outcome-attribution ledger of the intervals.
    pub attribution: RecoveryAttribution,
}

impl SampledRun {
    /// The steady-state intervals: everything after the first. The first
    /// interval is special — it starts at instruction 0 from the true
    /// cold-boot state, so it measures the program's cold-start phase
    /// *exactly* and must not be extrapolated over the rest of the run
    /// (a cold start is a one-off, not a recurring phase; flat averaging
    /// over-weights it by the sampling ratio).
    fn steady(&self) -> &[Interval] {
        if self.intervals.len() > 1 {
            &self.intervals[1..]
        } else {
            &self.intervals
        }
    }

    /// Whole-program cycle estimate: the first interval's cycles taken
    /// exactly, plus the remaining instructions extrapolated at the
    /// steady-state intervals' aggregate CPI (a stratified ratio
    /// estimate). When sampling is exhaustive (`skip = 0` and no warmup
    /// discarded) this degenerates to the exact measured cycle count.
    pub fn estimated_cycles(&self) -> f64 {
        let Some(cold) = self.intervals.first() else { return 0.0 };
        let rest_instrs = self.total_instrs.saturating_sub(cold.instrs) as f64;
        let cpi = if self.intervals.len() == 1 {
            // A single interval measured from cold covers the run up to
            // `total_instrs`; extrapolate any tail at its own CPI.
            cold.cycles as f64 / cold.instrs.max(1) as f64
        } else {
            let steady = self.steady();
            let (si, sc) =
                steady.iter().fold((0u64, 0u64), |(i, c), iv| (i + iv.instrs, c + iv.cycles));
            if si == 0 {
                0.0
            } else {
                sc as f64 / si as f64
            }
        };
        cold.cycles as f64 + rest_instrs * cpi
    }

    /// The sampled whole-program IPC estimate (see
    /// [`SampledRun::estimated_cycles`]).
    pub fn ipc_estimate(&self) -> f64 {
        let cycles = self.estimated_cycles();
        if cycles == 0.0 {
            0.0
        } else {
            self.total_instrs as f64 / cycles
        }
    }

    /// Half-width of the 95% confidence interval over the steady-state
    /// per-interval IPCs (zero with fewer than two steady intervals).
    pub fn ipc_ci95(&self) -> f64 {
        let steady = self.steady();
        let k = steady.len();
        if k < 2 {
            return 0.0;
        }
        let mean = steady.iter().map(Interval::ipc).sum::<f64>() / k as f64;
        let var = steady.iter().map(|i| (i.ipc() - mean).powi(2)).sum::<f64>() / (k - 1) as f64;
        1.96 * (var / k as f64).sqrt()
    }

    /// Fast-forward throughput: functionally skipped instructions per
    /// host second spent in the fast-forward legs (zero when the regime
    /// never skips, e.g. dense sampling).
    pub fn ffwd_instrs_per_sec(&self) -> f64 {
        if self.ffwd_wall_seconds <= 0.0 {
            0.0
        } else {
            self.ffwd_instrs as f64 / self.ffwd_wall_seconds
        }
    }

    /// Fraction of the program that ran in the detailed model (measured
    /// plus warmup).
    pub fn detailed_fraction(&self) -> f64 {
        if self.total_instrs == 0 {
            0.0
        } else {
            (self.detailed_instrs + self.warmup_instrs) as f64 / self.total_instrs as f64
        }
    }
}

/// Runs `program` sampled under `cfg`, recording `frontend` in every
/// internal checkpoint the run round-trips through (rv workloads pass
/// [`Frontend::Rv64`]).
///
/// # Panics
///
/// Panics if the simulator deadlocks, a checkpoint fails to round-trip,
/// or the committed path leaves the program image — all bugs, not
/// results.
pub fn run_sampled_as(
    program: &Program,
    frontend: Frontend,
    cfg: &TraceProcessorConfig,
    sample: &SampleConfig,
) -> SampledRun {
    let mut ledger = Ledger::default();
    let (mut run, _) = drive_rounds(program, frontend, cfg, sample, u64::MAX, &mut ledger);
    run.attribution = ledger.merged;
    run
}

/// The observer [`run_sampled_as`] puts on the driver: merges each
/// measured interval's share of the simulator's attribution ledger.
#[derive(Default)]
struct Ledger {
    at_warm: RecoveryAttribution,
    merged: RecoveryAttribution,
}

impl RoundObserver for Ledger {
    fn warmed(&mut self, sim: &mut TraceProcessor<'_>) {
        // The simulator's ledger is cumulative since boot; snapshot it so
        // the merged attribution covers the measured interval only, not
        // the discarded warmup leg.
        self.at_warm = sim.attribution().clone();
    }

    fn measured(&mut self, _round: u64, leg: Option<Interval>, sim: &mut TraceProcessor<'_>) {
        if leg.is_some() {
            self.merged.merge(&sim.attribution().since(&self.at_warm));
        }
    }
}

/// What a caller of [`drive_rounds`] sees of a sampled run: the points
/// where `run_sampled_as`, `tap::capture_sampled` and
/// `metrics::collect_phases` differ. Every method defaults to nothing.
pub(crate) trait RoundObserver {
    /// Round `round` (from 0) booted `sim` from the checkpoint taken at
    /// retired instruction `retired`; its warmup leg runs next.
    fn booted(&mut self, _round: u64, _retired: u64, _sim: &mut TraceProcessor<'_>) {}

    /// The warmup leg is done; the measured leg runs next.
    fn warmed(&mut self, _sim: &mut TraceProcessor<'_>) {}

    /// The measured leg is done — `None` when it retired nothing (the
    /// warmup reached the halt) — and `sim` is handed back next.
    fn measured(&mut self, _round: u64, _leg: Option<Interval>, _sim: &mut TraceProcessor<'_>) {}

    /// A functional leg retired `instrs` (> 0) instructions from `start`.
    fn skipped(&mut self, _start: u64, _instrs: u64) {}
}

/// The one sampled-round loop: runs at most `max_rounds` rounds of
/// `sample` over `program` and reports every leg to `obs`. Returns the run,
/// its attribution ledger left empty for an observer to fill, and whether
/// the program halted (`false` only when the round budget ran out).
///
/// # Panics
///
/// As [`run_sampled_as`].
pub(crate) fn drive_rounds(
    program: &Program,
    frontend: Frontend,
    cfg: &TraceProcessorConfig,
    sample: &SampleConfig,
    max_rounds: u64,
    obs: &mut impl RoundObserver,
) -> (SampledRun, bool) {
    let name = program.name();
    let t = Instant::now();
    let mut ff = FastForward::new(program, cfg);
    ff.set_frontend(frontend);
    let mut intervals = Vec::new();
    let (mut warmup_instrs, mut detailed_instrs, mut ffwd_wall) = (0, 0, 0.0f64);
    let mut round = 0u64;
    while !ff.halted() && round < max_rounds {
        // Detailed leg, booted through the binary checkpoint format.
        let ckpt = Checkpoint::decode(&ff.checkpoint().encode())
            .unwrap_or_else(|e| panic!("{name}: checkpoint round-trip failed: {e}"));
        let boot = ckpt
            .boot_image(program, cfg)
            .unwrap_or_else(|e| panic!("{name}: checkpoint boot failed: {e}"));
        let mut sim = TraceProcessor::from_checkpoint(program, cfg.clone(), boot)
            .unwrap_or_else(|e| panic!("{name}: boot rejected: {e}"));
        obs.booted(round, ckpt.retired, &mut sim);
        // The first round boots the *initial* state — bit-identical to how
        // a full run starts — so its cold-start cycles are real cost and
        // must be measured, not discarded. Later rounds boot mid-program
        // with an artificially empty pipeline; their warmup absorbs that
        // boot transient.
        let warmup = if round == 0 { 0 } else { sample.warmup };
        sim.run_interval(warmup).unwrap_or_else(|e| panic!("{name} warmup: {e}"));
        let (w_instrs, w_cycles) = (sim.stats().retired_instrs, sim.stats().cycles);
        warmup_instrs += w_instrs;
        obs.warmed(&mut sim);
        let r = sim.run_interval(sample.interval).unwrap_or_else(|e| panic!("{name}: {e}"));
        let interval = Interval {
            start_retired: ckpt.retired + w_instrs,
            instrs: r.stats.retired_instrs - w_instrs,
            cycles: r.stats.cycles - w_cycles,
        };
        let measured = (interval.instrs > 0).then_some(interval);
        if let Some(iv) = measured {
            intervals.push(iv);
            detailed_instrs += iv.instrs;
        }
        obs.measured(round, measured, &mut sim);
        // Hand the architectural frontier and the interval's trained
        // structures back to the fast-forward engine. Memory must be the
        // *full* committed image, not the normalized `arch_state` view:
        // a store of zero over non-zero initial data is real state a
        // normalized map would lose.
        let (pc, retired_delta) = sim.retired_frontier();
        let state = MachineState {
            regs: sim.arch_state().regs,
            mem: sim.committed_mem_words().into_iter().collect(),
            pc,
            halted: r.halted,
            retired: ckpt.retired + retired_delta,
        };
        ff.adopt(state, sim.into_warm());
        round += 1;
        if r.halted {
            break;
        }
        let before = ff.retired();
        let leg = Instant::now();
        ff.skip(sample.jittered_skip(round))
            .unwrap_or_else(|e| panic!("{name}: fast-forward left the program: {e}"));
        ffwd_wall += leg.elapsed().as_secs_f64();
        if ff.retired() > before {
            obs.skipped(before, ff.retired() - before);
        }
    }
    let total_instrs = ff.retired();
    let run = SampledRun {
        intervals,
        total_instrs,
        detailed_instrs,
        warmup_instrs,
        ffwd_instrs: total_instrs - detailed_instrs - warmup_instrs,
        wall_seconds: t.elapsed().as_secs_f64(),
        ffwd_wall_seconds: ffwd_wall,
        attribution: RecoveryAttribution::new(),
    };
    (run, ff.halted())
}

/// The sampling regime conventionally paired with a suite size: sparse
/// for the long suite (where detail is the bottleneck), dense otherwise.
pub fn default_sample_for(size: Size) -> SampleConfig {
    match size {
        Size::Long => SampleConfig::sparse(),
        _ => SampleConfig::dense(),
    }
}

/// One grid cell's sampled measurement.
#[derive(Clone, Debug)]
pub struct SampledCell {
    /// Workload name.
    pub workload: &'static str,
    /// The cell's configuration.
    pub config: CellConfig,
    /// The sampled run.
    pub run: SampledRun,
}

/// Runs one grid cell sampled.
///
/// # Panics
///
/// As [`run_sampled_as`].
pub fn run_sampled_cell(cell: &Cell<'_>, sample: &SampleConfig) -> SampledCell {
    let w = cell.workload;
    SampledCell {
        workload: w.name,
        config: cell.config,
        run: run_sampled_as(&w.program, w.frontend, &cell.tp_config(), sample),
    }
}

/// A sampled grid as the `tp-bench/sampled/v2` JSON document (see
/// README "Sampled simulation"). v2 adds the per-cell fast-forward
/// throughput (`ffwd_instrs_per_sec`, superblock engine) and its wall
/// time; the interpreter-vs-superblock comparison is the `tp-bench/ffwd/v1`
/// document (see [`crate::ffwd`]).
pub fn sampled_to_json(cells: &[SampledCell], size: Size, sample: &SampleConfig) -> Json {
    let total_wall: f64 = cells.iter().map(|c| c.run.wall_seconds).sum();
    let rows = cells.iter().map(|c| {
        let r = &c.run;
        Json::obj([
            ("workload", c.workload.into()),
            ("model", c.config.name().into()),
            ("total_instrs", r.total_instrs.into()),
            ("intervals", r.intervals.len().into()),
            ("detailed_instrs", r.detailed_instrs.into()),
            ("warmup_instrs", r.warmup_instrs.into()),
            ("ffwd_instrs", r.ffwd_instrs.into()),
            ("ffwd_wall_seconds", r.ffwd_wall_seconds.into()),
            ("ffwd_instrs_per_sec", r.ffwd_instrs_per_sec().into()),
            ("ipc_estimate", r.ipc_estimate().into()),
            ("ipc_ci95", r.ipc_ci95().into()),
            ("estimated_cycles", r.estimated_cycles().into()),
            ("detailed_fraction", r.detailed_fraction().into()),
            ("wall_seconds", r.wall_seconds.into()),
            ("attribution", r.attribution.to_json()),
        ])
    });
    Json::obj([
        ("schema", "tp-bench/sampled/v2".into()),
        ("suite_size", crate::speed::size_name(size).into()),
        (
            "sample",
            Json::obj([
                ("warmup", sample.warmup.into()),
                ("interval", sample.interval.into()),
                ("skip", sample.skip.into()),
            ]),
        ),
        ("wall_seconds_total", total_wall.into()),
        ("cells", Json::Arr(rows.collect())),
    ])
}

/// One workload's sampled-vs-full comparison.
#[derive(Clone, Debug)]
pub struct CrossCheck {
    /// Workload name.
    pub workload: &'static str,
    /// The cell's configuration.
    pub config: CellConfig,
    /// Full detailed-run IPC.
    pub full_ipc: f64,
    /// Full detailed-run wall seconds.
    pub full_wall: f64,
    /// The sampled run.
    pub sampled: SampledRun,
}

impl CrossCheck {
    /// Relative IPC error of the sampled estimate, in percent.
    pub fn rel_err_pct(&self) -> f64 {
        if self.full_ipc == 0.0 {
            0.0
        } else {
            100.0 * (self.sampled.ipc_estimate() - self.full_ipc).abs() / self.full_ipc
        }
    }

    /// Wall-clock speedup of the sampled run over the full detailed run.
    pub fn speedup(&self) -> f64 {
        if self.sampled.wall_seconds == 0.0 {
            0.0
        } else {
            self.full_wall / self.sampled.wall_seconds
        }
    }
}

/// Runs every workload of `size` both ways (full detailed, then sampled)
/// under each model and returns the comparisons — the sampled-accuracy
/// validation behind the CI smoke step and the acceptance tests.
///
/// # Panics
///
/// Panics if any run deadlocks or fails to halt.
pub fn cross_check(size: Size, models: &[CiModel], sample: &SampleConfig) -> Vec<CrossCheck> {
    let workloads = suite(size);
    let configs: Vec<CellConfig> = models.iter().map(|&m| CellConfig::Model(m)).collect();
    // One thread: the comparison reports host wall-clock speedups.
    run_grid(&Cell::grid(&workloads, &configs, &[16]), 1, |cell| {
        let full = run_cell(cell);
        let w = cell.workload;
        let sampled = run_sampled_as(&w.program, w.frontend, &cell.tp_config(), sample);
        assert_eq!(
            sampled.total_instrs,
            full.stats.retired_instrs,
            "{} {}: sampled run covered a different instruction count",
            full.workload,
            cell.config.name()
        );
        CrossCheck {
            workload: full.workload,
            config: cell.config,
            full_ipc: full.stats.ipc(),
            full_wall: full.wall_seconds,
            sampled,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_workloads::by_name;

    #[test]
    fn sampled_run_covers_the_whole_program() {
        let w = by_name("compress", Size::Tiny).unwrap();
        let cfg = TraceProcessorConfig::paper(CiModel::None);
        let run = run_sampled_as(&w.program, w.frontend, &cfg, &SampleConfig::dense());
        assert!(!run.intervals.is_empty());
        assert_eq!(run.total_instrs, run.detailed_instrs + run.warmup_instrs + run.ffwd_instrs);
        // Same committed work as a plain functional run.
        let mut m = tp_isa::func::Machine::new(&w.program);
        m.run(u64::MAX).unwrap();
        assert_eq!(run.total_instrs, m.retired());
        assert!(run.ipc_estimate() > 0.0);
        assert!(run.detailed_fraction() > 0.0 && run.detailed_fraction() <= 1.0);
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let w = by_name("li", Size::Tiny).unwrap();
        let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
        let a = run_sampled_as(&w.program, w.frontend, &cfg, &SampleConfig::dense());
        let b = run_sampled_as(&w.program, w.frontend, &cfg, &SampleConfig::dense());
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.total_instrs, b.total_instrs);
    }

    /// The three harnesses on the one driver measure the same legs: the
    /// phase series' detailed points are the run's intervals, its
    /// functional points cover the fast-forwarded instructions, and an
    /// unbudgeted capture counts the same intervals over the same program.
    #[test]
    fn sampled_harnesses_agree_on_every_leg() {
        use crate::metrics::{collect_phases, PhasePoint};
        use crate::tap::capture_sampled;

        let regimes =
            [SampleConfig::dense(), SampleConfig { warmup: 300, interval: 2_000, skip: 4_000 }];
        let cells = [
            ("compress", Size::Tiny),
            ("gcc", Size::Small),
            ("jpeg", Size::Small),
            ("dijkstra", Size::Small),
        ];
        for (name, size) in cells {
            let w = by_name(name, size).unwrap();
            for model in [CiModel::MlbRet, CiModel::FgMlbRet] {
                let cell = Cell { workload: &w, config: CellConfig::Model(model), pes: 16 };
                let cfg = cell.tp_config();
                for sample in &regimes {
                    let label = format!("{name} {} {sample:?}", model.name());
                    let run = run_sampled_as(&w.program, w.frontend, &cfg, sample);
                    let phases = collect_phases(&cell, sample);
                    let (ffwd, detailed): (Vec<&PhasePoint>, Vec<_>) =
                        phases.points.iter().partition(|p| p.phase == "ffwd");
                    let legs: Vec<Interval> = detailed.iter().map(|p| p.leg).collect();
                    assert_eq!(legs, run.intervals, "{label}: phase series vs intervals");
                    let skipped: u64 = ffwd.iter().map(|p| p.leg.instrs).sum();
                    assert_eq!(skipped, run.ffwd_instrs, "{label}: functional legs");
                    let cap = capture_sampled(&w.program, w.frontend, &cfg, sample, u64::MAX);
                    assert!(cap.halted, "{label}");
                    assert_eq!(
                        (cap.total_instrs, cap.intervals),
                        (run.total_instrs, run.intervals.len() as u64),
                        "{label}: capture vs run"
                    );
                }
            }
        }
        // A round budget stops the capture short of the halt.
        let w = by_name("gcc", Size::Small).unwrap();
        let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
        let cap = capture_sampled(&w.program, w.frontend, &cfg, &SampleConfig::dense(), 2);
        assert!(!cap.halted);
        assert_eq!(cap.intervals, 2);
    }

    #[test]
    fn interval_math_is_sane() {
        let i = Interval { start_retired: 0, instrs: 300, cycles: 150 };
        assert!((i.ipc() - 2.0).abs() < 1e-12);
        let run = SampledRun {
            intervals: vec![
                Interval { start_retired: 0, instrs: 100, cycles: 100 },
                Interval { start_retired: 500, instrs: 100, cycles: 50 },
            ],
            total_instrs: 1000,
            detailed_instrs: 200,
            warmup_instrs: 50,
            ffwd_instrs: 750,
            wall_seconds: 0.1,
            ffwd_wall_seconds: 0.05,
            attribution: RecoveryAttribution::new(),
        };
        // Cold interval exact (100 cycles), remaining 900 instructions at
        // the steady CPI of 0.5: 550 estimated cycles.
        assert!((run.estimated_cycles() - 550.0).abs() < 1e-9);
        assert!((run.ipc_estimate() - 1000.0 / 550.0).abs() < 1e-12);
        assert_eq!(run.ipc_ci95(), 0.0, "one steady interval has no spread");
        assert!((run.detailed_fraction() - 0.25).abs() < 1e-12);
        // The document carries the same figures, read back by key.
        let cell = SampledCell { workload: "x", config: CellConfig::Model(CiModel::Fg), run };
        let sample = SampleConfig::dense();
        let text = sampled_to_json(&[cell], Size::Tiny, &sample).to_string();
        let doc = crate::json::parse(&text).expect("valid json");
        assert_eq!(doc.str("schema"), Some("tp-bench/sampled/v2"));
        assert_eq!(doc.str("suite_size"), Some("tiny"));
        let warmup = doc.get("sample").and_then(|s| s.get("warmup")).and_then(Json::as_u64);
        assert_eq!(warmup, Some(sample.warmup));
        let rows = doc.get("cells").and_then(Json::as_array).expect("cells array");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].str("model"), Some("FG"));
        assert_eq!(rows[0].get("intervals").and_then(Json::as_u64), Some(2));
        assert_eq!(rows[0].get("total_instrs").and_then(Json::as_u64), Some(1000));
        assert_eq!(rows[0].num("detailed_fraction"), Some(0.25));
        assert_eq!(rows[0].get("attribution").and_then(Json::as_array), Some(&[][..]));
    }
}
