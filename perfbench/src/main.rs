//! Host-throughput benchmark of the trace-processor simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, operations in sequence. Set-up (program
//! builds and functional reference results) runs once before timing
//! starts and, in the untraced run, again between timed operations.
//!
//! With `--trace 0` the timed phase cycles through the workload's
//! operations until they have taken `--seconds` seconds, and every
//! operation runs at least once; the last stdout line carries the
//! end-to-end metrics. With `--trace 1` each operation runs once untraced
//! and once traced, with a span around every call into a crate; the last
//! line carries the per-layer metrics, and the spans are written to
//! `perfbench/out/`. Both runs check every result against the functional
//! `tp-isa` machine and count a panic, a `SimError`, a non-halt, a wrong
//! result or a changed simulated count as a failed operation.

mod calib;
mod cases;
mod heap;
mod report;
mod tracer;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use calib::Calibrator;
use cases::{Case, Kind, OpResult, Setup};
use report::SetupTimes;
use tracer::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// After each untraced operation, set-up repeats until set-up time reaches
/// this share of operation time. Spread over the run like this, the
/// median set-up samples the host over the same window as the operations
/// rather than over the moment before them.
const SETUP_SHARE: f64 = 0.1;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                kind = Some(Kind::parse(&value).ok_or_else(|| bad(&names.join(" | ")))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args { kind, seed, seconds, trace })
}

/// Operation outcomes of one timed phase.
pub struct Tally {
    /// Seconds of each successful attempt, per case.
    pub samples: Vec<Vec<f64>>,
    /// First successful result per case; repeats must equal it.
    pub first: Vec<Option<OpResult>>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Wall seconds of the phase.
    pub wall_s: f64,
    /// Highest live heap, in MiB, during any operation: the inputs held
    /// for the run plus the operation's own working set. Set-up repeats
    /// and calibration between operations are outside it.
    pub peak_heap_mb: f64,
}

impl Tally {
    fn new(cases: usize) -> Tally {
        Tally {
            samples: vec![Vec::new(); cases],
            first: vec![None; cases],
            attempted: 0,
            failed: 0,
            wall_s: 0.0,
            peak_heap_mb: 0.0,
        }
    }

    fn fail(&mut self, label: &str, why: &str) {
        self.failed += 1;
        println!("FAIL {label}: {why}");
    }

    fn record(&mut self, case: usize, label: &str, secs: f64, r: Result<OpResult, String>) {
        self.attempted += 1;
        match (r, &self.first[case]) {
            (Err(e), _) => self.fail(label, &e),
            (Ok(r), Some(first)) if r != *first => {
                self.fail(label, "a repeat did not reproduce the simulated counts");
            }
            (Ok(r), first) => {
                if first.is_none() {
                    self.first[case] = Some(r);
                }
                self.samples[case].push(secs);
            }
        }
    }

    /// Instructions of one pass over the cases that succeeded, per second
    /// of the sum of their median operation times.
    pub fn instrs_per_s(&self) -> f64 {
        let (mut instrs, mut secs) = (0u64, 0.0);
        for (first, samples) in self.first.iter().zip(&self.samples) {
            if let Some(r) = first {
                instrs += r.instrs;
                secs += report::median(samples);
            }
        }
        if secs > 0.0 {
            instrs as f64 / secs
        } else {
            0.0
        }
    }

    /// Simulated counts of one pass, summed over the cases.
    pub fn counts(&self) -> cases::Counts {
        let mut c = cases::Counts::default();
        for r in self.first.iter().flatten() {
            c.merge(&r.counts);
        }
        c
    }
}

/// Runs one operation, counting a panic as a failure.
fn attempt(kind: Kind, case: &Case, id: usize, tr: &mut Tracer) -> (f64, Result<OpResult, String>) {
    let t = Instant::now();
    let r = tr.span(kind.op_span(), id as u64, |tr| {
        catch_unwind(AssertUnwindSafe(|| cases::run_case(case, id as u64, tr)))
    });
    let secs = t.elapsed().as_secs_f64();
    let r = r.unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(format!("panicked: {msg}"))
    });
    (secs, r)
}

/// Cycles through `cases` until their operations have taken `seconds`
/// and each case ran at least once (`seconds = 0`: exactly one pass),
/// calling `between` with the operation seconds so far after each one.
fn timed(
    kind: Kind,
    cases: &[Case],
    seconds: f64,
    tr: &mut Tracer,
    between: &mut dyn FnMut(f64),
) -> Tally {
    let mut tally = Tally::new(cases.len());
    let start = Instant::now();
    let (mut i, mut ops_s) = (0, 0.0);
    while i < cases.len() || ops_s < seconds {
        let c = i % cases.len();
        heap::reset_peak();
        let (secs, r) = attempt(kind, &cases[c], c, tr);
        tally.peak_heap_mb = tally.peak_heap_mb.max(heap::peak_mb());
        tally.record(c, &cases[c].label(), secs, r);
        ops_s += secs;
        i += 1;
        between(ops_s);
    }
    tally.wall_s = start.elapsed().as_secs_f64();
    tally
}

/// Builds `kind`'s inputs once, recording the time.
fn set_up(kind: Kind, seed: u64, times: &mut SetupTimes) -> Setup {
    let t = Instant::now();
    let s = cases::setup(kind, seed);
    times.total.push(t.elapsed().as_secs_f64());
    times.build.push(s.build_s);
    times.reference.push(s.reference_s);
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let bench_speed = match report::BenchSpeed::load() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let kind = args.kind;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}; one process, one thread, \
         operations in sequence",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if !kind.seeded() {
        println!(
            "perfbench: {} takes no seed: its data seeds are built into tp-workloads and the \
             tp-rv corpus",
            kind.name()
        );
    }

    let mut times = SetupTimes { total: Vec::new(), build: Vec::new(), reference: Vec::new() };
    let mut cal = Calibrator::new();
    let setup = set_up(kind, args.seed, &mut times);
    let run = if args.trace {
        let untraced = timed(kind, &setup.cases, 0.0, &mut Tracer::new(false), &mut |_| {});
        let mut tr = Tracer::new(true);
        let traced = timed(kind, &setup.cases, 0.0, &mut tr, &mut |_| {});
        report::Run { untraced, traced: Some((traced, tr)) }
    } else {
        let mut between = |ops_s: f64| {
            cal.after_ops(ops_s);
            while times.total.iter().sum::<f64>() < SETUP_SHARE * ops_s {
                drop(set_up(kind, args.seed, &mut times));
            }
        };
        let untraced =
            timed(kind, &setup.cases, args.seconds, &mut Tracer::new(false), &mut between);
        report::Run { untraced, traced: None }
    };
    println!("{}", report::finish(kind, &setup, &times, &cal, run, &bench_speed));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use cases::{fuzz_case, program_seed, reference, Counts, Reference};
    use tp_bench::sampled::run_sampled_as;
    use tp_bench::SampleConfig;
    use tp_core::{CiModel, TraceProcessorConfig};
    use tp_workloads::{by_name, Size};

    fn cell(name: &'static str, reference: Result<Reference, String>) -> Case {
        let program = by_name(name, Size::Tiny).expect("a suite workload").program;
        Case::Detailed { name, model: CiModel::FgMlbRet, program, reference }
    }

    #[test]
    fn wrong_reference_counts_as_failure() {
        let program = by_name("compress", Size::Tiny).expect("a suite workload").program;
        let good = reference(&program, 1_000_000).expect("compress halts");
        let mut short = good.clone();
        short.retired -= 1;
        let mut other_state = good.clone();
        other_state.arch.regs[1] ^= 1;
        let cases = vec![
            cell("compress", Ok(good)),
            cell("compress", Ok(short)),
            cell("compress", Ok(other_state)),
            cell("compress", Err("no reference".into())),
        ];
        let tally =
            timed(Kind::DetailedRecovery, &cases, 0.0, &mut Tracer::new(false), &mut |_| {});
        assert_eq!((tally.attempted, tally.failed), (4, 3));
        assert!(tally.first[0].is_some());
        assert!(tally.first[1..].iter().all(Option::is_none), "failed cases record no result");
        assert!(tally.instrs_per_s() > 0.0, "throughput covers the passing case");
    }

    #[test]
    fn repeat_with_other_counts_counts_as_failure() {
        let program = by_name("li", Size::Tiny).expect("a suite workload").program;
        let case = cell("li", reference(&program, 1_000_000));
        let mut tally = Tally::new(1);
        let (secs, r) = attempt(Kind::DetailedSteady, &case, 0, &mut Tracer::new(false));
        let mut r = r.expect("li passes");
        tally.record(0, "li", secs, Ok(r.clone()));
        r.counts.0[0] += 1;
        tally.record(0, "li", secs, Ok(r));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn traced_pass_reproduces_untraced_counts() {
        let li = by_name("li", Size::Small).expect("a suite workload");
        let cases = vec![
            cell(
                "compress",
                reference(&by_name("compress", Size::Tiny).expect("ok").program, 1 << 20),
            ),
            Case::Sampled {
                name: "li",
                frontend: li.frontend,
                reference: reference(&li.program, 10_000_000),
                program: li.program,
            },
            fuzz_case(program_seed(7, 0)).expect("seed halts"),
        ];
        let plain = timed(Kind::FuzzCold, &cases, 0.0, &mut Tracer::new(false), &mut |_| {});
        let mut tr = Tracer::new(true);
        let traced = timed(Kind::FuzzCold, &cases, 0.0, &mut tr, &mut |_| {});
        assert_eq!((plain.failed, traced.failed), (0, 0));
        assert_eq!(plain.first, traced.first);
        for name in ["core.run_interval", "core.from_checkpoint", "ckpt.decode", "fuzz.emit"] {
            assert!(tr.count(name) > 0, "no {name} span");
        }
        assert!(tr.index_entries_max() > 0);
        assert!(tr.stage_nanos().iter().sum::<u64>() > 0);
    }

    #[test]
    fn sampled_operation_follows_tp_bench() {
        let w = by_name("compress", Size::Small).expect("a suite workload");
        let cfg = TraceProcessorConfig::paper(CiModel::MlbRet);
        let run = run_sampled_as(&w.program, w.frontend, &cfg, &SampleConfig::sparse());
        let case = Case::Sampled {
            name: w.name,
            frontend: w.frontend,
            reference: reference(&w.program, 10_000_000),
            program: w.program.clone(),
        };
        let r = cases::run_case(&case, 0, &mut Tracer::new(false)).expect("passes");
        assert_eq!(r.instrs, run.total_instrs);
        assert_eq!(r.counts.get("core.retired_instrs"), run.detailed_instrs + run.warmup_instrs);
        assert_ne!(r.counts, Counts::default());
    }

    #[test]
    fn calibrator_samples_at_its_cadence() {
        let mut cal = Calibrator::new();
        assert_eq!(cal.samples(), 1);
        cal.after_ops(0.1);
        assert_eq!(cal.samples(), 1);
        cal.after_ops(0.3);
        cal.after_ops(0.35);
        assert_eq!(cal.samples(), 2);
        assert!(cal.slowdown() > 0.0);
    }

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(report::tail(&v), (30.0, 75.0));
        assert_eq!(report::tail(&v[..5]), (5.0, 100.0));
        assert_eq!(report::median(&v[..4]), 2.5);
    }
}
