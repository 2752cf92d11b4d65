//! Golden-stats regression corpus.
//!
//! Two fixture files under `tests/golden/` pin the simulator's observable
//! behaviour:
//!
//! * `oracle_probes.txt` — the 25 oracle-verified probe cells (5 kernels x
//!   5 control-independence models): cycle counts, retired instructions,
//!   and a digest of committed architectural state. Shared with
//!   `examples/oracle_verify` via `tp_bench::corpus`, so the fixture rows
//!   are exactly that example's output.
//! * `simstats.txt` — full `SimStats` counter snapshots for every workload
//!   of the tiny suite under all five control-independence models. Any
//!   change to dispatch, issue, recovery, bus, or snoop behaviour shows up
//!   here as a counter diff.
//! * `rv_simstats.txt` — the same full-counter snapshots for every
//!   workload of the tiny **RV64 suite** (`tp-rv` frontend) under all five
//!   models. Pins the real-ISA corpus end to end: assembler, decoder,
//!   lowering, and the cycle model's behaviour on compiler-shaped control
//!   flow.
//! * `sampled.txt` — one sampled-mode row (base model, gcc, tiny): the
//!   per-interval `(start, instrs, cycles)` triples and the aggregate
//!   estimate of a checkpointed fast-forward + detailed-interval run.
//!   Pins the whole sampled pipeline — functional warming, the binary
//!   checkpoint round-trip, warm boots, and interval accounting — at
//!   cycle granularity.
//!
//! Both tests run in tier-1 (`cargo test`). On an *intentional* behaviour
//! change, bless new fixtures with:
//!
//! ```text
//! TP_BLESS=1 cargo test --test golden_stats
//! ```
//!
//! and commit the diff — the point is that cycle-level changes are always
//! explicit in review, never accidental.

use std::fmt::Write as _;
use std::path::PathBuf;

use trace_processor::tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use trace_processor::tp_workloads::{suite, Size};

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
}

fn bless_requested() -> bool {
    std::env::var("TP_BLESS").is_ok()
}

/// Compares `actual` against the fixture, or rewrites the fixture under
/// `TP_BLESS=1`.
fn check_against_golden(file: &str, actual: &str) {
    let path = golden_path(file);
    if bless_requested() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("blessing {path:?}: {e}"));
        eprintln!("blessed {path:?}");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path:?} ({e}); run `TP_BLESS=1 cargo test --test golden_stats` once and commit it")
    });
    if expected != actual {
        let mut report = String::new();
        for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            if e != a {
                let _ = writeln!(report, "line {}:\n  golden: {e}\n  actual: {a}", i + 1);
            }
        }
        let (el, al) = (expected.lines().count(), actual.lines().count());
        if el != al {
            let _ = writeln!(report, "line counts differ: golden {el}, actual {al}");
        }
        panic!(
            "golden-corpus drift in {file}:\n{report}\nIf this change is intentional, re-bless \
             with `TP_BLESS=1 cargo test --test golden_stats` and commit the fixture diff."
        );
    }
}

/// The 25 oracle-probe cells must match the fixture bit-for-bit.
#[test]
fn oracle_probes_match_golden() {
    let mut actual = tp_bench::corpus::probe_rows().join("\n");
    actual.push('\n');
    check_against_golden("oracle_probes.txt", &actual);
}

/// The sampled-mode golden row (base model, gcc, tiny): interval-exact
/// behaviour of the checkpoint/fast-forward/warm-boot pipeline.
#[test]
fn sampled_row_matches_golden() {
    use tp_bench::sampled::{run_sampled_as, SampleConfig};
    let w = trace_processor::tp_workloads::by_name("gcc", Size::Tiny).unwrap();
    let cfg = TraceProcessorConfig::paper(CiModel::None);
    // A deliberately small regime so the tiny run exercises several
    // warm-boot rounds and fast-forward legs.
    let sample = SampleConfig { warmup: 100, interval: 400, skip: 200 };
    let run = run_sampled_as(&w.program, w.frontend, &cfg, &sample);
    let mut actual = format!(
        "gcc None sampled total={} detailed={} warmup={} ffwd={} intervals={} est_cycles={:.3} est_ipc={:.6}\n",
        run.total_instrs,
        run.detailed_instrs,
        run.warmup_instrs,
        run.ffwd_instrs,
        run.intervals.len(),
        run.estimated_cycles(),
        run.ipc_estimate(),
    );
    for i in &run.intervals {
        let _ = writeln!(
            actual,
            "  interval start={} instrs={} cycles={}",
            i.start_retired, i.instrs, i.cycles
        );
    }
    check_against_golden("sampled.txt", &actual);
}

const MODELS: [CiModel; 5] =
    [CiModel::None, CiModel::Ret, CiModel::MlbRet, CiModel::Fg, CiModel::FgMlbRet];

fn simstats_rows(workloads: &[trace_processor::tp_workloads::Workload]) -> String {
    let mut actual = String::new();
    for w in workloads {
        for model in MODELS {
            let cfg = TraceProcessorConfig::paper(model);
            let mut sim = TraceProcessor::new(&w.program, cfg);
            let r = sim.run(5_000_000).unwrap_or_else(|e| panic!("{} {model:?}: {e}", w.name));
            assert!(r.halted, "{} {model:?} did not halt", w.name);
            let _ = writeln!(actual, "{} {model:?} {:?}", w.name, r.stats);
        }
    }
    actual
}

/// Per-workload `SimStats` snapshots (tiny suite x all five models) must
/// match the fixture field-for-field.
#[test]
fn simstats_match_golden() {
    check_against_golden("simstats.txt", &simstats_rows(&suite(Size::Tiny)));
}

/// The RV64 suite's `SimStats` snapshots (tiny rv suite x all five models):
/// any change to the frontend (assembler, decoder, lowering) or to how the
/// cycle model treats the corpus's control flow shows up here.
#[test]
fn rv_simstats_match_golden() {
    use trace_processor::tp_workloads::rv_suite;
    check_against_golden("rv_simstats.txt", &simstats_rows(&rv_suite(Size::Tiny)));
}
