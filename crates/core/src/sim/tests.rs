//! Behavioural tests for the whole simulator: oracle-verified runs across
//! every control-independence model on programs engineered to exercise
//! FGCI (hammocks), MLB (unpredictable loop exits), and RET (calls).

use super::*;
use crate::config::CiModel;
use tp_isa::asm::Asm;
use tp_isa::func::Machine;
use tp_isa::synth::{self, SynthConfig};
use tp_isa::{AluOp, Cond};

const ALL_MODELS: [CiModel; 5] =
    [CiModel::None, CiModel::Ret, CiModel::MlbRet, CiModel::Fg, CiModel::FgMlbRet];

fn run_verified(program: &Program, model: CiModel) -> RunResult {
    let cfg = TraceProcessorConfig::paper(model).with_oracle();
    let mut sim = TraceProcessor::new(program, cfg);
    let result = sim.run(5_000_000).unwrap_or_else(|e| panic!("{}: {e}", program.name()));
    assert!(result.halted, "{} did not halt under {model:?}", program.name());
    // Cross-check final architectural state against the oracle.
    let mut oracle = Machine::new(program);
    oracle.run(u64::MAX).expect("oracle runs");
    assert_eq!(sim.arch_state(), oracle.arch_state(), "{} state mismatch", program.name());
    assert_eq!(
        result.stats.retired_instrs,
        oracle.retired(),
        "{} retired-count mismatch",
        program.name()
    );
    result
}

fn straightline_program() -> Program {
    let mut a = Asm::new("straight");
    let (r1, r2, r3) = (Reg::new(1), Reg::new(2), Reg::new(3));
    a.li(r1, 5);
    a.li(r2, 7);
    a.alu(AluOp::Mul, r3, r1, r2);
    a.li(r1, 0x200);
    a.store(r3, r1, 0);
    a.load(r2, r1, 0);
    a.addi(r2, r2, 1);
    a.halt();
    a.assemble().unwrap()
}

fn counted_loop_program(n: i32) -> Program {
    let mut a = Asm::new("loop");
    let (r1, r2) = (Reg::new(1), Reg::new(2));
    a.li(r1, n);
    a.li(r2, 0);
    a.label("top");
    a.addi(r2, r2, 3);
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "top");
    a.halt();
    a.assemble().unwrap()
}

/// Data-dependent hammocks inside a loop: heavy FGCI territory.
fn hammock_loop_program() -> Program {
    let mut a = Asm::new("hammocks");
    let (r1, r2, r3, r4, r5) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
    a.li64(r5, tp_isa::DATA_BASE as i64);
    a.li(r1, 200); // iterations
    a.li(r2, 0);
    a.label("top");
    // Load pseudo-random word and branch on it.
    a.alui(AluOp::And, r3, r1, 63);
    a.alui(AluOp::Shl, r3, r3, 3);
    a.add(r3, r3, r5);
    a.load(r4, r3, 0);
    a.branch(Cond::Lt, r4, Reg::ZERO, "else");
    a.addi(r2, r2, 1);
    a.jump("join");
    a.label("else");
    a.addi(r2, r2, 2);
    a.addi(r2, r2, 3);
    a.label("join");
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "top");
    a.store(r2, r5, 0);
    a.halt();
    // Pseudo-random data.
    let mut x: i64 = 0x1234_5678;
    for i in 0..64u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        a.data_word(tp_isa::DATA_BASE + 8 * i, x >> 13);
    }
    a.assemble().unwrap()
}

/// Short loops with data-dependent trip counts inside an outer loop:
/// heavy MLB territory.
fn unpredictable_loops_program() -> Program {
    let mut a = Asm::new("mlb");
    let (r1, r2, r3, r4, r5) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
    a.li64(r5, tp_isa::DATA_BASE as i64);
    a.li(r1, 150);
    a.li(r2, 0);
    a.label("outer");
    a.alui(AluOp::And, r3, r1, 31);
    a.alui(AluOp::Shl, r3, r3, 3);
    a.add(r3, r3, r5);
    a.load(r4, r3, 0);
    a.alui(AluOp::And, r4, r4, 3);
    a.addi(r4, r4, 1); // inner trip 1..=4
    a.label("inner");
    a.addi(r2, r2, 1);
    a.addi(r4, r4, -1);
    a.branch(Cond::Gt, r4, Reg::ZERO, "inner");
    // Control independent work after the loop exit.
    a.addi(r2, r2, 10);
    a.alui(AluOp::Xor, r2, r2, 5);
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "outer");
    a.store(r2, r5, 8);
    a.halt();
    let mut x: i64 = 99;
    for i in 0..32u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        a.data_word(tp_isa::DATA_BASE + 8 * i, (x >> 7).abs());
    }
    a.assemble().unwrap()
}

/// Function calls with a data-dependent branch inside the caller: RET
/// territory (re-convergence at the return target).
fn call_heavy_program() -> Program {
    let mut a = Asm::new("calls");
    let (r1, r2, r3, r4, r5) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
    a.li64(Reg::SP, tp_isa::STACK_BASE as i64);
    a.li64(r5, tp_isa::DATA_BASE as i64);
    a.li(r1, 120);
    a.li(r2, 0);
    a.label("top");
    a.alui(AluOp::And, r3, r1, 15);
    a.alui(AluOp::Shl, r3, r3, 3);
    a.add(r3, r3, r5);
    a.load(r4, r3, 0);
    a.call("f");
    a.addi(r2, r2, 1);
    a.addi(r1, r1, -1);
    a.branch(Cond::Gt, r1, Reg::ZERO, "top");
    a.store(r2, r5, 16);
    a.halt();
    a.label("f");
    // Unpredictable branch inside the function; both paths return.
    a.branch(Cond::Lt, r4, Reg::ZERO, "neg");
    a.addi(r2, r2, 2);
    a.ret();
    a.label("neg");
    a.addi(r2, r2, 5);
    a.addi(r2, r2, 7);
    a.ret();
    let mut x: i64 = 7;
    for i in 0..16u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        a.data_word(tp_isa::DATA_BASE + 8 * i, x >> 3);
    }
    a.assemble().unwrap()
}

#[test]
fn straightline_commits_correctly() {
    for model in ALL_MODELS {
        let r = run_verified(&straightline_program(), model);
        assert_eq!(r.stats.retired_instrs, 8);
    }
}

#[test]
fn counted_loop_all_models() {
    for model in ALL_MODELS {
        let r = run_verified(&counted_loop_program(300), model);
        assert!(r.stats.ipc() > 0.3, "{model:?} ipc {}", r.stats.ipc());
    }
}

#[test]
fn hammock_loop_all_models() {
    for model in ALL_MODELS {
        run_verified(&hammock_loop_program(), model);
    }
}

#[test]
fn fgci_recoveries_trigger_on_hammocks() {
    let p = hammock_loop_program();
    let cfg = TraceProcessorConfig::paper(CiModel::Fg).with_oracle();
    let mut sim = TraceProcessor::new(&p, cfg);
    sim.run(5_000_000).unwrap();
    assert!(sim.stats().fgci_recoveries > 0, "expected FGCI recoveries: {:?}", sim.stats());
}

#[test]
fn mlb_recoveries_trigger_on_unpredictable_loops() {
    let p = unpredictable_loops_program();
    let cfg = TraceProcessorConfig::paper(CiModel::MlbRet).with_oracle();
    let mut sim = TraceProcessor::new(&p, cfg);
    sim.run(5_000_000).unwrap();
    assert!(sim.stats().cgci_attempts > 0, "expected CGCI attempts: {:?}", sim.stats());
    assert!(sim.stats().cgci_reconverged > 0, "expected reconvergence: {:?}", sim.stats());
}

#[test]
fn unpredictable_loops_all_models() {
    for model in ALL_MODELS {
        run_verified(&unpredictable_loops_program(), model);
    }
}

#[test]
fn ret_recoveries_trigger_on_calls() {
    let p = call_heavy_program();
    let cfg = TraceProcessorConfig::paper(CiModel::Ret).with_oracle();
    let mut sim = TraceProcessor::new(&p, cfg);
    sim.run(5_000_000).unwrap();
    assert!(sim.stats().cgci_attempts > 0, "expected CGCI attempts: {:?}", sim.stats());
}

#[test]
fn call_heavy_all_models() {
    for model in ALL_MODELS {
        run_verified(&call_heavy_program(), model);
    }
}

#[test]
fn synthetic_programs_match_oracle_small() {
    let cfg = SynthConfig::small();
    for seed in 0..6 {
        let p = synth::generate(&cfg, seed);
        for model in ALL_MODELS {
            run_verified(&p, model);
        }
    }
}

#[test]
fn synthetic_programs_match_oracle_default() {
    let cfg = SynthConfig::default();
    for seed in 100..104 {
        let p = synth::generate(&cfg, seed);
        for model in ALL_MODELS {
            run_verified(&p, model);
        }
    }
}

#[test]
fn stats_are_consistent() {
    let p = hammock_loop_program();
    let cfg = TraceProcessorConfig::paper(CiModel::FgMlbRet);
    let mut sim = TraceProcessor::new(&p, cfg);
    let r = sim.run(5_000_000).unwrap();
    let s = r.stats;
    assert!(s.retired_traces > 0);
    assert!(s.avg_trace_len() > 1.0);
    assert!(s.dispatched_traces >= s.retired_traces);
    assert!(s.issue_events >= s.retired_instrs);
    assert!(s.cycles > 0);
    assert!(s.retired_cond_branches > 0);
}

#[test]
fn small_config_works() {
    for model in ALL_MODELS {
        let cfg = TraceProcessorConfig::small(model).with_oracle();
        let p = counted_loop_program(50);
        let mut sim = TraceProcessor::new(&p, cfg);
        let r = sim.run(1_000_000).unwrap();
        assert!(r.halted);
    }
}

/// The wakeup index must agree with a brute-force window rescan after
/// *every* cycle of mispredict-heavy runs — the strongest possible
/// coherence guarantee for the event-driven issue path. Uses the
/// adversarial kernels (hammocks, unpredictable loop exits, calls) plus a
/// synthetic program, under every control-independence model, so squash,
/// FGCI repair, CGCI insertion, selective reissue, and snooping all hit
/// the checker.
#[test]
fn wakeup_index_matches_rescan_every_cycle() {
    let programs = [
        hammock_loop_program(),
        unpredictable_loops_program(),
        call_heavy_program(),
        synth::generate(&SynthConfig::small(), 11),
    ];
    for p in &programs {
        for model in ALL_MODELS {
            let cfg = TraceProcessorConfig::paper(model).with_oracle();
            let mut sim = TraceProcessor::new(p, cfg);
            let mut cycles = 0u64;
            while !sim.halted() && cycles < 200_000 {
                sim.step_cycle().unwrap_or_else(|e| panic!("{} {model:?}: {e}", p.name()));
                sim.assert_event_index_coherent();
                cycles += 1;
            }
            assert!(sim.halted(), "{} {model:?} did not halt", p.name());
        }
    }
}

/// The subscription indices' live counts drive the amortized sweeps; if
/// they drift from the true sizes, collection either thrashes or never
/// fires. After a run heavy enough to trigger all three sweeps, each live
/// count must equal both its walked chain lengths and its arena nodes off
/// the free list.
#[test]
fn index_footprint_counters_stay_exact() {
    let p = unpredictable_loops_program();
    for model in [CiModel::None, CiModel::FgMlbRet] {
        let cfg = TraceProcessorConfig::paper(model);
        let mut sim = TraceProcessor::new(&p, cfg);
        sim.run(5_000_000).unwrap();
        let (waiters, _, _, loads) = sim.index_footprint();
        assert_eq!(sim.wakeup.waiters.recount(), (waiters, waiters), "{model:?} waiters drifted");
        let readers = sim.readers.len();
        assert_eq!(sim.readers.recount(), (readers, readers), "{model:?} readers drifted");
        assert_eq!(sim.wakeup.loads.recount(), (loads, loads), "{model:?} loads drifted");
    }
}

/// A mid-run wakeup-index sweep must not change behaviour: compare a run
/// against one whose GC thresholds are forced to fire constantly.
#[test]
fn gc_sweeps_are_behaviour_invisible() {
    let p = hammock_loop_program();
    let cfg = TraceProcessorConfig::paper(CiModel::FgMlbRet);
    let mut base = TraceProcessor::new(&p, cfg.clone());
    let base_r = base.run(5_000_000).unwrap();
    let mut swept = TraceProcessor::new(&p, cfg);
    while !swept.halted() {
        // Force every sweep to run each cycle.
        swept.wakeup.waiters.gc_at = 0;
        swept.readers.gc_at = 0;
        swept.wakeup.loads.gc_at = 0;
        swept.step_cycle().unwrap();
        swept.assert_event_index_coherent();
    }
    assert_eq!(base_r.stats, *swept.stats(), "sweeps changed observable behaviour");
}
