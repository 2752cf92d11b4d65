//! Deterministic allocation budget of the detailed simulator.
//!
//! Heap allocations are a host-cost counter that, unlike wall-clock time,
//! is exact and machine-independent: the same cell allocates the same
//! number of times on every run. This binary installs a counting global
//! allocator (it lives in its own test binary so no other test shares
//! it) and checks that small gcc and jpeg cells, under the base model and
//! FG+MLB-RET, stay under a per-cell budget of allocations per retired
//! instruction. The budgets carry about 2x headroom over the measured
//! counts (0.79 / 0.83 for gcc, 0.33 / 0.23 for jpeg). A per-register or
//! per-trace allocation creeping back onto the dispatch/wakeup path costs
//! several allocations per instruction and trips them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tp_core::{CiModel, TraceProcessor, TraceProcessorConfig};
use tp_workloads::{by_name, Size};

thread_local! {
    /// Allocations made by this thread (the test harness's own threads
    /// allocate too, and must not count).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocation calls per thread.
struct Counting;

fn count() {
    // `try_with`: the slot is unavailable while the thread shuts down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; the
// accounting touches only a const-initialized thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as in `dealloc`; `new_size` meets the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(workload, model, max allocations per retired instruction)`.
const BUDGETS: [(&str, CiModel, f64); 4] = [
    ("gcc", CiModel::None, 1.6),
    ("gcc", CiModel::FgMlbRet, 1.7),
    ("jpeg", CiModel::None, 0.65),
    ("jpeg", CiModel::FgMlbRet, 0.45),
];

#[test]
fn detailed_cells_stay_within_allocation_budget() {
    for (name, model, budget) in BUDGETS {
        let workload = by_name(name, Size::Small).expect("known workload");
        // Construction and teardown count too: they are part of a cell.
        let before = ALLOCS.with(Cell::get);
        let mut sim = TraceProcessor::new(&workload.program, TraceProcessorConfig::paper(model));
        let result = sim.run(u64::MAX).unwrap_or_else(|e| panic!("{name} {model:?}: {e}"));
        drop(sim);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert!(result.halted, "{name} {model:?} did not halt");
        let per_instr = allocs as f64 / result.stats.retired_instrs as f64;
        eprintln!(
            "{name} {}: {allocs} allocations / {} retired = {per_instr:.3}",
            model.name(),
            result.stats.retired_instrs
        );
        assert!(
            per_instr <= budget,
            "{name} {}: {per_instr:.3} allocations per retired instruction exceeds the budget \
             of {budget}",
            model.name()
        );
    }
}
