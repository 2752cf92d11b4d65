//! Pipeline stage 5: **dispatch** — rename a fetched trace and allocate it
//! to a processing element.
//!
//! Implements trace dispatch (§2): one trace per cycle leaves the fetch
//! queue, its live-ins are renamed through the current speculative map, its
//! live-outs are allocated fresh physical registers, and it is appended at
//! the tail of the PE list — or, during CGCI insertion (§4), linked into
//! the *middle* of the window immediately before the preserved
//! control-independent trace. When the window is full during insertion,
//! the most speculative tail PE is reclaimed (squashed) to make room. The
//! dispatch bus is shared with re-dispatch passes
//! ([`redispatch`](super::redispatch)), which take priority.
//!
//! **Mutates:** the fetch queue/mode, the target PE (slots, rename maps,
//! generation), the PE list, the speculative rename-map chain, reader
//! registrations, the physical register file (allocations), and statistics.

use super::*;
use crate::pe::Slot;
use tp_trace::OperandRef;

impl TraceProcessor<'_> {
    pub(super) fn dispatch_stage(&mut self, ctx: &CycleCtx, prof: Option<&StageProfiler>) {
        if self.halted {
            return;
        }
        // Re-dispatch passes own the dispatch bus (and their own timer:
        // re-dispatch is its own stage module, merely sharing the slot).
        if self.redispatch.is_some() {
            let _t = ScopedStageTimer::new(prof, Stage::Redispatch);
            self.redispatch_step(ctx);
            return;
        }
        let _t = ScopedStageTimer::new(prof, Stage::Dispatch);
        let Some(front_ready_at) = self.fetch_queue.front().map(|p| p.ready_at) else { return };
        if ctx.now < front_ready_at {
            return;
        }
        // Pick the PE: insertion point (CGCI) or tail.
        let insert_before = match self.mode {
            FetchMode::CgciInsert { before, before_gen, .. } => {
                if !self.pes[before].occupied
                    || self.pes[before].gen != before_gen
                    || !self.list.contains(before)
                {
                    self.set_mode(FetchMode::Normal);
                    None
                } else {
                    Some(before)
                }
            }
            FetchMode::Normal => None,
        };
        // Consistency: the front trace must follow the current predecessor.
        let pred = match insert_before {
            Some(b) => self.list.prev(b),
            None => self.list.tail(),
        };
        if let Some(pred) = pred {
            let front_start = self.fetch_queue.front().expect("checked above").trace.id().start();
            if !self.successor_consistent(pred, front_start) {
                // The window changed under the queue (recovery): refetch.
                self.fetch_queue.clear();
                self.fetch_hist = self.rebuild_history();
                self.expected = self.expected_after_tail();
                return;
            }
        }
        // Find a free PE.
        let free = (0..self.cfg.num_pes).find(|&i| !self.pes[i].occupied);
        let Some(pe) = free else {
            match self.mode {
                FetchMode::CgciInsert { before, .. } => {
                    // The window filled before re-convergence: the
                    // correct control-dependent path needs more room
                    // than the squash freed, so the attempt cannot pay
                    // off. Abandon it outright — squash the preserved
                    // suffix and resume normal fetch — rather than
                    // reclaiming the suffix one tail per cycle, which
                    // made a failed attempt cost strictly more than
                    // the full squash it degenerates to.
                    let mut victims = std::mem::take(&mut self.scratch_pes);
                    victims.clear();
                    victims.push(before);
                    victims.extend(self.list.iter_after(before));
                    if let Some(p) = self.cgci_pending.as_mut() {
                        p.squashed += victims.len() as u64;
                    }
                    for &v in &victims {
                        self.squash_pe(v);
                        self.stats.tail_reclaims += 1;
                    }
                    self.scratch_pes = victims;
                    self.set_mode(FetchMode::Normal);
                    // The fetch queue holds correct-path (post-branch)
                    // traces and the fetch history tracks them; both
                    // stay — dispatch simply continues at the tail.
                    return; // dispatch resumes next cycle
                }
                FetchMode::Normal => return, // window full: stall
            }
        };
        let pending = self.fetch_queue.pop_front().expect("checked front");
        if let FetchMode::CgciInsert { ref mut inserted, .. } = self.mode {
            *inserted += 1;
        }
        self.dispatch_trace(pe, pending, insert_before, ctx);
    }

    /// Whether a trace starting at `start` is a consistent successor of the
    /// trace in `pred`. (Also used by retirement's stale-boundary safety
    /// net.)
    pub(super) fn successor_consistent(&self, pred: usize, start: Pc) -> bool {
        let t = &self.pes[pred].trace;
        match t.end() {
            EndReason::MaxLen | EndReason::Ntb => t.next_pc() == Some(start),
            EndReason::Indirect => {
                let last = self.pes[pred].slots.len() - 1;
                let s = &self.pes[pred].slots[last];
                if s.state == SlotState::Done && !s.pending_reissue {
                    s.indirect_target == Some(start as Word)
                } else {
                    true // unresolved: dispatch speculatively
                }
            }
            EndReason::Halt | EndReason::OutOfProgram => false,
        }
    }

    fn dispatch_trace(
        &mut self,
        pe: usize,
        pending: Pending,
        insert_before: Option<usize>,
        ctx: &CycleCtx,
    ) {
        let trace = pending.trace;
        let map_before = self.current_map;
        self.pes[pe].gen += 1;
        // Refill the PE's own slot buffer: its previous trace (retired or
        // squashed) is dead, and reusing the capacity keeps dispatch free
        // of allocation.
        let mut slots = std::mem::take(&mut self.pes[pe].slots);
        slots.clear();
        slots.reserve(trace.len());
        for (i, ti) in trace.insts().iter().enumerate() {
            let mut slot = Slot::new(*ti);
            for (k, &(_, oref)) in ti.srcs.iter().flatten().enumerate() {
                let preg = match oref {
                    OperandRef::LiveIn(r) if r.is_zero() => PhysRegId::ZERO,
                    OperandRef::LiveIn(r) => map_before[r.index()],
                    OperandRef::Local(j) => {
                        slots[j as usize].dest.expect("local producer has a destination")
                    }
                };
                slot.srcs[k] = Some(preg);
            }
            if ti.dest.is_some() {
                slot.dest = Some(self.pregs.alloc(Some(pe as u8)));
            }
            slot.is_liveout = match ti.dest {
                Some(d) => trace.last_writer(d) == Some(i),
                None => false,
            };
            slots.push(slot);
        }
        let mut map_after = map_before;
        for r in trace.live_outs() {
            let w = trace.last_writer(*r).expect("live-out has a writer");
            map_after[r.index()] = slots[w].dest.expect("writer has a destination");
        }
        // Register readers.
        for (i, slot) in slots.iter().enumerate() {
            for preg in slot.srcs.iter().flatten() {
                self.register_reader(*preg, pe, i);
            }
        }
        let num_slots = slots.len();
        let p = &mut self.pes[pe];
        p.occupied = true;
        p.trace = trace;
        p.slots = slots;
        p.map_before = map_before;
        p.map_after = map_after;
        p.hist_before = pending.hist_before;
        p.source = pending.source;
        p.repairs = 0;
        p.dispatched_at = ctx.now;
        self.current_map = map_after;
        match insert_before {
            Some(b) => self.list.insert_before(pe, b),
            None => self.list.push_tail(pe),
        }
        // Seed the wakeup index: every slot starts Waiting; slots with
        // unproduced sources subscribe to their producers' wait lists.
        self.index_reset_pe(pe);
        for i in 0..num_slots {
            self.index_enqueue(pe, i);
        }
        self.stats.dispatched_traces += 1;
        if self.events.wants(Category::Trace) {
            let pc = self.pes[pe].trace.id().start();
            self.events.emit(
                ctx.now,
                Event::TraceDispatched {
                    pe: pe as u8,
                    pc,
                    len: num_slots.min(255) as u8,
                    cgci_insert: insert_before.is_some(),
                },
            );
        }
    }
}
