//! Pipeline stage 2: **retirement** — commit the head trace.
//!
//! Implements trace-at-a-time commit (§2): when every slot of the head
//! trace has completed, its register results are written to architectural
//! state, its stores are committed through the ARB, the conditional-branch
//! predictor is trained, and the trace-level predictor/trace cache are
//! updated with the *actual* trace. Under
//! [`TraceProcessorConfig::verify_with_oracle`] every retiring instruction
//! is checked against the functional oracle — per-instruction PC,
//! committed store address/value against the oracle's memory, and
//! per-trace register state. The stage also contains the repair safety
//! nets for recovery corner cases (§3/§4): re-grounding the head's
//! live-ins to retired state, squashing a head that does not continue the
//! committed frontier, and squashing an inconsistent tail left behind by
//! an abandoned CGCI insertion.
//!
//! **Mutates:** architectural registers and the retired rename map, the
//! ARB (store commit), predictors and trace cache (training/fill), the PE
//! list and the freed PE, statistics, and — through the safety nets — the
//! fetch queue/history/mode and slot rename state.

use super::*;
use tp_isa::Inst;
use tp_trace::OperandRef;

impl TraceProcessor<'_> {
    pub(super) fn retire_stage(&mut self, ctx: &CycleCtx) -> Result<(), SimError> {
        let Some(head) = self.list.head() else { return Ok(()) };
        self.reground_head(head, ctx);
        let p = &self.pes[head];
        if !p.occupied {
            return Ok(());
        }
        if !p.all_complete() {
            self.emit_head_stall(ctx.now, head, tp_events::StallReason::Incomplete);
            return Ok(());
        }
        // A head targeted by an in-flight recovery cannot retire.
        if let Some(rec) = &self.recovery {
            if rec.pe == head {
                self.emit_head_stall(ctx.now, head, tp_events::StallReason::Recovery);
                return Ok(());
            }
        }
        // A head awaiting a re-dispatch pass cannot retire.
        if let Some(pass) = &self.redispatch {
            if pass.queue.contains(&head) {
                self.emit_head_stall(ctx.now, head, tp_events::StallReason::Redispatch);
                return Ok(());
            }
        }
        // The preserved CI trace cannot retire while CGCI insertion is
        // still placing control-dependent traces before it.
        if let FetchMode::CgciInsert { before, .. } = self.mode {
            if before == head {
                self.emit_head_stall(ctx.now, head, tp_events::StallReason::CgciInsert);
                return Ok(());
            }
        }
        // Safety net: the head must continue the committed path. A
        // recovery-corner sequence (e.g. an indirect fault whose correct
        // successor was later squashed by an abandoned CGCI attempt) can
        // promote stale wrong-path residue to the head position; its
        // predecessors retired, so no successor check upstream can see it
        // any more. Committing it would teleport the architectural
        // frontier — squash the whole window and refetch from the frontier
        // instead.
        if !self.halted && self.pes[head].trace.id().start() != self.retired_next_pc {
            self.stats.full_squashes += 1;
            let victims: Vec<usize> = self.list.iter().collect();
            for v in victims {
                self.squash_pe(v);
            }
            self.fetch_queue.clear();
            self.redispatch = None;
            self.recovery = None;
            self.set_mode(FetchMode::Normal);
            self.fetch_hist = self.rebuild_history();
            self.current_map = self.retired_map;
            self.expected = ExpectedNext::Known(self.retired_next_pc);
            return Ok(());
        }
        // Safety net: the head must be followed by a consistent successor.
        // An abandoned CGCI insertion (e.g. preempted by a younger recovery)
        // can leave a stale boundary in the window; discovering it here
        // squashes the inconsistent tail and refetches.
        if let Some(next) = self.list.next(head) {
            let start = self.pes[next].trace.id().start();
            if !self.successor_consistent(head, start) {
                self.stats.full_squashes += 1;
                let victims: Vec<usize> = self.list.iter_after(head).collect();
                for v in victims {
                    self.squash_pe(v);
                }
                self.fetch_queue.clear();
                self.redispatch = None;
                self.set_mode(FetchMode::Normal);
                self.fetch_hist = self.rebuild_history();
                self.current_map = self.pes[head].map_after;
                self.expected = self.expected_after_pe(head);
                return Ok(());
            }
        }
        self.retire_pe(head)
    }

    /// The head trace has nothing older than retired state: every live-in
    /// must be bound to the retired architectural registers. Recovery corner
    /// cases (e.g. a CGCI insertion abandoned after its control-dependent
    /// traces were squashed) can leave stale bindings; re-grounding the head
    /// restores them and selectively reissues affected instructions —
    /// without it the head could wait forever on a squashed producer.
    fn reground_head(&mut self, head: usize, ctx: &CycleCtx) {
        if !self.pes[head].occupied {
            return;
        }
        let retired_map = self.retired_map;
        let now = ctx.now;
        let mut rebound = std::mem::take(&mut self.scratch_rebind);
        let mut requeue = std::mem::take(&mut self.scratch_slots);
        rebound.clear();
        requeue.clear();
        {
            let slots = &mut self.pes[head].slots;
            for (i, slot) in slots.iter_mut().enumerate() {
                let tis = slot.ti.srcs;
                let mut changed = false;
                for (k, &(_, oref)) in tis.iter().flatten().enumerate() {
                    if let OperandRef::LiveIn(r) = oref {
                        if r.is_zero() {
                            continue;
                        }
                        let want = retired_map[r.index()];
                        if slot.srcs[k] != Some(want) {
                            slot.srcs[k] = Some(want);
                            changed = true;
                            rebound.push((want, i));
                        }
                    }
                }
                if changed {
                    requeue.push(i);
                }
            }
        }
        let rebinds = rebound.len();
        self.stats.head_rebinds += rebinds as u64;
        for &(preg, i) in &rebound {
            self.register_reader(preg, head, i);
        }
        // Rebound live-ins re-enter the wakeup index (retired registers
        // are always produced, so these become issue candidates at once).
        for &i in &requeue {
            self.rebind_reissue_slot(head, i, now + 1);
        }
        self.scratch_rebind = rebound;
        self.scratch_slots = requeue;
        if rebinds == 0 {
            return;
        }
        // The map chain after the head starts from its (possibly corrected)
        // map; recompute map_before/map_after so later re-dispatch passes
        // chain correctly.
        let trace = self.pes[head].trace.clone();
        let mut map_before = self.pes[head].map_before;
        for r in trace.live_ins() {
            map_before[r.index()] = retired_map[r.index()];
        }
        self.pes[head].map_before = map_before;
        let mut map_after = map_before;
        for r in trace.live_outs() {
            let w = trace.last_writer(*r).expect("live-out has a writer");
            map_after[r.index()] = self.pes[head].slots[w].dest.expect("writer has a destination");
        }
        self.pes[head].map_after = map_after;
    }

    fn retire_pe(&mut self, pe: usize) -> Result<(), SimError> {
        let trace = self.pes[pe].trace.clone();
        // Commit in slot order: registers then stores.
        for slot in 0..self.pes[pe].slots.len() {
            let (dest_arch, value, is_store, addr, outcome, pc, inst) = {
                let s = &self.pes[pe].slots[slot];
                (
                    s.ti.dest,
                    s.value,
                    matches!(s.ti.inst, Inst::Store { .. }),
                    s.mem_addr,
                    s.outcome,
                    s.ti.pc,
                    s.ti.inst,
                )
            };
            if let Some(r) = dest_arch {
                self.arch_regs[r.index()] = value;
                let preg = self.pes[pe].slots[slot].dest.expect("dest register allocated");
                self.retired_map[r.index()] = preg;
            }
            if is_store {
                let addr = addr.expect("completed store has an address");
                let h = Self::handle(pe, slot);
                self.arb.commit(addr, h);
                self.demote_committed_source(addr, h);
            }
            if inst.is_cond_branch() {
                let taken = outcome.expect("completed branch has an outcome");
                self.btb.update_cond(pc, taken);
                self.stats.retired_cond_branches += 1;
                if self.pes[pe].slots[slot].was_mispredicted {
                    self.stats.retired_cond_mispredicts += 1;
                    // Retirement-side attribution: the per-class `retired`
                    // counts sum to `retired_cond_mispredicts` exactly.
                    let s = &self.pes[pe].slots[slot];
                    let key = s.attr.unwrap_or((
                        s.ti.ci_branch_class().expect("mispredicted slot is a cond branch"),
                        tp_stats::attr::Heuristic::None,
                        tp_stats::attr::RecoveryOutcome::FullSquash,
                    ));
                    self.attribution.cell_mut(key).retired += 1;
                    // Retiring under a still-pending CGCI attempt: the
                    // count above used the provisional outcome; flag it so
                    // resolution can migrate it if the attempt fails.
                    let dispatched_at = self.pes[pe].dispatched_at;
                    if let Some(p) = self.cgci_pending.as_mut() {
                        if p.fault == (pe, slot, pc) && p.fault_dispatched_at == dispatched_at {
                            p.retired_provisionally = true;
                        }
                    }
                }
            }
            // Oracle verification, one instruction at a time.
            if let Some(oracle) = &mut self.oracle {
                let step = oracle.step().map_err(|e| SimError::OracleMismatch {
                    cycle: self.now,
                    detail: format!("oracle left program: {e}"),
                })?;
                if step.pc != pc {
                    return Err(SimError::OracleMismatch {
                        cycle: self.now,
                        detail: format!(
                            "retired pc {pc} but oracle executed pc {} (trace {})",
                            step.pc,
                            trace.id()
                        ),
                    });
                }
                // Memory commits are verified here, store by store — a
                // wrong committed store would otherwise stay silent until
                // an arbitrarily-later load reads it back (the per-trace
                // register check cannot see it).
                if is_store {
                    let committed = addr.expect("completed store has an address");
                    let oracle_ea = step.ea.unwrap_or(u64::MAX);
                    if committed >> 3 != oracle_ea >> 3 {
                        return Err(SimError::OracleMismatch {
                            cycle: self.now,
                            detail: format!(
                                "store at pc {pc} committed word {:#x} but oracle wrote {:#x} \
                                 (trace {})",
                                committed >> 3,
                                oracle_ea >> 3,
                                trace.id()
                            ),
                        });
                    }
                    let oracle_val = oracle.mem_word(oracle_ea);
                    if oracle_val != value {
                        return Err(SimError::OracleMismatch {
                            cycle: self.now,
                            detail: format!(
                                "store at pc {pc} committed value {value} but oracle wrote \
                                 {oracle_val} (trace {})",
                                trace.id()
                            ),
                        });
                    }
                }
            }
        }
        if let Some(oracle) = &self.oracle {
            for r in Reg::all() {
                if oracle.reg(r) != self.arch_regs[r.index()] {
                    return Err(SimError::OracleMismatch {
                        cycle: self.now,
                        detail: format!(
                            "after trace {}: {r} committed {} but oracle has {} (oracle retired \
                             {} halted {}, sim retired {})",
                            trace.id(),
                            self.arch_regs[r.index()],
                            oracle.reg(r),
                            oracle.retired(),
                            oracle.halted(),
                            self.stats.retired_instrs
                        ),
                    });
                }
            }
        }
        // Advance the retired architectural frontier — the PC a functional
        // machine resuming after this trace would fetch next. Retired
        // traces are on the committed path, so an indirect ending has a
        // resolved target and a static ending a known fall-out PC
        // (`OutOfProgram` traces exist only on wrong paths and never
        // retire).
        self.retired_next_pc = match trace.end() {
            EndReason::Halt => self.retired_next_pc,
            EndReason::Indirect => {
                let last = self.pes[pe].slots.last().expect("trace is non-empty");
                last.indirect_target.expect("retired indirect transfer has a target") as Pc
            }
            _ => trace.next_pc().expect("static end has next"),
        };
        // Train the trace-level predictor with the canonical (actual) trace.
        self.predictor.train(&self.retire_hist, trace.id());
        self.retire_hist.push(trace.id());
        self.tcache.fill(trace.clone());
        // Statistics.
        self.stats.retired_traces += 1;
        self.stats.retired_instrs += self.pes[pe].slots.len() as u64;
        if self.events.wants(Category::Trace) {
            self.events.emit(
                self.now,
                Event::TraceRetired {
                    pe: pe as u8,
                    pc: trace.id().start(),
                    len: self.pes[pe].slots.len().min(255) as u8,
                },
            );
        }
        if self.pes[pe].source != FetchSource::Fallback {
            self.stats.predicted_traces += 1;
        }
        if self.pes[pe].repairs > 0 {
            self.stats.trace_mispredictions += 1;
        }
        self.last_retire_cycle = self.now;
        if trace.end() == EndReason::Halt {
            self.halted = true;
        }
        // Retirement writes values back to the global register file: they
        // become visible to every PE even if a result-bus grant was still
        // pending (the grant request dies with the generation bump below).
        for slot in 0..self.pes[pe].slots.len() {
            if let Some(d) = self.pes[pe].slots[slot].dest {
                let now = self.now;
                let r = self.pregs.get_mut(d);
                r.global_ready_at = r.global_ready_at.min(now);
                r.local_ready_at = r.local_ready_at.min(now);
            }
        }
        // Free the PE. The gen bump invalidates its wakeup-index entries;
        // a fully-complete trace holds no ready bits to clear, but reset
        // defensively to keep the positional mask invariant unconditional.
        if self.paranoid {
            assert_eq!(self.wakeup.ready[pe], 0, "retiring pe{pe} with ready bits set");
        }
        self.index_reset_pe(pe);
        self.list.remove(pe);
        self.pes[pe].occupied = false;
        self.pes[pe].gen += 1;
        Ok(())
    }
}
