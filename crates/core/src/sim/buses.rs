//! Pipeline stage 7: **buses** — shared cache buses, the ARB, and global
//! result buses.
//!
//! Implements the shared interconnect (§2) and the data-speculation side of
//! selective recovery (§5): cache-bus grants perform the actual memory
//! accesses — loads read the youngest older version from the address
//! resolution buffer (using the PE list's physical-to-logical translation
//! for memory ordering), stores insert speculative versions and *snoop*
//! every live load on the same word so that memory-order violations trigger
//! selective reissue rather than a squash. Result-bus grants make live-out
//! values globally visible to other PEs after the bypass latency. Both
//! arbiters are bounded per cycle and per PE, preserving request order.
//!
//! Both arbiters are event-driven: each queue carries a `next_due` horizon
//! (the earliest cycle anything in it could be granted), so idle cycles
//! skip the pass entirely, and a granting pass is a single in-place
//! `retain` sweep instead of a drain-and-requeue of the whole queue.
//! Store/undo snooping consults the wakeup index's per-word load registry
//! ([`WakeupIndex`](super::WakeupIndex) invariant 4) instead of rescanning
//! every slot of every PE.
//!
//! **Mutates:** the bus request queues and their horizons, slot state and
//! values, the ARB and data cache, physical-register global visibility,
//! the wakeup index (completion events, load registry, reissue wakeups),
//! and snoop-reissue statistics.

use super::*;
use tp_isa::{Addr, Inst};

/// Which shared interconnect an arbiter pass serves. The two buses share
/// one grant skeleton ([`TraceProcessor::grant_buses`]); only the limits,
/// the request-validity predicate, and the grant action differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BusKind {
    /// ARB/data-cache buses: grants perform the memory access.
    Cache,
    /// Global result buses: grants make a live-out globally visible.
    Result,
}

impl TraceProcessor<'_> {
    pub(super) fn bus_stage(&mut self, ctx: &CycleCtx) {
        self.grant_buses(ctx, BusKind::Cache);
        self.grant_buses(ctx, BusKind::Result);
    }

    /// One arbiter pass: a single in-place `retain` sweep over the queue,
    /// granting in request order up to the total and per-PE limits,
    /// dropping requests whose generation died, and recomputing the
    /// `next_due` horizon that lets idle cycles skip the pass entirely
    /// (`now + 1` whenever a grantable request was blocked by a limit).
    fn grant_buses(&mut self, ctx: &CycleCtx, kind: BusKind) {
        let now = ctx.now;
        let horizon = match kind {
            BusKind::Cache => self.cache_bus_next_due,
            BusKind::Result => self.result_bus_next_due,
        };
        if horizon > now {
            return; // nothing could be granted this cycle
        }
        let (total_limit, per_pe_limit) = match kind {
            BusKind::Cache => (self.cfg.cache_buses, self.cfg.cache_buses_per_pe),
            BusKind::Result => (self.cfg.result_buses, self.cfg.result_buses_per_pe),
        };
        let mut granted_total = 0;
        let mut granted_per_pe = std::mem::take(&mut self.scratch_grants);
        granted_per_pe.clear();
        granted_per_pe.resize(self.cfg.num_pes, 0);
        let mut queue = match kind {
            BusKind::Cache => std::mem::take(&mut self.cache_bus_queue),
            BusKind::Result => std::mem::take(&mut self.result_bus_queue),
        };
        let waiting_at_start = queue.len();
        // Grant actions may (now or in the future) push *new* requests via
        // push_cache_req/push_result_req while the queue is taken out;
        // resetting the live horizon here and merging it back below keeps
        // such pushes — and their horizon updates — from being lost when
        // the swept queue is restored.
        match kind {
            BusKind::Cache => self.cache_bus_next_due = u64::MAX,
            BusKind::Result => self.result_bus_next_due = u64::MAX,
        }
        let mut next_due = u64::MAX;
        queue.retain(|&req| {
            if granted_total >= total_limit {
                // Buses exhausted: keep the tail untouched, retry next cycle.
                next_due = next_due.min(now + 1);
                return true;
            }
            let valid = {
                let p = &self.pes[req.pe];
                let live = p.occupied && p.gen == req.gen && req.slot < p.slots.len();
                live && match kind {
                    BusKind::Cache => {
                        matches!(p.slots[req.slot].state, SlotState::WaitingBus { .. })
                            && self.list.contains(req.pe)
                    }
                    BusKind::Result => {
                        p.slots[req.slot].is_liveout && p.slots[req.slot].dest.is_some()
                    }
                }
            };
            if !valid {
                return false; // dropped (squashed or replaced)
            }
            if req.since > now {
                next_due = next_due.min(req.since);
                return true;
            }
            if granted_per_pe[req.pe] >= per_pe_limit as u32 {
                next_due = next_due.min(now + 1);
                return true;
            }
            granted_total += 1;
            granted_per_pe[req.pe] += 1;
            match kind {
                BusKind::Cache => self.perform_mem_access(req.pe, req.slot),
                BusKind::Result => {
                    let dest = self.pes[req.pe].slots[req.slot].dest.expect("validated");
                    let r = self.pregs.get_mut(dest);
                    if r.ready && r.global_ready_at == u64::MAX {
                        r.global_ready_at = now + self.cfg.bypass_latency;
                    }
                }
            }
            false
        });
        match kind {
            BusKind::Cache => {
                queue.append(&mut self.cache_bus_queue); // mid-pass pushes, if any
                self.cache_bus_queue = queue;
                self.cache_bus_next_due = self.cache_bus_next_due.min(next_due);
            }
            BusKind::Result => {
                queue.append(&mut self.result_bus_queue);
                self.result_bus_queue = queue;
                self.result_bus_next_due = self.result_bus_next_due.min(next_due);
            }
        }
        self.scratch_grants = granted_per_pe;
        if waiting_at_start > 0 && self.events.wants(Category::Bus) {
            let bus = match kind {
                BusKind::Cache => tp_events::BusChannel::Cache,
                BusKind::Result => tp_events::BusChannel::Result,
            };
            self.events.emit(
                now,
                Event::BusSample {
                    bus,
                    waiting: waiting_at_start.min(255) as u8,
                    granted: granted_total.min(255usize) as u8,
                },
            );
        }
    }

    fn perform_mem_access(&mut self, pe: usize, slot: usize) {
        let now = self.now;
        let h = Self::handle(pe, slot);
        let (inst, ea, data) = {
            let s = &self.pes[pe].slots[slot];
            let ea = s.indirect_target.expect("agen ran") as Addr;
            (s.ti.inst, ea, s.value)
        };
        match inst {
            Inst::Load { .. } => {
                let latency = self.dcache.access(ea);
                // Split field borrows: the ARB is mutated while the logical
                // order comes from the PE list.
                let list = &self.list;
                let result = self.arb.load(ea, h, |sh: SeqHandle| {
                    let pe = (sh.0 >> 8) as usize;
                    if !list.contains(pe) {
                        // A version whose owner left the window cannot be
                        // architectural (commit removes versions), so it
                        // must never win forwarding: rank it younger than
                        // every live access. The paranoid ARB sweep proves
                        // this is unreachable; keep it safe, not oldest.
                        return u64::MAX;
                    }
                    ((list.logical(pe) + 1) << 8) | (sh.0 & 0xff)
                });
                let done_at = now + latency as u64;
                {
                    let s = &mut self.pes[pe].slots[slot];
                    s.value = result.value;
                    s.load_src = result.source.map(|sh| sh.0);
                    s.mem_addr = Some(ea);
                    s.state = SlotState::MemAccess { done_at };
                }
                self.note_inflight(pe, slot, done_at);
                self.note_load_sampled(pe, slot, ea);
            }
            Inst::Store { .. } => {
                let _ = self.dcache.access(ea);
                let (old_performed, old_addr, old_value) = {
                    let s = &self.pes[pe].slots[slot];
                    (s.store_performed, s.mem_addr, s.has_value.then_some(s.value))
                };
                let _ = old_value;
                // A reissued store that moved must undo its old version.
                // The undo snoop must NOT skip this store's own PE: the PE
                // is alive, and a program-order-later load in the same
                // trace may have forwarded from the dying version (same-PE
                // skipping is only sound on squash paths, where every
                // same-PE slot dies with the store).
                if old_performed {
                    if let Some(old) = old_addr {
                        if old >> 3 != ea >> 3 {
                            self.arb.undo(old, h);
                            self.snoop_undo(old, h, usize::MAX);
                        }
                    }
                }
                self.arb.store(ea, h, data);
                let done_at = now + 1;
                {
                    let s = &mut self.pes[pe].slots[slot];
                    s.store_performed = true;
                    s.mem_addr = Some(ea);
                    s.state = SlotState::MemAccess { done_at };
                }
                self.note_inflight(pe, slot, done_at);
                self.snoop_store(ea, h, data, pe);
            }
            _ => unreachable!("only memory ops use cache buses"),
        }
    }

    /// A committed store *is* architectural memory: every live load that
    /// recorded it as its forwarding source must stop naming it. The
    /// sequence handle encodes only `(pe, slot)`, so once the store's PE is
    /// recycled by a younger trace the handle starts ranking as *young* in
    /// `seq_key` — and a later snoop by a genuinely-older store would
    /// conclude the load's source is younger and wrongly skip the reissue
    /// (committed-path loads then retire stale forwarded values).
    pub(super) fn demote_committed_source(&mut self, addr: Addr, store_h: SeqHandle) {
        for r in self.wakeup.loads.iter(addr >> 3) {
            if live_slot(&self.pes, r).is_some_and(|s| s.load_src == Some(store_h.0)) {
                self.pes[r.0].slots[r.2].load_src = None;
            }
        }
    }

    /// Loads snoop store traffic: a load must reissue if the store is
    /// program-order earlier than the load but later than the load's data
    /// source, or if it *is* the load's data source and the value changed.
    /// Victims come from the per-word load registry, not a window rescan.
    fn snoop_store(&mut self, addr: Addr, store_h: SeqHandle, value: Word, store_pe: usize) {
        let word = addr >> 3;
        let store_key = self.seq_key(store_h);
        // The registry and the reissue list leave `self` while the
        // validation closure reads the window through it.
        let mut loads = std::mem::take(&mut self.wakeup.loads);
        let mut reissues = std::mem::take(&mut self.scratch_marks);
        reissues.clear();
        loads.filter(word, |&(pe, gen, i)| {
            let Some(s) = self.live_load(pe, gen, i, word) else { return false };
            // Only loads that already sampled memory can be victims.
            if !matches!(s.state, SlotState::MemAccess { .. } | SlotState::Done) {
                return true;
            }
            let load_key = self.seq_key(Self::handle(pe, i));
            if store_key >= load_key {
                return true; // store is later in program order
            }
            let must_reissue = match s.load_src {
                Some(src) if src == store_h.0 => {
                    // Same source store re-executed: reissue if the value
                    // it previously supplied could differ. (The ARB has
                    // already been updated; conservatively reissue.)
                    let _ = value;
                    true
                }
                Some(src) => self.seq_key(SeqHandle(src)) < store_key,
                None => true, // loaded from architectural memory
            };
            if must_reissue {
                reissues.push((pe, i));
            }
            true
        });
        self.wakeup.loads = loads;
        let _ = store_pe;
        self.reissue_snooped_loads(reissues);
    }

    /// Loads snoop store-undo traffic: any load whose data came from the
    /// undone store must reissue.
    pub(super) fn snoop_undo(&mut self, addr: Addr, store_h: SeqHandle, skip_pe: usize) {
        let word = addr >> 3;
        let mut loads = std::mem::take(&mut self.wakeup.loads);
        let mut reissues = std::mem::take(&mut self.scratch_marks);
        reissues.clear();
        loads.filter(word, |&(pe, gen, i)| {
            let Some(s) = self.live_load(pe, gen, i, word) else { return false };
            if pe != skip_pe && s.load_src == Some(store_h.0) {
                reissues.push((pe, i));
            }
            true
        });
        self.wakeup.loads = loads;
        self.reissue_snooped_loads(reissues);
    }

    /// Marks snoop victims for reissue after the load penalty, then hands
    /// the (scratch) victim list back.
    fn reissue_snooped_loads(&mut self, reissues: Vec<(usize, usize)>) {
        let until = self.now + self.cfg.load_reissue_penalty;
        for &(pe, i) in &reissues {
            self.stats.load_snoop_reissues += 1;
            self.mark_reissue_slot(pe, i, until);
        }
        self.scratch_marks = reissues;
    }

    /// Validates a load-registry entry: the slot must still be a live load
    /// of the registered generation whose sampled address maps to `word`.
    /// Returns the slot, or `None` for stale entries (which the caller
    /// garbage-collects from the registry).
    fn live_load(&self, pe: usize, gen: u64, slot: usize, word: Addr) -> Option<&crate::pe::Slot> {
        let p = &self.pes[pe];
        if !p.occupied || p.gen != gen || slot >= p.slots.len() || !self.list.contains(pe) {
            return None;
        }
        let s = &p.slots[slot];
        if !matches!(s.ti.inst, Inst::Load { .. }) {
            return None;
        }
        (s.mem_addr? >> 3 == word).then_some(s)
    }
}
