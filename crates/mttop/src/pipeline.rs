//! The memory pipeline: staging a warp's memory instruction as a [`Plan`],
//! translating its lanes through the TLB and the core's one page-table
//! walker, coalescing them into [`Groups`], issuing the groups as timed L1
//! accesses ([`Flight`]s), and applying their completions.

use ccsvm_engine::Time;
use ccsvm_isa::Instr;
use ccsvm_mem::{Access, AccessResult, CorePort};
use ccsvm_vm::{frame_plus_offset, VirtAddr, Walk, WalkResult};

use crate::warp::{lanes_of, Lane, LaneKind, LaneOp, WarpState};
use crate::{MttopCore, PageFaultReq};

/// A warp memory instruction in progress.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Plan {
    /// Participating lanes; their ops are translated in lane order.
    pub(crate) lanes: u8,
    /// How many of `lanes` are translated so far.
    pub(crate) next_translate: usize,
    /// The instruction's PC (for the advance at the end).
    pub(crate) pc: usize,
    /// Coalesced groups awaiting issue (built after translation).
    pub(crate) groups: Option<Groups>,
    /// Groups issued so far (each extra group costs an L1-port cycle).
    pub(crate) issued: usize,
    /// Latest inline-hit completion time.
    pub(crate) finish: Time,
}

/// FIFO of coalesced groups, each a lane set whose lowest lane leads (its
/// op is the timed access). At most one waiting group per lane, and
/// `lanes <= 8`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Groups {
    pub(crate) sets: [u8; 8],
    head: u8,
    len: u8,
}

impl Groups {
    pub(crate) fn waiting(&self) -> &[u8] {
        &self.sets[self.head as usize..self.len as usize]
    }

    /// Queues `group` last. Issued groups ahead of the head make room when
    /// the array is full.
    pub(crate) fn push(&mut self, group: u8) {
        if self.len as usize == self.sets.len() {
            self.sets.copy_within(self.head as usize.., 0);
            self.len -= self.head;
            self.head = 0;
        }
        self.sets[self.len as usize] = group;
        self.len += 1;
    }
}

/// One in-flight (timed) access and the lanes of `warp` it serves. An empty
/// set marks a walker PTE read.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Flight {
    pub(crate) warp: usize,
    pub(crate) lanes: u8,
    pub(crate) issued_at: Time,
}

/// The timed access a coalesced group issues: the lead lane's operation.
/// Shared by the real issue path and the doomed-retry short circuit so the
/// two can never disagree about what a group's access looks like.
fn group_access(lanes: &[Lane], group: u8) -> Access {
    lanes[group.trailing_zeros() as usize].op.access()
}

impl MttopCore {
    /// Re-enters warp `wi`'s parked memory plan: the warp is Ready again
    /// after a fault resolution or a `Retry` backoff.
    pub(crate) fn retry_plan(
        &mut self,
        wi: usize,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) {
        // Doomed-retry short circuit: this warp's head group already drew
        // `Retry` earlier in this same batch, and nothing that could
        // change the outcome (MSHR frees, way-reservation releases, line
        // fills) happens mid-batch — completions are delivered between
        // batches. Replay the real attempt's exact side effects — the
        // bank-boundary charge, the token draw, the L1 counter bumps and
        // the backoff — without re-running the memory controller.
        if self.retry_epoch[wi] == self.batch_epoch {
            let plan = self.warps[wi].plan.as_ref().expect("plan");
            let issued = plan.issued;
            let retried = plan.groups.as_ref().expect("groups").waiting()[0];
            let access = group_access(&self.warps[wi].lanes, retried);
            self.local_time += self.bank_charge(issued);
            let _ = self.token();
            port.count_doomed_retry(access);
            self.ready_at[wi] = self.local_time + self.config.clock.cycles(8);
            return;
        }
        self.set_state(wi, WarpState::Mem);
        self.continue_plan(wi, port, faults);
    }

    /// The banked L1 ports' charge before a warp issues its `issued`-th
    /// group: a cycle per `l1_banks` groups after the first.
    fn bank_charge(&self, issued: usize) -> Time {
        let on_bank_boundary = if self.l1_bank_mask != u64::MAX {
            issued as u64 & self.l1_bank_mask == 0
        } else {
            (issued as u64).is_multiple_of(self.config.l1_banks)
        };
        if issued > 0 && on_bank_boundary {
            self.config.clock.period()
        } else {
            Time::ZERO
        }
    }

    /// Issues memory instruction `instr` at `pc` for the lanes in `set` of
    /// warp `wi`. A single lane (always the case in fine-grained mode) with
    /// its translation in the TLB issues through [`Self::mem_single`];
    /// otherwise the lanes' ops are staged in a [`Plan`] that
    /// [`Self::continue_plan`] translates and issues.
    pub(crate) fn issue_mem(
        &mut self,
        wi: usize,
        set: u8,
        pc: usize,
        instr: Instr,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) {
        self.mem_instrs += 1;
        self.local_time += self.full_charge();
        if set.is_power_of_two()
            && self.mem_single(wi, set.trailing_zeros() as usize, pc, instr, port)
        {
            return;
        }
        for li in lanes_of(set) {
            let lane = &mut self.warps[wi].lanes[li];
            lane.op = LaneOp::of(instr, &lane.regs);
        }
        self.warps[wi].plan = Some(Plan {
            lanes: set,
            next_translate: 0,
            pc,
            groups: None,
            issued: 0,
            finish: self.local_time,
        });
        self.set_state(wi, WarpState::Mem);
        self.warps[wi].outstanding = 0;
        self.continue_plan(wi, port, faults);
    }

    /// Fast path for a memory instruction with exactly one participating
    /// lane: one lane op is one coalesced group of one, so on a TLB-present
    /// translation the access can issue immediately without staging a
    /// `Plan` (an inline hit leaves no trace of one).
    /// Every state transition, counter, token draw, TLB LRU touch, and time
    /// charge replicates the generic `continue_plan`/`issue_accesses` path
    /// exactly, and on Pending/Retry/Poisoned the warp is parked with the
    /// identical `Plan` the generic path would have left, so nothing after
    /// the access can tell the paths apart. Returns `false` (no
    /// state touched beyond one read-only TLB probe) when the translation is
    /// absent; the caller then falls back to the generic walker path, which
    /// performs the one counted TLB miss exactly as before.
    fn mem_single(
        &mut self,
        wi: usize,
        li: usize,
        pc: usize,
        instr: Instr,
        port: &mut CorePort<'_>,
    ) -> bool {
        let mut op = LaneOp::of(instr, &self.warps[wi].lanes[li].regs);
        // One combined probe: a hit counts exactly like `lookup`, a miss is
        // a no-op and the generic path performs the counted miss itself.
        let Some(frame) = self.tlb.try_lookup(op.va) else {
            return false;
        };
        op.paddr = Some(frame_plus_offset(frame, op.va));
        let only = 1u8 << li;
        // `issue_accesses` would build exactly one group here.
        self.coalesced_accesses += 1;
        let start = self.local_time; // the plan's `finish` baseline
        let token = self.token();
        match port.access(self.local_time, token, op.access()) {
            AccessResult::Hit { finish, value } => {
                let lane = &mut self.warps[wi].lanes[li];
                if let LaneKind::Ld { rd, .. } | LaneKind::Amo { rd, .. } = op.kind {
                    rd.write(&mut lane.regs, value);
                }
                lane.pc = pc + 1;
                self.set_state(wi, WarpState::Ready);
                self.ready_at[wi] = start.max(finish).max(self.local_time);
            }
            result => {
                // Park the warp on the plan the generic path would have
                // left: the one group issued (Pending) or still waiting.
                let pending = matches!(result, AccessResult::Pending);
                let mut groups = Groups::default();
                if pending {
                    self.flights.insert(
                        token,
                        Flight {
                            warp: wi,
                            lanes: only,
                            issued_at: self.local_time,
                        },
                    );
                } else {
                    groups.push(only);
                }
                let warp = &mut self.warps[wi];
                warp.lanes[li].op = op;
                warp.plan = Some(Plan {
                    lanes: only,
                    next_translate: 1,
                    pc,
                    groups: Some(groups),
                    issued: pending as usize,
                    finish: start,
                });
                warp.outstanding = pending as usize;
                match result {
                    AccessResult::Retry => {
                        self.set_state(wi, WarpState::Ready);
                        self.ready_at[wi] = self.local_time + self.config.clock.cycles(8);
                    }
                    AccessResult::Poisoned => {
                        self.poisoned = true;
                        self.set_state(wi, WarpState::Mem);
                    }
                    _ => self.set_state(wi, WarpState::Mem),
                }
            }
        }
        true
    }

    /// Drives a warp's memory plan: translate every lane, then issue the
    /// coalesced accesses. May leave the warp in Walk/WalkQueued/Fault/Mem.
    fn continue_plan(
        &mut self,
        wi: usize,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) {
        loop {
            let warp = &mut self.warps[wi];
            let plan = warp.plan.as_mut().expect("plan");
            let Some(li) = lanes_of(plan.lanes).nth(plan.next_translate) else {
                break;
            };
            let op = &mut warp.lanes[li].op;
            match self.tlb.lookup(op.va) {
                Some(frame) => {
                    op.paddr = Some(frame_plus_offset(frame, op.va));
                    plan.next_translate += 1;
                }
                None => {
                    if self.walker.is_some() {
                        self.set_state(wi, WarpState::WalkQueued);
                        self.walker_queue.push(wi);
                        return;
                    }
                    self.walks += 1;
                    let walk = Walk::new(self.cr3, op.va);
                    if !self.issue_walk_step(wi, walk, port, faults) {
                        return; // blocked in Walk state or faulted
                    }
                    // Walk finished inline; loop to re-lookup.
                }
            }
        }
        self.issue_accesses(wi, port);
    }

    /// Issues PTE reads until blocked, done, faulted, or the L1 runs out of
    /// MSHRs. Returns `true` when the walk completed inline and the TLB now
    /// holds the translation. On MSHR exhaustion the warp yields (Ready with
    /// a one-cycle backoff) so the event loop can drain completions — a
    /// synchronous retry here would livelock the simulator.
    fn issue_walk_step(
        &mut self,
        wi: usize,
        mut walk: Walk,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) -> bool {
        loop {
            let token = self.token();
            let access = Access::Read {
                paddr: walk.pte_addr(),
                size: 8,
            };
            match port.access(self.local_time, token, access) {
                AccessResult::Hit { finish, value } => {
                    self.local_time = self.local_time.max(finish);
                    match walk.feed(value) {
                        WalkResult::Continue(next) => walk = next,
                        WalkResult::Done(frame) => {
                            self.tlb.insert(walk.va(), frame);
                            return true;
                        }
                        WalkResult::Fault(f) => {
                            self.page_fault(wi, f.va, faults);
                            return false;
                        }
                    }
                }
                AccessResult::Pending => {
                    self.walker = Some((wi, walk));
                    self.flights.insert(
                        token,
                        Flight {
                            warp: wi,
                            lanes: 0,
                            issued_at: self.local_time,
                        },
                    );
                    self.set_state(wi, WarpState::Walk);
                    return false;
                }
                AccessResult::Retry => {
                    self.set_state(wi, WarpState::Ready);
                    self.ready_at[wi] = self.local_time + self.config.clock.cycles(8);
                    return false;
                }
                AccessResult::Poisoned => {
                    self.poisoned = true;
                    self.set_state(wi, WarpState::Ready);
                    return false;
                }
            }
        }
    }

    /// All lanes translated: group by cache block (once) and issue the
    /// groups. On MSHR exhaustion the warp yields with the remaining groups
    /// parked in its plan; the retry re-enters here.
    fn issue_accesses(&mut self, wi: usize, port: &mut CorePort<'_>) {
        let warp = &mut self.warps[wi];
        let plan = warp.plan.as_mut().expect("plan");
        if plan.groups.is_none() {
            let mut groups = Groups::default();
            for li in lanes_of(plan.lanes) {
                let op = warp.lanes[li].op;
                let block = ccsvm_mem::block_of(op.paddr.expect("translated"));
                let joined = if matches!(op.kind, LaneKind::Amo { .. }) {
                    None
                } else {
                    groups.sets[..groups.len as usize].iter_mut().find(|g| {
                        let lead = &warp.lanes[g.trailing_zeros() as usize].op;
                        // `op` is a load or a store: it joins its own kind.
                        std::mem::discriminant(&lead.kind) == std::mem::discriminant(&op.kind)
                            && ccsvm_mem::block_of(lead.paddr.expect("t")) == block
                    })
                };
                match joined {
                    Some(g) => *g |= 1 << li,
                    None => groups.push(1 << li),
                }
            }
            self.coalesced_accesses += groups.len as u64;
            plan.groups = Some(groups);
            plan.finish = self.local_time;
        }

        loop {
            // The head group leaves the queue only once it has issued, so a
            // Retry or Poisoned attempt leaves it parked for the re-entry.
            let plan = self.warps[wi].plan.as_ref().expect("plan");
            let Some(&group) = plan.groups.as_ref().expect("groups").waiting().first() else {
                break;
            };
            self.local_time += self.bank_charge(plan.issued);
            let result = self.issue_group(wi, group, port);
            let plan = self.warps[wi].plan.as_mut().expect("plan");
            match result {
                AccessResult::Hit { finish: f, value } => {
                    plan.finish = plan.finish.max(f);
                    plan.issued += 1;
                    plan.groups.as_mut().expect("groups").head += 1;
                    self.apply_group(wi, group, value, port);
                }
                AccessResult::Pending => {
                    plan.issued += 1;
                    plan.groups.as_mut().expect("groups").head += 1;
                    self.warps[wi].outstanding += 1;
                }
                AccessResult::Retry => {
                    // Yield: let the event loop drain MSHR completions. Until
                    // then, re-attempts of this head group are doomed — mark
                    // the batch so `issue` can short-circuit them.
                    self.retry_epoch[wi] = self.batch_epoch;
                    self.set_state(wi, WarpState::Ready);
                    self.ready_at[wi] = self.local_time + self.config.clock.cycles(8);
                    return;
                }
                AccessResult::Poisoned => {
                    self.poisoned = true;
                    return;
                }
            }
        }

        if self.warps[wi].outstanding == 0 {
            let at = self.warps[wi].plan.as_ref().expect("plan").finish;
            self.finish_mem_instr(wi, at.max(self.local_time));
        } else {
            self.set_state(wi, WarpState::Mem);
        }
    }

    fn issue_group(&mut self, wi: usize, group: u8, port: &mut CorePort<'_>) -> AccessResult {
        let access = group_access(&self.warps[wi].lanes, group);
        let token = self.token();
        let result = port.access(self.local_time, token, access);
        if matches!(result, AccessResult::Pending) {
            self.flights.insert(
                token,
                Flight {
                    warp: wi,
                    lanes: group,
                    issued_at: self.local_time,
                },
            );
        }
        result
    }

    /// Applies one completed group: the lead lane takes `value`; the other
    /// lanes peek/poke the now-resident block. If permission slipped away
    /// between completion and application, the lane's access is re-issued as
    /// its own timed flight.
    fn apply_group(&mut self, wi: usize, group: u8, value: u64, port: &mut CorePort<'_>) {
        let lead = group.trailing_zeros() as usize;
        for li in lanes_of(group) {
            let op = self.warps[wi].lanes[li].op;
            let paddr = op.paddr.expect("translated");
            match op.kind {
                LaneKind::Ld { rd, size } => {
                    let v = if li == lead {
                        Some(value)
                    } else {
                        port.peek(paddr, size as usize)
                    };
                    if let Some(v) = v.or_else(|| self.reissue_lane(wi, li, port)) {
                        rd.write(&mut self.warps[wi].lanes[li].regs, v);
                    }
                }
                LaneKind::St { size, value: v } => {
                    if li != lead && !port.poke(paddr, size as usize, v) {
                        self.reissue_lane(wi, li, port);
                    }
                }
                LaneKind::Amo { rd, .. } => {
                    debug_assert_eq!(group.count_ones(), 1, "atomics are not coalesced");
                    rd.write(&mut self.warps[wi].lanes[li].regs, value);
                }
            }
        }
    }

    /// Re-issues lane `li`'s access as its own timed flight. Returns the
    /// value of an inline hit. A `Retry` (the L1 is out of MSHRs or ways)
    /// queues the lane as a one-lane group of the warp's plan, issued when
    /// the plan is next re-entered.
    fn reissue_lane(&mut self, wi: usize, li: usize, port: &mut CorePort<'_>) -> Option<u64> {
        match self.issue_group(wi, 1 << li, port) {
            AccessResult::Hit { value, .. } => return Some(value),
            AccessResult::Pending => self.warps[wi].outstanding += 1,
            AccessResult::Poisoned => self.poisoned = true,
            AccessResult::Retry => {
                let plan = self.warps[wi].plan.as_mut().expect("plan");
                plan.groups.as_mut().expect("groups").push(1 << li);
            }
        }
        None
    }

    /// Parks warp `wi` on a page fault at `va` for the machine to forward.
    fn page_fault(&mut self, wi: usize, va: VirtAddr, faults: &mut Vec<PageFaultReq>) {
        self.faults += 1;
        self.set_state(wi, WarpState::Fault);
        faults.push(PageFaultReq {
            warp: wi,
            va,
            cr3: self.cr3,
        });
    }

    /// All groups of the warp's memory instruction are done: advance PCs.
    fn finish_mem_instr(&mut self, wi: usize, at: Time) {
        let plan = self.warps[wi].plan.take().expect("plan");
        for li in lanes_of(plan.lanes) {
            self.warps[wi].lanes[li].pc = plan.pc + 1;
        }
        self.set_state(wi, WarpState::Ready);
        self.ready_at[wi] = at;
    }

    /// Routes an arrived completion (called from `run_batch`).
    pub(crate) fn apply_completion(
        &mut self,
        token: u64,
        value: u64,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) {
        let flight = self
            .flights
            .remove(&token)
            .expect("unknown completion token");
        let lat = self.local_time.saturating_sub(flight.issued_at);
        self.miss_lat_sum += lat;
        self.miss_count += 1;
        if flight.lanes == 0 {
            // A walker PTE read completed.
            let (wi, walk) = self.walker.take().expect("walker busy");
            debug_assert_eq!(wi, flight.warp);
            let translated = match walk.feed(value) {
                // Blocked again (Walk) or faulted, or done inline.
                WalkResult::Continue(next) => self.issue_walk_step(wi, next, port, faults),
                WalkResult::Done(frame) => {
                    self.tlb.insert(walk.va(), frame);
                    true
                }
                WalkResult::Fault(f) => {
                    self.page_fault(wi, f.va, faults);
                    false
                }
            };
            if translated {
                self.set_state(wi, WarpState::Mem);
                self.continue_plan(wi, port, faults);
            }
            // Unless the warp walks again, the walker is free for queued
            // users.
            if self.walker.is_none() {
                self.wake_walker_queue(port, faults);
            }
            return;
        }
        let wi = flight.warp;
        self.warps[wi].outstanding -= 1;
        self.apply_group(wi, flight.lanes, value, port);
        if self.warps[wi].outstanding == 0 && self.states[wi] == WarpState::Mem {
            let plan = self.warps[wi].plan.as_ref().expect("plan");
            if plan.groups.as_ref().expect("groups").waiting().is_empty() {
                self.finish_mem_instr(wi, self.local_time);
            } else {
                // A lane's fallback drew `Retry` and was queued: back off
                // and re-enter the plan, as on any other `Retry`.
                self.retry_epoch[wi] = self.batch_epoch;
                self.set_state(wi, WarpState::Ready);
                self.ready_at[wi] = self.local_time + self.config.clock.cycles(8);
            }
        }
    }

    fn wake_walker_queue(&mut self, port: &mut CorePort<'_>, faults: &mut Vec<PageFaultReq>) {
        while self.walker.is_none() {
            let Some(wi) = self.walker_queue.pop() else {
                return;
            };
            if self.states[wi] != WarpState::WalkQueued {
                continue;
            }
            self.set_state(wi, WarpState::Mem);
            self.continue_plan(wi, port, faults);
        }
    }
}
