//! The warp scheduler: the per-cycle ready-warp scan, the ALU sprint, and
//! the issue of one warp-instruction, with each issue's time charge.

use ccsvm_engine::Time;
use ccsvm_isa::{DecodedImage, Instr, MicroOp, Program};
use ccsvm_mem::CorePort;

use crate::warp::{lanes_of, Lane, SbCursor, WarpState};
use crate::{BatchOutcome, MttopAction, MttopCore, PageFaultReq};

/// Executes `op` on the lanes selected by `mask`, advancing each lane's PC
/// by one. The full-warp case hands every register file to
/// [`MicroOp::exec_all`] (one enum dispatch per warp-op, no per-lane mask
/// test); a divergent warp walks the mask bits.
#[inline(always)]
fn exec_masked(op: MicroOp, lanes: &mut [Lane], mask: u8, full: u8) {
    if mask == full {
        op.exec_all(lanes.iter_mut().map(|l| &mut l.regs));
        for lane in lanes {
            lane.pc += 1;
        }
    } else {
        for li in lanes_of(mask) {
            let lane = &mut lanes[li];
            op.exec(&mut lane.regs);
            lane.pc += 1;
        }
    }
}

/// Sprint body: executes a whole run of micro-ops on the lanes selected by
/// `mask` and advances their PCs by `ops.len()`. Full warps go op-outer so
/// the enum dispatch happens once per op for all lanes; divergent warps go
/// lane-outer so one lane's register file stays hot across the run.
#[inline(always)]
fn sprint_masked(ops: &[MicroOp], lanes: &mut [Lane], mask: u8, full: u8) {
    if mask == full {
        for op in ops {
            op.exec_all(lanes.iter_mut().map(|l| &mut l.regs));
        }
        for lane in lanes {
            lane.pc += ops.len();
        }
    } else {
        for li in lanes_of(mask) {
            let lane = &mut lanes[li];
            for op in ops {
                op.exec(&mut lane.regs);
            }
            lane.pc += ops.len();
        }
    }
}

impl MttopCore {
    /// Executes until the quantum, or until every live warp blocks. `image`
    /// must be [`DecodedImage::build`] of `prog.text`; it is only read, so
    /// every core shares one.
    pub fn run_batch(
        &mut self,
        now: Time,
        prog: &Program,
        image: &DecodedImage,
        port: &mut CorePort<'_>,
    ) -> BatchOutcome {
        self.local_time = self.local_time.max(now);
        self.batch_epoch += 1;
        let mut faults = Vec::new();

        // Completions arrive only between batches (`on_completion`), so the
        // buffer can be handed back, capacity kept, once it is applied.
        let mut arrived = std::mem::take(&mut self.arrived);
        for (token, value) in arrived.drain(..) {
            self.apply_completion(token, value, port, &mut faults);
        }
        self.arrived = arrived;

        let deadline = self.local_time + self.config.clock.cycles(self.config.quantum_cycles);
        let per_cycle = if self.config.lockstep {
            1
        } else {
            self.config.issue_width.max(1)
        };
        // `chosen` is taken out of `self` once per batch (not per cycle): the
        // scheduler loop below is the hottest host loop in the core, and the
        // take/restore pair per cycle showed up in profiles.
        let mut chosen = std::mem::take(&mut self.chosen);
        let outcome = loop {
            if self.local_time >= deadline {
                break BatchOutcome {
                    action: MttopAction::Continue {
                        at: self.local_time,
                    },
                    faults,
                    poisoned: self.poisoned,
                };
            }
            // Collect up to `per_cycle` distinct ready warps for this cycle,
            // round-robin from `rr`: the rr..n / 0..rr rotation is two masked
            // views of the ready set, visiting only warps that are actually
            // in `Ready` (the common case is a handful out of 128). Bits at
            // or above `n` are never set, and `rr < n <= 128` keeps the
            // shift in range.
            let n = self.warps.len();
            chosen.clear();
            let mut earliest: Option<Time> = None;
            let ready = self.ready_mask;
            let from_rr = ready & (!0u128 << self.rr);
            'scan: for mut bits in [from_rr, ready ^ from_rr] {
                while bits != 0 {
                    let wi = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let at = self.ready_at[wi];
                    if at <= self.local_time {
                        chosen.push(wi);
                        if chosen.len() == per_cycle {
                            break 'scan;
                        }
                    } else {
                        earliest = Some(match earliest {
                            Some(e) => e.min(at),
                            None => at,
                        });
                    }
                }
            }
            if chosen.is_empty() {
                if let Some(e) = earliest {
                    self.local_time = e.min(deadline);
                    continue;
                }
                let any_blocked = self.states.iter().any(|&s| {
                    matches!(
                        s,
                        WarpState::Mem | WarpState::Walk | WarpState::WalkQueued | WarpState::Fault
                    )
                });
                let action = if any_blocked {
                    MttopAction::Blocked
                } else {
                    MttopAction::Idle
                };
                break BatchOutcome {
                    action,
                    faults,
                    poisoned: self.poisoned,
                };
            }
            // ALU sprint: when every warp that can issue right now is
            // mid-superblock, whole rounds of the per-cycle rotation are pure
            // ALU work with no port traffic, so they can be retired in
            // per-warp blocks (see `try_sprint` for the equivalence argument).
            if self.config.lockstep
                && n <= 64
                && chosen.len() == 1
                && self.try_sprint(image, deadline)
            {
                continue;
            }
            // Warp indices are below `n`: wrap with a compare, not a divide.
            let next = chosen[chosen.len() - 1] + 1;
            self.rr = if next == n { 0 } else { next };
            let cycle_start = self.local_time;
            for &wi in &chosen {
                self.issue(wi, prog, image, port, &mut faults);
            }
            if !self.config.lockstep {
                // Fine-grained mode: the cycle itself is the charge.
                self.local_time = cycle_start + self.config.clock.period();
            }
        };
        self.chosen = chosen;
        outcome
    }

    /// Attempts to retire several full rotation rounds of decoded ALU
    /// micro-ops in one pass (lockstep mode, `warps <= 64`). Returns `true`
    /// if it issued anything; the caller then rescans.
    ///
    /// # Equivalence
    ///
    /// The per-cycle lockstep loop, while the set `S` of warps eligible *now*
    /// is stable and every member is mid-superblock, does exactly this each
    /// round: visit `S` in rotation order from `rr`, issue one ALU micro-op
    /// per warp, advance `local_time` by one ALU charge per issue. Those
    /// issues touch no shared state — superblock ops are port-free and
    /// branch-free, warp register files are private, and the instruction
    /// counters are commutative sums — and intermediate `local_time` values
    /// are unobservable because nothing else runs inside the window. So `k`
    /// full rounds can be retired warp-by-warp instead of round-by-round,
    /// provided `S` cannot change within the window:
    ///
    /// * nothing *leaves* `S` — a warp leaves only by exhausting its run,
    ///   so `k` is clipped to the minimum remaining run length;
    /// * nothing *joins* `S` — a parked warp with wake time `ta` joins at
    ///   cycle `ceil((ta - t) / c)`, so `k*|S|` issues are clipped below
    ///   that; the quantum deadline clips identically (`t + m*c < D`), the
    ///   same comparisons the per-cycle loop performs at cycle granularity;
    /// * `rr` ends one past the last warp of a rotation round, and the
    ///   rotation order re-stabilizes after the first round, so the final
    ///   `rr` equals `(last of round 1) + 1` — what the loop would leave;
    /// * the attempt bails (returns `false`) unless EVERY eligible warp has
    ///   a valid superblock cursor, so a slow-path warp in `S` forces the
    ///   exact per-cycle interleaving instead.
    fn try_sprint(&mut self, image: &DecodedImage, deadline: Time) -> bool {
        let n = self.warps.len();
        let t = self.local_time;
        let ready = self.ready_mask;
        let hi = ready & (!0u128 << self.rr);
        let mut s_buf = [0usize; 64];
        let mut s_len = 0usize;
        let mut min_rem = u32::MAX;
        let mut earliest_future: Option<Time> = None;
        for mut bits in [hi, ready ^ hi] {
            while bits != 0 {
                let wi = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let at = self.ready_at[wi];
                if at <= t {
                    let cur = &self.sb_cur[wi];
                    if cur.rem == 0
                        || self.warps[wi].lanes[cur.mask.trailing_zeros() as usize].pc
                            != cur.pc as usize
                    {
                        return false;
                    }
                    s_buf[s_len] = wi;
                    s_len += 1;
                    min_rem = min_rem.min(cur.rem);
                } else {
                    earliest_future = Some(earliest_future.map_or(at, |e| e.min(at)));
                }
            }
        }
        debug_assert!(s_len >= 1, "caller chose an eligible warp");
        let c = self.alu_cost.as_ps().max(1);
        // Cycle `m` (issue `m`) runs iff `t + m*c < deadline`, and a parked
        // warp with wake time `ta` joins the eligible set from cycle
        // `ceil((ta - t) / c)` on — identical to the per-cycle loop's
        // comparisons.
        let mut max_issues = (deadline.as_ps().saturating_sub(t.as_ps())).div_ceil(c);
        if let Some(f) = earliest_future {
            max_issues = max_issues.min((f.as_ps() - t.as_ps()).div_ceil(c));
        }
        let k = (min_rem as u64).min(max_issues / s_len as u64) as usize;
        if k * s_len < 2 {
            return false;
        }
        for &wi in &s_buf[..s_len] {
            let cur = self.sb_cur[wi];
            let ops = &image.run_at(cur.pc as usize)[..k];
            let warp = &mut self.warps[wi];
            sprint_masked(ops, &mut warp.lanes, cur.mask, self.full_lane_mask);
            if cur.np < cur.live {
                self.divergent_issues += k as u64;
            }
            self.warp_instrs += k as u64;
            self.thread_instrs += k as u64 * cur.np as u64;
            let cu = &mut self.sb_cur[wi];
            cu.rem -= k as u32;
            cu.pc += k as u32;
        }
        self.rr = (s_buf[s_len - 1] + 1) % n;
        self.local_time = Time::from_ps(t.as_ps() + (k * s_len) as u64 * c);
        true
    }

    /// Executes one warp-instruction for warp `wi`.
    fn issue(
        &mut self,
        wi: usize,
        prog: &Program,
        image: &DecodedImage,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) {
        // A Ready warp with a plan is retrying its memory instruction.
        if self.warps[wi].plan.is_some() {
            self.retry_plan(wi, port, faults);
            return;
        }
        if self.config.lanes == 1 && self.sb_on && self.issue_single(wi, prog, image, port, faults)
        {
            return;
        }
        // Superblock fast path: a valid cursor means this warp is mid-run in
        // a decoded straight-line block. Retire exactly ONE micro-op for the
        // cached participating set — cycle-exact: counters, charges, and the
        // issue-slot rotation match the slow path op for op; the win is the
        // dispatch itself (no min-PC recompute, no `Instr` match), not op
        // batching, so event interleaving with other warps is unchanged.
        let cur = self.sb_cur[wi];
        if cur.rem > 0 {
            let lead = cur.mask.trailing_zeros() as usize;
            if self.warps[wi].lanes[lead].pc == cur.pc as usize {
                let op = image
                    .op_at(cur.pc as usize)
                    .expect("a cursor never leaves its run");
                #[cfg(debug_assertions)]
                {
                    // The cached participating set must still be exactly the
                    // live lanes at the warp's min PC.
                    let warp = &self.warps[wi];
                    for li in lanes_of(cur.mask) {
                        let lane = &warp.lanes[li];
                        debug_assert!(lane.live && lane.pc == cur.pc as usize);
                    }
                    let live = warp.lanes.iter().filter(|l| l.live).count();
                    debug_assert_eq!(live, cur.live as usize);
                }
                let warp = &mut self.warps[wi];
                exec_masked(op, &mut warp.lanes, cur.mask, self.full_lane_mask);
                if (cur.np as usize) < cur.live as usize {
                    self.divergent_issues += 1;
                }
                self.warp_instrs += 1;
                self.thread_instrs += cur.np as u64;
                if self.config.lockstep {
                    self.local_time += self.alu_cost;
                }
                let c = &mut self.sb_cur[wi];
                c.rem -= 1;
                c.pc += 1;
                return;
            }
            // Stale cursor (task reuse): drop it and
            // re-derive everything on the slow path below.
            self.sb_cur[wi] = SbCursor::INVALID;
        }
        let min_pc = self.warps[wi]
            .lanes
            .iter()
            .filter(|l| l.live)
            .map(|l| l.pc)
            .min();
        let Some(pc) = min_pc else {
            self.set_state(wi, WarpState::Free);
            return;
        };
        // Lane sets are at most 8 wide (asserted in `new`), so the
        // participating set is a bit mask — this runs once per issued
        // warp-instruction and must not allocate.
        let mut set = 0u8;
        let mut live = 0;
        for (i, l) in self.warps[wi].lanes.iter().enumerate() {
            if l.live {
                live += 1;
                if l.pc == pc {
                    set |= 1 << i;
                }
            }
        }
        let np = set.count_ones() as usize;
        if np < live {
            self.divergent_issues += 1;
        }
        self.warp_instrs += 1;
        self.thread_instrs += np as u64;

        // First touch of a decodable run: take the superblock entered at
        // `pc`, execute its first micro-op in this issue slot, and park a
        // cursor so subsequent issues take the fast path above. The cursor is
        // capped at the nearest lagging live lane's PC: when the
        // participating set would reach it, the min-PC rule must recompute
        // the set so the lagging lane rejoins (reconvergence — see the
        // crate docs and `lagging_lane_reconverges_at_min_pc`).
        if self.sb_on {
            let ops = image.run_at(pc);
            if let Some(&op0) = ops.first() {
                self.sb_hits += 1;
                let mut cap = ops.len();
                if np < live {
                    for l in &self.warps[wi].lanes {
                        if l.live && l.pc > pc {
                            cap = cap.min(l.pc - pc);
                        }
                    }
                }
                exec_masked(op0, &mut self.warps[wi].lanes, set, self.full_lane_mask);
                self.local_time += self.alu_charge();
                self.sb_cur[wi] = if cap > 1 {
                    SbCursor {
                        rem: (cap - 1) as u32,
                        pc: (pc + 1) as u32,
                        mask: set,
                        np: np as u8,
                        live: live as u8,
                    }
                } else {
                    SbCursor::INVALID
                };
                return;
            }
        }

        let Some(&instr) = prog.text.get(pc) else {
            panic!("MTTOP pc {pc} outside text");
        };
        match instr {
            Instr::Exit => {
                for li in lanes_of(set) {
                    self.warps[wi].lanes[li].live = false;
                }
                if !self.warps[wi].live() {
                    self.set_state(wi, WarpState::Free);
                }
                self.local_time += self.full_charge();
            }
            Instr::Syscall => {
                panic!(
                    "syscall executed on MTTOP core (pc {pc}): MTTOP cores do \
                     not run the OS (paper §3.2.1); xcc rejects this statically"
                );
            }
            _ if instr.is_mem() => self.issue_mem(wi, set, pc, instr, port, faults),
            _ => {
                for li in lanes_of(set) {
                    let lane = &mut self.warps[wi].lanes[li];
                    lane.pc = instr.step_regs(&mut lane.regs, pc).expect("register-only");
                }
                self.local_time += self.step_charge(instr);
            }
        }
    }

    /// The single-lane issue step (DESIGN §11.6): one issue slot for a
    /// context of one lane while the decoded image is on. With one lane the
    /// min-PC participating set is that lane whenever it is live, so the
    /// step reads its PC once and dispatches on it directly: a run op from
    /// the image, entering and counting runs exactly as the warp path does;
    /// a control instruction through [`Instr::step_regs`]; a memory instruction through
    /// [`Self::issue_mem`]. Returns `false` for what only the warp path
    /// handles — a dead lane, `exit` and `syscall` — having at most dropped
    /// the warp's cursor, as the warp path itself would.
    fn issue_single(
        &mut self,
        wi: usize,
        prog: &Program,
        image: &DecodedImage,
        port: &mut CorePort<'_>,
        faults: &mut Vec<PageFaultReq>,
    ) -> bool {
        let lane = &mut self.warps[wi].lanes[0];
        if !lane.live {
            return false;
        }
        let pc = lane.pc;
        let cur = &mut self.sb_cur[wi];
        let op = if cur.rem > 0 && cur.pc as usize == pc {
            cur.rem -= 1;
            cur.pc += 1;
            image.op_at(pc)
        } else {
            let run = image.run_at(pc);
            self.sb_hits += u64::from(!run.is_empty());
            *cur = if run.len() > 1 {
                SbCursor {
                    rem: run.len() as u32 - 1,
                    pc: pc as u32 + 1,
                    mask: 1,
                    np: 1,
                    live: 1,
                }
            } else {
                SbCursor::INVALID
            };
            run.first().copied()
        };
        if let Some(op) = op {
            op.exec(&mut lane.regs);
            lane.pc = pc + 1;
            self.local_time += self.alu_charge();
        } else {
            let Some(&instr) = prog.text.get(pc) else {
                panic!("MTTOP pc {pc} outside text");
            };
            if let Some(next) = instr.step_regs(&mut lane.regs, pc) {
                lane.pc = next;
                self.local_time += self.step_charge(instr);
            } else if instr.is_mem() {
                self.issue_mem(wi, 1, pc, instr, port, faults);
            } else {
                return false; // `exit` and `syscall`
            }
        }
        self.warp_instrs += 1;
        self.thread_instrs += 1;
        true
    }

    /// ALU issue charge: one VLIW slot in lockstep mode; in fine-grained
    /// mode the cycle itself is the charge.
    pub(crate) fn alu_charge(&self) -> Time {
        if self.config.lockstep {
            self.alu_cost
        } else {
            Time::ZERO
        }
    }

    /// Whole-cycle issue charge (control, memory, `exit`): one cycle in
    /// lockstep mode, nothing in fine-grained mode.
    pub(crate) fn full_charge(&self) -> Time {
        if self.config.lockstep {
            self.config.clock.period()
        } else {
            Time::ZERO
        }
    }

    /// Issue charge of a register-only instruction
    /// ([`Instr::step_regs`]): ALU work and `fence`/`nop` take an ALU slot,
    /// control flow a whole cycle. `CallReg` charges a cycle in both modes:
    /// the timing quirk the crate docs keep.
    fn step_charge(&self, instr: Instr) -> Time {
        match instr {
            Instr::CallReg { .. } => self.config.clock.period(),
            Instr::Alu { .. } | Instr::Li { .. } | Instr::Fence | Instr::Nop => self.alu_charge(),
            _ => self.full_charge(),
        }
    }
}
