//! The warp scheduler: the per-cycle ready-warp scan and the issue of one
//! warp-instruction, with each issue's time charge.

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

    /// The single-lane issue step (DESIGN §11.5): one issue slot for a
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
