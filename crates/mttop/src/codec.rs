//! Snapshot codecs of the MTTOP core.

use ccsvm_snap::{codec, Codec, SnapError, SnapReader, SnapWriter, Snapshot};

use crate::pipeline::{Flight, Groups, Plan};
use crate::warp::{lanes_of, Lane, LaneKind, LaneOp, SbCursor, WarpState};
use crate::{MttopCore, PageFaultReq, TaskChunk};

codec!(struct TaskChunk { entry, args, first_tid, last_tid, cr3, ra });
codec!(struct PageFaultReq { warp, va, cr3 });
codec!(struct LaneOp { va, paddr, kind });
codec!(enum LaneKind {
    0 => Ld { rd, size },
    1 => St { size, value },
    2 => Amo { rd, op },
});
codec!(enum WarpState {
    0 => Free,
    1 => Ready,
    2 => Mem,
    3 => Walk,
    4 => WalkQueued,
    5 => Fault,
});

/// Writes the ops of the lanes in `set` as the list of (lane, op) records
/// the image format has always held.
fn save_lane_ops(w: &mut SnapWriter, lanes: &[Lane], set: u8) {
    (set.count_ones() as usize).put(w);
    for li in lanes_of(set) {
        (li, lanes[li].op).put(w);
    }
}

/// Reads one op list into the op slots of `lanes` and returns the lane set
/// it named. Every list this core writes is in ascending lane order.
fn load_lane_ops(r: &mut SnapReader<'_>, lanes: &mut [Lane]) -> Result<u8, SnapError> {
    let mut set = 0u8;
    for _ in 0..r.get_count(1)? {
        let li = usize::get(r)?;
        if li >= lanes.len() || u32::from(set) >> li != 0 {
            return Err(SnapError::Corrupt {
                what: format!("lane op list names lane {li} out of order or range"),
            });
        }
        lanes[li].op = Codec::get(r)?;
        set |= 1 << li;
    }
    Ok(set)
}

/// A plan's lane ops live in its warp's lanes, so its codec takes them.
impl Plan {
    fn put_with(&self, w: &mut SnapWriter, lanes: &[Lane]) {
        save_lane_ops(w, lanes, self.lanes);
        (self.next_translate, self.pc).put(w);
        self.groups.is_some().put(w);
        if let Some(groups) = &self.groups {
            groups.waiting().len().put(w);
            for &g in groups.waiting() {
                save_lane_ops(w, lanes, g);
            }
        }
        (self.issued, self.finish).put(w);
    }

    fn get_with(r: &mut SnapReader<'_>, lanes: &mut [Lane]) -> Result<Plan, SnapError> {
        let set = load_lane_ops(r, lanes)?;
        let (next_translate, pc) = Codec::get(r)?;
        let groups = if bool::get(r)? {
            let mut groups = Groups::default();
            let n = r.get_count(1)?;
            if n > groups.sets.len() {
                return Err(SnapError::Corrupt {
                    what: format!("plan holds {n} coalesced groups"),
                });
            }
            for _ in 0..n {
                groups.push(load_lane_ops(r, lanes)?);
            }
            Some(groups)
        } else {
            None
        };
        let (issued, finish) = Codec::get(r)?;
        Ok(Plan {
            lanes: set,
            next_translate,
            pc,
            groups,
            issued,
            finish,
        })
    }
}

impl Snapshot for MttopCore {
    fn save(&self, w: &mut SnapWriter) {
        // `port`, `config`, `alu_cost` and `token_prefix` are construction
        // parameters; `chosen` is per-cycle scratch (empty between batches);
        // `ready_mask` is rebuilt from `states` on load. None of them are
        // serialized.
        self.warps.len().put(w);
        for warp in &self.warps {
            warp.lanes.len().put(w);
            // Sparse: a dead lane's registers and PC are fully reset when a
            // chunk reactivates it, so only live lanes carry state worth
            // writing. Idle cores shrink to a bitmap instead of a register
            // file per lane.
            for lane in &warp.lanes {
                lane.live.put(w);
                if lane.live {
                    (lane.regs, lane.pc).put(w);
                }
            }
            warp.outstanding.put(w);
            warp.plan.is_some().put(w);
            if let Some(p) = &warp.plan {
                p.put_with(w, &warp.lanes);
            }
        }
        self.states.iter().for_each(|s| s.put(w));
        self.ready_at.iter().for_each(|t| t.put(w));
        (self.rr, self.local_time).put(w);
        self.tlb.save(w);
        self.walker.put(w);
        self.walker_queue.put(w);
        // Flights sorted by token so the byte stream is canonical.
        let mut tokens: Vec<u64> = self.flights.keys().copied().collect();
        tokens.sort_unstable();
        tokens.len().put(w);
        for t in tokens {
            let f = &self.flights[&t];
            (t, f.warp).put(w);
            save_lane_ops(w, &self.warps[f.warp].lanes, f.lanes);
            f.issued_at.put(w);
        }
        self.arrived.put(w);
        (self.token_seq, self.cr3).put(w);
        [
            self.warp_instrs,
            self.thread_instrs,
            self.mem_instrs,
            self.coalesced_accesses,
            self.divergent_issues,
            self.walks,
            self.faults,
            self.tasks,
        ]
        .put(w);
        (self.miss_lat_sum, self.miss_count, self.poisoned).put(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = self.warps.len();
        r.get_len(n, "warps")?;
        for warp in &mut self.warps {
            r.get_len(warp.lanes.len(), "lanes per warp")?;
            for lane in &mut warp.lanes {
                lane.live = Codec::get(r)?;
                if lane.live {
                    (lane.regs, lane.pc) = Codec::get(r)?;
                    // `r0` reads as zero regardless of storage (`Reg::read`
                    // masks it), so normalizing here changes nothing
                    // observable while re-establishing the `regs[0] == 0`
                    // invariant the decoded fast path relies on, even for a
                    // hand-corrupted image.
                    lane.regs[0] = 0;
                } else {
                    lane.regs = [0; 32];
                    lane.pc = 0;
                }
            }
            warp.outstanding = Codec::get(r)?;
            warp.plan = if bool::get(r)? {
                Some(Plan::get_with(r, &mut warp.lanes)?)
            } else {
                None
            };
        }
        // Route through `set_state` so `ready_mask` is rebuilt in sync.
        for wi in 0..n {
            let s = Codec::get(r)?;
            self.set_state(wi, s);
        }
        self.ready_at.iter_mut().try_for_each(|t| t.get_into(r))?;
        (self.rr, self.local_time) = Codec::get(r)?;
        self.tlb.load(r)?;
        self.walker = Codec::get(r)?;
        self.walker_queue.get_into(r)?;
        // The scheduler and the walker index `warps` with these.
        let walker = self.walker.as_ref().map(|&(wi, _)| wi);
        let named = [self.rr].into_iter().chain(walker);
        if let Some(wi) = named
            .chain(self.walker_queue.iter().copied())
            .find(|&wi| wi >= n)
        {
            return Err(SnapError::Corrupt {
                what: format!("warp index {wi} of {n}"),
            });
        }
        self.flights.clear();
        for _ in 0..r.get_count(1)? {
            let (token, warp): (u64, usize) = Codec::get(r)?;
            let Some(w) = self.warps.get_mut(warp) else {
                return Err(SnapError::Corrupt {
                    what: format!("flight for warp {warp} of {n}"),
                });
            };
            let lanes = load_lane_ops(r, &mut w.lanes)?;
            let issued_at = Codec::get(r)?;
            self.flights.insert(
                token,
                Flight {
                    warp,
                    lanes,
                    issued_at,
                },
            );
        }
        self.arrived.get_into(r)?;
        (self.token_seq, self.cr3) = Codec::get(r)?;
        [
            self.warp_instrs,
            self.thread_instrs,
            self.mem_instrs,
            self.coalesced_accesses,
            self.divergent_issues,
            self.walks,
            self.faults,
            self.tasks,
        ] = Codec::get(r)?;
        (self.miss_lat_sum, self.miss_count, self.poisoned) = Codec::get(r)?;
        // Superblock cursors and retry epochs are host-side memoization of
        // restored state, never part of a snapshot; drop them so the next
        // issue re-derives the participating set from the loaded lanes and
        // the first post-restore retry runs the real controller.
        for c in &mut self.sb_cur {
            *c = SbCursor::INVALID;
        }
        self.batch_epoch = 0;
        for e in &mut self.retry_epoch {
            *e = u64::MAX;
        }
        Ok(())
    }
}
