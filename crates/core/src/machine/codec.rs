//! The machine's snapshot codec: `Snapshot for Machine`, the `save`/`load`
//! pairs of the machine-private types it serializes, and the
//! `checkpoint`/`restore` entry points. A child module of `machine`, so the
//! fields stay private to the two files.

use std::collections::VecDeque;

use ccsvm_engine::{EventQueue, Time, Violation};
use ccsvm_isa::Program;
use ccsvm_mem::MemEvent;
use ccsvm_mttop::{PageFaultReq, TaskChunk};
use ccsvm_snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use ccsvm_vm::{PteWrite, VirtAddr};

use super::{config_hash, Active, DiagnosticDump, Ev, Handler, Job, Machine, Outcome};
use crate::SystemConfig;

// ---------------------------------------------------------------------------
// Snapshot codecs. Any change below is a snapshot schema change (bump
// `ccsvm_snap::SCHEMA_VERSION` and document it in DESIGN.md §8).

fn bad_tag(what: &'static str, tag: u8) -> SnapError {
    SnapError::Corrupt {
        what: format!("unknown {what} tag {tag}"),
    }
}

impl Outcome {
    pub(crate) fn snap_tag(self) -> u8 {
        match self {
            Outcome::Completed => 0,
            Outcome::Deadlock => 1,
            Outcome::Poisoned => 2,
            Outcome::RetryBudgetExhausted => 3,
            Outcome::InvariantViolation => 4,
        }
    }

    pub(crate) fn from_snap_tag(tag: u8) -> Result<Outcome, SnapError> {
        Ok(match tag {
            0 => Outcome::Completed,
            1 => Outcome::Deadlock,
            2 => Outcome::Poisoned,
            3 => Outcome::RetryBudgetExhausted,
            4 => Outcome::InvariantViolation,
            other => return Err(bad_tag("Outcome", other)),
        })
    }
}

impl DiagnosticDump {
    pub(super) fn save(&self, w: &mut SnapWriter) {
        w.put_str(&self.reason);
        w.put_u64(self.at.as_ps());
        w.put_usize(self.outstanding.len());
        for (port, blocks) in &self.outstanding {
            w.put_usize(*port);
            w.put_usize(blocks.len());
            for b in blocks {
                w.put_u64(*b);
            }
        }
        w.put_usize(self.dir_active.len());
        for (bank, txs) in &self.dir_active {
            w.put_usize(*bank);
            w.put_usize(txs.len());
            for (block, phase) in txs {
                w.put_u64(*block);
                w.put_str(phase);
            }
        }
        w.put_usize(self.poisoned_blocks.len());
        for b in &self.poisoned_blocks {
            w.put_u64(*b);
        }
        w.put_usize(self.noc_busy_links);
        w.put_u64(self.noc_max_backlog.as_ps());
        match &self.violation {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                v.save(w);
            }
        }
    }

    pub(super) fn load_snap(r: &mut SnapReader<'_>) -> Result<DiagnosticDump, SnapError> {
        let reason = r.get_str()?.to_string();
        let at = Time::from_ps(r.get_u64()?);
        let mut outstanding = Vec::new();
        for _ in 0..r.get_usize()? {
            let port = r.get_usize()?;
            let mut blocks = Vec::new();
            for _ in 0..r.get_usize()? {
                blocks.push(r.get_u64()?);
            }
            outstanding.push((port, blocks));
        }
        let mut dir_active = Vec::new();
        for _ in 0..r.get_usize()? {
            let bank = r.get_usize()?;
            let mut txs = Vec::new();
            for _ in 0..r.get_usize()? {
                let block = r.get_u64()?;
                txs.push((block, r.get_str()?.to_string()));
            }
            dir_active.push((bank, txs));
        }
        let mut poisoned_blocks = Vec::new();
        for _ in 0..r.get_usize()? {
            poisoned_blocks.push(r.get_u64()?);
        }
        let noc_busy_links = r.get_usize()?;
        let noc_max_backlog = Time::from_ps(r.get_u64()?);
        let violation = if r.get_bool()? {
            let mut v = Violation::default();
            v.load(r)?;
            Some(v)
        } else {
            None
        };
        Ok(DiagnosticDump {
            reason,
            at,
            outstanding,
            dir_active,
            poisoned_blocks,
            noc_busy_links,
            noc_max_backlog,
            violation,
        })
    }
}

impl Job {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Job::Local { va } => {
                w.put_u8(0);
                w.put_u64(va.0);
            }
            Job::Remote { mcore, warp, va } => {
                w.put_u8(1);
                w.put_usize(*mcore);
                w.put_usize(*warp);
                w.put_u64(va.0);
            }
            Job::Unmap { va } => {
                w.put_u8(2);
                w.put_u64(va.0);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Job, SnapError> {
        Ok(match r.get_u8()? {
            0 => Job::Local {
                va: VirtAddr(r.get_u64()?),
            },
            1 => Job::Remote {
                mcore: r.get_usize()?,
                warp: r.get_usize()?,
                va: VirtAddr(r.get_u64()?),
            },
            2 => Job::Unmap {
                va: VirtAddr(r.get_u64()?),
            },
            other => return Err(bad_tag("Job", other)),
        })
    }
}

impl Active {
    fn save(&self, w: &mut SnapWriter) {
        self.job.save(w);
        w.put_usize(self.writes.len());
        for pw in &self.writes {
            w.put_u64(pw.addr.0);
            w.put_u64(pw.value);
        }
        w.put_usize(self.next);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Active, SnapError> {
        let job = Job::load(r)?;
        let mut writes = Vec::new();
        for _ in 0..r.get_usize()? {
            let addr = ccsvm_mem::PhysAddr(r.get_u64()?);
            writes.push(PteWrite {
                addr,
                value: r.get_u64()?,
            });
        }
        Ok(Active {
            job,
            writes,
            next: r.get_usize()?,
        })
    }
}

impl Handler {
    fn save(&self, w: &mut SnapWriter) {
        w.put_usize(self.queue.len());
        for job in &self.queue {
            job.save(w);
        }
        match &self.active {
            None => w.put_bool(false),
            Some(a) => {
                w.put_bool(true);
                a.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Handler, SnapError> {
        let mut queue = VecDeque::new();
        for _ in 0..r.get_usize()? {
            queue.push_back(Job::load(r)?);
        }
        let active = if r.get_bool()? {
            Some(Active::load(r)?)
        } else {
            None
        };
        Ok(Handler { queue, active })
    }
}

impl Ev {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Ev::Mem(me) => {
                w.put_u8(0);
                me.save(w);
            }
            Ev::CpuBatch { core, seq } => {
                w.put_u8(1);
                w.put_usize(*core);
                w.put_u64(*seq);
            }
            Ev::MttopBatch { core, seq } => {
                w.put_u8(2);
                w.put_usize(*core);
                w.put_u64(*seq);
            }
            Ev::MifdLaunch { cpu, desc } => {
                w.put_u8(3);
                w.put_usize(*cpu);
                for d in desc {
                    w.put_u64(*d);
                }
            }
            Ev::ChunkArrive { core, chunk } => {
                w.put_u8(4);
                w.put_usize(*core);
                chunk.save(w);
            }
            Ev::ResumeSyscall { cpu, ret } => {
                w.put_u8(5);
                w.put_usize(*cpu);
                w.put_u64(*ret);
            }
            Ev::FaultToCpu { req, mcore } => {
                w.put_u8(6);
                req.save(w);
                w.put_usize(*mcore);
            }
            Ev::FaultAckAtMttop { mcore, warp } => {
                w.put_u8(7);
                w.put_usize(*mcore);
                w.put_usize(*warp);
            }
            Ev::IpiArrive {
                target,
                va,
                initiator,
            } => {
                w.put_u8(8);
                w.put_usize(*target);
                w.put_u64(va.0);
                w.put_usize(*initiator);
            }
            Ev::FlushArrive {
                target,
                va,
                initiator,
            } => {
                w.put_u8(9);
                w.put_usize(*target);
                w.put_u64(va.0);
                w.put_usize(*initiator);
            }
            Ev::ShootAck { initiator } => {
                w.put_u8(10);
                w.put_usize(*initiator);
            }
            Ev::HandlerRetry { cpu } => {
                w.put_u8(11);
                w.put_usize(*cpu);
            }
            Ev::WatchdogTick => w.put_u8(12),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Ev, SnapError> {
        Ok(match r.get_u8()? {
            0 => Ev::Mem(MemEvent::load(r)?),
            1 => Ev::CpuBatch {
                core: r.get_usize()?,
                seq: r.get_u64()?,
            },
            2 => Ev::MttopBatch {
                core: r.get_usize()?,
                seq: r.get_u64()?,
            },
            3 => {
                let cpu = r.get_usize()?;
                let mut desc = [0u64; 4];
                for d in &mut desc {
                    *d = r.get_u64()?;
                }
                Ev::MifdLaunch { cpu, desc }
            }
            4 => Ev::ChunkArrive {
                core: r.get_usize()?,
                chunk: TaskChunk::load(r)?,
            },
            5 => Ev::ResumeSyscall {
                cpu: r.get_usize()?,
                ret: r.get_u64()?,
            },
            6 => Ev::FaultToCpu {
                req: PageFaultReq::load(r)?,
                mcore: r.get_usize()?,
            },
            7 => Ev::FaultAckAtMttop {
                mcore: r.get_usize()?,
                warp: r.get_usize()?,
            },
            8 => Ev::IpiArrive {
                target: r.get_usize()?,
                va: VirtAddr(r.get_u64()?),
                initiator: r.get_usize()?,
            },
            9 => Ev::FlushArrive {
                target: r.get_usize()?,
                va: VirtAddr(r.get_u64()?),
                initiator: r.get_usize()?,
            },
            10 => Ev::ShootAck {
                initiator: r.get_usize()?,
            },
            11 => Ev::HandlerRetry {
                cpu: r.get_usize()?,
            },
            12 => Ev::WatchdogTick,
            other => return Err(bad_tag("Ev", other)),
        })
    }
}

/// Reads a sequence that must have exactly `dst.len()` `u64` entries
/// (config-derived length; a mismatch means the wrong config).
fn load_exact_u64s(r: &mut SnapReader<'_>, dst: &mut [u64], what: &str) -> Result<(), SnapError> {
    let n = r.get_usize()?;
    if n != dst.len() {
        return Err(SnapError::Corrupt {
            what: format!("snapshot has {n} {what} entries, machine has {}", dst.len()),
        });
    }
    for v in dst {
        *v = r.get_u64()?;
    }
    Ok(())
}

/// As [`load_exact_u64s`] for `usize` slices.
fn load_exact_usizes(
    r: &mut SnapReader<'_>,
    dst: &mut [usize],
    what: &str,
) -> Result<(), SnapError> {
    let n = r.get_usize()?;
    if n != dst.len() {
        return Err(SnapError::Corrupt {
            what: format!("snapshot has {n} {what} entries, machine has {}", dst.len()),
        });
    }
    for v in dst {
        *v = r.get_usize()?;
    }
    Ok(())
}

impl Snapshot for Machine {
    fn save(&self, w: &mut SnapWriter) {
        // Not serialized, and why:
        //  * `cfg`, `prog`, node placement, `kexit` — the restoring caller
        //    supplies the same config + program; `Machine::new` re-derives
        //    them (the header's config hash guards the "same config" part).
        //  * `completions_buf`, `port_logs`, `mem` scratch — drained between
        //    dispatched events; checkpoints only happen at such boundaries.
        //  * `clock`, `zones`, `zone_batches` — host-side profiling
        //    telemetry, not simulated state (DESIGN.md §8); excluding them
        //    keeps snapshot bytes identical across `sim_threads` settings.
        //  * `trace` — telemetry, not simulated state; excluding it keeps
        //    snapshot bytes identical across `trace_events` settings.
        let s = w.begin_section("machine");
        w.put_u64(self.now.as_ps());
        w.put_bool(self.started);
        w.put_bool(self.main_exited);
        w.put_u64(self.exit_code);
        w.put_u64(self.progress);
        w.put_u64(self.events);
        w.put_usize(self.printed.len());
        for i in 0..self.printed.len() {
            w.put_str(&self.printed[i]);
            w.put_u64(self.printed_at[i].as_ps());
            w.put_u64(self.dram_at_print[i]);
        }
        self.watchdog.save(w);
        match &self.failure {
            None => w.put_bool(false),
            Some((outcome, dump)) => {
                w.put_bool(true);
                w.put_u8(outcome.snap_tag());
                dump.save(w);
            }
        }
        w.put_u64(self.data_deliveries);
        w.put_u64(self.resps_seen);
        match self.blackholed_block {
            None => w.put_bool(false),
            Some(b) => {
                w.put_bool(true);
                w.put_u64(b);
            }
        }
        w.put_u64(self.mut_count);
        w.put_bool(self.mut_done);
        // Probe/ack-loss fault streams (schema v4): presence mirrors the
        // config, but the stream *position* is run state and must survive a
        // checkpoint taken mid-plan.
        for rng in [&self.snoop_probe_rng, &self.upd_ack_rng] {
            match rng {
                Some(s) => {
                    w.put_bool(true);
                    w.put_u64(s.state());
                }
                None => w.put_bool(false),
            }
        }
        w.put_u64(self.snoop_probe_drops);
        w.put_u64(self.upd_ack_drops);
        w.put_usize(self.cpu_seq.len());
        for v in &self.cpu_seq {
            w.put_u64(*v);
        }
        w.put_usize(self.mttop_seq.len());
        for v in &self.mttop_seq {
            w.put_u64(*v);
        }
        w.put_usize(self.shoot_pending.len());
        for v in &self.shoot_pending {
            w.put_usize(*v);
        }
        w.put_usize(self.reserved.len());
        for v in &self.reserved {
            w.put_usize(*v);
        }
        w.put_usize(self.handlers.len());
        for h in &self.handlers {
            h.save(w);
        }
        w.end_section(s);

        // The event queue, in dispatch order. Restore re-pushes in that
        // order into a fresh queue: push-seqs renumber, but the relative
        // FIFO order among equal-time events — the part that determines
        // behaviour — is preserved exactly.
        let s = w.begin_section("queue");
        let entries = self.queue.ordered_entries();
        w.put_usize(entries.len());
        for (t, ev) in entries {
            w.put_u64(t.as_ps());
            ev.save(w);
        }
        w.end_section(s);

        let s = w.begin_section("cpus");
        w.put_usize(self.cpus.len());
        for c in &self.cpus {
            c.save(w);
        }
        w.end_section(s);

        let s = w.begin_section("mttops");
        w.put_usize(self.mttops.len());
        for m in &self.mttops {
            m.save(w);
        }
        w.end_section(s);

        let s = w.begin_section("mifd");
        self.mifd.save(w);
        w.end_section(s);

        let s = w.begin_section("mem");
        self.mem.save(w);
        w.end_section(s);

        let s = w.begin_section("net");
        self.net.save(w);
        w.end_section(s);

        let s = w.begin_section("os");
        self.os.save(w);
        w.end_section(s);

        let s = w.begin_section("heap");
        self.heap.save(w);
        w.end_section(s);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let end = r.begin_section("machine")?;
        self.now = Time::from_ps(r.get_u64()?);
        self.started = r.get_bool()?;
        self.main_exited = r.get_bool()?;
        self.exit_code = r.get_u64()?;
        self.progress = r.get_u64()?;
        self.events = r.get_u64()?;
        self.printed.clear();
        self.printed_at.clear();
        self.dram_at_print.clear();
        for _ in 0..r.get_usize()? {
            self.printed.push(r.get_str()?.to_string());
            self.printed_at.push(Time::from_ps(r.get_u64()?));
            self.dram_at_print.push(r.get_u64()?);
        }
        self.watchdog.load(r)?;
        self.failure = if r.get_bool()? {
            let outcome = Outcome::from_snap_tag(r.get_u8()?)?;
            Some((outcome, DiagnosticDump::load_snap(r)?))
        } else {
            None
        };
        self.data_deliveries = r.get_u64()?;
        self.resps_seen = r.get_u64()?;
        self.blackholed_block = if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        };
        self.mut_count = r.get_u64()?;
        self.mut_done = r.get_bool()?;
        for rng in [&mut self.snoop_probe_rng, &mut self.upd_ack_rng] {
            if r.get_bool()? {
                match rng {
                    Some(s) => s.set_state(r.get_u64()?),
                    None => {
                        return Err(SnapError::Corrupt {
                            what: "snapshot carries a probe-loss fault stream the \
                                   config does not arm"
                                .to_string(),
                        })
                    }
                }
            } else if rng.is_some() {
                return Err(SnapError::Corrupt {
                    what: "config arms a probe-loss fault stream the snapshot lacks".to_string(),
                });
            }
        }
        self.snoop_probe_drops = r.get_u64()?;
        self.upd_ack_drops = r.get_u64()?;
        load_exact_u64s(r, &mut self.cpu_seq, "cpu_seq")?;
        load_exact_u64s(r, &mut self.mttop_seq, "mttop_seq")?;
        load_exact_usizes(r, &mut self.shoot_pending, "shoot_pending")?;
        load_exact_usizes(r, &mut self.reserved, "reserved")?;
        let n = r.get_usize()?;
        if n != self.handlers.len() {
            return Err(SnapError::Corrupt {
                what: format!(
                    "snapshot has {n} OS handlers, machine has {}",
                    self.handlers.len()
                ),
            });
        }
        for h in &mut self.handlers {
            *h = Handler::load(r)?;
        }
        r.end_section(end)?;

        let end = r.begin_section("queue")?;
        let mut queue = EventQueue::new();
        for _ in 0..r.get_usize()? {
            let t = Time::from_ps(r.get_u64()?);
            queue.push(t, Ev::load(r)?);
        }
        self.queue = queue;
        r.end_section(end)?;

        let end = r.begin_section("cpus")?;
        let n = r.get_usize()?;
        if n != self.cpus.len() {
            return Err(SnapError::Corrupt {
                what: format!("snapshot has {n} CPUs, machine has {}", self.cpus.len()),
            });
        }
        for c in &mut self.cpus {
            c.load(r)?;
        }
        r.end_section(end)?;

        let end = r.begin_section("mttops")?;
        let n = r.get_usize()?;
        if n != self.mttops.len() {
            return Err(SnapError::Corrupt {
                what: format!("snapshot has {n} MTTOPs, machine has {}", self.mttops.len()),
            });
        }
        for m in &mut self.mttops {
            m.load(r)?;
        }
        r.end_section(end)?;

        let end = r.begin_section("mifd")?;
        self.mifd.load(r)?;
        r.end_section(end)?;

        let end = r.begin_section("mem")?;
        self.mem.load(r)?;
        r.end_section(end)?;

        let end = r.begin_section("net")?;
        self.net.load(r)?;
        r.end_section(end)?;

        let end = r.begin_section("os")?;
        self.os.load(r)?;
        r.end_section(end)?;

        let end = r.begin_section("heap")?;
        self.heap.load(r)?;
        r.end_section(end)?;
        Ok(())
    }
}

impl Machine {
    /// Serializes the machine's full run-state to an in-memory snapshot
    /// image (header + every component, see DESIGN.md §8).
    ///
    /// Valid whenever the machine sits at an inter-event boundary: before
    /// [`Machine::run`], or after [`Machine::run_until`] returned `None`.
    /// The image is byte-identical regardless of `sim_threads` — host
    /// execution knobs are neither hashed nor serialized.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_header(config_hash(&self.cfg));
        // The protocol name rides right after the header (schema v3) so a
        // restore into a machine running a different coherence protocol can
        // report *why* the config hashes differ instead of a bare mismatch.
        w.put_str(self.cfg.protocol.as_str());
        self.save(&mut w);
        w.into_vec()
    }

    /// Writes [`Machine::checkpoint_bytes`] to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::Io`] when the file cannot be written.
    pub fn checkpoint(&self, path: &std::path::Path) -> Result<(), SnapError> {
        ccsvm_snap::write_file(path, &self.checkpoint_bytes())
    }

    /// Rebuilds a machine from an in-memory snapshot image. `cfg` and
    /// `prog` must be the ones the checkpointed machine was built with —
    /// the header's config hash enforces the config part.
    ///
    /// The restored machine resumes with [`Machine::run`] (or
    /// `run_until`) and produces results bit-identical to the
    /// uninterrupted original, at any `sim_threads` setting.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapError`] — never a corrupted machine — when the
    /// image has the wrong magic, schema version, or config hash, or is
    /// truncated or internally inconsistent.
    pub fn restore_bytes(
        cfg: SystemConfig,
        prog: Program,
        bytes: &[u8],
    ) -> Result<Machine, SnapError> {
        let mut r = SnapReader::new(bytes);
        if let Err(e) = r.check_header(config_hash(&cfg)) {
            if matches!(e, SnapError::ConfigMismatch { .. }) {
                // The reader sits right after the header even on a hash
                // mismatch, so the protocol tag is readable: turn a
                // cross-protocol restore into its typed error.
                if let Ok(found) = r.get_str() {
                    if found != cfg.protocol.as_str() {
                        return Err(SnapError::ProtocolMismatch {
                            found: found.to_string(),
                            expected: cfg.protocol.as_str().to_string(),
                        });
                    }
                }
            }
            return Err(e);
        }
        let tag = r.get_str()?;
        if tag != cfg.protocol.as_str() {
            // Unreachable while the protocol participates in the config
            // hash; kept as a hard check so the tag never drifts silently.
            return Err(SnapError::ProtocolMismatch {
                found: tag.to_string(),
                expected: cfg.protocol.as_str().to_string(),
            });
        }
        let mut m = Machine::new(cfg, prog);
        m.load(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapError::Corrupt {
                what: format!("{} trailing bytes after machine state", r.remaining()),
            });
        }
        Ok(m)
    }

    /// Reads a snapshot file and [`Machine::restore_bytes`] from it.
    ///
    /// # Errors
    ///
    /// As [`Machine::restore_bytes`], plus [`SnapError::Io`] on read failure.
    pub fn restore(
        cfg: SystemConfig,
        prog: Program,
        path: &std::path::Path,
    ) -> Result<Machine, SnapError> {
        let bytes = ccsvm_snap::read_file(path)?;
        Machine::restore_bytes(cfg, prog, &bytes)
    }
}
