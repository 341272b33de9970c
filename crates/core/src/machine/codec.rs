//! The machine's snapshot codec: `Snapshot for Machine`, the codecs of
//! the machine-private types it serializes, and the `checkpoint`/`restore`
//! entry points. A child module of `machine`, so the fields stay private to
//! the two files.

use ccsvm_engine::{EventQueue, Time};
use ccsvm_isa::Program;
use ccsvm_snap::{codec, Codec, SnapError, SnapReader, SnapWriter, Snapshot};

use super::{config_hash, Active, DiagnosticDump, Ev, Handler, Job, Machine, Outcome};
use crate::SystemConfig;

codec!(enum Outcome {
    0 => Completed,
    1 => Deadlock,
    2 => Poisoned,
    3 => RetryBudgetExhausted,
    4 => InvariantViolation,
});
codec!(struct DiagnosticDump {
    reason, at, outstanding, dir_active, poisoned_blocks, noc_busy_links, noc_max_backlog,
    violation,
});
codec!(enum Job {
    0 => Local { va },
    1 => Remote { mcore, warp, va },
    2 => Unmap { va },
});
codec!(struct Active { job, writes, next });
codec!(struct Handler { queue, active });
codec!(enum Ev {
    0 => Mem(me),
    1 => CpuBatch { core, seq },
    2 => MttopBatch { core, seq },
    3 => MifdLaunch { cpu, desc },
    4 => ChunkArrive { core, chunk },
    5 => ResumeSyscall { cpu, ret },
    6 => FaultToCpu { req, mcore },
    7 => FaultAckAtMttop { mcore, warp },
    8 => IpiArrive { target, va, initiator },
    9 => FlushArrive { target, va, initiator },
    10 => ShootAck { initiator },
    11 => HandlerRetry { cpu },
    12 => WatchdogTick,
});

impl Snapshot for Machine {
    fn save(&self, w: &mut SnapWriter) {
        // Not serialized, and why:
        //  * `cfg`, `prog`, node placement, `kexit` — the restoring caller
        //    supplies the same config + program; `Machine::new` re-derives
        //    them (the header's config hash guards the "same config" part).
        //  * `completions_buf`, `port_logs`, `mem` scratch — drained between
        //    dispatched events; checkpoints only happen at such boundaries.
        //  * `clock`, `spec_stats` — host-side profiling telemetry, not
        //    simulated state (DESIGN.md §8); excluding them keeps snapshot
        //    bytes identical across `host_profile` settings.
        //  * `trace` — telemetry, not simulated state; excluding it keeps
        //    snapshot bytes identical across `trace_events` settings.
        let s = w.begin_section("machine");
        (self.now, self.started, self.main_exited).put(w);
        [self.exit_code, self.progress, self.events].put(w);
        self.printed.len().put(w);
        for i in 0..self.printed.len() {
            self.printed[i].put(w);
            (self.printed_at[i], self.dram_at_print[i]).put(w);
        }
        self.watchdog.put(w);
        self.failure.put(w);
        (self.data_deliveries, self.resps_seen, self.blackholed_block).put(w);
        (self.mut_count, self.mut_done).put(w);
        // Probe/ack-loss fault streams (schema v4): presence mirrors the
        // config, but the stream *position* is run state and must survive a
        // checkpoint taken mid-plan.
        self.snoop_probe_rng.put(w);
        self.upd_ack_rng.put(w);
        (self.snoop_probe_drops, self.upd_ack_drops).put(w);
        self.cpu_seq.put(w);
        self.mttop_seq.put(w);
        self.shoot_pending.put(w);
        self.reserved.put(w);
        self.handlers.put(w);
        w.end_section(s);

        // The event queue, in dispatch order. Restore re-pushes in that
        // order into a fresh queue: push-seqs renumber, but the relative
        // FIFO order among equal-time events — the part that determines
        // behaviour — is preserved exactly.
        let s = w.begin_section("queue");
        let entries = self.queue.ordered_entries();
        entries.len().put(w);
        for (t, ev) in entries {
            t.put(w);
            ev.put(w);
        }
        w.end_section(s);

        let s = w.begin_section("cpus");
        self.cpus.len().put(w);
        self.cpus.iter().for_each(|c| c.save(w));
        w.end_section(s);

        let s = w.begin_section("mttops");
        self.mttops.len().put(w);
        self.mttops.iter().for_each(|m| m.save(w));
        w.end_section(s);

        let parts: [(&str, &dyn Snapshot); 5] = [
            ("mifd", &self.mifd),
            ("mem", &self.mem),
            ("net", &self.net),
            ("os", &self.os),
            ("heap", &self.heap),
        ];
        for (name, part) in parts {
            let s = w.begin_section(name);
            part.save(w);
            w.end_section(s);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let end = r.begin_section("machine")?;
        (self.now, self.started, self.main_exited) = Codec::get(r)?;
        [self.exit_code, self.progress, self.events] = Codec::get(r)?;
        self.printed.clear();
        self.printed_at.clear();
        self.dram_at_print.clear();
        for _ in 0..r.get_count(<(String, Time, u64)>::MIN_BYTES)? {
            self.printed.push(Codec::get(r)?);
            let (at, dram) = Codec::get(r)?;
            self.printed_at.push(at);
            self.dram_at_print.push(dram);
        }
        self.watchdog = Codec::get(r)?;
        self.failure = Codec::get(r)?;
        (self.data_deliveries, self.resps_seen, self.blackholed_block) = Codec::get(r)?;
        (self.mut_count, self.mut_done) = Codec::get(r)?;
        for rng in [&mut self.snoop_probe_rng, &mut self.upd_ack_rng] {
            r.get_armed(rng.is_some(), "probe-loss fault stream")?;
            if let Some(s) = rng {
                *s = Codec::get(r)?;
            }
        }
        (self.snoop_probe_drops, self.upd_ack_drops) = Codec::get(r)?;
        r.get_exact(&mut self.cpu_seq, "cpu_seq entries")?;
        r.get_exact(&mut self.mttop_seq, "mttop_seq entries")?;
        r.get_exact(&mut self.shoot_pending, "shoot_pending entries")?;
        r.get_exact(&mut self.reserved, "reserved entries")?;
        r.get_exact(&mut self.handlers, "OS handlers")?;
        r.end_section(end)?;

        let end = r.begin_section("queue")?;
        let mut queue = EventQueue::new();
        for _ in 0..r.get_count(<(Time, Ev)>::MIN_BYTES)? {
            let (t, ev) = Codec::get(r)?;
            queue.push(t, ev);
        }
        self.queue = queue;
        r.end_section(end)?;

        let end = r.begin_section("cpus")?;
        r.get_len(self.cpus.len(), "CPUs")?;
        self.cpus.iter_mut().try_for_each(|c| c.load(r))?;
        r.end_section(end)?;

        let end = r.begin_section("mttops")?;
        r.get_len(self.mttops.len(), "MTTOPs")?;
        self.mttops.iter_mut().try_for_each(|m| m.load(r))?;
        r.end_section(end)?;

        let parts: [(&str, &mut dyn Snapshot); 5] = [
            ("mifd", &mut self.mifd),
            ("mem", &mut self.mem),
            ("net", &mut self.net),
            ("os", &mut self.os),
            ("heap", &mut self.heap),
        ];
        for (name, part) in parts {
            let end = r.begin_section(name)?;
            part.load(r)?;
            r.end_section(end)?;
        }
        Ok(())
    }
}

impl Machine {
    /// Serializes the machine's full run-state to an in-memory snapshot
    /// image (header + every component, see DESIGN.md §8).
    ///
    /// Valid whenever the machine sits at an inter-event boundary: before
    /// [`Machine::run`], or after [`Machine::run_until`] returned `None`.
    /// The image is byte-identical regardless of `host_profile` and
    /// `trace_events` — host knobs are neither hashed nor serialized.
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
    /// uninterrupted original.
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
        r.finish("machine state")?;
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
