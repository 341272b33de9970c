//! Pause images (DESIGN §8). A run is deterministic in its config and
//! program, so an image records only *when* the machine paused; a restore
//! rebuilds the machine and re-runs it to that point.

use ccsvm_engine::Time;
use ccsvm_isa::Program;
use ccsvm_snap::{fnv1a, Codec, SnapError, SnapReader, SnapWriter};

use super::{config_hash, Machine};
use crate::SystemConfig;

/// Image magic.
const MAGIC: [u8; 8] = *b"CCSVSNAP";

/// Image format version. Versions up to 4 were state dumps, which this
/// build refuses with [`SnapError::SchemaMismatch`].
const IMAGE_VERSION: u32 = 5;

/// FNV-1a of a program's text and data segment. Its symbol table is left
/// out: a `HashMap` has no stable order, and the text already fixes every
/// address the symbols name.
fn program_hash(prog: &Program) -> u64 {
    let text_and_data = format!("{:?} {} {:?}", prog.text, prog.globals_size, prog.data);
    fnv1a(text_and_data.as_bytes())
}

impl Machine {
    /// The machine's pause image: 45 bytes naming its config,
    /// its program and the simulated time it paused at (or that it has not
    /// booted). The layout, all little-endian:
    ///
    /// ```text
    /// magic    [u8; 8]  b"CCSVSNAP"
    /// version  u32      IMAGE_VERSION
    /// config   u64      config_hash of the SystemConfig
    /// program  u64      FNV-1a of the program's text and data
    /// booted   u8       0 before the first run_until, else 1
    /// pause    u64      Machine::now in ps (0 when not booted)
    /// check    u64      FNV-1a of the 37 bytes above
    /// ```
    ///
    /// Valid on a machine that has not run or that [`Machine::run_until`]
    /// paused. Host knobs are in neither hash, so the image is the same with
    /// `host_profile`, `trace_events` or `sb_cache` on or off.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_magic(&MAGIC, IMAGE_VERSION);
        (config_hash(&self.cfg), program_hash(&self.prog)).put(&mut w);
        (self.started, self.now).put(&mut w);
        let mut bytes = w.into_vec();
        let check = fnv1a(&bytes);
        bytes.extend_from_slice(&check.to_le_bytes());
        bytes
    }

    /// Rebuilds the machine an image was taken of: checks the image against
    /// `cfg` and `prog`, then runs a fresh `Machine::new(cfg, prog)` with
    /// [`Machine::run_until`] to the pause time. The re-run is exact: the
    /// paused machine had dispatched every event at or before its `now` and
    /// none after it, and so has the re-run. It resumes with
    /// [`Machine::run`] or `run_until` and finishes bit-identical to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// A typed [`SnapError`], never a wrong machine: `Truncated` for a short
    /// image, `Corrupt` for trailing bytes, a bad checksum or a bad booted
    /// flag, `BadMagic`, `SchemaMismatch` for another version,
    /// `ConfigMismatch` and `ProgramMismatch` for an image of another config
    /// or program, and `PauseAfterEnd` when the re-run ends at or before the
    /// pause time.
    pub fn restore_bytes(
        cfg: SystemConfig,
        prog: Program,
        bytes: &[u8],
    ) -> Result<Machine, SnapError> {
        let mut r = SnapReader::new(bytes);
        r.expect_magic(&MAGIC, IMAGE_VERSION)?;
        let (config, program): (u64, u64) = Codec::get(&mut r)?;
        let (booted, pause): (bool, Time) = Codec::get(&mut r)?;
        let body = bytes.len() - r.remaining();
        let check = u64::get(&mut r)?;
        r.finish("pause image")?;
        if check != fnv1a(&bytes[..body]) || (!booted && pause != Time::ZERO) {
            return Err(SnapError::Corrupt {
                what: "pause image fails its checksum or pauses before boot".into(),
            });
        }
        let expected = config_hash(&cfg);
        if config != expected {
            return Err(SnapError::ConfigMismatch {
                found: config,
                expected,
            });
        }
        let expected = program_hash(&prog);
        if program != expected {
            return Err(SnapError::ProgramMismatch {
                found: program,
                expected,
            });
        }
        let mut m = Machine::new(cfg, prog);
        if booted {
            if let Some(end) = m.run_until(pause) {
                return Err(SnapError::PauseAfterEnd {
                    pause_ps: pause.as_ps(),
                    end_ps: end.time.as_ps(),
                });
            }
        }
        Ok(m)
    }
}
