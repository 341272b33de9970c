//! Result cache: completed `RunReport`s keyed by job key.
//!
//! The cache is the sweep's ground truth for "exactly once": a job is done
//! iff a *valid* entry exists. Entries are written atomically (temp +
//! rename, via `ccsvm_snap::write_file`) and, because runs are
//! deterministic, any two writes for the same key produce identical bytes —
//! so concurrent or repeated writes are idempotent, never conflicting.
//!
//! A corrupt, truncated, schema-drifted, or wrong-config entry is a **typed
//! miss**: [`ReportCache::lookup`] returns the `SnapError`, the caller logs
//! it, [`ReportCache::quarantine`] moves the bad file aside, and the job
//! simply re-runs. No failure mode panics or silently trusts bad bytes.

use std::path::{Path, PathBuf};

use ccsvm::RunReport;
use ccsvm_snap::{fnv1a, read_file, write_file, SnapError, SnapReader, SnapWriter};

/// Cache entry magic.
pub const CACHE_MAGIC: [u8; 8] = *b"CCSVRPRT";
/// Bump when the envelope layout changes.
pub const CACHE_VERSION: u32 = 1;

/// A directory of `{key:016x}.rpt` files.
#[derive(Clone, Debug)]
pub struct ReportCache {
    dir: PathBuf,
}

impl ReportCache {
    /// Opens (creating if needed) the cache directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<ReportCache, SnapError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SnapError::Io(format!("{}: {e}", dir.display())))?;
        Ok(ReportCache { dir })
    }

    /// Path of the entry for `key`.
    pub fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.rpt"))
    }

    /// Encodes the envelope: magic, version, config hash, key, then the
    /// canonical report bytes with a trailing FNV-1a of everything before it.
    fn encode(key: u64, config_hash: u64, report: &RunReport) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_magic(&CACHE_MAGIC, CACHE_VERSION);
        w.put_u64(config_hash);
        w.put_u64(key);
        w.put_bytes(&report.to_bytes());
        let mut bytes = w.into_vec();
        let digest = fnv1a(&bytes);
        bytes.extend_from_slice(&digest.to_le_bytes());
        bytes
    }

    /// Atomically stores `report` under `key`.
    pub fn store(&self, key: u64, config_hash: u64, report: &RunReport) -> Result<(), SnapError> {
        write_file(
            &self.path(key),
            &ReportCache::encode(key, config_hash, report),
        )
    }

    /// Looks up `key`. `Ok(None)` = no entry; `Err` = an entry exists but is
    /// invalid (treat as a miss after logging/quarantining); `Ok(Some)` = a
    /// verified report.
    pub fn lookup(&self, key: u64, config_hash: u64) -> Result<Option<RunReport>, SnapError> {
        let path = self.path(key);
        if !path.exists() {
            return Ok(None);
        }
        let bytes = read_file(&path)?;
        let mut r = SnapReader::new(&bytes);
        r.expect_magic(&CACHE_MAGIC, CACHE_VERSION)?;
        let got_cfg = r.get_u64()?;
        if got_cfg != config_hash {
            return Err(SnapError::ConfigMismatch {
                found: got_cfg,
                expected: config_hash,
            });
        }
        let got_key = r.get_u64()?;
        if got_key != key {
            return Err(SnapError::Corrupt {
                what: format!("cache entry claims key {got_key:016x}, expected {key:016x}"),
            });
        }
        let report_bytes = r.get_bytes()?.to_vec();
        let body_len = bytes.len() - r.remaining();
        let digest = r.get_u64()?;
        r.finish("cache entry")?;
        if digest != fnv1a(&bytes[..body_len]) {
            return Err(SnapError::Corrupt {
                what: "cache entry checksum mismatch".into(),
            });
        }
        RunReport::from_bytes(&report_bytes).map(Some)
    }

    /// Moves a bad entry aside as `{key}.rpt.bad` so the next attempt's
    /// store isn't fighting a poisoned file; best-effort.
    pub fn quarantine(&self, key: u64) {
        let path = self.path(key);
        let mut bad = path.as_os_str().to_owned();
        bad.push(".bad");
        let _ = std::fs::rename(&path, Path::new(&bad));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsvm::{config_hash, Machine, SystemConfig};

    fn report_and_hash() -> (RunReport, u64) {
        let cfg = SystemConfig::tiny();
        let h = config_hash(&cfg);
        let program = ccsvm_workloads::build("_CPU_ fn main() -> int { print_int(7); return 0; }");
        let mut m = Machine::new(cfg, program);
        (m.run(), h)
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = std::env::temp_dir().join(format!("sweepd-cache-rt-{}", std::process::id()));
        let cache = ReportCache::new(&dir).unwrap();
        let (report, h) = report_and_hash();
        assert!(cache.lookup(42, h).unwrap().is_none());
        cache.store(42, h, &report).unwrap();
        let back = cache.lookup(42, h).unwrap().expect("hit");
        assert_eq!(back.printed, report.printed);
        assert_eq!(back.time, report.time);
        assert_eq!(back.to_bytes(), report.to_bytes());
        // Stores are idempotent: same key, same bytes.
        let bytes_a = read_file(&cache.path(42)).unwrap();
        cache.store(42, h, &report).unwrap();
        assert_eq!(bytes_a, read_file(&cache.path(42)).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_entries_are_typed_misses_never_panics() {
        let dir = std::env::temp_dir().join(format!("sweepd-cache-bad-{}", std::process::id()));
        let cache = ReportCache::new(&dir).unwrap();
        let (report, h) = report_and_hash();
        cache.store(1, h, &report).unwrap();
        let good = read_file(&cache.path(1)).unwrap();

        // Wrong config hash.
        assert!(matches!(
            cache.lookup(1, h ^ 1),
            Err(SnapError::ConfigMismatch { .. })
        ));
        // Truncation at every offset: typed error or (for len 0 it's still
        // a read of an empty file -> Truncated), never Ok(Some) and never a
        // panic.
        for cut in 0..good.len() {
            std::fs::write(cache.path(1), &good[..cut]).unwrap();
            match cache.lookup(1, h) {
                Err(_) => {}
                Ok(hit) => panic!("truncated-to-{cut} entry produced {hit:?}"),
            }
        }
        // Single byte flips: checksum or field validation catches them all.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x41;
            std::fs::write(cache.path(1), &bad).unwrap();
            match cache.lookup(1, h) {
                Err(_) => {}
                Ok(hit) => panic!("flip at {i} produced {hit:?}"),
            }
        }
        // Quarantine moves the bad file aside -> clean miss.
        cache.quarantine(1);
        assert!(cache.lookup(1, h).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
