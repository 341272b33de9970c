//! Append-only, crash-tolerant record journals (write-ahead logs).
//!
//! A journal is the durable spine of a long-running harness: every state
//! transition is appended as one framed record, and after a crash the
//! surviving prefix reconstructs where work stood. The format follows the
//! snapshot codec's conventions — magic/version header, little-endian
//! fixed-width integers, typed [`SnapError`]s, no panics on malformed
//! input — with one extra property the snapshot format does not need:
//! **torn-tail tolerance**. A process can die mid-append, so the final
//! record of a journal may be incomplete; replay detects that and drops
//! the torn tail instead of erroring, because an unfinished append is the
//! expected crash signature, not corruption.
//!
//! Layout:
//!
//! ```text
//! magic    [u8; 8]   b"CCSVJRNL"
//! version  u32       JOURNAL_VERSION
//! tag      u64       caller-defined stream id (e.g. a sweep-spec hash)
//! record*  :=  len   u32   payload byte count
//!              sum   u64   FNV-1a of the payload
//!              body  [u8; len]
//! ```
//!
//! The checksum distinguishes a *torn* record (short frame at EOF —
//! dropped) from a *corrupt* one (full frame whose bytes do not hash to
//! `sum` — a typed [`SnapError::Corrupt`], never silently trusted).
//!
//! # Examples
//!
//! ```no_run
//! use ccsvm_snap::journal::{JournalWriter, replay};
//!
//! let path = std::path::Path::new("sweep.journal");
//! let mut w = JournalWriter::create(path, 0xfeed).unwrap();
//! w.append(b"job planned").unwrap();
//! drop(w);
//!
//! let j = replay(path).unwrap();
//! assert_eq!(j.tag, 0xfeed);
//! assert_eq!(j.records[0], b"job planned");
//! assert!(!j.torn);
//! ```

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use crate::{fnv1a, SnapError};

/// File magic identifying a ccsvm journal.
pub const JOURNAL_MAGIC: [u8; 8] = *b"CCSVJRNL";

/// Journal format version. Bump on any framing change.
pub const JOURNAL_VERSION: u32 = 1;

/// Bytes of the fixed file header (magic + version + tag).
const HEADER_BYTES: usize = 8 + 4 + 8;

/// Bytes of a record frame before its payload (len + checksum).
const FRAME_BYTES: usize = 4 + 8;

/// An open journal being appended to.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    appended: u64,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any existing file) and
    /// writes its header.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] when the file cannot be created or written.
    pub fn create(path: &Path, tag: u64) -> Result<JournalWriter, SnapError> {
        let mut file = File::create(path).map_err(|e| io_err(path, &e))?;
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(&JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&tag.to_le_bytes());
        file.write_all(&header).map_err(|e| io_err(path, &e))?;
        file.sync_data().map_err(|e| io_err(path, &e))?;
        Ok(JournalWriter { file, appended: 0 })
    }

    /// Opens an existing journal for appending, after verifying its header
    /// matches `tag`. The caller is expected to [`replay`] first; a torn
    /// tail left by a previous crash is truncated away here so new records
    /// never land after garbage.
    ///
    /// # Errors
    ///
    /// Typed [`SnapError`]s for a missing/unreadable file, bad magic or
    /// version, or a tag mismatch (the journal belongs to a different
    /// sweep).
    pub fn open_append(path: &Path, tag: u64) -> Result<JournalWriter, SnapError> {
        let replayed = replay(path)?;
        if replayed.tag != tag {
            return Err(SnapError::ConfigMismatch {
                found: replayed.tag,
                expected: tag,
            });
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        // Drop any torn tail so the next append starts on a clean frame
        // boundary.
        file.set_len(replayed.valid_bytes)
            .map_err(|e| io_err(path, &e))?;
        Ok(JournalWriter {
            file,
            appended: replayed.records.len() as u64,
        })
    }

    /// Appends one record and syncs it to disk. The write is framed
    /// (length + checksum + payload) in a single `write_all`, so a crash
    /// leaves at worst one torn final record, which replay drops.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] on write failure; [`SnapError::Corrupt`] when the
    /// payload exceeds `u32::MAX` bytes (a caller bug, surfaced typed).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), SnapError> {
        let len = u32::try_from(payload.len()).map_err(|_| SnapError::Corrupt {
            what: format!(
                "journal record of {} bytes exceeds u32 framing",
                payload.len()
            ),
        })?;
        let mut frame = Vec::with_capacity(FRAME_BYTES + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .map_err(|e| SnapError::Io(format!("journal append: {e}")))?;
        self.file
            .sync_data()
            .map_err(|e| SnapError::Io(format!("journal sync: {e}")))?;
        self.appended += 1;
        Ok(())
    }

    /// Records appended through this writer (excludes pre-existing ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }
}

/// The surviving contents of a journal after [`replay`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Replayed {
    /// The header's caller-defined stream id.
    pub tag: u64,
    /// Every intact record, oldest first.
    pub records: Vec<Vec<u8>>,
    /// Whether a torn final record was dropped (the crash signature).
    pub torn: bool,
    /// Byte offset of the end of the last intact record — the length to
    /// truncate to before appending again.
    pub valid_bytes: u64,
}

/// Reads a journal back, dropping a torn final record.
///
/// Decoding is strict everywhere except the tail: a header that does not
/// parse, or a complete record whose checksum does not match its payload,
/// is a typed error — the journal cannot be trusted and the caller must
/// quarantine it. Only an *incomplete* final frame (the file ends mid-append)
/// is forgiven, reported via [`Replayed::torn`].
///
/// # Errors
///
/// [`SnapError::Io`] when the file cannot be read, [`SnapError::BadMagic`] /
/// [`SnapError::SchemaMismatch`] / [`SnapError::Truncated`] for a bad
/// header, [`SnapError::Corrupt`] for a checksum mismatch on a complete
/// record.
pub fn replay(path: &Path) -> Result<Replayed, SnapError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(path, &e))?;
    replay_bytes(&bytes)
}

/// [`replay`] over an in-memory image (exact same semantics).
///
/// # Errors
///
/// As [`replay`], minus the I/O.
pub fn replay_bytes(bytes: &[u8]) -> Result<Replayed, SnapError> {
    if bytes.len() < HEADER_BYTES {
        return Err(SnapError::Truncated {
            what: "journal header",
        });
    }
    if bytes[..8] != JOURNAL_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != JOURNAL_VERSION {
        return Err(SnapError::SchemaMismatch {
            found: version,
            expected: JOURNAL_VERSION,
        });
    }
    let tag = u64::from_le_bytes(bytes[12..HEADER_BYTES].try_into().expect("8 bytes"));

    let mut records = Vec::new();
    let mut pos = HEADER_BYTES;
    let mut torn = false;
    while pos < bytes.len() {
        if bytes.len() - pos < FRAME_BYTES {
            torn = true; // frame header itself is cut off
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let body_at = pos + FRAME_BYTES;
        if bytes.len() - body_at < len {
            torn = true; // payload cut off mid-append
            break;
        }
        let body = &bytes[body_at..body_at + len];
        if fnv1a(body) != sum {
            return Err(SnapError::Corrupt {
                what: format!(
                    "journal record {} (at byte {pos}) fails its checksum",
                    records.len()
                ),
            });
        }
        records.push(body.to_vec());
        pos = body_at + len;
    }
    Ok(Replayed {
        tag,
        records,
        torn,
        valid_bytes: pos as u64,
    })
}

fn io_err(path: &Path, e: &std::io::Error) -> SnapError {
    SnapError::Io(format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path no other call returns: tests run on parallel threads of one
    /// process, and several of them build their journal through `sample`.
    fn temp_path(name: &str) -> std::path::PathBuf {
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "ccsvm-journal-{}-{call}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn sample() -> Vec<u8> {
        let path = temp_path("sample");
        let mut w = JournalWriter::create(&path, 42).unwrap();
        w.append(b"first").unwrap();
        w.append(b"").unwrap();
        w.append(&[0xAB; 300]).unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    }

    #[test]
    fn round_trip_and_append_counts() {
        let path = temp_path("roundtrip");
        let mut w = JournalWriter::create(&path, 7).unwrap();
        w.append(b"a").unwrap();
        assert_eq!(w.appended(), 1);
        drop(w);

        let mut w = JournalWriter::open_append(&path, 7).unwrap();
        w.append(b"b").unwrap();
        drop(w);

        let j = replay(&path).unwrap();
        assert_eq!(j.tag, 7);
        assert_eq!(j.records, vec![b"a".to_vec(), b"b".to_vec()]);
        assert!(!j.torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tag_mismatch_is_typed() {
        let path = temp_path("tag");
        JournalWriter::create(&path, 1).unwrap();
        assert!(matches!(
            JournalWriter::open_append(&path, 2),
            Err(SnapError::ConfigMismatch {
                found: 1,
                expected: 2
            })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_truncation_is_tolerated_or_typed() {
        let bytes = sample();
        let full = replay_bytes(&bytes).unwrap();
        assert_eq!(full.records.len(), 3);
        for cut in 0..bytes.len() {
            match replay_bytes(&bytes[..cut]) {
                Ok(j) => {
                    // A truncated journal may only lose records off the
                    // tail — the surviving prefix must match the original.
                    // (A cut landing exactly on a frame boundary reads as a
                    // clean, shorter journal — torn stays false there.)
                    assert!(j.records.len() <= full.records.len());
                    assert_eq!(j.records[..], full.records[..j.records.len()]);
                }
                Err(SnapError::Truncated { .. } | SnapError::BadMagic) => {} // header cut off: typed, never a panic
                Err(e) => panic!("unexpected error at cut {cut}: {e}"),
            }
        }
    }

    #[test]
    fn byte_flips_never_yield_wrong_records() {
        let bytes = sample();
        let full = replay_bytes(&bytes).unwrap();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            // A typed rejection is always acceptable; a flip may also
            // shrink the journal (length-field damage reads as a torn
            // tail) but every record it *does* return must be an
            // unmodified prefix record.
            if let Ok(j) = replay_bytes(&flipped) {
                for (k, rec) in j.records.iter().enumerate() {
                    assert_eq!(rec, &full.records[k], "flip at byte {i}");
                }
            }
        }
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let path = temp_path("torn");
        let mut w = JournalWriter::create(&path, 9).unwrap();
        w.append(b"keep").unwrap();
        w.append(b"torn-me").unwrap();
        drop(w);
        // Simulate a crash mid-append: chop into the final record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let j = replay(&path).unwrap();
        assert_eq!(j.records, vec![b"keep".to_vec()]);
        assert!(j.torn);

        let mut w = JournalWriter::open_append(&path, 9).unwrap();
        w.append(b"after").unwrap();
        drop(w);
        let j = replay(&path).unwrap();
        assert_eq!(j.records, vec![b"keep".to_vec(), b"after".to_vec()]);
        assert!(!j.torn);
        let _ = std::fs::remove_file(&path);
    }
}
