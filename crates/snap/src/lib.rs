//! Versioned, length-prefixed binary snapshots for deterministic
//! checkpoint/restore.
//!
//! Every stateful simulator component implements [`Snapshot`]: `save` appends
//! the component's mutable state to a [`SnapWriter`], `load` reads it back
//! from a [`SnapReader`] into an already-constructed component. Construction
//! and configuration are *not* part of a snapshot — a restore first rebuilds
//! the machine from the same `SystemConfig` + program, then loads only the
//! state that evolves during a run. That split keeps the format small and
//! makes "restore under a different config" a detectable error instead of
//! silent corruption.
//!
//! The format is written by hand (no serde) and its encoding rules are
//! stated once, as the impls of [`Codec`]: little-endian fixed-width
//! integers, `f64` as IEEE-754 bits, byte strings length-prefixed with a
//! `u64`, and so on; each struct and enum declares its field order with
//! [`codec!`]. Named length-prefixed sections let a reader verify it
//! consumed exactly what the writer produced. A file starts with:
//!
//! ```text
//! magic    [u8; 8]   b"CCSVSNAP"
//! schema   u32       SCHEMA_VERSION at write time
//! config   u64       FNV-1a hash of the normalized SystemConfig
//! ```
//!
//! Any mismatch surfaces as a typed [`SnapError`]; `load` implementations
//! never panic on malformed input.
//!
//! # Examples
//!
//! ```
//! use ccsvm_snap::{SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! let s = w.begin_section("demo");
//! w.put_u64(7);
//! w.put_str("hello");
//! w.end_section(s);
//! let bytes = w.into_vec();
//!
//! let mut r = SnapReader::new(&bytes);
//! let end = r.begin_section("demo").unwrap();
//! assert_eq!(r.get_u64().unwrap(), 7);
//! assert_eq!(r.get_str().unwrap(), "hello");
//! r.end_section(end).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod journal;

use std::fmt;

/// File magic: identifies a ccsvm snapshot.
pub const MAGIC: [u8; 8] = *b"CCSVSNAP";

/// Schema version of the snapshot format. Bump on ANY change to what any
/// component serializes, and document the change in DESIGN.md §8 (CI greps
/// for this).
pub const SCHEMA_VERSION: u32 = 4;

/// Typed snapshot failure. Restoring under a mismatched config or schema, or
/// from a truncated/corrupt file, yields one of these — never a panic and
/// never a silently wrong machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// Underlying file I/O failed (message from `std::io::Error`).
    Io(String),
    /// The file does not start with [`MAGIC`]; not a snapshot.
    BadMagic,
    /// The snapshot was written by a different format version.
    SchemaMismatch {
        /// Version found in the file header.
        found: u32,
        /// Version this binary understands ([`SCHEMA_VERSION`]).
        expected: u32,
    },
    /// The snapshot was taken under a different `SystemConfig`.
    ConfigMismatch {
        /// Config hash found in the file header.
        found: u64,
        /// Config hash of the machine being restored into.
        expected: u64,
    },
    /// A [`SnapError::ConfigMismatch`] whose root cause is known: the image
    /// was taken under a different coherence protocol than the machine it is
    /// being restored into. Surfaced by name so the fix ("pass the matching
    /// `--protocol`") is obvious without comparing raw hashes.
    ProtocolMismatch {
        /// Protocol name recorded in the image.
        found: String,
        /// Protocol name of the machine being restored into.
        expected: String,
    },
    /// The data ended before the expected field.
    Truncated {
        /// What the reader was trying to decode.
        what: &'static str,
    },
    /// The data decoded but violates a format invariant.
    Corrupt {
        /// Description of the violated invariant.
        what: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
            SnapError::BadMagic => write!(f, "not a ccsvm snapshot (bad magic)"),
            SnapError::SchemaMismatch { found, expected } => write!(
                f,
                "snapshot schema v{found} does not match this binary's v{expected}"
            ),
            SnapError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot was taken under a different SystemConfig \
                 (hash {found:#018x}, machine has {expected:#018x})"
            ),
            SnapError::ProtocolMismatch { found, expected } => write!(
                f,
                "snapshot was taken under the '{found}' coherence protocol \
                 but this machine is configured for '{expected}' \
                 (config hashes differ; restore with --protocol {found})"
            ),
            SnapError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapError::Corrupt { what } => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

impl SnapError {
    /// The error for a tag byte that names no variant of `what`.
    pub fn bad_tag(what: &str, tag: u8) -> SnapError {
        SnapError::Corrupt {
            what: format!("unknown {what} tag {tag:#04x}"),
        }
    }
}

/// FNV-1a 64-bit hash; used to fingerprint the normalized `SystemConfig`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only little-endian snapshot writer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
    }

    /// Writes the snapshot header: magic, schema version, config hash.
    pub fn put_header(&mut self, config_hash: u64) {
        self.buf.extend_from_slice(&MAGIC);
        self.put_u32(SCHEMA_VERSION);
        self.put_u64(config_hash);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a `u64`-length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Opens a named, length-prefixed section; returns a marker for
    /// [`SnapWriter::end_section`]. Sections let the reader verify it
    /// consumed exactly the bytes the writer produced.
    #[must_use]
    pub fn begin_section(&mut self, name: &str) -> usize {
        self.put_str(name);
        let mark = self.buf.len();
        self.put_u64(0); // placeholder, patched by end_section
        mark
    }

    /// Closes the section opened at `mark`, patching its byte length.
    pub fn end_section(&mut self, mark: usize) {
        let len = (self.buf.len() - mark - 8) as u64;
        self.buf[mark..mark + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// The serialized bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Checked little-endian snapshot reader over a byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> SnapReader<'a> {
        SnapReader { data, pos: 0 }
    }

    /// Validates the header written by [`SnapWriter::put_header`] against
    /// this binary's schema and the restoring machine's config hash.
    pub fn check_header(&mut self, expected_config_hash: u64) -> Result<(), SnapError> {
        let magic = self.take(8, "magic")?;
        if magic != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let schema = self.get_u32()?;
        if schema != SCHEMA_VERSION {
            return Err(SnapError::SchemaMismatch {
                found: schema,
                expected: SCHEMA_VERSION,
            });
        }
        let config = self.get_u64()?;
        if config != expected_config_hash {
            return Err(SnapError::ConfigMismatch {
                found: config,
                expected: expected_config_hash,
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        if self.data.len() - self.pos < n {
            return Err(SnapError::Truncated { what });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` written with [`SnapWriter::put_usize`]; errors if the
    /// value does not fit the host's `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.get_u64()?).map_err(|_| SnapError::Corrupt {
            what: "usize value exceeds host width".to_string(),
        })
    }

    /// Reads an element count that will drive a pre-sized allocation.
    /// Validates the count against the bytes actually remaining in the
    /// image (each element needs at least `min_elem_bytes` to encode), so a
    /// corrupt length field yields [`SnapError::Corrupt`] instead of an
    /// attempt to allocate terabytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the count cannot possibly be satisfied
    /// by the remaining data; [`SnapError::Truncated`] when the count field
    /// itself is cut off.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.get_usize()?;
        let elem = min_elem_bytes.max(1);
        if n > self.remaining() / elem {
            return Err(SnapError::Corrupt {
                what: format!(
                    "element count {n} x >= {elem} B exceeds the {} bytes remaining",
                    self.remaining()
                ),
            });
        }
        Ok(n)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is [`SnapError::Corrupt`].
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt {
                what: format!("bool byte {other:#04x}"),
            }),
        }
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.get_u64()?;
        let len = usize::try_from(len).map_err(|_| SnapError::Corrupt {
            what: format!("byte string length {len} exceeds host width"),
        })?;
        self.take(len, "byte string body")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| SnapError::Corrupt {
            what: "string is not valid UTF-8".to_string(),
        })
    }

    /// Copies a fixed-size run of raw bytes (written via `put_raw`).
    pub fn get_raw(&mut self, out: &mut [u8]) -> Result<(), SnapError> {
        let b = self.take(out.len(), "raw bytes")?;
        out.copy_from_slice(b);
        Ok(())
    }

    /// Opens the named section, verifying the name matches; returns the
    /// byte offset where the section must end.
    pub fn begin_section(&mut self, name: &str) -> Result<usize, SnapError> {
        let found = self.get_str()?;
        if found != name {
            return Err(SnapError::Corrupt {
                what: format!("expected section `{name}`, found `{found}`"),
            });
        }
        let len = self.get_usize()?;
        let end = self.pos.checked_add(len).filter(|&e| e <= self.data.len());
        end.ok_or(SnapError::Truncated {
            what: "section body",
        })
    }

    /// Closes a section, verifying the reader consumed exactly its bytes.
    pub fn end_section(&mut self, end: usize) -> Result<(), SnapError> {
        if self.pos != end {
            return Err(SnapError::Corrupt {
                what: format!(
                    "section length mismatch: reader at byte {}, section ends at {end}",
                    self.pos
                ),
            });
        }
        Ok(())
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads a count that must equal `expected`: a length the restoring
    /// machine's config fixes, so a mismatch means the wrong machine.
    pub fn get_len(&mut self, expected: usize, what: &str) -> Result<(), SnapError> {
        let n = self.get_usize()?;
        if n != expected {
            return Err(SnapError::Corrupt {
                what: format!("snapshot has {n} {what}, machine has {expected}"),
            });
        }
        Ok(())
    }

    /// Reads the presence flag of state that exists only when the config
    /// arms it: a flag that disagrees with `armed` means the wrong machine.
    pub fn get_armed(&mut self, armed: bool, what: &str) -> Result<(), SnapError> {
        if self.get_bool()? != armed {
            return Err(SnapError::Corrupt {
                what: format!("{what} presence differs from config"),
            });
        }
        Ok(())
    }

    /// Reads a config-length sequence in place: its count, which must
    /// equal `dst.len()` ([`SnapReader::get_len`]), then the items.
    pub fn get_exact<T: Codec>(&mut self, dst: &mut [T], what: &str) -> Result<(), SnapError> {
        self.get_len(dst.len(), what)?;
        dst.iter_mut().try_for_each(|v| v.get_into(self))
    }

    /// Errors unless every byte of the input was read: `what` names the
    /// value the input should have held exactly.
    pub fn finish(&self, what: &str) -> Result<(), SnapError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapError::Corrupt {
                what: format!("{n} trailing bytes after {what}"),
            }),
        }
    }
}

impl SnapWriter {
    /// Appends raw bytes with no length prefix (pair with
    /// [`SnapReader::get_raw`]).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// A component whose mutable run-state can round-trip through a snapshot.
///
/// `save`/`load` cover only state that evolves during a run; configuration
/// and construction-time wiring are re-derived by rebuilding the component
/// from the same config before calling `load`.
pub trait Snapshot {
    /// Appends this component's state to the writer.
    fn save(&self, w: &mut SnapWriter);
    /// Restores this component's state from the reader. On error the
    /// component may be partially loaded and must be discarded.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// A value with one wire encoding, which both directions read from one
/// description: [`Codec::put`] appends it, [`Codec::get`] decodes it and
/// returns a typed [`SnapError`] on malformed input, never a panic.
///
/// The impls below state the format's encoding rules once: fixed-width
/// little-endian integers, `usize` as `u64`, `bool` as one strict 0/1
/// byte, `f64` as its bits, `String` as a `u64` length plus UTF-8 bytes,
/// arrays and tuples as their items in order, `Option` as a `bool` plus
/// the value, `Vec`/`VecDeque`/sets as a `usize` count plus items, and
/// maps as a count plus `(key, value)` pairs sorted by key. Structs and
/// enums declare theirs with [`codec!`]. Components built from config
/// implement [`Snapshot`] instead and load in place.
///
/// **Any change to what an impl or a `codec!` list writes is a schema
/// change: bump [`SCHEMA_VERSION`] and document it in DESIGN.md §8.** The
/// digest golden `crates/core/tests/goldens/snapshot_digests.txt` fails
/// on any moved byte.
pub trait Codec: Sized {
    /// A lower bound on the encoded size, which collection decoders check
    /// a count against before they allocate for it.
    const MIN_BYTES: usize = 1;

    /// Appends the value.
    fn put(&self, w: &mut SnapWriter);

    /// Decodes a value written by [`Codec::put`].
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;

    /// Decodes into `self`. Collections override it to keep their
    /// allocation, so a component loaded in place keeps its configured
    /// capacity.
    fn get_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = Self::get(r)?;
        Ok(())
    }

    /// Appends `items` back to back; `u8` writes them as one raw run.
    #[doc(hidden)]
    fn put_all(items: &[Self], w: &mut SnapWriter) {
        items.iter().for_each(|v| v.put(w));
    }

    /// Decodes `items.len()` values into `items`.
    #[doc(hidden)]
    fn get_all(items: &mut [Self], r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        items.iter_mut().try_for_each(|v| v.get_into(r))
    }
}

/// Fixed-width values: `MIN_BYTES` is the exact width (a `usize` is
/// written as a `u64`).
macro_rules! prim_codec {
    ($($t:ty = $bytes:literal: $put:ident, $get:ident;)*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = $bytes;
            fn put(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn get(r: &mut SnapReader<'_>) -> Result<$t, SnapError> {
                r.$get()
            }
        }
    )*};
}

prim_codec! {
    u32 = 4: put_u32, get_u32;
    u64 = 8: put_u64, get_u64;
    usize = 8: put_usize, get_usize;
    f64 = 8: put_f64, get_f64;
    bool = 1: put_bool, get_bool;
}

impl Codec for u8 {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<u8, SnapError> {
        r.get_u8()
    }
    fn put_all(items: &[u8], w: &mut SnapWriter) {
        w.put_raw(items);
    }
    fn get_all(items: &mut [u8], r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.get_raw(items)
    }
}

impl Codec for String {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<String, SnapError> {
        r.get_str().map(str::to_string)
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn put(&self, w: &mut SnapWriter) {
        T::put_all(self, w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<[T; N], SnapError> {
        let mut a = [T::default(); N];
        T::get_all(&mut a, r)?;
        Ok(a)
    }
}

impl<T: Codec> Codec for Box<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn put(&self, w: &mut SnapWriter) {
        (**self).put(w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Box<T>, SnapError> {
        T::get(r).map(Box::new)
    }
}

macro_rules! tuple_codec {
    ($(($($t:ident $v:ident),*))*) => {$(
        impl<$($t: Codec),*> Codec for ($($t,)*) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)*;
            fn put(&self, w: &mut SnapWriter) {
                let ($($v,)*) = self;
                $($v.put(w);)*
            }
            fn get(r: &mut SnapReader<'_>) -> Result<($($t,)*), SnapError> {
                Ok(($($t::get(r)?,)*))
            }
        }
    )*};
}

tuple_codec! {
    (A a, B b)
    (A a, B b, C c)
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Option<T>, SnapError> {
        Ok(if r.get_bool()? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// `Vec`, `VecDeque` and sets: a `usize` count, bounded by the bytes left
/// before anything is allocated, then the items in iteration order.
macro_rules! seq_codec {
    ($($seq:ident<T $(: $bound:ident)?>, $push:ident;)*) => {$(
        impl<T: Codec $(+ $bound)?> Codec for $seq<T> {
            const MIN_BYTES: usize = 8;
            fn put(&self, w: &mut SnapWriter) {
                w.put_usize(self.len());
                self.iter().for_each(|v| v.put(w));
            }
            fn get(r: &mut SnapReader<'_>) -> Result<$seq<T>, SnapError> {
                let mut s = $seq::new();
                s.get_into(r)?;
                Ok(s)
            }
            fn get_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                self.clear();
                for _ in 0..r.get_count(T::MIN_BYTES)? {
                    self.$push(T::get(r)?);
                }
                Ok(())
            }
        }
    )*};
}

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

seq_codec! {
    Vec<T>, push;
    VecDeque<T>, push_back;
    BTreeSet<T: Ord>, insert;
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<BTreeMap<K, V>, SnapError> {
        let mut m = BTreeMap::new();
        m.get_into(r)?;
        Ok(m)
    }
    fn get_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        for _ in 0..r.get_count(K::MIN_BYTES + V::MIN_BYTES)? {
            let (k, v) = Codec::get(r)?;
            self.insert(k, v);
        }
        Ok(())
    }
}

/// Pairs sorted by key, so the bytes do not depend on insertion history.
impl<K, V, S> Codec for HashMap<K, V, S>
where
    K: Codec + Ord + std::hash::Hash,
    V: Codec,
    S: std::hash::BuildHasher + Default,
{
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut SnapWriter) {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.put_usize(pairs.len());
        for (k, v) in pairs {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<HashMap<K, V, S>, SnapError> {
        let mut m = HashMap::default();
        m.get_into(r)?;
        Ok(m)
    }
    fn get_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        for _ in 0..r.get_count(K::MIN_BYTES + V::MIN_BYTES)? {
            let (k, v) = Codec::get(r)?;
            self.insert(k, v);
        }
        Ok(())
    }
}

/// Declares a struct's or enum's [`Codec`] from one list.
///
/// A struct lists its fields in wire order; a newtype names its one
/// field's type. An enum gives each variant an explicit tag byte, then
/// the variant's fields in wire order:
///
/// ```
/// use ccsvm_snap::{codec, Codec, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Id(u64);
/// codec!(struct Id(u64));
///
/// #[derive(Debug, PartialEq)]
/// struct Msg { to: Id, body: Option<String> }
/// codec!(struct Msg { to, body });
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick, Send(Msg), Drop { to: Id } }
/// codec!(enum Ev { 0 => Tick, 1 => Send(m), 2 => Drop { to } });
///
/// let ev = Ev::Send(Msg { to: Id(3), body: Some("hi".into()) });
/// let mut w = SnapWriter::new();
/// ev.put(&mut w);
/// let bytes = w.into_vec();
/// assert_eq!(bytes[0], 1, "the tag leads");
/// assert_eq!(Ev::get(&mut SnapReader::new(&bytes)), Ok(ev));
/// assert!(Ev::get(&mut SnapReader::new(&[7])).is_err(), "unknown tag");
/// ```
#[macro_export]
macro_rules! codec {
    (struct $name:ident { $($f:ident),* $(,)? }) => {
        impl $crate::Codec for $name {
            fn put(&self, w: &mut $crate::SnapWriter) {
                $($crate::Codec::put(&self.$f, w);)*
            }
            fn get(r: &mut $crate::SnapReader<'_>) -> Result<$name, $crate::SnapError> {
                Ok($name { $($f: $crate::Codec::get(r)?),* })
            }
        }
    };
    (struct $name:ident($inner:ty)) => {
        impl $crate::Codec for $name {
            const MIN_BYTES: usize = <$inner as $crate::Codec>::MIN_BYTES;
            fn put(&self, w: &mut $crate::SnapWriter) {
                $crate::Codec::put(&self.0, w);
            }
            fn get(r: &mut $crate::SnapReader<'_>) -> Result<$name, $crate::SnapError> {
                <$inner as $crate::Codec>::get(r).map($name)
            }
        }
    };
    (enum $name:ident {
        $($tag:literal => $var:ident $({ $($f:ident),* })? $(($($p:ident),*))?),* $(,)?
    }) => {
        impl $crate::Codec for $name {
            fn put(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $($name::$var $({ $($f),* })? $(($($p),*))? => {
                        w.put_u8($tag);
                        $($($crate::Codec::put($f, w);)*)?
                        $($($crate::Codec::put($p, w);)*)?
                    })*
                }
            }
            fn get(r: &mut $crate::SnapReader<'_>) -> Result<$name, $crate::SnapError> {
                Ok(match r.get_u8()? {
                    $($tag => {
                        $($(let $f = $crate::Codec::get(r)?;)*)?
                        $($(let $p = $crate::Codec::get(r)?;)*)?
                        $name::$var $({ $($f),* })? $(($($p),*))?
                    })*
                    t => return Err($crate::SnapError::bad_tag(stringify!($name), t)),
                })
            }
        }
    };
}

/// Writes snapshot bytes to `path` atomically: the bytes land in a
/// same-directory temp file which is fsynced and renamed over `path`, so a
/// crash mid-write can never leave a torn file under the final name — a
/// reader sees either the old complete image or the new one. (Header and
/// section checks would *detect* a torn image, but the sweep orchestrator
/// resumes from "the newest valid checkpoint", which must never be a
/// half-written one.)
pub fn write_file(path: &std::path::Path, bytes: &[u8]) -> Result<(), SnapError> {
    use std::io::Write;
    let io = |e: &std::io::Error| SnapError::Io(format!("{}: {e}", path.display()));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io(&e))?;
        f.write_all(bytes).map_err(|e| io(&e))?;
        f.sync_data().map_err(|e| io(&e))?;
        std::fs::rename(&tmp, path).map_err(|e| io(&e))
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads snapshot bytes from `path`.
pub fn read_file(path: &std::path::Path) -> Result<Vec<u8>, SnapError> {
    std::fs::read(path).map_err(|e| SnapError::Io(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_usize(12345);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("héllo");
        w.put_raw(&[9; 4]);
        let bytes = w.into_vec();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_usize().unwrap(), 12345);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(<[u8; 4]>::get(&mut r).unwrap(), [9; 4]);
        assert_eq!(r.remaining(), 0);
    }

    fn encode<T: Codec>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.put(&mut w);
        w.into_vec()
    }

    #[test]
    fn codec_impls_write_the_documented_bytes() {
        assert_eq!(encode(&Some(5u32)), [1, 5, 0, 0, 0]);
        assert_eq!(encode(&None::<u32>), [0]);
        assert_eq!(encode(&[7u8, 8, 9]), [7, 8, 9], "arrays carry no count");
        assert_eq!(encode(&(1u8, true)), [1, 1]);
        assert_eq!(encode(&7usize), 7u64.to_le_bytes());
        let mut s = SnapWriter::new();
        s.put_str("hé");
        assert_eq!(encode(&"hé".to_string()), s.into_vec());
        let v: VecDeque<u8> = [4, 5].into();
        assert_eq!(encode(&v), [2, 0, 0, 0, 0, 0, 0, 0, 4, 5]);
        // Hash maps write their pairs sorted by key, whatever the order of
        // insertion, and decode to an equal map.
        let m: HashMap<u8, bool> = [(3, true), (1, false), (2, true)].into();
        let bytes = encode(&m);
        assert_eq!(bytes[8..], [1, 0, 2, 1, 3, 1]);
        let back: HashMap<u8, bool> = Codec::get(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, m);
        let b: BTreeMap<u8, bool> = m.into_iter().collect();
        assert_eq!(encode(&b), bytes);
    }

    #[test]
    fn hostile_counts_and_tags_are_typed_errors() {
        // A count no remaining bytes could satisfy fails before allocating.
        let huge = u64::MAX.to_le_bytes();
        assert!(matches!(
            Vec::<u64>::get(&mut SnapReader::new(&huge)),
            Err(SnapError::Corrupt { .. })
        ));
        let mut r = SnapReader::new(&[2, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert!(matches!(
            Vec::<u8>::get(&mut r),
            Err(SnapError::Corrupt { .. })
        ));
        assert!(matches!(
            Option::<u8>::get(&mut SnapReader::new(&[2, 0])),
            Err(SnapError::Corrupt { .. })
        ));
        assert_eq!(
            SnapError::bad_tag("Ev", 0xff),
            SnapError::Corrupt {
                what: "unknown Ev tag 0xff".to_string()
            }
        );
    }

    #[test]
    fn f64_bit_exact() {
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, 1.0 / 3.0] {
            let mut w = SnapWriter::new();
            w.put_f64(v);
            let b = w.into_vec();
            let got = SnapReader::new(&b).get_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut r = SnapReader::new(&[1, 2]);
        assert_eq!(r.get_u64(), Err(SnapError::Truncated { what: "u64" }));
        let mut w = SnapWriter::new();
        w.put_u64(100); // claims a 100-byte string with no body
        let bytes = w.into_vec();
        assert!(matches!(
            SnapReader::new(&bytes).get_bytes(),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        assert!(matches!(
            SnapReader::new(&[7]).get_bool(),
            Err(SnapError::Corrupt { .. })
        ));
    }

    #[test]
    fn sections_verify_name_and_length() {
        let mut w = SnapWriter::new();
        let s = w.begin_section("cpu");
        w.put_u64(3);
        w.end_section(s);
        let bytes = w.into_vec();

        // Happy path.
        let mut r = SnapReader::new(&bytes);
        let end = r.begin_section("cpu").unwrap();
        assert_eq!(r.get_u64().unwrap(), 3);
        r.end_section(end).unwrap();

        // Wrong name.
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.begin_section("mem"),
            Err(SnapError::Corrupt { .. })
        ));

        // Under-consumed section.
        let mut r = SnapReader::new(&bytes);
        let end = r.begin_section("cpu").unwrap();
        assert!(matches!(r.end_section(end), Err(SnapError::Corrupt { .. })));
    }

    #[test]
    fn header_mismatches_are_typed() {
        let mut w = SnapWriter::new();
        w.put_header(0x1234);
        let good = w.into_vec();
        assert!(SnapReader::new(&good).check_header(0x1234).is_ok());
        assert_eq!(
            SnapReader::new(&good).check_header(0x9999),
            Err(SnapError::ConfigMismatch {
                found: 0x1234,
                expected: 0x9999
            })
        );

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            SnapReader::new(&bad_magic).check_header(0x1234),
            Err(SnapError::BadMagic)
        );

        let mut bad_schema = good.clone();
        bad_schema[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        assert_eq!(
            SnapReader::new(&bad_schema).check_header(0x1234),
            Err(SnapError::SchemaMismatch {
                found: SCHEMA_VERSION + 1,
                expected: SCHEMA_VERSION
            })
        );

        assert!(matches!(
            SnapReader::new(&good[..4]).check_header(0x1234),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn fnv1a_known_values() {
        // FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"config-a"), fnv1a(b"config-b"));
    }
}
