//! The byte codec for what leaves the process: a run's `RunReport` (the
//! sweep's `.rpt` cache), a replay bundle, and a machine's pause image.
//!
//! The format is written by hand (no serde) and its encoding rules are
//! stated once, as the impls of [`Codec`]: little-endian fixed-width
//! integers, `f64` as IEEE-754 bits, byte strings length-prefixed with a
//! `u64`, and so on; each struct and enum declares its field order with
//! [`codec!`]. Decoding never panics: a short, malformed or trailing input
//! is a typed [`SnapError`].
//!
//! # Examples
//!
//! ```
//! use ccsvm_snap::{SnapReader, SnapWriter};
//!
//! let mut w = SnapWriter::new();
//! w.put_u64(7);
//! w.put_str("hello");
//! let bytes = w.into_vec();
//!
//! let mut r = SnapReader::new(&bytes);
//! assert_eq!(r.get_u64().unwrap(), 7);
//! assert_eq!(r.get_str().unwrap(), "hello");
//! r.finish("demo").unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod journal;

use std::collections::BTreeMap;
use std::fmt;

/// Typed decode failure. Restoring under a mismatched config or program, or
/// from a truncated/corrupt input, yields one of these — never a panic and
/// never a silently wrong machine or report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// Underlying file I/O failed (message from `std::io::Error`).
    Io(String),
    /// The input does not start with the expected magic.
    BadMagic,
    /// The input was written by a different format version.
    SchemaMismatch {
        /// Version found in the input.
        found: u32,
        /// Version this binary understands.
        expected: u32,
    },
    /// The input was written under a different `SystemConfig`.
    ConfigMismatch {
        /// Config hash found in the input.
        found: u64,
        /// Config hash of the machine being restored into.
        expected: u64,
    },
    /// A pause image was taken of a different program.
    ProgramMismatch {
        /// Program hash found in the image.
        found: u64,
        /// Hash of the program being restored.
        expected: u64,
    },
    /// A pause image names a time the run never pauses at: re-running the
    /// config and program ends at `end_ps`, at or before `pause_ps`.
    PauseAfterEnd {
        /// The image's pause time, in picoseconds.
        pause_ps: u64,
        /// When the re-run ended, in picoseconds.
        end_ps: u64,
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
            SnapError::BadMagic => write!(f, "bad magic: not the expected ccsvm format"),
            SnapError::SchemaMismatch { found, expected } => write!(
                f,
                "format version v{found} does not match this binary's v{expected}"
            ),
            SnapError::ConfigMismatch { found, expected } => write!(
                f,
                "written under a different SystemConfig \
                 (hash {found:#018x}, machine has {expected:#018x})"
            ),
            SnapError::ProgramMismatch { found, expected } => write!(
                f,
                "image was taken of a different program \
                 (hash {found:#018x}, restoring {expected:#018x})"
            ),
            SnapError::PauseAfterEnd { pause_ps, end_ps } => write!(
                f,
                "image pauses at {pause_ps} ps, but the run ends at {end_ps} ps"
            ),
            SnapError::Truncated { what } => {
                write!(f, "input truncated while reading {what}")
            }
            SnapError::Corrupt { what } => write!(f, "input corrupt: {what}"),
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

/// Append-only little-endian writer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
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

    /// Starts a file format: its `magic`, then its `version`.
    pub fn put_magic(&mut self, magic: &[u8; 8], version: u32) {
        self.put_raw(magic);
        self.put_u32(version);
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// The serialized bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked little-endian reader over a byte slice.
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

    /// Reads what [`SnapWriter::put_magic`] wrote, refusing another magic
    /// ([`SnapError::BadMagic`]) or another version
    /// ([`SnapError::SchemaMismatch`]).
    pub fn expect_magic(&mut self, magic: &[u8; 8], version: u32) -> Result<(), SnapError> {
        if self.take(8, "magic")? != magic {
            return Err(SnapError::BadMagic);
        }
        let found = self.get_u32()?;
        if found != version {
            return Err(SnapError::SchemaMismatch {
                found,
                expected: version,
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
    /// input (each element needs at least `min_elem_bytes` to encode), so a
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

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
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

/// A value with one wire encoding, which both directions read from one
/// description: [`Codec::put`] appends it, [`Codec::get`] decodes it and
/// returns a typed [`SnapError`] on malformed input, never a panic.
///
/// The impls below state the format's encoding rules once: fixed-width
/// little-endian integers, `usize` as `u64`, `bool` as one strict 0/1
/// byte, `f64` as its bits, `String` as a `u64` length plus UTF-8 bytes,
/// arrays and tuples as their items in order, `Option` as a `bool` plus
/// the value, `Vec` as a `usize` count plus items, and `BTreeMap` as a count
/// plus `(key, value)` pairs in key order. Structs and enums declare theirs
/// with [`codec!`].
///
/// **Any change to what an impl or a `codec!` list writes moves the bytes
/// of the sweep's `.rpt` cache entries or of replay bundles.** The digest
/// golden `crates/core/tests/goldens/snapshot_digests.txt` fails on any
/// moved byte; bump the envelope's version with it.
pub trait Codec: Sized {
    /// A lower bound on the encoded size, which collection decoders check
    /// a count against before they allocate for it.
    const MIN_BYTES: usize = 1;

    /// Appends the value.
    fn put(&self, w: &mut SnapWriter);

    /// Decodes a value written by [`Codec::put`].
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
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
    u8 = 1: put_u8, get_u8;
    u32 = 4: put_u32, get_u32;
    u64 = 8: put_u64, get_u64;
    usize = 8: put_usize, get_usize;
    f64 = 8: put_f64, get_f64;
    bool = 1: put_bool, get_bool;
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
        self.iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut SnapReader<'_>) -> Result<[T; N], SnapError> {
        let mut a = [T::default(); N];
        for v in &mut a {
            *v = T::get(r)?;
        }
        Ok(a)
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

/// A `usize` count, bounded by the bytes left before anything is
/// allocated, then the items in order.
impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        self.iter().for_each(|v| v.put(w));
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Vec<T>, SnapError> {
        (0..r.get_count(T::MIN_BYTES)?).map(|_| T::get(r)).collect()
    }
}

/// A `usize` count, then the `(key, value)` pairs in key order.
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
        (0..r.get_count(K::MIN_BYTES + V::MIN_BYTES)?)
            .map(|_| Codec::get(r))
            .collect()
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

/// Writes `bytes` to `path` atomically: the bytes land in a same-directory
/// temp file which is fsynced and renamed over `path`, so a crash mid-write
/// can never leave a torn file under the final name — a reader sees either
/// the old complete file or the new one. (Decoders would *detect* a torn
/// file, but a sweep's cache entry or manifest must never be a half-written
/// one.)
pub fn write_file(path: &std::path::Path, bytes: &[u8]) -> Result<(), SnapError> {
    use std::io::Write;
    // A temp name per write, so two threads of one process storing the
    // same path never share a temp file.
    static WRITES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = WRITES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let io = |e: &std::io::Error| SnapError::Io(format!("{}: {e}", path.display()));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{n}", std::process::id()));
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

/// Reads the bytes of `path`.
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
        assert_eq!(encode(&vec![4u8, 5]), [2, 0, 0, 0, 0, 0, 0, 0, 4, 5]);
        // Maps write their pairs in key order, whatever the order of
        // insertion, and decode to an equal map.
        let m: BTreeMap<u8, bool> = [(3, true), (1, false), (2, true)].into();
        let bytes = encode(&m);
        assert_eq!(bytes[8..], [1, 0, 2, 1, 3, 1]);
        let back: BTreeMap<u8, bool> = Codec::get(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back, m);
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
    fn header_mismatches_are_typed() {
        const MAGIC: [u8; 8] = *b"CCSVTEST";
        let mut w = SnapWriter::new();
        w.put_magic(&MAGIC, 3);
        let good = w.into_vec();
        assert!(SnapReader::new(&good).expect_magic(&MAGIC, 3).is_ok());
        assert_eq!(
            SnapReader::new(&good).expect_magic(&MAGIC, 4),
            Err(SnapError::SchemaMismatch {
                found: 3,
                expected: 4
            })
        );
        assert_eq!(
            SnapReader::new(&good).expect_magic(b"CCSVELSE", 3),
            Err(SnapError::BadMagic)
        );
        assert!(matches!(
            SnapReader::new(&good[..4]).expect_magic(&MAGIC, 3),
            Err(SnapError::Truncated { .. })
        ));
        assert!(matches!(
            SnapReader::new(&good[..10]).expect_magic(&MAGIC, 3),
            Err(SnapError::Truncated { .. })
        ));
    }

    /// Threads of one process writing the same path never trip over each
    /// other's temp file: every write succeeds and leaves a whole file.
    #[test]
    fn concurrent_writes_to_one_path_all_succeed() {
        let path = std::env::temp_dir().join(format!("ccsvm-snap-race-{}", std::process::id()));
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let path = &path;
                s.spawn(move || {
                    for _ in 0..10 {
                        write_file(path, &[t; 64]).expect("concurrent write");
                    }
                });
            }
        });
        let bytes = read_file(&path).unwrap();
        assert!(bytes.len() == 64 && bytes.iter().all(|&b| b == bytes[0]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fnv1a_known_values() {
        // FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"config-a"), fnv1a(b"config-b"));
    }
}
