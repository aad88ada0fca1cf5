//! A tiny hand-rolled binary codec for model snapshots.
//!
//! The workspace has no serialization library, so checkpointing needs
//! its own wire format. [`Snap`] is deliberately
//! minimal: little-endian fixed-width integers, `f64` as IEEE-754 bit
//! patterns (NaN payloads and signed zeros survive byte-exactly), and
//! length-prefixed sequences. Every encoder is total and every decoder
//! is bounds-checked — a corrupted or truncated buffer yields a typed
//! [`SnapError`], never a panic or an unbounded allocation.
//!
//! The format has no self-description: reader and writer must agree on
//! the schema. Versioning, checksumming, and config binding live one
//! layer up, in `hbmd-core::snapshot`, which frames the payload this
//! module produces.
//!
//! # Examples
//!
//! ```
//! use hbmd_ml::snap::{Snap, SnapReader, SnapWriter};
//!
//! let mut writer = SnapWriter::new();
//! vec![1.5f64, -0.0, f64::NAN].snap(&mut writer);
//! let bytes = writer.into_bytes();
//!
//! let mut reader = SnapReader::new(&bytes);
//! let back = Vec::<f64>::unsnap(&mut reader)?;
//! assert_eq!(back[0], 1.5);
//! assert!(back[1].is_sign_negative());
//! assert!(back[2].is_nan());
//! # Ok::<(), hbmd_ml::snap::SnapError>(())
//! ```

use std::fmt;

/// Decoding failure: the buffer does not hold what the schema expects.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The buffer ended before the value did.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the read needed beyond what remained.
        needed: usize,
    },
    /// The bytes decoded, but the value is structurally impossible
    /// (e.g. a sequence length larger than the remaining buffer, or an
    /// unknown enum tag).
    Invalid(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { offset, needed } => {
                write!(
                    f,
                    "snapshot payload truncated at byte {offset} (needed {needed} more)"
                )
            }
            SnapError::Invalid(what) => write!(f, "snapshot payload invalid: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// An append-only encode buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a little-endian `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (byte-exact, NaN
    /// payloads preserved).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// A bounds-checked decode cursor over a byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> SnapReader<'a> {
        SnapReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(
            b.try_into().expect("take(4) is 4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(
            b.try_into().expect("take(8) is 8 bytes"),
        ))
    }

    /// Read a `usize` encoded as a little-endian `u64`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Invalid(format!("usize out of range: {v}")))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool; any byte other than 0/1 is invalid.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Invalid(format!("bool byte {other}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        let len = self.get_usize()?;
        if len > self.remaining() {
            return Err(SnapError::Invalid(format!(
                "string length {len} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| SnapError::Invalid(format!("string not UTF-8: {e}")))
    }

    /// Read a sequence length and reject lengths that cannot possibly
    /// fit in the remaining buffer (each element needs at least
    /// `min_element_bytes`), so a corrupted length cannot trigger an
    /// unbounded allocation.
    pub fn get_seq_len(&mut self, min_element_bytes: usize) -> Result<usize, SnapError> {
        let len = self.get_usize()?;
        let floor = min_element_bytes.max(1);
        if len > self.remaining() / floor {
            return Err(SnapError::Invalid(format!(
                "sequence length {len} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

/// A type with a fixed binary snapshot schema.
///
/// `snap` must be total (no panics) and `unsnap` must reject every
/// malformed input with a [`SnapError`]. Round-tripping must be
/// byte-exact: `snap(unsnap(snap(x))) == snap(x)`.
pub trait Snap: Sized {
    /// Append this value's encoding to `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Decode one value from `r`, advancing the cursor.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] when the buffer is truncated or encodes a
    /// structurally impossible value.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for u8 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u8()
    }
}

impl Snap for u32 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u32()
    }
}

impl Snap for u64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_u64()
    }
}

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_usize()
    }
}

impl Snap for f64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_f64()
    }
}

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_bool(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_bool()
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_str()
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for item in self {
            item.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_seq_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            other => Err(SnapError::Invalid(format!("Option tag {other}"))),
        }
    }
}

impl<T: Snap> Snap for Box<T> {
    fn snap(&self, w: &mut SnapWriter) {
        (**self).snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = SnapWriter::new();
        value.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::unsnap(&mut r).expect("roundtrip decode");
        assert!(r.is_done(), "decoder must consume every byte");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("hello, 世界"));
        roundtrip(String::new());
        roundtrip(vec![1.0f64, -0.0, f64::INFINITY, f64::NEG_INFINITY]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(42u64));
        roundtrip(vec![(1usize, 2.5f64), (3, -4.5)]);
        roundtrip(Box::new(7u32));
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapWriter::new();
        weird.snap(&mut w);
        let bytes = w.into_bytes();
        let back = f64::unsnap(&mut SnapReader::new(&bytes)).expect("decode");
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn truncated_buffers_are_typed_errors() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].snap(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let err = Vec::<u64>::unsnap(&mut SnapReader::new(&bytes[..cut]));
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A u64::MAX sequence length must be rejected up front, not
        // fed to Vec::with_capacity.
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let err = Vec::<u8>::unsnap(&mut SnapReader::new(&bytes));
        assert!(matches!(err, Err(SnapError::Invalid(_))));

        let err = String::unsnap(&mut SnapReader::new(&bytes));
        assert!(matches!(err, Err(SnapError::Invalid(_))));
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let bytes = [2u8];
        assert!(matches!(
            Option::<u8>::unsnap(&mut SnapReader::new(&bytes)),
            Err(SnapError::Invalid(_))
        ));
        assert!(matches!(
            bool::unsnap(&mut SnapReader::new(&bytes)),
            Err(SnapError::Invalid(_))
        ));
    }
}
