//! Stable binary wire encoding for the model's component types.
//!
//! The binary snapshot format (`rememberr-bin/v2`, implemented in
//! `crates/core`) persists database entries as columns of fixed-width
//! values plus ids into a deduplicated string table. The string-free
//! component types encode here, in a *stable field order* that is part of
//! the on-disk format: adding, removing, or reordering a field of any
//! `WireEncode` type is a format change and must bump the snapshot
//! version. (Version 2 changed only the section checksum; every encoding
//! here is as version 1 had it.)
//!
//! Conventions:
//!
//! * all integers are little-endian and fixed-width;
//! * enums encode as a `u8` index into the type's canonical catalog
//!   ([`Design::ALL`], [`MsrName::ALL`], ...); decoding validates the
//!   index so a corrupt byte can never alias to a different variant
//!   silently;
//! * [`CategorySet`] bitsets encode as their raw `u64` bits; decoding
//!   rejects bits beyond the catalog size instead of masking them away,
//!   so corruption surfaces as an error rather than a silently smaller
//!   set;
//! * strings never appear here — the snapshot layer interns them in its
//!   string table and encodes `u32` ids.

use std::fmt;

use crate::catset::{Catalog, CategorySet};
use crate::date::Date;
use crate::design::{Design, Vendor};
use crate::erratum::{DateSource, ErratumId, Provenance};
use crate::ids::UniqueKey;
use crate::msr::{MsrName, MsrRef};
use crate::status::{FixStatus, WorkaroundCategory};

/// Errors produced while decoding wire-encoded values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// What was being decoded when the input ran out.
        what: &'static str,
    },
    /// A tag or raw value does not denote any valid instance.
    InvalidValue {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        value: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { what } => {
                write!(f, "unexpected end of input while decoding {what}")
            }
            WireError::InvalidValue { what, value } => {
                write!(f, "invalid {what} value {value:#x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only little-endian byte sink for wire encoding.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A view of the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
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

    /// Appends a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a value through its [`WireEncode`] impl.
    pub fn put<T: WireEncode>(&mut self, value: &T) {
        value.encode_wire(self);
    }
}

/// Cursor over wire-encoded bytes.
#[derive(Debug, Clone, Copy)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] naming `what` if fewer than `n` bytes
    /// remain.
    pub fn take_bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { what });
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if the input is exhausted.
    pub fn take_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take_bytes(1, what)?[0])
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn take_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let bytes = self.take_bytes(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let bytes = self.take_bytes(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Consumes a little-endian `i32`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn take_i32(&mut self, what: &'static str) -> Result<i32, WireError> {
        let bytes = self.take_bytes(4, what)?;
        Ok(i32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Decodes a value through its [`WireDecode`] impl.
    ///
    /// # Errors
    ///
    /// Propagates the value's decode error.
    pub fn take<T: WireDecode>(&mut self) -> Result<T, WireError> {
        T::decode_wire(self)
    }
}

/// Types with a stable binary wire encoding.
pub trait WireEncode {
    /// Appends this value's encoding to `w`.
    fn encode_wire(&self, w: &mut WireWriter);
}

/// Types decodable from their [`WireEncode`] bytes.
pub trait WireDecode: Sized {
    /// Decodes one value from the reader's current position.
    ///
    /// # Errors
    ///
    /// [`WireError`] on exhausted input or an invalid raw value.
    fn decode_wire(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Wires an enum as a `u8` index into its canonical `ALL` catalog.
macro_rules! wire_catalog_enum {
    ($ty:ty, $what:literal) => {
        impl WireEncode for $ty {
            fn encode_wire(&self, w: &mut WireWriter) {
                let index = <$ty>::ALL
                    .iter()
                    .position(|v| v == self)
                    .expect("every variant appears in ALL");
                w.put_u8(index as u8);
            }
        }

        impl WireDecode for $ty {
            fn decode_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let tag = r.take_u8($what)?;
                <$ty>::ALL
                    .get(tag as usize)
                    .copied()
                    .ok_or(WireError::InvalidValue {
                        what: $what,
                        value: u64::from(tag),
                    })
            }
        }
    };
}

wire_catalog_enum!(Vendor, "vendor");
wire_catalog_enum!(Design, "design");
wire_catalog_enum!(WorkaroundCategory, "workaround category");
wire_catalog_enum!(FixStatus, "fix status");
wire_catalog_enum!(MsrName, "msr name");

impl WireEncode for DateSource {
    fn encode_wire(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            DateSource::RevisionLog => 0,
            DateSource::NeighborInterpolation => 1,
            DateSource::EarlierOfContradicting => 2,
        });
    }
}

impl WireDecode for DateSource {
    fn decode_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8("date source")? {
            0 => Ok(DateSource::RevisionLog),
            1 => Ok(DateSource::NeighborInterpolation),
            2 => Ok(DateSource::EarlierOfContradicting),
            tag => Err(WireError::InvalidValue {
                what: "date source",
                value: u64::from(tag),
            }),
        }
    }
}

impl WireEncode for Date {
    fn encode_wire(&self, w: &mut WireWriter) {
        w.put_i32(self.year());
        w.put_u8(self.month());
        w.put_u8(self.day());
    }
}

impl WireDecode for Date {
    fn decode_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let year = r.take_i32("date")?;
        let month = r.take_u8("date")?;
        let day = r.take_u8("date")?;
        Date::new(year, month, day).map_err(|_| WireError::InvalidValue {
            what: "date",
            value: (u64::from(month) << 8) | u64::from(day),
        })
    }
}

impl<T: Catalog> WireEncode for CategorySet<T> {
    fn encode_wire(&self, w: &mut WireWriter) {
        w.put_u64(self.to_bits());
    }
}

impl<T: Catalog> WireDecode for CategorySet<T> {
    fn decode_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let bits = r.take_u64("category set")?;
        let set = CategorySet::<T>::from_bits(bits);
        // `from_bits` masks silently; in a snapshot, out-of-catalog bits
        // mean corruption and must not vanish.
        if set.to_bits() != bits {
            return Err(WireError::InvalidValue {
                what: "category set",
                value: bits,
            });
        }
        Ok(set)
    }
}

impl WireEncode for MsrRef {
    fn encode_wire(&self, w: &mut WireWriter) {
        w.put(&self.name);
        w.put_u32(self.claimed_address);
    }
}

impl WireDecode for MsrRef {
    fn decode_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(MsrRef {
            name: r.take()?,
            claimed_address: r.take_u32("msr claimed address")?,
        })
    }
}

impl WireEncode for ErratumId {
    fn encode_wire(&self, w: &mut WireWriter) {
        w.put(&self.design);
        w.put_u32(self.number);
    }
}

impl WireDecode for ErratumId {
    fn decode_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ErratumId {
            design: r.take()?,
            number: r.take_u32("erratum number")?,
        })
    }
}

impl WireEncode for Provenance {
    fn encode_wire(&self, w: &mut WireWriter) {
        w.put_u32(self.first_revision);
        w.put(&self.disclosure_date);
        w.put(&self.date_source);
    }
}

impl WireDecode for Provenance {
    fn decode_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Provenance {
            first_revision: r.take_u32("first revision")?,
            disclosure_date: r.take()?,
            date_source: r.take()?,
        })
    }
}

impl WireEncode for UniqueKey {
    fn encode_wire(&self, w: &mut WireWriter) {
        w.put_u32(self.value());
    }
}

impl WireDecode for UniqueKey {
    fn decode_wire(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(UniqueKey(r.take_u32("unique key")?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catset::{ContextSet, TriggerSet};
    use crate::taxonomy::Trigger;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = WireWriter::new();
        w.put(&value);
        let mut r = WireReader::new(w.as_bytes());
        let back: T = r.take().expect("roundtrip decodes");
        assert_eq!(back, value);
        assert!(r.is_done(), "decode consumed every encoded byte");
    }

    #[test]
    fn every_catalog_variant_roundtrips() {
        for v in Vendor::ALL {
            roundtrip(v);
        }
        for d in Design::ALL {
            roundtrip(d);
        }
        for w in WorkaroundCategory::ALL {
            roundtrip(w);
        }
        for f in FixStatus::ALL {
            roundtrip(f);
        }
        for m in MsrName::ALL {
            roundtrip(m);
        }
        for s in [
            DateSource::RevisionLog,
            DateSource::NeighborInterpolation,
            DateSource::EarlierOfContradicting,
        ] {
            roundtrip(s);
        }
    }

    #[test]
    fn composite_types_roundtrip() {
        roundtrip(Date::new(2016, 2, 29).unwrap());
        roundtrip(MsrRef::canonical(MsrName::McStatus));
        roundtrip(ErratumId::new(Design::Amd17h00, 1095));
        roundtrip(Provenance {
            first_revision: 7,
            disclosure_date: Date::new(2019, 11, 4).unwrap(),
            date_source: DateSource::NeighborInterpolation,
        });
        roundtrip(UniqueKey(u32::MAX));
        let mut triggers = TriggerSet::new();
        triggers.insert(Trigger::Speculative);
        triggers.insert(Trigger::PowerStateChange);
        roundtrip(triggers);
        roundtrip(ContextSet::full());
    }

    #[test]
    fn rejects_invalid_enum_tags() {
        let bytes = [0xEEu8];
        let mut r = WireReader::new(&bytes);
        let err = Design::decode_wire(&mut r).unwrap_err();
        assert_eq!(
            err,
            WireError::InvalidValue {
                what: "design",
                value: 0xEE
            }
        );
    }

    #[test]
    fn rejects_invalid_date() {
        let mut w = WireWriter::new();
        w.put_i32(2016);
        w.put_u8(13);
        w.put_u8(1);
        let mut r = WireReader::new(w.as_bytes());
        assert!(matches!(
            Date::decode_wire(&mut r),
            Err(WireError::InvalidValue { what: "date", .. })
        ));
    }

    #[test]
    fn rejects_out_of_catalog_set_bits() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        let mut r = WireReader::new(w.as_bytes());
        assert!(matches!(
            TriggerSet::decode_wire(&mut r),
            Err(WireError::InvalidValue {
                what: "category set",
                ..
            })
        ));
    }

    #[test]
    fn eof_is_reported_with_context() {
        let mut r = WireReader::new(&[1, 2]);
        let err = r.take_u32("erratum number").unwrap_err();
        assert_eq!(
            err,
            WireError::UnexpectedEof {
                what: "erratum number"
            }
        );
    }
}
