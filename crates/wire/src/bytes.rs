//! Bounds-checked little-endian byte encoding primitives.
//!
//! [`ByteWriter`] grows a `Vec<u8>`; [`ByteReader`] walks a borrowed
//! slice and returns [`WireError::Truncated`] instead of panicking
//! when a read would run past the end. Variable-length values (strings,
//! sequences) carry a `u32` length prefix that is validated against
//! the bytes *actually remaining* before any allocation, so an
//! adversarial length field can never force an allocation larger than
//! the frame that carried it.

use crate::error::WireError;

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter::default()
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// `Some(v)` as `1` + value, `None` as `0`.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }

    /// UTF-8 bytes with a `u32` length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Sequence count prefix (`u32`); elements follow, caller-encoded.
    pub fn put_count(&mut self, n: usize) {
        self.put_u32(n as u32);
    }
}

/// Cursor over a borrowed payload slice. Every accessor checks the
/// remaining length first; nothing here can panic on any input.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(self.get_u64()? as i64)
    }

    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidPayload("bool tag not 0/1")),
        }
    }

    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            _ => Err(WireError::InvalidPayload("option tag not 0/1")),
        }
    }

    /// Length-prefixed UTF-8 string, validated in place and borrowed
    /// from the payload: nothing is copied, so an adversarial length
    /// can cost no more than the bytes that are really there.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::InvalidPayload("invalid utf-8"))
    }

    /// Sequence count. The pre-allocation hint returned alongside is
    /// clamped by the remaining payload (each element costs ≥ 1 byte),
    /// so an adversarial count cannot trigger a huge `with_capacity`.
    pub fn get_count(&mut self) -> Result<(usize, usize), WireError> {
        let n = self.get_u32()? as usize;
        Ok((n, n.min(self.remaining())))
    }

    /// Fail with [`WireError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                unread: self.remaining(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_bool(true);
        w.put_opt_u64(None);
        w.put_opt_u64(Some(9));
        w.put_str("héllo");
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_opt_u64().unwrap(), Some(9));
        assert_eq!(r.get_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.get_u64(), Err(WireError::Truncated { .. })));
        // Position unchanged after a failed read of a fixed-size value.
        assert_eq!(r.get_u16().unwrap(), 0x0201);
    }

    #[test]
    fn adversarial_string_length_is_bounded() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX); // declares 4 GiB
        w.put_u8(b'x');
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.get_str(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn adversarial_count_hint_is_clamped() {
        let mut w = ByteWriter::new();
        w.put_count(1_000_000_000);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        let (n, hint) = r.get_count().unwrap();
        assert_eq!(n, 1_000_000_000);
        assert_eq!(hint, 0);
    }

    #[test]
    fn bad_tags_are_invalid_payload() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(
            r.get_bool(),
            Err(WireError::InvalidPayload("bool tag not 0/1"))
        );
        let mut r = ByteReader::new(&[5, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(r.get_opt_u64(), Err(WireError::InvalidPayload(_))));
    }

    #[test]
    fn finish_detects_trailing() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        r.get_u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { unread: 2 }));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(2);
        let mut buf = w.into_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.get_str(), Err(WireError::InvalidPayload("invalid utf-8")));
    }
}
