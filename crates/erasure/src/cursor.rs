//! One bounds-checked byte cursor under every binary format.
//!
//! The proxy wire envelope, the broadcast air frames, the store's MRTB
//! blob and the MRTM migration record all arrive as untrusted bytes.
//! Each of their parsers reads fields through this one [`Reader`]: a
//! read either returns exactly the bytes it asked for or fails with
//! [`Short`] and leaves the cursor where it was, so no parser indexes
//! a slice or adds a length itself. Each format maps [`Short`] into
//! its own error type with one `From` impl.
//!
//! # Example
//!
//! ```
//! use mrtweb_erasure::cursor::{Reader, Short};
//!
//! let mut r = Reader::new(&[0x01, 0x02, 0xAA, 0xBB, 0xCC]);
//! assert_eq!(r.u16(), Ok(0x0102));
//! assert_eq!(r.take(2), Ok(&[0xAA, 0xBB][..]));
//! assert_eq!(r.u16(), Err(Short)); // one byte left, and it stays
//! assert_eq!(r.rest(), &[0xCC]);
//! assert!(r.is_empty());
//! ```

/// The input ended before the field being read did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Short;

/// A forward-only reader over a byte slice.
///
/// Multi-byte integers are big-endian unless the method name says
/// `_le`. Every method is `#[inline]`: the workspace builds without
/// LTO, and each call sits in a per-field parse loop of another crate.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`Short`] if fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Short> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or(Short)?;
        self.buf = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Short> {
        let (head, rest) = self.buf.split_first_chunk().ok_or(Short)?;
        self.buf = rest;
        Ok(*head)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`Short`] if the input is exhausted.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Short> {
        self.array().map(u8::from_be_bytes)
    }

    /// A big-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`Short`] if fewer than 2 bytes remain.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Short> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Short`] if fewer than 4 bytes remain.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Short> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Short`] if fewer than 8 bytes remain.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Short> {
        self.array().map(u64::from_be_bytes)
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Short`] if fewer than 4 bytes remain.
    #[inline]
    pub fn u32_le(&mut self) -> Result<u32, Short> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Short`] if fewer than 8 bytes remain.
    #[inline]
    pub fn u64_le(&mut self) -> Result<u64, Short> {
        self.array().map(u64::from_le_bytes)
    }

    /// Every byte not yet read; the cursor is empty afterwards.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// How many bytes are left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_read_in_order_with_their_byte_order() {
        let bytes = [
            7, 0x01, 0x02, 0x01, 0x02, 0x03, 0x04, 0x04, 0x03, 0x02, 0x01, 1, 2, 3, 4, 5, 6, 7, 8,
            8, 7, 6, 5, 4, 3, 2, 1,
        ];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0102_0304));
        assert_eq!(r.u32_le(), Ok(0x0102_0304));
        assert_eq!(r.u64(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.u64_le(), Ok(0x0102_0304_0506_0708));
        assert!(r.is_empty());
    }

    #[test]
    fn a_short_read_fails_and_consumes_nothing() {
        let bytes = [1, 2, 3];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32(), Err(Short));
        assert_eq!(r.u64_le(), Err(Short));
        assert_eq!(r.take(4), Err(Short));
        assert_eq!(r.take(usize::MAX), Err(Short));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.take(3), Ok(&bytes[..]));
        assert_eq!(r.u8(), Err(Short));
        assert_eq!(r.take(0), Ok(&[][..]));
        assert_eq!(r.rest(), &[] as &[u8]);
    }
}
