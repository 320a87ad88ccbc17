//! Low-level wire primitives: a bounds-checked reader and a writer with
//! name-compression bookkeeping.

use std::fmt;

/// Errors produced while decoding (or, rarely, encoding) wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Read past the end of the buffer.
    Truncated,
    /// A compression pointer pointed forward or formed a loop.
    BadPointer,
    /// A label exceeded 63 bytes or used reserved type bits.
    BadLabel,
    /// A name exceeded 255 wire bytes.
    NameTooLong,
    /// RDATA length did not match its declared size.
    BadRdataLength,
    /// A field held a value outside its domain (e.g. unknown class).
    BadValue(&'static str),
    /// Trailing garbage after the message.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadPointer => write!(f, "bad compression pointer"),
            WireError::BadLabel => write!(f, "bad label"),
            WireError::NameTooLong => write!(f, "name exceeds 255 bytes"),
            WireError::BadRdataLength => write!(f, "rdata length mismatch"),
            WireError::BadValue(what) => write!(f, "bad value for {what}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over an immutable byte buffer with bounds-checked reads.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start reading at offset 0.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Jump to an absolute offset (used to follow compression pointers).
    /// The target must be inside the buffer.
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.buf.len() {
            return Err(WireError::BadPointer);
        }
        self.pos = pos;
        Ok(())
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The whole underlying buffer (for pointer resolution).
    pub fn buffer(&self) -> &'a [u8] {
        self.buf
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a big-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let hi = self.u8()? as u16;
        let lo = self.u8()? as u16;
        Ok(hi << 8 | lo)
    }

    /// Read a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let hi = self.u16()? as u32;
        let lo = self.u16()? as u32;
        Ok(hi << 16 | lo)
    }

    /// Read exactly `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Compression-pointer indirections tolerated while matching a dictionary
/// candidate. Names this writer itself produced form strictly-backward
/// chains far shorter than this; the bound is a defensive backstop.
const MAX_DICT_HOPS: usize = 64;

/// An append-only buffer with a compression dictionary of *offsets* into
/// the already-written bytes. Earlier revisions keyed a fresh
/// `HashMap<Vec<u8>, usize>` by canonical name bytes, which cost one
/// `Vec` (and one hash insert) per suffix per encoded name; the offset
/// list matches candidate suffixes against the wire bytes in place, so
/// steady-state encoding allocates nothing beyond the (reusable) buffer.
pub struct WireWriter {
    buf: Vec<u8>,
    /// Offsets (all ≤ 0x3FFF) where an already-written label run starts,
    /// in write order — so a linear scan finds the *first* occurrence,
    /// exactly as the old map's first-insert-wins rule did.
    name_starts: Vec<u32>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> WireWriter {
        WireWriter {
            buf: Vec::with_capacity(512),
            name_starts: Vec::new(),
        }
    }

    /// Reset for reuse without releasing capacity: this is the pooled
    /// "scratch" mode — a node keeps one writer and encodes every
    /// outgoing message into it. Compression offsets are absolute from
    /// the message start, so the buffer must be cleared between messages.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.name_starts.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far (borrowed; the writer stays reusable).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrite a previously written big-endian u16 (e.g. RDLENGTH
    /// back-patching). An out-of-range `at` is a checked no-op returning
    /// `false` instead of a slice-index panic, so a malformed back-patch
    /// cannot abort a shard thread mid-survey.
    pub fn patch_u16(&mut self, at: usize, v: u16) -> bool {
        match self.buf.get_mut(at..at.wrapping_add(2)) {
            Some(span) => {
                span.copy_from_slice(&v.to_be_bytes());
                true
            }
            None => false,
        }
    }

    /// Remember that a name's label run starts at `offset`. Offsets beyond
    /// the 14-bit pointer range are not recorded; `0x3FFF` itself is the
    /// largest representable pointer target and *is* valid.
    pub fn note_name_start(&mut self, offset: usize) {
        if offset <= 0x3FFF {
            self.name_starts.push(offset as u32);
        }
    }

    /// Look up a compression target for a label sequence in uncompressed
    /// wire form without the root byte (as [`Name::wire_labels`] returns):
    /// the offset of the first already-written name whose labels
    /// (following any compression pointers it ends in) equal `labels`
    /// case-insensitively and terminate at the root.
    ///
    /// [`Name::wire_labels`]: crate::Name::wire_labels
    pub fn find_name(&self, labels: &[u8]) -> Option<usize> {
        'starts: for &start in &self.name_starts {
            let mut pos = start as usize;
            let mut hops = 0usize;
            let mut i = 0usize;
            loop {
                let Some(&len) = self.buf.get(pos) else {
                    continue 'starts;
                };
                if len & 0xC0 == 0xC0 {
                    let Some(&lo) = self.buf.get(pos + 1) else {
                        continue 'starts;
                    };
                    hops += 1;
                    if hops > MAX_DICT_HOPS {
                        continue 'starts;
                    }
                    pos = ((len as usize & 0x3F) << 8) | lo as usize;
                } else if len == 0 {
                    if i == labels.len() {
                        return Some(start as usize);
                    }
                    continue 'starts;
                } else if len & 0xC0 != 0 {
                    // Reserved label type: never written by this writer.
                    continue 'starts;
                } else {
                    if labels.get(i) != Some(&len) {
                        continue 'starts;
                    }
                    let n = 1 + len as usize;
                    let (Some(wire), Some(want)) =
                        (self.buf.get(pos + 1..pos + n), labels.get(i + 1..i + n))
                    else {
                        continue 'starts;
                    };
                    if !wire.eq_ignore_ascii_case(want) {
                        continue 'starts;
                    }
                    i += n;
                    pos += n;
                }
            }
        }
        None
    }

    /// Finish and take the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for WireWriter {
    fn default() -> Self {
        WireWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_round_trip() {
        let mut w = WireWriter::new();
        w.u8(0xAB);
        w.u16(0x1234);
        w.u32(0xDEADBEEF);
        w.bytes(b"xyz");
        let buf = w.into_bytes();

        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.bytes(3).unwrap(), b"xyz");
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }

    #[test]
    fn seek_bounds() {
        let buf = [0u8; 4];
        let mut r = WireReader::new(&buf);
        assert!(r.seek(4).is_ok());
        assert_eq!(r.seek(5), Err(WireError::BadPointer));
    }

    #[test]
    fn patch_u16_overwrites() {
        let mut w = WireWriter::new();
        w.u16(0);
        w.u8(9);
        assert!(w.patch_u16(0, 0xBEEF));
        assert_eq!(w.into_bytes(), vec![0xBE, 0xEF, 9]);
    }

    #[test]
    fn patch_u16_out_of_range_is_checked_noop() {
        let mut w = WireWriter::new();
        w.u16(0x1234);
        // Straddling the end, fully past the end, and overflow-adjacent
        // offsets must all be rejected without panicking or writing.
        assert!(!w.patch_u16(1, 0xBEEF));
        assert!(!w.patch_u16(2, 0xBEEF));
        assert!(!w.patch_u16(usize::MAX, 0xBEEF));
        assert_eq!(w.into_bytes(), vec![0x12, 0x34]);
    }

    /// Labels in the flat wire form `find_name` takes.
    fn labels(parts: &[&str]) -> Vec<u8> {
        parts
            .iter()
            .flat_map(|p| std::iter::once(p.len() as u8).chain(p.bytes()))
            .collect()
    }

    #[test]
    fn compression_dictionary_matches_written_bytes() {
        let mut w = WireWriter::new();
        // Write "host.example" by hand, noting each label-run start.
        w.note_name_start(w.len());
        w.u8(4);
        w.bytes(b"host");
        w.note_name_start(w.len());
        w.u8(7);
        w.bytes(b"example");
        w.u8(0);
        assert_eq!(w.find_name(&labels(&["host", "example"])), Some(0));
        // Case-insensitive, first occurrence wins, suffix match.
        assert_eq!(w.find_name(&labels(&["HOST", "Example"])), Some(0));
        assert_eq!(w.find_name(&labels(&["example"])), Some(5));
        // Shorter or longer sequences must not match.
        assert_eq!(w.find_name(&labels(&["host"])), None);
        assert_eq!(w.find_name(&labels(&["no", "example"])), None);
        assert_eq!(w.find_name(&labels(&["host", "example", "org"])), None);
    }

    #[test]
    fn compression_dictionary_follows_pointers() {
        let mut w = WireWriter::new();
        w.note_name_start(w.len());
        w.u8(3);
        w.bytes(b"org");
        w.u8(0);
        // "www" + pointer back to "org".
        w.note_name_start(w.len());
        w.u8(3);
        w.bytes(b"www");
        w.u16(0xC000);
        assert_eq!(w.find_name(&labels(&["www", "org"])), Some(5));
        assert_eq!(w.find_name(&labels(&["www"])), None);
    }

    #[test]
    fn compression_dictionary_offset_range() {
        let mut w = WireWriter::new();
        // Out-of-range starts are never recorded; 0x3FFF itself is valid.
        w.bytes(&vec![0u8; 0x3FFF]);
        w.note_name_start(0x4000);
        w.note_name_start(w.len()); // exactly 0x3FFF
        w.u8(1);
        w.bytes(b"x");
        w.u8(0);
        assert_eq!(w.find_name(&labels(&["x"])), Some(0x3FFF));
    }

    #[test]
    fn clear_resets_buffer_and_dictionary() {
        let mut w = WireWriter::new();
        w.note_name_start(w.len());
        w.u8(1);
        w.bytes(b"a");
        w.u8(0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.as_bytes(), b"");
        assert_eq!(w.find_name(&labels(&["a"])), None);
    }
}
