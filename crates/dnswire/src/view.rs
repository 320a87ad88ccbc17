//! Borrowed lazy-decode fast path.
//!
//! The transparent-interceptor and border-check paths only need the
//! header fields (and occasionally the QNAME) of a packet, and — when
//! forwarding — only rewrite the transaction ID and RD bit. Fully
//! decoding a [`Message`](crate::Message) there costs one heap
//! allocation per name plus one per section; [`MessageView`] reads the
//! same fields straight out of the wire bytes and patches forwarded
//! copies in place, which is byte-identical to decode → modify →
//! re-encode for any message our own encoder produced.

use crate::name::Name;
use crate::types::{Opcode, RCode, RType};
use crate::wire::{WireError, WireReader};

/// A borrowed view over an encoded DNS message. Construction only checks
/// that the 12-byte header is present; everything else is read on demand.
#[derive(Clone, Copy)]
pub struct MessageView<'a> {
    buf: &'a [u8],
}

impl<'a> MessageView<'a> {
    /// Wrap `buf`, requiring only a complete header.
    pub fn parse(buf: &'a [u8]) -> Result<MessageView<'a>, WireError> {
        if buf.len() < 12 {
            return Err(WireError::Truncated);
        }
        Ok(MessageView { buf })
    }

    fn u16_at(&self, at: usize) -> u16 {
        u16::from_be_bytes([self.buf[at], self.buf[at + 1]])
    }

    /// Transaction ID.
    pub fn id(&self) -> u16 {
        self.u16_at(0)
    }

    fn flags(&self) -> u16 {
        self.u16_at(2)
    }

    /// QR bit — true for responses.
    pub fn qr(&self) -> bool {
        self.flags() & (1 << 15) != 0
    }

    pub fn opcode(&self) -> Opcode {
        Opcode::from_u8(((self.flags() >> 11) & 0x0F) as u8)
    }

    /// RD (recursion desired) bit.
    pub fn rd(&self) -> bool {
        self.flags() & (1 << 8) != 0
    }

    /// TC (truncated) bit.
    pub fn tc(&self) -> bool {
        self.flags() & (1 << 9) != 0
    }

    pub fn rcode(&self) -> RCode {
        RCode::from_u8((self.flags() & 0x0F) as u8)
    }

    /// QDCOUNT.
    pub fn question_count(&self) -> u16 {
        self.u16_at(4)
    }

    /// The first question's name and type, decoded on demand (the one
    /// allocation this path permits, for callers that need the QNAME).
    pub fn question(&self) -> Result<Option<(Name, RType)>, WireError> {
        if self.question_count() == 0 {
            return Ok(None);
        }
        let mut r = WireReader::new(self.buf);
        r.seek(12)?;
        let name = Name::decode(&mut r)?;
        let rtype = RType::from_u16(r.u16()?);
        Ok(Some((name, rtype)))
    }

    /// The underlying wire bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.buf
    }

    /// A copy of the message with the transaction ID replaced — the
    /// interceptor's upstream-response rewrite. One allocation, no parse.
    pub fn to_bytes_with_id(&self, id: u16) -> Vec<u8> {
        let mut out = self.buf.to_vec();
        out[0..2].copy_from_slice(&id.to_be_bytes());
        out
    }

    /// A copy with the transaction ID replaced and RD forced on — the
    /// interceptor's client-query forward (it always requests recursion
    /// from its upstream).
    pub fn to_bytes_with_id_rd(&self, id: u16) -> Vec<u8> {
        let mut out = self.to_bytes_with_id(id);
        out[2] |= 0x01; // RD is bit 8 of FLAGS == bit 0 of byte 2
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::types::RType;

    fn sample() -> Message {
        let mut m = Message::query(0x1234, "ts.example.org".parse().unwrap(), RType::A);
        m.header.rd = false;
        m
    }

    #[test]
    fn header_fields_match_full_decode() {
        let msg = sample();
        let bytes = msg.encode();
        let v = MessageView::parse(&bytes).unwrap();
        assert_eq!(v.id(), 0x1234);
        assert!(!v.qr());
        assert!(!v.rd());
        assert!(!v.tc());
        assert_eq!(v.rcode(), msg.header.rcode);
        assert_eq!(v.opcode(), msg.header.opcode);
        assert_eq!(v.question_count(), 1);
        let (qname, qtype) = v.question().unwrap().unwrap();
        assert_eq!(qname, msg.questions[0].name);
        assert_eq!(qtype, RType::A);
    }

    #[test]
    fn rejects_short_buffers() {
        assert!(matches!(
            MessageView::parse(&[0; 11]),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn id_and_rd_patch_equal_reencode() {
        let msg = sample();
        let bytes = msg.encode();
        let v = MessageView::parse(&bytes).unwrap();

        let mut expect = msg.clone();
        expect.header.id = 0xBEEF;
        assert_eq!(v.to_bytes_with_id(0xBEEF), expect.encode());

        expect.header.rd = true;
        assert_eq!(v.to_bytes_with_id_rd(0xBEEF), expect.encode());

        // Patching must not disturb the original view.
        assert_eq!(v.id(), 0x1234);
    }

    #[test]
    fn no_question_is_none() {
        let mut m = sample();
        m.questions.clear();
        let bytes = m.encode();
        let v = MessageView::parse(&bytes).unwrap();
        assert_eq!(v.question().unwrap(), None);
    }
}
