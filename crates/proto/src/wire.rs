//! Binary wire format of the switch-visible packet headers (Fig. 9).
//!
//! The simulated network carries typed Rust values, so this codec is not on
//! the hot path; it exists to pin down the exact on-the-wire layout a real
//! deployment would use and to let the switch crate's parser tests operate
//! on raw bytes, as the Tofino parser does.
//!
//! Layout of the dirty-set operation header (all fields little-endian):
//!
//! ```text
//! offset  size  field
//! 0       1     OP            (0 = insert, 1 = query, 2 = remove)
//! 1       8     FINGERPRINT   (49 significant bits)
//! 9       8     SEQ           (remove sequence number)
//! 17      1     RET           (0 unset, 1 normal, 2 scattered, 3 inserted,
//!                              4 overflowed, 5 removed)
//! 18      1     ALT flag      (0 = absent, 1 = present)
//! 19      4     ALT address   (raw node id of the fallback destination)
//! ```
//!
//! Total: 23 bytes, well within the parser budget of a Tofino stage.

use crate::dirtyset::{DirtyRet, DirtySetHeader, DirtySetOp, DirtyState};
use crate::ids::{Fingerprint, TraceId};
use crate::message::{NetMsg, PacketSeq};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Size in bytes of an encoded [`DirtySetHeader`].
pub const DIRTY_HEADER_LEN: usize = 23;

/// Minimum size in bytes of an encoded [`NetMsg`]: destination port (2),
/// sender id (4), packet sequence (8), dirty-header flag (1), then — after
/// the optional 23-byte dirty-set header, which sits between the flag and
/// the length so the switch parser never reads past a fixed offset — the
/// body length (4) and the body itself.
pub const NET_MSG_FIXED_LEN: usize = 2 + 4 + 8 + 1 + 4;

/// Reserved UDP destination ports (§6.1): the switch parser reads a
/// dirty-set header only from a packet on the first. A frame's port follows
/// from its header flag, so a [`NetMsg`] does not carry it.
const DIRTY_SET_PORT: u16 = 5310;
const PLAIN_PORT: u16 = 5311;

fn port_of(has_dirty_header: bool) -> u16 {
    if has_dirty_header {
        DIRTY_SET_PORT
    } else {
        PLAIN_PORT
    }
}

/// Errors produced when decoding a header from raw bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than a full header.
    Truncated,
    /// A field holds a value outside its legal range.
    InvalidField(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated dirty-set header"),
            WireError::InvalidField(name) => write!(f, "invalid field: {name}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a dirty-set header into its 23-byte wire representation.
pub fn encode_dirty_header(h: &DirtySetHeader) -> Bytes {
    let mut buf = BytesMut::with_capacity(DIRTY_HEADER_LEN);
    buf.put_u8(match h.op {
        DirtySetOp::Insert => 0,
        DirtySetOp::Query => 1,
        DirtySetOp::Remove => 2,
    });
    buf.put_u64_le(h.fingerprint.raw());
    buf.put_u64_le(h.remove_seq);
    buf.put_u8(match h.ret {
        DirtyRet::Unset => 0,
        DirtyRet::State(DirtyState::Normal) => 1,
        DirtyRet::State(DirtyState::Scattered) => 2,
        DirtyRet::Inserted => 3,
        DirtyRet::Overflowed => 4,
        DirtyRet::Removed => 5,
    });
    match h.alt_dst {
        Some(node) => {
            buf.put_u8(1);
            buf.put_u32_le(node);
        }
        None => {
            buf.put_u8(0);
            buf.put_u32_le(0);
        }
    }
    buf.freeze()
}

/// Decodes a dirty-set header from its wire representation.
pub fn decode_dirty_header(mut buf: &[u8]) -> Result<DirtySetHeader, WireError> {
    if buf.len() < DIRTY_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let op = match buf.get_u8() {
        0 => DirtySetOp::Insert,
        1 => DirtySetOp::Query,
        2 => DirtySetOp::Remove,
        _ => return Err(WireError::InvalidField("op")),
    };
    let raw_fp = buf.get_u64_le();
    if raw_fp > Fingerprint::MASK {
        return Err(WireError::InvalidField("fingerprint"));
    }
    let fingerprint = Fingerprint::from_raw(raw_fp);
    let remove_seq = buf.get_u64_le();
    let ret = match buf.get_u8() {
        0 => DirtyRet::Unset,
        1 => DirtyRet::State(DirtyState::Normal),
        2 => DirtyRet::State(DirtyState::Scattered),
        3 => DirtyRet::Inserted,
        4 => DirtyRet::Overflowed,
        5 => DirtyRet::Removed,
        _ => return Err(WireError::InvalidField("ret")),
    };
    let alt_flag = buf.get_u8();
    let alt_raw = buf.get_u32_le();
    let alt_dst = match alt_flag {
        0 => None,
        1 => Some(alt_raw),
        _ => return Err(WireError::InvalidField("alt_flag")),
    };
    Ok(DirtySetHeader {
        op,
        fingerprint,
        remove_seq,
        ret,
        alt_dst,
    })
}

/// Encodes a full SwitchFS datagram.
///
/// Layout (all integers little-endian):
///
/// ```text
/// offset  size  field
/// 0       2     DST PORT       (5310 with a dirty header, else 5311)
/// 2       4     PKT SENDER     (raw node id)
/// 6       8     PKT SEQ
/// 14      1     FLAGS          (bit 0 = dirty header follows,
///                               bit 1 = trace id follows)
/// 15      0|23  dirty-set operation header (see `encode_dirty_header`)
/// +0      0|8   TRACE ID       (causal-trace id, never zero when present)
/// +0      4     BODY length
/// +4      n     BODY           (JSON, opaque to the switch)
/// ```
///
/// The switch parser only ever reads up to the end of the dirty-set header;
/// the trace id and body are host-to-host payload. A frame without a trace
/// id is byte-identical to the pre-tracing format (flag bit 1 simply never
/// set), so old frames decode unchanged. The body travels as
/// self-describing JSON, mirroring how the real deployment carries the DFS
/// request opaquely behind the switch-visible headers (§6.1).
pub fn encode_net_msg(msg: &NetMsg) -> Bytes {
    let body = serde_json::to_string(&msg.body).expect("Body serializes infallibly");
    let mut buf = BytesMut::with_capacity(NET_MSG_FIXED_LEN + DIRTY_HEADER_LEN + 8 + body.len());
    buf.put_u16_le(port_of(msg.dirty.is_some()));
    buf.put_u32_le(msg.pkt_seq.sender);
    buf.put_u64_le(msg.pkt_seq.seq);
    let flags = (msg.dirty.is_some() as u8) | ((msg.trace.is_some() as u8) << 1);
    buf.put_u8(flags);
    if let Some(h) = &msg.dirty {
        buf.put_slice(&encode_dirty_header(h));
    }
    if let Some(t) = &msg.trace {
        buf.put_u64_le(t.raw());
    }
    buf.put_u32_le(body.len() as u32);
    buf.put_slice(body.as_bytes());
    buf.freeze()
}

/// Decodes a full SwitchFS datagram produced by [`encode_net_msg`].
pub fn decode_net_msg(mut buf: &[u8]) -> Result<NetMsg, WireError> {
    if buf.len() < 15 {
        return Err(WireError::Truncated);
    }
    let dst_port = buf.get_u16_le();
    let sender = buf.get_u32_le();
    let seq = buf.get_u64_le();
    let flags = buf.get_u8();
    if flags > 3 {
        return Err(WireError::InvalidField("dirty_flag"));
    }
    if dst_port != port_of(flags & 1 != 0) {
        return Err(WireError::InvalidField("dst_port"));
    }
    let dirty = if flags & 1 != 0 {
        if buf.len() < DIRTY_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let h = decode_dirty_header(&buf[..DIRTY_HEADER_LEN])?;
        buf = &buf[DIRTY_HEADER_LEN..];
        Some(h)
    } else {
        None
    };
    let trace = if flags & 2 != 0 {
        if buf.len() < 8 {
            return Err(WireError::Truncated);
        }
        let raw = buf.get_u64_le();
        match TraceId::from_raw(raw) {
            Some(t) => Some(t),
            None => return Err(WireError::InvalidField("trace_id")),
        }
    } else {
        None
    };
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let body_len = buf.get_u32_le() as usize;
    if buf.len() < body_len {
        return Err(WireError::Truncated);
    }
    // A datagram is exactly one frame: trailing bytes mean a corrupted
    // length field, so reject them like every other malformed field.
    if buf.len() > body_len {
        return Err(WireError::InvalidField("body_len"));
    }
    let body_str =
        std::str::from_utf8(&buf[..body_len]).map_err(|_| WireError::InvalidField("body"))?;
    let body = serde_json::from_str(body_str).map_err(|_| WireError::InvalidField("body"))?;
    Ok(NetMsg {
        pkt_seq: PacketSeq { sender, seq },
        dirty,
        trace,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Body;

    fn headers() -> Vec<DirtySetHeader> {
        vec![
            DirtySetHeader::insert(Fingerprint::from_raw(0x1_2345_6789_abcd), 42),
            DirtySetHeader::query(Fingerprint::from_raw(7)),
            DirtySetHeader::remove(Fingerprint::from_raw(Fingerprint::MASK), u64::MAX),
            DirtySetHeader {
                ret: DirtyRet::State(DirtyState::Scattered),
                ..DirtySetHeader::query(Fingerprint::from_raw(99))
            },
            DirtySetHeader {
                ret: DirtyRet::Overflowed,
                ..DirtySetHeader::insert(Fingerprint::from_raw(3), 1)
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for h in headers() {
            let bytes = encode_dirty_header(&h);
            assert_eq!(bytes.len(), DIRTY_HEADER_LEN);
            let back = decode_dirty_header(&bytes).unwrap();
            assert_eq!(h, back);
        }
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let bytes = encode_dirty_header(&DirtySetHeader::query(Fingerprint::from_raw(1)));
        assert_eq!(
            decode_dirty_header(&bytes[..DIRTY_HEADER_LEN - 1]),
            Err(WireError::Truncated)
        );
        assert_eq!(decode_dirty_header(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn invalid_fields_are_rejected() {
        let mut bytes =
            encode_dirty_header(&DirtySetHeader::query(Fingerprint::from_raw(1))).to_vec();
        bytes[0] = 9;
        assert_eq!(
            decode_dirty_header(&bytes),
            Err(WireError::InvalidField("op"))
        );
        let mut bytes =
            encode_dirty_header(&DirtySetHeader::query(Fingerprint::from_raw(1))).to_vec();
        bytes[17] = 77;
        assert_eq!(
            decode_dirty_header(&bytes),
            Err(WireError::InvalidField("ret"))
        );
        let mut bytes =
            encode_dirty_header(&DirtySetHeader::query(Fingerprint::from_raw(1))).to_vec();
        // Fingerprint with bits above bit 48 set.
        bytes[8] = 0xff;
        assert_eq!(
            decode_dirty_header(&bytes),
            Err(WireError::InvalidField("fingerprint"))
        );
    }

    #[test]
    fn net_msg_roundtrips_with_and_without_dirty_header() {
        let seq = PacketSeq { sender: 9, seq: 77 };
        let plain = NetMsg::plain(seq, Body::Empty);
        let back = decode_net_msg(&encode_net_msg(&plain)).unwrap();
        assert_eq!(plain, back);

        let hdr = DirtySetHeader::insert(Fingerprint::from_raw(0xbeef), 3);
        let dirty = NetMsg::with_dirty(seq, hdr, Body::Empty);
        let bytes = encode_net_msg(&dirty);
        assert_eq!(decode_net_msg(&bytes).unwrap(), dirty);
        // The dirty header sits at a fixed offset, parseable on its own as
        // the switch would.
        assert_eq!(decode_dirty_header(&bytes[15..]).unwrap(), hdr);
    }

    #[test]
    fn net_msg_roundtrips_with_trace_id() {
        use crate::ids::{ClientId, OpId};
        let seq = PacketSeq { sender: 4, seq: 11 };
        let trace = TraceId::of_op(OpId {
            client: ClientId(2),
            seq: 5,
        });
        // Trace alone.
        let msg = NetMsg::plain(seq, Body::Empty).traced(trace);
        let bytes = encode_net_msg(&msg);
        assert_eq!(decode_net_msg(&bytes).unwrap(), msg);
        assert_eq!(bytes[14], 2);
        // Trace + dirty header together; trace sits after the dirty header.
        let hdr = DirtySetHeader::insert(Fingerprint::from_raw(0xf00d), 8);
        let both = NetMsg::with_dirty(seq, hdr, Body::Empty).traced(trace);
        let bytes = encode_net_msg(&both);
        assert_eq!(decode_net_msg(&bytes).unwrap(), both);
        assert_eq!(bytes[14], 3);
        assert_eq!(decode_dirty_header(&bytes[15..]).unwrap(), hdr);
        let raw = u64::from_le_bytes(
            bytes[15 + DIRTY_HEADER_LEN..23 + DIRTY_HEADER_LEN]
                .try_into()
                .unwrap(),
        );
        assert_eq!(raw, trace.raw());
    }

    #[test]
    fn untraced_frames_match_the_pre_tracing_format() {
        // A frame without a trace id must be byte-identical to what the
        // pre-tracing encoder produced: flags 0/1, no extra bytes.
        let seq = PacketSeq { sender: 9, seq: 77 };
        let plain = NetMsg::plain(seq, Body::Empty);
        let bytes = encode_net_msg(&plain);
        assert_eq!(bytes[14], 0);
        let body = serde_json::to_string(&plain.body).unwrap();
        assert_eq!(bytes.len(), NET_MSG_FIXED_LEN + body.len());
        let dirty = NetMsg::with_dirty(
            seq,
            DirtySetHeader::query(Fingerprint::from_raw(7)),
            Body::Empty,
        );
        let bytes = encode_net_msg(&dirty);
        assert_eq!(bytes[14], 1);
        assert_eq!(
            bytes.len(),
            NET_MSG_FIXED_LEN + DIRTY_HEADER_LEN + body.len()
        );
    }

    #[test]
    fn zero_trace_id_on_the_wire_is_rejected() {
        use crate::ids::{ClientId, OpId};
        let msg = NetMsg::plain(PacketSeq { sender: 1, seq: 2 }, Body::Empty).traced(
            TraceId::of_op(OpId {
                client: ClientId(0),
                seq: 0,
            }),
        );
        let mut bytes = encode_net_msg(&msg).to_vec();
        // Zero is reserved for "untraced"; a traced frame carrying it means
        // corruption.
        bytes[15..23].fill(0);
        assert_eq!(
            decode_net_msg(&bytes),
            Err(WireError::InvalidField("trace_id"))
        );
    }

    #[test]
    fn net_msg_truncations_are_rejected() {
        use crate::ids::{ClientId, OpId};
        let msg = NetMsg::with_dirty(
            PacketSeq { sender: 1, seq: 2 },
            DirtySetHeader::query(Fingerprint::from_raw(5)),
            Body::Empty,
        );
        let bytes = encode_net_msg(&msg);
        for len in 0..bytes.len() {
            assert_eq!(decode_net_msg(&bytes[..len]), Err(WireError::Truncated));
        }
        let traced = msg.traced(TraceId::of_op(OpId {
            client: ClientId(1),
            seq: 1,
        }));
        let bytes = encode_net_msg(&traced);
        for len in 0..bytes.len() {
            assert_eq!(decode_net_msg(&bytes[..len]), Err(WireError::Truncated));
        }
    }

    #[test]
    fn net_msg_invalid_flag_and_body_are_rejected() {
        let msg = NetMsg::plain(PacketSeq { sender: 1, seq: 2 }, Body::Empty);
        let mut bytes = encode_net_msg(&msg).to_vec();
        bytes[14] = 7;
        assert_eq!(
            decode_net_msg(&bytes),
            Err(WireError::InvalidField("dirty_flag"))
        );
        let mut bytes = encode_net_msg(&msg).to_vec();
        let body_start = bytes.len() - 1;
        bytes[body_start] = b'!';
        assert_eq!(decode_net_msg(&bytes), Err(WireError::InvalidField("body")));
    }

    #[test]
    fn net_msg_trailing_bytes_are_rejected() {
        let msg = NetMsg::plain(PacketSeq { sender: 1, seq: 2 }, Body::Empty);
        let mut bytes = encode_net_msg(&msg).to_vec();
        bytes.push(0);
        assert_eq!(
            decode_net_msg(&bytes),
            Err(WireError::InvalidField("body_len"))
        );
    }

    #[test]
    fn net_msg_port_follows_the_header_flag_and_a_disagreeing_port_is_rejected() {
        let seq = PacketSeq { sender: 1, seq: 2 };
        let plain = NetMsg::plain(seq, Body::Empty);
        let dirty = NetMsg::with_dirty(seq, headers()[0], Body::Empty);
        for (msg, port, other) in [(&plain, 5311u16, 5310u16), (&dirty, 5310, 5311)] {
            let mut bytes = encode_net_msg(msg).to_vec();
            assert_eq!(bytes[..2], port.to_le_bytes());
            for wrong in [other, 0, 53] {
                bytes[..2].copy_from_slice(&wrong.to_le_bytes());
                assert_eq!(
                    decode_net_msg(&bytes),
                    Err(WireError::InvalidField("dst_port"))
                );
            }
        }
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::InvalidField("op").to_string().contains("op"));
    }
}
