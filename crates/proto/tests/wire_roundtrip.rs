//! Property-based round-trip coverage for the binary wire layer.
//!
//! Generates arbitrary [`DirtySetHeader`]s and [`NetMsg`]s — including every
//! `Body` variant a datagram can carry — and asserts that
//! `encode → decode` is the identity over `proto::wire`, and that encoded
//! sizes match the documented layout (Fig. 9 / §6.1).

use std::rc::Rc;

use proptest::prelude::*;

use switchfs_proto::changelog::{ChangeLogEntry, ChangeOp};
use switchfs_proto::ids::{ClientId, DirId, Fingerprint, OpId, TraceId};
use switchfs_proto::message::{
    Body, ClientRequest, ClientResponse, MetaOp, NetMsg, OpResult, PacketSeq, ParentRef, Reply,
    Request, ServerMsg, StateImage, TxnOp,
};
use switchfs_proto::schema::{DirEntry, FileType, InodeAttrs, MetaKey, Permissions, Timestamps};
use switchfs_proto::wire::{
    decode_dirty_header, decode_net_msg, encode_dirty_header, encode_net_msg, DIRTY_HEADER_LEN,
    NET_MSG_FIXED_LEN,
};
use switchfs_proto::{DirtyRet, DirtySetHeader, DirtySetOp, DirtyState, FsError};

/// A generator for the enum `$ty` that picks one of the listed generators,
/// one per variant. Beside it sits a match over `$ty` with one arm per
/// listed variant and no wildcard, so a variant added to or removed from
/// `$ty` without its generator here fails to build.
macro_rules! every_variant {
    ($ty:ident { $($variant:ident => $gen:expr),+ $(,)? }) => {{
        let _exhaustive = |value: &$ty| match value {
            $($ty::$variant { .. } => {})+
        };
        prop_oneof![$($gen),+]
    }};
}

fn arb_op() -> impl Strategy<Value = DirtySetOp> {
    prop_oneof![
        Just(DirtySetOp::Insert),
        Just(DirtySetOp::Query),
        Just(DirtySetOp::Remove),
    ]
}

fn arb_ret() -> impl Strategy<Value = DirtyRet> {
    prop_oneof![
        Just(DirtyRet::Unset),
        Just(DirtyRet::State(DirtyState::Normal)),
        Just(DirtyRet::State(DirtyState::Scattered)),
        Just(DirtyRet::Inserted),
        Just(DirtyRet::Overflowed),
        Just(DirtyRet::Removed),
    ]
}

fn arb_fingerprint() -> impl Strategy<Value = Fingerprint> {
    // `from_raw` masks to the 49 significant bits, so any u64 is legal input
    // and the boundary values of the mask get exercised.
    any::<u64>().prop_map(Fingerprint::from_raw)
}

fn arb_header() -> impl Strategy<Value = DirtySetHeader> {
    (
        arb_op(),
        arb_fingerprint(),
        any::<u64>(),
        (
            arb_ret(),
            prop_oneof![Just(None), any::<u32>().prop_map(Some)],
        ),
    )
        .prop_map(
            |(op, fingerprint, remove_seq, (ret, alt_dst))| DirtySetHeader {
                op,
                fingerprint,
                remove_seq,
                ret,
                alt_dst,
            },
        )
}

/// Directory-entry names restricted to JSON-transportable strings; the
/// compat generator already mixes ASCII, accented and astral characters.
fn arb_name() -> impl Strategy<Value = String> {
    any::<String>()
}

fn arb_dir_id() -> impl Strategy<Value = DirId> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
        .prop_map(|(a, b, c, d)| DirId([a, b, c, d]))
}

fn arb_key() -> impl Strategy<Value = MetaKey> {
    (arb_dir_id(), arb_name()).prop_map(|(pid, name)| MetaKey::new(pid, name))
}

fn arb_perm() -> impl Strategy<Value = Permissions> {
    (any::<u16>(), any::<u32>(), any::<u32>()).prop_map(|(mode, uid, gid)| Permissions {
        mode,
        uid,
        gid,
    })
}

fn arb_op_id() -> impl Strategy<Value = OpId> {
    (any::<u32>(), any::<u64>()).prop_map(|(c, seq)| OpId {
        client: ClientId(c),
        seq,
    })
}

fn arb_meta_op() -> impl Strategy<Value = MetaOp> {
    prop_oneof![
        arb_key().prop_map(|key| MetaOp::Lookup { key }),
        (arb_key(), arb_perm()).prop_map(|(key, perm)| MetaOp::Create { key, perm }),
        arb_key().prop_map(|key| MetaOp::Delete { key }),
        (arb_key(), arb_perm()).prop_map(|(key, perm)| MetaOp::Mkdir { key, perm }),
        arb_key().prop_map(|key| MetaOp::Rmdir { key }),
        arb_key().prop_map(|key| MetaOp::Stat { key }),
        arb_key().prop_map(|key| MetaOp::Statdir { key }),
        arb_key().prop_map(|key| MetaOp::Readdir { key }),
        arb_key().prop_map(|key| MetaOp::Open { key }),
        (arb_key(), any::<u16>()).prop_map(|(key, mode)| MetaOp::Chmod { key, mode }),
        (arb_key(), arb_key(), arb_parent_opt()).prop_map(|(src, dst, dst_parent)| {
            MetaOp::Rename {
                src,
                dst,
                dst_parent,
            }
        }),
    ]
}

fn arb_parent() -> impl Strategy<Value = ParentRef> {
    (arb_key(), arb_dir_id(), arb_fingerprint()).prop_map(|(key, id, fp)| ParentRef { key, id, fp })
}

fn arb_parent_opt() -> impl Strategy<Value = Option<ParentRef>> {
    prop_oneof![Just(None), arb_parent().prop_map(Some)]
}

fn arb_request() -> impl Strategy<Value = ClientRequest> {
    (
        arb_op_id(),
        arb_meta_op(),
        prop::collection::vec(arb_dir_id(), 0..4),
        (arb_parent_opt(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(op_id, op, ancestors, (parent, epoch, acked_below))| ClientRequest {
                op_id,
                op,
                ancestors,
                parent,
                epoch,
                acked_below,
            },
        )
}

fn arb_fs_error() -> impl Strategy<Value = FsError> {
    prop_oneof![
        Just(FsError::NotFound),
        Just(FsError::AlreadyExists),
        Just(FsError::NotEmpty),
        Just(FsError::StaleCache),
        Just(FsError::Unavailable),
        Just(FsError::PermissionDenied),
    ]
}

fn arb_attrs() -> impl Strategy<Value = InodeAttrs> {
    (
        arb_dir_id(),
        (any::<u64>(), any::<u32>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        arb_perm(),
    )
        .prop_map(
            |(id, (size, nlink), (atime, mtime, ctime), perm)| InodeAttrs {
                file_type: if size % 2 == 0 {
                    FileType::File
                } else {
                    FileType::Directory
                },
                id,
                size,
                nlink,
                times: Timestamps {
                    atime,
                    mtime,
                    ctime,
                },
                perm,
            },
        )
}

fn arb_result() -> impl Strategy<Value = OpResult> {
    every_variant!(OpResult {
        Done => Just(OpResult::Done),
        Attrs => arb_attrs().prop_map(OpResult::Attrs),
        Listing => (
            arb_attrs(),
            prop::collection::vec(
                (arb_name(), any::<u16>()).prop_map(|(name, mode)| DirEntry {
                    name: name.into(),
                    file_type: FileType::File,
                    mode,
                }),
                0..4,
            ),
        )
            .prop_map(|(attrs, entries)| OpResult::Listing {
                attrs,
                entries: Rc::new(entries),
            }),
        WrongOwner => arb_shard_map().prop_map(|map| OpResult::WrongOwner { map }),
        Err => arb_fs_error().prop_map(OpResult::Err),
    })
}

fn arb_shard_map() -> impl Strategy<Value = switchfs_proto::ShardMap> {
    // Epoch-0 maps plus a few deterministic reassignments: exercises both
    // the initial layout and post-migration maps on the wire.
    (1usize..6, 0u32..8).prop_map(|(servers, flips)| {
        let mut map = switchfs_proto::ShardMap::initial(
            switchfs_proto::PartitionPolicy::PerFileHash,
            servers,
        );
        if flips > 0 {
            let newcomer = map.add_server();
            for shard in 0..flips.min(map.num_shards() as u32) {
                map.assign(shard, newcomer);
            }
        }
        map
    })
}

fn arb_response() -> impl Strategy<Value = ClientResponse> {
    (arb_op_id(), arb_result()).prop_map(|(op_id, result)| ClientResponse { op_id, result })
}

/// An entry as every message carries one: shared, so each message that
/// holds an `Rc` is round-tripped through the codec.
fn arb_changelog_entry() -> impl Strategy<Value = Rc<ChangeLogEntry>> {
    (
        arb_op_id(),
        arb_dir_id(),
        arb_name(),
        (any::<bool>(), any::<u16>(), any::<u64>(), any::<i64>()),
    )
        .prop_map(
            |(entry_id, dir, name, (ins, mode, timestamp, size_delta))| {
                Rc::new(ChangeLogEntry {
                    entry_id,
                    dir,
                    name,
                    op: if ins {
                        ChangeOp::Insert {
                            file_type: FileType::File,
                            mode,
                        }
                    } else {
                        ChangeOp::Remove
                    },
                    timestamp,
                    size_delta,
                })
            },
        )
}

fn arb_server_msg() -> impl Strategy<Value = ServerMsg> {
    every_variant!(ServerMsg {
        AsyncCommit => (arb_response(), any::<u64>(), arb_key(), arb_changelog_entry()).prop_map(
            |(response, op_token, dir_key, entry)| ServerMsg::AsyncCommit {
                response,
                op_token,
                dir_key,
                entry,
            }
        ),
        AggregationRequest => (
            arb_fingerprint(),
            any::<u64>(),
            prop_oneof![Just(None), arb_dir_id().prop_map(Some)],
        )
            .prop_map(|(fp, agg_id, invalidate)| ServerMsg::AggregationRequest {
                fp,
                agg_id,
                invalidate,
            }),
        AggregationEntries => (
            any::<u64>(),
            prop::collection::vec(arb_changelog_entry(), 0..3),
            prop::collection::vec(arb_op_id(), 0..3),
        )
            .prop_map(|(agg_id, entries, discard_confirm)| {
                ServerMsg::AggregationEntries {
                    agg_id,
                    entries,
                    discard_confirm,
                }
            }),
        AggregationAck => any::<u64>().prop_map(|agg_id| ServerMsg::AggregationAck { agg_id }),
        // Proactive push with piggybacked discard confirmations: entries
        // and confirms generated independently so a field swap in the
        // codec cannot round-trip by accident.
        ChangeLogPush => (
            arb_key(),
            prop::collection::vec(arb_changelog_entry(), 0..3),
            prop::collection::vec(arb_op_id(), 0..3),
        )
            .prop_map(|(dir_key, entries, discard_confirm)| {
                ServerMsg::ChangeLogPush {
                    dir_key,
                    entries,
                    discard_confirm,
                }
            }),
        ChangeLogPushAck => (arb_key(), prop::collection::vec(arb_op_id(), 0..3))
            .prop_map(|(dir_key, applied)| ServerMsg::ChangeLogPushAck { dir_key, applied }),
        // Every kind of request, in the envelope that carries its token.
        Request => (any::<u64>(), arb_server_request())
            .prop_map(|(req_id, req)| ServerMsg::Request { req_id, req }),
        // The one reply message, with every kind of answer.
        Reply => (any::<u64>(), arb_reply())
            .prop_map(|(req_id, reply)| ServerMsg::Reply { req_id, reply }),
        ForwardedRequest => (any::<u32>(), arb_request()).prop_map(|(client_node, req)| {
            ServerMsg::ForwardedRequest {
                client_node,
                req: Rc::new(req),
            }
        }),
        InvalidationBroadcast => arb_dir_id()
            .prop_map(|dir_id| ServerMsg::InvalidationBroadcast { dir_id }),
        RecoveryCloneInvalidation => Just(ServerMsg::RecoveryCloneInvalidation),
        RecoveryInvalidationList => prop::collection::vec(arb_dir_id(), 0..3)
            .prop_map(|list| ServerMsg::RecoveryInvalidationList { list }),
    })
}

fn arb_server_request() -> impl Strategy<Value = Request> {
    every_variant!(Request {
        RemoteDirUpdate => (
            arb_key(),
            arb_changelog_entry(),
            prop::collection::vec(arb_op_id(), 0..3),
        )
            .prop_map(|(dir_key, entry, discard_confirm)| {
                Request::RemoteDirUpdate {
                    dir_key,
                    entry,
                    discard_confirm,
                }
            }),
        // Live-migration stream: the messages the elastic-placement
        // protocol depends on must round-trip with full payloads.
        ShardInstall => (
            any::<u32>(),
            prop::collection::vec((arb_key(), arb_attrs()), 0..3),
            prop::collection::vec((arb_dir_id(), arb_key()), 0..3),
            (
                prop::collection::vec((arb_key(), arb_changelog_entry()), 0..3),
                prop::collection::vec(arb_op_id(), 0..3),
                prop::collection::vec(arb_response(), 0..3),
            ),
        )
            .prop_map(
                |(shard, inodes, dir_index, (pending, applied_entry_ids, completed))| {
                    // The retired set is generated independently of the
                    // applied set (a deterministic transform of different
                    // op ids), so swapping the two fields in the codec
                    // cannot round-trip by accident.
                    let retired_entry_ids: Vec<OpId> = applied_entry_ids
                        .iter()
                        .map(|id| OpId {
                            client: id.client,
                            seq: id.seq.wrapping_add(1_000_000),
                        })
                        .collect();
                    Request::ShardInstall {
                        shard,
                        image: StateImage {
                            inodes,
                            entries: Vec::new(),
                            dir_index,
                            retired_entry_ids,
                            pending,
                            applied_entry_ids,
                            completed,
                        },
                    }
                },
            ),
        // The software dirty-set request (§7.3.3), every operation.
        DirtySet => (arb_op(), arb_fingerprint()).prop_map(|(op, fp)| Request::DirtySet { op, fp }),
        // The 2PC requests.
        TxnPrepare => (any::<u64>(), prop::collection::vec(arb_txn_op(), 0..3))
            .prop_map(|(txn_id, ops)| Request::TxnPrepare { txn_id, ops }),
        TxnDecision => (any::<u64>(), any::<bool>())
            .prop_map(|(txn_id, commit)| Request::TxnDecision { txn_id, commit }),
        TxnDecisionQuery => any::<u64>().prop_map(|txn_id| Request::TxnDecisionQuery { txn_id }),
        InvalidationRevoke => arb_dir_id().prop_map(|dir_id| Request::InvalidationRevoke { dir_id }),
        InitDirContent => (arb_key(), arb_attrs())
            .prop_map(|(key, attrs)| Request::InitDirContent { key, attrs }),
        DeleteAccessReplica => arb_key().prop_map(|key| Request::DeleteAccessReplica { key }),
        TypeProbe => arb_key().prop_map(|key| Request::TypeProbe { key }),
    })
}

fn arb_file_type_opt() -> impl Strategy<Value = Option<FileType>> {
    prop_oneof![
        Just(None),
        Just(Some(FileType::File)),
        Just(Some(FileType::Directory)),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    every_variant!(Reply {
        Done => prop_oneof![Just(Ok(())), arb_fs_error().prop_map(Err)].prop_map(Reply::Done),
        Decision => prop_oneof![Just(None), any::<bool>().prop_map(Some)].prop_map(Reply::Decision),
        Type => arb_file_type_opt().prop_map(Reply::Type),
        Dirty => arb_ret().prop_map(Reply::Dirty),
    })
}

fn arb_txn_op() -> impl Strategy<Value = TxnOp> {
    prop_oneof![
        (arb_key(), arb_attrs()).prop_map(|(key, attrs)| TxnOp::PutInode { key, attrs }),
        arb_key().prop_map(|key| TxnOp::DeleteInode { key }),
        (arb_key(), arb_changelog_entry())
            .prop_map(|(dir_key, entry)| TxnOp::DirUpdate { dir_key, entry }),
    ]
}

fn arb_body() -> impl Strategy<Value = Body> {
    prop_oneof![
        Just(Body::Empty),
        arb_request().prop_map(|r| Body::Request(Rc::new(r))),
        arb_response().prop_map(Body::Response),
        arb_server_msg().prop_map(Body::Server),
    ]
}

fn arb_trace() -> impl Strategy<Value = Option<TraceId>> {
    // Trace ids on the wire are always derived from op ids, so generate
    // them the same way instead of from raw u64s.
    prop_oneof![
        Just(None),
        arb_op_id().prop_map(|op| Some(TraceId::of_op(op))),
    ]
}

fn arb_net_msg() -> impl Strategy<Value = NetMsg> {
    (
        (any::<u32>(), any::<u64>()),
        prop_oneof![Just(None), arb_header().prop_map(Some)],
        (arb_trace(), arb_body()),
    )
        .prop_map(|((sender, seq), dirty, (trace, body))| NetMsg {
            pkt_seq: PacketSeq { sender, seq },
            dirty,
            trace,
            body,
        })
}

/// Encodes a frame in the pre-tracing wire format: identical layout except
/// the flag byte only ever holds 0 or 1 and no trace id is present. Used to
/// pin backward compatibility — old frames must keep decoding.
fn encode_old_format(msg: &NetMsg) -> Vec<u8> {
    assert!(msg.trace.is_none(), "old format cannot carry a trace id");
    let body = serde_json::to_string(&msg.body).unwrap();
    let mut buf = Vec::new();
    // The destination port follows from the header flag (§6.1).
    let dst_port: u16 = if msg.dirty.is_some() { 5310 } else { 5311 };
    buf.extend_from_slice(&dst_port.to_le_bytes());
    buf.extend_from_slice(&msg.pkt_seq.sender.to_le_bytes());
    buf.extend_from_slice(&msg.pkt_seq.seq.to_le_bytes());
    match &msg.dirty {
        Some(h) => {
            buf.push(1);
            buf.extend_from_slice(&switchfs_proto::wire::encode_dirty_header(h));
        }
        None => buf.push(0),
    }
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(body.as_bytes());
    buf
}

proptest! {
    #[test]
    fn dirty_header_roundtrips(h in arb_header()) {
        let bytes = encode_dirty_header(&h);
        prop_assert_eq!(bytes.len(), DIRTY_HEADER_LEN);
        let back = decode_dirty_header(&bytes).unwrap();
        prop_assert_eq!(h, back);
    }

    #[test]
    fn dirty_header_decode_never_panics_on_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        // Decoding must be total: any byte soup yields Ok or a WireError.
        let _ = decode_dirty_header(&raw);
    }

    #[test]
    fn net_msg_roundtrips(m in arb_net_msg()) {
        let bytes = encode_net_msg(&m);
        prop_assert!(bytes.len() >= NET_MSG_FIXED_LEN);
        let back = decode_net_msg(&bytes).unwrap();
        prop_assert_eq!(m, back);
    }

    #[test]
    fn net_msg_encoding_is_deterministic(m in arb_net_msg()) {
        prop_assert_eq!(encode_net_msg(&m), encode_net_msg(&m));
    }

    #[test]
    fn net_msg_truncation_never_panics(m in arb_net_msg(), cut in any::<u64>()) {
        let bytes = encode_net_msg(&m);
        let len = (cut as usize) % bytes.len();
        let _ = decode_net_msg(&bytes[..len]);
    }

    #[test]
    fn old_format_frames_still_decode(
        sender in any::<u32>(),
        seq in any::<u64>(),
        dirty in prop_oneof![Just(None), arb_header().prop_map(Some)],
        body in arb_body(),
    ) {
        // Frames encoded before the trace-id field existed (flag byte 0/1,
        // no trace bytes) must decode to the same message with trace=None.
        let msg = match dirty {
            Some(h) => NetMsg::with_dirty(PacketSeq { sender, seq }, h, body),
            None => NetMsg::plain(PacketSeq { sender, seq }, body),
        };
        let old_bytes = encode_old_format(&msg);
        let back = decode_net_msg(&old_bytes).unwrap();
        prop_assert_eq!(&msg, &back);
        prop_assert_eq!(back.trace, None);
        // And the new encoder emits byte-identical frames when no trace id
        // is attached: the format change is invisible until used.
        prop_assert_eq!(encode_net_msg(&msg).as_ref(), &old_bytes[..]);
    }

    #[test]
    fn traced_frames_roundtrip_and_cost_exactly_eight_bytes(
        m in arb_net_msg(), op in arb_op_id(),
    ) {
        let mut untraced = m;
        untraced.trace = None;
        let traced = untraced.clone().traced(TraceId::of_op(op));
        let plain_len = encode_net_msg(&untraced).len();
        let bytes = encode_net_msg(&traced);
        prop_assert_eq!(bytes.len(), plain_len + 8);
        prop_assert_eq!(decode_net_msg(&bytes).unwrap(), traced);
    }
}
