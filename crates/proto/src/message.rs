//! Typed messages exchanged between clients, metadata servers, the
//! programmable switch and the dedicated coordinator.
//!
//! A [`NetMsg`] models one SwitchFS UDP datagram (§6.1): a destination port
//! (which tells the switch whether a dirty-set operation header is present),
//! an optional [`DirtySetHeader`], and a body that only end hosts interpret.
//! The switch never looks at [`Body`], mirroring the real data plane, which
//! parses only the fixed-format header.
//!
//! Every server-to-server request that wants an answer travels in one
//! envelope, [`ServerMsg::Request`]: a token plus a [`Request`]. The answer
//! is a [`ServerMsg::Reply`] echoing that token, so a lost or duplicated copy
//! of either is harmless (§5.4.1): the sender retransmits under the same
//! token, and a reply nobody waits for is dropped. A dirty set kept in
//! software (§7.3.3: on a dedicated coordinator or on each directory's
//! owner) is reached by one such request, the same for both:
//! [`Request::DirtySet`], answered with [`Reply::Dirty`].

use std::rc::Rc;

use crate::changelog::ChangeLogEntry;
use crate::dirtyset::{DirtyRet, DirtySetHeader, DirtySetOp};
use crate::error::FsError;
use crate::ids::{DirId, Fingerprint, OpId, TraceId};
use crate::schema::{DirEntry, FileType, InodeAttrs, MetaKey, Name, Permissions};
use serde::{Deserialize, Serialize};

/// A client's packet numbering: each copy of a request it sends, a
/// retransmission included, carries a fresh `seq`, so a server tells a
/// network-duplicated packet (same sequence) from a retransmission (§5.4.1).
/// Servers and the coordinator number nothing and send the default: the
/// duplicate window reads only client requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct PacketSeq {
    /// Raw node id of the sender.
    pub sender: u32,
    /// Monotonically increasing per-sender sequence number.
    pub seq: u64,
}

/// A client-visible metadata operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetaOp {
    /// Resolve one path component: return the inode stored under `key`.
    Lookup {
        /// `(pid, name)` of the component.
        key: MetaKey,
    },
    /// Create a regular file.
    Create {
        /// `(pid, name)` of the new file.
        key: MetaKey,
        /// Permissions of the new file.
        perm: Permissions,
    },
    /// Delete a regular file.
    Delete {
        /// `(pid, name)` of the file.
        key: MetaKey,
    },
    /// Create a directory.
    Mkdir {
        /// `(pid, name)` of the new directory.
        key: MetaKey,
        /// Permissions of the new directory.
        perm: Permissions,
    },
    /// Remove an (empty) directory.
    Rmdir {
        /// `(pid, name)` of the directory.
        key: MetaKey,
    },
    /// Read a file's attributes.
    Stat {
        /// `(pid, name)` of the file.
        key: MetaKey,
    },
    /// Read a directory's attributes.
    Statdir {
        /// `(pid, name)` of the directory.
        key: MetaKey,
    },
    /// List a directory.
    Readdir {
        /// `(pid, name)` of the directory.
        key: MetaKey,
    },
    /// Open a file (permission check + location lookup).
    Open {
        /// `(pid, name)` of the file.
        key: MetaKey,
    },
    /// Close a file.
    Close {
        /// `(pid, name)` of the file.
        key: MetaKey,
    },
    /// Change permission bits of a file or directory.
    Chmod {
        /// `(pid, name)` of the object.
        key: MetaKey,
        /// New mode bits.
        mode: u16,
    },
    /// Rename (and possibly move) a file or directory.
    Rename {
        /// Source `(pid, name)`.
        src: MetaKey,
        /// Destination `(pid, name)`.
        dst: MetaKey,
        /// Reference to the destination's parent directory, resolved by the
        /// client alongside the destination path. The rename transaction
        /// (§5.2) needs it to route the destination-directory update to the
        /// server owning that directory's content replica. LibFS always
        /// fills it in (the root counts as its children's parent); on a
        /// `None` from another sender the coordinator falls back to treating
        /// the destination as sitting directly under the root.
        dst_parent: Option<ParentRef>,
    },
}

impl MetaOp {
    /// The primary key the operation targets (the destination key for
    /// `rename`), which determines the server the client sends it to.
    pub fn primary_key(&self) -> &MetaKey {
        match self {
            MetaOp::Lookup { key }
            | MetaOp::Create { key, .. }
            | MetaOp::Delete { key }
            | MetaOp::Mkdir { key, .. }
            | MetaOp::Rmdir { key }
            | MetaOp::Stat { key }
            | MetaOp::Statdir { key }
            | MetaOp::Readdir { key }
            | MetaOp::Open { key }
            | MetaOp::Close { key }
            | MetaOp::Chmod { key, .. } => key,
            MetaOp::Rename { src, .. } => src,
        }
    }

    /// True for double-inode operations that update the parent directory
    /// (§5.2: `create`, `delete`, `mkdir`, `rmdir`).
    pub fn is_double_inode(&self) -> bool {
        matches!(
            self,
            MetaOp::Create { .. }
                | MetaOp::Delete { .. }
                | MetaOp::Mkdir { .. }
                | MetaOp::Rmdir { .. }
        )
    }

    /// True for operations that read directory metadata (`statdir`,
    /// `readdir`) and therefore must check the dirty set.
    pub fn is_dir_read(&self) -> bool {
        matches!(self, MetaOp::Statdir { .. } | MetaOp::Readdir { .. })
    }

    /// Short operation name, used in metrics and harness output.
    pub fn name(&self) -> &'static str {
        match self {
            MetaOp::Lookup { .. } => "lookup",
            MetaOp::Create { .. } => "create",
            MetaOp::Delete { .. } => "delete",
            MetaOp::Mkdir { .. } => "mkdir",
            MetaOp::Rmdir { .. } => "rmdir",
            MetaOp::Stat { .. } => "stat",
            MetaOp::Statdir { .. } => "statdir",
            MetaOp::Readdir { .. } => "readdir",
            MetaOp::Open { .. } => "open",
            MetaOp::Close { .. } => "close",
            MetaOp::Chmod { .. } => "chmod",
            MetaOp::Rename { .. } => "rename",
        }
    }
}

/// Information about the parent directory of an operation's target, resolved
/// by the client during path resolution and needed by the server to log the
/// deferred parent update and to address the switch (Fig. 4: the commit
/// packet "contains the fingerprint of the parent directory").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParentRef {
    /// The parent directory's own `(pid, name)` key.
    pub key: MetaKey,
    /// The parent directory's id.
    pub id: DirId,
    /// The parent directory's fingerprint.
    pub fp: Fingerprint,
}

/// A metadata request from a client to a metadata server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientRequest {
    /// Operation id (client + per-client sequence number).
    pub op_id: OpId,
    /// The requested operation.
    pub op: MetaOp,
    /// Directory ids of every path component the client resolved from its
    /// cache, checked by the server against its invalidation list (§5.2.1).
    pub ancestors: Vec<DirId>,
    /// The target's parent directory; `None` only for the root itself,
    /// which servers serve to `statdir` and `readdir` alone.
    pub parent: Option<ParentRef>,
    /// Epoch of the shard map the client routed this request with. A server
    /// whose map is newer re-checks ownership and answers
    /// [`OpResult::WrongOwner`] if the target shard moved away.
    pub epoch: u64,
    /// Duplicate-suppression watermark: the client has received responses
    /// for every one of its operations with `seq < acked_below` and will
    /// never retransmit them, so the server may prune their cached
    /// responses (bounding the per-client dedup state by the in-flight
    /// window instead of the connection's lifetime).
    pub acked_below: u64,
}

/// The result of a metadata operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpResult {
    /// The operation succeeded and returns no payload.
    Done,
    /// The operation succeeded and returns inode attributes.
    Attrs(InodeAttrs),
    /// The operation succeeded and returns a directory listing together with
    /// the directory's attributes. The entry list is behind an `Rc` so the
    /// server's response cache, the in-flight packet copies and the client
    /// all share one allocation instead of deep-copying the listing.
    Listing {
        /// Directory attributes after applying any pending updates.
        attrs: InodeAttrs,
        /// Directory entries (shared, not cloned, across response copies).
        entries: Rc<Vec<DirEntry>>,
    },
    /// The request was routed with a stale shard map: the target shard is no
    /// longer owned by the addressed server. Carries the server's current
    /// map so the client can refresh its cache and retry against the new
    /// owner without a separate map-fetch round trip.
    WrongOwner {
        /// The addressed server's current shard map.
        map: crate::placement::ShardMap,
    },
    /// The operation failed.
    Err(FsError),
}

impl OpResult {
    /// True unless the result is an error.
    pub fn is_ok(&self) -> bool {
        !matches!(self, OpResult::Err(_) | OpResult::WrongOwner { .. })
    }

    /// The error, if any. A `WrongOwner` reject maps to the retryable
    /// `Unavailable` for callers that do not refresh the map themselves
    /// (LibFs intercepts it before this mapping applies).
    pub fn err(&self) -> Option<FsError> {
        match self {
            OpResult::Err(e) => Some(*e),
            OpResult::WrongOwner { .. } => Some(FsError::Unavailable),
            _ => None,
        }
    }
}

/// A metadata response from a server (or the switch multicasting on a
/// server's behalf) to a client.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientResponse {
    /// The operation this responds to.
    pub op_id: OpId,
    /// The result.
    pub result: OpResult,
}

/// Server-to-server and server-to-switch protocol messages. None names its
/// sender: a receiver that needs to know who sent a message (to answer it,
/// or to remember which server to confirm a discard to) reads the packet's
/// source, which the switch keeps on every copy it forwards or multicasts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerMsg {
    /// Commit notification of an asynchronous double-inode operation,
    /// carrying a dirty-set `insert`. On success the switch multicasts it to
    /// the client (operation completion) and back to the packet's source,
    /// the origin server (lock release). On overflow the address rewriter redirects it to the
    /// parent directory's owner, which serves it as the synchronous parent
    /// update it falls back to (§5.2.1): the owner applies `entry` to
    /// `dir_key` as it applies a [`Request::RemoteDirUpdate`] and answers
    /// the origin with [`Reply::Done`] under `op_token`; the origin then
    /// replies to the client.
    AsyncCommit {
        /// Response destined for the client.
        response: ClientResponse,
        /// Token identifying the pending operation on the origin server:
        /// what the switch's mirror copy and the overflow path's reply echo.
        op_token: u64,
        /// Key of the parent directory the overflow path updates.
        dir_key: MetaKey,
        /// The parent update, shared with the origin's WAL record and
        /// change-log.
        entry: Rc<ChangeLogEntry>,
    },
    /// Aggregation request from a directory owner, carrying a dirty-set
    /// `remove`: the switch removes the fingerprint and multicasts the
    /// request to every other metadata server (§5.2.2, step 5).
    AggregationRequest {
        /// Fingerprint group being aggregated.
        fp: Fingerprint,
        /// Aggregation id, unique per owner: it matches the entries and the
        /// acknowledgment to this request and makes retries idempotent.
        agg_id: u64,
        /// For `rmdir`: the directory to append to every server's
        /// invalidation list before replying (§5.2.3, step 5).
        invalidate: Option<DirId>,
    },
    /// A server's change-log entries for the requested fingerprint group,
    /// sent back to the aggregation owner (§5.2.2, step 6).
    AggregationEntries {
        /// Aggregation id (copied from the request).
        agg_id: u64,
        /// All change-log entries of directories in the fingerprint group.
        entries: Vec<Rc<ChangeLogEntry>>,
        /// Piggybacked discard confirmations: ids of entries this sender
        /// previously discarded after an owner acknowledgment. The owner may
        /// prune them from its duplicate-suppression set — the holder can
        /// never re-send them (see `ChangeLogPush::discard_confirm`).
        discard_confirm: Vec<OpId>,
    },
    /// Acknowledgment from the aggregation owner: the entries have been
    /// applied and logged; receivers unlock their change-logs and mark the
    /// entries "applied" in their WALs (§5.2.2, steps 9a/9b).
    AggregationAck {
        /// Aggregation id (copied from the request).
        agg_id: u64,
    },
    /// Proactive change-log push from a holder to the directory's owner
    /// (§5.3): entries are transferred without an explicit aggregation so a
    /// later read does not stall.
    ChangeLogPush {
        /// Key of the directory whose change-log is being pushed; its
        /// fingerprint follows from it.
        dir_key: MetaKey,
        /// The pushed entries.
        entries: Vec<Rc<ChangeLogEntry>>,
        /// Piggybacked discard confirmations: ids of entries this holder
        /// durably discarded after an earlier acknowledgment round trip. The
        /// receiver can prune them from its duplicate-suppression set (the
        /// holder will never re-send a discarded entry), which is what keeps
        /// `applied_entry_ids` bounded by the in-flight window instead of
        /// the server's lifetime. Riding on messages that already flow, the
        /// confirmation adds no packets and no modeled latency.
        discard_confirm: Vec<OpId>,
    },
    /// Acknowledgment of a `ChangeLogPush`; the pusher marks the entries
    /// applied.
    ChangeLogPushAck {
        /// Key of the directory.
        dir_key: MetaKey,
        /// Ids of the entries that were applied by the owner.
        applied: Vec<OpId>,
    },
    /// A request that wants an answer: the receiver answers it with a
    /// [`ServerMsg::Reply`] echoing `req_id`, or drops it (a copy racing a
    /// still-running first copy), and the sender retransmits under the same
    /// token until the reply arrives.
    Request {
        /// Token the reply echoes; fresh per request, shared by its copies.
        req_id: u64,
        /// What is asked.
        req: Request,
    },
    /// The answer to a [`ServerMsg::Request`] (or to an overflowed
    /// [`ServerMsg::AsyncCommit`], under its `op_token`): the sender's one
    /// table of token-matched waits routes the [`Reply`] to whoever is
    /// waiting for it. A reply nobody waits for any more (a duplicate, or
    /// one that outlived its timeout) is dropped.
    Reply {
        /// Token copied from the request.
        req_id: u64,
        /// The answer.
        reply: Reply,
    },
    /// A client request re-routed between servers. Used by `rename` on a
    /// cold client cache: the client sends the request to the source's
    /// per-file-hash owner without probing the source's type; if the source
    /// turns out to be a directory (whose inode lives with its fingerprint
    /// group), the first server forwards the request to the group owner,
    /// which coordinates the transaction and replies to the client directly.
    ForwardedRequest {
        /// Raw node id of the client awaiting the response.
        client_node: u32,
        /// The original request, unchanged (same op id, so duplicate
        /// suppression works across the forward).
        req: Rc<ClientRequest>,
    },
    /// Broadcast appending a removed / renamed / re-permissioned directory
    /// to every server's invalidation list (§5.2, invalidation list).
    InvalidationBroadcast {
        /// Id of the invalidated directory.
        dir_id: DirId,
    },
    /// Request to clone the invalidation list during crash recovery
    /// (§5.4.2), answered to the recovering server that sent it.
    RecoveryCloneInvalidation,
    /// Reply carrying the invalidation list.
    RecoveryInvalidationList {
        /// The responding server's invalidation list.
        list: Vec<DirId>,
    },
}

/// What a [`ServerMsg::Request`] asks: every server-to-server request that
/// is answered, each with the [`Reply`] named in its doc.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Request {
    /// Synchronous remote directory update, used by the baselines
    /// (E-InfiniFS / E-CFS cross-server double-inode operations) and by the
    /// SwitchFS overflow fallback once the owner the switch rewrote the
    /// commit to refused it or never answered. The owner serves it, and an
    /// overflowed [`ServerMsg::AsyncCommit`], with one handler, answering
    /// [`Reply::Done`].
    RemoteDirUpdate {
        /// Key of the directory to update.
        dir_key: MetaKey,
        /// The update.
        entry: Rc<ChangeLogEntry>,
        /// Piggybacked discard confirmations (see
        /// `ServerMsg::ChangeLogPush::discard_confirm`); lets the
        /// synchronous baseline path bound the receiver's
        /// duplicate-suppression set too.
        discard_confirm: Vec<OpId>,
    },
    /// Two-phase-commit prepare for `rename` (and baseline transactions);
    /// answered with [`Reply::Done`], or not at all when the sender is not
    /// a metadata server. `Ok(())` votes yes; `IsADirectory` or
    /// `NotADirectory` refuses an occupied destination with the error the
    /// client gets; `Unavailable` refuses because the participant is
    /// migrating one of the touched shards away.
    TxnPrepare {
        /// Transaction id.
        txn_id: u64,
        /// Mutations this participant must apply at commit.
        ops: Vec<TxnOp>,
    },
    /// Commit or abort decision. The participant answers [`Reply::Done`]
    /// once the decision is fully applied, and drops a commit copy that
    /// races a still-running apply; the coordinator retransmits the
    /// decision until the answer arrives, so a committed rename is visible
    /// on every participant before the client sees `Done`, and an aborted
    /// transaction never strands prepared state.
    TxnDecision {
        /// Transaction id.
        txn_id: u64,
        /// True for commit.
        commit: bool,
    },
    /// Recovery-time decision query (§5.4.2): a participant that crashed
    /// between prepare and decision asks the transaction's coordinator what
    /// became of it. The coordinator durably logs commit decisions before
    /// broadcasting them, so the answer is authoritative; a transaction the
    /// coordinator has no commit record of is presumed aborted.
    /// Answered with [`Reply::Decision`].
    TxnDecisionQuery {
        /// Transaction id being queried.
        txn_id: u64,
    },
    /// Retracts an invalidation-list entry: sent to every other server when
    /// an `rmdir` that already announced the directory's removal (through
    /// the aggregation multicast) fails its emptiness check and therefore
    /// does not remove the directory after all. Answered with
    /// [`Reply::Done`] once the retraction is durable, and retransmitted
    /// until then: a server that missed it would reject everything under
    /// the directory as stale for good.
    InvalidationRevoke {
        /// Id of the directory whose invalidation is retracted.
        dir_id: DirId,
    },
    /// A dirty-set operation sent to the software tracker of the
    /// fingerprint — the dedicated coordinator or the directory's owner
    /// (§7.3.3) — instead of to the switch. Answered with [`Reply::Dirty`].
    DirtySet {
        /// The operation.
        op: DirtySetOp,
        /// Fingerprint of the directory.
        fp: Fingerprint,
    },
    /// Baseline (P/C grouping) `mkdir`: initialize the new directory's
    /// content replica on its content server (the server that will hold the
    /// directory's entry list and its children's inodes). Answered with
    /// [`Reply::Done`].
    InitDirContent {
        /// Key under which the content replica is stored.
        key: MetaKey,
        /// Attributes of the new directory, its id among them.
        attrs: InodeAttrs,
    },
    /// Baseline (P/C grouping) `rmdir`: delete the removed directory's
    /// access replica on the server its name is reached at. Answered with
    /// [`Reply::Done`].
    DeleteAccessReplica {
        /// Key under which the access replica is stored.
        key: MetaKey,
    },
    /// Asks the receiver whether it stores an inode under `key` and of what
    /// type. Used by the `delete` path under per-file-hash placement: the
    /// file owner does not store directory inodes, so an unlink of a
    /// directory must probe the fingerprint-group owner to distinguish
    /// `IsADirectory` from `NotFound` (POSIX `EISDIR` vs `ENOENT`).
    /// Answered with [`Reply::Type`].
    TypeProbe {
        /// Key to probe.
        key: MetaKey,
    },
    /// Live shard migration (scale-out): the stream of one frozen shard's
    /// state from its current owner to the new owner. The source retransmits
    /// until the target's [`Reply::Done`] arrives — the target applied and
    /// durably logged the shard's state; installation is idempotent, so
    /// duplicates are harmless, and a copy racing the still-running first
    /// one is dropped. Only after that acknowledgment does the cluster flip
    /// the shard in the epoch-versioned map and the source delete its copy.
    ShardInstall {
        /// The shard being migrated.
        shard: u32,
        /// Everything the source stores for the shard.
        image: StateImage,
    },
}

/// What a [`ServerMsg::Reply`] answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Reply {
    /// The request was carried out, or failed with the error: the answer to
    /// [`Request::RemoteDirUpdate`], an overflowed [`ServerMsg::AsyncCommit`]
    /// (under its `op_token`), [`Request::DeleteAccessReplica`],
    /// [`Request::InitDirContent`], [`Request::InvalidationRevoke`],
    /// [`Request::ShardInstall`], [`Request::TxnDecision`] and a
    /// participant's vote on a [`Request::TxnPrepare`].
    Done(Result<(), FsError>),
    /// The answer to a [`Request::TxnDecisionQuery`]: `Some(true)` committed,
    /// `Some(false)` aborted (or presumed aborted), `None` still in the
    /// voting phase — the participant must keep its prepared state and ask
    /// again.
    Decision(Option<bool>),
    /// The answer to a [`Request::TypeProbe`]: the type of the inode stored
    /// under the probed key, if any.
    Type(Option<FileType>),
    /// The answer to a [`Request::DirtySet`]: what the operation returned.
    Dirty(DirtyRet),
}

/// What a server stores, or one shard's slice of it: what a shard stream
/// carries to the shard's new owner and what a checkpoint keeps of the whole
/// server.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateImage {
    /// Inodes.
    pub inodes: Vec<(MetaKey, InodeAttrs)>,
    /// Directory entry lists.
    pub entries: Vec<(DirId, DirEntry)>,
    /// Owner-index entries (directory id → key).
    pub dir_index: Vec<(DirId, MetaKey)>,
    /// Pending change-log entries, with their directories' keys (an
    /// entry names its directory's id).
    pub pending: Vec<(MetaKey, Rc<ChangeLogEntry>)>,
    /// Duplicate-suppression set of already-applied remote change-log
    /// entries not yet confirmed discarded by their holders (copied, not
    /// moved, with a shard: a superset is always safe). Bounded by the
    /// in-flight confirmation window.
    pub applied_entry_ids: Vec<OpId>,
    /// The bounded FIFO of recently retired (holder-confirmed) entry ids, in
    /// insertion order so that the receiver evicts in the same order — and a
    /// duplicate delayed across a flip is still suppressed at the new owner.
    pub retired_entry_ids: Vec<OpId>,
    /// Cached responses of completed mutating operations (copied with a
    /// shard so a retransmission that lands on the new owner after the flip
    /// still gets the original answer). Bounded by the per-client acked
    /// watermark.
    pub completed: Vec<ClientResponse>,
}

/// A single mutation inside a two-phase-commit transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnOp {
    /// Insert or overwrite an inode.
    PutInode {
        /// Inode key.
        key: MetaKey,
        /// New attributes.
        attrs: InodeAttrs,
    },
    /// Delete an inode.
    DeleteInode {
        /// Inode key.
        key: MetaKey,
    },
    /// Apply a directory update (entry insert/remove plus attribute deltas).
    DirUpdate {
        /// Directory key.
        dir_key: MetaKey,
        /// The update.
        entry: Rc<ChangeLogEntry>,
    },
    /// Install a renamed directory's content at its (possibly new) owner:
    /// re-point the id → key owner index at the new key and store the
    /// migrated entry list. `entries` is empty when only the index moves
    /// (grouping policies place content by the stable directory id).
    PutDirContent {
        /// The directory's new `(pid, name)` key.
        key: MetaKey,
        /// The directory's stable id.
        dir: DirId,
        /// Migrated entry list (empty when the content owner is unchanged).
        entries: Vec<DirEntry>,
    },
    /// Drop a renamed directory's content from its old owner after the new
    /// owner installed it.
    DeleteDirContent {
        /// The directory's stable id.
        dir: DirId,
        /// Names of the entries to drop.
        names: Vec<Name>,
    },
}

/// The body of a SwitchFS packet. Only end hosts interpret it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Body {
    /// A client request. Shared (`Rc`) because the sender keeps a copy for
    /// retransmission: cloning the packet must not deep-copy the request.
    Request(Rc<ClientRequest>),
    /// A response to a client.
    Response(ClientResponse),
    /// A server-to-server protocol message (the dedicated coordinator
    /// answers [`Request::DirtySet`] with a [`ServerMsg::Reply`] too).
    Server(ServerMsg),
    /// No body: the packet exists only for its dirty-set operation header.
    Empty,
}

/// One SwitchFS UDP datagram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetMsg {
    /// The client's packet sequence on a request (duplicate detection);
    /// the default on every other packet.
    pub pkt_seq: PacketSeq,
    /// Optional dirty-set operation header, parsed by the switch.
    pub dirty: Option<DirtySetHeader>,
    /// Optional causal-trace id: which client operation this packet belongs
    /// to. Opaque to the switch, consumed only by the observability layer;
    /// absent frames are byte-identical to the pre-tracing wire format.
    pub trace: Option<TraceId>,
    /// Payload, opaque to the switch.
    pub body: Body,
}

impl NetMsg {
    /// Builds a plain packet (no dirty-set header).
    pub fn plain(pkt_seq: PacketSeq, body: Body) -> NetMsg {
        NetMsg {
            pkt_seq,
            dirty: None,
            trace: None,
            body,
        }
    }

    /// Builds a packet carrying a dirty-set operation header.
    pub fn with_dirty(pkt_seq: PacketSeq, dirty: DirtySetHeader, body: Body) -> NetMsg {
        NetMsg {
            pkt_seq,
            dirty: Some(dirty),
            trace: None,
            body,
        }
    }

    /// Stamps a causal-trace id on the packet (builder style).
    pub fn traced(mut self, trace: TraceId) -> NetMsg {
        self.trace = Some(trace);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn key(name: &str) -> MetaKey {
        MetaKey::new(DirId::ROOT, name)
    }

    #[test]
    fn metaop_classification() {
        assert!(MetaOp::Create {
            key: key("a"),
            perm: Permissions::default()
        }
        .is_double_inode());
        assert!(MetaOp::Rmdir { key: key("d") }.is_double_inode());
        assert!(!MetaOp::Stat { key: key("a") }.is_double_inode());
        assert!(MetaOp::Statdir { key: key("d") }.is_dir_read());
        assert!(MetaOp::Readdir { key: key("d") }.is_dir_read());
        assert!(!MetaOp::Open { key: key("f") }.is_dir_read());
        assert_eq!(MetaOp::Delete { key: key("a") }.name(), "delete");
    }

    #[test]
    fn primary_key_of_rename_is_source() {
        let op = MetaOp::Rename {
            src: key("a"),
            dst: key("b"),
            dst_parent: None,
        };
        assert_eq!(op.primary_key().name, "a");
    }

    #[test]
    fn op_result_helpers() {
        assert!(OpResult::Done.is_ok());
        assert!(!OpResult::Err(FsError::NotFound).is_ok());
        assert_eq!(
            OpResult::Err(FsError::NotEmpty).err(),
            Some(FsError::NotEmpty)
        );
        assert_eq!(OpResult::Done.err(), None);
    }

    #[test]
    fn packets_stay_one_small_allocation() {
        // Every packet in flight is one `NetMsg`-sized allocation, so a
        // variant that outgrows `AsyncCommit` (the widest) shows up in
        // every workload's bytes allocated per operation.
        assert!(std::mem::size_of::<ServerMsg>() <= 296);
        assert!(std::mem::size_of::<NetMsg>() <= 368);
    }

    #[test]
    fn client_request_roundtrips_through_serde() {
        let req = ClientRequest {
            op_id: OpId {
                client: ClientId(3),
                seq: 9,
            },
            op: MetaOp::Create {
                key: key("file"),
                perm: Permissions::default(),
            },
            ancestors: vec![DirId::ROOT],
            parent: None,
            epoch: 3,
            acked_below: 8,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: ClientRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }
}
