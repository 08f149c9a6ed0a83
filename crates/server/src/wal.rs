//! Durable server state: the WAL record format and the crash-surviving
//! state bundle.
//!
//! §5.4.2: a server keeps its key-value store, change-logs and invalidation
//! list in DRAM and recovers them from the write-ahead log after a crash.
//! [`DurableState`] is the part a server keeps across a simulated crash
//! ([`crate::server::Server::durable`]); everything else is rebuilt by
//! [`crate::server::Server::recover`]. A record is a [`WalOp`], an enum of
//! four kinds; what each kind does to the volatile state is written once, in
//! `Server::apply_record`.

use std::rc::Rc;

use switchfs_kvstore::Wal;
use switchfs_proto::message::{ClientResponse, StateImage, TxnOp};
use switchfs_proto::{ChangeLogEntry, DirEntry, DirId, InodeAttrs, MetaKey, Name, OpId, ServerId};

/// One mutation against the volatile key-value stores, replayable during
/// recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvEffect {
    /// Insert or overwrite an inode.
    PutInode(MetaKey, InodeAttrs),
    /// Remove an inode.
    DeleteInode(MetaKey),
    /// Insert or overwrite a directory entry.
    PutEntry(DirId, DirEntry),
    /// Remove a directory entry.
    DeleteEntry(DirId, Name),
    /// Register a directory this server owns (id → key index).
    IndexDir(DirId, MetaKey),
    /// Remove a directory from the owner index.
    UnindexDir(DirId),
    /// Append a directory to the invalidation list (§5.2.3).
    Invalidate(DirId),
    /// Take a directory off the invalidation list again: its `rmdir` was
    /// refused after the removal had been announced.
    Revoke(DirId),
}

/// A durable two-phase-commit marker (§5.4.2): the record that makes a
/// participant's prepared state and a coordinator's commit decision survive
/// a crash, so recovery can resolve in-doubt transactions instead of
/// silently dropping them (the volatile-prepare hole the chaos checker
/// exposes as namespace divergence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnMarker {
    /// This server staged a transaction's mutations: a participant logs it
    /// before voting yes, and the coordinator logs its own local half just
    /// before the commit decision. A `Prepared` with no later [`TxnMarker::Resolved`]
    /// is an in-doubt transaction that recovery must resolve — by the
    /// durable decision for self-coordinated transactions, or by a
    /// [`switchfs_proto::message::Request::TxnDecisionQuery`] to the
    /// coordinator otherwise.
    Prepared {
        /// Transaction id.
        txn_id: u64,
        /// The coordinating server to query after a crash.
        coordinator: ServerId,
        /// The staged mutations, replayed into the prepared-transaction
        /// table.
        ops: Vec<TxnOp>,
    },
    /// The coordinator's durable commit decision, logged *before* the local
    /// apply and the decision broadcast — the transaction's commit point.
    /// Rebuilt into the coordinator's transaction table so it answers
    /// recovery-time decision queries authoritatively. There is no abort
    /// record: a transaction without a `Decided` is presumed aborted.
    Decided {
        /// Transaction id.
        txn_id: u64,
    },
    /// The staged mutations of `txn_id` were fully applied (commit) or
    /// dropped (abort) on this server; clears the matching
    /// [`TxnMarker::Prepared`] so recovery does not re-resolve it.
    Resolved {
        /// Transaction id.
        txn_id: u64,
    },
    /// Every participant acknowledged the decision of `txn_id`: nobody can
    /// ever query it again, so the coordinator drops its decision-table
    /// entry (bounding the table — and with it checkpoint size — by the
    /// in-flight window instead of the server's lifetime). A transaction
    /// with an unacknowledged participant is retained forever: that
    /// participant may still recover and ask.
    Forgotten {
        /// Transaction id.
        txn_id: u64,
    },
}

/// A durable shard-migration transition, following the [`TxnMarker`]
/// pattern: a `Started` with no later `Completed` is an interrupted
/// migration that recovery resolves against the cluster's current shard map
/// — if the shard already flipped to the target, the replayed local copy is
/// stale and must be dropped; if not, the source still owns the shard and
/// the cluster re-drives the migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationMarker {
    /// The source froze `shard` and began streaming it to its new owner.
    Started {
        /// The migrating shard.
        shard: u32,
    },
    /// The shard's state was installed at the target, the map flipped, and
    /// the source deleted its copy.
    Completed {
        /// The migrated shard.
        shard: u32,
    },
}

/// One WAL record. Four kinds, and for each exactly one meaning:
/// `Server::apply_record` is the only function that turns a
/// record into volatile state, on the live path right after the record's
/// flush and again at recovery replay (`docs/persist-order.md` tabulates who
/// appends each kind and what must be flushed before what escapes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// The committed effects of an operation plus, for double-inode
    /// operations, the change-log entry that still has to reach the parent
    /// directory's owner.
    Effects {
        /// Id of the client operation (if the record stems from one).
        op_id: Option<OpId>,
        /// Mutations applied to this server's volatile stores.
        effects: Vec<KvEffect>,
        /// A deferred update to a (usually remote) parent directory:
        /// `(parent directory key, entry)`; the entry names the directory's
        /// id. The WAL record is marked *applied* once the entry has been
        /// applied by the directory owner, so recovery knows whether to
        /// rebuild it into the change-log. The entry is the one the
        /// change-log holds, shared.
        pending_entry: Option<(MetaKey, Rc<ChangeLogEntry>)>,
        /// Ids of remote change-log entries this record applied (aggregation
        /// / push on the directory-owner side); rebuilds the duplicate
        /// suppression set during recovery.
        applied_entry_ids: Vec<OpId>,
    },
    /// A durable 2PC state transition.
    Txn(TxnMarker),
    /// A mutating operation's response, persisted so the duplicate-
    /// suppression cache survives a crash: a client that never received the
    /// reply retransmits after recovery and must get the original result
    /// back, not a re-execution (which would answer its own `create` with
    /// `Exists`). Modeled as piggybacked on the operation's WAL append
    /// (group commit), so it adds no extra simulated latency.
    Completed(ClientResponse),
    /// A durable shard-migration transition.
    Migration(MigrationMarker),
}

impl From<TxnMarker> for WalOp {
    fn from(marker: TxnMarker) -> Self {
        WalOp::Txn(marker)
    }
}

impl From<MigrationMarker> for WalOp {
    fn from(marker: MigrationMarker) -> Self {
        WalOp::Migration(marker)
    }
}

impl WalOp {
    /// A record with only local effects.
    pub fn local(op_id: Option<OpId>, effects: Vec<KvEffect>) -> Self {
        WalOp::Effects {
            op_id,
            effects,
            pending_entry: None,
            applied_entry_ids: Vec::new(),
        }
    }

    /// Estimated persistent size, used for WAL byte accounting.
    pub fn wire_size(&self) -> u64 {
        64 + match self {
            WalOp::Effects {
                effects,
                pending_entry,
                applied_entry_ids,
                ..
            } => {
                let entry = pending_entry.as_ref().map_or(0, |(_, e)| e.wire_size());
                effects.len() as u64 * 96 + entry as u64 + applied_entry_ids.len() as u64 * 12
            }
            WalOp::Txn(TxnMarker::Prepared { ops, .. }) => 24 + ops.len() as u64 * 96,
            WalOp::Txn(_) | WalOp::Migration(_) => 16,
            WalOp::Completed(_) => 48,
        }
    }
}

/// The state that survives a simulated server crash: the WAL, and the
/// last checkpoint with the LSN it covers. A new server has an empty log and
/// no checkpoint (`Default`); [`crate::server::Server::checkpoint`] stores
/// one and truncates the log through its LSN.
#[derive(Debug, Clone, Default)]
pub struct DurableState {
    /// The write-ahead log.
    pub wal: Wal<WalOp>,
    /// The last checkpoint and its LSN: replay starts after it (the
    /// extension §7.7 discusses).
    pub checkpoint: Option<(u64, CheckpointData)>,
}

/// Snapshot stored by a checkpoint: the fully materialized volatile state as
/// of a WAL LSN.
#[derive(Debug, Clone, Default)]
pub struct CheckpointData {
    /// Everything a shard stream would carry, for all shards at once, in the
    /// order the stores iterate: a reload puts objects back in that order.
    /// Its pending entries, applied and retired ids and cached responses are
    /// bounded by the in-flight windows, so the snapshot stays small.
    pub image: StateImage,
    /// The invalidation list.
    pub invalidation: Vec<DirId>,
    /// The in-doubt prepared transactions and this server's commit decisions
    /// as a rename coordinator, as the `Prepared` / `Decided` markers that
    /// rebuild them: both are durable (§5.4.2), so a checkpoint must carry
    /// them across WAL truncation.
    pub txns: Vec<TxnMarker>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::{ChangeOp, ClientId, FileType, Permissions};

    fn sample_entry() -> Rc<ChangeLogEntry> {
        Rc::new(ChangeLogEntry {
            entry_id: OpId {
                client: ClientId(1),
                seq: 1,
            },
            dir: DirId::ROOT,
            name: "f".into(),
            op: ChangeOp::Insert {
                file_type: FileType::File,
                mode: 0o644,
            },
            timestamp: 1,
            size_delta: 1,
        })
    }

    #[test]
    fn wal_records_survive_and_mark_applied() {
        let mut durable = DurableState::default();
        let key = MetaKey::new(DirId::ROOT, "f");
        let attrs = InodeAttrs::new_file(DirId::ROOT, 0, Permissions::default());
        let record = WalOp::Effects {
            op_id: Some(OpId {
                client: ClientId(1),
                seq: 1,
            }),
            effects: vec![KvEffect::PutInode(key.clone(), attrs)],
            pending_entry: Some((MetaKey::new(DirId::ROOT, ""), sample_entry())),
            applied_entry_ids: vec![],
        };
        let size = record.wire_size();
        durable.wal.append_sized(record, size);
        assert_eq!(durable.wal.unapplied().count(), 1);
        let pending = |r: &WalOp| {
            matches!(
                r,
                WalOp::Effects {
                    pending_entry: Some(_),
                    ..
                }
            )
        };
        assert_eq!(durable.wal.mark_applied_where(1, pending), 1);
        assert_eq!(durable.wal.unapplied().count(), 0);
    }

    #[test]
    fn wire_size_scales_with_contents() {
        let small = WalOp::local(None, vec![]);
        let big = WalOp::Effects {
            op_id: None,
            effects: vec![KvEffect::DeleteInode(MetaKey::new(DirId::ROOT, "x")); 4],
            pending_entry: Some((MetaKey::new(DirId::ROOT, ""), sample_entry())),
            applied_entry_ids: vec![OpId::default(); 3],
        };
        assert!(big.wire_size() > small.wire_size());
        // The parts add up as they did when a record had every field.
        assert_eq!(small.wire_size(), 64);
        assert_eq!(
            big.wire_size(),
            64 + 4 * 96 + sample_entry().wire_size() as u64 + 3 * 12
        );
        let prepared = WalOp::Txn(TxnMarker::Prepared {
            txn_id: 1,
            coordinator: ServerId(0),
            ops: vec![
                switchfs_proto::message::TxnOp::DeleteInode {
                    key: MetaKey::new(DirId::ROOT, "x")
                };
                2
            ],
        });
        let decided = WalOp::Txn(TxnMarker::Decided { txn_id: 1 });
        assert!(prepared.wire_size() > decided.wire_size());
        assert_eq!(prepared.wire_size(), 64 + 24 + 2 * 96);
        let started = MigrationMarker::Started { shard: 1 };
        assert_eq!(decided.wire_size(), 64 + 16);
        assert_eq!(WalOp::Migration(started).wire_size(), 64 + 16);
        let response = ClientResponse {
            op_id: OpId::default(),
            result: switchfs_proto::OpResult::Done,
        };
        assert_eq!(WalOp::Completed(response).wire_size(), 64 + 48);
    }

    #[test]
    fn checkpoint_stores_snapshot() {
        let mut durable = DurableState::default();
        let record = WalOp::local(None, vec![]);
        let size = record.wire_size();
        durable.wal.append_sized(record, size);
        durable.checkpoint = Some((1, CheckpointData::default()));
        assert_eq!(durable.checkpoint.map(|(lsn, _)| lsn), Some(1));
    }
}
