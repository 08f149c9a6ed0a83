//! `rename`: the one operation SwitchFS executes with distributed
//! transactions (§5.2).
//!
//! Rename can touch up to four inodes (source, destination, and both parent
//! directories). The server owning the source acts as the transaction
//! coordinator: it aggregates the source directory first when the source is
//! itself a directory, performs an orphaned-loop check, then drives a
//! two-phase commit whose participants are the destination inode's owner and
//! both parent directories' owners.

use std::collections::BTreeMap;

use switchfs_obs::EventKind;
use switchfs_proto::message::{Body, ClientRequest, MetaOp, Reply, Request, ServerMsg, TxnOp};
use switchfs_proto::{
    ChangeLogEntry, ChangeOp, FileType, Fingerprint, FsError, MetaKey, OpResult, Placement, Retry,
    ServerId, TraceId,
};
use switchfs_simnet::{NodeId, SimTime};

use crate::server::migrate::{txn_op_hashes, Admit};
use crate::server::ops::DirUpdateSource;
use crate::server::{Server, ACK};
use crate::wal::{KvEffect, TxnMarker, WalOp};

/// A prepared-but-undecided transaction on a participant. Mirrored by a WAL
/// `TxnMarker::Prepared` record, so the staged state survives a crash; the
/// `coordinator` field is what the recovery-time decision query (§5.4.2)
/// asks.
pub(crate) struct PreparedTxn {
    /// The staged mutations, applied when the commit decision arrives.
    pub ops: Vec<TxnOp>,
    /// The coordinating server, queried when the decision is lost.
    pub coordinator: ServerId,
    /// When the transaction was staged; drives the background sweep that
    /// resolves transactions whose decision packets were all lost.
    pub prepared_at: SimTime,
    /// A decision query for it is running (recovery or the background
    /// sweep); a second resolution stays out. Volatile: replay stages the
    /// transaction unresolved.
    pub resolving: bool,
}

/// A transaction this server coordinates, as the decision query sees it.
/// The coordinator logs only a commit (presumed abort): an aborted or
/// forgotten transaction has no entry.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoordinatorTxn {
    /// Still collecting votes (volatile): a query is told to ask again.
    Voting,
    /// The `Decided` record is durable: the rename committed.
    Committed,
}

impl Server {
    /// Handles a `rename` request as the transaction coordinator. Returns
    /// `None` when the request was re-routed to the real coordinator (which
    /// replies to the client directly); `Some(result)` otherwise.
    pub(crate) async fn handle_rename(
        &self,
        client_node: switchfs_simnet::NodeId,
        req: &std::rc::Rc<ClientRequest>,
    ) -> Option<OpResult> {
        let costs = self.cfg.costs;
        self.cpu.run(costs.request_overhead()).await;
        if self.is_stale(&req.ancestors) {
            return Some(OpResult::Err(FsError::StaleCache));
        }
        // LibFs sends both parents, the root's for a top-level name; only
        // the root itself has none, and it cannot be renamed.
        let (
            MetaOp::Rename {
                src,
                dst,
                dst_parent: Some(dst_parent),
            },
            Some(src_parent),
        ) = (&req.op, &req.parent)
        else {
            return Some(OpResult::Err(FsError::NotFound));
        };
        // Cold-cache routing fold (the client never probes the source's
        // type): under separation a directory's inode lives with its
        // fingerprint group, not at the per-file-hash owner the client
        // defaults to. If the source is not stored here, hand the request to
        // the server a directory of that name is reached at — it either
        // coordinates the directory rename or authoritatively answers
        // NotFound. Under grouping that server is this one (files and
        // directories share the parent's children server): nothing to forward.
        if !self.inner.borrow().dirs.contains(src) {
            let placement = &self.cfg.placement;
            let access_owner = placement.dir_access_owner(src);
            if access_owner != self.cfg.id {
                self.send_plain(
                    self.cfg.node_of(access_owner),
                    Body::Server(ServerMsg::ForwardedRequest {
                        client_node: client_node.0,
                        req: req.clone(),
                    }),
                );
                return None;
            }
            // A stale map sent the file route here because this server was
            // the source's file owner before its shard moved; the access
            // owner's clause let it through. Only the current file owner
            // may say a file is missing.
            if req.epoch != placement.map().epoch() && placement.file_owner(src) != self.cfg.id {
                self.reject_wrong_owner(client_node, req);
                return None;
            }
        }
        // Destination conflict pre-check for the placement that scatters a
        // key's file and directory inodes across different servers
        // (separation): the 2PC participants only validate the stores
        // they own, so an existing inode of the *other* kind must be probed
        // explicitly — one typed probe RTT, replacing the two advisory
        // `stat`/`statdir` probes the client used to pay on every rename.
        // Runs BEFORE the source lock, like the client probes did: holding
        // the hot source lock across a round-trip would serialize
        // conflict-heavy rename bursts. The race this leaves open (a
        // conflicting inode appearing between probe and commit) is the same
        // one the client-side probes had.
        if src != dst && self.cfg.placement.is_separation() {
            let src_is_dir = self
                .inner
                .borrow()
                .dirs
                .peek(src)
                .is_some_and(|a| a.is_dir());
            if src_is_dir {
                // A directory may not land on an existing file (the file
                // inode lives at the per-file-hash owner, which the
                // dir-routed transaction never consults).
                let file_owner = self.cfg.placement.file_owner(dst);
                if self.probe_inode_type(file_owner, dst).await == Some(FileType::File) {
                    return Some(OpResult::Err(FsError::NotADirectory));
                }
            } else if self.probe_is_directory(dst).await {
                // A file may not overwrite an existing directory (the
                // directory inode lives with its fingerprint group).
                return Some(OpResult::Err(FsError::IsADirectory));
            }
        }

        // Lock the source inode for the duration of the transaction.
        let src_lock = self.locks.inode(src);
        let _src_guard = src_lock.write().await;
        self.cpu.run(costs.lock_op + costs.kv_get).await;
        let Some(mut src_attrs) = self.inner.borrow_mut().dirs.get(src) else {
            return Some(OpResult::Err(FsError::NotFound));
        };
        // POSIX: renaming a path onto itself is a successful no-op. Guarded
        // here too (not only in LibFs) because running the transaction with
        // src == dst would self-deadlock on the held source inode lock.
        if src == dst {
            return Some(OpResult::Done);
        }

        if src_attrs.is_dir() {
            // Orphaned-loop prevention: the destination path must not pass
            // through the directory being moved (§5.2).
            if req.ancestors.contains(&src_attrs.id) {
                return Some(OpResult::Err(FsError::WouldOrphan));
            }
            // Apply every delayed update to the source directory before the
            // transaction observes (and migrates) its content. Synchronous
            // systems have nothing deferred and no aggregation machinery.
            if self.cfg.update_mode.is_async() {
                let fp = Fingerprint::of_dir(&src.pid, &src.name);
                let _w = Box::pin(self.aggregated(fp)).await;
                // The aggregation just merged timestamps into the source
                // inode; re-read it so the migrated attributes are current.
                if let Some(fresh) = self.inner.borrow_mut().dirs.get(src) {
                    src_attrs = fresh;
                }
            }
        }

        // Build the per-participant mutations.
        let now = self.now_ns();
        let mut dst_attrs = src_attrs.clone();
        dst_attrs.times.ctime = now;
        let src_parent_entry = self.make_entry(req.op_id, src.pid, &src.name, ChangeOp::Remove);
        // A distinct id for the second directory update, so the two
        // deferred effects are tracked independently.
        let dst_entry_id = switchfs_proto::OpId {
            client: req.op_id.client,
            seq: req.op_id.seq | (1 << 63),
        };
        let dst_parent_entry = self.make_entry(
            dst_entry_id,
            dst.pid,
            &dst.name,
            ChangeOp::Insert {
                file_type: src_attrs.file_type,
                mode: src_attrs.perm.mode,
            },
        );

        // Participant mutation lists, grouped by owning server. Ordered so
        // prepare/decision packets go out in the same order every run — the
        // fault RNG draws per packet, so iteration order is part of the
        // deterministic schedule.
        let placement = &self.cfg.placement;
        let mut per_server: BTreeMap<ServerId, Vec<TxnOp>> = BTreeMap::new();
        // The destination inode goes where a fresh create/mkdir of `dst`
        // would have placed it.
        let dst_inode_owner = if src_attrs.is_dir() {
            placement.dir_access_owner(dst)
        } else {
            placement.file_owner(dst)
        };
        per_server
            .entry(dst_inode_owner)
            .or_default()
            .push(TxnOp::PutInode {
                key: dst.clone(),
                attrs: dst_attrs.clone(),
            });
        if src_attrs.is_dir() {
            // The directory's content (owner-index registration and, under
            // separation, the entry list keyed by its stable id) follows the
            // inode. The coordinator owns the source content replica, so it
            // can read the entries locally; under grouping content is placed
            // by the unchanged directory id and only the id → key index
            // needs re-pointing.
            let dir_id = src_attrs.id;
            let content_owner =
                placement.dir_content_owner(Fingerprint::of_dir(&dst.pid, &dst.name), &dir_id);
            let travels = placement.is_separation();
            let entries: Vec<switchfs_proto::DirEntry> = if travels {
                let inner = self.inner.borrow();
                (inner.dirs.list(&dir_id))
                    .map(|c| c.iter().cloned().collect())
                    .unwrap_or_default()
            } else {
                Vec::new()
            };
            let migrating = travels && content_owner != self.cfg.id;
            per_server
                .entry(content_owner)
                .or_default()
                .push(TxnOp::PutDirContent {
                    key: dst.clone(),
                    dir: dir_id,
                    entries: entries.clone(),
                });
            if migrating {
                per_server
                    .entry(self.cfg.id)
                    .or_default()
                    .push(TxnOp::DeleteDirContent {
                        dir: dir_id,
                        names: entries.iter().map(|e| e.name.clone()).collect(),
                    });
            }
        }
        per_server
            .entry(self.cfg.id)
            .or_default()
            .push(TxnOp::DeleteInode { key: src.clone() });
        // Parent directory updates are applied synchronously at the servers
        // owning the parents' *content* replicas: the fingerprint owner
        // under per-file hashing, the directory-id owner under the grouping
        // policies (the same placement preloading and `mkdir` use).
        for (parent, entry) in [
            (src_parent, src_parent_entry),
            (dst_parent, dst_parent_entry),
        ] {
            per_server
                .entry(placement.dir_content_owner(parent.fp, &parent.id))
                .or_default()
                .push(TxnOp::DirUpdate {
                    dir_key: parent.key.clone(),
                    entry,
                });
        }

        // The participants' destination check, on the coordinator's own
        // half: the client gets the POSIX error without having probed the
        // destination.
        if let Some(e) = per_server
            .get(&self.cfg.id)
            .and_then(|ops| self.dst_conflict(ops))
        {
            return Some(OpResult::Err(e));
        }

        // Two-phase commit. The transaction id embeds the coordinating
        // server: txn ids must be unique *cluster-wide*, not just per
        // coordinator — participants key prepared state by txn id, and two
        // coordinators concurrently using the same local counter value would
        // overwrite each other's staged ops on a shared participant (the
        // commit then applies the wrong mutations; found by the chaos
        // checker as rename updates vanishing under concurrent load).
        let txn_id = (u64::from(self.cfg.id.0) << 48) | self.next_token();
        // While the voting phase runs, decision queries for this transaction
        // answer "undecided" instead of a premature presumed-abort (a
        // crashed-and-quickly-recovered participant may ask before we
        // decide).
        self.inner
            .borrow_mut()
            .coordinated_txns
            .insert(txn_id, CoordinatorTxn::Voting);
        // The first refusal: the participant's error, or `Unavailable` for
        // a vote that never came. The remaining prepares are skipped (the
        // abort below covers every participant, prepared or not).
        let mut refusal = None;
        for (server, ops) in &per_server {
            if *server == self.cfg.id {
                continue;
            }
            // One attempt, one token per participant: the vote echoes it, so
            // a network-duplicated vote from an earlier participant cannot
            // be credited to the one currently being awaited, and a vote
            // that outlives its wait finds nothing to complete.
            let prepare = || Request::TxnPrepare {
                txn_id,
                ops: ops.clone(),
            };
            let vote = self
                .ask(self.cfg.node_of(*server), Retry::VOTE, prepare)
                .await;
            if vote != Some(ACK) {
                refusal = Some(match vote {
                    Some(Reply::Done(Err(e))) => e,
                    _ => FsError::Unavailable,
                });
                break;
            }
        }

        if let Some(e) = refusal {
            // The abort is decided: presumed-abort needs no durable record,
            // and decision queries may now answer `Some(false)`.
            self.inner.borrow_mut().coordinated_txns.remove(&txn_id);
            self.trace_event(
                Some(TraceId::of_op(req.op_id)),
                EventKind::TxnDecide {
                    txn: txn_id,
                    commit: false,
                },
            );
            // Abort with acknowledgment so no participant is left holding a
            // prepared transaction after a lost abort packet.
            let _ = self.broadcast_decision(txn_id, &per_server, false).await;
            // An occupied destination is a definitive POSIX error; anything
            // else (a frozen shard, a timeout, a crash) stays retryable.
            return Some(OpResult::Err(e));
        }

        // Commit point (§5.4.2): stage the local half durably, then log the
        // decision — once the `Decided` record is in the WAL the rename is
        // committed, whatever crashes next. A coordinator crash before this
        // record is a presumed abort; after it, recovery re-applies the
        // staged local half and participants learn the outcome from the
        // decision query.
        let mut local_ops = None;
        if let Some(ops) = per_server.get(&self.cfg.id) {
            self.log_record(TxnMarker::Prepared {
                txn_id,
                coordinator: self.cfg.id,
                ops: ops.clone(),
            })
            .await;
            // The record staged them like a participant's; the coordinator
            // is the one that decides, so it takes them straight back out —
            // what `handle_txn_decision` does when a decision arrives.
            let staged = self.inner.borrow_mut().prepared_txns.remove(&txn_id);
            local_ops = staged.map(|p| p.ops);
            self.trace_event(
                Some(TraceId::of_op(req.op_id)),
                EventKind::TxnPrepare {
                    txn: txn_id,
                    vote_commit: true,
                },
            );
        }
        self.log_record(TxnMarker::Decided { txn_id }).await;
        self.trace_event(
            Some(TraceId::of_op(req.op_id)),
            EventKind::TxnDecide {
                txn: txn_id,
                commit: true,
            },
        );

        // Apply the local mutations, then tell every participant and wait
        // for its acknowledgment (retransmitting the decision over the
        // unreliable fabric), so the rename is visible everywhere — a
        // following `statdir` must observe it — before the client sees
        // `Done` (§5.2: rename is fully synchronous).
        if let Some(ops) = &local_ops {
            self.apply_txn_ops(ops).await;
            self.log_record(TxnMarker::Resolved { txn_id }).await;
        }
        if self.broadcast_decision(txn_id, &per_server, true).await {
            // Every participant applied and acknowledged the commit: nobody
            // can query this decision again, so the record drops its
            // `coordinated_txns` entry (durably, so checkpoints/replay drop
            // it too). A participant that never acked keeps the entry alive
            // forever — it may still recover and ask.
            self.log_record(TxnMarker::Forgotten { txn_id }).await;
        }
        Some(OpResult::Done)
    }

    /// Applies a participant's transaction mutations locally.
    pub(crate) async fn apply_txn_ops(&self, ops: &[TxnOp]) {
        let costs = self.cfg.costs;
        let mut dir_updates: Vec<(MetaKey, Vec<&ChangeLogEntry>)> = Vec::new();
        for op in ops {
            match op {
                TxnOp::PutInode { key, attrs } => {
                    let lock = self.locks.inode(key);
                    let _g = lock.write().await;
                    self.cpu.run(costs.lock_op).await;
                    self.log_record(WalOp::local(
                        None,
                        vec![KvEffect::PutInode(key.clone(), attrs.clone())],
                    ))
                    .await;
                }
                TxnOp::DeleteInode { key } => {
                    self.log_record(WalOp::local(None, vec![KvEffect::DeleteInode(key.clone())]))
                        .await;
                }
                TxnOp::PutDirContent { key, dir, entries } => {
                    let lock = self.locks.inode(key);
                    let _g = lock.write().await;
                    self.cpu.run(costs.lock_op).await;
                    // Under grouping placement this server holds the
                    // directory's *content* inode replica (the one directory
                    // reads are served from) under the old key; re-key it so
                    // id-routed reads keep observing the live attrs.
                    let moved = {
                        let inner = self.inner.borrow();
                        match inner.dirs.key(dir) {
                            Some(old_key) if old_key != key => inner
                                .dirs
                                .peek(old_key)
                                .cloned()
                                .map(|attrs| (old_key.clone(), attrs)),
                            _ => None,
                        }
                    };
                    let mut effects = Vec::new();
                    if let Some((old_key, attrs)) = moved {
                        effects.push(KvEffect::DeleteInode(old_key));
                        effects.push(KvEffect::PutInode(key.clone(), attrs));
                    }
                    effects.push(KvEffect::IndexDir(*dir, key.clone()));
                    effects.extend(entries.iter().map(|e| KvEffect::PutEntry(*dir, e.clone())));
                    self.log_record(WalOp::local(None, effects)).await;
                }
                TxnOp::DeleteDirContent { dir, names } => {
                    let mut effects = vec![KvEffect::UnindexDir(*dir)];
                    effects.extend(names.iter().map(|n| KvEffect::DeleteEntry(*dir, n.clone())));
                    self.log_record(WalOp::local(None, effects)).await;
                }
                TxnOp::DirUpdate { dir_key, entry } => {
                    // Resolve the directory key: prefer the provided key, but
                    // fall back to the owner index when only the id is known.
                    let resolved = {
                        let inner = self.inner.borrow();
                        if inner.dirs.peek(dir_key).is_some() {
                            Some(dir_key.clone())
                        } else {
                            inner.dirs.key(&entry.dir).cloned()
                        }
                    };
                    if let Some(key) = resolved {
                        match dir_updates.iter_mut().find(|(k, _)| *k == key) {
                            Some((_, entries)) => entries.push(entry),
                            None => dir_updates.push((key, vec![entry])),
                        }
                    }
                }
            }
        }
        // `handle_rename` lists a participant's directory updates last, so
        // applying them here keeps their place: one call per directory, with
        // all of the rename's updates to it. A directory gone meanwhile
        // makes its updates moot.
        for (key, entries) in &dir_updates {
            let _ = self
                .apply_dir_update(key, entries, DirUpdateSource::Txn)
                .await;
        }
    }

    /// Participant side of the two-phase commit: validate and stage the
    /// mutations, then return the vote for the coordinator, the prepare's
    /// source; `None` when that is not a metadata server.
    pub(crate) async fn handle_txn_prepare(
        &self,
        src: NodeId,
        txn_id: u64,
        ops: Vec<TxnOp>,
    ) -> Option<Reply> {
        self.cpu.run(self.cfg.costs.software_path).await;
        let coordinator = self.server_id_of(src)?;
        // A network-duplicated prepare arriving after this participant
        // already committed the transaction must not re-stage it (the
        // re-staged copy would be stranded forever); just re-vote yes.
        if self.inner.borrow().committed_txns.contains(&txn_id) {
            return Some(ACK);
        }
        // Never stage mutations into a shard this server is migrating out:
        // the drain barrier only covers transactions prepared before the
        // freeze, so a prepare arriving during the stream window would
        // commit into the already-extracted slice and be stranded at the
        // old owner after the flip. Vote no — the coordinator aborts, the
        // client retries, and the retry lands after the flip.
        if self.admit(None, || ops.iter().flat_map(txn_op_hashes)) != Admit::Serve {
            return Some(Reply::Done(Err(FsError::Unavailable)));
        }
        // A refusal carries the POSIX error of the occupied destination, so
        // the coordinator rejects the client with it and the client never
        // needs its own destination probe.
        let conflict = self.dst_conflict(&ops);
        let ok = conflict.is_none();
        self.trace_event(
            None,
            EventKind::TxnPrepare {
                txn: txn_id,
                vote_commit: ok,
            },
        );
        if ok {
            // Durably stage the prepared transaction *before* voting yes: a
            // crash between this vote and the coordinator's decision leaves
            // an in-doubt transaction that recovery resolves by re-asking
            // the coordinator (simplified presumed-abort), instead of
            // silently losing the staged ops and diverging the namespace.
            // Applying the record is what stages them in `prepared_txns`.
            self.log_record(TxnMarker::Prepared {
                txn_id,
                coordinator,
                ops,
            })
            .await;
        }
        Some(Reply::Done(conflict.map_or(Ok(()), Err)))
    }

    /// The authoritative destination check: an inode overwrite is only legal
    /// for file-over-file (POSIX rename). Returns the error of the first of
    /// `ops` that would overwrite illegally: `IsADirectory` for anything
    /// landing on a directory, `NotADirectory` for a directory landing on a
    /// file.
    fn dst_conflict(&self, ops: &[TxnOp]) -> Option<FsError> {
        let inner = self.inner.borrow();
        ops.iter().find_map(|op| match op {
            TxnOp::PutInode { key, attrs } => match inner.dirs.peek(key) {
                Some(existing) if existing.is_dir() => Some(FsError::IsADirectory),
                Some(_) if attrs.is_dir() => Some(FsError::NotADirectory),
                _ => None,
            },
            _ => None,
        })
    }

    /// Participant side: the coordinator's commit/abort decision arrived.
    /// Returns whether the decision is fully applied (and therefore safe to
    /// acknowledge): true when this call applied it, when a commit was
    /// already applied by an earlier copy, or for any abort (idempotent).
    pub(crate) async fn handle_txn_decision(&self, txn_id: u64, commit: bool) -> bool {
        let prepared = self.inner.borrow_mut().prepared_txns.remove(&txn_id);
        if prepared.is_some() {
            self.trace_event(
                None,
                EventKind::TxnDecide {
                    txn: txn_id,
                    commit,
                },
            );
        }
        if !commit {
            if prepared.is_some() {
                // Clear the durable `Prepared` record so recovery does not
                // re-resolve an already-aborted transaction.
                self.log_record(TxnMarker::Resolved { txn_id }).await;
            }
            return true;
        }
        match prepared {
            Some(prepared) => {
                self.apply_txn_ops(&prepared.ops).await;
                // The staged ops are fully applied (and their effects WAL-
                // logged); mark the prepared record resolved.
                self.log_record(TxnMarker::Resolved { txn_id }).await;
                // Duplicates only arrive within the coordinator's bounded
                // retry window; cap the memory.
                self.inner.borrow_mut().committed_txns.insert(txn_id, 4096);
                true
            }
            // A duplicate: acknowledgeable only once the first copy's apply
            // has finished.
            None => self.inner.borrow().committed_txns.contains(&txn_id),
        }
    }

    /// Coordinator side of the recovery-time decision query (§5.4.2): a
    /// participant that lost the decision asks what became of `txn_id`.
    /// A transaction still in its voting phase gets "undecided" (the
    /// participant keeps its prepared state and asks again), one without a
    /// commit record is presumed aborted.
    pub(crate) async fn handle_txn_decision_query(&self, txn_id: u64) -> Reply {
        self.cpu.run(self.cfg.costs.software_path).await;
        let commit = match self.inner.borrow().coordinated_txns.get(&txn_id) {
            Some(CoordinatorTxn::Voting) => None,
            Some(CoordinatorTxn::Committed) => Some(true),
            None => Some(false),
        };
        Reply::Decision(commit)
    }

    /// Resolves one in-doubt prepared transaction: asks its coordinator for
    /// the decision (answering locally for self-coordinated transactions)
    /// and applies or drops the staged ops. Returns the decision, or `None`
    /// when the transaction could not be resolved yet (coordinator
    /// unreachable or still voting) — the prepared state is kept and the
    /// background sweep retries later.
    pub(crate) async fn resolve_prepared_txn(&self, txn_id: u64) -> Option<bool> {
        let coordinator = {
            let mut inner = self.inner.borrow_mut();
            let prepared = inner.prepared_txns.get_mut(&txn_id)?;
            if prepared.resolving {
                // Another resolution (sweep vs. recovery) is already
                // running.
                return None;
            }
            prepared.resolving = true;
            prepared.coordinator
        };
        let decision = if coordinator == self.cfg.id {
            // Self-coordinated (the coordinator crashed mid-commit): the
            // replayed `Committed` entry is authoritative, and without one
            // the crash preceded the commit point — presumed abort.
            let inner = self.inner.borrow();
            Some(inner.coordinated_txns.get(&txn_id) == Some(&CoordinatorTxn::Committed))
        } else {
            let mut decision = None;
            // "Undecided" replies are re-asked a few times; unreachable
            // coordinators exhaust the ACK retry budget of each ask.
            for _ in 0..4 {
                let query = || Request::TxnDecisionQuery { txn_id };
                match self
                    .ask(self.cfg.node_of(coordinator), Retry::ACK, query)
                    .await
                {
                    Some(Reply::Decision(Some(c))) => {
                        decision = Some(c);
                        break;
                    }
                    Some(Reply::Decision(None)) => {
                        // Still voting: back off for one decision window.
                        self.handle.sleep(self.cfg.costs.request_timeout * 4).await;
                    }
                    _ => break,
                }
            }
            decision
        };
        if let Some(commit) = decision {
            self.handle_txn_decision(txn_id, commit).await;
        }
        if let Some(prepared) = self.inner.borrow_mut().prepared_txns.get_mut(&txn_id) {
            prepared.resolving = false;
        }
        decision
    }

    /// Background sweep run from the proactive loop: resolves prepared
    /// transactions whose decision has been missing for much longer than the
    /// whole decision-retransmission window (e.g. every decision packet was
    /// lost, or the coordinator crashed mid-broadcast and the client gave
    /// up).
    pub(crate) async fn sweep_prepared_txns(&self) {
        // Far beyond the worst-case voting phase (participants × 4 timeouts)
        // so an in-flight transaction is never presumed aborted under its
        // coordinator's feet.
        let threshold = self.cfg.costs.request_timeout * 256;
        let now = self.handle.now();
        let stale: Vec<u64> = {
            let inner = self.inner.borrow();
            inner
                .prepared_txns
                .iter()
                .filter(|(_, p)| now.duration_since(p.prepared_at) >= threshold && !p.resolving)
                .map(|(id, _)| *id)
                .collect()
        };
        for txn_id in stale {
            self.resolve_prepared_txn(txn_id).await;
        }
    }

    /// The prepared transaction staging a mutation of `key` whose client may
    /// already have seen `Done`: one prepared at least the DECISION budget
    /// ago, all a coordinator spends on a participant that never
    /// acknowledges ([`Server::broadcast_decision`]), so its coordinator may
    /// have given up on this server (a partition outlived the retries) and
    /// answered. Until it is resolved, no request for `key` may be served
    /// from the state before it (§5.2: visible everywhere before `Done`).
    pub(crate) fn overdue_txn_staging(&self, key: &MetaKey) -> Option<u64> {
        let inner = self.inner.borrow();
        if inner.prepared_txns.is_empty() {
            return None;
        }
        let budget = self.cfg.costs.request_timeout * Retry::DECISION.budget();
        let now = self.handle.now();
        let stages = |op: &TxnOp| match op {
            TxnOp::PutInode { key: k, .. }
            | TxnOp::DeleteInode { key: k }
            | TxnOp::PutDirContent { key: k, .. }
            | TxnOp::DirUpdate { dir_key: k, .. } => k == key,
            TxnOp::DeleteDirContent { .. } => false,
        };
        inner
            .prepared_txns
            .iter()
            .find(|(_, p)| now.duration_since(p.prepared_at) >= budget && p.ops.iter().any(stages))
            .map(|(id, _)| *id)
    }

    /// Sends a commit/abort decision to every remote participant and waits
    /// for each acknowledgment, retransmitting over the unreliable fabric.
    /// Returns true when every participant acknowledged (nobody will ever
    /// query this transaction's decision again).
    async fn broadcast_decision(
        &self,
        txn_id: u64,
        per_server: &BTreeMap<ServerId, Vec<TxnOp>>,
        commit: bool,
    ) -> bool {
        let mut all_acked = true;
        for server in per_server.keys() {
            if *server == self.cfg.id {
                continue;
            }
            // One token per (transaction, participant), for all its copies.
            let decision = || Request::TxnDecision { txn_id, commit };
            let ack = self
                .ask(self.cfg.node_of(*server), Retry::DECISION, decision)
                .await;
            all_acked &= ack == Some(ACK);
        }
        all_acked
    }
}
