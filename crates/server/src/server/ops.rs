//! Double-inode operations: `create`, `delete`, `mkdir`, `rmdir` (§5.2.1,
//! §5.2.3) and the asynchronous-commit machinery they share.
//!
//! The *local half* of a double-inode operation runs entirely on this server:
//! it updates the target inode, persists the deferred parent-directory update
//! in the change-log and in the WAL, then marks the parent directory
//! *scattered*. The marking is an in-network dirty-set insert (the switch
//! then multicasts the completion to the client and mirrors it back so this
//! server can release its locks), or, when the set is kept in software
//! (§7.3.3), a `DirtySet` insert at the fingerprint's tracker — the dedicated
//! coordinator or the directory's owner — retransmitted until answered, after
//! which this server replies. Either way no reply leaves before the parent
//! is marked or, on overflow, updated: the operation stays in flight until
//! then, and a retransmission of it is dropped, not answered from the
//! completion cache.

use switchfs_proto::message::{
    Body, ClientRequest, ClientResponse, MetaOp, ParentRef, Reply, Request, ServerMsg, SyncFallback,
};
use switchfs_proto::{
    ChangeLogEntry, ChangeOp, DirtySetHeader, DirtySetOp, FileType, Fingerprint, FsError,
    InodeAttrs, OpResult, Placement, Retry, ServerId,
};
use switchfs_simnet::{FxHashSet, NodeId};

use crate::locks::{Access, APPENDER};
use crate::server::aggregate::PushTrigger;
use crate::server::migrate::Admit;
use crate::server::{Server, TokenReply};
use crate::wal::{KvEffect, WalOp};

/// How an asynchronous commit finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommitOutcome {
    /// The switch delivered the response to the client by multicast.
    DeliveredBySwitch,
    /// The response still has to be sent by this server: after a software
    /// tracker's insert, or after an overflow's synchronous parent update.
    NeedDirectReply,
}

/// Who hands [`Server::apply_dir_update`] its updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DirUpdateSource {
    /// This server's own handler, updating a parent it owns (baseline
    /// parent update with file and directory colocated). One update.
    Local,
    /// Another server's synchronous parent update: a `RemoteDirUpdate`, or
    /// an `AsyncCommit` the switch rewrote to this owner on overflow. The
    /// served request's software path is charged first; applied only while
    /// [`Server::admit`] lets it, and counted in `remote_updates`. One
    /// update.
    Remote,
    /// A committed rename transaction, with all of its updates to the
    /// directory — both of them when source and destination share a parent:
    /// they observe the aggregated directory, one round for the lot, and
    /// cannot be refused any more.
    Txn,
}

impl Server {
    /// Handles `create`, `delete` and `mkdir`. Returns `Some(result)` when
    /// this server must reply directly, `None` when the commit tail has
    /// already seen to the reply (the switch multicast, or a direct reply
    /// after the parent was marked or updated).
    pub(crate) async fn handle_double_inode(
        &self,
        client_node: NodeId,
        req: &ClientRequest,
    ) -> Option<OpResult> {
        let costs = self.cfg.costs;
        self.cpu.run(costs.request_overhead()).await;
        let key = req.op.primary_key().clone();
        let Some(parent) = req.parent.as_ref() else {
            return Some(OpResult::Err(FsError::NotFound));
        };
        // Locking and checking (§5.2.1): parent change-log lock as an
        // appender, then target inode write lock.
        let cl_lock = self.locks.changelog(&parent.id);
        let _cl_guard = cl_lock.acquire(self.append_access()).await;
        let inode_lock = self.locks.inode(&key);
        let _inode_guard = inode_lock.write().await;
        self.cpu.run(costs.lock_op * 2 + costs.kv_get).await;
        if self.is_stale(&req.ancestors) {
            return Some(OpResult::Err(FsError::StaleCache));
        }
        // Borrowed existence/type check: the attributes themselves are only
        // needed on paths that build new ones.
        let existing_type = self
            .inner
            .borrow_mut()
            .inodes
            .get_ref(&key)
            .map(|a| a.file_type);
        let now = self.now_ns();

        let (effects, entry, result) = match &req.op {
            MetaOp::Create { perm, .. } => {
                if existing_type.is_some() {
                    return Some(OpResult::Err(FsError::AlreadyExists));
                }
                let id = self.fresh_dir_id();
                let attrs = InodeAttrs::new_file(id, now, *perm);
                let entry = self.make_entry(
                    req.op_id,
                    parent.id,
                    &key.name,
                    ChangeOp::Insert {
                        file_type: FileType::File,
                        mode: perm.mode,
                    },
                );
                (
                    vec![KvEffect::PutInode(key.clone(), attrs.clone())],
                    entry,
                    OpResult::Attrs(attrs),
                )
            }
            MetaOp::Delete { .. } => {
                let Some(file_type) = existing_type else {
                    // Not stored here. Under per-file-hash placement a
                    // directory's inode lives with its fingerprint group on a
                    // different server, so distinguish `EISDIR` from `ENOENT`
                    // with a cross-server type probe (the grouping placements
                    // colocate the directory inode and never get here).
                    if self.probe_is_directory(&key).await {
                        return Some(OpResult::Err(FsError::IsADirectory));
                    }
                    return Some(OpResult::Err(FsError::NotFound));
                };
                if file_type == FileType::Directory {
                    return Some(OpResult::Err(FsError::IsADirectory));
                }
                let entry = self.make_entry(req.op_id, parent.id, &key.name, ChangeOp::Remove);
                (
                    vec![KvEffect::DeleteInode(key.clone())],
                    entry,
                    OpResult::Done,
                )
            }
            MetaOp::Mkdir { perm, .. } => {
                if existing_type.is_some() {
                    return Some(OpResult::Err(FsError::AlreadyExists));
                }
                let id = self.fresh_dir_id();
                // Under grouping the new directory's content replica goes by
                // this id, which the request's admission could not see: a
                // frozen shard here must not get it after its image was
                // collected. Refused before anything is written.
                if !self.cfg.placement.is_separation() {
                    let fp = Fingerprint::of_dir(&key.pid, &key.name);
                    let role = self.cfg.placement.dir_content_hash(fp, &id);
                    if self.admit(Some(role), || None) == Admit::Frozen {
                        return Some(OpResult::Err(FsError::Unavailable));
                    }
                }
                let attrs = InodeAttrs::new_dir(id, now, *perm);
                let entry = self.make_entry(
                    req.op_id,
                    parent.id,
                    &key.name,
                    ChangeOp::Insert {
                        file_type: FileType::Directory,
                        mode: perm.mode,
                    },
                );
                (
                    vec![
                        KvEffect::PutInode(key.clone(), attrs.clone()),
                        KvEffect::IndexDir(id, key.clone()),
                    ],
                    entry,
                    OpResult::Attrs(attrs),
                )
            }
            _ => return Some(OpResult::Err(FsError::NotFound)),
        };

        if self.cfg.update_mode == crate::config::UpdateMode::Synchronous {
            // Baseline path: commit the local half, then update the parent
            // directory in place (possibly across servers) before replying.
            self.log_record(WalOp::local(Some(req.op_id), effects))
                .await;
            // Under grouping a new directory's content replica is
            // registered on the server that will hold its children. Boxed: a
            // cold path, kept out of the handler's future.
            if let (MetaOp::Mkdir { .. }, OpResult::Attrs(attrs)) = (&req.op, &result) {
                if !self.cfg.placement.is_separation() {
                    let init = Request::InitDirContent {
                        key: key.clone(),
                        attrs: attrs.clone(),
                    };
                    if let Err(e) = Box::pin(self.write_replica(init)).await {
                        return Some(OpResult::Err(e));
                    }
                }
            }
            if let Err(e) = self.sync_parent_update(parent, &entry).await {
                return Some(OpResult::Err(e));
            }
            return Some(result);
        }

        self.commit_deferred(client_node, req, parent, effects, &entry, &result)
            .await;
        None
    }

    /// The commit tail of an asynchronous double-inode operation (§5.2.1
    /// steps 4–7), entered with the operation's locks held: WAL append of
    /// the local half together with the deferred parent update, change-log
    /// append, durable completion record, dirty-set update — and the reply,
    /// which the switch delivers unless the tracking mode or an overflow
    /// leaves it to this server.
    async fn commit_deferred(
        &self,
        client_node: NodeId,
        req: &ClientRequest,
        parent: &ParentRef,
        effects: Vec<KvEffect>,
        entry: &ChangeLogEntry,
        result: &OpResult,
    ) {
        // Commit: WAL append, then execute the local half (§5.2.1 step 4–5).
        self.log_record(WalOp::Effects {
            op_id: Some(req.op_id),
            effects,
            pending_entry: Some((parent.key.clone(), entry.clone())),
            applied_entry_ids: Vec::new(),
        })
        .await;
        self.append_deferred_update(parent, entry).await;

        // Dirty-set update, reply and unlocking (§5.2.1 step 6–7).
        let response = self.make_response(req.op_id, result.clone());
        self.record_completion(&req.op, &response);
        match self
            .async_commit(client_node, &response, parent, entry)
            .await
        {
            CommitOutcome::DeliveredBySwitch => {}
            CommitOutcome::NeedDirectReply => {
                self.send_plain(client_node, Body::Response(response));
            }
        }
    }

    /// Asks `owner` what type of inode (if any) it stores under `key`. The
    /// local store answers without a round-trip. Returns `None` on absence
    /// or timeout (conservative: callers treat "unknown" as "absent", which
    /// a retry can correct).
    pub(crate) async fn probe_inode_type(
        &self,
        owner: switchfs_proto::ServerId,
        key: &switchfs_proto::MetaKey,
    ) -> Option<FileType> {
        if owner == self.cfg.id {
            return self
                .inner
                .borrow_mut()
                .inodes
                .get_ref(key)
                .map(|a| a.file_type);
        }
        let req = || Request::TypeProbe { key: key.clone() };
        match self.ask(self.cfg.node_of(owner), Retry::ACK, req).await {
            Some(TokenReply::Server(Reply::Type(t))) => t,
            _ => None,
        }
    }

    /// Asks the server a directory called `key` would be reached at whether
    /// it stores a directory inode under that key. Only meaningful under
    /// separation, where file and directory inodes of the same key live on
    /// different servers; grouping colocates them and answers locally.
    pub(crate) async fn probe_is_directory(&self, key: &switchfs_proto::MetaKey) -> bool {
        if !self.cfg.placement.is_separation() {
            return false;
        }
        let dir_owner = self.cfg.placement.dir_access_owner(key);
        self.probe_inode_type(dir_owner, key).await == Some(FileType::Directory)
    }

    /// Baseline-mode parent update: apply the directory update at the
    /// parent's owner ([`Server::ask_owner`]), locally when colocated (P/C
    /// grouping) or through a synchronous RPC (P/C separation, and
    /// cross-server `mkdir`/`rmdir`).
    pub(crate) async fn sync_parent_update(
        &self,
        parent: &ParentRef,
        entry: &ChangeLogEntry,
    ) -> Result<(), FsError> {
        let owner = || self.cfg.placement.dir_content_owner(parent.fp, &parent.id);
        self.ask_owner(owner, |to| self.sync_parent_update_once(to, parent, entry))
            .await
    }

    /// The one re-routing loop of the synchronous server-to-server writes,
    /// sent by `send` once the operation's local half is applied: while the
    /// owner under the current map (`owner`) refuses with `Unavailable` (a
    /// frozen or moved shard) or a changed owner answered `NotFound` (the
    /// old one deleted its migrated copy), re-resolve and send again, after
    /// a retransmission timeout if the owner is unchanged. Surfacing either
    /// error would let the client's retry observe the half-done operation
    /// (`AlreadyExists` on its own create). Anything else, `TimedOut` for no
    /// answer among it, is the operation's result.
    pub(crate) async fn ask_owner<F: std::future::Future<Output = Result<(), FsError>>>(
        &self,
        owner: impl Fn() -> ServerId,
        mut send: impl FnMut(ServerId) -> F,
    ) -> Result<(), FsError> {
        for attempt in 0.. {
            let to = owner();
            match send(to).await {
                Err(FsError::NotFound) if attempt < 64 && owner() != to => {}
                Err(FsError::Unavailable) if attempt < 64 => {
                    if owner() == to {
                        self.handle.sleep(self.cfg.costs.request_timeout).await;
                    }
                }
                other => return other,
            }
        }
        unreachable!("the attempts are bounded")
    }

    /// Asks for a write answered with [`Reply::Done`], each copy sent to the
    /// server `to` names as it leaves: the result, or `TimedOut` when no
    /// answer came.
    async fn ask_done(
        &self,
        to: impl Fn() -> ServerId,
        req: impl Fn() -> Request,
    ) -> Result<(), FsError> {
        let req_id = self.next_token();
        let send = || {
            let msg = ServerMsg::Request { req_id, req: req() };
            self.send_plain(self.cfg.node_of(to()), Body::Server(msg));
        };
        match self.token_exchange(req_id, Retry::ACK, send).await {
            Some(TokenReply::Server(Reply::Done(result))) => result,
            _ => Err(FsError::TimedOut),
        }
    }

    async fn sync_parent_update_once(
        &self,
        owner: ServerId,
        parent: &ParentRef,
        entry: &ChangeLogEntry,
    ) -> Result<(), FsError> {
        if owner == self.cfg.id {
            self.apply_dir_update(&parent.key, &[entry], DirUpdateSource::Local)
                .await?;
            // Applier and issuer are the same server and the operation's
            // own duplicate suppression covers re-execution: retire the id
            // immediately.
            let (id, now) = (entry.entry_id, self.handle.now());
            self.inner.borrow_mut().retire_entry_ids([id], now);
            return Ok(());
        }
        let discard_confirm = self.inner.borrow_mut().take_discard_confirms(owner);
        let req = Request::RemoteDirUpdate {
            dir_key: parent.key.clone(),
            entry: entry.clone(),
            discard_confirm,
        };
        self.ask_done(|| owner, || req.clone()).await?;
        // The update is applied and this server will never retransmit it:
        // confirm so the owner can retire the id.
        let (me, now) = (self.cfg.id, self.handle.now());
        self.inner
            .borrow_mut()
            .queue_discard_confirm(me, owner, now, [entry.entry_id]);
        Ok(())
    }

    /// A replica write of a baseline `mkdir` or `rmdir` under P/C grouping
    /// ([`Request::InitDirContent`], [`Request::DeleteAccessReplica`]) at
    /// its role's owner, through [`Server::ask_owner`]: here, or by request
    /// with each copy to the owner of the moment (a decommissioned former
    /// owner answers nothing). A local write needs no gate: its request was
    /// admitted, and a migration's drain waits for it.
    async fn write_replica(&self, req: Request) -> Result<(), FsError> {
        let (role, _) = self.replica_write(&req);
        let (owner, req) = (|| self.cfg.placement.owner_of_hash(role), &req);
        self.ask_owner(owner, |to| async move {
            if to != self.cfg.id {
                return self.ask_done(owner, || req.clone()).await;
            }
            let (_, effects) = self.replica_write(req);
            self.log_record(WalOp::local(None, effects)).await;
            Ok(())
        })
        .await
    }

    /// A replica write's role, the placement hash of the replica it stores
    /// or deletes (a new directory's content, a removed one's access inode),
    /// and its effects.
    pub(crate) fn replica_write(&self, req: &Request) -> (u64, Vec<KvEffect>) {
        let placement = &self.cfg.placement;
        match req {
            Request::InitDirContent { key, attrs } => {
                let fp = Fingerprint::of_dir(&key.pid, &key.name);
                let effects = vec![
                    KvEffect::PutInode(key.clone(), attrs.clone()),
                    KvEffect::IndexDir(attrs.id, key.clone()),
                ];
                (placement.dir_content_hash(fp, &attrs.id), effects)
            }
            Request::DeleteAccessReplica { key } => {
                let effects = vec![KvEffect::DeleteInode(key.clone())];
                (placement.dir_access_hash(key), effects)
            }
            other => unreachable!("not a replica write: {other:?}"),
        }
    }

    /// Handles `rmdir` (§5.2.3): aggregate the target directory, check
    /// emptiness, then commit like the other double-inode operations.
    pub(crate) async fn handle_rmdir(
        &self,
        client_node: NodeId,
        req: &ClientRequest,
    ) -> Option<OpResult> {
        let costs = self.cfg.costs;
        self.cpu.run(costs.request_overhead()).await;
        let key = req.op.primary_key().clone();
        let Some(parent) = req.parent.as_ref() else {
            // Removing the root directory is not allowed.
            return Some(OpResult::Err(FsError::NotFound));
        };
        let target_fp = Fingerprint::of_dir(&key.pid, &key.name);
        // Lock order: parent change-log → target fingerprint group → target
        // inode.
        let cl_lock = self.locks.changelog(&parent.id);
        let _cl_guard = cl_lock.acquire(self.append_access()).await;
        let fpg_lock = self.locks.fp_group(target_fp);
        let _fpg_guard = fpg_lock.write().await;
        let inode_lock = self.locks.inode(&key);
        let _inode_guard = inode_lock.write().await;
        self.cpu.run(costs.lock_op * 3 + costs.kv_get).await;
        if self.is_stale(&req.ancestors) {
            return Some(OpResult::Err(FsError::StaleCache));
        }
        let Some(attrs) = self.inner.borrow_mut().inodes.get(&key) else {
            return Some(OpResult::Err(FsError::NotFound));
        };
        if !attrs.is_dir() {
            return Some(OpResult::Err(FsError::NotADirectory));
        }
        let dir_id = attrs.id;
        let is_async = self.cfg.update_mode.is_async();
        if is_async {
            // Collect the latest updates to the directory and have every
            // other server append it to its invalidation list (§5.2.3 steps
            // 4–7).
            self.aggregate_group(target_fp, Some(dir_id)).await;
        }

        // Emptiness check, on the aggregated state in the async modes.
        let entry_count = {
            let mut inner = self.inner.borrow_mut();
            inner.entries.get_ref(&dir_id).map_or(0, |c| c.len())
        };
        self.cpu.run(costs.kv_get).await;
        if entry_count > 0 {
            if is_async {
                // The aggregation multicast already announced the removal to
                // the other servers' invalidation lists; retract it, since
                // the directory is staying (otherwise later operations under
                // it would be rejected as stale forever), at each of them
                // before the reply. Boxed: a cold path.
                let revoke = async {
                    for server in self.cfg.other_servers() {
                        let req = || Request::InvalidationRevoke { dir_id };
                        self.ask(self.cfg.node_of(server), Retry::ACK, req).await;
                    }
                };
                Box::pin(revoke).await;
            }
            return Some(OpResult::Err(FsError::NotEmpty));
        }

        // Commit the removal.
        let effects = vec![
            KvEffect::DeleteInode(key.clone()),
            KvEffect::UnindexDir(dir_id),
            KvEffect::Invalidate(dir_id),
        ];
        if !is_async {
            return Some(self.sync_rmdir(req, &key, dir_id, parent, effects).await);
        }
        let entry = self.make_entry(req.op_id, parent.id, &key.name, ChangeOp::Remove);
        self.commit_deferred(client_node, req, parent, effects, &entry, &OpResult::Done)
            .await;
        None
    }

    /// Baseline-mode removal of an empty directory: purely synchronous, no
    /// aggregation.
    async fn sync_rmdir(
        &self,
        req: &ClientRequest,
        key: &switchfs_proto::MetaKey,
        dir_id: switchfs_proto::DirId,
        parent: &ParentRef,
        effects: Vec<KvEffect>,
    ) -> OpResult {
        self.log_record(WalOp::local(Some(req.op_id), effects))
            .await;
        self.broadcast_invalidation(dir_id);
        // Remove the access replica when the directory's children live on a
        // different server than its parent's (P/C grouping). Boxed: a cold
        // path, kept out of the handler's future.
        let placement = &self.cfg.placement;
        if !placement.is_separation() && placement.dir_access_owner(key) != self.cfg.id {
            let delete = Request::DeleteAccessReplica { key: key.clone() };
            if let Err(e) = Box::pin(self.write_replica(delete)).await {
                return OpResult::Err(e);
            }
        }
        let entry = self.make_entry(req.op_id, parent.id, &key.name, ChangeOp::Remove);
        match self.sync_parent_update(parent, &entry).await {
            Ok(()) => OpResult::Done,
            Err(e) => OpResult::Err(e),
        }
    }

    /// How a double-inode operation takes its parent's change-log lock:
    /// shared with the other appenders in the asynchronous modes (different
    /// names commute, same-name order is the inode lock's), exclusively in
    /// the synchronous baselines, whose per-directory serialization on the
    /// file's server is part of what they model.
    fn append_access(&self) -> Access {
        if self.cfg.update_mode.is_async() {
            APPENDER
        } else {
            Access::Exclusive
        }
    }

    /// Appends a committed operation's deferred parent update to the
    /// parent's change-log (§5.2.1 step 5) and pushes a batch if this append
    /// filled an MTU.
    async fn append_deferred_update(&self, parent: &ParentRef, entry: &ChangeLogEntry) {
        self.cpu.run(self.cfg.costs.changelog_append).await;
        let now = self.handle.now();
        self.inner
            .borrow_mut()
            .changelogs
            .append(&parent.key, entry.clone(), now);
        self.push_changelog(&parent.id, PushTrigger::Filled);
    }

    /// Marks the parent directory scattered and arranges for the response to
    /// reach the client: the switch delivers it after an in-network insert,
    /// this server after a software tracker's insert or after an overflow's
    /// synchronous parent update.
    ///
    /// On overflow the switch's address rewriter sends the commit to the
    /// header's alternative address, the parent's owner as of the first
    /// copy, which serves it as a `RemoteDirUpdate` under the commit's
    /// token. Its `ACK` means the update is applied there: the entry is
    /// discarded here and confirmed to that owner. A refusal (the owner's
    /// shard is frozen or moved away) or no answer at all ends in
    /// [`Server::sync_parent_update`], which re-resolves the owner.
    pub(crate) async fn async_commit(
        &self,
        client_node: NodeId,
        response: &ClientResponse,
        parent: &ParentRef,
        entry: &ChangeLogEntry,
    ) -> CommitOutcome {
        if let Some(tracker) = self.cfg.software_tracker(parent.fp) {
            // A software set never overflows: the insert only has to land.
            self.software_dirty_set(tracker, DirtySetOp::Insert, parent.fp)
                .await;
            return CommitOutcome::NeedDirectReply;
        }
        let parent_owner = self.cfg.placement.dir_owner_by_fp(parent.fp);
        let op_token = self.next_token();
        let hdr = DirtySetHeader::insert(parent.fp, self.cfg.node_of(parent_owner).0);
        // The packet is addressed to the client; the switch multicasts a
        // mirror copy back to this server when the insert succeeds. Its body
        // is built per transmission: a packet owns what it carries.
        let answer = self
            .token_exchange(op_token, Retry::ACK, || {
                let body = Body::Server(ServerMsg::AsyncCommit {
                    response: response.clone(),
                    op_token,
                    fallback: SyncFallback {
                        dir_key: parent.key.clone(),
                        entry: entry.clone(),
                    },
                });
                self.send_dirty(client_node, hdr, body)
            })
            .await;
        let applier = match answer {
            Some(TokenReply::Mirrored) => return CommitOutcome::DeliveredBySwitch,
            Some(TokenReply::ACK) => Some(parent_owner),
            // Boxed: a cold path, which would otherwise set the size of
            // every double-inode handler's future. `sync_parent_update`
            // confirms the discard to the server that applied the update; an
            // update it could not apply stays in the change-log for a push
            // or a round to carry.
            _ => match Box::pin(self.sync_parent_update(parent, entry)).await {
                Ok(()) => None,
                Err(_) => return CommitOutcome::NeedDirectReply,
            },
        };
        let id = entry.entry_id;
        self.discard_applied_entries(
            |logs| {
                let log = logs.get_mut(&parent.id);
                (log.map_or(0, |log| usize::from(log.discard_one(id))), ())
            },
            &FxHashSet::from_iter([id]),
            applier,
        );
        self.inner.borrow_mut().stats.fallback_syncs += 1;
        CommitOutcome::NeedDirectReply
    }

    /// Applies one directory's updates (one at least) synchronously to a
    /// directory this server owns: one update from the synchronous parent
    /// paths (the baselines' and an overflow's), all of a committed rename's
    /// updates to it at once. The only place that writes down the applier
    /// discipline: (for a remote update, the software path charge →)
    /// ownership gate → fp-group write lock → dedup check →
    /// inode write lock → lock and read charge → [`Server::log_record`],
    /// which charges the record's append and puts → stats. The fp-group lock
    /// excludes the batch appliers (aggregation, push), which hold it but
    /// not the inode lock; the inode lock excludes the directory's other
    /// writers (`chmod`, `rmdir`). The dedup check comes after the group
    /// lock because every applier of the group holds that lock: a copy that
    /// queued behind the one that applied its id finds the id applied.
    /// However many `entries`, that is one turn at each lock, one
    /// round for a `Txn` and one record carrying every entry and its id; so
    /// either all of them were applied before or none, and the dedup check
    /// skips the call only when all were.
    ///
    /// `Err(Unavailable)`: a remote update for a directory whose shard is
    /// frozen or gone — the sender retries against the current owner.
    /// `Err(NotFound)`: the directory inode is not here; nothing was logged.
    pub(crate) async fn apply_dir_update(
        &self,
        dir_key: &switchfs_proto::MetaKey,
        entries: &[&ChangeLogEntry],
        source: DirUpdateSource,
    ) -> Result<(), FsError> {
        let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
        if source == DirUpdateSource::Remote {
            self.cpu.run(self.cfg.costs.software_path).await;
            let role = self.cfg.placement.dir_content_hash(fp, &entries[0].dir);
            if self.admit(Some(role), || None) != Admit::Serve {
                return Err(FsError::Unavailable);
            }
        }
        let fpg = self.locks.fp_group(fp);
        let _fpg_guard = fpg.write().await;
        if entries
            .iter()
            .all(|e| self.inner.borrow().entry_already_applied(&e.entry_id))
        {
            return Ok(());
        }
        if source == DirUpdateSource::Txn && self.cfg.update_mode.is_async() {
            // The directory may hold deferred change-log entries that
            // logically precede this synchronous update (e.g. the create of
            // the entry being renamed away). Apply them first, or a later
            // aggregation would replay them over the rename's effect (§5.2:
            // rename is fully synchronous, so it must observe the
            // aggregated directory). One round of its own for all of the
            // rename's updates here, which the group's gate counts like any
            // other: the directory reads queued behind it are served by it.
            // Boxed: the aggregation machinery would otherwise set the size
            // of every caller's per-request future.
            Box::pin(self.aggregate_group(fp, None)).await;
        }
        let lock = self.locks.inode(dir_key);
        let _inode_guard = lock.write().await;
        // The costs and the directory id are read here, not held across the
        // awaits above: this future is part of every double-inode handler's.
        let costs = self.cfg.costs;
        self.cpu.run(costs.lock_op + costs.kv_get).await;
        let timestamp = entries.iter().map(|e| e.timestamp).fold(0, u64::max);
        let effects = self.dir_update_effects(
            dir_key,
            entries[0].dir,
            timestamp,
            entries.iter().map(|e| (e.name.as_str(), e.op)),
        );
        if effects.is_empty() {
            return Err(FsError::NotFound);
        }
        let ids = entries.iter().map(|e| e.entry_id).collect();
        self.log_record(WalOp::Effects {
            op_id: None,
            effects,
            pending_entry: None,
            applied_entry_ids: ids,
        })
        .await;
        if source == DirUpdateSource::Remote {
            self.inner.borrow_mut().stats.remote_updates += 1;
        }
        Ok(())
    }
}
