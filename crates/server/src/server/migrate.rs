//! Live shard migration: the mechanism behind elastic scale-out.
//!
//! The cluster's placement is an epoch-versioned map of virtual shards to
//! servers ([`switchfs_proto::ShardMap`]). Moving one shard from its owner
//! (the *source*) to a *target* runs the freeze → stream → ack → flip
//! protocol:
//!
//! 1. the source durably logs a `MigrationMarker::Started` and freezes the
//!    shard: `Server::admit`, the gate of every write, refuses what may
//!    land in it (the senders' retransmissions carry it across the window);
//! 2. the source waits for in-flight work on the shard to drain (client
//!    handlers, owner-side aggregations, prepared transactions);
//! 3. the source collects the shard's slice of its stores — inodes, entry
//!    lists, the owner index, pending change-log entries — stamps copies of
//!    the duplicate-suppression state on, and streams this
//!    [`StateImage`] to the target with ack + retransmission
//!    ([`switchfs_proto::message::Request::ShardInstall`]). The collector
//!    (`Server::collect`) is the scan a checkpoint also is;
//! 4. the target applies and durably logs the state, then acks;
//! 5. the source flips the shard in the shared map (bumping the epoch),
//!    deletes its now-stale copy (logged, so recovery agrees), logs
//!    `MigrationMarker::Completed`, and unfreezes.
//!
//! Clients keep routing with their cached map until a server rejects them
//! with `WrongOwner { map }`, at which point they refresh and retry — one
//! extra round trip per client per epoch bump, only on moved shards. The
//! same gate refuses a server's write that reaches the former owner after
//! the flip, and the sender re-resolves (`Server::ask_owner`).
//!
//! A crash between steps leaves a durable `Started` with no `Completed`;
//! recovery resolves it against the shared map (see
//! [`crate::server::recovery`]): if the shard already flipped, the replayed
//! local copy is stale and is dropped; otherwise the source still owns the
//! shard and the cluster re-drives the migration.

use std::collections::{BTreeMap, BTreeSet};

use switchfs_proto::message::{Body, Reply, Request, ServerMsg, StateImage, TxnOp};
use switchfs_proto::placement::key_hashes;
use switchfs_proto::{DirId, Fingerprint, MetaKey, OpId, Placement, Retry, ServerId};

use crate::locks::AggGate;
use crate::server::aggregate::PushTrigger;
use crate::server::{DirContent, EntryState, Server, ACK};
use crate::wal::{KvEffect, MigrationMarker, WalOp};

/// Where a shard install, keyed by source node and token, stands on its
/// target.
#[derive(Clone, Copy)]
pub(crate) enum InstallState {
    /// The first copy is still applying.
    Applying,
    /// Applied and acked.
    Applied,
}

/// What [`Server::admit`] makes of a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    /// Apply it.
    Serve,
    /// An outbound migration froze one of its shards: applied now, it could
    /// miss the shard's image and be stranded here after the flip.
    Frozen,
    /// Its role is another server's under the current map (a write in
    /// flight across a flip): the sender re-resolves the owner.
    NotMine,
}

/// Every placement hash a staged transaction mutation may land under,
/// conservatively: each routing role of its key, and the directory id it
/// names.
pub(crate) fn txn_op_hashes(op: &TxnOp) -> impl Iterator<Item = u64> {
    let (key, dir) = match op {
        TxnOp::PutInode { key, .. } | TxnOp::DeleteInode { key } => (Some(key), None),
        TxnOp::DirUpdate { dir_key, entry } => (Some(dir_key), Some(entry.dir)),
        TxnOp::PutDirContent { key, dir, .. } => (Some(key), Some(*dir)),
        TxnOp::DeleteDirContent { dir, .. } => (None, Some(*dir)),
    };
    let keys = key.map(key_hashes).into_iter().flatten();
    keys.chain(dir.map(|dir| dir.hash64()))
}

/// The effects that store an image's inodes, entry lists and owner index, in
/// that order; takes them out of the image.
pub(crate) fn store_effects(image: &mut StateImage) -> Vec<KvEffect> {
    let inodes = std::mem::take(&mut image.inodes).into_iter();
    let entries = std::mem::take(&mut image.entries).into_iter();
    let dir_index = std::mem::take(&mut image.dir_index).into_iter();
    inodes
        .map(|(key, attrs)| KvEffect::PutInode(key, attrs))
        .chain(entries.map(|(dir, entry)| KvEffect::PutEntry(dir, entry)))
        .chain(dir_index.map(|(dir, key)| KvEffect::IndexDir(dir, key)))
        .collect()
}

impl Server {
    /// What this server stores — inodes, entry lists, the owner index,
    /// pending change-log entries — in ONE pass over the directory records
    /// and one over the change-logs, each object into the image `bucket`
    /// names for the placement hash it is stored under (`None`: into none):
    /// inodes in `MetaKey` order, lists and keys in `DirId` order. A drain
    /// plan moving S shards off one donor scans the donor once instead of S
    /// times — the difference between a linear and a quadratic decommission
    /// — and a checkpoint is the same scan with one bucket. An inode whose
    /// routing roles fall into two images appears in both, exactly as two
    /// independent scans would collect it. The duplicate-suppression state
    /// is not part of the scan: see [`Server::stamp_dedup`].
    pub(crate) fn collect<K: Ord + Copy>(
        &self,
        bucket: impl Fn(u64) -> Option<K>,
    ) -> BTreeMap<K, StateImage> {
        let placement = &self.cfg.placement;
        let inner = self.inner.borrow();
        let mut out: BTreeMap<K, StateImage> = BTreeMap::new();
        for (dir, record) in inner.dirs.records() {
            for (key, attrs) in record.inodes(*dir) {
                // Once per image, also when both roles of a directory fall
                // into it.
                let mut last = None;
                let roles = placement.inode_role_hashes(&key, attrs);
                for k in roles.into_iter().filter_map(&bucket) {
                    if last.replace(k) != Some(k) {
                        let image = out.entry(k).or_default();
                        image.inodes.push((key.clone(), attrs.clone()));
                    }
                }
            }
            let (key, list) = (record.key(), record.list());
            if key.is_none() && list.is_none() {
                continue;
            }
            // Without a key the fingerprint is unknown; the list falls back
            // to the id hash, which never matches a foreign shard under
            // per-file hashing — it simply stays put.
            let h = key.map_or(dir.hash64(), |key| {
                placement.dir_content_hash(Fingerprint::of_dir(&key.pid, &key.name), dir)
            });
            let Some(k) = bucket(h) else { continue };
            let image = out.entry(k).or_default();
            let list = list.into_iter().flat_map(DirContent::iter);
            image.entries.extend(list.map(|e| (*dir, e.clone())));
            if let Some(key) = key {
                image.dir_index.push((*dir, key.clone()));
            }
        }
        for (dir, fp) in inner.changelogs.dirty_dirs() {
            let log = inner.changelogs.get(&dir);
            if let (Some(k), Some(log)) = (bucket(placement.dir_content_hash(fp, &dir)), log) {
                let pending = log.entries().map(|e| (log.dir_key.clone(), e.clone()));
                out.entry(k).or_default().pending.extend(pending);
            }
        }
        out
    }

    /// [`Server::collect`] by shard, for the shards in `shards`, each image
    /// sorted: the stream order must not depend on hash-map iteration (the
    /// change-logs' pending entries; the records come sorted).
    pub(crate) fn collect_shards(
        &self,
        shards: impl IntoIterator<Item = u32>,
    ) -> BTreeMap<u32, StateImage> {
        let shards: BTreeSet<u32> = shards.into_iter().collect();
        let mut out = self.collect(|h| {
            let shard = self.cfg.placement.map().shard_of_hash(h);
            shards.contains(&shard).then_some(shard)
        });
        for image in out.values_mut() {
            image.pending.sort_by_key(|(_, e)| (e.dir, e.entry_id));
        }
        out
    }

    /// Fills in an image's copies of the duplicate-suppression state, which
    /// ship with every shard and with a checkpoint. Deliberately
    /// re-snapshotted per migration rather than once per rebalance: under
    /// live traffic, responses cached between two shards' freezes exist only
    /// in the later snapshot, and the later shard's flip redirects exactly
    /// those clients' retransmissions to the target — a stale snapshot would
    /// let them re-execute. A superset is always safe, and the acked
    /// watermark (responses) plus the holders' discard confirmations (entry
    /// ids) keep each snapshot within the in-flight window, so the per-shard
    /// payload stays small by construction.
    pub(crate) fn stamp_dedup(&self, image: &mut StateImage) {
        let inner = self.inner.borrow();
        let ids = inner.entry_ids.iter();
        let applied = ids.filter(|(_, &state)| state == EntryState::Applied);
        image.applied_entry_ids = applied.map(|(&id, _)| id).collect();
        image.applied_entry_ids.sort_unstable();
        // The retired ids ship in retirement order so the target's eviction
        // order matches; both halves are bounded, so the payload is small.
        image.retired_entry_ids = inner.retirement_order.iter().map(|&(_, id)| id).collect();
        let caches = inner.completed_ops.values();
        image.completed = caches.flat_map(|c| c.responses.values().cloned()).collect();
        image.completed.sort_by_key(|r| r.op_id);
    }

    /// The one admission gate of the writes this server applies: requests,
    /// directory updates, pushes, ticks, prepares and replica writes ask it,
    /// each reacting its own way (an admitted handler's later local writes
    /// need none: the drain waits for them). `role` is the hash whose owner
    /// applies the write (`None`: the sender's map chose this server);
    /// `touched`, called only mid-migration, yields its other hashes.
    pub(crate) fn admit<I: IntoIterator<Item = u64>>(
        &self,
        role: Option<u64>,
        touched: impl FnOnce() -> I,
    ) -> Admit {
        let inner = self.inner.borrow();
        let map = self.cfg.placement.map();
        if !inner.migrating_shards.is_empty() {
            let frozen = |h: u64| inner.migrating_shards.contains(&map.shard_of_hash(h));
            if role.into_iter().chain(touched()).any(frozen) {
                return Admit::Frozen;
            }
        }
        match role {
            Some(h) if map.owner_of_hash(h) != self.cfg.id => Admit::NotMine,
            _ => Admit::Serve,
        }
    }

    /// True while work that predates the freeze may still touch `shard`:
    /// any client handler from the freeze-time snapshot (new ones are gated
    /// per-shard), any owner-side aggregation of a fingerprint in the
    /// shard, any prepared transaction staging mutations in it.
    fn shard_busy(&self, shard: u32, pre_freeze: &switchfs_simnet::FxHashSet<OpId>) -> bool {
        let placement = &self.cfg.placement;
        let inner = self.inner.borrow();
        if inner.in_flight_ops.iter().any(|op| pre_freeze.contains(op)) {
            return true;
        }
        if inner
            .pending_aggs
            .values()
            .any(|agg| placement.map().shard_of_hash(agg.fp.hash64()) == shard)
        {
            return true;
        }
        // Owner-side aggregations that finished collecting but are still
        // applying entries (pending_aggs empties before the apply phase).
        if inner.agg_gates.iter().any(|(raw, gate)| {
            gate.round_running()
                && placement
                    .map()
                    .shard_of_hash(Fingerprint::from_raw(*raw).hash64())
                    == shard
        }) {
            return true;
        }
        let staged = inner.prepared_txns.values().flat_map(|txn| &txn.ops);
        staged
            .flat_map(txn_op_hashes)
            .any(|h| placement.map().shard_of_hash(h) == shard)
    }

    /// Migrates a batch of shards off this server (the donor side of a
    /// decommission drain): freeze the whole batch, wait once for every
    /// pre-freeze piece of work to clear, bucket all the shards' state in a
    /// single pass over the stores (`collect_shards`), then stream
    /// each shard to its target with ack + retransmission, assigning it to
    /// the target in the shared map (`cfg.placement`) and deleting it here
    /// per shard as acks arrive. A shard whose target never acks is
    /// unfrozen with ownership unchanged (the caller may retry); if this
    /// server crashes mid-batch the remaining shards are abandoned — their
    /// durable `Started` markers resolve against the shared map on recovery.
    /// Returns the number of shards successfully migrated.
    pub async fn migrate_shards(&self, moves: &[(u32, ServerId)]) -> usize {
        if moves.is_empty() {
            return 0;
        }
        for (shard, _) in moves {
            self.log_record(MigrationMarker::Started { shard: *shard })
                .await;
            self.inner.borrow_mut().migrating_shards.insert(*shard);
            self.trace_event(
                None,
                switchfs_obs::EventKind::MigrationFreeze { shard: *shard },
            );
        }

        // Drain barrier for the whole batch: pre-freeze client handlers,
        // owner-side aggregations and prepared transactions touching any
        // frozen shard must finish (new work is gated per shard).
        let pre_freeze: switchfs_simnet::FxHashSet<OpId> =
            self.inner.borrow().in_flight_ops.iter().copied().collect();
        let step = self.cfg.costs.request_timeout / 4;
        while moves.iter().any(|(s, _)| self.shard_busy(*s, &pre_freeze)) {
            if self.is_crashed() {
                // Crashed mid-drain: recovery rebuilds a clean state (it
                // clears the freeze set) and resolves the durable `Started`
                // markers against the shared map.
                return 0;
            }
            self.handle.sleep(step).await;
        }

        // One bucketing pass over the stores for every shard of the batch.
        let mut images = self.collect_shards(moves.iter().map(|(s, _)| *s));

        let mut migrated = 0;
        for (shard, target) in moves {
            if self.is_crashed() {
                break;
            }
            // What stays behind to delete by is the stores' slice; what ships
            // is a copy of it plus the duplicate-suppression state,
            // re-snapshotted per shard: responses cached while earlier shards
            // of the batch streamed exist only in later snapshots, and a
            // superset is always safe.
            let stored = images.remove(shard).unwrap_or_default();
            let mut image = stored.clone();
            self.stamp_dedup(&mut image);
            // Stream cost: one KV read per extracted item.
            let items = stored.inodes.len() + stored.entries.len() + stored.pending.len();
            self.cpu
                .run(self.cfg.costs.kv_get * items.max(1) as u64)
                .await;

            self.trace_event(
                None,
                switchfs_obs::EventKind::MigrationStream {
                    shard: *shard,
                    inodes: stored.inodes.len() as u32,
                },
            );
            let install = Request::ShardInstall {
                shard: *shard,
                image,
            };
            let acked = self
                .ask(self.cfg.node_of(*target), Retry::ACK, || install.clone())
                .await
                == Some(ACK);
            if !acked {
                self.inner.borrow_mut().migrating_shards.remove(shard);
                continue;
            }

            // Commit point: the shard flips in the shared map; every server
            // and every subsequently-refreshed client routes to the target.
            self.cfg.placement.map_mut().assign(*shard, *target);
            self.trace_event(
                None,
                switchfs_obs::EventKind::MigrationFlip {
                    shard: *shard,
                    new_epoch: self.cfg.placement.map().epoch(),
                },
            );
            self.delete_shard_local(&stored, true).await;
            self.log_record(MigrationMarker::Completed { shard: *shard })
                .await;
            {
                let mut inner = self.inner.borrow_mut();
                inner.migrating_shards.remove(shard);
                inner.stats.shards_migrated_out += 1;
            }
            migrated += 1;
        }
        migrated
    }

    /// The deletions that remove an extracted slice of shard state, keeping
    /// any object that still has a routing role mapping to this server
    /// (grouping policies can place two replicas of one directory on one
    /// server with only one of them migrating).
    fn shard_delete_effects(&self, image: &StateImage) -> Vec<KvEffect> {
        let placement = &self.cfg.placement;
        let mut effects = Vec::new();
        for (key, attrs) in &image.inodes {
            let keep = placement
                .inode_role_hashes(key, attrs)
                .iter()
                .any(|h| placement.owner_of_hash(*h) == self.cfg.id);
            if !keep {
                effects.push(KvEffect::DeleteInode(key.clone()));
            }
        }
        for (dir, entry) in &image.entries {
            effects.push(KvEffect::DeleteEntry(*dir, entry.name.clone()));
        }
        for (dir, key) in &image.dir_index {
            let fp = Fingerprint::of_dir(&key.pid, &key.name);
            if placement.dir_content_owner(fp, dir) != self.cfg.id {
                effects.push(KvEffect::UnindexDir(*dir));
            }
        }
        effects
    }

    /// Drops the volatile change-logs of an extracted slice's directories.
    fn drop_shard_changelogs(&self, image: &StateImage) {
        let mut inner = self.inner.borrow_mut();
        let dirs: std::collections::BTreeSet<DirId> =
            image.pending.iter().map(|(_, e)| e.dir).collect();
        for dir in dirs {
            inner.changelogs.remove(&dir);
        }
    }

    /// Deletes an extracted slice of shard state
    /// ([`Server::shard_delete_effects`]). All deletions are WAL-logged, so
    /// a replay reconstructs the same purge. Used by the source after the
    /// flip, and by the target to purge the stale leftovers of a lost-ack
    /// earlier install attempt before applying a retried one.
    async fn delete_shard_local(&self, image: &StateImage, drop_changelogs: bool) {
        let effects = self.shard_delete_effects(image);
        self.log_record(WalOp::local(None, effects)).await;
        // Source side only (`drop_changelogs`): the moved pending change-log
        // entries now live (durably) at the target; drop the volatile copies
        // so this server stops pushing them. Their unapplied WAL records are
        // harmless: a later recovery rebuilds and re-pushes them, and the
        // target's copied duplicate-suppression set discards anything
        // already applied. The target's stale-purge passes `false`: its
        // change-log holds live holder-side entries, never stale state.
        if drop_changelogs {
            self.drop_shard_changelogs(image);
        }
    }

    /// Target side of the stream: applies and durably logs one shard's
    /// state, then acks. Idempotent — a retransmitted install (same source,
    /// same `req_id`) is re-acked without re-appending the pending
    /// change-log entries.
    pub(crate) async fn handle_shard_install(
        &self,
        src: switchfs_simnet::NodeId,
        req_id: u64,
        shard: u32,
        mut image: StateImage,
    ) -> Option<Reply> {
        let install_key = (src.0, req_id);
        let state = self.inner.borrow().installs.get(&install_key).copied();
        match state {
            Some(InstallState::Applied) => return Some(Reply::Done(Ok(()))),
            // A retransmission racing the still-running first copy must not
            // apply concurrently (double-appended change-log entries,
            // deletes interleaved with puts) nor be acked early (the source
            // would flip before the apply finished): drop it; the source's
            // retransmission timer re-asks until the first apply is done.
            Some(InstallState::Applying) => return None,
            None => {
                let mut inner = self.inner.borrow_mut();
                inner.installs.insert(install_key, InstallState::Applying);
            }
        }
        // A *retried* migration (the previous attempt's ack was lost, the
        // source kept serving and mutating the shard, and is now streaming
        // a fresh copy under a new token) must not overlay the stale first
        // copy: anything deleted at the source in between would be
        // resurrected here. Purge local shard-s state first — a no-op on
        // the common fresh-target path. The purge must NOT touch this
        // server's change-logs: entries held here for the incoming shard's
        // directories are *live holder-side* deferred updates (the target
        // of a decommission drain is a loaded survivor, not a fresh node),
        // and dropping them would lose directory updates forever — the
        // pending-append below dedups against them by entry id instead.
        let stale = self
            .collect_shards([shard])
            .remove(&shard)
            .unwrap_or_default();
        if stale != StateImage::default() {
            self.delete_shard_local(&stale, false).await;
        }
        // Freshness merge: a directory inode has two routing roles under
        // the grouping policies (access replica by parent hash, content
        // replica by its own id hash), so a decommission draining both
        // role shards off one donor can deliver the *stale* access-role
        // snapshot after this server's content-role copy already
        // absorbed post-flip updates — blindly overwriting would roll
        // its times and mode back. Keep whichever copy
        // changed last (ties take the incoming copy, which keeps
        // retransmitted installs idempotent).
        image.inodes.retain(|(key, attrs)| {
            let local = self.inner.borrow().dirs.peek(key).map(|a| a.times.ctime);
            local.is_none_or(|local| local <= attrs.times.ctime)
        });
        let effects = store_effects(&mut image);
        self.log_record(WalOp::Effects {
            op_id: None,
            effects,
            pending_entry: None,
            applied_entry_ids: image.applied_entry_ids,
        })
        .await;
        for (key, entry) in image.pending {
            // Idempotent append: a lost-ack earlier install (or this
            // server's own holder-side change-log) may already carry the
            // entry — a second copy in one batch would pass the owner's
            // id filter with the first and be applied twice.
            let dup = self
                .inner
                .borrow()
                .changelogs
                .get(&entry.dir)
                .is_some_and(|log| log.entries().any(|e| e.entry_id == entry.entry_id));
            if dup {
                continue;
            }
            let now = self.handle.now();
            self.inner
                .borrow_mut()
                .changelogs
                .append(&key, entry.clone(), now);
            self.log_record(WalOp::Effects {
                op_id: None,
                effects: Vec::new(),
                pending_entry: Some((key, entry)),
                applied_entry_ids: Vec::new(),
            })
            .await;
        }
        // The source's retired ids ride along so a duplicate delayed across
        // the flip is still suppressed here; entering through the retire
        // path (re-stamped with install time — conservative) keeps this
        // server's table bounded.
        let (retired, now) = (image.retired_entry_ids, self.handle.now());
        self.inner.borrow_mut().retire_entry_ids(retired, now);
        for response in image.completed {
            // The crash-surviving-dedup guarantee must hold for migrated
            // shards too: a retransmission that spans both the migration
            // and a later target crash still gets the original result, so
            // the cached responses are logged here exactly like locally
            // produced ones (piggybacked on the install's append, no extra
            // simulated latency) — and flushed before the ack below escapes:
            // once the source sees it, it flips ownership and deletes its
            // copy, so the completion records must not be sitting in a
            // volatile tail a target crash could tear away. Not
            // `log_record`: the append is already charged, and no await.
            let lsn = self.wal_hand_over(WalOp::Completed(response));
            self.wal_flush_and_apply(lsn);
        }
        {
            let mut inner = self.inner.borrow_mut();
            inner.installs.insert(install_key, InstallState::Applied);
            inner.stats.shards_migrated_in += 1;
        }
        Some(Reply::Done(Ok(())))
    }

    /// Sends every queued discard confirmation as an empty change-log push
    /// addressed directly to its applier. Steady-state confirms ride on
    /// messages that already flow, but a server about to shut down has no
    /// future messages — without this final flush the appliers would retain
    /// the victim's unconfirmed ids for their lifetime.
    fn flush_discard_confirms(&self) {
        let mut appliers: Vec<ServerId> = self
            .inner
            .borrow()
            .pending_discard_confirms
            .keys()
            .copied()
            .collect();
        appliers.sort_unstable();
        for applier in appliers {
            let discard_confirm = self.inner.borrow_mut().take_discard_confirms(applier);
            if discard_confirm.is_empty() {
                continue;
            }
            self.send_plain(
                self.cfg.node_of(applier),
                Body::Server(ServerMsg::ChangeLogPush {
                    dir_key: MetaKey::new(DirId::ROOT, ""),
                    entries: Vec::new(),
                    discard_confirm,
                }),
            );
        }
    }

    /// Waits until nothing recovery-critical remains volatile on this
    /// server: change-logs flushed (force-pushed each round until the
    /// owners' acks drain them), no in-flight client handlers, no pending
    /// aggregations, no prepared transactions. Bounded: returns false if
    /// the cluster cannot quiesce within the retry budget (e.g. an owner is
    /// down), leaving the caller to retry the decommission later.
    pub async fn drain_for_shutdown(&self) -> bool {
        let step = self.cfg.costs.request_timeout;
        for _round in 0..64 {
            if self.is_crashed() {
                return false;
            }
            let quiet = {
                let inner = self.inner.borrow();
                inner.changelogs.is_empty()
                    && inner.in_flight_ops.is_empty()
                    && inner.pending_aggs.is_empty()
                    && !inner.agg_gates.values().any(AggGate::round_running)
                    && inner.prepared_txns.is_empty()
                    && inner.pending_discard_confirms.is_empty()
            };
            if quiet {
                return true;
            }
            // Force-push past the MTU / idle thresholds: after the victim's
            // own shards have migrated, its change-logs still hold deferred
            // updates to directories *other* servers own — those must reach
            // their owners before the victim can shut down, or they would be
            // stranded in a WAL nobody will ever replay. Between rounds the
            // owners' acks pull the full batches through; each round re-sends
            // an unacknowledged batch and cuts the sub-MTU remainders.
            self.push_all_changelogs(PushTrigger::Flush);
            // Queued discard confirmations normally ride on future
            // messages; a retiring server has none, so flush them
            // explicitly or the appliers keep the ids forever.
            self.flush_discard_confirms();
            self.handle.sleep(step).await;
        }
        false
    }

    /// Drops every locally-stored object owned by `shard` (recovery of an
    /// interrupted migration whose flip already happened: the WAL replay
    /// rebuilt state the target now owns): the record of the post-flip
    /// source delete ([`Server::delete_shard_local`]), applied unlogged.
    pub(crate) fn drop_shard_state(&self, shard: u32) {
        let image = self
            .collect_shards([shard])
            .remove(&shard)
            .unwrap_or_default();
        for effect in self.shard_delete_effects(&image) {
            self.inner.borrow_mut().apply_effect(&effect);
        }
        self.drop_shard_changelogs(&image);
    }
}
