//! Directory reads, metadata aggregation, change-log compaction and the
//! proactive push / aggregation machinery (§5.2.2, §5.3).
//!
//! Every set/map on this path uses the deterministic FxHash hasher: the
//! aggregation schedule is part of the replayable simulation, so no
//! std-`RandomState` structure — even a lookup-only one — is allowed here
//! (cross-process same-seed runs must be bit-identical; asserted by
//! `tests/conformance.rs`).

use switchfs_simnet::FxHashSet;

use switchfs_proto::message::{Body, ClientRequest, MetaOp, ServerMsg};
use switchfs_proto::{
    changelog::CompactedChanges, ChangeLogEntry, DirId, DirtyRet, DirtySetHeader, DirtySetOp,
    DirtyState, Fingerprint, FsError, MetaKey, OpId, OpResult, Placement, Retry, ServerId,
};
use switchfs_simnet::sync::ClassGuard;
use switchfs_simnet::{timeout, NodeId};

use crate::config::{
    UpdateMode, IDLE_PUSH_AFTER, OWNER_AGGREGATE_AFTER, PROACTIVE_SCAN_INTERVAL, PUSH_MTU_BYTES,
};
use crate::costs::RESPONDER_ACK_WAIT;
use crate::locks::{AggGate, Arrival, Lead, RESPONDER};
use crate::server::{AggCollector, Server};
use crate::wal::{KvEffect, WalOp};

/// Why a holder considers pushing a change-log (§5.3). What a push carries
/// never depends on the trigger: the unacknowledged batch if there is one,
/// else the next one cut from the front of the log. `Filled` and `Tick`
/// send nothing while an aggregation responder holds or waits for the
/// directory's change-log lock: a round is taking the whole log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushTrigger {
    /// An append or a push acknowledgment may have left a full MTU waiting
    /// behind an open window: send it now instead of at the next scan.
    Filled,
    /// The scan tick: push a log that holds a full MTU or that nothing was
    /// appended to lately. With a batch in flight that is the re-send, due
    /// once the retransmission wait for the copies already sent has passed
    /// ([`Retry::ACK`]) — the retry path shard migration relies on: a frozen
    /// or flipped owner drops pushes without an acknowledgment.
    Tick,
    /// Everything must go (decommission drain): the batch in flight again
    /// or the next one, full or not, idle or not, round or no round.
    Flush,
}

/// A leader's place at a gate. Dropped with its group still waiting (the
/// leader was cancelled in the lock queue), it takes the group out: the
/// followers start over.
struct Leading<'a>(&'a Server, Fingerprint, Lead);

impl Drop for Leading<'_> {
    fn drop(&mut self) {
        let Leading(server, fp, lead) = self;
        drop(server.with_gate(*fp, |gate| gate.close(lead)));
    }
}

/// A reader's scan in a hold: reported to the gate when dropped, unless a reset replaced it.
struct Scanning<'a>(&'a Server, Fingerprint, &'a DirId, u64, bool);

impl Drop for Scanning<'_> {
    fn drop(&mut self) {
        let Scanning(server, fp, dir, incarnation, done) = *self;
        if server.inner.borrow().incarnation == incarnation {
            server.with_gate(fp, |gate| gate.scan_ended(*dir, done));
        }
    }
}

impl Server {
    /// Handles `statdir` and `readdir` (§5.2.2). The dirty-set query result
    /// attached by the switch decides whether an aggregation is needed.
    pub(crate) async fn handle_dir_read(
        &self,
        req: &ClientRequest,
        dirty_ret: Option<DirtyRet>,
    ) -> OpResult {
        let costs = self.cfg.costs;
        self.cpu.run(costs.request_overhead()).await;
        if self.is_stale(&req.ancestors) {
            return OpResult::Err(FsError::StaleCache);
        }
        let key = req.op.primary_key().clone();
        if self.cfg.update_mode == UpdateMode::Synchronous {
            // Baseline systems read directories in place: the inode is always
            // up to date, no dirty-set involvement.
            let lock = self.locks.inode(&key);
            let _g = lock.read().await;
            self.cpu.run(costs.lock_op + costs.kv_get).await;
            return self.finish_dir_read(&req.op, None).await;
        }
        let fp = Fingerprint::of_dir(&key.pid, &key.name);
        let state = self.dirty_state_for_read(fp, dirty_ret).await;

        let (_r, hold) = if state == DirtyState::Scattered {
            // The directory may have been removed concurrently.
            if self.inner.borrow().inodes.peek(&key).is_none() {
                return OpResult::Err(FsError::NotFound);
            }
            // Aggregation path: the change-logs are pulled and applied by a
            // round that starts after this point. The read that runs it is
            // served under its hold as the round leaves it; one that another
            // caller's round served holds a share of that caller's hold and
            // is a plain read from here on, but for the listing's scan.
            let (shared, ran) = self.aggregated(fp).await;
            if ran {
                return self.finish_dir_read(&req.op, Some(fp)).await;
            }
            (shared, Some(fp))
        } else {
            // Normal state: a plain read, serialized after any in-flight
            // aggregation of the same group.
            (self.locks.fp_group(fp).read().await, None)
        };
        let lock = self.locks.inode(&key);
        let _g = lock.read().await;
        self.cpu.run(costs.lock_op + costs.kv_get).await;
        self.finish_dir_read(&req.op, hold).await
    }

    /// The one way to need a fingerprint group aggregated: returns a read
    /// hold of the group's lock that was a write hold when a round that
    /// **started after this call** completed and was not released since (see
    /// [`AggGate`]), and whether this caller ran that round. A leader skips
    /// its round if such a round — another gate caller's, a rename's,
    /// `rmdir`'s, the proactive loop's — has served its whole group.
    pub(crate) async fn aggregated(&self, fp: Fingerprint) -> (ClassGuard, bool) {
        let leading = loop {
            match self.with_gate(fp, AggGate::arrive) {
                Arrival::Lead(lead) => break Leading(self, fp, lead),
                Arrival::Follow(rx) => {
                    // A failed receive: the group was dropped. Start over.
                    if let Ok(share) = rx.recv().await {
                        return (share, false);
                    }
                }
            }
        };
        let mut guard = self.locks.fp_group(fp).write().await;
        let (ticket, followers) = self.with_gate(fp, |gate| gate.close(&leading.2));
        let served = || self.with_gate(fp, |gate| gate.served(ticket));
        let ran = !served();
        if ran {
            self.cpu.run(self.cfg.costs.lock_op).await;
            // Boxed: the aggregation machinery dominates this future's size
            // but runs once per round, not once per caller.
            Box::pin(self.aggregate_group(fp, None)).await;
        }
        guard.downgrade();
        self.with_gate(fp, AggGate::hold_started);
        // Not served even now: the round straddled a reset, and the
        // followers, dropped here, start over at the fresh gate.
        if served() {
            for follower in followers {
                // A follower that is gone drops the share it is sent.
                let _ = follower.send(guard.share());
            }
        }
        (guard, ran)
    }

    /// Runs `f` on the aggregation gate of `fp`'s group.
    fn with_gate<R>(&self, fp: Fingerprint, f: impl FnOnce(&mut AggGate) -> R) -> R {
        f(self
            .inner
            .borrow_mut()
            .agg_gates
            .entry(fp.raw())
            .or_default())
    }

    /// Charges a `readdir`'s scan of `dir`'s `len` entries. In a hold of group
    /// `hold` only the first readdir scans; the rest wait, then pay a `kv_get`.
    pub(crate) async fn scan_dir(&self, hold: Option<Fingerprint>, dir: &DirId, len: usize) {
        let mut scanning = None;
        while let Some(fp) = hold {
            let Some(scanned) = self.with_gate(fp, |gate| gate.scan(*dir)) else {
                let incarnation = self.inner.borrow().incarnation;
                scanning = Some(Scanning(self, fp, dir, incarnation, false));
                break;
            };
            // A failed receive: the scanner is gone. Ask again.
            if scanned.recv().await.is_ok() {
                return self.cpu.run(self.cfg.costs.kv_get).await;
            }
        }
        self.inner.borrow_mut().stats.listing_scans += 1;
        let scan = self.cfg.costs.readdir_per_entry * len.max(1) as u64;
        self.cpu.run(self.cfg.costs.kv_get + scan).await;
        // Done: dropped at the end, it tells the waiters so.
        scanning.iter_mut().for_each(|scanning| scanning.4 = true);
    }

    async fn finish_dir_read(&self, op: &MetaOp, hold: Option<Fingerprint>) -> OpResult {
        if matches!(op, MetaOp::Readdir { .. }) {
            match self.read_listing(op.primary_key(), hold).await {
                Some((attrs, entries)) => OpResult::Listing { attrs, entries },
                None => OpResult::Err(FsError::NotFound),
            }
        } else {
            let mut inner = self.inner.borrow_mut();
            match inner.inodes.get(op.primary_key()) {
                Some(attrs) if attrs.is_dir() => OpResult::Attrs(inner.with_dir_size(attrs)),
                Some(_) => OpResult::Err(FsError::NotADirectory),
                None => OpResult::Err(FsError::NotFound),
            }
        }
    }

    /// Runs one aggregation for a fingerprint group this server owns.
    ///
    /// The caller must hold the fingerprint-group write lock. Returns the
    /// number of change-log entries applied.
    pub(crate) async fn aggregate_group(
        &self,
        fp: Fingerprint,
        invalidate: Option<(DirId, MetaKey)>,
    ) -> usize {
        // The gate sees the round running for the whole call — including the
        // apply phase after the collection completes — so a shard
        // migration's drain barrier can wait for every in-progress
        // aggregation of the shard, not just the ones still collecting
        // (`pending_aggs` empties earlier).
        let round = self.with_gate(fp, |gate| gate.round_started());
        let applied = self.aggregate_round(fp, invalidate).await;
        self.with_gate(fp, |gate| gate.round_completed(round));
        applied
    }

    async fn aggregate_round(
        &self,
        fp: Fingerprint,
        invalidate: Option<(DirId, MetaKey)>,
    ) -> usize {
        let others = self.cfg.other_servers();
        let agg_id = self.next_token();
        self.trace_event(
            None,
            switchfs_obs::EventKind::AggregationFanout {
                fp: fp.raw(),
                peers: others.len() as u32,
            },
        );

        // Locally-held entries for directories in this group (the file owner
        // and the directory owner can be the same server).
        let local_entries: Vec<ChangeLogEntry> = {
            let inner = self.inner.borrow();
            inner.changelogs.snapshot_group(fp)
        };

        // Collect remote change-logs, retrying lost requests (§5.4.1). Each
        // copy of the request gets a fresh collector, which leaves the table
        // when the copy's wait ends: a crash that empties the table mid-round
        // loses only the copy in flight. Entries are *accumulated* across
        // copies (deduplicated by entry id): a server that answered copy 1 is
        // acknowledged below, so its copy-1 entries must survive even if a
        // later copy's partial collection no longer contains them (the
        // responder may lose its answer to the same faults that forced the
        // retry).
        let mut remote_entries: Vec<ChangeLogEntry> = Vec::new();
        let mut collected_ids: FxHashSet<OpId> = FxHashSet::default();
        // Iterated below to send acknowledgments: must have a
        // process-independent iteration order, or the ack packet order (and
        // with it the whole downstream schedule) varies run to run.
        let mut responders: FxHashSet<ServerId> = FxHashSet::default();
        if !others.is_empty() {
            let send = async || {
                let (tx, rx) = switchfs_simnet::sync::oneshot::channel();
                let collector = AggCollector {
                    fp,
                    expected: others.iter().copied().collect(),
                    entries: Vec::new(),
                    done: Some(tx),
                };
                self.inner
                    .borrow_mut()
                    .pending_aggs
                    .insert(agg_id, collector);
                self.send_aggregation_request(fp, agg_id, invalidate.clone())
                    .await;
                rx
            };
            // A copy's wait ended: whoever answered it is acknowledged, and
            // what it brought is kept.
            let mut keep = |answered: bool| {
                let collector = self.inner.borrow_mut().pending_aggs.remove(&agg_id);
                let Some(c) = collector else { return };
                if answered {
                    // Every other server answered this copy: a set collected
                    // at once, not grown by inserts into a full table.
                    responders = others.iter().copied().collect();
                } else {
                    responders.extend(others.iter().copied().filter(|s| !c.expected.contains(s)));
                }
                for e in c.entries {
                    if collected_ids.insert(e.entry_id) {
                        remote_entries.push(e);
                    }
                }
            };
            if self
                .exchange(Retry::COLLECT, send, || keep(false))
                .await
                .is_some()
            {
                keep(true);
            }
        }

        // Filter out anything already applied (duplicate aggregations,
        // re-sent entries).
        let local_ids: Vec<OpId> = local_entries.iter().map(|e| e.entry_id).collect();
        let mut entries: Vec<ChangeLogEntry> = Vec::new();
        {
            let inner = self.inner.borrow();
            for e in local_entries.into_iter().chain(remote_entries) {
                if !inner.entry_already_applied(&e.entry_id) {
                    entries.push(e);
                }
            }
        }
        // Acknowledge the responders once the batch is durable: they mark
        // their entries applied and release their change-log locks (§5.2.2
        // steps 9a/9b) while the apply is still being charged here.
        let ack = || {
            for s in &responders {
                self.send_plain(
                    self.cfg.node_of(*s),
                    Body::Server(ServerMsg::AggregationAck { agg_id }),
                );
            }
        };
        let applied = self.apply_entries_to_owned_dirs(&entries, ack).await;
        // The owner's own deferred entries for this group are now applied.
        let own_ids: FxHashSet<OpId> = entries.iter().map(|e| e.entry_id).collect();
        self.discard_applied_entries(
            |logs| (logs.discard_applied_in_group(fp, &own_ids), ()),
            &own_ids,
            None,
        );
        // The owner held (and just durably discarded) its own local entries:
        // holder and applier are the same server, so the discard confirms
        // itself and those ids — every one it held, applied now or earlier —
        // retire immediately.
        {
            let now = self.handle.now();
            let mut inner = self.inner.borrow_mut();
            inner.retire_entry_ids(local_ids, now);
            inner.push_timers.remove(&fp.raw());
            inner.stats.aggregations += 1;
        }
        applied
    }

    /// Sends the aggregation request: through the switch, which removes the
    /// fingerprint and multicasts, or, with the dirty set kept in software,
    /// after a remove at the tracker, to every other server directly.
    async fn send_aggregation_request(
        &self,
        fp: Fingerprint,
        agg_id: u64,
        invalidate: Option<(DirId, MetaKey)>,
    ) {
        let body = Body::Server(ServerMsg::AggregationRequest {
            fp,
            agg_id,
            invalidate,
        });
        if let Some(tracker) = self.cfg.software_tracker(fp) {
            self.software_dirty_set(tracker, DirtySetOp::Remove, fp)
                .await;
            self.multicast_plain(&self.cfg.other_servers(), body);
            return;
        }
        let seq = self.next_remove_seq();
        let hdr = DirtySetHeader::remove(fp, seq);
        // Destination is nominally this server; the switch replaces it with a
        // multicast to every other metadata server.
        self.send_dirty(self.cfg.node, hdr, body);
    }

    /// Applies change-log entries to the directories of a fingerprint group
    /// owned by this server, with or without compaction depending on the
    /// update mode (Fig. 14's "+Async" vs "+Compaction").
    ///
    /// The caller holds the group's fingerprint-group write lock, which is
    /// what excludes the single-update applier
    /// ([`Server::apply_dir_update`]) for the whole batch. `durable` runs
    /// when every directory's record is flushed and before the entry
    /// mutations are charged: both callers acknowledge the entries' holders
    /// there, and nobody reads the new state before the lock is released.
    pub(crate) async fn apply_entries_to_owned_dirs(
        &self,
        entries: &[ChangeLogEntry],
        durable: impl FnOnce(),
    ) -> usize {
        let costs = self.cfg.costs;
        // Group entries per directory by reference, preserving FIFO order
        // within each — nothing is cloned just to be regrouped.
        let mut per_dir: Vec<(DirId, Vec<&ChangeLogEntry>)> = Vec::new();
        for e in entries {
            match per_dir.iter_mut().find(|(d, _)| *d == e.dir) {
                Some((_, v)) => v.push(e),
                None => per_dir.push((e.dir, vec![e])),
            }
        }
        let mut applied = 0usize;
        let mut mutations = 0usize;
        for (dir, dir_entries) in per_dir {
            let dir_key = {
                let inner = self.inner.borrow();
                inner.dir_index.get(&dir).cloned()
            };
            let Some(dir_key) = dir_key else {
                // The directory was removed; its deferred updates are moot,
                // but they still count as consumed.
                applied += dir_entries.len();
                continue;
            };
            match self.cfg.update_mode {
                UpdateMode::AsyncCompacted => {
                    let compacted = CompactedChanges::from_entry_refs(dir_entries.iter().copied());
                    {
                        let mut inner = self.inner.borrow_mut();
                        inner.stats.entries_compacted_away += compacted.merged_entries as u64;
                    }
                    // One attribute update for the whole batch.
                    let effects = self.dir_update_effects(
                        &dir_key,
                        dir,
                        compacted.max_timestamp,
                        compacted
                            .entry_ops
                            .iter()
                            .map(|(name, op)| (name.as_str(), *op)),
                    );
                    mutations += compacted.entry_ops.len();
                    // The entry mutations are charged per core below, so the
                    // record that makes the batch durable costs its append
                    // and the one attribute put here.
                    // `apply_and_log`'s three statements with that charge:
                    // its own would bill every entry's put again, serially.
                    let lsn = self.wal_hand_over(WalOp::Effects {
                        op_id: None,
                        effects,
                        pending_entry: None,
                        applied_entry_ids: dir_entries.iter().map(|e| e.entry_id).collect(),
                    });
                    self.cpu.run(self.wal_append_cost() + costs.kv_put).await;
                    self.wal_flush_and_apply(lsn);
                }
                UpdateMode::AsyncNoCompaction | UpdateMode::Synchronous => {
                    // Apply every entry individually and serially: one
                    // attribute read-modify-write plus one entry mutation per
                    // deferred update, all under the key-value store's
                    // serialization (the "+Async" bar of Fig. 14).
                    for e in &dir_entries {
                        self.cpu.run(costs.entry_apply + costs.kv_get).await;
                        let effects = self.dir_update_effects(
                            &dir_key,
                            dir,
                            e.timestamp,
                            [(e.name.as_str(), e.op)],
                        );
                        self.apply_and_log(None, effects, None, vec![e.entry_id])
                            .await;
                    }
                }
            }
            applied += dir_entries.len();
        }
        durable();
        // Entry-list mutations are spread across cores: different keys do
        // not conflict, which is what restores intra-server parallelism
        // (Fig. 14). Each core's chunk is charged the whole mutation — the
        // apply and the put — for its share of the compacted entries.
        let unit = costs.entry_apply + costs.kv_put;
        let per_core = entries_chunk_cost(mutations, self.cpu.num_cores(), unit);
        let mut joins = Vec::new();
        for chunk_cost in per_core {
            let cpu = self.cpu.clone();
            joins.push(self.handle.spawn_with_result(async move {
                cpu.run(chunk_cost).await;
            }));
        }
        for j in joins {
            j.join().await;
        }
        self.inner.borrow_mut().stats.entries_applied += applied as u64;
        applied
    }

    // ------------------------------------------------------------------
    // Remote-side aggregation handling.
    // ------------------------------------------------------------------

    /// Handles an aggregation request multicast by the switch (or unicast by
    /// the owner in the server-tracking modes): send the matching change-log
    /// entries to the owner, the request's source, then hold the change-log
    /// locks until the owner's acknowledgment arrives (§5.2.2 step 6 / 9a).
    pub(crate) async fn handle_aggregation_request(
        &self,
        src: NodeId,
        fp: Fingerprint,
        agg_id: u64,
        invalidate: Option<(DirId, MetaKey)>,
    ) {
        let costs = self.cfg.costs;
        self.cpu.run(costs.software_path).await;
        // Our own multicast reflected back (possible in the unicast modes):
        // nothing to do.
        let Some(owner) = self.server_id_of(src).filter(|s| *s != self.cfg.id) else {
            return;
        };
        if let Some((dir_id, dir_key)) = invalidate {
            self.apply_and_log(
                None,
                vec![KvEffect::Invalidate(dir_id, dir_key)],
                None,
                Vec::new(),
            )
            .await;
        }
        // Lock every change-log in the fingerprint group as a responder
        // while its entries are in flight: no append lands between the
        // snapshot and its discard, while a retried request for the same
        // aggregation shares the locks instead of queueing behind this
        // handler's acknowledgment wait. A change-log created in the group
        // during these waits is snapshotted unlocked, which is harmless
        // (see `crate::locks`).
        let dirs = {
            let inner = self.inner.borrow();
            inner.changelogs.dirs_in_group(fp)
        };
        let mut guards = Vec::new();
        for d in &dirs {
            let lock = self.locks.changelog(d);
            guards.push(lock.acquire(RESPONDER).await);
        }
        self.cpu.run(costs.lock_op * dirs.len().max(1) as u64).await;
        let entries = {
            let inner = self.inner.borrow();
            inner.changelogs.snapshot_group(fp)
        };
        let sent_ids: FxHashSet<OpId> = entries.iter().map(|e| e.entry_id).collect();
        let discard_confirm = self.inner.borrow_mut().take_discard_confirms(owner);
        self.send_plain(
            src,
            Body::Server(ServerMsg::AggregationEntries {
                agg_id,
                entries,
                discard_confirm,
            }),
        );
        // Wait for the owner's ack (bounded), then mark the entries applied.
        // Only a real ack counts: when a retried aggregation request spawns a
        // second handler for the same agg id, its sender registration drops
        // ours — `recv` then completes with `Err(RecvError)`, which must NOT
        // be mistaken for an acknowledgment (discarding un-applied entries
        // here silently loses deferred directory updates; found by the chaos
        // checker as a listing/inode divergence). Aggregation ids are
        // per-owner counters, so the wait is keyed by owner *and* id: two
        // owners aggregating at once with equal ids must not take each
        // other's acknowledgments.
        let ack_key = (src, agg_id);
        let (tx, rx) = switchfs_simnet::sync::oneshot::channel();
        self.inner.borrow_mut().pending_agg_acks.insert(ack_key, tx);
        let acked = matches!(
            timeout(&self.handle, RESPONDER_ACK_WAIT, rx.recv()).await,
            Some(Ok(()))
        );
        self.inner.borrow_mut().pending_agg_acks.remove(&ack_key);
        if acked && !sent_ids.is_empty() {
            // This holder can never re-send these entries once they are
            // discarded, so the owner is told to retire them from its
            // duplicate-suppression set.
            self.discard_applied_entries(
                |logs| (logs.discard_applied_in_group(fp, &sent_ids), ()),
                &sent_ids,
                Some(owner),
            );
        }
        drop(guards);
    }

    /// Owner side: the change-log entries of the server at `src` arrived.
    pub(crate) fn handle_aggregation_entries(
        &self,
        src: NodeId,
        agg_id: u64,
        entries: Vec<ChangeLogEntry>,
    ) {
        let from = self.server_id_of(src);
        let mut inner = self.inner.borrow_mut();
        let Some(collector) = inner.pending_aggs.get_mut(&agg_id) else {
            return;
        };
        if from.is_some_and(|from| collector.expected.remove(&from)) {
            collector.entries.extend(entries);
        }
        if collector.expected.is_empty() {
            if let Some(tx) = collector.done.take() {
                let _ = tx.send(());
            }
        }
    }

    /// Remote side: the owner at `src` acknowledged our entries.
    pub(crate) fn handle_aggregation_ack(&self, src: NodeId, agg_id: u64) {
        let tx = self
            .inner
            .borrow_mut()
            .pending_agg_acks
            .remove(&(src, agg_id));
        if let Some(tx) = tx {
            let _ = tx.send(());
        }
    }

    // ------------------------------------------------------------------
    // Proactive pushing and proactive aggregation (§5.3).
    // ------------------------------------------------------------------

    /// Owner side: the holder at `src` proactively pushed change-log entries.
    pub(crate) async fn handle_changelog_push(
        &self,
        src: NodeId,
        dir_key: MetaKey,
        entries: Vec<ChangeLogEntry>,
    ) {
        let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
        let costs = self.cfg.costs;
        self.cpu.run(costs.software_path).await;
        if let Some(first) = entries.first() {
            if self.dir_update_frozen(fp, &first.dir) {
                // The target directory's shard is frozen by an outbound
                // migration: applying now would strand the entries at the
                // old owner after the flip. No ack — the pusher retries,
                // and its placement lookup then routes to the new owner.
                return;
            }
            if !self.owns_dir_updates(fp, &first.dir) {
                // A push that was in flight across a flip: this server no
                // longer owns the directory and already deleted its copy —
                // acknowledging would let the holder discard an entry the
                // new owner never saw. Drop without ack; the holder's next
                // push round routes to the new owner.
                return;
            }
        }
        let fpg = self.locks.fp_group(fp);
        let _w = fpg.write().await;
        let applied_ids: Vec<OpId> = entries.iter().map(|e| e.entry_id).collect();
        let fresh: Vec<ChangeLogEntry> = {
            let inner = self.inner.borrow();
            entries
                .into_iter()
                .filter(|e| !inner.entry_already_applied(&e.entry_id))
                .collect()
        };
        let ack = || {
            self.send_plain(
                src,
                Body::Server(ServerMsg::ChangeLogPushAck {
                    dir_key,
                    applied: applied_ids,
                }),
            );
        };
        self.apply_entries_to_owned_dirs(&fresh, ack).await;
        let mut inner = self.inner.borrow_mut();
        inner.stats.pushes_received += 1;
        let now = self.handle.now();
        inner.push_timers.insert(fp.raw(), now);
    }

    /// Pusher side: the owner applied our pushed entries. Discards them from
    /// the directory's push window and, now that the window is open, sends
    /// the next batch if a full one is waiting.
    pub(crate) fn handle_push_ack(&self, src: NodeId, dir_key: MetaKey, applied: Vec<OpId>) {
        let ids: FxHashSet<OpId> = applied.into_iter().collect();
        // The confirmation goes to the server that *sent this ack* (the one
        // actually holding the ids in its suppression set), not to the
        // directory's current map owner: across a shard flip the two
        // differ, and the confirm would otherwise never reach the real
        // applier.
        let dir = self.discard_applied_entries(
            |logs| match logs.discard_acked(&dir_key, &ids) {
                Some((removed, dir)) => (removed, Some(dir)),
                None => (0, None),
            },
            &ids,
            self.server_id_of(src),
        );
        if let Some(dir) = dir {
            self.push_changelog(&dir, PushTrigger::Filled);
        }
    }

    /// The background loop driving MTU/idle-based pushes (holder side) and
    /// idle-triggered aggregations (owner side).
    pub(crate) async fn proactive_loop(&self) {
        loop {
            self.handle.sleep(PROACTIVE_SCAN_INTERVAL).await;
            // Shutdown first: a *crashed* server's loop must still terminate
            // when the harness quiesces the simulation, or a run with an
            // unrecovered server never reaches quiescence (the crashed
            // `continue` would re-arm the timer forever).
            if self.inner.borrow().shutdown {
                return;
            }
            if self.is_crashed() {
                continue;
            }
            self.push_all_changelogs(PushTrigger::Tick);
            self.proactive_aggregate_round().await;
            // Resolve prepared transactions whose decision never arrived
            // (§5.4.2): without this, a coordinator crash mid-broadcast
            // would strand staged rename halves forever.
            self.sweep_prepared_txns().await;
        }
    }

    /// One round of holder-side pushes over every dirty directory.
    pub(crate) fn push_all_changelogs(&self, trigger: PushTrigger) {
        let dirty = self.inner.borrow().changelogs.dirty_dirs();
        for (dir, _) in dirty {
            self.push_changelog(&dir, trigger);
        }
    }

    /// Sends the next push batch of `dir`'s change-log if `trigger` says one
    /// is due. The one holder-side push path: appends, push acks, the scan
    /// tick, the decommission flush and the post-recovery re-drive all end
    /// up here, and what goes out is always [`ChangeLog::push_batch`] — at
    /// most one MTU of the oldest entries, the same ones again until they
    /// are acknowledged.
    ///
    /// [`ChangeLog::push_batch`]: crate::changelog::ChangeLog::push_batch
    pub(crate) fn push_changelog(&self, dir: &DirId, trigger: PushTrigger) {
        let now = self.handle.now();
        let (dir_key, fp, batch) = {
            let mut inner = self.inner.borrow_mut();
            let Some(log) = inner.changelogs.get_mut(dir) else {
                return;
            };
            let full = log.pending_bytes() >= PUSH_MTU_BYTES;
            let due = match trigger {
                PushTrigger::Filled => log.in_flight() == 0 && full,
                PushTrigger::Tick => {
                    (full || now.duration_since(log.last_append()) >= IDLE_PUSH_AFTER)
                        && log.last_push().is_none_or(|(sent, resends)| {
                            now.duration_since(sent)
                                >= self.cfg.costs.request_timeout * Retry::ACK.wait(resends)
                        })
                }
                PushTrigger::Flush => true,
            };
            let collecting = || self.locks.changelog(dir).wanted_by(RESPONDER);
            if !due || log.is_empty() || (trigger != PushTrigger::Flush && collecting()) {
                return;
            }
            let batch = log.push_batch(PUSH_MTU_BYTES, now);
            (log.dir_key.clone(), log.fp, batch)
        };
        self.send_changelog_push(dir_key, fp, batch);
    }

    /// Sends one push batch to the directory's current owner, draining any
    /// queued discard confirmations addressed to it.
    fn send_changelog_push(&self, dir_key: MetaKey, fp: Fingerprint, entries: Vec<ChangeLogEntry>) {
        let owner = self.cfg.placement.dir_owner_by_fp(fp);
        let discard_confirm = self.inner.borrow_mut().take_discard_confirms(owner);
        self.inner.borrow_mut().stats.pushes_sent += 1;
        if self.obs_on() {
            let trace = match entries[..] {
                [ref only] => Some(switchfs_proto::TraceId::of_op(only.entry_id)),
                _ => None,
            };
            self.trace_event(
                trace,
                switchfs_obs::EventKind::ChangeLogPush {
                    dir: entries.first().map_or(0, |e| e.dir.hash64()),
                    entries: entries.len() as u32,
                },
            );
        }
        self.send_plain(
            self.cfg.node_of(owner),
            Body::Server(ServerMsg::ChangeLogPush {
                dir_key,
                entries,
                discard_confirm,
            }),
        );
    }

    /// One round of owner-side proactive aggregations.
    pub(crate) async fn proactive_aggregate_round(&self) {
        let now = self.handle.now();
        let due: Vec<u64> = {
            let inner = self.inner.borrow();
            inner
                .push_timers
                .iter()
                .filter(|(_, last)| now.duration_since(**last) >= OWNER_AGGREGATE_AFTER)
                .map(|(fp, _)| *fp)
                .collect()
        };
        for raw in due {
            let fp = Fingerprint::from_raw(raw);
            // Never start an owner-side aggregation for a group in a shard
            // that is mid-migration: entries pulled and applied after the
            // shard snapshot would be stranded at the old owner when the
            // shard flips. The new owner aggregates after the flip. The
            // fingerprint covers the per-file-hash policy; the group's
            // directory ids cover the (id-hashed) grouping policies.
            let dirs = self.inner.borrow().changelogs.dirs_in_group(fp);
            if self.dir_update_frozen(fp, &DirId::ROOT)
                || dirs.iter().any(|d| self.dir_update_frozen(fp, d))
            {
                continue;
            }
            // Nor for a group whose shard already flipped away: this server
            // would pull remote entries, find no owner-index record, count
            // them "applied" as moot and acknowledge — silently losing
            // updates the new owner never saw. The new owner aggregates.
            if self.cfg.placement.dir_owner_by_fp(fp) != self.cfg.id {
                self.inner.borrow_mut().push_timers.remove(&raw);
                continue;
            }
            let fpg = self.locks.fp_group(fp);
            let _w = fpg.write().await;
            self.aggregate_group(fp, None).await;
        }
    }
}

/// Splits `n` entry applications across `cores` chunks and returns the CPU
/// cost of each chunk.
fn entries_chunk_cost(
    n: usize,
    cores: usize,
    unit: switchfs_simnet::SimDuration,
) -> Vec<switchfs_simnet::SimDuration> {
    if n == 0 {
        return Vec::new();
    }
    let cores = cores.max(1);
    let chunks = cores.min(n);
    let base = n / chunks;
    let extra = n % chunks;
    (0..chunks)
        .map(|i| {
            let count = base + usize::from(i < extra);
            unit * count as u64
        })
        .collect()
}
