//! Crash recovery (§5.4.2, §A.1).
//!
//! A crashed server loses every volatile structure (key-value store,
//! change-logs, invalidation list); only the WAL and the optional checkpoint
//! survive. Recovery proceeds in four steps:
//!
//! 1. replay the WAL (starting from the checkpoint, if present) through
//!    `Server::apply_record` — the applier the live path runs after every
//!    flush, so a replayed record rebuilds exactly what logging it built:
//!    stores, owner index, duplicate-suppression state, both transaction
//!    tables — and rebuild the change-log entries not yet marked "applied";
//! 2. proactively aggregate every directory this server owns, so that any
//!    aggregation it had issued before the crash runs to completion and the
//!    on-switch dirty set again reflects the true directory states;
//! 3. clone the invalidation list from another server;
//! 4. resume serving requests.
//!
//! A switch reboot is handled by the cluster harness: it clears the switch
//! state and calls [`Server::aggregate_all_owned`] on every server, after
//! which every directory is back in *normal* state, consistent with the
//! empty dirty set.

use std::collections::BTreeMap;

use switchfs_obs::EventKind;
use switchfs_proto::message::{Body, ServerMsg};
use switchfs_proto::{Fingerprint, Placement};

use crate::server::migrate::store_effects;
use crate::server::Server;
use crate::wal::{CheckpointData, MigrationMarker, TxnMarker, WalOp};

/// Summary of one recovery run, reported to the harness (used by the §7.7
/// experiment and asserted by the chaos checker).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records replayed.
    pub wal_records_replayed: usize,
    /// Inodes restored into the key-value store.
    pub inodes_recovered: usize,
    /// Not-yet-applied change-log entries rebuilt.
    pub changelog_entries_recovered: usize,
    /// Directories re-aggregated after the replay.
    pub directories_aggregated: usize,
    /// In-doubt prepared transactions found after the replay (crashed
    /// between prepare and decision).
    pub prepared_txns_recovered: usize,
    /// In-doubt transactions the decision query resolved to commit.
    pub txn_commits_recovered: usize,
    /// In-doubt transactions the decision query resolved to abort.
    pub txn_aborts_recovered: usize,
    /// In-doubt transactions left unresolved (coordinator unreachable); the
    /// background sweep keeps retrying them.
    pub txn_unresolved: usize,
    /// Cached responses rebuilt into the duplicate-suppression cache, so a
    /// retransmission spanning the crash still gets its original result.
    pub completed_ops_recovered: usize,
    /// Interrupted shard migrations whose flip had already happened; the
    /// replayed local copy was dropped in favor of the new owner's.
    pub migrations_resolved: usize,
    /// Records in the crashed log that failed their checksum (torn writes).
    pub wal_torn_records: usize,
    /// Records truncated from the tail before replay: torn ones plus intact
    /// records stranded past a gap a dropped write left.
    pub wal_truncated_records: usize,
    /// On-media bytes of the replayed records — with the record count, the
    /// recovery-work measure of the §7.7 experiment.
    pub wal_bytes_replayed: u64,
    /// `Resolved` markers replayed with no matching `Prepared` in sight
    /// (neither checkpointed nor replayed). Benign — a `Resolved` is only
    /// written after the decision was applied, and the decision's effects
    /// replay from their own records — but counted rather than assumed
    /// impossible, so a torn tail can never turn the pairing assumption
    /// into a panic or a silent drop.
    pub orphan_resolved_markers: usize,
    /// Virtual time the recovery took, in nanoseconds.
    pub duration_ns: u64,
}

impl Server {
    /// Recovers this server after a crash. The caller must have brought the
    /// node back up in the network before calling this.
    pub async fn recover(&self) -> RecoveryReport {
        let start = self.handle.now();
        let costs = self.cfg.costs;
        let mut report = RecoveryReport::default();

        self.inner.borrow_mut().reset_volatile();
        // Drop packets addressed to the previous incarnation.
        self.endpoint.drain();

        // Step 0a: verify the log before trusting it. A torn-write crash may
        // have corrupted or dropped records past the durable watermark;
        // recovery keeps the longest checksum-clean contiguous prefix and
        // truncates the rest. Truncated LSNs are never reissued, so they
        // cannot collide with id-based duplicate suppression rebuilt below.
        let torn = self.durable.borrow_mut().wal.recover_truncate();
        report.wal_torn_records = torn.torn;
        report.wal_truncated_records = torn.truncated;

        // Step 0b: load the checkpoint, if one exists.
        let checkpoint = self.durable.borrow().checkpoint.load();
        let replay_from = if let Some((lsn, data)) = checkpoint {
            self.load_checkpoint(data);
            lsn
        } else {
            0
        };

        // Step 1: replay the WAL. What a record means is `apply_record`'s
        // business, here as on the live path; the loop adds what only a
        // replay does — the change-log rebuild, the report, and reading the
        // migration markers off the log.
        let records: Vec<(u64, WalOp, bool, u64)> = self
            .durable
            .borrow()
            .wal
            .records()
            .iter()
            .filter(|r| r.lsn > replay_from)
            .map(|r| (r.lsn, r.payload.clone(), r.applied, r.size))
            .collect();
        let mut started_migrations: BTreeMap<u32, switchfs_proto::ServerId> = BTreeMap::new();
        for (lsn, op, applied, size) in &records {
            // Each replayed record costs one KV write's worth of CPU; this is
            // what makes the §7.7 recovery time proportional to the number of
            // operations to recover.
            self.cpu.run(costs.kv_put).await;
            match op {
                WalOp::Effects {
                    pending_entry: Some((dir_key, entry)),
                    ..
                } if !applied => {
                    // The deferred update never reached the directory owner:
                    // rebuild it into the change-log.
                    let now = self.handle.now();
                    let mut inner = self.inner.borrow_mut();
                    inner.changelogs.append(dir_key, entry.clone(), now);
                    report.changelog_entries_recovered += 1;
                }
                WalOp::Txn(TxnMarker::Resolved { txn_id })
                    if !self.inner.borrow().prepared_txns.contains_key(txn_id) =>
                {
                    // No matching `Prepared` anywhere (checkpoint or
                    // replay): tolerated, not assumed away. The decision
                    // this marker witnessed was applied before it was
                    // written, and its effects replay from their own
                    // records; any txn genuinely still in doubt stays in
                    // `prepared_txns` and is resolved by coordinator query
                    // below.
                    report.orphan_resolved_markers += 1;
                }
                WalOp::Completed(_) => report.completed_ops_recovered += 1,
                WalOp::Migration(MigrationMarker::Started { shard, target }) => {
                    started_migrations.insert(*shard, *target);
                }
                WalOp::Migration(MigrationMarker::Completed { shard }) => {
                    started_migrations.remove(shard);
                }
                WalOp::Effects { .. } | WalOp::Txn(_) => {}
            }
            // Per-effect replay events mirror the live path's, with the LSN
            // standing in for the batch id.
            self.apply_record(op, self.record_trace(op), |dir, insert, changed| {
                EventKind::RecoveryEntryApply {
                    lsn: *lsn,
                    dir,
                    insert,
                    changed,
                }
            });
            report.wal_records_replayed += 1;
            report.wal_bytes_replayed += size;
        }
        self.trace_event(
            None,
            switchfs_obs::EventKind::RecoveryReplay {
                records: report.wal_records_replayed as u64,
                bytes: report.wal_bytes_replayed,
            },
        );
        // Resolve interrupted migrations against the shared shard map: a
        // `Started` with no `Completed` whose shard no longer maps here means
        // the flip happened before the crash — the replayed copy is stale
        // and the new owner is authoritative, so drop it. A shard still
        // mapping here never left this server's ownership; the cluster
        // re-drives the migration.
        for (shard, _target) in started_migrations {
            if self.cfg.placement.map().owner_of_shard(shard) != self.cfg.id {
                self.drop_shard_state(shard);
                report.migrations_resolved += 1;
            }
        }
        report.inodes_recovered = self.inner.borrow().inodes.len();

        // Step 1b: resolve in-doubt transactions (§5.4.2) — prepared records
        // with no durable decision. Self-coordinated ones (this server
        // crashed mid-commit) resolve from the replayed decision table;
        // everything else re-asks its coordinator. Runs before the
        // re-aggregation so a committed rename's migrated content is in
        // place when the owned directories aggregate.
        let in_doubt: Vec<u64> = {
            let inner = self.inner.borrow();
            let mut ids: Vec<u64> = inner.prepared_txns.keys().copied().collect();
            // Deterministic resolution order: the decision queries below are
            // part of the replayable packet schedule.
            ids.sort_unstable();
            ids
        };
        report.prepared_txns_recovered = in_doubt.len();
        for txn_id in in_doubt {
            match self.resolve_prepared_txn(txn_id).await {
                Some(true) => report.txn_commits_recovered += 1,
                Some(false) => report.txn_aborts_recovered += 1,
                None => report.txn_unresolved += 1,
            }
        }

        // Step 2: proactively aggregate every directory this server owns so
        // interrupted aggregations complete and the dirty set converges.
        report.directories_aggregated = self.aggregate_all_owned().await;

        // Step 3: clone the invalidation list from another server.
        if let Some(other) = self.cfg.other_servers().first() {
            self.send_plain(
                self.cfg.node_of(*other),
                Body::Server(ServerMsg::RecoveryCloneInvalidation),
            );
            // The reply is handled by the dispatcher; give it a bounded wait.
            self.handle.sleep(costs.request_timeout).await;
        }

        // Step 4: resume serving.
        {
            let mut inner = self.inner.borrow_mut();
            inner.unavailable = false;
            inner.stats.recoveries += 1;
        }
        report.duration_ns = self.handle.now().duration_since(start).as_nanos();
        report
    }

    /// Aggregates every fingerprint group that owns at least one directory on
    /// this server. Used by server recovery, switch recovery and
    /// stop-the-world reconfiguration (§5.5). Returns how many groups were
    /// aggregated.
    pub async fn aggregate_all_owned(&self) -> usize {
        // Deterministic iteration: the aggregation order below is part of
        // the replayable schedule.
        let fps: switchfs_simnet::FxHashSet<u64> = {
            let inner = self.inner.borrow();
            inner
                .dir_index
                .values()
                .map(|key| Fingerprint::of_dir(&key.pid, &key.name).raw())
                .collect()
        };
        let mut aggregated = 0;
        for raw in fps {
            let fp = Fingerprint::from_raw(raw);
            // Only aggregate groups this server actually owns (preloaded
            // namespaces can index foreign directories defensively).
            if self.cfg.placement.dir_owner_by_fp(fp) != self.cfg.id {
                continue;
            }
            let fpg = self.locks.fp_group(fp);
            let _w = fpg.write().await;
            self.aggregate_group(fp, None).await;
            aggregated += 1;
        }
        aggregated
    }

    /// The current volatile state, as a checkpoint keeps it.
    pub fn snapshot(&self) -> CheckpointData {
        // Every bucket is the same one: the whole server, in store order.
        let mut image = self.collect(|_| Some(())).remove(&()).unwrap_or_default();
        self.stamp_dedup(&mut image);
        let inner = self.inner.borrow();
        let prepared = inner.prepared_txns.iter();
        let decided = inner.decided_txns.iter();
        CheckpointData {
            image,
            invalidation: inner
                .invalidation
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
            // Prepared state is durable (§5.4.2), so it crosses the WAL
            // truncation as the markers that rebuild it.
            txns: prepared
                .map(|(id, p)| TxnMarker::Prepared {
                    txn_id: *id,
                    coordinator: p.coordinator,
                    ops: p.ops.clone(),
                })
                .chain(decided.map(|(id, commit)| TxnMarker::Decided {
                    txn_id: *id,
                    commit: *commit,
                }))
                .collect(),
        }
    }

    /// Writes a checkpoint of the current volatile state, allowing the WAL
    /// prefix to be truncated (the recovery-time optimization §7.7 mentions).
    pub fn checkpoint(&self) {
        let data = self.snapshot();
        let mut durable = self.durable.borrow_mut();
        // Checkpoint at the durable watermark, never past it: a record still
        // in the volatile tail may not survive the next crash, and
        // truncating it here would lose it even though the checkpointed
        // snapshot (taken at a quiesce point, after every append's flush
        // barrier has run) does reflect it. Cutting at `flushed` keeps the
        // unflushed suffix replayable either way.
        let lsn = durable.wal.flushed();
        durable.checkpoint.store(lsn, data);
        durable.wal.truncate_through(lsn);
    }

    /// Puts a checkpoint back: the image's objects through the effects a
    /// shard install stores them with (unlogged — the checkpoint is their
    /// durable copy), its transaction markers through the record applier.
    fn load_checkpoint(&self, mut data: CheckpointData) {
        for marker in data.txns {
            self.apply_record(&WalOp::Txn(marker), None, |_, _, _| {
                unreachable!("a marker has no entry effects")
            });
        }
        let now = self.handle.now();
        let mut inner = self.inner.borrow_mut();
        for effect in store_effects(&mut data.image) {
            inner.apply_effect(&effect);
        }
        inner.invalidation.extend(data.invalidation);
        inner.applied_entry_ids.extend(data.image.applied_entry_ids);
        for id in data.image.retired_entry_ids {
            inner.retire_entry_id(id, now);
        }
        for (key, entry) in data.image.pending {
            inner.changelogs.append(&key, entry, now);
        }
        for response in data.image.completed {
            inner.cache_response(response);
        }
    }
}
