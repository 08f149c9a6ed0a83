//! Property-based tests on core data structures and invariants.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use switchfs::kvstore::KvStore;
use switchfs::proto::changelog::{ChangeLogEntry, ChangeOp, CompactedChanges};
use switchfs::proto::{ClientId, DirId, FileType, Fingerprint, OpId, ServerId};
use switchfs::switch::{DirtySet, DirtySetConfig};

#[derive(Debug, Clone)]
enum KvOp {
    Put(u8, u32),
    Delete(u8),
    Get(u8),
}

fn kv_op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(k, v)| KvOp::Put(k, v)),
        any::<u8>().prop_map(KvOp::Delete),
        any::<u8>().prop_map(KvOp::Get),
    ]
}

proptest! {
    /// The ordered KV store behaves exactly like a reference BTreeMap under
    /// arbitrary sequences of puts, deletes and gets.
    #[test]
    fn kvstore_matches_btreemap_model(ops in proptest::collection::vec(kv_op(), 1..200)) {
        let mut kv = KvStore::new();
        let mut model = BTreeMap::new();
        for op in ops {
            match op {
                KvOp::Put(k, v) => {
                    prop_assert_eq!(kv.put(k, v), model.insert(k, v));
                }
                KvOp::Delete(k) => {
                    prop_assert_eq!(kv.delete(&k), model.remove(&k));
                }
                KvOp::Get(k) => {
                    prop_assert_eq!(kv.get(&k), model.get(&k).copied());
                }
            }
            prop_assert_eq!(kv.len(), model.len());
        }
    }

    /// The in-network dirty set agrees with a reference HashSet as long as it
    /// does not overflow: after any interleaving of inserts and removes, the
    /// same fingerprints are reported present.
    #[test]
    fn dirty_set_matches_set_model(ops in proptest::collection::vec((any::<bool>(), 0u64..64), 1..300)) {
        let mut ds = DirtySet::new(DirtySetConfig::tiny(10, 6));
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let fps: Vec<Fingerprint> = (0..64u64)
            .map(|i| Fingerprint::of_dir(&DirId::generate(ServerId(1), i), "dir"))
            .collect();
        for (insert, idx) in ops {
            let fp = fps[idx as usize];
            if insert {
                // With 10-way associativity and 64 keys over 64 sets the set
                // must not overflow.
                prop_assert_eq!(ds.insert(fp), switchfs::switch::InsertOutcome::Inserted);
                model.insert(fp.raw());
            } else {
                ds.remove(fp);
                model.remove(&fp.raw());
            }
        }
        for fp in &fps {
            prop_assert_eq!(ds.query(*fp), model.contains(&fp.raw()));
        }
        prop_assert_eq!(ds.occupancy(), model.len());
    }

    /// Change-log compaction preserves the directory: applied to any listing,
    /// the compacted ops leave exactly what an entry-by-entry replay leaves,
    /// and the net size delta and the maximum timestamp match. Histories are
    /// the ones the protocol produces — per name, creates and deletes
    /// alternate, starting from whether the name was listed before the batch
    /// (a batch that opens with `Remove x` says `x` was there).
    #[test]
    fn compaction_is_equivalent_to_replay(
        listed_before in proptest::collection::vec(any::<bool>(), 6..7),
        names in proptest::collection::vec(0usize..6, 1..60),
    ) {
        // Listing model: name → mode of the entry (each insert carries its
        // own, so a remove→insert that kept the old entry would show).
        let initial: BTreeMap<String, u16> = (0..6)
            .filter(|i| listed_before[*i])
            .map(|i| (format!("n{i}"), 0))
            .collect();
        let mut present = listed_before;
        let entries: Vec<ChangeLogEntry> = names
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                present[name] = !present[name];
                ChangeLogEntry {
                    entry_id: OpId { client: ClientId(0), seq: i as u64 },
                    dir: DirId::ROOT,
                    name: format!("n{name}"),
                    op: if present[name] {
                        ChangeOp::Insert { file_type: FileType::File, mode: 1 + i as u16 }
                    } else {
                        ChangeOp::Remove
                    },
                    timestamp: (i as u64) * 10,
                    size_delta: if present[name] { 1 } else { -1 },
                }
            })
            .collect();
        let apply = |listing: &mut BTreeMap<String, u16>, name: &str, op: ChangeOp| match op {
            ChangeOp::Insert { mode, .. } => {
                listing.insert(name.to_string(), mode);
            }
            ChangeOp::Remove => {
                listing.remove(name);
            }
        };
        let mut replayed = initial.clone();
        for e in &entries {
            apply(&mut replayed, &e.name, e.op);
        }
        let compacted = CompactedChanges::from_entries(&entries);
        let mut folded = initial.clone();
        for (name, op) in &compacted.entry_ops {
            apply(&mut folded, name, *op);
        }
        prop_assert_eq!(&folded, &replayed);
        prop_assert_eq!(compacted.max_timestamp, (entries.len() as u64 - 1) * 10);
        prop_assert_eq!(compacted.merged_entries, entries.len() - compacted.entry_ops.len());
    }

    /// Fingerprints always fit in 49 bits and index/tag decomposition is
    /// loss-free with respect to placement: equal fingerprints yield equal
    /// (index, tag) pairs and distinct pairs imply distinct fingerprints.
    #[test]
    fn fingerprint_decomposition_is_consistent(a in any::<u64>(), b in any::<u64>()) {
        let fa = Fingerprint::of_dir(&DirId::generate(ServerId(0), a), "x");
        let fb = Fingerprint::of_dir(&DirId::generate(ServerId(0), b), "x");
        prop_assert!(fa.raw() <= Fingerprint::MASK);
        if fa == fb {
            prop_assert_eq!((fa.index(), fa.tag()), (fb.index(), fb.tag()));
        }
        if (fa.index(), fa.tag()) != (fb.index(), fb.tag()) {
            prop_assert_ne!(fa, fb);
        }
    }

    /// Rc-shared directory listings are copy-on-write: a listing handed to a
    /// reader is never observably mutated by later inserts/removes, and the
    /// store's own view always matches a reference model. Readers taken
    /// between the same two mutations share one allocation.
    #[test]
    fn dir_content_listing_is_never_shared_across_mutation(
        ops in proptest::collection::vec((any::<bool>(), 0u8..12), 1..80),
    ) {
        use std::rc::Rc;
        use switchfs::proto::DirEntry;
        use switchfs::server::DirContent;

        let mut content = DirContent::default();
        let mut model: BTreeMap<String, u16> = BTreeMap::new();
        // Snapshots handed out to "readers", with the model state they saw.
        type Snapshot = (Rc<Vec<DirEntry>>, Vec<(String, u16)>);
        let mut snapshots: Vec<Snapshot> = Vec::new();
        for (i, (insert, name)) in ops.iter().enumerate() {
            let name = format!("f{name}");
            if *insert {
                let mode = i as u16;
                content.insert(DirEntry {
                    name: name.as_str().into(),
                    file_type: FileType::File,
                    mode,
                });
                model.insert(name, mode);
            } else {
                content.remove(&name);
                model.remove(&name);
            }
            let listing = content.listing();
            // Two readers between the same mutations share one allocation.
            prop_assert!(Rc::ptr_eq(&listing, &content.listing()));
            snapshots.push((
                listing,
                model.iter().map(|(n, m)| (n.clone(), *m)).collect(),
            ));
        }
        // No snapshot was retroactively mutated: each still shows exactly
        // the state the reader observed when it was taken.
        for (listing, expected) in &snapshots {
            let got: Vec<(String, u16)> =
                listing.iter().map(|e| (e.name.to_string(), e.mode)).collect();
            prop_assert_eq!(&got, expected);
        }
        // And the store's final view matches the model.
        let final_view: Vec<String> = content.iter().map(|e| e.name.to_string()).collect();
        let model_view: Vec<String> = model.keys().cloned().collect();
        prop_assert_eq!(final_view, model_view);
    }
}

// ---------------------------------------------------------------------------
// The change-log push window
// ---------------------------------------------------------------------------

/// One step of a holder's life, as seen by one directory's change-log.
#[derive(Debug, Clone)]
enum WindowOp {
    /// A double-inode operation on name `n{0}` appends its deferred update.
    Append(u8),
    /// Whatever triggers a push (MTU fill, ack, scan tick, flush): cuts a
    /// batch if the window is open, re-sends the unacknowledged one if not.
    Push,
    /// The acknowledgment of the `{0}`-th push ever sent arrives — possibly
    /// late, possibly a duplicate.
    Ack(u8),
    /// An aggregation snapshots the whole log …
    AggSnapshot,
    /// … and its acknowledgment later discards that snapshot.
    AggDiscard,
    /// An overflow fallback applied the `{0}`-th pending entry out of band.
    DiscardOne(u8),
}

fn window_op() -> impl Strategy<Value = WindowOp> {
    prop_oneof![
        (0u8..5).prop_map(WindowOp::Append),
        (0u8..5).prop_map(WindowOp::Append),
        Just(WindowOp::Push),
        any::<u8>().prop_map(WindowOp::Ack),
        Just(WindowOp::AggSnapshot),
        Just(WindowOp::AggDiscard),
        any::<u8>().prop_map(WindowOp::DiscardOne),
    ]
}

proptest! {
    /// Under any interleaving of appends, pushes, (late, duplicated) push
    /// acks, aggregation discards and out-of-band discards, the push window
    /// delivers every entry to the owner at least once before dropping it,
    /// never puts a new entry on the wire while a batch is unacknowledged,
    /// keeps per-name FIFO order, and keeps `pending_bytes` exact.
    #[test]
    fn changelog_window_delivers_everything_once_acked(
        ops in proptest::collection::vec(window_op(), 1..250),
        mtu_entries in 1usize..6,
    ) {
        use switchfs::proto::MetaKey;
        use switchfs::server::ChangeLog;
        use switchfs::simnet::{FxHashSet, SimTime};

        let entry = |seq: u64, name: u8| ChangeLogEntry {
            entry_id: OpId { client: ClientId(0), seq },
            dir: DirId::ROOT,
            name: format!("n{name}"),
            op: ChangeOp::Insert { file_type: FileType::File, mode: 0o644 },
            timestamp: seq,
            size_delta: 1,
        };
        let mtu = mtu_entries * entry(0, 0).wire_size();
        let mut log = ChangeLog::new(
            MetaKey::new(DirId::ROOT, "d"),
            Fingerprint::from_raw(1),
            SimTime::ZERO,
        );
        let mut appended = 0u64;
        // What the owner has seen (pushes, aggregation snapshots, fallbacks).
        let mut delivered: BTreeSet<u64> = BTreeSet::new();
        // Highest sequence first delivered per name by a push or a snapshot:
        // FIFO means it only grows.
        let mut newest_delivered: BTreeMap<String, u64> = BTreeMap::new();
        let mut pushes: Vec<Vec<u64>> = Vec::new();
        let mut outstanding: BTreeSet<u64> = BTreeSet::new();
        let mut snapshot: Vec<u64> = Vec::new();

        macro_rules! deliver {
            ($entries:expr) => {
                for e in $entries {
                    if delivered.insert(e.entry_id.seq) {
                        let newest = newest_delivered.entry(e.name.clone()).or_insert(0);
                        prop_assert!(
                            *newest <= e.entry_id.seq,
                            "{} delivered {} after {}", e.name, e.entry_id.seq, *newest
                        );
                        *newest = e.entry_id.seq;
                    }
                }
            };
        }
        let id_set = |seqs: &[u64]| -> FxHashSet<OpId> {
            seqs.iter().map(|&seq| OpId { client: ClientId(0), seq }).collect()
        };

        // The tail of the script drains the log the way a quiet holder does.
        let drain = (0..400).flat_map(|_| [WindowOp::Push, WindowOp::Ack(u8::MAX)]);
        for op in ops.into_iter().chain(drain) {
            match op {
                WindowOp::Append(name) => {
                    appended += 1;
                    log.append(Rc::new(entry(appended, name)), SimTime::ZERO);
                }
                WindowOp::Push => {
                    let was_open = log.in_flight() == 0;
                    let batch = log.push_batch(mtu, SimTime::ZERO);
                    prop_assert_eq!(batch.len(), log.in_flight());
                    if was_open {
                        let bytes: usize = batch.iter().map(|e| e.wire_size()).sum();
                        prop_assert!(bytes <= mtu || batch.len() == 1);
                        outstanding = batch.iter().map(|e| e.entry_id.seq).collect();
                    } else {
                        // A re-send carries nothing the cut did not.
                        prop_assert!(batch.iter().all(|e| outstanding.contains(&e.entry_id.seq)));
                    }
                    deliver!(&batch);
                    if !batch.is_empty() {
                        pushes.push(batch.iter().map(|e| e.entry_id.seq).collect());
                    }
                }
                WindowOp::Ack(which) => {
                    // `u8::MAX` acknowledges the latest push; anything else
                    // picks an arbitrary earlier one.
                    let pick = match which {
                        u8::MAX => pushes.len().checked_sub(1),
                        w => (w as usize).checked_rem(pushes.len()),
                    };
                    if let Some(i) = pick {
                        log.discard_acked(&id_set(&pushes[i]));
                    }
                }
                WindowOp::AggSnapshot => {
                    let entries = log.snapshot();
                    snapshot = entries.iter().map(|e| e.entry_id.seq).collect();
                    deliver!(&entries);
                }
                WindowOp::AggDiscard => {
                    log.discard_applied(&id_set(&snapshot));
                }
                WindowOp::DiscardOne(which) => {
                    if !log.is_empty() {
                        // Out of band: the owner applied it synchronously,
                        // outside the log's order.
                        let id = log.entries().nth(which as usize % log.len()).map(|e| e.entry_id);
                        let id = id.expect("index in range");
                        delivered.insert(id.seq);
                        prop_assert!(log.discard_one(id));
                    }
                }
            }
            // Nothing leaves the log before the owner has seen it.
            let pending: Vec<u64> = log.entries().map(|e| e.entry_id.seq).collect();
            prop_assert!(pending.windows(2).all(|w| w[0] < w[1]), "log order: {:?}", pending);
            let pending_set: BTreeSet<u64> = pending.iter().copied().collect();
            prop_assert!((1..=appended).all(|s| pending_set.contains(&s) || delivered.contains(&s)));
            prop_assert!(log.in_flight() <= log.len());
            prop_assert_eq!(
                log.pending_bytes(),
                log.entries().map(|e| e.wire_size()).sum::<usize>()
            );
        }
        prop_assert!(log.is_empty(), "{} entries left after the drain", log.len());
        prop_assert_eq!(log.pending_bytes(), 0);
        prop_assert_eq!(delivered.len() as u64, appended);
    }
}

// ---------------------------------------------------------------------------
// A directory's size is its listing, whatever is applied to it (PR 13)
// ---------------------------------------------------------------------------

/// One message to the directory's owner.
#[derive(Debug, Clone)]
enum DirStep {
    /// A change-log push carrying these `(name, insert)` updates as one
    /// batch. A batch names each child once: compaction folds an insert and
    /// a later remove of one name into nothing, which equals replaying them
    /// only when the name was absent before — true of every change-log the
    /// protocol produces (a create checks the inode first), not of an
    /// arbitrary one.
    Push(Vec<(u8, bool)>),
    /// One synchronous remote update.
    Update(u8, bool),
    /// The `{0}`-th earlier message again, verbatim: the same entry ids.
    Resend(u8),
}

fn dir_step() -> impl Strategy<Value = DirStep> {
    prop_oneof![
        proptest::collection::vec((0u8..6, any::<bool>()), 1..5).prop_map(|mut updates| {
            let mut named = BTreeSet::new();
            updates.retain(|(name, _)| named.insert(*name));
            DirStep::Push(updates)
        }),
        (0u8..6, any::<bool>()).prop_map(|(n, i)| DirStep::Update(n, i)),
        any::<u8>().prop_map(DirStep::Resend),
    ]
}

proptest! {
    /// Any sequence of directory updates — inserts over present names,
    /// removes of absent names, re-sent entries (same ids), batched or one by
    /// one — with a crash and recovery of the owner at an arbitrary point,
    /// leaves `statdir` size == `readdir` length == the model's entry count
    /// under every update mode.
    #[test]
    fn directory_size_is_its_listing_under_any_update_sequence(
        steps in proptest::collection::vec(dir_step(), 1..20),
        crash_at in 0usize..20,
    ) {
        use switchfs::core::{Cluster, ClusterConfig, SystemKind};
        use switchfs::proto::message::{Body, NetMsg, PacketSeq, Request, ServerMsg};
        use switchfs::proto::{MetaKey, Placement};
        use switchfs::server::UpdateMode;
        use switchfs::simnet::{Packet, SimDuration};

        for mode in [
            UpdateMode::Synchronous,
            UpdateMode::AsyncNoCompaction,
            UpdateMode::AsyncCompacted,
        ] {
            let mut cfg = ClusterConfig::with_servers(SystemKind::SwitchFs, 3);
            cfg.clients = 1;
            cfg.update_mode_override = Some(mode);
            let mut cluster = Cluster::new(cfg);
            let dir = cluster.preload_dir("/d");
            cluster.preload_files("/d", "n", 3);
            // Preloads bypass the WAL; the checkpoint carries them across
            // the crash.
            cluster.checkpoint_all();
            let mut model: BTreeMap<String, ()> =
                (0..3).map(|i| (format!("n{i}"), ())).collect();

            let dir_key = MetaKey::new(DirId::ROOT, "d");
            let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
            let owner = cluster.placement().dir_owner_by_fp(fp).0 as usize;
            let holder = (owner + 1) % 3;
            let mut next_seq = 0u64;
            let mut entry = |name: u8, insert: bool| {
                next_seq += 1;
                Rc::new(ChangeLogEntry {
                    entry_id: OpId { client: ClientId(9), seq: next_seq },
                    dir,
                    name: format!("n{name}"),
                    op: if insert {
                        ChangeOp::Insert { file_type: FileType::File, mode: 0o644 }
                    } else {
                        ChangeOp::Remove
                    },
                    timestamp: next_seq,
                    size_delta: if insert { 1 } else { -1 },
                })
            };
            let mut sent: Vec<ServerMsg> = Vec::new();
            for (i, step) in steps.iter().enumerate() {
                if i == crash_at {
                    cluster.crash_server(owner);
                    cluster.recover_server(owner);
                }
                let fresh: Vec<Rc<ChangeLogEntry>> = match step {
                    DirStep::Push(updates) => updates.iter().map(|(n, ins)| entry(*n, *ins)).collect(),
                    DirStep::Update(n, ins) => vec![entry(*n, *ins)],
                    DirStep::Resend(_) => Vec::new(),
                };
                // A re-sent entry is suppressed by id; only fresh ones move
                // the model.
                for e in &fresh {
                    match e.op {
                        ChangeOp::Insert { .. } => model.insert(e.name.clone(), ()),
                        ChangeOp::Remove => model.remove(&e.name),
                    };
                }
                let msg = match step {
                    DirStep::Push(_) => ServerMsg::ChangeLogPush {
                        dir_key: dir_key.clone(),
                        entries: fresh,
                        discard_confirm: Vec::new(),
                    },
                    DirStep::Update(..) => ServerMsg::Request {
                        req_id: i as u64,
                        req: Request::RemoteDirUpdate {
                            dir_key: dir_key.clone(),
                            entry: fresh.into_iter().next().expect("one entry"),
                            discard_confirm: Vec::new(),
                        },
                    },
                    DirStep::Resend(which) => match sent.len() {
                        0 => continue,
                        n => sent[*which as usize % n].clone(),
                    },
                };
                sent.push(msg.clone());
                let src = cluster.servers()[holder].node();
                cluster.network().send(Packet {
                    src,
                    dst: cluster.servers()[owner].node(),
                    payload: NetMsg::plain(
                        PacketSeq { sender: src.0, seq: (1 << 40) | i as u64 },
                        Body::Server(msg),
                    ),
                });
                cluster.settle(SimDuration::millis(1));
            }

            let client = cluster.client(0);
            let (stat_size, list_size, names) = cluster.block_on(async move {
                let stat = client.statdir("/d").await.expect("statdir");
                let (attrs, entries) = client.readdir("/d").await.expect("readdir");
                let names: Vec<String> = entries.iter().map(|e| e.name.to_string()).collect();
                (stat.size, attrs.size, names)
            });
            let expected: Vec<String> = model.keys().cloned().collect();
            prop_assert_eq!(&names, &expected, "{:?}: listing", mode);
            prop_assert_eq!(stat_size, expected.len() as u64, "{:?}: statdir size", mode);
            prop_assert_eq!(list_size, expected.len() as u64, "{:?}: readdir attrs size", mode);
        }
    }
}

// ---------------------------------------------------------------------------
// Torn-write crash consistency of the WAL (PR 6)
// ---------------------------------------------------------------------------

proptest! {
    /// Any interleaving of appends and flushes, crashed at any point with
    /// any tear seed, recovers to a checksum-clean LSN-contiguous log that
    /// (a) still contains every flushed record, (b) never resurrects a torn
    /// record, and (c) never reissues a truncated LSN.
    #[test]
    fn torn_tails_always_recover_to_a_clean_flushed_prefix(
        // true = append (with a pseudo-size), false = flush.
        script in proptest::collection::vec(any::<bool>(), 1..120),
        tear_seed in any::<u64>(),
        post_appends in 0usize..8,
    ) {
        use switchfs::kvstore::Wal;

        let mut wal: Wal<u64> = Wal::new();
        for (i, append) in script.iter().enumerate() {
            if *append {
                wal.append_sized(i as u64, 8 + (i as u64 % 64));
            } else {
                wal.flush();
            }
        }
        let flushed = wal.flushed();
        let pre_crash_next = wal.next_lsn();
        let tail = wal.crash_apply(tear_seed);
        prop_assert_eq!(
            tail.kept + tail.torn + tail.dropped,
            wal.records().iter().filter(|r| r.lsn > flushed).count()
                + tail.dropped,
            "every unflushed record drew exactly one fate"
        );
        let report = wal.recover_truncate();
        prop_assert_eq!(report.torn, tail.torn, "every torn record was found and cut");

        // (a) The flushed prefix survived in full, in order.
        let lsns: Vec<u64> = wal.records().iter().map(|r| r.lsn).collect();
        let expect_flushed: Vec<u64> = (1..=flushed).collect();
        prop_assert_eq!(&lsns[..flushed as usize], &expect_flushed[..]);
        // (b) Everything retained verifies and is contiguous.
        prop_assert!(wal.records().iter().all(|r| r.is_intact()));
        prop_assert!(lsns.windows(2).all(|w| w[1] == w[0] + 1));
        // The watermark never points past the retained records.
        prop_assert!(wal.flushed() <= lsns.last().copied().unwrap_or(0).max(flushed));
        // (c) Post-recovery appends never collide with any pre-crash LSN,
        // surviving or truncated, and carry the bumped generation.
        let gen = wal.generation();
        for j in 0..post_appends {
            let lsn = wal.append_sized(1_000 + j as u64, 8);
            prop_assert!(lsn >= pre_crash_next, "LSN {} reused from a torn tail", lsn);
            prop_assert_eq!(wal.records().last().unwrap().generation, gen);
        }
    }
}

// ---------------------------------------------------------------------------
// Epoch-versioned shard map ≡ modulo placement at epoch 0 (PR 4)
// ---------------------------------------------------------------------------

proptest! {
    /// The epoch-0 shard map must be extensionally equal to the historic
    /// `hash % n` placement for every policy, every trait entry point and
    /// every server count — this is what keeps all simulated results
    /// bit-identical after the placement refactor.
    #[test]
    fn epoch0_shard_map_is_extensionally_equal_to_modulo_placement(
        servers in 1usize..24,
        raw_hashes in proptest::collection::vec(any::<u64>(), 1..32),
        names in proptest::collection::vec(any::<u16>(), 1..16),
    ) {
        use switchfs::proto::ids::splitmix64;
        use switchfs::proto::{MetaKey, PartitionPolicy, Placement, ShardMap};

        // The reference: the historic modulo placement, spelled out per
        // entry point so it shares no code with the map under test.
        let modulo = |h: u64| ServerId((h % servers as u64) as u32);
        for policy in [PartitionPolicy::PerFileHash, PartitionPolicy::PerDirectoryHash] {
            let file_owner = |key: &MetaKey| match policy {
                PartitionPolicy::PerFileHash => modulo(key.hash64()),
                _ => modulo(key.pid.hash64()),
            };
            let new = ShardMap::initial(policy, servers);
            prop_assert_eq!(new.epoch(), 0);
            prop_assert_eq!(new.policy(), policy);
            prop_assert_eq!(new.num_servers(), servers);
            for &h in &raw_hashes {
                prop_assert_eq!(new.owner_of_hash(h), modulo(h));
                let id = DirId::generate(ServerId((h % 7) as u32), h);
                prop_assert_eq!(new.dir_owner_by_id(&id), modulo(id.hash64()));
                let fp = Fingerprint::from_raw(h);
                prop_assert_eq!(new.dir_owner_by_fp(fp), modulo(splitmix64(fp.raw())));
            }
            for &n in &names {
                let key = MetaKey::new(DirId::ROOT, format!("f{n}"));
                prop_assert_eq!(new.file_owner(&key), file_owner(&key));
                let nested = MetaKey::new(DirId::generate(ServerId(2), n as u64), format!("g{n}"));
                prop_assert_eq!(new.file_owner(&nested), file_owner(&nested));
            }
        }
    }

    /// Rebalancing after a server addition moves at most the newcomer's
    /// fair share (±1) and leaves the map balanced, for any starting size.
    #[test]
    fn rebalance_moves_only_a_fair_share(servers in 1usize..24) {
        use switchfs::proto::{PartitionPolicy, ShardMap};

        let mut map = ShardMap::initial(PartitionPolicy::PerFileHash, servers);
        let newcomer = map.add_server();
        let moves = map.plan_rebalance();
        let shards = map.num_shards();
        let fair = shards / (servers + 1);
        prop_assert!(moves.len() <= fair + 1, "{} moves > fair share {}", moves.len(), fair);
        prop_assert!(moves.iter().all(|(_, _, to)| *to == newcomer));
        for (shard, from, to) in moves {
            prop_assert_eq!(map.owner_of_shard(shard), from);
            map.assign(shard, to);
        }
        for s in 0..=servers {
            let owned = map.shards_owned(ServerId(s as u32));
            prop_assert!(owned >= fair && owned <= fair + 1,
                "server {} owns {} of {} (fair {})", s, owned, shards, fair);
        }
    }
}

// ---------------------------------------------------------------------------
// The aggregation gate (`switchfs::server::locks::AggGate`) and the lock it
// hands shares of, alone.
// ---------------------------------------------------------------------------

/// One step in the life of a fingerprint group's gate and write lock.
#[derive(Debug, Clone)]
enum GateOp {
    /// A caller arrives: it leads the waiting group (and queues for the
    /// write lock) or follows it (and waits for a share).
    Arrive,
    /// A foreign round's runner (`rmdir`, the proactive loop, recovery)
    /// queues for the write lock: no group, it runs a round when it gets
    /// there.
    ArriveForeign,
    /// The front of the lock's queue notices it was granted the lock: a
    /// leader closes its group and, if the group is served by now, hands
    /// out shares and reads; anyone else starts a round.
    Grant,
    /// The running round ends: a leader hands out shares and reads, the
    /// runner releases the lock.
    Complete,
    /// The server recovers: the gate starts over, dropping the waiting
    /// group and the scan slots. A round that is running keeps running (and
    /// keeps the lock) — abandoned as far as the fresh gate is concerned.
    Reset,
    /// The longest-served reader needs its directory's listing: it scans
    /// it, waits for the hold's scanner or answers from the listing.
    NeedListing,
    /// The oldest scanner's scan ends: it answers, and so do its waiters.
    ScanFinished,
    /// The oldest scanner is dropped mid-scan: its waiters ask again.
    ScannerDropped,
}

fn gate_op() -> impl Strategy<Value = GateOp> {
    // Repeated arms weight the draw: arrivals and grants dominate, resets,
    // foreign rounds and dropped scanners are the rare events they are.
    prop_oneof![
        Just(GateOp::Arrive),
        Just(GateOp::Arrive),
        Just(GateOp::Arrive),
        Just(GateOp::Arrive),
        Just(GateOp::Arrive),
        Just(GateOp::ArriveForeign),
        Just(GateOp::Grant),
        Just(GateOp::Grant),
        Just(GateOp::Grant),
        Just(GateOp::Complete),
        Just(GateOp::Complete),
        Just(GateOp::Complete),
        Just(GateOp::Reset),
        Just(GateOp::NeedListing),
        Just(GateOp::NeedListing),
        Just(GateOp::NeedListing),
        Just(GateOp::ScanFinished),
        Just(GateOp::ScanFinished),
        Just(GateOp::ScannerDropped),
    ]
}

mod gate_model {
    use std::collections::{BTreeMap, VecDeque};
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll, Waker};

    use switchfs::proto::{DirId, ServerId};
    use switchfs::server::locks::{AggGate, Arrival, Lead};
    use switchfs::simnet::sync::classlock::ClassAcquire;
    use switchfs::simnet::sync::oneshot::{Recv, Sender};
    use switchfs::simnet::sync::{ClassGuard, SimClassLock};

    use super::GateOp;

    /// The model is its own executor: a future is polled when a step says
    /// its task runs.
    fn poll<F: Future + ?Sized>(f: Pin<&mut F>) -> Poll<F::Output> {
        f.poll(&mut Context::from_waker(Waker::noop()))
    }

    /// The group has two directories; a caller reads the listing of its
    /// index's parity.
    fn dir_of(caller: usize) -> DirId {
        DirId::generate(ServerId(0), 1 + (caller % 2) as u64)
    }

    /// Who queues for the write lock: a group's leader (a caller, by index)
    /// or a foreign runner.
    enum Who {
        Leader(usize, Lead),
        Foreign,
    }

    /// A party in the lock's queue; `Err` until its acquire resolves.
    struct Queued {
        who: Who,
        hold: Result<ClassGuard, Pin<Box<ClassAcquire>>>,
    }

    /// A round: when it started, its number at the gate that saw it start,
    /// and whether it has completed.
    struct Round {
        started: usize,
        number: u64,
        completed: bool,
    }

    /// The round in progress: its runner's hold and, for a leader, the
    /// leader and its closed group.
    struct Running {
        guard: ClassGuard,
        round: usize,
        group: Option<(usize, u64, Vec<Sender<ClassGuard>>)>,
    }

    /// A served caller holding (a share of) the lock, and the hold it is in.
    struct Reader {
        caller: usize,
        hold: usize,
        _share: ClassGuard,
    }

    /// `Server::aggregated`, `Server::aggregate_group`, the foreign runners
    /// and `Server::scan_in_hold`, one step at a time, over the real gate
    /// and the real lock.
    #[derive(Default)]
    pub struct Model {
        gate: AggGate,
        lock: SimClassLock,
        step: usize,
        /// The step each caller (last) arrived at the gate.
        joined: Vec<usize>,
        left: usize,
        queue: VecDeque<Queued>,
        /// Followers parked at the gate, by caller.
        parked: Vec<(usize, Pin<Box<Recv<ClassGuard>>>)>,
        /// The caller leading the group that waits at the gate, if one does.
        waiting: Option<usize>,
        rounds: Vec<Round>,
        running: Option<Running>,
        last_reset: Option<usize>,
        /// Holds started: leaders' downgrades.
        holds: usize,
        /// Resets so far: a scan belongs to the gate it started at.
        resets: usize,
        /// Served readers that have not asked for their listing yet.
        readers: VecDeque<Reader>,
        /// Readers scanning, with the gate they scan at (resets before).
        scanners: VecDeque<(Reader, usize)>,
        /// Readers waiting for another reader's scan.
        scan_waiters: Vec<(Reader, Pin<Box<Recv<()>>>)>,
        /// Scans finished, by (hold, gate, directory).
        scans: BTreeMap<(usize, usize, DirId), usize>,
        /// Readers that answered or were dropped.
        done: usize,
    }

    impl Model {
        pub fn run(&mut self, op: GateOp) {
            self.step += 1;
            match op {
                GateOp::Arrive => {
                    self.joined.push(self.step);
                    self.arrive(self.joined.len() - 1);
                }
                GateOp::ArriveForeign => self.enqueue(Who::Foreign),
                GateOp::Grant => self.grant(),
                GateOp::Complete => self.complete(),
                GateOp::Reset => {
                    self.gate = AggGate::default();
                    self.waiting = None;
                    self.last_reset = Some(self.step);
                    self.resets += 1;
                }
                GateOp::NeedListing => {
                    if let Some(reader) = self.readers.pop_front() {
                        self.ask(reader);
                    }
                }
                GateOp::ScanFinished => self.scan_ended(true),
                GateOp::ScannerDropped => self.scan_ended(false),
            }
            self.wake_followers();
            self.wake_scan_waiters();
            if matches!(op, GateOp::Reset) {
                // A reset makes followers rejoin: whoever is still parked
                // arrived again in this step, or belongs to the closed group
                // of the round in progress and leaves when that ends.
                let closed = self.running.as_ref().and_then(|r| r.group.as_ref());
                let rejoined = self
                    .parked
                    .iter()
                    .filter(|(c, _)| self.joined[*c] == self.step);
                assert_eq!(
                    self.parked.len(),
                    rejoined.count() + closed.map_or(0, |g| g.2.len())
                );
            }
            // Nobody waits on a slot whose scanner is gone — dropped, or
            // scanning at a gate a reset replaced.
            for (waiter, _) in &self.scan_waiters {
                assert!(
                    self.scanners.iter().any(|(s, gate)| *gate == self.resets
                        && s.hold == waiter.hold
                        && dir_of(s.caller) == dir_of(waiter.caller)),
                    "step {}: caller {} waits for a scan nobody runs",
                    self.step,
                    waiter.caller
                );
            }
        }

        fn arrive(&mut self, caller: usize) {
            match self.gate.arrive() {
                Arrival::Lead(lead) => {
                    assert!(
                        self.waiting.is_none(),
                        "step {}: a second group waits",
                        self.step
                    );
                    self.waiting = Some(caller);
                    self.enqueue(Who::Leader(caller, lead));
                }
                Arrival::Follow(rx) => {
                    assert!(
                        self.waiting.is_some(),
                        "step {}: nobody to follow",
                        self.step
                    );
                    self.parked.push((caller, Box::pin(rx.recv())));
                }
            }
        }

        fn enqueue(&mut self, who: Who) {
            let mut acquire = Box::pin(self.lock.write());
            let hold = match poll(acquire.as_mut()) {
                Poll::Ready(guard) => Ok(guard),
                Poll::Pending => Err(acquire),
            };
            self.queue.push_back(Queued { who, hold });
        }

        /// Readers holding (a share of) the lock.
        fn reading(&self) -> usize {
            self.readers.len() + self.scanners.len() + self.scan_waiters.len()
        }

        fn grant(&mut self) {
            if self.running.is_some() {
                return; // the lock is held
            }
            let Some(front) = self.queue.front_mut() else {
                return;
            };
            if let Err(acquire) = &mut front.hold {
                match poll(acquire.as_mut()) {
                    Poll::Ready(guard) => front.hold = Ok(guard),
                    // No round runs: only readers can hold the lock.
                    Poll::Pending if self.reading() > 0 => return,
                    Poll::Pending => {
                        panic!("step {}: the lock is free and not granted", self.step)
                    }
                }
            }
            let Some(Queued {
                who,
                hold: Ok(mut guard),
            }) = self.queue.pop_front()
            else {
                unreachable!("the front was granted the lock");
            };
            let group = match who {
                Who::Leader(caller, lead) => {
                    if self.waiting == Some(caller) {
                        self.waiting = None;
                    }
                    let (ticket, followers) = self.gate.close(&lead);
                    if self.gate.served(ticket) {
                        self.leave(caller);
                        guard.downgrade();
                        self.start_hold(caller, guard, followers);
                        return;
                    }
                    self.left += 1; // leaves with a round of its own
                    Some((caller, ticket, followers))
                }
                Who::Foreign => None,
            };
            assert!(
                !self.gate.round_running(),
                "step {}: a second round starts",
                self.step
            );
            let number = self.gate.round_started();
            self.rounds.push(Round {
                started: self.step,
                number,
                completed: false,
            });
            self.running = Some(Running {
                guard,
                round: self.rounds.len() - 1,
                group,
            });
        }

        fn complete(&mut self) {
            let Some(Running {
                mut guard,
                round,
                group,
            }) = self.running.take()
            else {
                return;
            };
            let straddled = self
                .last_reset
                .is_some_and(|r| r > self.rounds[round].started);
            let was_running = self.gate.round_running();
            self.gate.round_completed(self.rounds[round].number);
            self.rounds[round].completed = true;
            // A round that straddled a reset does not move the fresh gate.
            assert_eq!(self.gate.round_running(), straddled && was_running);
            guard.downgrade();
            if let Some((caller, ticket, followers)) = group {
                let served = self.gate.served(ticket);
                if served {
                    assert!(!straddled, "step {}: served across a reset", self.step);
                } else {
                    // Dropped followers arrive again; only a reset does that.
                    assert!(straddled || followers.is_empty());
                }
                let followers = if served { followers } else { Vec::new() };
                self.start_hold(caller, guard, followers);
            }
        }

        /// A leader downgraded its hold: the gate's scan slots start over,
        /// every follower gets a share and the leader reads.
        fn start_hold(
            &mut self,
            leader: usize,
            guard: ClassGuard,
            followers: Vec<Sender<ClassGuard>>,
        ) {
            self.gate.hold_started();
            self.holds += 1;
            followers
                .into_iter()
                .for_each(|f| drop(f.send(guard.share())));
            self.read(leader, guard);
        }

        fn read(&mut self, caller: usize, share: ClassGuard) {
            self.readers.push_back(Reader {
                caller,
                hold: self.holds,
                _share: share,
            });
        }

        /// Runs every parked follower whose channel has news: a share (it
        /// leaves and reads) or a dropped sender (it arrives again).
        fn wake_followers(&mut self) {
            for (caller, mut recv) in std::mem::take(&mut self.parked) {
                match poll(recv.as_mut()) {
                    Poll::Pending => self.parked.push((caller, recv)),
                    Poll::Ready(Ok(share)) => {
                        self.leave(caller);
                        self.read(caller, share);
                    }
                    Poll::Ready(Err(_)) => {
                        assert!(
                            self.last_reset.is_some_and(|r| r > self.joined[caller]),
                            "step {}: a group was dropped without a reset",
                            self.step
                        );
                        self.joined[caller] = self.step;
                        self.arrive(caller);
                    }
                }
            }
        }

        /// `caller` leaves holding (a share of) the lock: a round that
        /// started after it arrived must have completed.
        fn leave(&mut self, caller: usize) {
            let joined = self.joined[caller];
            assert!(
                self.rounds
                    .iter()
                    .any(|r| r.started > joined && r.completed),
                "step {}: caller {caller} (arrived at {joined}) is served, but no round that \
                 started after it arrived has completed",
                self.step
            );
            self.left += 1;
        }

        /// A reader asks the gate for its listing.
        fn ask(&mut self, reader: Reader) {
            match self.gate.scan(dir_of(reader.caller)) {
                None => self.scanners.push_back((reader, self.resets)),
                Some(rx) => self.scan_waiters.push((reader, Box::pin(rx.recv()))),
            }
        }

        /// A reader answers from the listing without scanning it.
        fn answer(&mut self, reader: Reader) {
            let dir = dir_of(reader.caller);
            assert!(
                self.scans.contains_key(&(reader.hold, self.resets, dir)),
                "step {}: caller {} answered from directory {}'s listing before hold {}'s scan of \
                 it ended",
                self.step,
                reader.caller,
                reader.caller % 2,
                reader.hold
            );
            self.done += 1;
        }

        fn scan_ended(&mut self, done: bool) {
            let Some((reader, gate)) = self.scanners.pop_front() else {
                return;
            };
            let dir = dir_of(reader.caller);
            // As `Server::scan_in_hold` does: a scan that started at a gate a
            // reset replaced reports nothing.
            if gate == self.resets {
                self.gate.scan_ended(dir, done);
            }
            if done {
                let scans = self.scans.entry((reader.hold, gate, dir)).or_default();
                *scans += 1;
                assert_eq!(
                    *scans,
                    1,
                    "step {}: hold {} scanned directory {} twice",
                    self.step,
                    reader.hold,
                    reader.caller % 2
                );
            }
            self.done += 1;
        }

        /// Runs every reader waiting for a scan whose channel has news: the
        /// scan ended (it answers) or the scanner is gone (it asks again).
        fn wake_scan_waiters(&mut self) {
            for (reader, mut recv) in std::mem::take(&mut self.scan_waiters) {
                match poll(recv.as_mut()) {
                    Poll::Pending => self.scan_waiters.push((reader, recv)),
                    Poll::Ready(Ok(())) => self.answer(reader),
                    Poll::Ready(Err(_)) => self.ask(reader),
                }
            }
        }

        pub fn busy(&self) -> bool {
            self.running.is_some() || !self.queue.is_empty() || self.reading() > 0
        }

        pub fn assert_everybody_left(&self) {
            assert!(self.parked.is_empty(), "followers outlived their leaders");
            assert_eq!(self.left, self.joined.len(), "every caller must leave");
            assert_eq!(self.reading(), 0, "a reader is parked");
            assert_eq!(self.done, self.joined.len(), "every caller must read");
            assert_eq!((self.lock.holders(), self.lock.waiters()), (0, 0));
        }
    }
}

proptest! {
    /// For any interleaving of arrivals, lock grants, round ends, resets and
    /// the served readers' listing scans: nobody is handed the lock — a
    /// leader past its skipped round, a follower its share — before a round
    /// that started after it arrived has completed; at most one group waits
    /// at the gate; the gate never shows more than one round running and a
    /// round that straddles a reset serves nobody; a reset makes followers
    /// arrive again; a hold scans each listing at most once, and no reader
    /// answers from a listing before its hold's scan of it ended; a reset or
    /// a dropped scanner leaves nobody waiting for a scan; and everybody
    /// reads and leaves, with the lock free behind them.
    #[test]
    fn aggregation_gate_serves_only_rounds_started_after_arrival(
        ops in proptest::collection::vec(gate_op(), 1..300),
    ) {
        let mut model = gate_model::Model::default();
        for op in ops {
            model.run(op);
        }
        // Drain: grant, complete, read and scan until everybody left.
        while model.busy() {
            model.run(GateOp::Grant);
            model.run(GateOp::Complete);
            model.run(GateOp::NeedListing);
            model.run(GateOp::ScanFinished);
        }
        model.assert_everybody_left();
    }
}
