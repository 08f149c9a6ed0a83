//! The hot-directory write path, end to end.
//!
//! Two properties of one mechanism — many servers holding deferred updates
//! for a directory while its owner collects them:
//!
//! 1. **Concurrent owners.** Aggregation ids are per-owner counters. When two
//!    directory owners aggregate at once with equal ids, a holder must not
//!    take one owner's acknowledgment for the other's: it would discard
//!    entries their owner has not applied yet, and the directory loses
//!    updates with no fault injected.
//! 2. **Intra-server scaling.** Creates into one directory are not a
//!    per-server critical section: throughput follows the core count, and a
//!    single hot directory is not far behind many cold ones (Fig. 12, 14).
//!
//! And the read side of the same directory:
//!
//! 3. **Shared aggregation rounds.** Directory reads that find the directory
//!    scattered share the rounds that aggregate it instead of running one
//!    each, and a shared round is as fresh as a round of one's own: a read
//!    sees every update acknowledged before it was issued, with any number
//!    of reads and updates in flight — also across a crash of the owner
//!    with reads waiting for a round. A read waits for one round, not two:
//!    the round that serves it hands it a share of its hold, so on the wire
//!    at most one aggregation request leaves the owner between a read's
//!    arrival and its reply. The readdirs of one hold share one scan of the
//!    listing, which no one can change under the hold; a readdir that no
//!    round served scans for itself.
//!
//! And what a round and a push cost the owner:
//!
//! 4. **A round applies its entries on every core.** The group lock is held
//!    for a quarter of the entries' apply-and-put time on a 4-core owner,
//!    not for a serial put per entry — and the holders are acknowledged
//!    when the batch is durable, before that time is charged. A lone
//!    synchronous update (an Emulated-CFS create into another server's
//!    directory, a `chmod`) takes exactly the sum of its steps: a record's
//!    append and puts are charged once, by the code that logs it.
//! 5. **Pushes that carry nothing are not sent.** A holder re-sends an
//!    unacknowledged batch at the pace of a retransmission, not of the scan
//!    tick; the exchange still terminates when copies are lost; and no push
//!    leaves a holder while a round has its change-log.
//! 6. **A rename's directory half takes a round and a record per
//!    directory.** Within one directory its removal and insertion share one
//!    round and one record; across two, each directory gets one of each.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use switchfs::core::{Cluster, ClusterConfig, SystemKind};
use switchfs::proto::message::{Body, NetMsg, OpResult, ServerMsg};
use switchfs::proto::{DirId, Fingerprint, FsError, MetaKey, OpId, Placement, ServerId};
use switchfs::server::{KvEffect, WalOp};
use switchfs::simnet::net::LinkParams;
use switchfs::simnet::{
    Fanout, NetFaults, NodeId, Packet, SimDuration, SimHandle, SimTime, SwitchLogic,
};
use switchfs::switch::SwitchFsProgram;
use switchfs::workloads::{NamespaceSpec, OpKind, WorkItem, WorkloadBuilder};

/// splitmix64: the test's own generator, so its inputs do not move with the
/// workload crate's.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[test]
fn owners_aggregating_at_once_lose_no_update() {
    // Enough directories that every server owns several: the loss needs a
    // holder to take another owner's acknowledgment for owner A's
    // aggregation (equal ids), *and* the resulting premature discard
    // confirmation to reach A — riding on the holder's reply to another of
    // A's aggregations — before A has applied what it collected. With 64
    // directories at uniform load 7 of these 8 seeds lost updates before
    // the fix; with two directories none did.
    const DIRS: usize = 64;
    const PRELOADED: usize = 64;
    const OPS: usize = 8_000;
    for seed in 0..8u64 {
        let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
        cfg.seed = seed;
        let mut cluster = Cluster::new(cfg);
        let dirs: Vec<String> = (0..DIRS).map(|d| format!("/d{d}")).collect();
        for dir in &dirs {
            cluster.preload_dir(dir);
            cluster.preload_files(dir, "old", PRELOADED);
        }
        let owners: BTreeSet<_> = dirs
            .iter()
            .map(|dir| {
                let fp = Fingerprint::of_dir(&DirId::ROOT, &dir[1..]);
                cluster.placement().dir_owner_by_fp(fp)
            })
            .collect();
        assert!(owners.len() >= 2, "the directories need different owners");

        // Every op has one legal outcome whatever the interleaving: creates
        // use fresh names, each preloaded file is deleted at most once and
        // touched by nothing else. Ops and directories are drawn uniformly.
        let mut rng = seed ^ 0x5eed;
        let mut created = [0usize; DIRS];
        let mut deleted = [0usize; DIRS];
        let items: Vec<WorkItem> = (0..OPS)
            .map(|i| {
                let d = (next(&mut rng) % DIRS as u64) as usize;
                match next(&mut rng) % 4 {
                    0 if deleted[d] < PRELOADED => {
                        deleted[d] += 1;
                        let victim = deleted[d] - 1;
                        WorkItem::new(OpKind::Delete, format!("{}/old{victim}", dirs[d]))
                    }
                    0 | 1 => {
                        created[d] += 1;
                        WorkItem::new(OpKind::Create, format!("{}/new{i}", dirs[d]))
                    }
                    2 => WorkItem::new(OpKind::Statdir, dirs[d].clone()),
                    _ => WorkItem::new(OpKind::Readdir, dirs[d].clone()),
                }
            })
            .collect();
        let report = cluster.run_workload(items, 256, None);
        assert_eq!(report.errors, 0, "seed {seed}: every op is legal");

        let client = cluster.client(0);
        for (d, dir) in dirs.iter().enumerate() {
            let expect = PRELOADED + created[d] - deleted[d];
            let (client, dir) = (client.clone(), dir.clone());
            let (size, listed) = cluster.block_on(async move {
                let size = client.statdir(&dir).await.expect("statdir").size;
                let listed = client.readdir(&dir).await.expect("readdir").1.len();
                (size as usize, listed)
            });
            assert_eq!(
                (size, listed),
                (expect, expect),
                "seed {seed}, directory {d}: (statdir size, listed entries) vs the model"
            );
        }
    }
}

/// SwitchFS create throughput (Kops/s) at 256 in flight on 8 servers.
fn create_kops(cores: usize, ns: NamespaceSpec) -> f64 {
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 8;
    cfg.cores_per_server = cores;
    cfg.clients = 4;
    let mut cluster = Cluster::new(cfg);
    for d in 0..ns.dirs {
        cluster.preload_dir(&ns.dir_path(d));
    }
    let items = WorkloadBuilder::new(ns, 3).uniform(OpKind::Create, 20_000);
    let report = cluster.run_workload(items, 256, None);
    assert_eq!(report.errors, 0);
    report.kops
}

#[test]
fn single_directory_creates_scale_with_cores_and_track_many_directories() {
    let hot = |cores| create_kops(cores, NamespaceSpec::single_large_dir(0));
    let (two, four, six) = (hot(2), hot(4), hot(6));
    assert!(
        six >= 2.5 * two,
        "one hot directory must scale with cores: {two:.0} Kops/s at 2 cores, {six:.0} at 6"
    );
    let many = create_kops(4, NamespaceSpec::multi_dir(64, 0));
    assert!(
        four >= 0.6 * many,
        "one hot directory at 4 cores ({four:.0} Kops/s) vs 64 directories ({many:.0})"
    );
}

/// What the clients of [`HotDir`] know about the directory's updates: when
/// each was issued and when it was acknowledged (virtual ns).
#[derive(Default)]
struct Updates {
    /// `new{k}` is created by update `k` of this list.
    creates: Vec<(u64, Option<u64>)>,
    /// `old{j}` is deleted by update `j` of this list.
    deletes: Vec<(u64, Option<u64>)>,
}

/// One directory `/hot` with `PRELOADED` files `old{j}`, written and read by
/// every client at once.
struct HotDir {
    handle: SimHandle,
    updates: RefCell<Updates>,
    /// Reads checked against the model.
    reads: Cell<usize>,
    /// Writers stop issuing once this is set.
    readers_done: Cell<bool>,
}

const PRELOADED: usize = 256;

impl HotDir {
    fn now(&self) -> u64 {
        self.handle.now().as_nanos()
    }

    /// Streams creates of fresh names and deletes of preloaded files (each
    /// once) until the readers are done. Every update has one legal outcome.
    async fn write(self: Rc<Self>, client: Rc<switchfs::client::LibFs>) {
        while !self.readers_done.get() {
            let delete = {
                let u = self.updates.borrow();
                u.creates.len() % 3 == 2 && u.deletes.len() < PRELOADED
            };
            let issued = self.now();
            if delete {
                let j = {
                    let mut u = self.updates.borrow_mut();
                    u.deletes.push((issued, None));
                    u.deletes.len() - 1
                };
                client
                    .delete(&format!("/hot/old{j}"))
                    .await
                    .expect("delete");
                self.updates.borrow_mut().deletes[j].1 = Some(self.now());
            } else {
                let k = {
                    let mut u = self.updates.borrow_mut();
                    u.creates.push((issued, None));
                    u.creates.len() - 1
                };
                client
                    .create(&format!("/hot/new{k}"))
                    .await
                    .expect("create");
                self.updates.borrow_mut().creates[k].1 = Some(self.now());
            }
        }
    }

    /// One `statdir` or `readdir`, re-issued while the owner is recovering,
    /// checked for freshness: everything acknowledged before the read was
    /// issued is in it, nothing issued after it returned is.
    async fn read_once(&self, client: &switchfs::client::LibFs, listing: bool) {
        loop {
            let issued = self.now();
            let result = if listing {
                client
                    .readdir("/hot")
                    .await
                    .map(|(attrs, entries)| (attrs.size, Some(entries)))
            } else {
                client.statdir("/hot").await.map(|attrs| (attrs.size, None))
            };
            let (size, entries) = match result {
                Ok(read) => read,
                // The retransmission reached the owner mid-recovery.
                Err(FsError::Unavailable) => continue,
                Err(e) => panic!("directory read failed: {e:?}"),
            };
            let returned = self.now();
            let u = self.updates.borrow();
            let acked_before = |list: &[(u64, Option<u64>)]| {
                list.iter()
                    .filter(|(_, ack)| ack.is_some_and(|a| a < issued))
                    .count()
            };
            let issued_by =
                |list: &[(u64, Option<u64>)]| list.iter().filter(|(at, _)| *at <= returned).count();
            let lo = PRELOADED + acked_before(&u.creates) - issued_by(&u.deletes);
            let hi = PRELOADED + issued_by(&u.creates) - acked_before(&u.deletes);
            assert!(
                (lo..=hi).contains(&(size as usize)),
                "read issued at {issued} ns, returned at {returned} ns: size {size} outside [{lo}, {hi}]"
            );
            if let Some(entries) = entries {
                assert_eq!(entries.len() as u64, size, "listing vs size of one reply");
                let listed: BTreeSet<&str> = entries.iter().map(|e| e.name.as_str()).collect();
                for (k, (at, ack)) in u.creates.iter().enumerate() {
                    let name = format!("new{k}");
                    if ack.is_some_and(|a| a < issued) {
                        assert!(
                            listed.contains(name.as_str()),
                            "{name} was acknowledged before the read was issued"
                        );
                    }
                    if *at > returned {
                        assert!(
                            !listed.contains(name.as_str()),
                            "{name} was issued after the read returned"
                        );
                    }
                }
                for (j, (at, ack)) in u.deletes.iter().enumerate() {
                    let name = format!("old{j}");
                    if ack.is_some_and(|a| a < issued) {
                        assert!(
                            !listed.contains(name.as_str()),
                            "{name}'s delete was acknowledged before the read was issued"
                        );
                    }
                    if *at > returned {
                        assert!(
                            listed.contains(name.as_str()),
                            "{name}'s delete was issued after the read returned"
                        );
                    }
                }
            }
            self.reads.set(self.reads.get() + 1);
            return;
        }
    }
}

/// Builds the cluster, keeps `readers` directory reads (alternately
/// `statdir` and `readdir`, `reads_each` per reader) and two writers per
/// client in flight on `/hot`, runs `nemesis` beside them, and returns the
/// cluster and the number of reads checked.
fn drive_hot_dir<N, F>(readers: usize, reads_each: usize, nemesis: N) -> (Cluster, usize)
where
    N: FnOnce(&Cluster, Rc<HotDir>) -> F,
    F: std::future::Future<Output = ()> + 'static,
{
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.clients = 4;
    let mut cluster = Cluster::new(cfg);
    cluster.preload_dir("/hot");
    cluster.preload_files("/hot", "old", PRELOADED);
    // Preloads bypass the WAL; the checkpoint lets them survive a crash.
    cluster.checkpoint_all();
    let handle = cluster.sim.handle();
    let hot = Rc::new(HotDir {
        handle: handle.clone(),
        updates: RefCell::default(),
        reads: Cell::new(0),
        readers_done: Cell::new(false),
    });
    let clients: Vec<_> = cluster.clients().to_vec();
    let nemesis = nemesis(&cluster, hot.clone());
    let hot2 = hot.clone();
    cluster.block_on(async move {
        let hot = hot2;
        let mut writers = Vec::new();
        for client in clients.iter().flat_map(|c| [c.clone(), c.clone()]) {
            writers.push(handle.spawn_with_result(hot.clone().write(client)));
        }
        let nemesis = handle.spawn_with_result(nemesis);
        let mut reading = Vec::new();
        for r in 0..readers {
            let (hot, client) = (hot.clone(), clients[r % clients.len()].clone());
            reading.push(handle.spawn_with_result(async move {
                for i in 0..reads_each {
                    hot.read_once(&client, (r + i) % 2 == 0).await;
                }
            }));
        }
        for r in reading {
            r.join().await;
        }
        hot.readers_done.set(true);
        for w in writers {
            w.join().await;
        }
        nemesis.join().await;
    });
    let reads = hot.reads.get();
    (cluster, reads)
}

/// After the run has settled nothing waits at any fingerprint-group lock
/// (where the callers of an aggregation gate wait) and no token-matched
/// exchange is open.
fn assert_settled(cluster: &Cluster) {
    cluster.settle(SimDuration::millis(5));
    for (i, server) in cluster.servers().iter().enumerate() {
        let tables = server.tables();
        assert_eq!(
            tables.fp_group_waiters, 0,
            "server {i}: waiters at a group lock"
        );
        assert_eq!(tables.pending_tokens, 0, "server {i}: open exchanges");
    }
}

#[test]
fn concurrent_reads_of_a_written_directory_share_rounds_and_stay_fresh() {
    const READERS: usize = 64;
    let (cluster, reads) = drive_hot_dir(READERS, 24, |_, _| async {});
    assert_eq!(reads, READERS * 24);
    // Creates stream in for the whole run, so practically every read finds
    // the directory scattered; a round per read is what sharing removes.
    let aggregations = cluster.total_server_stats().aggregations as usize;
    assert!(
        aggregations * 4 <= reads,
        "{aggregations} aggregations for {reads} reads of a scattered directory"
    );
    assert_settled(&cluster);
}

#[test]
fn reads_waiting_for_a_round_survive_a_crash_of_the_owner() {
    const READERS: usize = 64;
    let waiting_at_crash = Rc::new(Cell::new(0usize));
    let seen = waiting_at_crash.clone();
    let (cluster, reads) = drive_hot_dir(READERS, 12, move |cluster, hot| {
        let fp = Fingerprint::of_dir(&DirId::ROOT, "hot");
        let owner = cluster.placement().dir_owner_by_fp(fp).0 as usize;
        let server = cluster.servers()[owner].clone();
        let (network, node) = (cluster.network(), cluster.servers()[owner].node());
        async move {
            // Crash the owner the moment reads are queued behind a round.
            while server.tables().fp_group_waiters < 8 {
                hot.handle.sleep(SimDuration::micros(5)).await;
            }
            seen.set(server.tables().fp_group_waiters);
            server.crash();
            network.set_node_down(node, true);
            hot.handle.sleep(SimDuration::micros(400)).await;
            network.set_node_down(node, false);
            server.recover().await;
        }
    });
    assert!(
        waiting_at_crash.get() >= 8,
        "the crash must catch reads waiting"
    );
    // Every read came back — through the client's retransmissions — and
    // passed the freshness check.
    assert_eq!(reads, READERS * 12);
    assert_settled(&cluster);
}

/// The server-to-server messages the tests below watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    /// An asynchronous commit on its way to be mirrored: a create or delete
    /// whose deferred update the sender has just appended.
    Commit,
    Push,
    AggRequest,
    /// `(owner's node, aggregation id)` names the round.
    AggEntries(NodeId, u64),
    AggAck(NodeId, u64),
    /// A `statdir` or `readdir` on its way to the directory's owner, and the
    /// reply (attributes or a listing) on its way back.
    DirRead(OpId),
    DirReply(OpId),
}

/// A packet of interest as it crossed the switch: a link latency after its
/// sender put it on the wire, a switch and a link latency before it arrives.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    at: SimTime,
    src: NodeId,
    dst: NodeId,
    seen: Seen,
}

type TapLog = Rc<RefCell<Vec<Crossing>>>;

/// The cluster's switch program with a tap in front: records the messages of
/// [`Seen`] and, on request, loses every push.
struct Tap {
    program: Rc<RefCell<SwitchFsProgram>>,
    log: TapLog,
    lose_pushes: bool,
}

impl Tap {
    /// Puts a tap that writes to `log` in front of `cluster`'s switch program.
    fn install(cluster: &Cluster, log: &TapLog, lose_pushes: bool) {
        cluster.network().install_switch(Box::new(Tap {
            program: cluster.switch_program().expect("in-network tracking"),
            log: log.clone(),
            lose_pushes,
        }));
    }
}

impl SwitchLogic<NetMsg> for Tap {
    fn process(&mut self, now: SimTime, pkt: Packet<NetMsg>) -> Fanout<(NodeId, NetMsg)> {
        let seen = match &pkt.payload.body {
            Body::Server(ServerMsg::AsyncCommit { .. }) => Some(Seen::Commit),
            Body::Server(ServerMsg::ChangeLogPush { .. }) => Some(Seen::Push),
            Body::Server(ServerMsg::AggregationRequest { .. }) => Some(Seen::AggRequest),
            Body::Server(ServerMsg::AggregationEntries { agg_id, .. }) => {
                Some(Seen::AggEntries(pkt.dst, *agg_id))
            }
            Body::Server(ServerMsg::AggregationAck { agg_id }) => {
                Some(Seen::AggAck(pkt.src, *agg_id))
            }
            Body::Request(req) if req.op.is_dir_read() => Some(Seen::DirRead(req.op_id)),
            Body::Response(resp)
                if matches!(resp.result, OpResult::Attrs(_) | OpResult::Listing { .. }) =>
            {
                Some(Seen::DirReply(resp.op_id))
            }
            _ => None,
        };
        if let Some(seen) = seen {
            self.log.borrow_mut().push(Crossing {
                at: now,
                src: pkt.src,
                dst: pkt.dst,
                seen,
            });
            if seen == Seen::Push && self.lose_pushes {
                return Fanout::default();
            }
        }
        self.program.process(now, pkt)
    }
}

/// `entries` creates into `/hot` whose pushes are all lost: they stay in
/// their holders' change-logs, the directory stays scattered and the owner
/// is idle. Returns the cluster and what crosses the switch.
fn scattered(entries: usize) -> (Cluster, TapLog) {
    let mut cluster = Cluster::new(ClusterConfig::paper_default(SystemKind::SwitchFs));
    cluster.preload_dir("/hot");
    let log = TapLog::default();
    Tap::install(&cluster, &log, true);
    let creates = (0..entries)
        .map(|i| WorkItem::new(OpKind::Create, format!("/hot/f{i}")))
        .collect();
    assert_eq!(cluster.run_workload(creates, 64, None).errors, 0);
    (cluster, log)
}

/// The [`scattered`] scene, then one `statdir`, whose round collects and
/// applies every entry.
fn one_round_of(entries: usize) -> (Cluster, TapLog) {
    let (cluster, log) = scattered(entries);
    let client = cluster.client(0);
    let size = cluster.block_on(async move { client.statdir("/hot").await.expect("statdir").size });
    assert_eq!(size as usize, entries);
    let stats = cluster.total_server_stats();
    assert_eq!(
        (stats.aggregations, stats.entries_applied as usize),
        (1, entries),
        "one round applied every entry"
    );
    (cluster, log)
}

#[test]
fn a_round_holds_the_group_lock_for_a_cores_share_of_its_entries() {
    const ENTRIES: usize = 1_000;
    let (cluster, log) = one_round_of(ENTRIES);
    // The owner holds the group's lock from just before the request leaves
    // until the read that ran the round is answered: the acknowledgments
    // leave earlier, when the batch is durable.
    let log = log.borrow();
    let requested = log.iter().find(|c| c.seen == Seen::AggRequest);
    let replied = log.iter().rfind(|c| matches!(c.seen, Seen::DirReply(_)));
    let held = match (requested, replied) {
        (Some(requested), Some(replied)) => replied.at.duration_since(requested.at),
        _ => panic!("the round sent a request and the read was answered"),
    };
    let costs = cluster.servers()[0].costs();
    let cores = cluster.config().cores_per_server;
    // Request out, snapshot, entries back: three link pairs and a handler.
    let collection = SimDuration::micros(10);
    let bound = (costs.entry_apply + costs.kv_put) * ENTRIES.div_ceil(cores) as u64
        + costs.wal_append
        + costs.kv_put
        + collection;
    assert!(
        held <= bound,
        "a round of {ENTRIES} entries held the group lock {held:?}, bound {bound:?}"
    );
    assert!(
        held >= (costs.entry_apply + costs.kv_put) * (ENTRIES / cores) as u64,
        "the read was answered after {held:?}: before the apply was charged"
    );
}

#[test]
fn a_lone_synchronous_update_takes_exactly_the_sum_of_its_steps() {
    let mut cluster = Cluster::new(ClusterConfig::paper_default(SystemKind::EmulatedCfs));
    let dir = cluster.preload_dir("/sync");
    let placement = cluster.placement();
    let owner = placement.dir_content_owner(Fingerprint::of_dir(&DirId::ROOT, "sync"), &dir);
    // A file whose inode lives on another server than its parent's content.
    let path = (0..)
        .map(|i| format!("f{i}"))
        .find(|name| placement.file_owner(&MetaKey::new(dir, name.as_str())) != owner)
        .map(|name| format!("/sync/{name}"))
        .unwrap();
    let (client, handle) = (cluster.client(0), cluster.sim.handle());
    let (create, chmod) = cluster.block_on(async move {
        // A first create resolves the parent, so that each operation below
        // is one request.
        client.create("/sync/warm").await.expect("create");
        let start = handle.now();
        client.create(&path).await.expect("create");
        let created = handle.now();
        client.chmod(&path, 0o600).await.expect("chmod");
        (
            created.duration_since(start),
            handle.now().duration_since(created),
        )
    });
    let costs = cluster.servers()[0].costs();
    let LinkParams {
        link_latency,
        switch_latency,
    } = LinkParams::default();
    // Host to switch, the switch, switch to host.
    let hop = link_latency * 2 + switch_latency;
    // The file's server: two locks and a read, then the inode's record.
    let file_half =
        costs.software_path + costs.lock_op * 2 + costs.kv_get + costs.wal_append + costs.kv_put;
    // The parent's owner, under its group lock: a lock and a read, then one
    // record of the entry and the directory's attributes, charged once.
    let parent_half =
        costs.software_path + costs.lock_op + costs.kv_get + costs.wal_append + costs.kv_put * 2;
    assert_eq!(
        create,
        hop * 4 + file_half + parent_half,
        "client → file's server → parent's owner and back"
    );
    let chmod_steps =
        costs.software_path + costs.lock_op + costs.kv_get + costs.wal_append + costs.kv_put;
    assert_eq!(
        chmod,
        hop * 2 + chmod_steps,
        "client → file's server and back"
    );
}

#[test]
fn a_round_walks_the_owners_wal_no_further_back_than_its_oldest_local_entry() {
    const COLD: usize = 1_600;
    const HOT: usize = 200;
    let mut cluster = Cluster::new(ClusterConfig::paper_default(SystemKind::SwitchFs));
    cluster.preload_dir("/cold");
    cluster.preload_dir("/hot");
    // Every push is lost: entries stay with their holders until a read's
    // round collects them.
    Tap::install(&cluster, &TapLog::default(), true);
    let fill_and_read = |dir: &str, files: usize| {
        let creates = (0..files)
            .map(|i| WorkItem::new(OpKind::Create, format!("{dir}/f{i}")))
            .collect();
        assert_eq!(cluster.run_workload(creates, 64, None).errors, 0);
        let pending: Vec<usize> = cluster
            .servers()
            .iter()
            .map(|s| s.tables().pending_changelog_entries)
            .collect();
        let (client, dir) = (cluster.client(0), dir.to_string());
        let size =
            cluster.block_on(async move { client.statdir(&dir).await.expect("statdir").size });
        assert_eq!(size as usize, files);
        pending
    };
    // A long prefix of applied records on every server.
    fill_and_read("/cold", COLD);
    let wal_at = |i: usize| {
        let durable = cluster.servers()[i].durable();
        let durable = durable.borrow();
        (durable.wal.next_lsn(), durable.wal.mark_visits())
    };
    let before: Vec<(u64, u64)> = (0..cluster.servers().len()).map(wal_at).collect();
    let pending = fill_and_read("/hot", HOT);
    let owner = cluster
        .placement()
        .dir_owner_by_fp(Fingerprint::of_dir(&DirId::ROOT, "hot"))
        .0 as usize;
    assert!(
        pending[owner] > 0 && pending[owner] < HOT,
        "the owner's round applies entries of its own and remote ones: {pending:?}"
    );
    // The owner discards by the ids of everything it applied; only its own
    // entries have records in its WAL, all of them appended since `before`.
    for (i, (lsn_before, visits_before)) in before.into_iter().enumerate() {
        let (lsn, visits) = wal_at(i);
        assert!(
            visits - visits_before <= lsn - lsn_before,
            "server {i} (owner {owner}): {} records visited, {} appended since the first entry",
            visits - visits_before,
            lsn - lsn_before
        );
    }
}

#[test]
fn an_unacknowledged_batch_is_resent_at_retransmission_pace_and_applied_once() {
    // A readdir of a large, clean directory holds the owner's group lock (as
    // a reader) for 2 ms: 0.05 µs per listed entry.
    const LISTED: usize = 40_000;
    const CREATES: usize = 400;
    let mut cluster = Cluster::new(ClusterConfig::paper_default(SystemKind::SwitchFs));
    cluster.preload_dir("/hot");
    cluster.preload_files("/hot", "old", LISTED);
    let handle = cluster.sim.handle();
    let clients: Vec<_> = cluster.clients().to_vec();
    let servers: Vec<_> = cluster.servers().to_vec();
    let sent_while_held = cluster.block_on(async move {
        let reader = clients[0].clone();
        let started = handle.now();
        let listing = handle.spawn_with_result(async move { reader.readdir("/hot").await });
        // With the read under way, fill every holder's change-log: each cuts
        // a full batch at once, and its push queues behind the read.
        handle.sleep(SimDuration::micros(20)).await;
        let mut creating = Vec::new();
        for i in 0..CREATES {
            let client = clients[i % clients.len()].clone();
            creating.push(handle.spawn_with_result(async move {
                client
                    .create(&format!("/hot/new{i}"))
                    .await
                    .expect("create");
            }));
        }
        for c in creating {
            c.join().await;
        }
        let (_, entries) = listing.join().await.expect("readdir");
        assert_eq!(entries.len(), LISTED, "the read predates every create");
        let held = handle.now().duration_since(started);
        assert!(held >= SimDuration::millis(2), "lock held only {held:?}");
        servers
            .iter()
            .map(|s| s.stats().pushes_sent)
            .collect::<Vec<_>>()
    });
    // One batch per holder is in flight (window = 1), so a holder's pushes
    // are copies of it: the first, and a re-send after one and after two
    // more retransmission timeouts. One per scan tick would be about ten.
    let most = *sent_while_held.iter().max().expect("servers");
    assert!(
        (2..=4).contains(&most),
        "copies of the in-flight batch per holder while the lock was held: {sent_while_held:?}"
    );

    cluster.settle(SimDuration::millis(10));
    let stats = cluster.total_server_stats();
    assert_eq!(stats.entries_applied as usize, CREATES, "each entry once");
    for (i, server) in cluster.servers().iter().enumerate() {
        assert_eq!(server.tables().pending_changelog_entries, 0, "server {i}");
    }
    let client = cluster.client(0);
    let (attrs, entries) =
        cluster.block_on(async move { client.readdir("/hot").await.expect("readdir") });
    assert_eq!(
        (attrs.size as usize, entries.len()),
        (LISTED + CREATES, LISTED + CREATES)
    );
}

#[test]
fn a_push_whose_first_two_copies_are_lost_is_still_delivered_and_discarded() {
    const FILES: usize = 5;
    let mut cluster = Cluster::new(ClusterConfig::paper_default(SystemKind::SwitchFs));
    let hot = cluster.preload_dir("/hot");
    let placement = cluster.placement();
    let owner = placement.dir_owner_by_fp(Fingerprint::of_dir(&DirId::ROOT, "hot"));
    // Files that all live on one server other than the directory's owner:
    // one holder, one change-log, one push session.
    let holder = ServerId((owner.0 + 1) % cluster.servers().len() as u32);
    let names: Vec<String> = (0..)
        .map(|i| format!("f{i}"))
        .filter(|name| placement.file_owner(&MetaKey::new(hot, name.as_str())) == holder)
        .take(FILES)
        .collect();
    let handle = cluster.sim.handle();
    let (client, network) = (cluster.client(0), cluster.network());
    let holding = cluster.servers()[holder.0 as usize].clone();
    let drained_after = cluster.block_on(async move {
        for name in &names {
            client
                .create(&format!("/hot/{name}"))
                .await
                .expect("create");
        }
        assert_eq!(holding.tables().pending_changelog_entries, FILES);
        let appended = handle.now();
        // Nothing else is on the wire: lose everything until the batch has
        // gone out twice, then heal.
        network.set_faults(NetFaults::lossy(1.0, 0.0, SimDuration::ZERO));
        while holding.stats().pushes_sent < 2 {
            handle.sleep(SimDuration::micros(10)).await;
        }
        network.set_faults(NetFaults::reliable());
        while holding.tables().pending_changelog_entries > 0 {
            handle.sleep(SimDuration::micros(10)).await;
            let waited = handle.now().duration_since(appended);
            assert!(waited < SimDuration::millis(5), "the push never ended");
        }
        handle.now().duration_since(appended)
    });
    // Idle push, a timeout, two timeouts, rounded up to scan ticks, and the
    // acknowledgment's way back.
    assert!(
        drained_after < SimDuration::millis(2),
        "took {drained_after:?}"
    );
    let holder_stats = cluster.servers()[holder.0 as usize].stats();
    let owner_stats = cluster.servers()[owner.0 as usize].stats();
    assert_eq!(holder_stats.pushes_sent, 3, "two lost copies and the third");
    assert_eq!(
        (
            owner_stats.pushes_received,
            owner_stats.entries_applied as usize,
            owner_stats.aggregations
        ),
        (1, FILES, 0),
        "delivered by the push itself, once"
    );
    assert_eq!(
        cluster.servers()[owner.0 as usize].peek_entries(&hot).len(),
        FILES
    );
    assert_settled(&cluster);
}

#[test]
fn no_push_leaves_a_holder_while_a_round_has_its_change_log() {
    const WRITERS: usize = 64;
    const READS: usize = 20;
    let mut cluster = Cluster::new(ClusterConfig::paper_default(SystemKind::SwitchFs));
    cluster.preload_dir("/hot");
    let log = TapLog::default();
    Tap::install(&cluster, &log, false);
    let handle = cluster.sim.handle();
    let clients: Vec<_> = cluster.clients().to_vec();
    cluster.block_on(async move {
        // More creates than the owner has cores to apply: pushes queue
        // behind its group lock and go out all the time …
        let reading = Rc::new(Cell::new(true));
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let (client, reading) = (clients[w % clients.len()].clone(), reading.clone());
            writers.push(handle.spawn_with_result(async move {
                for i in 0.. {
                    if !reading.get() {
                        break;
                    }
                    client
                        .create(&format!("/hot/w{w}f{i}"))
                        .await
                        .expect("create");
                }
            }));
        }
        // … and one read at a time keeps rounds coming.
        for _ in 0..READS {
            handle.sleep(SimDuration::micros(40)).await;
            clients[0].statdir("/hot").await.expect("statdir");
        }
        reading.set(false);
        for w in writers {
            w.join().await;
        }
    });
    let log = log.borrow();
    let LinkParams {
        link_latency: link,
        switch_latency: switch,
    } = LinkParams::default();
    let from = |holder: NodeId, seen: Seen| {
        log.iter()
            .filter(move |c| c.src == holder && c.seen == seen)
    };
    let (mut locked, mut unlocked) = (0, 0);
    for sent in log.iter() {
        let Seen::AggEntries(owner, agg_id) = sent.seen else {
            continue;
        };
        // A responder has the holder's change-log from before its entries
        // leave until the owner's acknowledgment arrives. Both the response
        // and whatever else the holder sends cross the switch a link
        // latency after they left.
        let holder = sent.src;
        let acked = log
            .iter()
            .find(|c| c.seen == Seen::AggAck(owner, agg_id) && c.dst == holder)
            .expect("no fault is injected: every responder is acknowledged");
        let arrived = acked.at + switch + link;
        let inside = |c: &&Crossing| c.at >= sent.at && c.at.duration_since(arrived) < link;
        // It locks the logs it finds on arrival: a holder that a round or a
        // push acknowledgment has just emptied has none, and what its
        // creates append while the handler waits for a core is snapshot
        // unlocked.
        // The lock shows on the wire — an appender holds it from before its
        // append until its commit is mirrored, so under a responder no
        // commit leaves the holder.
        if from(holder, Seen::Commit).any(|c| inside(&c)) {
            unlocked += 1;
            continue;
        }
        locked += 1;
        if let Some(push) = from(holder, Seen::Push).find(inside) {
            panic!(
                "{holder} pushed at {:?} inside round {agg_id}: response crossed at {:?}, \
                 ack arrived at {arrived:?}",
                push.at, sent.at
            );
        }
    }
    let pushes = log.iter().filter(|c| c.seen == Seen::Push).count();
    assert!(
        locked >= 100 && unlocked <= locked && pushes >= 100,
        "{locked} responses under a lock, {unlocked} without, {pushes} pushes"
    );
}

#[test]
fn a_directory_read_waits_for_at_most_one_round() {
    const WRITERS: usize = 64;
    const READERS: usize = 20;
    const READS_EACH: usize = 10;
    let mut cluster = Cluster::new(ClusterConfig::paper_default(SystemKind::SwitchFs));
    cluster.preload_dir("/hot");
    let log = TapLog::default();
    Tap::install(&cluster, &log, false);
    let handle = cluster.sim.handle();
    let clients: Vec<_> = cluster.clients().to_vec();
    cluster.block_on(async move {
        let reading = Rc::new(Cell::new(true));
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let (client, reading) = (clients[w % clients.len()].clone(), reading.clone());
            writers.push(handle.spawn_with_result(async move {
                for i in 0.. {
                    if !reading.get() {
                        break;
                    }
                    client
                        .create(&format!("/hot/w{w}f{i}"))
                        .await
                        .expect("create");
                }
            }));
        }
        // `statdir`s: a `readdir` of a directory that grows without bound
        // would keep the owner's cores scanning, and a read that waits for a
        // core before it gets to the gate can miss a round on the way.
        let mut readers = Vec::new();
        for r in 0..READERS {
            let client = clients[r % clients.len()].clone();
            readers.push(handle.spawn_with_result(async move {
                for _ in 0..READS_EACH {
                    client.statdir("/hot").await.expect("statdir");
                }
            }));
        }
        for r in readers {
            r.join().await;
        }
        reading.set(false);
        for w in writers {
            w.join().await;
        }
    });
    let log = log.borrow();
    let LinkParams {
        link_latency: link,
        switch_latency: switch,
    } = LinkParams::default();
    let mut reads = BTreeSet::new();
    let mut waited_for_one = 0;
    for read in log.iter() {
        let Seen::DirRead(op) = read.seen else {
            continue;
        };
        // A retransmitted copy joins the read that is already at the owner.
        if !reads.insert(op) {
            continue;
        }
        // The read reaches the owner a switch and a link latency after it
        // crossed the switch; the reply, and the request of a round the
        // owner starts, cross a link latency after they left it.
        let reached = read.at + switch + link;
        let replied = log
            .iter()
            .find(|c| c.seen == Seen::DirReply(op))
            .expect("every read is answered");
        let rounds = log
            .iter()
            .filter(|c| c.seen == Seen::AggRequest && c.src == read.dst)
            .filter(|c| c.at.duration_since(reached) >= link && c.at <= replied.at)
            .count();
        // The round that serves it, whoever runs it — and no second one: a
        // read that was handed a share does not queue behind the next
        // round's runner for a lock of its own.
        assert!(
            rounds <= 1,
            "{rounds} rounds started between read {op:?} reaching the owner and its reply"
        );
        waited_for_one += rounds;
    }
    assert_eq!(reads.len(), READERS * READS_EACH);
    assert!(
        waited_for_one * 2 >= reads.len(),
        "only {waited_for_one} reads found the directory scattered"
    );
}

#[test]
fn a_round_acknowledges_its_holders_when_the_batch_is_durable() {
    const ENTRIES: usize = 1_000;
    let (cluster, log) = one_round_of(ENTRIES);
    let log = log.borrow();
    let collected = log.iter().rfind(|c| matches!(c.seen, Seen::AggEntries(..)));
    let acked = log.iter().rfind(|c| matches!(c.seen, Seen::AggAck(..)));
    let (Some(collected), Some(acked)) = (collected, acked) else {
        panic!("the round collected entries and acknowledged them");
    };
    // The last response's way to the owner, the record (append and one
    // attribute put, on an idle owner) and the acknowledgments' way out —
    // not the entries' apply, which is 400 µs on the owner's four cores.
    let waited = acked.at.duration_since(collected.at);
    assert!(
        waited <= SimDuration::micros(25),
        "the acknowledgments crossed {waited:?} after the last entries"
    );
    let costs = cluster.servers()[0].costs();
    assert!(
        waited >= costs.wal_append + costs.kv_put,
        "before the record?"
    );
}

#[test]
fn the_readdirs_of_one_hold_share_one_scan_of_the_listing() {
    const ENTRIES: usize = 2_000;
    const READS: usize = 8;
    let (cluster, log) = scattered(ENTRIES);
    let scans = |cluster: &Cluster| cluster.total_server_stats().listing_scans;
    assert_eq!(scans(&cluster), 0);
    // Eight readdirs at once from the four clients: the first leads a round
    // and holds the lock alone; the others arrive before that round starts,
    // so it serves them too, and they share the hold their own leader takes
    // when the first is done.
    let (handle, clients) = (cluster.sim.handle(), cluster.clients().to_vec());
    let issued = log.borrow().len();
    let listed = cluster.block_on(async move {
        let reads: Vec<_> = (0..READS)
            .map(|i| {
                let client = clients[i % clients.len()].clone();
                handle.spawn_with_result(async move {
                    client.readdir("/hot").await.expect("readdir").1.len()
                })
            })
            .collect();
        let mut listed = Vec::new();
        for read in reads {
            listed.push(read.join().await);
        }
        listed
    });
    assert_eq!(listed, [ENTRIES; READS]);
    let shared = scans(&cluster);
    assert!(
        shared <= 2,
        "{shared} scans for {READS} readdirs in two holds"
    );
    // The replies leave the owner in one burst per hold. One scan of 2,000
    // entries is 100 µs, so a hold whose readers scan for themselves — seven
    // readers on four cores — answers in two bursts a scan apart.
    let replies = log.borrow()[issued..]
        .iter()
        .filter(|c| matches!(c.seen, Seen::DirReply(_)))
        .map(|c| c.at)
        .collect::<Vec<_>>();
    assert_eq!(replies.len(), READS);
    let mut bursts: Vec<Vec<SimTime>> = Vec::new();
    for at in replies {
        match bursts.last_mut() {
            Some(burst) if at.duration_since(burst[0]) <= SimDuration::micros(10) => burst.push(at),
            _ => bursts.push(vec![at]),
        }
    }
    assert!(
        bursts.len() <= 2,
        "{READS} readdirs in two holds answered in {} bursts: {bursts:?}",
        bursts.len()
    );

    // No round serves a readdir of the now clean directory: it scans for
    // itself.
    let (client, handle) = (cluster.client(0), cluster.sim.handle());
    let took = cluster.block_on(async move {
        let start = handle.now();
        let (_, entries) = client.readdir("/hot").await.expect("readdir");
        assert_eq!(entries.len(), ENTRIES);
        handle.now().duration_since(start)
    });
    let scan = cluster.servers()[0].costs().readdir_per_entry * ENTRIES as u64;
    assert!(
        took >= scan,
        "a lone readdir took {took:?}, its scan {scan:?}"
    );
    assert_eq!(scans(&cluster), shared + 1);
}

/// Creates `src` — its entry stays in a change-log: every push is lost —
/// renames it to `dst` (both `(directory, name)`) and checks that both
/// parents list what the rename left. Returns the rounds the rename ran, and
/// the applied entry ids of every record it logged that removes the source
/// name or inserts the destination name.
fn rename_a_deferred_entry(src: (&str, &str), dst: (&str, &str)) -> (u64, Vec<Vec<OpId>>) {
    let mut cluster = Cluster::new(ClusterConfig::paper_default(SystemKind::SwitchFs));
    cluster.preload_dir(src.0);
    cluster.preload_dir(dst.0);
    Tap::install(&cluster, &TapLog::default(), true);
    let (src_path, dst_path) = (
        format!("{}/{}", src.0, src.1),
        format!("{}/{}", dst.0, dst.1),
    );
    let (client, path) = (cluster.client(0), src_path.clone());
    cluster.block_on(async move { client.create(&path).await.expect("create") });
    let servers = cluster.servers().len();
    let pending: usize = cluster
        .servers()
        .iter()
        .map(|s| s.tables().pending_changelog_entries)
        .sum();
    assert_eq!(pending, 1, "the create's entry is deferred");

    let next_lsn = |i: usize| cluster.servers()[i].durable().borrow().wal.next_lsn();
    let lsns: Vec<u64> = (0..servers).map(next_lsn).collect();
    let rounds = cluster.total_server_stats().aggregations;
    let client = cluster.client(0);
    cluster.block_on(async move { client.rename(&src_path, &dst_path).await.expect("rename") });
    let rounds = cluster.total_server_stats().aggregations - rounds;
    let names_either_end = |effect: &KvEffect| match effect {
        KvEffect::DeleteEntry(_, name) => name == src.1,
        KvEffect::PutEntry(_, entry) => entry.name == dst.1,
        _ => false,
    };
    let mut records = Vec::new();
    for (i, lsn) in lsns.into_iter().enumerate() {
        let durable = cluster.servers()[i].durable();
        for record in durable
            .borrow()
            .wal
            .records()
            .iter()
            .filter(|r| r.lsn >= lsn)
        {
            if let WalOp::Effects {
                effects,
                applied_entry_ids,
                ..
            } = &record.payload
            {
                if effects.iter().any(names_either_end) {
                    records.push(applied_entry_ids.clone());
                }
            }
        }
    }

    let client = cluster.client(0);
    let listed = [(src, false), (dst, true)]
        .map(|((dir, name), listed)| (dir.to_string(), name.to_string(), listed));
    cluster.block_on(async move {
        for (dir, name, listed) in listed {
            let (attrs, listing) = client.readdir(&dir).await.expect("readdir");
            assert_eq!(attrs.size, listing.len() as u64, "{dir}");
            let found = listing.iter().any(|e| e.name == name);
            assert_eq!(found, listed, "{dir}/{name} listed");
        }
    });
    (rounds, records)
}

#[test]
fn a_rename_within_a_directory_takes_one_round_and_one_record() {
    let (rounds, records) = rename_a_deferred_entry(("/hot", "f"), ("/hot", "g"));
    assert_eq!(rounds, 1, "a round for both of the rename's updates");
    let [ids] = &records[..] else {
        panic!("one record for both updates: {records:?}");
    };
    // The removal's id is the rename's op id; the insertion's sets the top
    // bit of its sequence.
    let [remove, insert] = ids[..] else {
        panic!("the record carries both entry ids: {ids:?}");
    };
    assert_eq!(
        (insert.client, insert.seq),
        (remove.client, remove.seq | 1 << 63)
    );
}

#[test]
fn a_rename_across_directories_takes_one_round_and_one_record_per_directory() {
    let (rounds, records) = rename_a_deferred_entry(("/a", "f"), ("/b", "g"));
    assert_eq!(rounds, 2, "a round per directory");
    let ids: BTreeSet<OpId> = records.iter().flatten().copied().collect();
    assert!(
        records.len() == 2 && records.iter().all(|ids| ids.len() == 1) && ids.len() == 2,
        "a record per directory, each carrying its own entry id: {records:?}"
    );
}
