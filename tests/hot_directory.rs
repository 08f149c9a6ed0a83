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
//!    with reads waiting for a round.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use switchfs::core::{Cluster, ClusterConfig, SystemKind};
use switchfs::proto::{DirId, Fingerprint, FsError, Placement};
use switchfs::simnet::{SimDuration, SimHandle};
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
        assert_eq!(
            server.fp_group_waiter_count(),
            0,
            "server {i}: waiters at a group lock"
        );
        assert_eq!(
            server.pending_token_count(),
            0,
            "server {i}: open exchanges"
        );
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
        let (network, node) = (cluster.network(), cluster.server_node_id(owner));
        async move {
            // Crash the owner the moment reads are queued behind a round.
            while server.fp_group_waiter_count() < 8 {
                hot.handle.sleep(SimDuration::micros(5)).await;
            }
            seen.set(server.fp_group_waiter_count());
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
