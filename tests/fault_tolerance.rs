//! Integration tests for crash recovery and switch failure (§5.4, §A.1).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use switchfs::core::switch_adapter::SwitchAdapter;
use switchfs::core::{Cluster, ClusterConfig, SystemKind};
use switchfs::proto::message::{Body, MetaOp, NetMsg, Request, ServerMsg};
use switchfs::proto::{FsError, OpId, Placement};
use switchfs::simnet::{Fanout, NodeId, Packet, SimDuration, SimTime, SwitchAction, SwitchLogic};

/// The shared slot a spawned rename reports its outcome into.
type Outcome = Rc<RefCell<Option<Result<(), FsError>>>>;

fn cluster() -> Cluster {
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 4;
    cfg.clients = 1;
    Cluster::new(cfg)
}

/// Finds a tear seed under which `Wal::crash_apply` leaves none of the
/// victim's unflushed records intact — the worst-case torn tail. (Any seed
/// qualifies when nothing is unflushed; the probe works on a clone, so the
/// real log is untouched until the crash itself.)
fn tear_all_seed(cluster: &Cluster, victim: usize) -> u64 {
    let durable = cluster.durable_state(victim);
    (0..10_000u64)
        .find(|s| {
            let mut probe = durable.borrow().wal.clone();
            probe.crash_apply(*s).kept == 0
        })
        .expect("no tear-all seed in 10k tries")
}

#[test]
fn server_crash_recovery_restores_inodes_and_changelogs() {
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/crashdir").await.unwrap();
        for i in 0..100 {
            client.create(&format!("/crashdir/f{i}")).await.unwrap();
        }
    });
    let before: usize = cluster.servers().iter().map(|s| s.inode_count()).sum();
    let durable = cluster.durable_state(0);
    let appended_before = durable.borrow().wal.bytes();
    assert!(durable.borrow().wal.flushed_bytes() <= appended_before);

    cluster.crash_server(0);
    assert!(cluster.servers()[0].is_crashed());
    let report = cluster.recover_server(0);
    assert!(report.wal_records_replayed > 0);
    assert!(!cluster.servers()[0].is_crashed());

    // The "WAL KB replayed" figure row is `wal_bytes_replayed / 1024`; it
    // must agree with the WAL's own flush-watermark accounting. A clean
    // crash loses nothing, so replay covers exactly the bytes appended
    // before the crash — and recovery marks all of them durable (without
    // ever exceeding what was appended).
    assert_eq!(report.wal_bytes_replayed, appended_before);
    assert!(durable.borrow().wal.flushed_bytes() >= report.wal_bytes_replayed);
    assert!(durable.borrow().wal.flushed_bytes() <= durable.borrow().wal.bytes());

    let after: usize = cluster.servers().iter().map(|s| s.inode_count()).sum();
    assert_eq!(
        before, after,
        "recovery must rebuild every inode from the WAL"
    );

    // The namespace is still correct and fully visible.
    let client = cluster.client(0);
    cluster.block_on(async move {
        let dir = client.statdir("/crashdir").await.unwrap();
        assert_eq!(dir.size, 100);
        for i in 0..100 {
            client.stat(&format!("/crashdir/f{i}")).await.unwrap();
        }
    });
}

#[test]
fn switch_reboot_reconciles_directory_states() {
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/d").await.unwrap();
        for i in 0..50 {
            client.create(&format!("/d/f{i}")).await.unwrap();
        }
    });
    // The switch loses every fingerprint; servers flush their change-logs.
    let took = cluster.crash_and_recover_switch();
    assert!(took.as_nanos() > 0);
    assert_eq!(
        cluster.switch_occupancy(),
        Some(0),
        "after recovery every directory is back in normal state"
    );
    assert_eq!(
        cluster
            .servers()
            .iter()
            .map(|s| s.pending_changelog_entries())
            .sum::<usize>(),
        0,
        "all change-log entries must have been applied"
    );
    // No updates were lost.
    let client = cluster.client(0);
    cluster.block_on(async move {
        let dir = client.statdir("/d").await.unwrap();
        assert_eq!(dir.size, 50);
    });
}

/// A switch reboot re-aggregates on the live servers only (§5.4.2): a
/// crashed owner is left alone, and its own recovery later brings back
/// every create it acknowledged.
#[test]
fn a_switch_reboot_leaves_a_crashed_server_to_its_own_recovery() {
    use switchfs::proto::{DirId, Fingerprint};
    const CREATES: usize = 50;
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/held").await.unwrap();
        for i in 0..CREATES {
            client.create(&format!("/held/f{i}")).await.unwrap();
        }
    });
    let owner = cluster
        .placement()
        .dir_owner_by_fp(Fingerprint::of_dir(&DirId::ROOT, "held"))
        .0 as usize;
    cluster.crash_server(owner);
    let aggregations = cluster.servers()[owner].stats().aggregations;
    cluster.crash_and_recover_switch();
    assert_eq!(
        cluster.servers()[owner].stats().aggregations,
        aggregations,
        "the crashed owner must not aggregate during the switch recovery"
    );

    cluster.recover_server(owner);
    let client = cluster.client(0);
    let size = cluster.block_on(async move { client.statdir("/held").await.unwrap().size });
    assert_eq!(size, CREATES as u64);
}

/// A switch reboot during a server's recovery (§5.4.2 during §5.4) pauses
/// and resumes only the servers that were serving: the recovering one
/// still re-aggregates, but serves again only at the end of its own
/// recovery, not when the reboot's stop-the-world window closes.
#[test]
fn a_switch_reboot_does_not_resume_a_recovering_server() {
    const CREATES: usize = 2_000;
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/d").await.unwrap();
        for i in 0..CREATES {
            client.create(&format!("/d/f{i}")).await.unwrap();
        }
    });
    cluster.crash_server(0);
    let server = cluster.servers()[0].clone();
    let served = move || {
        let stats = server.stats();
        stats.ops_completed - stats.ops_failed
    };
    let (control, handle, client) = (cluster.control(), cluster.sim.handle(), cluster.client(0));
    let (at_reboot_end, at_recovery_end) = cluster.block_on(async move {
        let recovered: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
        let recovery = control.recover(0);
        let (slot, served_then) = (recovered.clone(), served.clone());
        handle.spawn(async move {
            recovery.await;
            slot.set(Some(served_then()));
        });
        handle.sleep(SimDuration::micros(5)).await;
        assert!(control.reboot_switch().await);
        assert!(recovered.get().is_none(), "the recovery outran the reboot");
        let at_reboot_end = served();
        let mut i = 0;
        while recovered.get().is_none() {
            let _ = client.stat(&format!("/d/f{}", i % CREATES)).await;
            i += 1;
        }
        (at_reboot_end, recovered.get().unwrap())
    });
    assert_eq!(
        at_recovery_end - at_reboot_end,
        0,
        "server 0 served client operations after the reboot but before its recovery ended"
    );
}

#[test]
fn operations_issued_during_recovery_are_retried_and_succeed() {
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/busy").await.unwrap();
        client.create("/busy/before").await.unwrap();
    });
    cluster.crash_server(1);
    cluster.recover_server(1);
    let client = cluster.client(0);
    cluster.block_on(async move {
        // New work after recovery lands on a consistent namespace.
        client.create("/busy/after").await.unwrap();
        let dir = client.statdir("/busy").await.unwrap();
        assert_eq!(dir.size, 2);
    });
}

/// Regression for the volatile-prepare hole (ROADMAP, closed by the durable
/// 2PC prepare + recovery decision re-query): a rename participant crashes
/// after voting yes but before receiving the decision. The coordinator's
/// decision retransmissions exhaust against the dead node and the client
/// still sees `Done`; the recovered participant must find its in-doubt
/// prepared transaction in the WAL, re-query the coordinator, apply the
/// commit — and the namespace must converge with no divergence.
#[test]
fn participant_crash_between_prepare_and_decision_recovers_and_converges() {
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/t").await.unwrap();
        client.mkdir("/t2").await.unwrap();
        client.mkdir("/t3").await.unwrap();
    });

    // Drive renames until one leaves a prepared transaction on a remote
    // participant mid-2PC (placement decides which destination does; the
    // candidate sequence is deterministic, so the same one hits every run).
    let mut crashed: Option<usize> = None;
    let mut crashed_candidate = 0usize;
    let mut outcome: Option<Outcome> = None;
    'candidates: for (i, dst_dir) in ["/t2", "/t3"].iter().enumerate() {
        let src = format!("/t/a{i}");
        let dst = format!("{dst_dir}/b{i}");
        let client = cluster.client(0);
        let src2 = src.clone();
        cluster.block_on(async move {
            client.create(&src2).await.unwrap();
        });
        let done: Outcome = Rc::new(RefCell::new(None));
        let done2 = done.clone();
        let client = cluster.client(0);
        cluster.sim.spawn(async move {
            let r = client.rename(&src, &dst).await;
            *done2.borrow_mut() = Some(r);
        });
        // Step the simulation in small increments until a participant holds
        // a prepared-but-undecided transaction, then crash it immediately.
        let mut t = cluster.sim.now();
        let deadline = t + SimDuration::millis(50);
        while cluster.sim.now() < deadline {
            t += SimDuration::micros(5);
            cluster.run_until(t);
            if let Some(v) = (0..cluster.servers().len())
                .find(|i| cluster.servers()[*i].prepared_txn_count() > 0)
            {
                cluster.crash_server(v);
                crashed = Some(v);
                crashed_candidate = i;
                outcome = Some(done.clone());
                break 'candidates;
            }
            if done.borrow().is_some() {
                // This rename finished without a remote prepare window we
                // could observe; try the next candidate destination.
                continue 'candidates;
            }
        }
    }
    let victim = crashed.expect("no rename left an observable prepared transaction");
    let outcome = outcome.unwrap();

    // Step the simulation (the proactive background loops never quiesce, so
    // a plain `run()` would spin forever) until the coordinator's decision
    // retransmissions to the crashed participant exhaust and the client
    // observes the outcome.
    {
        let deadline = cluster.sim.now() + SimDuration::millis(200);
        while outcome.borrow().is_none() && cluster.sim.now() < deadline {
            let t = cluster.sim.now() + SimDuration::millis(1);
            cluster.run_until(t);
        }
    }
    assert_eq!(
        *outcome.borrow(),
        Some(Ok(())),
        "rename must commit even though a participant crashed after voting"
    );
    assert!(cluster.servers()[victim].is_crashed());

    // Recovery finds the in-doubt transaction and resolves it by re-asking
    // the coordinator.
    let report = cluster.recover_server(victim);
    assert!(
        report.prepared_txns_recovered >= 1,
        "recovery must find the in-doubt prepared transaction: {report:?}"
    );
    assert_eq!(
        report.txn_commits_recovered, report.prepared_txns_recovered,
        "every in-doubt transaction must resolve to the coordinator's commit: {report:?}"
    );
    assert_eq!(report.txn_unresolved, 0, "{report:?}");

    // The namespace converged: every rename that ran committed — the file
    // is visible at its destination (and only there), and the listings
    // agree with the inode probes.
    let dirs = ["/t2", "/t3"];
    let client = cluster.client(0);
    cluster.block_on(async move {
        for (i, dst_dir) in dirs.iter().enumerate().take(crashed_candidate + 1) {
            let src = format!("/t/a{i}");
            let dst = format!("{dst_dir}/b{i}");
            let src_stat = client.stat(&src).await;
            let dst_stat = client.stat(&dst).await;
            match (src_stat, dst_stat) {
                (Err(FsError::NotFound), Ok(_)) => {}
                (s, d) => panic!("diverged namespace for {src} -> {dst}: {s:?} / {d:?}"),
            }
            let (t_attrs, t_entries) = client.readdir("/t").await.unwrap();
            assert_eq!(t_attrs.size, t_entries.len() as u64);
            assert!(!t_entries.iter().any(|e| e.name == format!("a{i}")));
            let (d_attrs, d_entries) = client.readdir(dst_dir).await.unwrap();
            assert_eq!(d_attrs.size, d_entries.len() as u64);
            assert!(d_entries.iter().any(|e| e.name == format!("b{i}")));
        }
    });
}

/// The cluster's switch program behind a filter that cuts one server off
/// from the first commit decision addressed to it until the test lets it
/// go: a participant that voted yes and stays prepared while its
/// coordinator spends every decision copy on it. Records when each copy
/// addressed to it reached the switch.
struct IsolateOnCommit {
    program: SwitchAdapter,
    node: NodeId,
    isolated: Rc<Cell<bool>>,
    commits: Rc<RefCell<Vec<SimTime>>>,
}

impl SwitchLogic<NetMsg> for IsolateOnCommit {
    fn process(&mut self, now: SimTime, pkt: Packet<NetMsg>) -> Fanout<SwitchAction<NetMsg>> {
        let body = &pkt.payload.body;
        if matches!(
            body,
            Body::Server(ServerMsg::Request {
                req: Request::TxnDecision { commit: true, .. },
                ..
            })
        ) && pkt.dst == self.node
        {
            let mut commits = self.commits.borrow_mut();
            if commits.is_empty() {
                self.isolated.set(true);
            }
            commits.push(now);
        }
        if self.isolated.get() && (pkt.src == self.node || pkt.dst == self.node) {
            return Fanout::one(SwitchAction::Drop);
        }
        self.program.process(now, pkt)
    }
}

/// A file rename `src` → `dst` whose destination inode is staged at a
/// participant, not at the coordinator (the source's owner), with an
/// [`IsolateOnCommit`] installed around that participant.
struct CutOffRename {
    src: String,
    dst: String,
    /// The file's name under `/src` is `f{i}`, under `/dst` `g{i}`.
    i: usize,
    coordinator: usize,
    isolated: Rc<Cell<bool>>,
    commits: Rc<RefCell<Vec<SimTime>>>,
}

fn cut_off_rename(cluster: &mut Cluster) -> CutOffRename {
    use switchfs::proto::MetaKey;
    let (src_dir, dst_dir) = (cluster.preload_dir("/src"), cluster.preload_dir("/dst"));
    let placement = cluster.placement();
    let src_owner = |i: usize| placement.file_owner(&MetaKey::new(src_dir, format!("f{i}")));
    let dst_owner = |i: usize| placement.file_owner(&MetaKey::new(dst_dir, format!("g{i}")));
    let i = (0..).find(|i| src_owner(*i) != dst_owner(*i)).unwrap();
    let (src, dst) = (format!("/src/f{i}"), format!("/dst/g{i}"));
    let client = cluster.client(0);
    let created = src.clone();
    cluster.block_on(async move { client.create(&created).await.unwrap() });
    let (isolated, commits) = (Rc::default(), Rc::default());
    cluster.network().install_switch(Box::new(IsolateOnCommit {
        program: SwitchAdapter::new(cluster.switch_program().expect("in-network tracking")),
        node: cluster.server_node_id(dst_owner(i).0 as usize),
        isolated: Rc::clone(&isolated),
        commits: Rc::clone(&commits),
    }));
    CutOffRename {
        src,
        dst,
        i,
        coordinator: src_owner(i).0 as usize,
        isolated,
        commits,
    }
}

/// A participant cut off after its vote for longer than the coordinator's
/// decision budget: the client sees `Done` once the copies run out, and the
/// participant, reachable again, has not applied its half. What the client
/// reads next must already show the rename (§5.2), so the participant asks
/// the coordinator before it serves a key its prepared transaction stages.
#[test]
fn a_participant_cut_off_past_the_decision_budget_serves_no_state_before_the_rename() {
    let mut cluster = cluster();
    let CutOffRename {
        src,
        dst,
        i,
        isolated,
        ..
    } = cut_off_rename(&mut cluster);
    let (client, from, to) = (cluster.client(0), src.clone(), dst.clone());
    let outcome = cluster.block_on(async move { client.rename(&from, &to).await });
    assert!(
        isolated.get(),
        "the participant was cut off until the reply"
    );
    assert_eq!(outcome, Ok(()), "the coordinator committed");
    isolated.set(false);
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.stat(&dst).await.expect("the rename's destination");
        assert_eq!(client.stat(&src).await.err(), Some(FsError::NotFound));
        for (dir, name, listed) in [
            ("/src", format!("f{i}"), false),
            ("/dst", format!("g{i}"), true),
        ] {
            let (attrs, listing) = client.readdir(dir).await.unwrap();
            assert_eq!(attrs.size, listing.len() as u64, "{dir}");
            assert_eq!(listing.iter().any(|e| e.name == name), listed, "{dir}");
        }
    });
}

/// The decision to a participant that never answers goes out as the
/// decision policy says — nine copies, 4 × `request_timeout` apart — and
/// each copy after the first counts once as the coordinator's
/// retransmission.
#[test]
fn a_cut_off_participant_gets_every_decision_copy_and_each_resend_counts() {
    let mut cluster = cluster();
    let cut = cut_off_rename(&mut cluster);
    let coordinator = &cluster.servers()[cut.coordinator];
    let before = coordinator.stats().retransmissions;
    let client = cluster.client(0);
    let outcome = cluster.block_on(async move { client.rename(&cut.src, &cut.dst).await });
    assert_eq!(outcome, Ok(()), "the coordinator committed");
    let copies = cut.commits.borrow().clone();
    assert_eq!(copies.len(), 9, "{copies:?}");
    let to = cluster.config().cost_model().request_timeout;
    for pair in copies.windows(2) {
        assert_eq!(pair[1].duration_since(pair[0]), to * 4, "{copies:?}");
    }
    assert_eq!(coordinator.stats().retransmissions - before, 8);
}

/// One applier for the live path and for replay: what a settled server has
/// built record by record is what a replay of the same records rebuilds.
#[test]
fn replay_rebuilds_what_the_live_path_built() {
    use std::collections::BTreeSet;
    use switchfs::server::WalOp;

    let cluster = cluster();
    // The preloaded root bypassed the WAL; the checkpoint is its durable copy
    // (so a recovery here is a checkpoint load and then the replay).
    cluster.checkpoint_all();
    let client = cluster.client(0);
    cluster.block_on(async move {
        for dir in ["/a", "/b", "/a/sub"] {
            client.mkdir(dir).await.unwrap();
        }
        for i in 0..40 {
            client.create(&format!("/a/f{i}")).await.unwrap();
        }
        for i in 0..10 {
            client.create(&format!("/a/sub/g{i}")).await.unwrap();
        }
        client.statdir("/a").await.unwrap();
        // Renames of files across directories, over an existing file, and of
        // a directory with children: 2PC on every server.
        for i in 0..20 {
            let dst = format!("/b/r{}", i % 15);
            client.rename(&format!("/a/f{i}"), &dst).await.unwrap();
        }
        client.rename("/a/sub", "/b/moved").await.unwrap();
        for i in 20..30 {
            client.delete(&format!("/a/f{i}")).await.unwrap();
            client
                .chmod(&format!("/a/f{}", i + 10), 0o600)
                .await
                .unwrap();
        }
        client.mkdir("/a/gone").await.unwrap();
        client.rmdir("/a/gone").await.unwrap();
        assert_eq!(client.readdir("/b").await.unwrap().1.len(), 16);
    });
    cluster.settle(SimDuration::millis(10));
    for server in cluster.servers() {
        assert_eq!(server.pending_changelog_entries(), 0, "settled");
        assert_eq!(server.prepared_txn_count(), 0, "settled");
    }

    for i in 0..cluster.servers().len() {
        let before = cluster.servers()[i].snapshot();
        assert!(!before.image.inodes.is_empty(), "server {i} stores nothing");
        cluster.crash_server(i);
        cluster.recover_server(i);
        let after = cluster.servers()[i].snapshot();

        // The stores come back as they were; the two hash maps, in any order.
        assert_eq!(before.image.inodes, after.image.inodes, "server {i}");
        assert_eq!(before.image.entries, after.image.entries, "server {i}");
        assert_eq!(before.image.pending, after.image.pending, "server {i}");
        let sorted = |index: &[(_, _)]| index.iter().cloned().collect::<BTreeSet<_>>();
        assert_eq!(
            sorted(&before.image.dir_index),
            sorted(&after.image.dir_index),
            "server {i}"
        );
        assert_eq!(
            sorted(&before.invalidation),
            sorted(&after.invalidation),
            "server {i}"
        );
        // Both transaction tables (a settled server's are empty unless a
        // participant never acknowledged).
        let markers = |txns: &[_]| {
            txns.iter()
                .map(|m| format!("{m:?}"))
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(markers(&before.txns), markers(&after.txns), "server {i}");

        // Duplicate suppression comes back as a superset: replay cannot know
        // which ids were retired since, or which responses pruned.
        let ids = |image: &switchfs::proto::message::StateImage| {
            let both = image
                .applied_entry_ids
                .iter()
                .chain(&image.retired_entry_ids);
            both.copied().collect::<BTreeSet<_>>()
        };
        assert!(
            ids(&after.image).is_superset(&ids(&before.image)),
            "server {i}"
        );
        let durable = cluster.durable_state(i);
        let durable = durable.borrow();
        let logged = |response: &switchfs::proto::ClientResponse| {
            let mut records = durable.wal.records().iter();
            records.any(|r| matches!(&r.payload, WalOp::Completed(c) if c == response))
        };
        // (A read's response is cached, not logged: a crash forgets it.)
        for response in before.image.completed.iter().filter(|r| logged(r)) {
            assert!(after.image.completed.contains(response), "server {i}");
        }
    }
}

#[test]
fn checkpoint_bounds_wal_replay() {
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/cp").await.unwrap();
        for i in 0..40 {
            client.create(&format!("/cp/f{i}")).await.unwrap();
        }
    });
    // Checkpoint every server, then add a little more work.
    for s in cluster.servers() {
        s.checkpoint();
    }
    let client = cluster.client(0);
    cluster.block_on(async move {
        for i in 40..50 {
            client.create(&format!("/cp/f{i}")).await.unwrap();
        }
    });
    cluster.crash_server(0);
    let report = cluster.recover_server(0);
    // Replay is bounded by the post-checkpoint suffix, not the whole history.
    assert!(
        report.wal_records_replayed < 30,
        "checkpoint should bound replay, got {} records",
        report.wal_records_replayed
    );
    let client = cluster.client(0);
    cluster.block_on(async move {
        let dir = client.statdir("/cp").await.unwrap();
        assert_eq!(dir.size, 50);
    });
}

/// A refused `rmdir` has already announced the removal on the aggregation
/// multicast, and every receiver *logged* the invalidation; the revoke that
/// follows the emptiness check has to be as durable as what it revokes, or a
/// server that later recovers replays the invalidation alone and rejects
/// everything under the directory as stale for ever.
#[test]
fn a_refused_rmdir_stays_refused_across_a_crash() {
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/keep").await.unwrap();
        client.create("/keep/f0").await.unwrap();
        assert_eq!(client.rmdir("/keep").await, Err(FsError::NotEmpty));
        for i in 1..40 {
            client.create(&format!("/keep/f{i}")).await.unwrap();
        }
    });
    for i in 0..cluster.servers().len() {
        cluster.crash_server(i);
        cluster.recover_server(i);
    }
    let client = cluster.client(0);
    let failed = cluster.block_on(async move {
        let mut failed = Vec::new();
        for i in 40..80 {
            if let Err(e) = client.create(&format!("/keep/f{i}")).await {
                failed.push((i, e));
            }
        }
        failed
    });
    assert!(
        failed.is_empty(),
        "{} of 40 creates under a directory whose rmdir was refused fail after recovery: {failed:?}",
        failed.len()
    );
}

/// The cluster's switch program behind a filter that loses the first
/// invalidation revoke addressed to one server.
struct LoseFirstRevoke {
    program: SwitchAdapter,
    node: NodeId,
    lost: Rc<Cell<bool>>,
}

impl SwitchLogic<NetMsg> for LoseFirstRevoke {
    fn process(&mut self, now: SimTime, pkt: Packet<NetMsg>) -> Fanout<SwitchAction<NetMsg>> {
        if matches!(
            pkt.payload.body,
            Body::Server(ServerMsg::Request {
                req: Request::InvalidationRevoke { .. },
                ..
            })
        ) && pkt.dst == self.node
            && !self.lost.replace(true)
        {
            return Fanout::one(SwitchAction::Drop);
        }
        self.program.process(now, pkt)
    }
}

/// A refused `rmdir` retracts the removal it announced at every other
/// server before it replies, so one lost copy of the retraction leaves no
/// server rejecting the directory's children as stale.
#[test]
fn a_refused_rmdirs_revoke_reaches_a_server_that_lost_its_first_copy() {
    use switchfs::proto::{DirId, Fingerprint, MetaKey};
    let mut cluster = cluster();
    let dir = cluster.preload_dir("/keep");
    let placement = cluster.placement();
    let rmdir_server = placement.dir_owner_by_fp(Fingerprint::of_dir(&DirId::ROOT, "keep"));
    // A child whose server is not the one that runs the rmdir, so the
    // revoke has to reach it over the network.
    let name = (0..)
        .map(|i| format!("f{i}"))
        .find(|name| placement.file_owner(&MetaKey::new(dir, name)) != rmdir_server)
        .unwrap();
    let server = placement.file_owner(&MetaKey::new(dir, &name));
    let client = cluster.client(0);
    cluster.block_on(async move { client.create("/keep/first").await.unwrap() });
    let lost = Rc::new(Cell::new(false));
    cluster.network().install_switch(Box::new(LoseFirstRevoke {
        program: SwitchAdapter::new(cluster.switch_program().expect("in-network tracking")),
        node: cluster.server_node_id(server.0 as usize),
        lost: lost.clone(),
    }));
    let client = cluster.client(0);
    let (refused, created) = cluster.block_on(async move {
        let refused = client.rmdir("/keep").await;
        (refused, client.create(&format!("/keep/{name}")).await)
    });
    assert_eq!(refused, Err(FsError::NotEmpty));
    assert!(lost.get(), "the first revoke to {server} was lost");
    assert_eq!(
        created.map(|_| ()),
        Ok(()),
        "a create under the directory through {server}"
    );
}

/// The cluster's switch program behind a filter that loses every change-log
/// push and counts the aggregation acknowledgments that cross.
struct RoundsOnly {
    program: SwitchAdapter,
    acks: Rc<Cell<usize>>,
}

impl SwitchLogic<NetMsg> for RoundsOnly {
    fn process(&mut self, now: SimTime, pkt: Packet<NetMsg>) -> Fanout<SwitchAction<NetMsg>> {
        match pkt.payload.body {
            Body::Server(ServerMsg::ChangeLogPush { .. }) => {
                return Fanout::one(SwitchAction::Drop)
            }
            Body::Server(ServerMsg::AggregationAck { .. }) => self.acks.set(self.acks.get() + 1),
            _ => {}
        }
        self.program.process(now, pkt)
    }
}

/// A round acknowledges its holders when its record is durable and charges
/// the entries' apply afterwards (`docs/persist-order.md`, Aggregation). A
/// crash in between must cost nothing: the record is on the log, so the
/// replay applies the batch; the holders, acknowledged, have discarded it.
#[test]
fn an_owner_crash_between_a_rounds_acknowledgments_and_the_end_of_its_apply_loses_nothing() {
    use switchfs::proto::{DirId, Fingerprint};
    use switchfs::workloads::{OpKind, WorkItem};
    const ENTRIES: usize = 1_000;
    let mut cluster = cluster();
    let hot = cluster.preload_dir("/hot");
    // Preloads bypass the WAL; the checkpoint lets them survive a crash.
    cluster.checkpoint_all();
    let acks = Rc::new(Cell::new(0));
    cluster.network().install_switch(Box::new(RoundsOnly {
        program: SwitchAdapter::new(cluster.switch_program().expect("in-network tracking")),
        acks: acks.clone(),
    }));
    // No push arrives: every create stays in its holder's change-log.
    let creates = (0..ENTRIES)
        .map(|i| WorkItem::new(OpKind::Create, format!("/hot/f{i}")))
        .collect();
    assert_eq!(cluster.run_workload(creates, 64, None).errors, 0);
    let owner = cluster
        .placement()
        .dir_owner_by_fp(Fingerprint::of_dir(&DirId::ROOT, "hot"))
        .0 as usize;
    let holders = cluster.servers().len() - 1;

    let (client, handle) = (cluster.client(0), cluster.sim.handle());
    let (server, network, node) = (
        cluster.servers()[owner].clone(),
        cluster.network(),
        cluster.server_node_id(owner),
    );
    let (applied_at_crash, size) = cluster.block_on(async move {
        let reader = client.clone();
        let read = handle.spawn_with_result(async move {
            loop {
                match reader.statdir("/hot").await {
                    // The retransmission reached the owner mid-recovery.
                    Err(FsError::Unavailable) => continue,
                    read => return read.expect("statdir").size,
                }
            }
        });
        // The read's round collects everything; its acknowledgments cross
        // the switch the moment the record is flushed …
        while acks.get() < holders {
            handle.sleep(SimDuration::nanos(100)).await;
        }
        // … and reach the holders while the owner is a few microseconds
        // into the 400 µs its four cores charge for the entries.
        handle.sleep(SimDuration::micros(5)).await;
        assert_eq!(server.fp_group_waiter_count(), 1, "the round has the lock");
        let applied_at_crash = server.stats().entries_applied;
        server.crash();
        network.set_node_down(node, true);
        handle.sleep(SimDuration::micros(400)).await;
        network.set_node_down(node, false);
        server.recover().await;
        (applied_at_crash, read.join().await)
    });
    assert_eq!(applied_at_crash, 0, "the crash came before the apply ended");
    assert_eq!(size as usize, ENTRIES, "statdir after the recovery");
    cluster.settle(SimDuration::millis(5));
    let client = cluster.client(0);
    let (attrs, listing) =
        cluster.block_on(async move { client.readdir("/hot").await.expect("readdir") });
    assert_eq!((attrs.size as usize, listing.len()), (ENTRIES, ENTRIES));
    assert_eq!(cluster.servers()[owner].peek_entries(&hot).len(), ENTRIES);
    for (i, server) in cluster.servers().iter().enumerate() {
        assert_eq!(server.pending_changelog_entries(), 0, "server {i}'s logs");
    }
    assert_eq!(
        cluster.total_server_stats().entries_applied as usize,
        ENTRIES,
        "each entry applied once"
    );
}

/// What [`ParkOneRename`] shares with the test.
#[derive(Default)]
struct Parked {
    /// The parked rename's op id and its coordinator's node.
    rename: Cell<Option<(OpId, NodeId)>>,
    /// While set, the client's retransmissions of the parked rename are lost
    /// and the responses to it are counted.
    hold: Cell<bool>,
    responses_held: Cell<usize>,
}

/// The cluster's switch program behind a filter that parks one rename: it
/// loses the first `TxnPrepare`, so that rename's coordinator waits for a
/// vote that never comes.
struct ParkOneRename {
    program: SwitchAdapter,
    last_rename: Option<OpId>,
    parked: Rc<Parked>,
}

impl SwitchLogic<NetMsg> for ParkOneRename {
    fn process(&mut self, now: SimTime, pkt: Packet<NetMsg>) -> Fanout<SwitchAction<NetMsg>> {
        let parked = &self.parked;
        let held = |op| parked.hold.get() && parked.rename.get().map(|(id, _)| id) == Some(op);
        match &pkt.payload.body {
            Body::Request(req) if matches!(req.op, MetaOp::Rename { .. }) => {
                if held(req.op_id) {
                    return Fanout::one(SwitchAction::Drop);
                }
                self.last_rename = Some(req.op_id);
            }
            Body::Server(ServerMsg::Request {
                req: Request::TxnPrepare { .. },
                ..
            }) if parked.rename.get().is_none() => {
                let op = self.last_rename.expect("a prepare follows its rename");
                parked.rename.set(Some((op, pkt.src)));
                return Fanout::one(SwitchAction::Drop);
            }
            Body::Response(response) if held(response.op_id) => {
                parked.responses_held.set(parked.responses_held.get() + 1);
            }
            _ => {}
        }
        self.program.process(now, pkt)
    }
}

/// A crash stops a server's packets, not the handlers already running. One
/// parked at an await across the crash resumes in the next incarnation —
/// here the moment recovery resets the table its vote wait is registered in,
/// with the stores not yet replayed — and must neither answer nor touch the
/// new incarnation's in-flight table: the client retransmits, and the
/// recovered server answers from the state it rebuilt.
#[test]
fn a_handler_parked_across_a_crash_does_not_answer_from_the_next_incarnation() {
    const CANDIDATES: usize = 8;
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/src").await.unwrap();
        for i in 0..CANDIDATES {
            client.mkdir(&format!("/dst{i}")).await.unwrap();
            client.create(&format!("/src/f{i}")).await.unwrap();
        }
    });
    let parked = Rc::new(Parked::default());
    cluster.network().install_switch(Box::new(ParkOneRename {
        program: SwitchAdapter::new(cluster.switch_program().expect("in-network tracking")),
        last_rename: None,
        parked: parked.clone(),
    }));
    let (client, handle, network) = (cluster.client(0), cluster.sim.handle(), cluster.network());
    let servers = cluster.servers().to_vec();
    let nodes: Vec<NodeId> = (0..servers.len())
        .map(|i| cluster.server_node_id(i))
        .collect();
    let seen = parked.clone();
    let (i, outcome) = cluster.block_on(async move {
        // Renames until one has a remote participant, whose prepare is
        // parked (placement decides which; the same one every run).
        for i in 0..CANDIDATES {
            let outcome: Outcome = Rc::new(RefCell::new(None));
            let (renamer, slot) = (client.clone(), outcome.clone());
            handle.spawn(async move {
                let (src, dst) = (format!("/src/f{i}"), format!("/dst{i}/g"));
                *slot.borrow_mut() = Some(renamer.rename(&src, &dst).await);
            });
            while outcome.borrow().is_none() && seen.rename.get().is_none() {
                handle.sleep(SimDuration::nanos(100)).await;
            }
            let Some((_, node)) = seen.rename.get() else {
                continue;
            };
            let server = &servers[nodes.iter().position(|n| *n == node).unwrap()];
            seen.hold.set(true);
            server.crash();
            network.set_node_down(node, true);
            handle.sleep(SimDuration::micros(20)).await;
            network.set_node_down(node, false);
            server.recover().await;
            seen.hold.set(false);
            while outcome.borrow().is_none() {
                handle.sleep(SimDuration::micros(10)).await;
            }
            return (i, outcome.take());
        }
        panic!("no rename had a remote participant");
    });
    assert_eq!(
        parked.responses_held.get(),
        0,
        "a handler of the crashed incarnation answered the rename"
    );
    assert_eq!(outcome, Some(Ok(())));
    let client = cluster.client(0);
    cluster.block_on(async move {
        let (src, dst) = (format!("/src/f{i}"), format!("/dst{i}/g"));
        assert_eq!(client.stat(&src).await.err(), Some(FsError::NotFound));
        client.stat(&dst).await.expect("the rename's destination");
        for (dir, name, listed) in [
            ("/src", format!("f{i}"), false),
            (&format!("/dst{i}"), "g".into(), true),
        ] {
            let (attrs, listing) = client.readdir(dir).await.unwrap();
            assert_eq!(attrs.size, listing.len() as u64, "{dir}");
            assert_eq!(listing.iter().any(|e| e.name == name), listed, "{dir}");
        }
    });
    cluster.settle(SimDuration::millis(5));
    for (s, server) in cluster.servers().iter().enumerate() {
        assert_eq!(server.in_flight_op_count(), 0, "server {s}");
    }
}

// ---------------------------------------------------------------------------
// Torn-write disk chaos: checksummed WAL + persist-ordering barriers (PR 6)
// ---------------------------------------------------------------------------

/// The acceptance-criteria demo: a server is crashed *mid-append* so its WAL
/// holds an unflushed tail, the crash tears that tail, and recovery detects
/// it, truncates it, and loses **zero acknowledged updates** — every create
/// the client saw complete before the crash is still visible after it.
#[test]
fn torn_wal_tail_is_detected_truncated_and_loses_no_acked_update() {
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/torn").await.unwrap();
        for i in 0..100 {
            client.create(&format!("/torn/f{i}")).await.unwrap();
        }
    });
    // Widen the torn-write window (append → disk wait → flush): with 64×
    // slower appends the stepping below reliably pauses the simulation while
    // some server holds appended-but-unflushed records.
    for s in cluster.servers() {
        s.set_disk_slowdown(64);
    }
    let progress = Rc::new(RefCell::new(0usize));
    {
        let client = cluster.client(0);
        let progress = progress.clone();
        cluster.sim.spawn(async move {
            for i in 0..20 {
                // Unacknowledged at crash time: any outcome is acceptable,
                // the client just keeps the cluster busy.
                let _ = client.create(&format!("/torn/g{i}")).await;
                *progress.borrow_mut() += 1;
            }
        });
    }
    let mut victim = None;
    let deadline = cluster.sim.now() + SimDuration::millis(50);
    while cluster.sim.now() < deadline {
        let t = cluster.sim.now() + SimDuration::micros(5);
        cluster.run_until(t);
        if let Some(v) = (0..cluster.servers().len())
            .find(|i| cluster.durable_state(*i).borrow().wal.unflushed_len() > 0)
        {
            victim = Some(v);
            break;
        }
    }
    let victim = victim.expect("no server was caught mid-append with an unflushed tail");
    // A tear seed that provably corrupts at least one unflushed record.
    let seed = {
        let durable = cluster.durable_state(victim);
        (0..10_000u64)
            .find(|s| {
                let mut probe = durable.borrow().wal.clone();
                probe.crash_apply(*s).torn > 0
            })
            .expect("no tearing seed in 10k tries")
    };
    let tail = cluster.crash_server_torn(victim, seed);
    assert!(tail.torn > 0, "the crash must tear the tail: {tail:?}");
    for s in cluster.servers() {
        s.set_disk_slowdown(1);
    }

    let report = cluster.recover_server(victim);
    assert!(
        report.wal_torn_records >= 1,
        "recovery must detect the torn records: {report:?}"
    );
    assert!(
        report.wal_truncated_records >= report.wal_torn_records,
        "every torn record (and anything stranded behind it) is truncated: {report:?}"
    );
    assert!(report.wal_bytes_replayed > 0);
    assert!(
        cluster.durable_state(victim).borrow().wal.generation() >= 2,
        "recovery must bump the WAL generation"
    );

    // Let the background burst ride out its retries.
    let deadline = cluster.sim.now() + SimDuration::millis(500);
    while *progress.borrow() < 20 && cluster.sim.now() < deadline {
        let t = cluster.sim.now() + SimDuration::millis(1);
        cluster.run_until(t);
    }

    // Zero lost acknowledged updates: all 100 acked creates are visible by
    // stat and by listing.
    let client = cluster.client(0);
    cluster.block_on(async move {
        for i in 0..100 {
            client.stat(&format!("/torn/f{i}")).await.unwrap();
        }
        let (_, entries) = client.readdir("/torn").await.unwrap();
        for i in 0..100 {
            assert!(
                entries.iter().any(|e| e.name == format!("f{i}")),
                "acknowledged create f{i} lost to the torn tail"
            );
        }
    });
}

/// Crash-in-window regression for the durable-completion barrier
/// (`reply` persists + flushes the completion record *before* the
/// acknowledgment escapes): even a crash that destroys the entire unflushed
/// tail must leave an acknowledged operation's completion record behind, so
/// a retransmission spanning the crash gets the original result instead of
/// a re-execution.
#[test]
fn retransmission_after_torn_crash_still_gets_the_original_result() {
    use switchfs::proto::message::{
        Body, ClientRequest, MetaOp, NetMsg, PacketSeq, ParentRef, ServerMsg,
    };
    use switchfs::proto::{ClientId, DirId, Fingerprint, MetaKey, OpId, OpResult, Permissions};
    use switchfs::simnet::NodeId;

    let cluster = cluster();
    let placement = cluster.placement();
    let key = MetaKey::new(DirId::ROOT, "torn-victim-file");
    let owner = placement.file_owner(&key).0 as usize;
    let owner_node = cluster.server_node_id(owner);

    let endpoint = Rc::new(cluster.network().register(NodeId(7778)));
    let request = Rc::new(ClientRequest {
        op_id: OpId {
            client: ClientId(78),
            seq: 1,
        },
        op: MetaOp::Create {
            key,
            perm: Permissions::default(),
        },
        ancestors: vec![DirId::ROOT],
        parent: Some(ParentRef {
            key: MetaKey::new(DirId::ROOT, ""),
            id: DirId::ROOT,
            fp: Fingerprint::of_dir(&DirId::ROOT, ""),
        }),
        epoch: 0,
        acked_below: 0,
    });

    let send_and_wait = |pkt_seq: u64| {
        let endpoint = endpoint.clone();
        let request = request.clone();
        cluster.block_on(async move {
            endpoint.send(
                owner_node,
                NetMsg::plain(
                    PacketSeq {
                        sender: 7778,
                        seq: pkt_seq,
                    },
                    Body::Request(request),
                ),
            );
            loop {
                let pkt = endpoint.recv().await.expect("network alive");
                match pkt.payload.body {
                    Body::Response(r) => return r,
                    Body::Server(ServerMsg::AsyncCommit { response, .. }) => return response,
                    _ => {}
                }
            }
        })
    };

    let first = send_and_wait(1);
    assert!(
        first.result.is_ok(),
        "initial create failed: {:?}",
        first.result
    );

    // Worst-case torn crash: nothing unflushed survives. The acknowledged
    // create's op record and completion record were flushed before the ack
    // escaped, so both are in the surviving prefix by construction.
    let seed = tear_all_seed(&cluster, owner);
    cluster.crash_server_torn(owner, seed);
    let report = cluster.recover_server(owner);
    assert!(
        report.completed_ops_recovered > 0,
        "the flushed completion record must survive the torn tail: {report:?}"
    );

    let second = send_and_wait(2);
    assert_eq!(
        second.result, first.result,
        "retransmission across the torn crash must return the original result"
    );
    assert!(
        !matches!(second.result, OpResult::Err(FsError::AlreadyExists)),
        "recovered server re-executed a completed create"
    );
}

/// Crash-in-window regression for the Prepared-before-vote barrier
/// (`log_txn_marker` flushes before returning, and the participant inserts
/// the volatile entry — observable by this test — only after that): a
/// participant hit by a worst-case torn crash right after voting yes must
/// still find its in-doubt transaction in the WAL's surviving prefix and
/// resolve it by re-asking the coordinator.
#[test]
fn participant_torn_crash_after_vote_still_recovers_the_prepared_txn() {
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/tt").await.unwrap();
        client.mkdir("/tt2").await.unwrap();
        client.mkdir("/tt3").await.unwrap();
    });

    let mut crashed: Option<usize> = None;
    let mut outcome: Option<Outcome> = None;
    'candidates: for (i, dst_dir) in ["/tt2", "/tt3"].iter().enumerate() {
        let src = format!("/tt/a{i}");
        let dst = format!("{dst_dir}/b{i}");
        let client = cluster.client(0);
        let src2 = src.clone();
        cluster.block_on(async move {
            client.create(&src2).await.unwrap();
        });
        let done: Outcome = Rc::new(RefCell::new(None));
        let done2 = done.clone();
        let client = cluster.client(0);
        cluster.sim.spawn(async move {
            let r = client.rename(&src, &dst).await;
            *done2.borrow_mut() = Some(r);
        });
        let mut t = cluster.sim.now();
        let deadline = t + SimDuration::millis(50);
        while cluster.sim.now() < deadline {
            t += SimDuration::micros(5);
            cluster.run_until(t);
            if let Some(v) = (0..cluster.servers().len())
                .find(|i| cluster.servers()[*i].prepared_txn_count() > 0)
            {
                // The worst case the device can produce: every unflushed
                // record is torn or dropped. The Prepared marker must not be
                // among them.
                let seed = tear_all_seed(&cluster, v);
                cluster.crash_server_torn(v, seed);
                crashed = Some(v);
                outcome = Some(done.clone());
                break 'candidates;
            }
            if done.borrow().is_some() {
                continue 'candidates;
            }
        }
    }
    let victim = crashed.expect("no rename left an observable prepared transaction");
    let outcome = outcome.unwrap();

    {
        let deadline = cluster.sim.now() + SimDuration::millis(200);
        while outcome.borrow().is_none() && cluster.sim.now() < deadline {
            let t = cluster.sim.now() + SimDuration::millis(1);
            cluster.run_until(t);
        }
    }
    assert_eq!(
        *outcome.borrow(),
        Some(Ok(())),
        "rename must commit even though a participant tore its disk after voting"
    );

    let report = cluster.recover_server(victim);
    assert!(
        report.prepared_txns_recovered >= 1,
        "the flushed Prepared marker must survive a total torn tail: {report:?}"
    );
    assert_eq!(
        report.txn_commits_recovered, report.prepared_txns_recovered,
        "every in-doubt transaction must resolve to the coordinator's commit: {report:?}"
    );
    assert_eq!(report.txn_unresolved, 0, "{report:?}");
}

/// Satellite regression: a `TxnMarker::Resolved` whose matching `Prepared`
/// is nowhere to be found (torn away, or plain absent) must be tolerated —
/// counted, never panicked on, never silently leaving a transaction in
/// doubt.
#[test]
fn orphan_resolved_marker_is_tolerated_and_counted() {
    use switchfs::server::{TxnMarker, WalOp};

    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/orphan").await.unwrap();
        client.create("/orphan/f").await.unwrap();
    });
    {
        let durable = cluster.durable_state(2);
        let mut durable = durable.borrow_mut();
        let record = WalOp::Txn(TxnMarker::Resolved {
            txn_id: 0xdead_beef,
        });
        let size = record.wire_size();
        durable.wal.append_sized(record, size);
        durable.wal.flush();
    }
    cluster.crash_server(2);
    let report = cluster.recover_server(2);
    assert_eq!(report.orphan_resolved_markers, 1, "{report:?}");
    assert_eq!(report.txn_unresolved, 0, "{report:?}");
    assert_eq!(report.prepared_txns_recovered, 0, "{report:?}");
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.stat("/orphan/f").await.unwrap();
    });
}

/// Every multi-record protocol's marker type can sit in the unflushed tail
/// when the disk tears it away completely; recovery must truncate them all
/// cleanly — no panic, no resurrected transaction or migration, watermark
/// and acked namespace intact.
#[test]
fn unflushed_protocol_records_of_every_kind_truncate_cleanly() {
    use switchfs::proto::message::{ClientResponse, TxnOp};
    use switchfs::proto::{ClientId, DirId, MetaKey, OpId, OpResult, ServerId};
    use switchfs::server::wal::MigrationMarker;
    use switchfs::server::{KvEffect, TxnMarker, WalOp};

    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/win").await.unwrap();
        for i in 0..10 {
            client.create(&format!("/win/f{i}")).await.unwrap();
        }
    });
    let victim = 1usize;
    let flushed_before = {
        let durable = cluster.durable_state(victim);
        let mut durable = durable.borrow_mut();
        let flushed = durable.wal.flushed();
        let records = vec![
            WalOp::local(
                None,
                vec![KvEffect::DeleteInode(MetaKey::new(DirId::ROOT, "x"))],
            ),
            WalOp::Txn(TxnMarker::Prepared {
                txn_id: 4242,
                coordinator: ServerId(0),
                ops: vec![TxnOp::DeleteInode {
                    key: MetaKey::new(DirId::ROOT, "x"),
                }],
            }),
            WalOp::Txn(TxnMarker::Decided { txn_id: 4242 }),
            WalOp::Txn(TxnMarker::Resolved { txn_id: 4242 }),
            WalOp::Txn(TxnMarker::Forgotten { txn_id: 4242 }),
            WalOp::Migration(MigrationMarker::Started {
                shard: 3,
                target: ServerId(0),
            }),
            WalOp::Migration(MigrationMarker::Completed { shard: 4 }),
            WalOp::Completed(ClientResponse {
                op_id: OpId {
                    client: ClientId(9),
                    seq: 9,
                },
                result: OpResult::Done,
                server: ServerId(victim as u32),
            }),
        ];
        // "Every kind" is the compiler's to check: with a new record or
        // marker kind this match does not build until the kind is listed,
        // next number, next record above.
        let kinds: Vec<usize> = records
            .iter()
            .map(|record| match record {
                WalOp::Effects { .. } => 0,
                WalOp::Txn(TxnMarker::Prepared { .. }) => 1,
                WalOp::Txn(TxnMarker::Decided { .. }) => 2,
                WalOp::Txn(TxnMarker::Resolved { .. }) => 3,
                WalOp::Txn(TxnMarker::Forgotten { .. }) => 4,
                WalOp::Migration(MigrationMarker::Started { .. }) => 5,
                WalOp::Migration(MigrationMarker::Completed { .. }) => 6,
                WalOp::Completed(_) => 7,
            })
            .collect();
        assert_eq!(kinds, (0..records.len()).collect::<Vec<_>>());
        for record in records {
            let size = record.wire_size();
            // Deliberately left unflushed: these model records caught
            // mid-append when the crash hits.
            durable.wal.append_sized(record, size);
        }
        flushed
    };
    let seed = tear_all_seed(&cluster, victim);
    let tail = cluster.crash_server_torn(victim, seed);
    assert_eq!(tail.kept, 0, "{tail:?}");
    assert!(tail.torn + tail.dropped >= 5, "{tail:?}");

    let report = cluster.recover_server(victim);
    assert_eq!(
        report.wal_truncated_records, tail.torn,
        "exactly the torn survivors are truncated (dropped ones never hit media): {report:?}"
    );
    assert_eq!(
        report.prepared_txns_recovered, 0,
        "a torn Prepared must not resurrect an in-doubt transaction: {report:?}"
    );
    assert_eq!(report.txn_unresolved, 0, "{report:?}");
    assert_eq!(
        report.migrations_resolved, 0,
        "a torn migration marker must not trigger shard resolution: {report:?}"
    );
    assert!(
        cluster.durable_state(victim).borrow().wal.flushed() >= flushed_before,
        "truncation must never regress the durable watermark"
    );
    let client = cluster.client(0);
    cluster.block_on(async move {
        for i in 0..10 {
            client.stat(&format!("/win/f{i}")).await.unwrap();
        }
    });
}

// ---------------------------------------------------------------------------
// Bounded duplicate-suppression state + crash-surviving dedup (PR 4)
// ---------------------------------------------------------------------------

/// Regression: `completed_ops` used to grow by one cached response per
/// operation forever. With the piggybacked acked-watermark (plus the
/// bounded-LRU fallback) the cache must stay within the in-flight window
/// under sustained load, not within the server's lifetime.
#[test]
fn completed_ops_stay_bounded_under_sustained_load() {
    use switchfs::workloads::{NamespaceSpec, OpKind, WorkloadBuilder};

    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 4;
    cfg.clients = 4;
    let mut cluster = Cluster::new(cfg);
    let ns = NamespaceSpec::multi_dir(16, 0);
    for d in ns.all_dirs() {
        cluster.preload_dir(&d);
    }
    let mut builder = WorkloadBuilder::new(ns, 11);
    let in_flight = 64usize;
    let total_ops = 10_000usize;
    let report = cluster.run_workload(builder.uniform(OpKind::Create, total_ops), in_flight, None);
    assert_eq!(report.ops as usize, total_ops);

    let cached: usize = cluster
        .servers()
        .iter()
        .map(|s| s.completed_op_count())
        .sum();
    // Every (client, server) pair retains at most about one in-flight
    // window of responses (the tail since that client's last watermark).
    let bound = cluster.clients().len() * cluster.servers().len() * 2 * in_flight;
    assert!(
        cached <= bound,
        "dedup cache grew to {cached} entries after {total_ops} ops (bound {bound})"
    );
    // And the bound is far below one-entry-per-op (the old behavior).
    assert!(
        cached < total_ops / 2,
        "cache {cached} ~ op count {total_ops}"
    );
}

/// Regression, on every tracker and three seeds of a lossy network: a
/// `statdir` after each create counts exactly the creates acknowledged so
/// far, and once the run quiesces no server still waits on a token. The
/// dedicated tracker acknowledged a create after one lost insert packet; on
/// every tracker a retransmitted create was answered from the completion
/// cache before its parent was marked; and a token-matched wait whose reply
/// was lost used to stay registered for the server's lifetime.
#[test]
fn every_tracker_answers_statdir_with_every_acked_create_and_no_wait_left() {
    use switchfs::core::TrackingChoice;
    use switchfs::simnet::NetFaults;

    for tracking in [
        TrackingChoice::InNetwork,
        TrackingChoice::DedicatedServer,
        TrackingChoice::OwnerServer,
    ] {
        for seed in [42, 1, 7] {
            let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
            cfg.servers = 4;
            cfg.clients = 1;
            cfg.seed = seed;
            cfg.tracking = tracking;
            cfg.net_faults = NetFaults::lossy(0.05, 0.02, SimDuration::micros(2));
            let cluster = Cluster::new(cfg);
            let client = cluster.client(0);
            let stale = cluster.block_on(async move {
                client.mkdir("/d").await.unwrap();
                let mut acked = 0;
                let mut stale = Vec::new();
                for i in 0..300 {
                    if client.create(&format!("/d/f{i}")).await.is_ok() {
                        acked += 1;
                    }
                    let size = client.statdir("/d").await.unwrap().size;
                    if size != acked {
                        stale.push((i, size, acked));
                    }
                }
                stale
            });
            let case = format!("{tracking:?}, seed {seed}");
            assert!(
                stale.is_empty(),
                "{case}: statdir disagrees with the acknowledged creates \
                 (create, size, acked): {stale:?}"
            );
            assert!(
                cluster.network().stats().dropped_faults > 0,
                "{case}: the run must actually lose packets"
            );
            for server in cluster.servers() {
                assert_eq!(
                    server.pending_token_count(),
                    0,
                    "{case}: {} still waits on a token after quiescence",
                    server.id()
                );
            }
        }
    }
}

/// Regression: crash recovery used to clear `completed_ops`, so a
/// retransmission of an operation that completed *before* the crash
/// re-executed after it — a recovered create answered its own originator
/// with `AlreadyExists` instead of the original result. The responses of
/// mutating operations are now WAL-durable (and carried by checkpoints):
/// the retransmit must get the original answer back.
#[test]
fn retransmission_after_crash_gets_the_original_result() {
    use switchfs::proto::message::{
        Body, ClientRequest, MetaOp, NetMsg, PacketSeq, ParentRef, ServerMsg,
    };
    use switchfs::proto::{ClientId, DirId, Fingerprint, MetaKey, OpId, OpResult, Permissions};
    use switchfs::simnet::NodeId;

    let cluster = cluster();
    let placement = cluster.placement();
    let key = MetaKey::new(DirId::ROOT, "victim-file");
    let owner = placement.file_owner(&key).0 as usize;
    let owner_node = cluster.server_node_id(owner);

    // A raw client endpoint lets the test model the exact failure window:
    // the response is produced (and the reply sent) but the "client" acts
    // as if it never consumed it, retransmitting the identical request
    // after the server crashed and recovered.
    let endpoint = Rc::new(cluster.network().register(NodeId(7777)));
    let request = Rc::new(ClientRequest {
        op_id: OpId {
            client: ClientId(77),
            seq: 1,
        },
        op: MetaOp::Create {
            key,
            perm: Permissions::default(),
        },
        ancestors: vec![DirId::ROOT],
        parent: Some(ParentRef {
            key: MetaKey::new(DirId::ROOT, ""),
            id: DirId::ROOT,
            fp: Fingerprint::of_dir(&DirId::ROOT, ""),
        }),
        epoch: 0,
        acked_below: 0,
    });

    let send_and_wait = |pkt_seq: u64| {
        let endpoint = endpoint.clone();
        let request = request.clone();
        cluster.block_on(async move {
            endpoint.send(
                owner_node,
                NetMsg::plain(
                    PacketSeq {
                        sender: 7777,
                        seq: pkt_seq,
                    },
                    Body::Request(request),
                ),
            );
            loop {
                let pkt = endpoint.recv().await.expect("network alive");
                match pkt.payload.body {
                    Body::Response(r) => return r,
                    // Double-inode responses arrive through the switch's
                    // commit multicast, like LibFs consumes them.
                    Body::Server(ServerMsg::AsyncCommit { response, .. }) => return response,
                    _ => {}
                }
            }
        })
    };

    let first = send_and_wait(1);
    assert!(
        first.result.is_ok(),
        "initial create failed: {:?}",
        first.result
    );

    cluster.crash_server(owner);
    let report = cluster.recover_server(owner);
    assert!(
        report.completed_ops_recovered > 0,
        "recovery must rebuild the dedup cache from the WAL"
    );

    let second = send_and_wait(2);
    assert_eq!(
        second.result, first.result,
        "retransmission across the crash must return the original result"
    );
    assert!(
        !matches!(second.result, OpResult::Err(FsError::AlreadyExists)),
        "recovered server re-executed a completed create"
    );
}

/// Regression: `applied_entry_ids` (change-log duplicate suppression) used
/// to grow by one OpId per remote entry for the server's lifetime, and every
/// `ShardInstall` shipped a full copy. With holders confirming durable
/// discards (piggybacked on messages that already flow) the set must stay
/// within the in-flight confirmation window under sustained cross-server
/// directory-update load — mirroring the PR 4 `completed_ops` bound.
#[test]
fn applied_entry_ids_stay_bounded_under_sustained_cross_server_load() {
    use switchfs::workloads::{NamespaceSpec, OpKind, WorkloadBuilder};

    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 4;
    cfg.clients = 4;
    let mut cluster = Cluster::new(cfg);
    let ns = NamespaceSpec::multi_dir(16, 0);
    for d in ns.all_dirs() {
        cluster.preload_dir(&d);
    }
    let mut builder = WorkloadBuilder::new(ns, 11);
    let total_ops = 10_000usize;
    let report = cluster.run_workload(builder.uniform(OpKind::Create, total_ops), 64, None);
    assert_eq!(report.ops as usize, total_ops);
    // Let the trailing pushes, acks and piggybacked confirmations drain.
    cluster.settle(SimDuration::millis(10));

    let unconfirmed: usize = cluster
        .servers()
        .iter()
        .map(|s| s.applied_entry_id_count())
        .sum();
    // Residual unconfirmed ids: at most the last un-ridden batch per
    // (holder, owner) pair plus the in-flight window — far below one id
    // per operation (the old behavior retained all 10k forever).
    let pairs = cluster.servers().len() * (cluster.servers().len() - 1);
    let bound = pairs * 256;
    assert!(
        unconfirmed <= bound,
        "applied_entry_ids grew to {unconfirmed} after {total_ops} ops (bound {bound})"
    );
    assert!(
        unconfirmed < total_ops / 4,
        "unconfirmed {unconfirmed} ~ op count {total_ops}"
    );
    // The retired FIFO is retention-bounded, not lifetime-bounded. Eviction
    // is lazy (it runs on retirement activity), so: let the 100 ms
    // retention window pass, then drive a second, much smaller workload —
    // its confirmations must evict the first 10k ids, leaving the FIFO
    // sized by the *recent* window only.
    cluster.settle(SimDuration::millis(120));
    let tail_ops = 1_000usize;
    let report = cluster.run_workload(builder.uniform(OpKind::Create, tail_ops), 64, None);
    assert_eq!(report.ops as usize, tail_ops);
    cluster.settle(SimDuration::millis(10));
    let retired: usize = cluster
        .servers()
        .iter()
        .map(|s| s.retired_entry_id_count())
        .sum();
    assert!(
        retired <= tail_ops + bound,
        "retention eviction did not run: {retired} retired ids after a {tail_ops}-op tail \
         (first window was {total_ops} ops)"
    );
    assert!(
        retired < total_ops / 2,
        "retired FIFO {retired} still holds the first window's {total_ops} ids"
    );
}

// ---------------------------------------------------------------------------
// Live shard migration / elastic membership (PR 4 tentpole)
// ---------------------------------------------------------------------------

/// `Cluster::add_server` + `rebalance` on a loaded cluster: only ~1/N of
/// the shards move, every file survives, directory listings stay complete,
/// and a client holding the stale map is transparently redirected via
/// `WrongOwner` refresh-and-retry.
#[test]
fn add_server_rebalances_a_fair_share_and_preserves_the_namespace() {
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 4;
    cfg.clients = 2;
    let mut cluster = Cluster::new(cfg);

    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/elastic").await.unwrap();
        for i in 0..120 {
            client.create(&format!("/elastic/f{i}")).await.unwrap();
        }
    });

    let num_shards = cluster.placement().map().num_shards();
    let new_idx = cluster.add_server();
    assert_eq!(new_idx, 4);
    let moved = cluster.rebalance();

    // Bounded movement: the newcomer's fair share, nothing more.
    let fair = num_shards / 5;
    assert!(
        moved >= fair - 1 && moved <= num_shards / 4,
        "moved {moved} shards of {num_shards} (fair share {fair})"
    );
    assert_eq!(
        cluster
            .placement()
            .map()
            .shards_owned(switchfs::proto::ServerId(4)),
        moved,
        "every migrated shard must now be owned by the new server"
    );
    assert!(
        cluster.placement().map().epoch() > 0,
        "the flip must bump the epoch"
    );
    let stats = cluster.total_server_stats();
    assert_eq!(stats.shards_migrated_in as usize, moved);
    assert_eq!(stats.shards_migrated_out as usize, moved);
    assert_eq!(
        cluster
            .servers()
            .iter()
            .map(|s| s.migrating_shard_count())
            .sum::<usize>(),
        0,
        "no shard may stay frozen after the rebalance"
    );

    // The new server actually took over state.
    assert!(
        cluster.servers()[4].inode_count() > 0,
        "the new server should own migrated inodes"
    );

    // Clients still see the full namespace — including client 0, whose
    // cached map is stale and must be refreshed by WrongOwner rejections.
    let client = cluster.client(0);
    cluster.block_on(async move {
        let dir = client.statdir("/elastic").await.unwrap();
        assert_eq!(dir.size, 120);
        let (_, entries) = client.readdir("/elastic").await.unwrap();
        assert_eq!(entries.len(), 120);
        for i in 0..120 {
            client.stat(&format!("/elastic/f{i}")).await.unwrap();
        }
    });

    // And the cluster keeps accepting writes routed by the new map.
    let client = cluster.client(1);
    cluster.block_on(async move {
        for i in 120..140 {
            client.create(&format!("/elastic/f{i}")).await.unwrap();
        }
        let dir = client.statdir("/elastic").await.unwrap();
        assert_eq!(dir.size, 140);
    });
}

/// A client whose map predates the move of a file's shard routes a rename
/// of that file to the shard's old owner. When that server is also where a
/// directory of the same name is reached, rename's second route lets the
/// request through there; finding no file, it must send the client to the
/// current owner rather than answer `NotFound`.
#[test]
fn a_file_rename_routed_by_a_stale_map_to_the_names_access_owner_is_redirected() {
    use switchfs::proto::{Fingerprint, MetaKey, ServerId};
    let mut cluster = cluster();
    let dir = cluster.preload_dir("/r");
    let placement = cluster.placement();
    // A name whose file and directory routes meet on one server through
    // different shards: moving the file's shard leaves that server the
    // name's access owner.
    let key = (0..)
        .map(|i| MetaKey::new(dir, format!("f{i}")))
        .find(|key| {
            let file = key.hash64();
            let fp = Fingerprint::of_dir(&key.pid, &key.name).hash64();
            placement.owner_of_hash(file) == placement.owner_of_hash(fp)
                && placement.map().shard_of_hash(file) != placement.map().shard_of_hash(fp)
        })
        .unwrap();
    let path = format!("/r/{}", key.name);
    let client = cluster.client(0);
    let created = path.clone();
    cluster.block_on(async move { client.create(&created).await.unwrap() });

    let old = placement.file_owner(&key);
    let new = ServerId((old.0 + 1) % cluster.servers().len() as u32);
    let shard = placement.map().shard_of_hash(key.hash64());
    let (donor, flip) = (cluster.servers()[old.0 as usize].clone(), placement.clone());
    let moved = cluster.block_on(async move {
        donor
            .migrate_shards(&[(shard, new)], |s, to| flip.map_mut().assign(s, to))
            .await
    });
    assert_eq!(moved, 1);
    assert_eq!(placement.file_owner(&key), new);
    assert_eq!(placement.dir_access_owner(&key), old);

    // The client still holds the map from before the move.
    let client = cluster.client(0);
    let outcome = cluster.block_on(async move { client.rename(&path, "/r/g").await });
    assert_eq!(outcome, Ok(()), "the rename reached the file's owner");
    assert_eq!(cluster.client(0).stats().map_refreshes, 1);
    let client = cluster.client(0);
    cluster.block_on(async move {
        client.stat("/r/g").await.expect("the rename's destination");
        let (attrs, listing) = client.readdir("/r").await.unwrap();
        assert_eq!(attrs.size, 1);
        assert_eq!(listing[0].name, "g");
    });
}

/// The cluster's switch program behind a filter that loses the first
/// asynchronous commit it sees.
struct LoseFirstCommit {
    program: SwitchAdapter,
    lost: Rc<Cell<bool>>,
}

impl SwitchLogic<NetMsg> for LoseFirstCommit {
    fn process(&mut self, now: SimTime, pkt: Packet<NetMsg>) -> Fanout<SwitchAction<NetMsg>> {
        if matches!(
            pkt.payload.body,
            Body::Server(ServerMsg::AsyncCommit { .. })
        ) && !self.lost.replace(true)
        {
            return Fanout::one(SwitchAction::Drop);
        }
        self.program.process(now, pkt)
    }
}

/// An overflowed create whose parent's shard moves while the commit is in
/// flight. The switch rewrites every copy of the commit to the owner its
/// header named before the first, and that server no longer owns the
/// directory: it refuses, and the create's server updates the parent at the
/// owner the map names now and replies, instead of spending its retry budget
/// on the old one.
#[test]
fn an_overflowed_create_whose_parent_moves_is_applied_at_the_new_owner() {
    use switchfs::proto::{DirId, Fingerprint, MetaKey, ServerId};
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 4;
    cfg.clients = 1;
    cfg.force_dirty_overflow = true;
    let mut cluster = Cluster::new(cfg);
    let dir = cluster.preload_dir("/o");
    let placement = cluster.placement();
    let fp = Fingerprint::of_dir(&DirId::ROOT, "o");
    let old = placement.dir_owner_by_fp(fp);
    let new = ServerId((old.0 + 1) % cluster.servers().len() as u32);
    // A file on neither owner, so both parent updates cross the network.
    let name = (0..)
        .map(|i| format!("f{i}"))
        .find(|name| ![old, new].contains(&placement.file_owner(&MetaKey::new(dir, name))))
        .unwrap();
    let lost = Rc::new(Cell::new(false));
    cluster.network().install_switch(Box::new(LoseFirstCommit {
        program: SwitchAdapter::new(cluster.switch_program().expect("in-network tracking")),
        lost: lost.clone(),
    }));

    let (client, path) = (cluster.client(0), format!("/o/{name}"));
    let (donor, flip) = (cluster.servers()[old.0 as usize].clone(), placement.clone());
    let shard = placement.map().shard_of_hash(fp.hash64());
    let h = cluster.sim.handle();
    let (flipped_at, acked_at) = cluster.block_on(async move {
        let clock = h.clone();
        let create = h.spawn_with_result(async move {
            client.create(&path).await.expect("the create");
            clock.now()
        });
        while !lost.get() {
            h.sleep(SimDuration::micros(1)).await;
        }
        let flipped_at = Cell::new(None);
        let moved = donor
            .migrate_shards(&[(shard, new)], |s, to| {
                flip.map_mut().assign(s, to);
                flipped_at.set(Some(h.now()));
            })
            .await;
        assert_eq!(moved, 1);
        (flipped_at.get().unwrap(), create.join().await)
    });
    let budget = cluster.config().cost_model().request_timeout * 3;
    assert!(
        acked_at.duration_since(flipped_at) <= budget,
        "acknowledged {:?} after the flip, more than {budget:?}",
        acked_at.duration_since(flipped_at)
    );
    assert!(
        cluster.servers()[new.0 as usize]
            .peek_entries(&dir)
            .contains(&name),
        "the new owner lists the entry"
    );
}

// ---------------------------------------------------------------------------
// Graceful server decommission (elastic shrink)
// ---------------------------------------------------------------------------

/// `Cluster::remove_server` on a loaded cluster: every shard the victim owns
/// drains to the survivors, the id retires with an epoch bump, the victim
/// becomes a WrongOwner redirect tombstone, and clients holding the stale
/// map see the full namespace via refresh-and-retry.
#[test]
fn remove_server_drains_every_shard_and_preserves_the_namespace() {
    use switchfs::proto::ServerId;

    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 4;
    cfg.clients = 2;
    let mut cluster = Cluster::new(cfg);

    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/shrink").await.unwrap();
        for i in 0..120 {
            client.create(&format!("/shrink/f{i}")).await.unwrap();
        }
    });

    let victim = 1usize;
    let victim_id = ServerId(victim as u32);
    let owned_before = cluster.placement().map().shards_owned(victim_id);
    assert!(owned_before > 0);

    let report = cluster.remove_server(victim);
    assert!(report.completed, "drain must finish on a healthy cluster");
    assert_eq!(
        report.shards_moved, owned_before,
        "every victim shard must migrate"
    );
    assert_eq!(cluster.placement().map().shards_owned(victim_id), 0);
    assert!(cluster.placement().map().is_retired(victim_id));
    assert_eq!(cluster.placement().map().num_active_servers(), 3);
    assert!(
        cluster.placement().map().epoch() as usize > owned_before,
        "each flip and the retirement bump the epoch"
    );
    assert!(cluster.servers()[victim].is_decommissioned());
    // Everything with a routing role migrated; at most the defensive
    // preload replica of the root (installed on both the fp- and id-hash
    // owners at setup, of which only the fp copy has a role under per-file
    // hashing) may remain.
    assert!(
        cluster.servers()[victim].inode_count() <= 1,
        "a drained victim stores nothing protocol-visible, found {}",
        cluster.servers()[victim].inode_count()
    );
    assert_eq!(
        cluster.servers()[victim].pending_changelog_entries(),
        0,
        "a drained victim holds no deferred updates"
    );
    assert_eq!(
        cluster
            .servers()
            .iter()
            .map(|s| s.migrating_shard_count())
            .sum::<usize>(),
        0
    );

    // Client 0's cached map is stale; WrongOwner redirects (including from
    // the victim's tombstone) must refresh it transparently.
    let client = cluster.client(0);
    cluster.block_on(async move {
        let dir = client.statdir("/shrink").await.unwrap();
        assert_eq!(dir.size, 120);
        let (_, entries) = client.readdir("/shrink").await.unwrap();
        assert_eq!(entries.len(), 120);
        for i in 0..120 {
            client.stat(&format!("/shrink/f{i}")).await.unwrap();
        }
    });

    // The shrunken cluster keeps accepting writes.
    let client = cluster.client(1);
    cluster.block_on(async move {
        for i in 120..150 {
            client.create(&format!("/shrink/f{i}")).await.unwrap();
        }
        let dir = client.statdir("/shrink").await.unwrap();
        assert_eq!(dir.size, 150);
    });
}

/// A decommission interrupted by a crash must resolve from the WAL
/// `MigrationMarker`s on recovery (flipped shards drop their replayed stale
/// copies; unflipped ones stay owned), and re-running `remove_server`
/// afterwards finishes the drain with the namespace intact.
#[test]
fn crash_mid_decommission_resolves_from_wal_markers_and_converges() {
    use switchfs::proto::ServerId;

    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 4;
    cfg.clients = 2;
    let mut cluster = Cluster::new(cfg);

    let client = cluster.client(0);
    cluster.block_on(async move {
        client.mkdir("/shrink2").await.unwrap();
        for i in 0..100 {
            client.create(&format!("/shrink2/f{i}")).await.unwrap();
        }
    });

    let victim = 0usize;
    let victim_id = ServerId(victim as u32);
    let owned_before = cluster.placement().map().shards_owned(victim_id);
    assert!(owned_before > 1);

    // Start the drain concurrently, then crash the victim once some — but
    // not all — shards have flipped.
    let outcome: Outcome = Rc::new(RefCell::new(None));
    {
        let drained = cluster.control().drain(victim);
        let outcome = outcome.clone();
        cluster.sim.spawn(async move {
            let report = drained.await;
            *outcome.borrow_mut() = Some(if report.completed {
                Ok(())
            } else {
                Err(FsError::Unavailable)
            });
        });
    }
    let deadline = cluster.sim.now() + SimDuration::millis(200);
    while cluster.sim.now() < deadline {
        let t = cluster.sim.now() + SimDuration::micros(20);
        cluster.run_until(t);
        let left = cluster.placement().map().shards_owned(victim_id);
        if left < owned_before && left > 0 {
            break;
        }
    }
    let mid = cluster.placement().map().shards_owned(victim_id);
    assert!(
        mid < owned_before && mid > 0,
        "crash window missed: victim still owns {mid} of {owned_before}"
    );
    cluster.crash_server(victim);

    // The interrupted drain future bails out against the crashed server.
    {
        let deadline = cluster.sim.now() + SimDuration::millis(100);
        while outcome.borrow().is_none() && cluster.sim.now() < deadline {
            let t = cluster.sim.now() + SimDuration::millis(1);
            cluster.run_until(t);
        }
    }
    assert_eq!(
        *outcome.borrow(),
        Some(Err(FsError::Unavailable)),
        "a drain interrupted by a crash must report itself incomplete"
    );
    assert!(!cluster.placement().map().is_retired(victim_id));

    // Recovery resolves the interrupted migrations against the shared map:
    // shards that flipped drop their replayed stale copies; the rest stay.
    let report = cluster.recover_server(victim);
    assert!(report.wal_records_replayed > 0);
    assert_eq!(cluster.placement().map().shards_owned(victim_id), mid);

    // Re-running the decommission finishes the drain.
    let report = cluster.remove_server(victim);
    assert!(report.completed, "re-run must finish the interrupted drain");
    assert_eq!(cluster.placement().map().shards_owned(victim_id), 0);
    assert!(cluster.placement().map().is_retired(victim_id));
    assert!(cluster.servers()[victim].is_decommissioned());

    // The namespace survived the crash + partial drain + re-drain.
    let client = cluster.client(1);
    cluster.block_on(async move {
        let dir = client.statdir("/shrink2").await.unwrap();
        assert_eq!(dir.size, 100);
        let (_, entries) = client.readdir("/shrink2").await.unwrap();
        assert_eq!(entries.len(), 100);
        for i in 0..100 {
            client.stat(&format!("/shrink2/f{i}")).await.unwrap();
        }
    });
}
